//! Stands up a traced [`PlannerService`] and exposes its Prometheus
//! metrics at `GET /metrics` — the end-to-end observability demo.
//!
//! Builds a small IMDB-shaped workload and an untrained model (serving
//! metrics depend on tensor shapes, not on learned weights), warms the
//! service with two passes of the query set, then serves scrapes until
//! `--requests` connections have been handled (bounded so the example
//! always terminates; point a browser or `curl` at the printed address).
//!
//! The endpoint is a minimal blocking HTTP/1.1 server: one thread, one
//! connection at a time, text exposition format v0.0.4, no framework.
//! `cargo test --example serve_metrics` runs its round-trip test.
//!
//! ```text
//! cargo run --release --example serve_metrics -- \
//!     [--scale 0.02] [--queries 12] [--seed 1] [--port 9184] [--requests 4]
//! ```

use mtmlf::prelude::*;
use mtmlf::{FallbackPlanner, FeaturizationModule};
use mtmlf_bench::Args;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Content type of the Prometheus text exposition format.
const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn main() -> mtmlf::Result<()> {
    let args = Args::parse();
    let scale = args.f64("scale", 0.02);
    let query_count = args.usize("queries", 12);
    let seed = args.u64("seed", 1);
    let port = args.usize("port", 9184);
    let requests = args.usize("requests", 4);

    let mut db = imdb_lite(seed, ImdbScale { scale })?;
    db.analyze_all(8, 4);
    let config = MtmlfConfig {
        seed,
        ..MtmlfConfig::tiny()
    };
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: query_count,
            min_tables: 3,
            max_tables: 5,
            ..WorkloadConfig::default()
        },
        seed ^ 0x5E,
    );
    let model = MtmlfQo::from_modules(
        FeaturizationModule::untrained(&db, &config)?,
        mtmlf::shared::SharedModule::new(&config),
        mtmlf::tasks::TaskHeads::new(&config),
        mtmlf::transjo::TransJo::new(&config),
        config,
    );
    let service = PlannerService::builder(Arc::new(model))
        .fallback(FallbackPlanner::new(Arc::new(db)))
        .tracing(TraceConfig::default())
        .start()?;

    // Two warm passes from two client threads so the scrape shows real
    // traffic: cold model plans, then warm cache hits.
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (service, queries) = (&service, &queries);
                scope.spawn(move || -> mtmlf::Result<()> {
                    for q in queries.iter().chain(queries).skip(c).step_by(2) {
                        service.plan(PlanRequest::new(q.clone()))?;
                    }
                    Ok(())
                })
            })
            .collect();
        clients.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err(MtmlfError::Service("client thread panicked".into())))
        })
    })?;
    let m = service.metrics();
    println!(
        "warmed: {} requests ({} cache hits, {} traces)",
        m.requests, m.cache_hits, m.traces
    );

    let listener = TcpListener::bind(("127.0.0.1", port as u16))
        .map_err(|e| MtmlfError::Service(format!("binding port {port}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| MtmlfError::Service(format!("local addr: {e}")))?;
    println!("serving metrics at http://{addr}/metrics for {requests} scrape(s)");
    serve_metrics(&listener, || service.render_prometheus(), requests)
        .map_err(|e| MtmlfError::Service(format!("metrics endpoint: {e}")))?;
    service.shutdown();
    Ok(())
}

/// Serves `GET /metrics` on `listener`, calling `render` per request for a
/// fresh exposition, and returns after `max_requests` connections. Any
/// other path gets a 404; malformed requests are dropped silently (the
/// connection still counts toward `max_requests`, so a misbehaving client
/// cannot wedge a bounded server).
fn serve_metrics(
    listener: &TcpListener,
    render: impl Fn() -> String,
    max_requests: usize,
) -> io::Result<()> {
    for _ in 0..max_requests {
        let (mut stream, _) = listener.accept()?;
        let _ = handle(&mut stream, &render);
    }
    Ok(())
}

fn handle(stream: &mut TcpStream, render: &impl Fn() -> String) -> io::Result<()> {
    // Read until the end of the request head (or a sanity cap); the
    // request line is all we route on.
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request_line = String::from_utf8_lossy(&head);
    let request_line = request_line.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method == "GET" && path == "/metrics" {
        ("200 OK", CONTENT_TYPE, render())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one raw request and returns the whole response.
    fn request(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn metrics_round_trip_and_unknown_paths_get_404() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            serve_metrics(&listener, || "mtmlf_requests_total 42\n".to_string(), 2)
        });

        let response = request(addr, "/metrics");
        let (head, body) = response.split_once("\r\n\r\n").expect("head/body");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains(CONTENT_TYPE), "{head}");
        assert_eq!(body, "mtmlf_requests_total 42\n");

        // Second connection: a wrong path must 404, not serve metrics.
        let response = request(addr, "/nope");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");

        server.join().expect("server thread").expect("server io");
    }
}
