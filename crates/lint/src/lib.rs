//! # mtmlf-lint
//!
//! The workspace invariant checker. MTMLF-QO serves as a concurrent
//! service (sharded LRU plan cache, durable log, replicated cluster), which
//! puts correctness on invariants the compiler cannot see. This crate
//! machine-enforces them:
//!
//! * a **static-analysis pass** ([`lexer`], [`rules`]) — a hand-rolled
//!   Rust lexer walks every `.rs` file and enforces the L1, L2 and L4
//!   catalog (panic-freedom, determinism, error-type discipline),
//!   ratcheted against a checked-in [`baseline`] so existing debt fails
//!   nothing but *new* debt fails CI;
//! * a **bounded-interleaving model checker** ([`interleave`]) — a
//!   `loom`-style brute-force scheduler that exhaustively explores every
//!   interleaving of small state machines mirroring the serving path's
//!   `ShardedLruCache` and `PlannerService`, proving no lost responses, no
//!   double completions, and no deadlocks for 2–3 threads.
//!
//! Run it as `cargo run -p mtmlf-lint -- --check`; results land in
//! `results/LINT.json`. See DESIGN.md §"Static guarantees" for the catalog
//! and how to add a lint.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod concurrency;
pub mod interleave;
pub mod ir;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// One source file prepared for analysis: workspace-relative path plus its
/// contents. Public so tests can drive the analyzer on in-memory fixtures.
pub struct SourceFile {
    /// Workspace-relative path (drives scoping and lock identities).
    pub rel: String,
    /// File contents.
    pub src: String,
}

/// Runs every pass (token rules L1, L2, L4, IR extraction, concurrency passes
/// G1/G2/L5/L6) over in-memory sources. Benchmark findings (`crates/bench`,
/// `perfbench/`) are routed to the advisory (report-only) section.
pub fn analyze_sources(sources: &[SourceFile], rep: &mut report::Report) {
    let mut graph = rules::ErrorGraph::default();
    let mut irs: Vec<ir::FileIr> = Vec::new();
    let mut lexed_by_file: HashMap<String, lexer::Lexed> = HashMap::new();
    for sf in sources {
        let lexed = lexer::lex(&sf.src);
        let mask = rules::test_mask(&lexed.toks);
        let mut scope = rules::FileScope::of(&sf.rel);
        if scope.bench {
            // Benchmark coverage is report-only. Run the same rules with
            // library scoping forced on, but collect into `advisory` so the
            // findings never gate `--check`. L2 stays quiet in the
            // clock-exempt `crates/bench`; `perfbench/` timers show here.
            scope.library_override = true;
            rules::check_l1(
                &sf.rel,
                &scope,
                &lexed,
                &mask,
                &mut rep.advisory,
                &mut rep.allowed,
            );
            rules::check_l2(
                &sf.rel,
                &scope,
                &lexed,
                &mask,
                &mut rep.advisory,
                &mut rep.allowed,
            );
        } else {
            rules::check_l1(
                &sf.rel,
                &scope,
                &lexed,
                &mask,
                &mut rep.violations,
                &mut rep.allowed,
            );
            rules::check_l2(
                &sf.rel,
                &scope,
                &lexed,
                &mask,
                &mut rep.violations,
                &mut rep.allowed,
            );
            graph.collect(&sf.rel, &scope, &lexed, &mask);
        }
        // IR feeds the whole-program passes: library + bench sources, no
        // integration-test trees (panicking/blocking is fine in a test).
        if scope.is_library_crate() && !scope.in_test_tree {
            irs.push(ir::extract(&sf.rel, &scope, &lexed, &mask));
        }
        lexed_by_file.insert(sf.rel.clone(), lexed);
        rep.files_scanned += 1;
    }
    graph.finalize(&mut rep.violations);

    for ir in &irs {
        rep.ir_stats.absorb(ir);
    }
    let is_allowed = |file: &str, line: u32, rule: &str| {
        lexed_by_file
            .get(file)
            .is_some_and(|l| l.is_allowed(line, rule))
    };
    let mut conc = Vec::new();
    concurrency::check_concurrency(&irs, &is_allowed, &mut conc, &mut rep.allowed);
    for v in conc {
        if rules::FileScope::of(&v.file).bench {
            rep.advisory.push(v);
        } else {
            rep.violations.push(v);
        }
    }

    let order = |a: &rules::Violation, b: &rules::Violation| {
        (a.rule, a.file.clone(), a.line).cmp(&(b.rule, b.file.clone(), b.line))
    };
    rep.violations.sort_by(order);
    rep.advisory.sort_by(order);
}

/// Runs the full static pass over a workspace root, returning the report
/// (model suite not yet attached).
pub fn analyze_workspace(root: &Path) -> std::io::Result<report::Report> {
    let mut sources = Vec::new();
    for path in &walk::rust_files(root)? {
        let rel = walk::relative(root, path);
        if rel.starts_with("crates/lint/") {
            // The lint does not lint itself: its sources are full of the
            // very token patterns it hunts for.
            continue;
        }
        sources.push(SourceFile {
            rel,
            src: fs::read_to_string(path)?,
        });
    }
    let mut rep = report::Report::default();
    analyze_sources(&sources, &mut rep);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(rel: &str, src: &str) -> report::Report {
        let mut rep = report::Report::default();
        analyze_sources(
            &[SourceFile {
                rel: rel.to_string(),
                src: src.to_string(),
            }],
            &mut rep,
        );
        rep
    }

    #[test]
    fn perfbench_clock_is_advisory_library_clock_is_a_violation() {
        let src = "fn tick() -> std::time::Instant { std::time::Instant::now() }";
        let bench = analyze("perfbench/src/churn.rs", src);
        assert!(bench.violations.is_empty(), "{:?}", bench.violations);
        assert!(
            bench.advisory.iter().any(|v| v.rule == "L2"),
            "{:?}",
            bench.advisory
        );
        let library = analyze("crates/core/src/planner.rs", src);
        assert!(
            library.violations.iter().any(|v| v.rule == "L2"),
            "{:?}",
            library.violations
        );
        assert!(library.advisory.is_empty(), "{:?}", library.advisory);
    }
}
