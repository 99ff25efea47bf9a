//! Cardinality-estimation deep dive: why classical estimators fail on
//! skewed, correlated data — and what the learned model does about it.
//!
//! Compares, for a set of increasingly adversarial predicates, the
//! PostgreSQL-style histogram estimate, the per-table encoder `Enc_i`'s
//! estimate, and the truth.
//!
//! ```text
//! cargo run --release --example cardinality_explorer
//! ```

use mtmlf::{FeaturizationModule, MtmlfConfig};
use mtmlf_datagen::{imdb::ImdbScale, imdb_lite};
use mtmlf_exec::evaluate_filters;
use mtmlf_nn::loss::log_pred_to_estimate;
use mtmlf_optd::{q_error, PgEstimator};
use mtmlf_query::{CmpOp, FilterPredicate, LikePattern, Query};
use mtmlf_storage::{ColumnId, TableId, Value};
use std::collections::BTreeMap;

fn main() {
    let mut db = imdb_lite(3, ImdbScale { scale: 0.1 }).expect("imdb_lite schema is static");
    db.analyze_all(24, 12);
    let title = TableId(0);

    println!("fitting the per-table encoders (single-table CardEst pre-training) ...");
    let config = MtmlfConfig {
        enc_queries: 300,
        enc_epochs: 40,
        seed: 3,
        ..MtmlfConfig::default()
    };
    let featurizer = FeaturizationModule::fit(&db, &config).expect("featurizer");

    // Test predicates on `title(id, production_year, kind, title)`:
    let year = ColumnId(1);
    let kind = ColumnId(2);
    let name = ColumnId(3);
    let cases: Vec<(&str, Vec<FilterPredicate>)> = vec![
        (
            "single range (easy for histograms)",
            vec![FilterPredicate::Cmp {
                column: year,
                op: CmpOp::Ge,
                value: Value::Int(2000),
            }],
        ),
        (
            "correlated pair year>=2000 AND kind=5 (independence breaks)",
            vec![
                FilterPredicate::Cmp {
                    column: year,
                    op: CmpOp::Ge,
                    value: Value::Int(2000),
                },
                FilterPredicate::Cmp {
                    column: kind,
                    op: CmpOp::Eq,
                    value: Value::Int(5),
                },
            ],
        ),
        (
            "anti-correlated pair year<=1930 AND kind=6 (near-empty)",
            vec![
                FilterPredicate::Cmp {
                    column: year,
                    op: CmpOp::Le,
                    value: Value::Int(1930),
                },
                FilterPredicate::Cmp {
                    column: kind,
                    op: CmpOp::Eq,
                    value: Value::Int(6),
                },
            ],
        ),
        (
            "LIKE '%dark%' (magic constant in classical estimators)",
            vec![FilterPredicate::Like {
                column: name,
                pattern: LikePattern::Contains("dark".into()),
            }],
        ),
        (
            "LIKE '%dark%' AND year>=2000 (string + correlation)",
            vec![
                FilterPredicate::Like {
                    column: name,
                    pattern: LikePattern::Contains("dark".into()),
                },
                FilterPredicate::Cmp {
                    column: year,
                    op: CmpOp::Ge,
                    value: Value::Int(2000),
                },
            ],
        ),
    ];

    let pg = PgEstimator::new(&db);
    let table = db.table(title).expect("title exists");
    println!(
        "\n{:<58} {:>8} {:>10} {:>8} {:>10} {:>8}",
        "predicate", "truth", "pg est", "pg qerr", "enc est", "enc qerr"
    );
    for (label, filters) in cases {
        let truth = evaluate_filters(table, &filters).expect("evaluation").len() as f64;
        let mut fmap = BTreeMap::new();
        fmap.insert(title, filters.clone());
        let query = Query::new(vec![title], vec![], fmap).expect("query");
        let pg_est = pg.base_cardinality(&query, title).expect("pg estimate");
        let enc = featurizer.encoder(title).expect("encoder");
        let tokens = featurizer.predicate_tokens(title, &filters);
        let enc_est = log_pred_to_estimate(enc.embed_with_logcard(&tokens).1);
        println!(
            "{label:<58} {truth:>8.0} {pg_est:>10.1} {:>8.1} {enc_est:>10.1} {:>8.1}",
            q_error(pg_est, truth),
            q_error(enc_est, truth),
        );
    }
    println!("\nThe learned encoder adapts to skew, correlation, and string");
    println!("content; the classical estimator is bound to its independence");
    println!("and magic-constant assumptions — the gap behind Table 1.");
}
