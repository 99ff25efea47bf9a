//! One-query planning on plain values: the served model path.
//!
//! [`plan_traced`] plans one query the way
//! [`MtmlfQo::plan_with_estimates`] does for left-deep plans, stage by
//! stage, and does each piece of model work once:
//! 1. serialize the initial plan, running each table's encoder (or reading
//!    its memoized embedding);
//! 2. one `Trans_Share` forward over its nodes;
//! 3. the legality-constrained beam ([`crate::beam::beam_search`]), which
//!    decodes one new row per live prefix per step against cached keys and
//!    values, runs cross-attention as one score and one value GEMM per head
//!    for all live prefixes together, and reuses its buffers from step to
//!    step;
//! 4. the chosen plan's serialization, with its scan rows copied from the
//!    initial plan's ([`reserialize_plan`]: same tables, same filters);
//! 5. one estimation forward whose last encoder block and heads run on the
//!    chosen plan's root row only.
//!
//! Every output is bitwise identical to [`MtmlfQo::plan_with_estimates`] —
//! the property the serving layer's concurrency tests pin down. Planning
//! builds no autograd tape.
//!
//! [`plan_batch`] plans a slice of queries, each alone; a failing query
//! yields an `Err` in its slot and leaves the others untouched.

use crate::beam::beam_search;
use crate::model::MtmlfQo;
use crate::serialize::{reserialize_plan, serialize_plan};
use crate::trace::{Stage, StageRecorder};
use crate::{MtmlfError, Result};
use mtmlf_query::{JoinOrder, Query};

/// The outcome of planning one query: the chosen join order plus the
/// model's root cardinality and cost estimates for that plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The legality-constrained beam search's best join order.
    pub join_order: JoinOrder,
    /// Predicted result cardinality of the chosen plan's root.
    pub est_card: f64,
    /// Predicted total cost of the chosen plan.
    pub est_cost: f64,
}

/// Plans every query in `queries`, one at a time.
///
/// The result vector is index-aligned with the input; each slot is exactly
/// what [`MtmlfQo::plan_with_estimates`] would return (bitwise, including
/// the `f64` estimates) for that query.
pub fn plan_batch(model: &MtmlfQo, queries: &[Query]) -> Vec<Result<PlannedQuery>> {
    let mut recorder = StageRecorder::disabled();
    queries
        .iter()
        .map(|query| plan_traced(model, query, &mut recorder))
        .collect()
}

/// Plans one query, with each pipeline stage recorded into `recorder`
/// ([`Stage::Featurize`] for both serialization passes, [`Stage::Encode`]
/// for the first forward, [`Stage::Beam`] for the decode, and
/// [`Stage::Forward`] for the estimation forward plus heads). With a
/// disabled recorder no clock is read. A stage that fails ends the plan,
/// so later stages record no span.
pub fn plan_traced(
    model: &MtmlfQo,
    query: &Query,
    recorder: &mut StageRecorder,
) -> Result<PlannedQuery> {
    let config = model.config();
    let initial = recorder.timed(Stage::Featurize, || {
        serialize_plan(
            model.featurization(),
            query,
            &model.initial_plan(query)?,
            config,
        )
    })?;
    let memory = recorder.timed(Stage::Encode, || {
        model.shared_module().infer(&initial.features)
    });

    let join_order = recorder.timed(Stage::Beam, || {
        // Serving must emit executable left-deep orders: legality pruning
        // is forced on regardless of the configured default.
        let table_reps = memory.gather_rows(&initial.scan_node_of_slot);
        let candidates = beam_search(
            model.jo_module(),
            &memory,
            &table_reps,
            &initial.graph,
            &config.beam.constrained().left_deep(),
        );
        let best = candidates.first().ok_or(MtmlfError::NoLegalOrder)?;
        Ok::<_, MtmlfError>(JoinOrder::LeftDeep(
            best.slots
                .iter()
                .map(|&slot| initial.table_slots[slot])
                .collect(),
        ))
    })?;

    // Serialize the *chosen* plan, copying its scan rows from the initial
    // plan's, and estimate it with one more forward whose last block and
    // heads run on its root row only (the root is the last node in
    // post-order).
    let chosen = recorder.timed(Stage::Featurize, || {
        reserialize_plan(&initial, query, &join_order.to_plan()?, config)
    })?;
    let (est_card, est_cost) = recorder.timed(Stage::Forward, || model.estimate_root(&chosen))?;
    Ok(PlannedQuery {
        join_order,
        est_card,
        est_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtmlfConfig;
    use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};

    fn setup() -> (MtmlfQo, Vec<Query>) {
        let mut db = imdb_lite(31, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let cfg = MtmlfConfig {
            enc_queries: 10,
            enc_epochs: 1,
            seed: 31,
            ..MtmlfConfig::tiny()
        };
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 6,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            9,
        );
        let model = MtmlfQo::new(&db, cfg).expect("build model");
        (model, queries)
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let (model, queries) = setup();
        let batched = plan_batch(&model, &queries);
        assert_eq!(batched.len(), queries.len());
        for (query, planned) in queries.iter().zip(batched) {
            let planned = planned.expect("plans a generated query");
            let (order, card, cost) = model.plan_with_estimates(query).expect("sequential path");
            assert_eq!(planned.join_order, order);
            assert_eq!(planned.est_card.to_bits(), card.to_bits());
            assert_eq!(planned.est_cost.to_bits(), cost.to_bits());
            planned.join_order.validate(query).expect("legal order");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let (model, queries) = setup();
        assert!(plan_batch(&model, &[]).is_empty());
        let one = plan_batch(&model, &queries[..1]);
        assert_eq!(one.len(), 1);
        let planned = one.into_iter().next().unwrap().expect("plans");
        planned.join_order.validate(&queries[0]).expect("legal");
    }

    #[test]
    fn traced_plan_records_every_stage_and_matches_untraced() {
        use crate::resilience::{Clock, SystemClock};
        use std::sync::Arc;
        let (model, queries) = setup();
        let untraced = plan_batch(&model, &queries);
        for (query, a) in queries.iter().zip(&untraced) {
            let mut recorder = StageRecorder::new(Arc::new(SystemClock::new()) as Arc<dyn Clock>);
            let b = plan_traced(&model, query, &mut recorder).expect("traced plans");
            let a = a.as_ref().expect("untraced plans");
            assert_eq!(a.join_order, b.join_order);
            assert_eq!(a.est_card.to_bits(), b.est_card.to_bits());
            assert_eq!(a.est_cost.to_bits(), b.est_cost.to_bits());
            let count = |stage: Stage| recorder.spans().iter().filter(|s| s.stage == stage).count();
            assert_eq!(count(Stage::Featurize), 2, "both serialization passes");
            assert_eq!(count(Stage::Encode), 1);
            assert_eq!(count(Stage::Beam), 1);
            assert_eq!(count(Stage::Forward), 1);
            assert_eq!(count(Stage::Fallback), 0);
        }
    }
}
