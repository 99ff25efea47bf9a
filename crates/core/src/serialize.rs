//! The serializer (F.iii): tree-structured plan → node-embedding sequence.
//!
//! Each plan node `N_i` is embedded as the concatenation of (paper Section
//! 3.2 F): the one-hot of tables touched by `N_i` (query-local slots), the
//! one-hot of its physical operation, the encoded table distribution
//! `E(f(N_i))` for scans / the join-predicate encoding for joins, a
//! log-size scalar, and the tree positional embedding of \[30\]
//! ([`mtmlf_query::treecodec::node_positions`]).
//!
//! Table slots are *query-local* (position within the query's sorted table
//! list). This keeps `E(P)`'s format identical across databases of
//! different sizes — the property Algorithm 1's cross-DB shuffling relies
//! on: nothing in the serialized layout identifies the database.

use crate::config::MtmlfConfig;
use crate::error::MtmlfError;
use crate::featurize::FeaturizationModule;
use crate::Result;
use mtmlf_nn::Matrix;
use mtmlf_query::treecodec::node_positions;
use mtmlf_query::{JoinGraph, PlanNode, Query};
use mtmlf_storage::TableId;

/// Number of physical-operator slots (2 scans + 3 joins).
const OP_SLOTS: usize = 5;

/// A serialized plan: the model-ready feature sequence plus the query-local
/// bookkeeping every downstream component needs.
pub struct SerializedPlan {
    /// `(nodes, raw_width)` node features, post-order.
    pub features: Matrix,
    /// Query tables in slot order (sorted ascending).
    pub table_slots: Vec<TableId>,
    /// For each slot, the post-order index of that table's scan node.
    pub scan_node_of_slot: Vec<usize>,
    /// The query-local join graph (vertex order == slot order).
    pub graph: JoinGraph,
}

/// Raw node-feature width for a configuration.
pub fn raw_width(config: &MtmlfConfig) -> usize {
    let t = config.max_query_tables;
    // tables multi-hot + op one-hot + log table size + encoder-predicted
    // log filtered size + table embedding + join-predicate table marks +
    // tree positional embedding.
    t + OP_SLOTS + 2 + config.d_model + t + 2 * t
}

/// Serializes `plan` for `query` using the featurization module (the
/// tree-to-sequence conversion of Sections 3.2 F.iii / 4.1).
pub fn serialize_plan(
    module: &FeaturizationModule,
    query: &Query,
    plan: &PlanNode,
    config: &MtmlfConfig,
) -> Result<SerializedPlan> {
    let graph = || Ok(query.join_graph()?);
    serialize(query, plan, config, graph, |_, table, dst| {
        let rows = module.table_rows(table);
        let (embedding, logcard) =
            module.table_embedding_with_logcard(table, query.filters_on(table))?;
        dst[0] = ((rows as f32) + 1.0).log2() / 32.0;
        dst[1] = logcard / 32.0;
        for (d, &v) in dst[2..].iter_mut().zip(embedding.row(0)) {
            *d = v;
        }
        Ok(())
    })
}

/// Serializes another plan of the query that `like` is a serialization of,
/// without running a table encoder: a scan node's table columns (log
/// size, the encoder's log-cardinality and the table embedding) depend on
/// its table and that table's filters only, so they are copied from
/// `like`'s scan rows. Bitwise-equal to [`serialize_plan`] of `plan`; the
/// served path serializes the beam's chosen plan this way, and the
/// cost re-rank each of its candidates.
///
/// Fails if `like` has other tables than `query`; the caller must pass a
/// serialization of this very query, filters included.
pub fn reserialize_plan(
    like: &SerializedPlan,
    query: &Query,
    plan: &PlanNode,
    config: &MtmlfConfig,
) -> Result<SerializedPlan> {
    if like.table_slots != query.tables() {
        return Err(MtmlfError::Internal(
            "reserialize_plan: the serialized plan is of another query".into(),
        ));
    }
    let graph = || Ok(like.graph.clone());
    serialize(query, plan, config, graph, |slot, _, dst| {
        let from = like.features.row(like.scan_node_of_slot[slot]);
        dst.copy_from_slice(&from[scan_columns(config)]);
        Ok(())
    })
}

/// The columns of a scan node's table features: log table size, the
/// encoder's log filtered size, then the table embedding.
fn scan_columns(config: &MtmlfConfig) -> std::ops::Range<usize> {
    let size_col = config.max_query_tables + OP_SLOTS;
    size_col..size_col + 2 + config.d_model
}

/// The serializer behind [`serialize_plan`] and [`reserialize_plan`]:
/// `scan_features(slot, table, dst)` fills a scan node's
/// [`scan_columns`], `graph` gives the query's join graph once the nodes
/// are serialized, and everything else is computed here.
fn serialize(
    query: &Query,
    plan: &PlanNode,
    config: &MtmlfConfig,
    graph: impl FnOnce() -> Result<JoinGraph>,
    mut scan_features: impl FnMut(usize, TableId, &mut [f32]) -> Result<()>,
) -> Result<SerializedPlan> {
    let table_slots: Vec<TableId> = query.tables().to_vec();
    if table_slots.len() > config.max_query_tables {
        return Err(MtmlfError::TooManyQueryTables {
            got: table_slots.len(),
            max: config.max_query_tables,
        });
    }
    let slot_of = |t: TableId| -> Result<usize> {
        table_slots
            .binary_search(&t)
            .map_err(|_| MtmlfError::Query(mtmlf_query::QueryError::OrderTableNotInQuery(t)))
    };
    let nodes = plan.post_order();
    let positions = node_positions(plan, config.max_query_tables);
    let width = raw_width(config);
    let t_slots = config.max_query_tables;
    let mut features = Matrix::zeros(nodes.len(), width);
    let mut scan_node_of_slot = vec![usize::MAX; table_slots.len()];
    let op_base = t_slots;
    let join_base = scan_columns(config).end;
    let pos_base = join_base + t_slots;

    for (i, node) in nodes.iter().enumerate() {
        // Touched-tables multi-hot.
        let touched = node.tables();
        for &t in &touched {
            if !query.tables().contains(&t) {
                return Err(MtmlfError::Query(
                    mtmlf_query::QueryError::OrderTableNotInQuery(t),
                ));
            }
            features.set(i, slot_of(t)?, 1.0);
        }
        match node {
            PlanNode::Scan { table, op } => {
                features.set(
                    i,
                    op_base
                        + match op {
                            mtmlf_query::ScanOp::SeqScan => 0,
                            mtmlf_query::ScanOp::IndexScan => 1,
                        },
                    1.0,
                );
                let slot = slot_of(*table)?;
                scan_features(slot, *table, &mut features.row_mut(i)[scan_columns(config)])?;
                scan_node_of_slot[slot] = i;
            }
            PlanNode::Join { op, left, right } => {
                features.set(
                    i,
                    op_base
                        + match op {
                            mtmlf_query::JoinOp::HashJoin => 2,
                            mtmlf_query::JoinOp::MergeJoin => 3,
                            mtmlf_query::JoinOp::NestedLoopJoin => 4,
                        },
                    1.0,
                );
                // Join-predicate encoding: mark the slots of the tables the
                // connecting predicates touch.
                let lt = left.tables();
                let rt = right.tables();
                for pred in mtmlf_exec::executor::connecting_predicates(query, &lt, &rt) {
                    features.set(i, join_base + slot_of(pred.left.table)?, 1.0);
                    features.set(i, join_base + slot_of(pred.right.table)?, 1.0);
                }
            }
        }
        // Tree positional embedding (truncated/padded to 2·t_slots).
        for (c, &v) in positions[i].iter().take(2 * t_slots).enumerate() {
            features.set(i, pos_base + c, v);
        }
    }
    debug_assert!(
        scan_node_of_slot.iter().all(|&i| i != usize::MAX),
        "every query table must appear as a scan leaf"
    );
    Ok(SerializedPlan {
        features,
        table_slots,
        scan_node_of_slot,
        graph: graph()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
    use mtmlf_storage::Database;

    fn setup() -> (
        Database,
        Vec<mtmlf_query::Query>,
        FeaturizationModule,
        MtmlfConfig,
    ) {
        let db = imdb_lite(1, ImdbScale { scale: 0.02 }).unwrap();
        let cfg = MtmlfConfig::tiny();
        let module = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 6,
                max_tables: 5,
                ..WorkloadConfig::default()
            },
            3,
        );
        (db, queries, module, cfg)
    }

    #[test]
    fn serialization_shapes() {
        let (_, queries, module, cfg) = setup();
        for q in &queries {
            let plan =
                PlanNode::left_deep(&mtmlf_exec::executor::greedy_legal_order(q).unwrap()).unwrap();
            let s = serialize_plan(&module, q, &plan, &cfg).unwrap();
            assert_eq!(s.features.shape(), (plan.node_count(), raw_width(&cfg)));
            assert_eq!(s.table_slots.len(), q.table_count());
            assert_eq!(s.scan_node_of_slot.len(), q.table_count());
            assert_eq!(s.graph.len(), q.table_count());
        }
    }

    #[test]
    fn scan_nodes_resolve_to_slots() {
        let (_, queries, module, cfg) = setup();
        let q = &queries[0];
        let plan =
            PlanNode::left_deep(&mtmlf_exec::executor::greedy_legal_order(q).unwrap()).unwrap();
        let s = serialize_plan(&module, q, &plan, &cfg).unwrap();
        let nodes = plan.post_order();
        for (slot, &node_idx) in s.scan_node_of_slot.iter().enumerate() {
            match nodes[node_idx] {
                PlanNode::Scan { table, .. } => assert_eq!(*table, s.table_slots[slot]),
                _ => panic!("slot must map to a scan node"),
            }
        }
    }

    #[test]
    fn features_distinguish_filters() {
        let (_, queries, module, cfg) = setup();
        // Find a query with at least one filter; zero out its filters and
        // compare serializations.
        let q = queries
            .iter()
            .find(|q| q.filters().count() > 0)
            .expect("some query has filters");
        let plan =
            PlanNode::left_deep(&mtmlf_exec::executor::greedy_legal_order(q).unwrap()).unwrap();
        let unfiltered = mtmlf_query::Query::new(
            q.tables().to_vec(),
            q.joins().to_vec(),
            std::collections::BTreeMap::new(),
        )
        .unwrap();
        let a = serialize_plan(&module, q, &plan, &cfg).unwrap();
        let b = serialize_plan(&module, &unfiltered, &plan, &cfg).unwrap();
        assert_ne!(a.features.data(), b.features.data());
    }

    #[test]
    fn reserialized_plans_match_fresh_serializations_bitwise() {
        let (_, queries, module, cfg) = setup();
        for q in &queries {
            let order = mtmlf_exec::executor::greedy_legal_order(q).unwrap();
            let initial =
                serialize_plan(&module, q, &PlanNode::left_deep(&order).unwrap(), &cfg).unwrap();
            // The same tables joined in reverse, as a bushy-free left-deep
            // plan: other scan positions, same table columns.
            let mut reversed = order.clone();
            reversed.reverse();
            let plan = PlanNode::left_deep(&reversed).unwrap();
            let fresh = serialize_plan(&module, q, &plan, &cfg).unwrap();
            let reused = reserialize_plan(&initial, q, &plan, &cfg).unwrap();
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.features), bits(&fresh.features));
            assert_eq!(reused.table_slots, fresh.table_slots);
            assert_eq!(reused.scan_node_of_slot, fresh.scan_node_of_slot);
            assert_eq!(reused.graph, fresh.graph);
        }
        // A serialization of another query is refused.
        let (a, b) = (&queries[0], &queries[1]);
        assert_ne!(a.tables(), b.tables());
        let plan_of = |q: &Query| {
            PlanNode::left_deep(&mtmlf_exec::executor::greedy_legal_order(q).unwrap()).unwrap()
        };
        let other = serialize_plan(&module, b, &plan_of(b), &cfg).unwrap();
        assert!(matches!(
            reserialize_plan(&other, a, &plan_of(a), &cfg),
            Err(MtmlfError::Internal(_))
        ));
    }

    #[test]
    fn too_many_tables_rejected() {
        let (_, queries, module, mut cfg) = setup();
        cfg.max_query_tables = 1;
        let q = &queries[0];
        let plan =
            PlanNode::left_deep(&mtmlf_exec::executor::greedy_legal_order(q).unwrap()).unwrap();
        assert!(matches!(
            serialize_plan(&module, q, &plan, &cfg),
            Err(MtmlfError::TooManyQueryTables { .. })
        ));
    }
}
