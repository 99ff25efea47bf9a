//! Joint multi-task training (paper Section 3.2 L).
//!
//! Every labelled query becomes a [`PreparedSample`]: the serialized
//! `E(P)` (computed once — the featurization module is frozen, matching
//! the paper's "the gradient ... will be backpropagated to update the
//! parameters of the (S) and (T) modules only"), per-node cardinality and
//! cost labels, and the optimal join order mapped to query-local slots.
//!
//! [`sample_loss`] assembles `L_QO = w_card·L_card + w_cost·L_cost +
//! w_jo·L_jo` (Eq. 1); [`run_training`] is the epoch loop shared by
//! single-DB training, the MLA meta-learner (which shuffles prepared
//! samples *across databases*), and fine-tuning.

use crate::config::MtmlfConfig;
use crate::error::MtmlfError;
use crate::featurize::FeaturizationModule;
use crate::joeu::sequence_level_loss;
use crate::serialize::serialize_plan;
use crate::shared::SharedModule;
use crate::tasks::TaskHeads;
use crate::transjo::TransJo;
use crate::Result;
use mtmlf_datagen::LabeledQuery;
use mtmlf_nn::layers::Module;
use mtmlf_nn::loss::{cross_entropy_rows, kl_div_rows, mse};
use mtmlf_nn::{Adam, Matrix, Tape, Var};
use mtmlf_query::JoinGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A model-ready training sample.
pub struct PreparedSample {
    /// Serialized node features `E(P)`.
    pub features: Matrix,
    /// Post-order index of each query table's scan node, slot order.
    pub scan_node_of_slot: Vec<usize>,
    /// Query-local join graph (vertex order == slot order).
    pub graph: JoinGraph,
    /// Per-node true cardinalities, post-order.
    pub node_cards: Vec<u64>,
    /// Per-node true cumulative costs, post-order.
    pub node_costs: Vec<f64>,
    /// Optimal join order in slot indices, when labelled.
    pub target_slots: Option<Vec<usize>>,
    /// Bushy mode: per-slot target distributions over the codec positions
    /// (normalized Section 4.1 decoding embeddings), when labelled and
    /// enabled.
    pub target_bushy: Option<Matrix>,
    /// Access-path advisor labels: `(post-order scan-node index, 1.0 if an
    /// index scan is truly cheaper than a sequential scan)`. Derived from
    /// true cardinalities and the shared cost coefficients.
    pub advisor_targets: Vec<(usize, f32)>,
}

/// Which join order supervises the `Trans_JO` task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoTarget {
    /// The exact-optimal order label (the expensive ECQO-style label).
    #[default]
    Optimal,
    /// The classical optimizer's initial-plan order — cheap, sub-optimal
    /// supervision for the first phase of two-phase training (the paper's
    /// Section 3.2 "research opportunities").
    InitialPlan,
}

/// Converts one labelled query using a featurization module.
pub fn prepare_sample(
    module: &FeaturizationModule,
    sample: &LabeledQuery,
    config: &MtmlfConfig,
) -> Result<PreparedSample> {
    prepare_sample_with(module, sample, config, JoTarget::Optimal)
}

/// [`prepare_sample`] with an explicit join-order supervision source.
pub fn prepare_sample_with(
    module: &FeaturizationModule,
    sample: &LabeledQuery,
    config: &MtmlfConfig,
    target: JoTarget,
) -> Result<PreparedSample> {
    let serialized = serialize_plan(module, &sample.query, &sample.plan, config)?;
    let order_label = match target {
        JoTarget::Optimal => sample.optimal_order.clone(),
        JoTarget::InitialPlan => Some(mtmlf_query::JoinOrder::LeftDeep(sample.plan.tables())),
    };
    let target_slots = match &order_label {
        Some(order) => Some(
            order
                .tables()
                .iter()
                .map(|t| {
                    serialized.table_slots.binary_search(t).map_err(|_| {
                        MtmlfError::Query(mtmlf_query::QueryError::OrderTableNotInQuery(*t))
                    })
                })
                .collect::<Result<Vec<usize>>>()?,
        ),
        None => None,
    };
    let target_bushy = if config.bushy {
        match &sample.optimal_bushy {
            Some(order) => Some(bushy_targets(order, &serialized.table_slots, config)?),
            None => None,
        }
    } else {
        None
    };
    // Access-path advisor labels from ground truth: for each scan node,
    // whether an index scan would have been cheaper than the sequential
    // scan given the filters' true cardinality.
    let coefficients = mtmlf_exec::cost::OperatorCost::default();
    let mut advisor_targets = Vec::new();
    for (i, node) in sample.plan.post_order().iter().enumerate() {
        if let mtmlf_query::PlanNode::Scan { table, .. } = node {
            let table_rows = module.table_rows(*table) as f64;
            let out_rows = sample.node_cards[i] as f64;
            let seq = mtmlf_exec::cost::CostTracker::scan_cost(
                &coefficients,
                mtmlf_query::ScanOp::SeqScan,
                table_rows,
                out_rows,
            );
            let index = mtmlf_exec::cost::CostTracker::scan_cost(
                &coefficients,
                mtmlf_query::ScanOp::IndexScan,
                table_rows,
                out_rows,
            );
            advisor_targets.push((i, if index < seq { 1.0 } else { 0.0 }));
        }
    }
    Ok(PreparedSample {
        features: serialized.features,
        scan_node_of_slot: serialized.scan_node_of_slot,
        graph: serialized.graph,
        node_cards: sample.node_cards.clone(),
        node_costs: sample.node_costs.clone(),
        target_slots,
        target_bushy,
        advisor_targets,
    })
}

/// Per-slot target distributions from a bushy optimal order: the Section
/// 4.1 decoding embeddings, re-indexed to query slots and normalized to
/// sum 1 per row (the KL-divergence targets of Section 4.1).
fn bushy_targets(
    order: &mtmlf_query::JoinOrder,
    table_slots: &[mtmlf_storage::TableId],
    config: &MtmlfConfig,
) -> Result<Matrix> {
    let tree = order.tree()?;
    let positions = crate::config::codec_positions(config);
    let embeddings = mtmlf_query::treecodec::encode(&tree, positions)?;
    let mut target = Matrix::zeros(table_slots.len(), positions);
    for e in &embeddings {
        let slot = table_slots.binary_search(&e.table).map_err(|_| {
            MtmlfError::Query(mtmlf_query::QueryError::OrderTableNotInQuery(e.table))
        })?;
        let mass: f32 = e.positions.iter().sum();
        for (c, &v) in e.positions.iter().enumerate() {
            target.set(slot, c, v / mass.max(1.0));
        }
    }
    Ok(target)
}

/// Gathers the table representations (slot order) from the shared output.
pub fn table_representations(
    t: &mut Tape<'_>,
    shared_out: Var,
    scan_node_of_slot: &[usize],
) -> Var {
    let rows: Vec<Var> = scan_node_of_slot
        .iter()
        .map(|&i| t.slice_rows(shared_out, i, i + 1))
        .collect();
    t.concat_rows(&rows)
}

/// `loss + weight · term`.
fn add_weighted(t: &mut Tape<'_>, loss: Var, term: Var, weight: f32) -> Var {
    let term = t.scale(term, weight);
    t.add(loss, term)
}

/// A column of per-node log labels.
fn log_labels(t: &mut Tape<'_>, labels: impl ExactSizeIterator<Item = f32>) -> Var {
    let rows = labels.len();
    t.constant(Matrix::from_vec(rows, 1, labels.collect()))
}

/// The multi-task loss of one sample, recorded on `t`.
pub fn sample_loss<'p>(
    t: &mut Tape<'p>,
    shared: &'p SharedModule,
    heads: &'p TaskHeads,
    jo: &'p TransJo,
    sample: &'p PreparedSample,
    config: &MtmlfConfig,
) -> Var {
    let s = shared.forward(t, &sample.features);
    let w = &config.weights;
    let mut loss = t.constant(Matrix::scalar(0.0));

    if w.card > 0.0 {
        let pred = heads.card(t, s);
        let cards = sample.node_cards.iter().map(|&c| (c.max(1) as f32).ln());
        let target = log_labels(t, cards);
        let term = mse(t, pred, target);
        loss = add_weighted(t, loss, term, w.card);
    }
    if w.cost > 0.0 {
        let pred = heads.cost(t, s);
        let costs = sample.node_costs.iter().map(|&c| (c.max(1.0) as f32).ln());
        let target = log_labels(t, costs);
        let term = mse(t, pred, target);
        loss = add_weighted(t, loss, term, w.cost);
    }
    if w.advisor > 0.0 && !sample.advisor_targets.is_empty() {
        // Binary cross-entropy on the scan nodes' index-vs-seq labels.
        let logits = heads.advisor(t, s);
        let rows: Vec<Var> = sample
            .advisor_targets
            .iter()
            .map(|&(i, _)| t.slice_rows(logits, i, i + 1))
            .collect();
        let picked = t.concat_rows(&rows);
        let p = t.sigmoid(picked);
        let n = sample.advisor_targets.len();
        let targets = t.constant(Matrix::from_vec(
            n,
            1,
            sample.advisor_targets.iter().map(|&(_, y)| y).collect(),
        ));
        let one = t.constant(Matrix::full(n, 1, 1.0));
        // −mean(y·ln p + (1 − y)·ln(1 − p)).
        let ln_p = t.ln_eps(p, 1e-6);
        let hit = t.hadamard(targets, ln_p);
        let not_y = t.sub(one, targets);
        let not_p = t.sub(one, p);
        let ln_not_p = t.ln_eps(not_p, 1e-6);
        let miss = t.hadamard(not_y, ln_not_p);
        let both = t.add(hit, miss);
        let mean = t.mean(both);
        let bce = t.scale(mean, -1.0);
        loss = add_weighted(t, loss, bce, w.advisor);
    }
    if w.jo > 0.0 && config.bushy {
        if let Some(target) = &sample.target_bushy {
            let table_reps = table_representations(t, s, &sample.scan_node_of_slot);
            let logits = jo.position_logits(t, s, table_reps);
            let kl = kl_div_rows(t, logits, target);
            loss = add_weighted(t, loss, kl, w.jo);
        }
    }
    if w.jo > 0.0 {
        if let Some(target) = &sample.target_slots {
            let table_reps = table_representations(t, s, &sample.scan_node_of_slot);
            // Token-level CE is always on; the sequence-level criterion
            // (Eq. 3) is added on top when enabled — "to further enhance
            // the effectiveness of the model training" (Section 3.2 L).
            let logits = jo.teacher_forced_logits(t, s, table_reps, target);
            let mut jo_loss = cross_entropy_rows(t, logits, target);
            if config.sequence_loss {
                let seq = sequence_level_loss(
                    jo,
                    t,
                    s,
                    table_reps,
                    &sample.graph,
                    target,
                    &config.beam,
                    config.lambda_illegal,
                );
                jo_loss = t.add(jo_loss, seq);
            }
            loss = add_weighted(t, loss, jo_loss, w.jo);
        }
    }
    loss
}

/// The (S) and (T) parameters, in a stable order: the order
/// [`run_training`]'s optimizer keeps its moments in and weight files list
/// them in.
pub(crate) fn st_parameters<'a>(
    shared: &'a SharedModule,
    heads: &'a TaskHeads,
    jo: &'a TransJo,
) -> Vec<&'a Matrix> {
    let mut p = shared.parameters();
    p.extend(heads.parameters());
    p.extend(jo.parameters());
    p
}

/// [`st_parameters`], mutably.
pub(crate) fn st_parameters_mut<'a>(
    shared: &'a mut SharedModule,
    heads: &'a mut TaskHeads,
    jo: &'a mut TransJo,
) -> Vec<&'a mut Matrix> {
    let mut p = shared.parameters_mut();
    p.extend(heads.parameters_mut());
    p.extend(jo.parameters_mut());
    p
}

/// Runs `epochs` of shuffled per-sample Adam training over the (S) and (T)
/// parameters. Returns the mean loss of each epoch. The training buffers
/// are dropped from the calling thread's kernel arena when it returns.
pub fn run_training(
    shared: &mut SharedModule,
    heads: &mut TaskHeads,
    jo: &mut TransJo,
    samples: &[PreparedSample],
    config: &MtmlfConfig,
    epochs: usize,
    lr: f32,
) -> Vec<f32> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut opt = Adam::new(&st_parameters(shared, heads, jo), lr);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x12A1);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut history = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        // Paper Algorithm 1 line 7: shuffle the training data — across
        // databases when samples come from several.
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            let (loss, grads) = {
                let mut t = Tape::new();
                let loss = sample_loss(&mut t, shared, heads, jo, &samples[i], config);
                t.backward(loss);
                (
                    t.item(loss),
                    t.into_grads(&st_parameters(shared, heads, jo)),
                )
            };
            opt.step(st_parameters_mut(shared, heads, jo), &grads);
            total += loss;
        }
        history.push(total / samples.len() as f32);
    }
    mtmlf_nn::kernel::arena_clear();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };
    use mtmlf_storage::Database;

    fn setup(
        count: usize,
    ) -> (
        Database,
        Vec<LabeledQuery>,
        FeaturizationModule,
        MtmlfConfig,
    ) {
        let mut db = imdb_lite(1, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let cfg = MtmlfConfig::tiny();
        let module = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            5,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        (db, labeled, module, cfg)
    }

    #[test]
    fn prepare_aligns_labels() {
        let (_, labeled, module, cfg) = setup(5);
        for l in &labeled {
            let p = prepare_sample(&module, l, &cfg).unwrap();
            assert_eq!(p.features.rows(), l.plan.node_count());
            assert_eq!(p.node_cards.len(), l.plan.node_count());
            let target = p.target_slots.as_ref().unwrap();
            assert_eq!(target.len(), l.query.table_count());
            // Targets form a permutation of slots.
            let mut sorted = target.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..target.len()).collect::<Vec<_>>());
        }
    }

    /// [`sample_loss`]'s value on a fresh tape.
    fn loss_of(
        shared: &SharedModule,
        heads: &TaskHeads,
        jo: &TransJo,
        sample: &PreparedSample,
        cfg: &MtmlfConfig,
    ) -> f32 {
        let mut t = Tape::new();
        let loss = sample_loss(&mut t, shared, heads, jo, sample, cfg);
        t.item(loss)
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (_, labeled, module, cfg) = setup(3);
        let shared = SharedModule::new(&cfg);
        let heads = TaskHeads::new(&cfg);
        let jo = TransJo::new(&cfg);
        for l in &labeled {
            let p = prepare_sample(&module, l, &cfg).unwrap();
            let loss = loss_of(&shared, &heads, &jo, &p, &cfg);
            assert!(loss.is_finite());
            assert!(loss > 0.0);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (_, labeled, module, cfg) = setup(8);
        let mut shared = SharedModule::new(&cfg);
        let mut heads = TaskHeads::new(&cfg);
        let mut jo = TransJo::new(&cfg);
        let samples: Vec<PreparedSample> = labeled
            .iter()
            .map(|l| prepare_sample(&module, l, &cfg).unwrap())
            .collect();
        let history = run_training(&mut shared, &mut heads, &mut jo, &samples, &cfg, 8, 2e-3);
        assert_eq!(history.len(), 8);
        assert!(
            history.last().unwrap() < &(history[0] * 0.7),
            "loss should drop: {history:?}"
        );
    }

    #[test]
    fn ablation_weights_remove_terms() {
        let (_, labeled, module, cfg) = setup(3);
        let shared = SharedModule::new(&cfg);
        let heads = TaskHeads::new(&cfg);
        let jo = TransJo::new(&cfg);
        let p = prepare_sample(&module, &labeled[0], &cfg).unwrap();
        let full = loss_of(&shared, &heads, &jo, &p, &cfg);
        let mut card_cfg = cfg.clone();
        card_cfg.weights = crate::config::LossWeights::card_only();
        let card_only = loss_of(&shared, &heads, &jo, &p, &card_cfg);
        assert!(card_only < full, "dropping terms lowers the total");
        assert!(card_only > 0.0);
    }

    #[test]
    fn sequence_loss_variant_runs() {
        let (_, labeled, module, mut cfg) = setup(3);
        cfg.sequence_loss = true;
        let shared = SharedModule::new(&cfg);
        let heads = TaskHeads::new(&cfg);
        let jo = TransJo::new(&cfg);
        let p = prepare_sample(&module, &labeled[0], &cfg).unwrap();
        let mut t = Tape::new();
        let loss = sample_loss(&mut t, &shared, &heads, &jo, &p, &cfg);
        assert!(t.item(loss).is_finite());
        t.backward(loss); // gradients flow through the sequence loss
        let g: f32 = t
            .into_grads(&jo.parameters())
            .iter()
            .flatten()
            .map(Matrix::norm)
            .sum();
        assert!(g > 0.0);
    }
}
