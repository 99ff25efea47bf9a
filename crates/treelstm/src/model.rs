//! The binary Tree-LSTM estimator.

use crate::featurize::PlanFeaturizer;
use mtmlf_datagen::LabeledQuery;
use mtmlf_nn::layers::{Linear, Mlp, Module};
use mtmlf_nn::loss::{log_pred_to_estimate, q_error_log_loss};
use mtmlf_nn::{Adam, Matrix, Tape, Var};
use mtmlf_query::{PlanNode, Query};
use mtmlf_storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tree-LSTM hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeLstmConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs over the workload.
    pub epochs: usize,
    /// Weight initialization / shuffling seed.
    pub seed: u64,
}

impl Default for TreeLstmConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            lr: 1e-3,
            epochs: 10,
            seed: 0,
        }
    }
}

/// A binary (N-ary, N = 2) Tree-LSTM over plan trees with per-node
/// cardinality and cost heads.
pub struct TreeLstm {
    featurizer: PlanFeaturizer,
    /// Maps `[x, h_left, h_right]` to the five gates `i, f_l, f_r, o, u`.
    cell: Linear,
    card_head: Mlp,
    cost_head: Mlp,
    hidden: usize,
    config: TreeLstmConfig,
}

struct NodeState {
    h: Var,
    c: Var,
}

impl TreeLstm {
    /// Builds an untrained model for a database with `tables` tables.
    pub fn new(tables: usize, config: TreeLstmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let featurizer = PlanFeaturizer::new(tables);
        let input = featurizer.width() + 2 * config.hidden;
        Self {
            cell: Linear::new(input, 5 * config.hidden, &mut rng),
            card_head: Mlp::new(&[config.hidden, config.hidden, 1], &mut rng),
            cost_head: Mlp::new(&[config.hidden, config.hidden, 1], &mut rng),
            featurizer,
            hidden: config.hidden,
            config,
        }
    }

    /// Evaluates the cell over the subtree at `node` on the tape, calling
    /// `visit` with each node's post-order index and hidden state as soon
    /// as the state exists, before its parent's cell. Training records the
    /// heads' losses there, so the backward adds a state's gradient shares
    /// in a fixed order (its parent's cell, then its cost head, then its
    /// card head) on which the trained bits depend.
    fn eval<'p>(
        &'p self,
        t: &mut Tape<'p>,
        db: &Database,
        query: &Query,
        node: &PlanNode,
        visit: &mut dyn FnMut(&mut Tape<'p>, usize, Var),
        next: &mut usize,
    ) -> NodeState {
        let zero = |t: &mut Tape<'p>| t.constant(Matrix::zeros(1, self.hidden));
        let (left, right) = match node {
            PlanNode::Scan { .. } => (
                NodeState {
                    h: zero(t),
                    c: zero(t),
                },
                NodeState {
                    h: zero(t),
                    c: zero(t),
                },
            ),
            PlanNode::Join { left, right, .. } => {
                let l = self.eval(t, db, query, left, visit, next);
                let r = self.eval(t, db, query, right, visit, next);
                (l, r)
            }
        };
        let features = {
            // `featurize` of a single (shallow-copied) node yields exactly one
            // row by construction, so `pop` cannot see an empty vector.
            let f = self
                .featurizer
                .featurize(db, query, &shallow_copy(node))
                .pop()
                .expect("at least the root feature"); // lint: allow(panic)
            t.constant(Matrix::row_vec(f))
        };
        let input = t.concat_cols(&[features, left.h, right.h]);
        let gates = self.cell.forward(t, input);
        let h = self.hidden;
        let i = t.slice_cols(gates, 0, h);
        let i = t.sigmoid(i);
        let f_l = t.slice_cols(gates, h, 2 * h);
        let f_l = t.sigmoid(f_l);
        let f_r = t.slice_cols(gates, 2 * h, 3 * h);
        let f_r = t.sigmoid(f_r);
        let o = t.slice_cols(gates, 3 * h, 4 * h);
        let o = t.sigmoid(o);
        let u = t.slice_cols(gates, 4 * h, 5 * h);
        let u = t.tanh(u);
        let iu = t.hadamard(i, u);
        let fl = t.hadamard(f_l, left.c);
        let c = t.add(iu, fl);
        let fr = t.hadamard(f_r, right.c);
        let c = t.add(c, fr);
        let tanh_c = t.tanh(c);
        let hidden = t.hadamard(o, tanh_c);
        visit(t, *next, hidden);
        *next += 1;
        NodeState { h: hidden, c }
    }

    /// Predicts `(cardinality, cost)` for the sub-plan rooted at each node
    /// of `plan`, in post-order.
    pub fn predict(&self, db: &Database, query: &Query, plan: &PlanNode) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(plan.node_count());
        let mut heads = |t: &mut Tape, _: usize, h: Var| {
            let card = self.card_head.infer(t.value(h)).item();
            let cost = self.cost_head.infer(t.value(h)).item();
            out.push((log_pred_to_estimate(card), log_pred_to_estimate(cost)));
        };
        self.eval(&mut Tape::new(), db, query, plan, &mut heads, &mut 0);
        out
    }

    /// Trains on labelled queries with per-node Q-error losses on both
    /// heads. Returns the mean loss of the final epoch. The training
    /// buffers are dropped from the calling thread's kernel arena when it
    /// returns.
    pub fn train(&mut self, db: &Database, data: &[LabeledQuery]) -> f32 {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xA5A5);
        let mut opt = Adam::new(&self.parameters(), self.config.lr);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut final_epoch_loss = 0.0;
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for &qi in &order {
                let sample = &data[qi];
                let (loss, grads) = {
                    let mut t = Tape::new();
                    let mut loss = t.constant(Matrix::scalar(0.0));
                    let mut nodes = 0;
                    self.eval(
                        &mut t,
                        db,
                        &sample.query,
                        &sample.plan,
                        &mut |t, i, h| {
                            let card_pred = self.card_head.forward(t, h);
                            let card = q_error_log_loss(t, card_pred, sample.node_cards[i] as f64);
                            loss = t.add(loss, card);
                            let cost_pred = self.cost_head.forward(t, h);
                            let cost = q_error_log_loss(t, cost_pred, sample.node_costs[i]);
                            loss = t.add(loss, cost);
                        },
                        &mut nodes,
                    );
                    let loss = t.scale(loss, 1.0 / (2.0 * nodes as f32));
                    t.backward(loss);
                    (t.item(loss), t.into_grads(&self.parameters()))
                };
                opt.step(self.parameters_mut(), &grads);
                epoch_loss += loss;
            }
            final_epoch_loss = epoch_loss / data.len().max(1) as f32;
        }
        mtmlf_nn::kernel::arena_clear();
        final_epoch_loss
    }
}

impl Module for TreeLstm {
    mtmlf_nn::module_parameters!(cell, card_head, cost_head);
}

/// A shallow single-node copy for leaf-feature extraction: joins lose their
/// children (children features are not part of the node's own vector).
fn shallow_copy(node: &PlanNode) -> PlanNode {
    match node {
        PlanNode::Scan { table, op } => PlanNode::Scan {
            table: *table,
            op: *op,
        },
        PlanNode::Join { op, .. } => PlanNode::Join {
            op: *op,
            // Dummy children: featurization only reads the join operator.
            left: Box::new(PlanNode::scan(mtmlf_storage::TableId(u32::MAX - 1))),
            right: Box::new(PlanNode::scan(mtmlf_storage::TableId(u32::MAX))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };
    use mtmlf_optd::q_error;

    fn setup(count: usize) -> (Database, Vec<LabeledQuery>) {
        let mut db = imdb_lite(1, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            7,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        (db, labeled)
    }

    #[test]
    fn predicts_per_node() {
        let (db, labeled) = setup(4);
        let model = TreeLstm::new(db.table_count(), TreeLstmConfig::default());
        let sample = &labeled[0];
        let preds = model.predict(&db, &sample.query, &sample.plan);
        assert_eq!(preds.len(), sample.plan.node_count());
        for (card, cost) in preds {
            assert!(card >= 1.0);
            assert!(cost >= 1.0);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (db, labeled) = setup(12);
        let mut model = TreeLstm::new(
            db.table_count(),
            TreeLstmConfig {
                hidden: 32,
                epochs: 1,
                ..TreeLstmConfig::default()
            },
        );
        let first = model.train(&db, &labeled);
        let mut model2 = TreeLstm::new(
            db.table_count(),
            TreeLstmConfig {
                hidden: 32,
                epochs: 12,
                ..TreeLstmConfig::default()
            },
        );
        let last = model2.train(&db, &labeled);
        assert!(
            last < first * 0.8,
            "loss should drop: 1 epoch {first}, 12 epochs {last}"
        );
    }

    #[test]
    fn trained_model_beats_untrained_on_qerror() {
        let (db, labeled) = setup(20);
        let (train, test) = labeled.split_at(16);
        let untrained = TreeLstm::new(db.table_count(), TreeLstmConfig::default());
        let mut trained = TreeLstm::new(
            db.table_count(),
            TreeLstmConfig {
                hidden: 32,
                epochs: 15,
                ..TreeLstmConfig::default()
            },
        );
        trained.train(&db, train);
        let eval = |m: &TreeLstm| -> f64 {
            let mut total = 0.0;
            let mut n = 0;
            for s in test {
                let preds = m.predict(&db, &s.query, &s.plan);
                for (i, (card, _)) in preds.iter().enumerate() {
                    total += q_error(*card, s.node_cards[i] as f64).ln();
                    n += 1;
                }
            }
            (total / n as f64).exp()
        };
        let before = eval(&untrained);
        let after = eval(&trained);
        assert!(
            after < before,
            "geometric-mean q-error should improve: {before} -> {after}"
        );
    }

    #[test]
    fn trained_bits_match_the_recorded_digest() {
        // Recorded before the training tape was flattened: the same
        // training must keep producing the same model, bit for bit.
        let (db, labeled) = setup(6);
        let mut model = TreeLstm::new(
            db.table_count(),
            TreeLstmConfig {
                hidden: 16,
                epochs: 2,
                ..TreeLstmConfig::default()
            },
        );
        let loss = model.train(&db, &labeled);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let preds = labeled
            .iter()
            .flat_map(|s| model.predict(&db, &s.query, &s.plan));
        for (card, cost) in preds {
            for b in card
                .to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(cost.to_bits().to_le_bytes())
            {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            (loss.to_bits(), digest),
            (0x41b2_d9c4, 0xb5a7_3041_08bc_cede)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (db, labeled) = setup(4);
        let cfg = TreeLstmConfig {
            hidden: 16,
            epochs: 2,
            ..TreeLstmConfig::default()
        };
        let mut a = TreeLstm::new(db.table_count(), cfg.clone());
        let mut b = TreeLstm::new(db.table_count(), cfg);
        let la = a.train(&db, &labeled);
        let lb = b.train(&db, &labeled);
        assert_eq!(la, lb);
    }
}
