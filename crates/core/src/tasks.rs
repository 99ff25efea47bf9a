//! Task-specific heads (T.i, T.ii): `M_CardEst` and `M_CostEst`.

use crate::config::MtmlfConfig;
use mtmlf_nn::layers::{Mlp, Module};
use mtmlf_nn::loss::log_pred_to_estimate;
use mtmlf_nn::{Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two per-node regression heads. Both read the shared representation
/// row `S_i` of a plan node and output the *log* cardinality / cost of the
/// sub-plan rooted there (two-layer MLPs, as in the paper's Section 6.1).
#[derive(Clone)]
pub struct TaskHeads {
    card: Mlp,
    cost: Mlp,
    advisor: Mlp,
}

impl TaskHeads {
    /// Builds all heads.
    pub fn new(config: &MtmlfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7EAD);
        Self {
            card: Mlp::new(&[config.d_model, config.d_model, 1], &mut rng),
            cost: Mlp::new(&[config.d_model, config.d_model, 1], &mut rng),
            advisor: Mlp::new(&[config.d_model, config.d_model, 1], &mut rng),
        }
    }

    /// Per-node log-cardinality predictions `(nodes, 1)`.
    pub fn card<'p>(&'p self, t: &mut Tape<'p>, shared: Var) -> Var {
        self.card.forward(t, shared)
    }

    /// Per-node log-cost predictions `(nodes, 1)`.
    pub fn cost<'p>(&'p self, t: &mut Tape<'p>, shared: Var) -> Var {
        self.cost.forward(t, shared)
    }

    /// Per-node access-path logits `(nodes, 1)`: positive means an index
    /// scan is predicted cheaper than a sequential scan for the node's
    /// filters (meaningful on scan nodes; the physical-design task of the
    /// paper's Section 2.2).
    pub fn advisor<'p>(&'p self, t: &mut Tape<'p>, shared: Var) -> Var {
        self.advisor.forward(t, shared)
    }

    /// Inference [`Self::advisor`] over the given rows only. The heads are
    /// row-local: each output row equals that node's row of the full
    /// forward, so callers pass just the rows they read.
    pub fn infer_advisor(&self, rows: &Matrix) -> Matrix {
        self.advisor.infer(rows)
    }

    /// The `(cardinality, cost)` estimates of every given row (inference
    /// [`Self::card`] and [`Self::cost`], mapped back from logs).
    pub fn estimates(&self, rows: &Matrix) -> Vec<(f64, f64)> {
        let cards = self.card.infer(rows);
        let costs = self.cost.infer(rows);
        cards
            .data()
            .iter()
            .zip(costs.data())
            .map(|(&card, &cost)| (log_pred_to_estimate(card), log_pred_to_estimate(cost)))
            .collect()
    }
}

impl Module for TaskHeads {
    mtmlf_nn::module_parameters!(card, cost, advisor);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_outputs() {
        let cfg = MtmlfConfig::tiny();
        let heads = TaskHeads::new(&cfg);
        let mut t = Tape::new();
        let s = t.constant(Matrix::zeros(5, cfg.d_model));
        let (card, cost) = (heads.card(&mut t, s), heads.cost(&mut t, s));
        assert_eq!(t.shape(card), (5, 1));
        assert_eq!(t.shape(cost), (5, 1));
    }

    #[test]
    fn heads_are_independent() {
        let cfg = MtmlfConfig::tiny();
        let heads = TaskHeads::new(&cfg);
        let s = Matrix::full(1, cfg.d_model, 0.3);
        assert_ne!(heads.card.infer(&s).item(), heads.cost.infer(&s).item());
    }
}
