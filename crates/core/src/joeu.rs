//! JOEU and the sequence-level join-order loss (paper Section 5).
//!
//! **JOEU** (Join Order Evaluation Understudy), the paper's BLEU-inspired
//! criterion: the length of the common prefix of a generated order and the
//! optimal order, divided by the sequence length — "if the partial join
//! order up to timestamp t is not optimal, the overall join order can not
//! be optimal regardless of the table orders after t".
//!
//! The **sequence-level loss** (Eq. 3) combines:
//! 1. the negative log-likelihood of the optimal order `u*`;
//! 2. a JOEU-weighted penalty on the likelihood of every *legal*
//!    beam-search candidate (candidates close to optimal are penalized
//!    less);
//! 3. `λ · log Σ p(u)` over the *illegal* candidates the unconstrained
//!    beam search surfaced — teaching the model legality instead of only
//!    masking it at decode time.

use crate::beam::{beam_search, BeamCandidate};
use crate::transjo::TransJo;
use mtmlf_nn::loss::sequence_log_prob;
use mtmlf_nn::{Matrix, Tape, Var};
use mtmlf_query::JoinGraph;

/// JOEU(u, u*): shared-prefix length over sequence length, in `[0, 1]`.
pub fn joeu(u: &[usize], optimal: &[usize]) -> f64 {
    if u.is_empty() || u.len() != optimal.len() {
        return 0.0;
    }
    let prefix = u.iter().zip(optimal).take_while(|(a, b)| a == b).count();
    prefix as f64 / u.len() as f64
}

/// The differentiable log-probability of a full order under the decoder
/// (sum of per-step log-softmax picks, teacher-forced).
fn order_log_prob<'p>(
    jo: &'p TransJo,
    t: &mut Tape<'p>,
    memory: Var,
    table_reps: Var,
    order: &[usize],
) -> Var {
    let logits = jo.teacher_forced_logits(t, memory, table_reps, order);
    sequence_log_prob(t, logits, order)
}

/// Builds the sequence-level loss `L_JO` of Eq. 3 for one query.
///
/// Candidates come from an *unconstrained* beam search at `beam.width`
/// (legality pruning is forced off regardless of the configured default,
/// so the model's illegal preferences are visible to the `λ` term).
///
/// **Stabilized realization.** Read literally, Eq. 3's second and third
/// terms add `weight · log p(u)` with positive weights — unbounded below:
/// the optimizer can diverge by driving *any* non-optimal candidate's
/// probability to zero (destroying the shared-prefix steps `u*` relies
/// on). Following the sequence-level-training work the paper cites
/// (Ranzato et al. \[28\]), we realize those terms as a bounded *expected
/// risk* over the beam: candidate probabilities are re-normalized over the
/// candidate set, each legal candidate costs `1 − JOEU(u, u*)`, each
/// illegal candidate costs `λ`, and the loss is the probability-weighted
/// cost. Same minimizer (mass on the optimal order, none on illegal
/// orders), bounded gradients.
#[allow(clippy::too_many_arguments)]
pub fn sequence_level_loss<'p>(
    jo: &'p TransJo,
    t: &mut Tape<'p>,
    memory: Var,
    table_reps: Var,
    graph: &JoinGraph,
    optimal: &[usize],
    beam: &crate::beam::BeamConfig,
    lambda: f32,
) -> Var {
    let m = optimal.len().max(1) as f32;
    // Term 1: −log p(u*), averaged per step (matching the token loss scale).
    let log_p = order_log_prob(jo, t, memory, table_reps, optimal);
    let loss = t.scale(log_p, -1.0 / m);

    let candidates: Vec<BeamCandidate> = beam_search(
        jo,
        t.value(memory),
        t.value(table_reps),
        graph,
        &beam.unconstrained().left_deep(),
    );
    if candidates.is_empty() {
        return loss;
    }

    // Expected risk over the re-normalized candidate distribution.
    let lps: Vec<Var> = candidates
        .iter()
        .map(|c| order_log_prob(jo, t, memory, table_reps, &c.slots))
        .collect();
    let logits = t.concat_cols(&lps); // (1, k)
    let weights = t.softmax_rows(logits); // re-normalized over the beam
    let risk: Vec<f32> = candidates
        .iter()
        .map(|c| {
            if c.legal {
                1.0 - joeu(&c.slots, optimal) as f32
            } else {
                lambda
            }
        })
        .collect();
    let risk = t.constant(Matrix::row_vec(risk));
    let weighted = t.hadamard(weights, risk);
    let expected = t.sum(weighted);
    t.add(loss, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MtmlfConfig;
    use mtmlf_nn::layers::Module;
    use mtmlf_nn::Adam;
    use mtmlf_storage::TableId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn joeu_prefix_semantics() {
        assert_eq!(joeu(&[1, 2, 3, 4], &[1, 2, 3, 4]), 1.0);
        assert_eq!(joeu(&[1, 2, 4, 3], &[1, 2, 3, 4]), 0.5);
        assert_eq!(joeu(&[2, 1, 3, 4], &[1, 2, 3, 4]), 0.0);
        assert_eq!(joeu(&[1, 2], &[1, 2, 3]), 0.0, "length mismatch");
        assert_eq!(joeu(&[], &[]), 0.0);
    }

    #[test]
    fn joeu_bounds() {
        for perm in [[0usize, 1, 2], [0, 2, 1], [2, 1, 0]] {
            let j = joeu(&perm, &[0, 1, 2]);
            assert!((0.0..=1.0).contains(&j));
        }
    }

    fn chain(m: usize) -> JoinGraph {
        let vertices = (0..m as u32).map(TableId).collect();
        let edges: Vec<(usize, usize)> = (0..m - 1).map(|i| (i, i + 1)).collect();
        JoinGraph::from_edges(vertices, &edges).unwrap()
    }

    /// One Adam step on the sequence-level loss of `optimal`.
    #[allow(clippy::too_many_arguments)]
    fn train_step(
        jo: &mut TransJo,
        opt: &mut Adam,
        memory: &Matrix,
        table_reps: &Matrix,
        graph: &JoinGraph,
        optimal: &[usize],
        beam: &crate::beam::BeamConfig,
        lambda: f32,
    ) {
        let grads = {
            let mut t = Tape::new();
            let (m, r) = (t.input(memory), t.input(table_reps));
            let loss = sequence_level_loss(jo, &mut t, m, r, graph, optimal, beam, lambda);
            t.backward(loss);
            t.into_grads(&jo.parameters())
        };
        opt.step(jo.parameters_mut(), &grads);
    }

    #[test]
    fn sequence_loss_trains_toward_optimal() {
        let cfg = MtmlfConfig::tiny();
        let mut jo = TransJo::new(&cfg);
        let mut rng = StdRng::seed_from_u64(13);
        let memory = Matrix::xavier(7, cfg.d_model, &mut rng);
        let table_reps = Matrix::xavier(4, cfg.d_model, &mut rng);
        let graph = chain(4);
        let optimal = [1usize, 2, 3, 0];
        graph.check_left_deep(&optimal).unwrap();
        let mut opt = Adam::new(&jo.parameters(), 3e-3);
        let beam = crate::beam::BeamConfig::new(4);
        for _ in 0..60 {
            train_step(
                &mut jo,
                &mut opt,
                &memory,
                &table_reps,
                &graph,
                &optimal,
                &beam,
                2.0,
            );
        }
        // The constrained beam's best candidate should now be the optimal
        // order.
        let best = beam_search(&jo, &memory, &table_reps, &graph, &beam)
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(best.slots, optimal.to_vec());
    }

    #[test]
    fn illegal_mass_shrinks_under_training() {
        let cfg = MtmlfConfig::tiny();
        let mut jo = TransJo::new(&cfg);
        let mut rng = StdRng::seed_from_u64(17);
        let memory = Matrix::xavier(5, cfg.d_model, &mut rng);
        let table_reps = Matrix::xavier(3, cfg.d_model, &mut rng);
        let graph = chain(3);
        let optimal = [0usize, 1, 2];
        let illegal_mass = |jo: &TransJo| -> f32 {
            beam_search(
                jo,
                &memory,
                &table_reps,
                &graph,
                &crate::beam::BeamConfig::new(6).unconstrained(),
            )
            .iter()
            .filter(|c| !c.legal)
            .map(|c| c.log_prob.exp())
            .sum()
        };
        let before = illegal_mass(&jo);
        let mut opt = Adam::new(&jo.parameters(), 3e-3);
        let beam = crate::beam::BeamConfig::new(6);
        for _ in 0..50 {
            train_step(
                &mut jo,
                &mut opt,
                &memory,
                &table_reps,
                &graph,
                &optimal,
                &beam,
                4.0,
            );
        }
        let after = illegal_mass(&jo);
        assert!(
            after < before || after < 1e-3,
            "illegal mass should shrink: {before} -> {after}"
        );
    }
}
