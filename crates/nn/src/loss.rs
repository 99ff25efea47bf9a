//! Loss functions: Q-error surrogate, cross-entropy, KL divergence.

use crate::autograd::{Tape, Var};
use crate::matrix::Matrix;

/// Mean squared error between two equal-shaped variables.
pub fn mse(t: &mut Tape<'_>, pred: Var, target: Var) -> Var {
    let d = t.sub(pred, target);
    let sq = t.hadamard(d, d);
    t.mean(sq)
}

/// The smooth Q-error surrogate used to train CardEst/CostEst heads: the
/// squared difference of *log* predictions and *log* labels. Minimizing it
/// minimizes `log(q_error)²` because
/// `q_error = exp(|log est − log true|)` (paper L.i/L.ii, following
/// [15, 32]).
///
/// `pred_log` is the model's output interpreted in log space; `truth` is
/// the raw label (floored at 1).
pub fn q_error_log_loss(t: &mut Tape<'_>, pred_log: Var, truth: f64) -> Var {
    let label = (truth.max(1.0)).ln() as f32;
    let (rows, cols) = t.shape(pred_log);
    let target = t.constant(Matrix::full(rows, cols, label));
    mse(t, pred_log, target)
}

/// Converts a log-space prediction back to an estimate, floored at one
/// tuple.
pub fn log_pred_to_estimate(pred_log: f32) -> f64 {
    (pred_log as f64).exp().max(1.0)
}

/// Token-level cross-entropy: `logits` is `(t, n)`, `targets[t]` the true
/// class per row. Returns the mean negative log-likelihood (the paper's
/// `L_jo = −(Σ_t P_t · log P̂_t)/m`).
pub fn cross_entropy_rows(t: &mut Tape<'_>, logits: Var, targets: &[usize]) -> Var {
    let (rows, cols) = t.shape(logits);
    assert_eq!(rows, targets.len(), "one target per row");
    let logp = t.log_softmax_rows(logits);
    // Select the target entries with a constant one-hot mask, then average.
    let mut mask = Matrix::zeros(rows, cols);
    for (r, &target) in targets.iter().enumerate() {
        assert!(target < cols, "target {target} out of range {cols}");
        mask.set(r, target, -1.0 / rows as f32);
    }
    let mask = t.constant(mask);
    let picked = t.hadamard(logp, mask);
    t.sum(picked)
}

/// KL divergence `KL(target ‖ pred)` per row, averaged: `targets` are
/// fixed distributions (e.g. the paper's tree decoding embeddings
/// normalized to sum 1), `logits` the model outputs.
pub fn kl_div_rows(t: &mut Tape<'_>, logits: Var, targets: &Matrix) -> Var {
    let (rows, cols) = t.shape(logits);
    assert_eq!((rows, cols), targets.shape(), "shape mismatch");
    let logp = t.log_softmax_rows(logits);
    // KL(t‖p) = Σ t (log t − log p); the entropy term is constant in the
    // model, so the trainable part is −Σ t · log p (plus const).
    let mut weights = targets.clone();
    let scale = -1.0 / rows as f32;
    for v in weights.data_mut() {
        *v *= scale;
    }
    let weights = t.constant(weights);
    let picked = t.hadamard(logp, weights);
    t.sum(picked)
}

/// The log-probability (natural log) of one class sequence under per-step
/// logits: `Σ_t log softmax(logits_t)[targets_t]`. Used by the
/// sequence-level join-order loss (paper Section 5, Eq. 3).
pub fn sequence_log_prob(t: &mut Tape<'_>, logits: Var, targets: &[usize]) -> Var {
    let (rows, cols) = t.shape(logits);
    assert_eq!(rows, targets.len(), "one target per step");
    let logp = t.log_softmax_rows(logits);
    let mut mask = Matrix::zeros(rows, cols);
    for (r, &target) in targets.iter().enumerate() {
        mask.set(r, target, 1.0);
    }
    let mask = t.constant(mask);
    let picked = t.hadamard(logp, mask);
    t.sum(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `loss` over a constant `m`, evaluated on a fresh tape.
    fn eval(m: Matrix, loss: impl Fn(&mut Tape, Var) -> Var) -> f32 {
        let mut t = Tape::new();
        let v = t.constant(m);
        let l = loss(&mut t, v);
        t.item(l)
    }

    #[test]
    fn mse_zero_at_match() {
        let l = eval(Matrix::from_vec(1, 2, vec![1.0, 2.0]), |t, a| {
            let b = t.constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
            mse(t, a, b)
        });
        assert_eq!(l, 0.0);
    }

    #[test]
    fn q_error_loss_minimized_at_truth() {
        let exact = eval(Matrix::scalar(100.0f32.ln()), |t, p| {
            q_error_log_loss(t, p, 100.0)
        });
        assert!(exact < 1e-9);
        let l = eval(Matrix::scalar(10.0f32.ln()), |t, p| {
            q_error_log_loss(t, p, 100.0)
        });
        // |log 10 − log 100|² = (ln 10)² ≈ 5.3.
        assert!((l - (10.0f32.ln()).powi(2)).abs() < 1e-4);
    }

    #[test]
    fn estimate_conversion_floors() {
        assert_eq!(log_pred_to_estimate(-5.0), 1.0);
        assert!((log_pred_to_estimate(100.0f32.ln()) - 100.0).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let ce = |m: Matrix| eval(m, |t, l| cross_entropy_rows(t, l, &[0, 1]));
        let lg = ce(Matrix::from_vec(2, 3, vec![5., 0., 0., 0., 5., 0.]));
        let lb = ce(Matrix::from_vec(2, 3, vec![0., 5., 0., 5., 0., 0.]));
        assert!(lg < lb, "good {lg} < bad {lb}");
        assert!(lg > 0.0);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let zeros = Matrix::zeros(1, 3);
        let mut t = Tape::new();
        let logits = t.param(&zeros);
        let loss = cross_entropy_rows(&mut t, logits, &[1]);
        t.backward(loss);
        let g = t.grad(logits);
        // Gradient pushes the target logit up (negative grad) and others down.
        assert!(g.get(0, 1) < 0.0);
        assert!(g.get(0, 0) > 0.0);
        assert!(g.get(0, 2) > 0.0);
    }

    #[test]
    fn kl_divergence_zero_at_match() {
        // logits giving softmax == target distribution has minimal loss; the
        // trainable part equals the target entropy.
        let target = Matrix::full(1, 4, 0.25);
        let l = eval(Matrix::zeros(1, 4), |t, p| kl_div_rows(t, p, &target));
        // −Σ 0.25 log 0.25 = log 4 ≈ 1.386 (entropy; KL itself is 0).
        assert!((l - 4.0f32.ln()).abs() < 1e-4);
        // A mismatched prediction scores strictly worse.
        let skewed = Matrix::from_vec(1, 4, vec![3., 0., 0., 0.]);
        assert!(eval(skewed, |t, p| kl_div_rows(t, p, &target)) > l);
    }

    #[test]
    fn sequence_log_prob_sums_steps() {
        let lp = eval(Matrix::zeros(2, 2), |t, l| sequence_log_prob(t, l, &[0, 1]));
        assert!((lp - 2.0 * 0.5f32.ln()).abs() < 1e-5);
    }
}
