//! Per-table encoders `Enc_i` (paper F.ii).
//!
//! Each table gets a small transformer encoder over its filter-predicate
//! tokens. The pooled output `E(f(T_i))` represents "the distribution of
//! `T_i` after applying `f(T_i)`". Encoders are pre-trained on single-table
//! cardinality estimation ("`Enc_i` learns the data distribution of `T_i`
//! through predicting the cardinality of filter predicate `f(T_i)`") and
//! are *frozen* during joint training: the paper backpropagates the
//! multi-task loss into the (S) and (T) modules only.

use mtmlf_nn::layers::{Linear, Mlp, Module};
use mtmlf_nn::loss::q_error_log_loss;
use mtmlf_nn::{Adam, Matrix, Tape, TransformerEncoder, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One table's encoder.
#[derive(Clone)]
pub struct TableEncoder {
    input_proj: Linear,
    encoder: TransformerEncoder,
    card_head: Mlp,
    d_model: usize,
}

impl TableEncoder {
    /// Builds an encoder for predicate tokens of width `token_width`.
    pub fn new(
        token_width: usize,
        d_model: usize,
        heads: usize,
        blocks: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            input_proj: Linear::new(token_width, d_model, rng),
            encoder: TransformerEncoder::new(d_model, heads, blocks, rng),
            card_head: Mlp::new(&[d_model, d_model, 1], rng),
            d_model,
        }
    }

    /// Encodes a token matrix `(num_predicates, token_width)` on the tape
    /// into the pooled table-distribution embedding `(1, d_model)`.
    pub fn encode<'p>(&'p self, t: &mut Tape<'p>, tokens: &'p Matrix) -> Var {
        let x = t.input(tokens);
        let projected = self.input_proj.forward(t, x);
        let h = self.encoder.forward(t, projected);
        t.mean_rows(h)
    }

    /// Predicted log-cardinality for a token matrix on the tape (the
    /// pre-training head).
    pub fn log_card<'p>(&'p self, t: &mut Tape<'p>, tokens: &'p Matrix) -> Var {
        let pooled = self.encode(t, tokens);
        self.card_head.forward(t, pooled)
    }

    /// The embedding as a detached matrix (used by the serializer: the
    /// joint loss must not flow into the featurization module). Runs on
    /// plain values, bitwise-equal to [`TableEncoder::encode`].
    pub fn embed(&self, tokens: &Matrix) -> Matrix {
        let h = self.encoder.forward_packed(self.input_proj.infer(tokens));
        // Mean over rows as the tape computes it: a `1/rows` row times `h`.
        let rows = h.rows();
        Matrix::full(1, rows, 1.0 / rows as f32).matmul(&h)
    }

    /// The detached embedding *and* the predicted log-cardinality from one
    /// encoder forward: the serializer needs both for every scan node.
    /// Bitwise-equal to [`TableEncoder::encode`] and
    /// [`TableEncoder::log_card`], and no tape is built.
    pub fn embed_with_logcard(&self, tokens: &Matrix) -> (Matrix, f32) {
        let pooled = self.embed(tokens);
        let log_card = self.card_head.infer(&pooled).item();
        (pooled, log_card)
    }

    /// Pre-trains the encoder on `(tokens, true_cardinality)` samples with
    /// the Q-error surrogate, one sample per Adam step. Returns the
    /// final-epoch mean loss. The training buffers are dropped from the
    /// calling thread's kernel arena when it returns.
    pub fn fit(&mut self, samples: &[(Matrix, u64)], epochs: usize, lr: f32, seed: u64) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(&self.parameters(), lr);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                let (tokens, card) = &samples[i];
                let (loss, grads) = {
                    let mut t = Tape::new();
                    let pred = self.log_card(&mut t, tokens);
                    let loss = q_error_log_loss(&mut t, pred, *card as f64);
                    t.backward(loss);
                    (t.item(loss), t.into_grads(&self.parameters()))
                };
                opt.step(self.parameters_mut(), &grads);
                total += loss;
            }
            last = total / samples.len() as f32;
        }
        mtmlf_nn::kernel::arena_clear();
        last
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }
}

impl Module for TableEncoder {
    mtmlf_nn::module_parameters!(input_proj, encoder, card_head);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(kind: usize, lo: f32, hi: f32) -> Matrix {
        // Minimal 6-wide token: 4 kind slots + lo + hi.
        let mut t = Matrix::zeros(1, 6);
        t.set(0, kind, 1.0);
        t.set(0, 4, lo);
        t.set(0, 5, hi);
        t
    }

    #[test]
    fn encode_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TableEncoder::new(6, 16, 2, 1, &mut rng);
        let tokens = Matrix::concat_rows(&[&token(0, 0.0, 0.5), &token(1, 0.2, 0.8)]);
        let mut t = Tape::new();
        let pooled = enc.encode(&mut t, &tokens);
        let log_card = enc.card_head.forward(&mut t, pooled);
        assert_eq!(t.shape(pooled), (1, 16));
        // The tape-free forward is the tape forward's value, bitwise.
        let (embedding, card) = enc.embed_with_logcard(&tokens);
        assert_eq!(&embedding, t.value(pooled));
        assert_eq!(card.to_bits(), t.item(log_card).to_bits());
    }

    #[test]
    fn fit_learns_range_width_to_cardinality() {
        // Cardinality proportional to (hi − lo) over a 1000-row table: the
        // encoder must learn the mapping from range width to count.
        let mut rng = StdRng::seed_from_u64(2);
        let mut enc = TableEncoder::new(6, 16, 2, 1, &mut rng);
        let mut samples = Vec::new();
        for i in 0..40 {
            let lo = (i % 5) as f32 * 0.1;
            let hi = lo + 0.1 + (i % 7) as f32 * 0.1;
            let card = ((hi - lo).min(1.0) * 1000.0) as u64;
            samples.push((token(0, lo, hi.min(1.0)), card.max(1)));
        }
        let final_loss = enc.fit(&samples, 60, 2e-3, 3);
        assert!(final_loss < 0.2, "encoder should fit: loss {final_loss}");
        // Wider range must predict more rows than a narrow one.
        let wide = enc.embed_with_logcard(&token(0, 0.0, 0.9)).1;
        let narrow = enc.embed_with_logcard(&token(0, 0.4, 0.5)).1;
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn fit_leaves_no_training_buffers_pooled() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut enc = TableEncoder::new(6, 16, 2, 1, &mut rng);
        let samples = vec![(token(1, 0.1, 0.6), 300), (token(2, 0.0, 0.2), 40)];
        enc.fit(&samples, 2, 1e-3, 1);
        assert_eq!(mtmlf_nn::kernel::arena_buffers(), 0);
    }
}
