//! Transformer encoder and decoder stacks (pre-norm variant).
//!
//! The paper uses "a transformer with 3 blocks and 4 headers" for each
//! `Enc_i`, `Trans_Share`, and `Trans_JO` (Section 6.1 hyper-parameters);
//! these stacks are configurable in depth, width, and head count.

use crate::attention::{HeadKv, MultiHeadAttention};
use crate::autograd::{Tape, Var};
use crate::layers::{FeedForward, LayerNorm, Module};
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// One pre-norm encoder block: self-attention and feed-forward, each with a
/// residual connection.
#[derive(Clone)]
pub struct EncoderBlock {
    attention: MultiHeadAttention,
    feed_forward: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl EncoderBlock {
    /// Builds one block.
    pub fn new(d_model: usize, heads: usize, rng: &mut StdRng) -> Self {
        Self {
            attention: MultiHeadAttention::new(d_model, heads, rng),
            feed_forward: FeedForward::new(d_model, d_model * 4, rng),
            norm1: LayerNorm::new(d_model),
            norm2: LayerNorm::new(d_model),
        }
    }

    /// Forward pass over a `(seq, d_model)` sequence.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        crate::profile::record_block_forward();
        // Query and keys/values are normalized separately, as two nodes;
        // the trained bits depend on that shape of the tape.
        let query = self.norm1.forward(t, x);
        let keys_values = self.norm1.forward(t, x);
        let attended = self.attention.forward(t, query, keys_values, None);
        let x = t.add(x, attended);
        let normed = self.norm2.forward(t, x);
        let fed = self.feed_forward.forward(t, normed);
        t.add(x, fed)
    }

    /// Inference forward on plain values: the residual sums land in `x` in
    /// place. Bitwise-equal to [`Self::forward`]; see
    /// [`MultiHeadAttention::infer_self`].
    pub fn forward_segmented(&self, mut x: Matrix) -> Matrix {
        crate::profile::record_block_forward();
        let attended = self.attention.infer_self(&self.norm1.infer(&x));
        x.add_assign(&attended);
        let fed = self.feed_forward.infer(&self.norm2.infer(&x));
        x.add_assign(&fed);
        x
    }

    /// The rows `rows` of [`Self::forward_segmented`]`(x)`, in the order
    /// given. Every row of `x` is normalized and projected to keys and
    /// values, since each output row attends over all of them; the query
    /// projection, attention, output projection and feed-forward run on
    /// the asked-for rows only. Every one of those steps is row-local, so
    /// each output row is bitwise-equal to that row of the full forward.
    pub fn forward_rows(&self, x: &Matrix, rows: &[usize]) -> Matrix {
        crate::profile::record_block_forward();
        let normed = self.norm1.infer(x);
        let attended = self.attention.infer(&normed.gather_rows(rows), &normed);
        let mut x = x.gather_rows(rows);
        x.add_assign(&attended);
        let fed = self.feed_forward.infer(&self.norm2.infer(&x));
        x.add_assign(&fed);
        x
    }
}

impl Module for EncoderBlock {
    crate::module_parameters!(attention, feed_forward, norm1, norm2);
}

/// A stack of encoder blocks with a final layer norm.
#[derive(Clone)]
pub struct TransformerEncoder {
    blocks: Vec<EncoderBlock>,
    final_norm: LayerNorm,
}

impl TransformerEncoder {
    /// Builds `depth` blocks of width `d_model` with `heads` heads.
    pub fn new(d_model: usize, heads: usize, depth: usize, rng: &mut StdRng) -> Self {
        Self {
            blocks: (0..depth)
                .map(|_| EncoderBlock::new(d_model, heads, rng))
                .collect(),
            final_norm: LayerNorm::new(d_model),
        }
    }

    /// Forward pass over a `(seq, d_model)` sequence.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        let mut h = x;
        for block in &self.blocks {
            h = block.forward(t, h);
        }
        self.final_norm.forward(t, h)
    }

    /// Inference forward over one `(seq, d_model)` sequence on plain
    /// values: every linear layer runs as one matmul over all of its rows,
    /// and the output equals [`TransformerEncoder::forward`], bitwise.
    pub fn forward_packed(&self, x: Matrix) -> Matrix {
        let mut h = x;
        for block in &self.blocks {
            h = block.forward_segmented(h);
        }
        self.final_norm.infer(&h)
    }

    /// The rows `rows` of [`Self::forward_packed`]`(x)`, in the order
    /// given, bitwise: for a caller that reads a few rows of the output,
    /// such as a plan's root or its scan nodes. The blocks before the last
    /// run on every row, because the last block's keys and values need
    /// them all; the last block ([`EncoderBlock::forward_rows`]) and the
    /// final norm run on the asked-for rows only.
    pub fn forward_rows(&self, x: Matrix, rows: &[usize]) -> Matrix {
        let Some((last, earlier)) = self.blocks.split_last() else {
            return self.final_norm.infer(&x.gather_rows(rows));
        };
        let mut h = x;
        for block in earlier {
            h = block.forward_segmented(h);
        }
        self.final_norm.infer(&last.forward_rows(&h, rows))
    }
}

impl Module for TransformerEncoder {
    crate::module_parameters!(blocks, final_norm);
}

/// Per-block attention keys and values for incremental decoding: either
/// the self-attention K/V of a decoded prefix's rows so far (extended one
/// row per [`TransformerDecoder::forward_step`]) or the cross-attention K/V
/// of one query's encoder memory ([`TransformerDecoder::memory_kv`]). The
/// default is the empty prefix.
#[derive(Clone, Default)]
pub struct KvCache {
    blocks: Vec<HeadKv>,
}

impl KvCache {
    /// Cached positions (0 for the empty prefix).
    pub fn len(&self) -> usize {
        self.blocks.first().map_or(0, HeadKv::len)
    }

    /// Whether no position is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One pre-norm decoder block: causal self-attention, cross-attention over
/// the encoder output, and feed-forward, each with a residual connection.
#[derive(Clone)]
pub struct DecoderBlock {
    self_attention: MultiHeadAttention,
    cross_attention: MultiHeadAttention,
    feed_forward: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
    norm3: LayerNorm,
}

impl DecoderBlock {
    /// Builds one block.
    pub fn new(d_model: usize, heads: usize, rng: &mut StdRng) -> Self {
        Self {
            self_attention: MultiHeadAttention::new(d_model, heads, rng),
            cross_attention: MultiHeadAttention::new(d_model, heads, rng),
            feed_forward: FeedForward::new(d_model, d_model * 4, rng),
            norm1: LayerNorm::new(d_model),
            norm2: LayerNorm::new(d_model),
            norm3: LayerNorm::new(d_model),
        }
    }

    /// Forward pass: `x` is the `(t, d_model)` decoded prefix, `memory` the
    /// `(s, d_model)` encoder output, `causal` the `(t, t)` causal mask.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var, memory: Var, causal: &Matrix) -> Var {
        crate::profile::record_block_forward();
        let q = self.norm1.forward(t, x);
        let self_attended = self.self_attention.forward(t, q, q, Some(causal));
        let x = t.add(x, self_attended);
        let normed = self.norm2.forward(t, x);
        let cross = self.cross_attention.forward(t, normed, memory, None);
        let x = t.add(x, cross);
        let normed = self.norm3.forward(t, x);
        let fed = self.feed_forward.forward(t, normed);
        t.add(x, fed)
    }

    /// Incremental forward of one new row per prefix (see
    /// [`TransformerDecoder::forward_step`]), as block `b` of its stack:
    /// pushes prefix `i`'s self-attention cache `past(i)` extended by its
    /// new row onto `next[i]`, attends the row over that cache and over
    /// the query's memory block `memory`, and returns the new rows.
    fn forward_step<'k>(
        &self,
        mut x: Matrix,
        b: usize,
        past: impl Fn(usize) -> Option<&'k HeadKv>,
        memory: &HeadKv,
        next: &mut [KvCache],
    ) -> Matrix {
        crate::profile::record_block_forward();
        let q = self
            .self_attention
            .project_step(past, &self.norm1.infer(&x), |i, kv| next[i].blocks.push(kv));
        let next = &*next;
        let self_attended = self
            .self_attention
            .forward_cached(&q, |i| &next[i].blocks[b]);
        x.add_assign(&self_attended);
        let cross = self
            .cross_attention
            .infer_cached(&self.norm2.infer(&x), memory);
        x.add_assign(&cross);
        let fed = self.feed_forward.infer(&self.norm3.infer(&x));
        x.add_assign(&fed);
        x
    }
}

impl Module for DecoderBlock {
    crate::module_parameters!(
        self_attention,
        cross_attention,
        feed_forward,
        norm1,
        norm2,
        norm3
    );
}

/// A stack of decoder blocks with a final layer norm.
#[derive(Clone)]
pub struct TransformerDecoder {
    blocks: Vec<DecoderBlock>,
    final_norm: LayerNorm,
}

impl TransformerDecoder {
    /// Builds `depth` blocks of width `d_model` with `heads` heads.
    pub fn new(d_model: usize, heads: usize, depth: usize, rng: &mut StdRng) -> Self {
        Self {
            blocks: (0..depth)
                .map(|_| DecoderBlock::new(d_model, heads, rng))
                .collect(),
            final_norm: LayerNorm::new(d_model),
        }
    }

    /// Forward pass with an auto-generated causal mask.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var, memory: Var) -> Var {
        let causal = MultiHeadAttention::causal_mask(t.shape(x).0);
        let mut h = x;
        for block in &self.blocks {
            h = block.forward(t, h, memory, &causal);
        }
        self.final_norm.forward(t, h)
    }

    /// Cross-attention keys and values of `memory`, per block: computed
    /// once per query and read by every [`Self::forward_step`] that
    /// decodes against it.
    pub fn memory_kv(&self, memory: &Matrix) -> KvCache {
        KvCache {
            blocks: self
                .blocks
                .iter()
                .map(|b| b.cross_attention.project_kv(memory))
                .collect(),
        }
    }

    /// One incremental decode step over several prefixes of one query at
    /// once. Row `i` of `x` is prefix `i`'s newest input row, `past(i)`
    /// caches the self-attention keys and values of its earlier rows (the
    /// default [`KvCache`] for the empty prefix), and `memory` is the
    /// query's [`Self::memory_kv`]. Returns the `(n, d_model)` decoded new
    /// rows and leaves `next` holding, per prefix, `past(i)` extended by
    /// the new row: the cache that the prefix's one-longer extensions
    /// decode against next. `next`'s handles are reused, so a caller that
    /// keeps it across steps allocates no new ones.
    ///
    /// Row `i` is bitwise-identical to the last row of [`Self::forward`]
    /// over prefix `i`'s whole input against its memory. A causal row never
    /// depends on later rows, so the keys and values of every earlier row
    /// are the ones cached when that row was new; the last row's causal
    /// mask row is all `+0.0`; and layer norm, the linears, GELU, softmax
    /// and `scores·V` are row-local, in the same ascending order (see
    /// [`MultiHeadAttention::infer`]). Every linear runs once over all `n`
    /// new rows, and so does each head's cross-attention.
    pub fn forward_step<'k>(
        &self,
        x: Matrix,
        past: impl Fn(usize) -> &'k KvCache,
        memory: &KvCache,
        next: &mut Vec<KvCache>,
    ) -> Matrix {
        next.resize_with(x.rows(), KvCache::default);
        for cache in next.iter_mut() {
            cache.blocks.clear();
        }
        let mut h = x;
        for (b, block) in self.blocks.iter().enumerate() {
            h = block.forward_step(h, b, |i| past(i).blocks.get(b), &memory.blocks[b], next);
        }
        self.final_norm.infer(&h)
    }
}

impl Module for TransformerDecoder {
    crate::module_parameters!(blocks, final_norm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    /// The tape encoder forward's value.
    fn encode(enc: &TransformerEncoder, x: &Matrix) -> Matrix {
        let mut t = Tape::new();
        let xv = t.input(x);
        let out = enc.forward(&mut t, xv);
        t.value(out).clone()
    }

    /// The tape decoder forward's value.
    fn decode(dec: &TransformerDecoder, x: &Matrix, memory: &Matrix) -> Matrix {
        let mut t = Tape::new();
        let (xv, mv) = (t.input(x), t.input(memory));
        let out = dec.forward(&mut t, xv, mv);
        t.value(out).clone()
    }

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TransformerEncoder::new(16, 4, 2, &mut rng);
        let x = Matrix::xavier(5, 16, &mut rng);
        assert_eq!(encode(&enc, &x).shape(), (5, 16));
    }

    #[test]
    fn decoder_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let dec = TransformerDecoder::new(16, 4, 2, &mut rng);
        let x = Matrix::xavier(3, 16, &mut rng);
        let memory = Matrix::xavier(7, 16, &mut rng);
        assert_eq!(decode(&dec, &x, &memory).shape(), (3, 16));
    }

    #[test]
    fn decoder_is_causal() {
        let mut rng = StdRng::seed_from_u64(3);
        let dec = TransformerDecoder::new(8, 2, 1, &mut rng);
        let memory = Matrix::xavier(4, 8, &mut rng);
        let a = Matrix::xavier(3, 8, &mut rng);
        let mut b = a.clone();
        for c in 0..8 {
            b.set(2, c, 5.0); // perturb only the last position
        }
        let oa = decode(&dec, &a, &memory);
        let ob = decode(&dec, &b, &memory);
        for c in 0..8 {
            assert!((oa.get(0, c) - ob.get(0, c)).abs() < 1e-4);
            assert!((oa.get(1, c) - ob.get(1, c)).abs() < 1e-4);
        }
    }

    #[test]
    fn encoder_is_permutation_sensitive_via_content() {
        // Without positional encodings an encoder is permutation
        // *equivariant*: permuting input rows permutes output rows.
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TransformerEncoder::new(8, 2, 1, &mut rng);
        let x = Matrix::xavier(3, 8, &mut rng);
        let out = encode(&enc, &x);
        // Swap rows 0 and 2.
        let mut swapped = Matrix::zeros(3, 8);
        swapped.row_mut(0).copy_from_slice(x.row(2));
        swapped.row_mut(1).copy_from_slice(x.row(1));
        swapped.row_mut(2).copy_from_slice(x.row(0));
        let out_swapped = encode(&enc, &swapped);
        for c in 0..8 {
            assert!((out.get(0, c) - out_swapped.get(2, c)).abs() < 1e-4);
            assert!((out.get(2, c) - out_swapped.get(0, c)).abs() < 1e-4);
        }
    }

    /// An encoder with a linear head on its mean-pooled output.
    struct Regressor {
        enc: TransformerEncoder,
        head: crate::layers::Linear,
    }

    impl Module for Regressor {
        crate::module_parameters!(enc, head);
    }

    #[test]
    fn encoder_overfits_tiny_regression() {
        // A 1-block encoder + mean pool should fit two separable inputs.
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Regressor {
            enc: TransformerEncoder::new(8, 2, 1, &mut rng),
            head: crate::layers::Linear::new(8, 1, &mut rng),
        };
        let mut opt = Adam::new(&model.parameters(), 1e-2);
        let a = Matrix::xavier(4, 8, &mut rng);
        let b = Matrix::xavier(4, 8, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let grads = {
                let mut t = Tape::new();
                let mut total = t.constant(Matrix::scalar(0.0));
                for (x, target) in [(&a, 1.0f32), (&b, -1.0)] {
                    let xv = t.input(x);
                    let h = model.enc.forward(&mut t, xv);
                    let pooled = t.mean_rows(h);
                    let pred = model.head.forward(&mut t, pooled);
                    let target = t.constant(Matrix::scalar(target));
                    let d = t.sub(pred, target);
                    let sq = t.hadamard(d, d);
                    let sq = t.sum(sq);
                    total = t.add(total, sq);
                }
                t.backward(total);
                last = t.item(total);
                t.into_grads(&model.parameters())
            };
            opt.step(model.parameters_mut(), &grads);
        }
        assert!(last < 0.05, "final loss {last}");
    }

    #[test]
    fn block_inference_matches_the_tape_forward_bitwise_at_1_and_n_rows() {
        // (At zero rows the tape's layer norm has no rows to tile γ over;
        // the packed path's zero-row case is pinned below.)
        let mut rng = StdRng::seed_from_u64(10);
        let block = EncoderBlock::new(8, 2, &mut rng);
        for rows in [1usize, 5] {
            let x = Matrix::xavier(rows, 8, &mut rng);
            let mut t = Tape::new();
            let xv = t.input(&x);
            let out = block.forward(&mut t, xv);
            let packed = block.forward_segmented(x.clone());
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&packed), bits(t.value(out)), "{rows} rows");
        }
    }

    #[test]
    fn row_selective_forward_matches_the_tape_forward_bitwise() {
        // A plan's estimation reads its root row (the last in post-order)
        // and the advisor its scan rows (0, 1, 3, 5, ... of a left-deep
        // plan); each must be that row of the tape forward, bit for bit,
        // at one and two blocks, in any order asked for.
        let mut rng = StdRng::seed_from_u64(12);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for depth in [1usize, 2] {
            let enc = TransformerEncoder::new(8, 2, depth, &mut rng);
            for rows in [1usize, 2, 5] {
                let x = Matrix::xavier(rows, 8, &mut rng);
                let tape = encode(&enc, &x);
                let last = vec![rows - 1];
                let scans: Vec<usize> = (0..rows).filter(|&r| r == 0 || r % 2 == 1).collect();
                let every_reversed: Vec<usize> = (0..rows).rev().collect();
                for selected in [last, scans, every_reversed, Vec::new()] {
                    let out = enc.forward_rows(x.clone(), &selected);
                    assert_eq!(out.shape(), (selected.len(), 8));
                    assert_eq!(
                        bits(&out),
                        bits(&tape.gather_rows(&selected)),
                        "{depth} blocks, {rows} rows, rows {selected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_forward_handles_empty_and_single_segments() {
        let mut rng = StdRng::seed_from_u64(9);
        let enc = TransformerEncoder::new(8, 2, 1, &mut rng);
        assert_eq!(enc.forward_packed(Matrix::zeros(0, 8)).shape(), (0, 8));
        // The packed forward is the per-sequence forward, at one row and at
        // many.
        for rows in [1, 4] {
            let x = Matrix::xavier(rows, 8, &mut rng);
            let tape = encode(&enc, &x);
            assert_eq!(enc.forward_packed(x), tape);
        }
    }

    #[test]
    fn incremental_step_is_bitwise_identical_to_per_prefix() {
        // The beam decodes one new row per live prefix per step against
        // cached keys/values; each row must equal the last row of a full
        // per-prefix forward exactly, or beam results drift. For each of two
        // memories, prefixes of different lengths are decoded step by step.
        let mut rng = StdRng::seed_from_u64(11);
        let dec = TransformerDecoder::new(16, 4, 2, &mut rng);
        for (s, lens) in [(4usize, [3usize, 1]), (6, [2, 3])] {
            let memory = Matrix::xavier(s, 16, &mut rng);
            let memory_kv = dec.memory_kv(&memory);
            let inputs: Vec<Matrix> = lens
                .iter()
                .map(|&t| Matrix::xavier(t, 16, &mut rng))
                .collect();
            let mut past: Vec<KvCache> = vec![KvCache::default(); inputs.len()];
            for t in 0..3 {
                let live: Vec<usize> = (0..inputs.len())
                    .filter(|&i| inputs[i].rows() > t)
                    .collect();
                let rows: Vec<&[f32]> = live.iter().map(|&i| inputs[i].row(t)).collect();
                let x = Matrix::from_vec(live.len(), 16, rows.concat());
                let mut next = Vec::new();
                let out = dec.forward_step(x, |r| &past[live[r]], &memory_kv, &mut next);
                for (r, (&i, kv)) in live.iter().zip(next).enumerate() {
                    let reference = decode(&dec, &inputs[i].slice_rows(0, t + 1), &memory);
                    assert_eq!(out.row(r), reference.row(t), "prefix {i} step {t}");
                    assert_eq!(kv.len(), t + 1);
                    past[i] = kv;
                }
            }
        }
    }

    #[test]
    fn parameter_counts_positive() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = TransformerEncoder::new(16, 4, 3, &mut rng);
        let dec = TransformerDecoder::new(16, 4, 3, &mut rng);
        assert!(enc.parameter_count() > 3 * (4 * 16 * 16));
        assert!(dec.parameter_count() > enc.parameter_count());
    }
}
