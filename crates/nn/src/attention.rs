//! Multi-head scaled dot-product attention.

use crate::autograd::{Tape, Var};
use crate::layers::{Linear, Module};
use crate::matrix::{softmax_row, Matrix};
use rand::rngs::StdRng;

/// Cached attention keys and values of `len` positions in one buffer,
/// stored head-major: block `h` (rows `h·len..(h+1)·len`) is head `h`'s
/// `(len, head_dim)` keys and block `heads + h` its values, so each head
/// reads one contiguous slice. The buffer comes from the kernel arena like
/// every other [`Matrix`].
#[derive(Clone)]
pub(crate) struct HeadKv {
    kv: Matrix,
    len: usize,
}

impl HeadKv {
    /// Block `i` of the head-major layout (`len` rows of `head_dim`).
    fn block(&self, i: usize) -> &[f32] {
        let size = self.len * self.kv.cols();
        &self.kv.data()[i * size..(i + 1) * size]
    }

    /// Cached positions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Multi-head attention over sequences.
///
/// Inputs are `(seq, d_model)` matrices. With `query == keys/values` this is
/// self-attention; with different inputs it is cross-attention (used by the
/// `Trans_JO` decoder over the shared representation).
#[derive(Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Builds attention with `heads` heads over `d_model` features
    /// (`d_model` must be divisible by `heads`).
    pub fn new(d_model: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must divide into heads");
        Self {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            heads,
            head_dim: d_model / heads,
        }
    }

    /// Forward pass. `mask`, if given, is a `(q_len, kv_len)` matrix added
    /// to the attention logits (use large negative values to forbid
    /// positions — e.g. a causal mask in the decoder).
    pub fn forward<'p>(
        &'p self,
        t: &mut Tape<'p>,
        query: Var,
        keys_values: Var,
        mask: Option<&Matrix>,
    ) -> Var {
        crate::profile::record_attention();
        let q = self.wq.forward(t, query);
        let k = self.wk.forward(t, keys_values);
        let v = self.wv.forward(t, keys_values);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let lo = h * self.head_dim;
            let hi = lo + self.head_dim;
            let qh = t.slice_cols(q, lo, hi);
            let kh = t.slice_cols(k, lo, hi);
            let vh = t.slice_cols(v, lo, hi);
            // Fused score+softmax kernel: one buffer instead of the
            // scale/add/softmax chain, bitwise-identical output.
            let attention = t.attention_scores(qh, kh, scale, mask);
            head_outputs.push(t.matmul(attention, vh));
        }
        let concat = t.concat_cols(&head_outputs);
        self.wo.forward(t, concat)
    }

    /// Inference [`Self::forward`] with no mask, on plain values: every
    /// row of `query` attends over the rows of `keys_values`. Each
    /// projection runs as one matmul, and the attention itself as one
    /// score GEMM and one value GEMM per head ([`Self::attend`]).
    ///
    /// The output is bitwise-identical to [`Self::forward`]: the same
    /// arithmetic, in the same ascending order, and every step is
    /// row-local in the query. So the encoder gets a subset of a
    /// sequence's self-attention rows by passing just those rows as
    /// `query`.
    pub fn infer(&self, query: &Matrix, keys_values: &Matrix) -> Matrix {
        self.infer_cached(query, &self.project_kv(keys_values))
    }

    /// [`Self::infer`] with `query == keys_values`, self-attention over a
    /// whole sequence: the query, key and value projections run as one
    /// GEMM ([`Linear::infer_each`]).
    pub fn infer_self(&self, x: &Matrix) -> Matrix {
        crate::profile::record_attention();
        let [q, k, v] = Linear::infer_each(x, [&self.wq, &self.wk, &self.wv]);
        self.attend(&q, &self.head_major(None, &k, &v, 0..x.rows()))
    }

    /// The keys and values of the sequence `x` (`wk(x)`, `wv(x)`, in one
    /// GEMM), cached head-major. The decoder projects each query's encoder
    /// memory once with this and reuses it at every decode step.
    pub(crate) fn project_kv(&self, x: &Matrix) -> HeadKv {
        let [k, v] = Linear::infer_each(x, [&self.wk, &self.wv]);
        self.head_major(None, &k, &v, 0..x.rows())
    }

    /// Projects one new row per cache for the incremental decode path, in
    /// one GEMM: row `i` of `x`'s key and value go after `past(i)`'s
    /// positions (`None` is an empty cache) and `sink(i, extended)` takes
    /// the result; the rows' queries are returned, for
    /// [`Self::forward_cached`] over the extended caches. Every cache comes
    /// back as a fresh buffer, so prefixes that share a parent cache never
    /// alias.
    pub(crate) fn project_step<'k>(
        &self,
        past: impl Fn(usize) -> Option<&'k HeadKv>,
        x: &Matrix,
        mut sink: impl FnMut(usize, HeadKv),
    ) -> Matrix {
        let [q, k, v] = Linear::infer_each(x, [&self.wq, &self.wk, &self.wv]);
        for i in 0..x.rows() {
            sink(i, self.head_major(past(i), &k, &v, i..i + 1));
        }
        q
    }

    /// Cross-attention of every row of `query` over one cached memory
    /// `kv` ([`Self::project_kv`]) for the incremental decode path:
    /// [`Self::infer`] with the memory's projections computed once per
    /// query instead of once per decode step.
    pub(crate) fn infer_cached(&self, query: &Matrix, kv: &HeadKv) -> Matrix {
        crate::profile::record_attention();
        self.attend(&self.wq.infer(query), kv)
    }

    /// Causal self-attention of one query row per cache for the
    /// incremental decode path: row `i` of the projected queries `q` (from
    /// [`Self::project_step`]) attends over the positions of `kv(i)`, which
    /// ends with row `i`'s own position, so the row is the *last* row of a
    /// causal prefix. Each row has its own keys, so each runs its own two
    /// GEMMs per head.
    ///
    /// Each output row is bitwise-identical to that row of
    /// [`Self::forward`] over the whole sequence with
    /// [`Self::causal_mask`]: causal rows never depend on later rows, the
    /// last row's mask row is all `+0.0`, and the scores, softmax, and
    /// weighted sum are row-local in the same ascending order.
    // lint: hot-path
    pub(crate) fn forward_cached<'k>(
        &self,
        q: &Matrix,
        kv: impl Fn(usize) -> &'k HeadKv,
    ) -> Matrix {
        crate::profile::record_attention();
        let (rows, d_model) = q.shape();
        let hd = self.head_dim;
        let mut concat = Matrix::zeros(rows, d_model);
        let longest = (0..rows).map(|i| kv(i).len()).max().unwrap_or(0);
        let mut scores = crate::kernel::take_empty(longest);
        let mut out = crate::kernel::take_empty(hd);
        for i in 0..rows {
            let cache = kv(i);
            for h in 0..self.heads {
                let lo = h * hd;
                self.attend_head(
                    &q.row(i)[lo..lo + hd],
                    cache.block(h),
                    cache.block(self.heads + h),
                    true,
                    &mut scores,
                    &mut out,
                );
                concat.row_mut(i)[lo..lo + hd].copy_from_slice(&out);
            }
        }
        crate::kernel::recycle(scores);
        crate::kernel::recycle(out);
        self.wo.infer(&concat)
    }

    /// Every row of the projected queries `q` (`(rows, d_model)`, heads
    /// side by side) over the cached keys and values `kv`, then the output
    /// projection. Each head gathers its query columns into one
    /// contiguous block and runs [`Self::attend_head`] once over all rows.
    /// The gathers and the score/output scratch are pooled, so the
    /// steady-state serve loop allocates nothing here.
    // lint: hot-path
    fn attend(&self, q: &Matrix, kv: &HeadKv) -> Matrix {
        let (rows, d_model) = q.shape();
        let hd = self.head_dim;
        let mut concat = Matrix::zeros(rows, d_model);
        let mut qh = crate::kernel::take(rows * hd, 0.0);
        let mut scores = crate::kernel::take_empty(rows * kv.len());
        let mut out = crate::kernel::take_empty(rows * hd);
        for h in 0..self.heads {
            let lo = h * hd;
            for (r, dq) in qh.chunks_exact_mut(hd).enumerate() {
                dq.copy_from_slice(&q.row(r)[lo..lo + hd]);
            }
            self.attend_head(
                &qh,
                kv.block(h),
                kv.block(self.heads + h),
                false,
                &mut scores,
                &mut out,
            );
            for (r, src) in out.chunks_exact(hd).enumerate() {
                concat.row_mut(r)[lo..lo + hd].copy_from_slice(src);
            }
        }
        crate::kernel::recycle(qh);
        crate::kernel::recycle(scores);
        crate::kernel::recycle(out);
        self.wo.infer(&concat)
    }

    /// One head of scaled dot-product attention: the query rows `q` over
    /// the key/value rows `k`/`v` (all contiguous, `head_dim` wide), into
    /// `out`. The per-sequence path's ops in its order: [`crate::kernel::gemm`]
    /// scores, scale (plus mask), [`softmax_row`], and the zero-skipping
    /// `scores·V` GEMM. Every output row depends on its own query row
    /// only, so one call over many query rows gives each row the bits a
    /// call over that row alone gives. With `causal`, the single query row
    /// is the newest position of its key block; its causal-mask row is all
    /// `+0.0`, added literally as [`Self::forward`] adds
    /// [`Self::causal_mask`].
    fn attend_head(
        &self,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        causal: bool,
        scores: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        let hd = self.head_dim;
        let (ql, kl) = (q.len() / hd, k.len() / hd);
        debug_assert!(
            !causal || ql == 1,
            "only the newest row is queried causally"
        );
        let scale = 1.0 / (hd as f32).sqrt();
        crate::profile::record_matmul(2 * (ql * kl * hd) as u64);
        scores.clear();
        scores.resize(ql * kl, 0.0);
        crate::kernel::gemm(q, ql, hd, k, kl, crate::kernel::BKind::Transposed, scores);
        if causal {
            for o in scores.iter_mut() {
                *o = *o * scale + 0.0;
            }
        } else {
            for o in scores.iter_mut() {
                *o *= scale;
            }
        }
        // `max(1)`: an empty key block leaves no score rows to normalize.
        for row in scores.chunks_exact_mut(kl.max(1)) {
            softmax_row(row);
        }
        crate::profile::record_matmul(2 * (ql * hd * kl) as u64);
        out.clear();
        out.resize(ql * hd, 0.0);
        crate::kernel::gemm(scores, ql, kl, v, hd, crate::kernel::BKind::RowMajor, out);
    }

    /// `past`'s positions followed by `rows` of the projected keys `k`
    /// and values `v` (`(n, d_model)`, heads side by side), laid out
    /// head-major in one fresh buffer.
    fn head_major(
        &self,
        past: Option<&HeadKv>,
        k: &Matrix,
        v: &Matrix,
        rows: std::ops::Range<usize>,
    ) -> HeadKv {
        let hd = self.head_dim;
        let past_len = past.map_or(0, HeadKv::len);
        let len = past_len + rows.len();
        let mut kv = Matrix::zeros(2 * self.heads * len, hd);
        if len == 0 {
            return HeadKv { kv, len };
        }
        for (block, dst) in kv.data_mut().chunks_exact_mut(len * hd).enumerate() {
            let (src, h) = if block < self.heads {
                (k, block)
            } else {
                (v, block - self.heads)
            };
            let (old, fresh) = dst.split_at_mut(past_len * hd);
            if let Some(p) = past {
                old.copy_from_slice(p.block(block));
            }
            for (d, r) in fresh.chunks_exact_mut(hd).zip(rows.clone()) {
                d.copy_from_slice(&src.row(r)[h * hd..(h + 1) * hd]);
            }
        }
        HeadKv { kv, len }
    }

    /// A causal (lower-triangular) mask for decoder self-attention:
    /// position `i` may attend to positions `0..=i` only.
    pub fn causal_mask(len: usize) -> Matrix {
        let mut m = Matrix::zeros(len, len);
        for r in 0..len {
            for c in (r + 1)..len {
                m.set(r, c, -1e9);
            }
        }
        m
    }
}

impl Module for MultiHeadAttention {
    crate::module_parameters!(wq, wk, wv, wo);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The tape forward's value of `attn` over `query` and `kv`.
    fn tape_forward(
        attn: &MultiHeadAttention,
        query: &Matrix,
        kv: &Matrix,
        mask: Option<&Matrix>,
    ) -> Matrix {
        let mut t = Tape::new();
        let (q, kv) = (t.input(query), t.input(kv));
        let out = attn.forward(&mut t, q, kv, mask);
        t.value(out).clone()
    }

    #[test]
    fn output_shape_matches_query() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Matrix::xavier(3, 8, &mut rng);
        let kv = Matrix::xavier(5, 8, &mut rng);
        assert_eq!(tape_forward(&attn, &q, &kv, None).shape(), (3, 8));
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = StdRng::seed_from_u64(2);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        // Two inputs identical in the past, different in the future: masked
        // attention outputs at position 0 must agree.
        let a = Matrix::xavier(3, 8, &mut rng);
        let mut b = a.clone();
        for c in 0..8 {
            b.set(2, c, -b.get(2, c) + 0.7);
        }
        let mask = MultiHeadAttention::causal_mask(3);
        let out_a = tape_forward(&attn, &a, &a, Some(&mask));
        let out_b = tape_forward(&attn, &b, &b, Some(&mask));
        for c in 0..8 {
            assert!(
                (out_a.get(0, c) - out_b.get(0, c)).abs() < 1e-5,
                "position 0 must not see position 2"
            );
            assert!(
                (out_a.get(1, c) - out_b.get(1, c)).abs() < 1e-5,
                "position 1 must not see position 2"
            );
        }
    }

    #[test]
    fn attention_weights_rows_sum_to_one_implicitly() {
        // With identical value rows the output equals that row regardless of
        // the attention distribution — a cheap normalization check.
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadAttention::new(4, 1, &mut rng);
        let kv_data: Vec<f32> = (0..2).flat_map(|_| vec![0.3, -0.2, 0.8, 0.1]).collect();
        let kv = Matrix::from_vec(2, 4, kv_data);
        let out1 = tape_forward(&attn, &Matrix::xavier(1, 4, &mut rng), &kv, None);
        // Changing the query must not change the output when all values are
        // identical.
        let out2 = tape_forward(&attn, &Matrix::xavier(1, 4, &mut rng), &kv, None);
        for c in 0..4 {
            assert!((out1.get(0, c) - out2.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(4);
        let attn = MultiHeadAttention::new(8, 4, &mut rng);
        let x = Matrix::xavier(3, 8, &mut rng);
        let mut t = Tape::new();
        let xv = t.input(&x);
        let out = attn.forward(&mut t, xv, xv, None);
        let loss = t.sum(out);
        t.backward(loss);
        let params = attn.parameters();
        for (p, g) in params.iter().zip(t.into_grads(&params)) {
            // Weight matrices must all receive gradient (biases of wk may be
            // near zero by symmetry; check weights only via shape).
            if p.rows() > 1 {
                assert!(
                    g.is_some_and(|g| g.norm() > 0.0),
                    "projection got no gradient"
                );
            }
        }
    }

    #[test]
    fn inference_paths_match_the_tape_forward_bitwise_at_0_1_and_n_rows() {
        let mut rng = StdRng::seed_from_u64(6);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for rows in [0usize, 1, 4] {
            let x = Matrix::xavier(rows, 8, &mut rng);
            // Self-attention over the sequence, and over it for the last
            // row only.
            let tape = tape_forward(&attn, &x, &x, None);
            let packed = attn.infer_self(&x);
            assert_eq!(packed.shape(), tape.shape());
            assert_eq!(bits(&packed), bits(&tape), "self, {rows} rows");
            assert_eq!(bits(&attn.infer(&x, &x)), bits(&tape), "self, unfused");
            if rows > 0 {
                let last = attn.infer(&x.slice_rows(rows - 1, rows), &x);
                assert_eq!(bits(&last), bits(&tape.slice_rows(rows - 1, rows)));
            }
            // Cross-attention of every row over a memory, projected per
            // call and cached, and the causal last row over the cached
            // prefix.
            let memory = Matrix::xavier(3, 8, &mut rng);
            let tape = tape_forward(&attn, &x, &memory, None);
            assert_eq!(bits(&attn.infer(&x, &memory)), bits(&tape), "cross");
            let kv = attn.project_kv(&memory);
            let cached = attn.infer_cached(&x, &kv);
            assert_eq!(bits(&cached), bits(&tape), "cached cross, {rows} rows");
            if rows > 0 {
                let mask = MultiHeadAttention::causal_mask(rows);
                let tape = tape_forward(&attn, &x, &x, Some(&mask));
                let prefix = attn.project_kv(&x.slice_rows(0, rows - 1));
                let last = x.slice_rows(rows - 1, rows);
                let mut kv = Vec::new();
                let q = attn.project_step(|_| Some(&prefix), &last, |_, c| kv.push(c));
                let row = attn.forward_cached(&q, |_| &kv[0]);
                assert_eq!(bits(&row), bits(&tape.slice_rows(rows - 1, rows)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_model must divide into heads")]
    fn head_divisibility_checked() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = MultiHeadAttention::new(10, 3, &mut rng);
    }
}
