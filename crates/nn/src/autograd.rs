//! Reverse-mode automatic differentiation: the training tape.
//!
//! A [`Tape`] is a Wengert list. Every operator appends one op, naming its
//! inputs by `u32` index, and its value to the value slab; a [`Var`] is
//! such an index. [`Tape::backward`] is one reverse pass over the ops: each
//! op that a gradient reached hands its inputs their shares, and no share
//! is computed for an input that takes none (a constant, or an op over
//! constants only). A training step builds a tape, runs it backward, takes
//! the parameters' gradients out ([`Tape::into_grads`]) and drops it.
//!
//! Parameters are plain [`Matrix`] values owned by the layers. A tape
//! borrows each parameter it reads ([`Tape::param`]) and records it once,
//! however often the forward reads it, so every use's share accumulates in
//! one gradient; the optimizer updates the parameters through `&mut` once
//! the tape is gone. Inference builds no tape: every layer has an `infer`
//! forward on plain matrices that evaluates the same kernels in the same
//! order, so it equals the tape's value bit for bit.
//!
//! A node's gradient is the sum of its consumers' shares. The first share
//! is taken as it is and each later one is added to it, in the order the
//! reverse pass reaches the consumers: the reverse of the order the
//! forward built them.

use crate::matrix::Matrix;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A node of a [`Tape`]: the index of its op, value and gradient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(u32);

impl Var {
    fn at(self) -> usize {
        self.0 as usize
    }
}

/// One recorded operator over the indices of its inputs.
#[derive(Clone, Copy)]
enum Op {
    /// A constant, or an op whose inputs are all constants: no gradient
    /// flows into it or through it.
    Const,
    /// A parameter: a leaf whose gradient [`Tape::into_grads`] hands out.
    Param,
    Add(u32, u32),
    Sub(u32, u32),
    Hadamard(u32, u32),
    Scale(u32, f32),
    /// `x·W + b`: the product, then the bias row added into it.
    Linear(u32, u32, u32),
    MatMul(u32, u32),
    MatMulNt(u32, u32),
    AttentionScores(u32, u32, f32),
    Tanh(u32),
    Sigmoid(u32),
    /// GELU of `x`; `aux[at..]` holds its `tanh` terms.
    Gelu(u32, u32),
    LnEps(u32, f32),
    SoftmaxRows(u32),
    LogSoftmaxRows(u32),
    /// Row-wise layer norm of `x`, then `·γ + β`; `aux[at..]` holds each
    /// row's `1/std`, then the normalized rows.
    LayerNorm {
        x: u32,
        gamma: u32,
        beta: u32,
        at: u32,
    },
    SliceRows(u32, u32, u32),
    SliceCols(u32, u32, u32),
    /// Concatenation of the nodes `parts[at..at + n]`.
    ConcatRows {
        at: u32,
        n: u32,
    },
    ConcatCols {
        at: u32,
        n: u32,
    },
    Sum(u32),
}

/// Hashes a parameter's address with one multiply: addresses are distinct
/// while the tape borrows them, so the map needs no flooding resistance.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The training tape: ops, their values, and their gradients, indexed by
/// [`Var`]. Values borrowed for `'p` (parameters and inputs) are read in
/// place, never copied.
pub struct Tape<'p> {
    ops: Vec<Op>,
    values: Vec<Cow<'p, Matrix>>,
    grads: Vec<Option<Matrix>>,
    /// The parts of each concatenation.
    parts: Vec<u32>,
    /// Per-row `1/std` and normalized rows of the layer norms, and the
    /// `tanh` terms of the GELUs.
    aux: Vec<f32>,
    /// The node of each parameter read so far, by address.
    params: HashMap<usize, u32, BuildHasherDefault<AddrHasher>>,
}

impl Default for Tape<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p> Tape<'p> {
    /// An empty tape, with room for a small model's training step.
    pub fn new() -> Self {
        const NODES: usize = 64;
        Self {
            ops: Vec::with_capacity(NODES),
            values: Vec::with_capacity(NODES),
            grads: Vec::with_capacity(NODES),
            parts: Vec::new(),
            aux: Vec::with_capacity(4 * NODES),
            params: HashMap::with_capacity_and_hasher(NODES / 2, Default::default()),
        }
    }

    fn push(&mut self, op: Op, value: Cow<'p, Matrix>) -> Var {
        crate::profile::record_tape_node();
        let id = Var(self.ops.len() as u32);
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        id
    }

    /// Records `op` with its value, or a constant if none of its inputs
    /// takes a gradient.
    fn derived(&mut self, tracks: bool, op: Op, value: Matrix) -> Var {
        self.push(if tracks { op } else { Op::Const }, Cow::Owned(value))
    }

    /// A parameter, borrowed. Reading the same parameter again returns the
    /// same node.
    pub fn param(&mut self, value: &'p Matrix) -> Var {
        let addr = value as *const Matrix as usize;
        if let Some(&id) = self.params.get(&addr) {
            return Var(id);
        }
        let v = self.push(Op::Param, Cow::Borrowed(value));
        self.params.insert(addr, v.0);
        v
    }

    /// A constant input, borrowed (receives no gradient).
    pub fn input(&mut self, value: &'p Matrix) -> Var {
        self.push(Op::Const, Cow::Borrowed(value))
    }

    /// A constant (receives no gradient).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Const, Cow::Owned(value))
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.at()]
    }

    /// The shape of `v`'s value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    /// The scalar payload of a 1×1 node.
    pub fn item(&self, v: Var) -> f32 {
        self.value(v).item()
    }

    /// A copy of `v`'s accumulated gradient (all zeros if none reached it).
    /// After [`Tape::backward`], only leaves keep theirs.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.at()] {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.shape(v);
                Matrix::zeros(r, c)
            }
        }
    }

    /// Consumes the tape, handing out the gradient of each of `params`
    /// (`None` where none reached it or the tape never read it).
    pub fn into_grads(mut self, params: &[&Matrix]) -> Vec<Option<Matrix>> {
        params
            .iter()
            .map(|&p| {
                let node = self.params.get(&(p as *const Matrix as usize))?;
                self.grads[*node as usize].take()
            })
            .collect()
    }

    /// Runs reverse-mode accumulation from `root`, seeded with an all-ones
    /// gradient (so for a 1×1 loss every parameter gets ∂loss/∂θ). Each
    /// op's gradient is dropped once it has been passed on; leaves keep
    /// theirs.
    pub fn backward(&mut self, root: Var) {
        if !self.tracks(root.0) {
            return;
        }
        let (r, c) = self.shape(root);
        self.grads[root.at()] = Some(Matrix::full(r, c, 1.0));
        for i in (0..=root.at()).rev() {
            if matches!(self.ops[i], Op::Const | Op::Param) {
                continue;
            }
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.backward_op(i, &g);
        }
    }

    /// Adds `delta` into `to`'s gradient; the first share is kept as is.
    fn accumulate(&mut self, to: u32, delta: Matrix) {
        match &mut self.grads[to as usize] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Whether a gradient flows into node `v`.
    fn tracks(&self, v: u32) -> bool {
        !matches!(self.ops[v as usize], Op::Const)
    }

    fn val(&self, v: u32) -> &Matrix {
        &self.values[v as usize]
    }

    /// Passes node `i`'s gradient `g` on to its inputs.
    fn backward_op(&mut self, i: usize, g: &Matrix) {
        match self.ops[i] {
            Op::Const | Op::Param => {}
            Op::Add(a, b) => {
                if self.tracks(a) {
                    self.accumulate(a, g.clone());
                }
                if self.tracks(b) {
                    self.accumulate(b, g.clone());
                }
            }
            Op::Sub(a, b) => {
                if self.tracks(a) {
                    self.accumulate(a, g.clone());
                }
                if self.tracks(b) {
                    self.accumulate(b, g.scale(-1.0));
                }
            }
            Op::Hadamard(a, b) => {
                if self.tracks(a) {
                    let d = g.hadamard(self.val(b));
                    self.accumulate(a, d);
                }
                if self.tracks(b) {
                    let d = g.hadamard(self.val(a));
                    self.accumulate(b, d);
                }
            }
            Op::Scale(a, s) => self.accumulate(a, g.scale(s)),
            Op::Linear(x, w, b) => {
                // The bias's share, then the product's: the order a product
                // followed by a separate bias add passes them in, which the
                // trained bits depend on.
                if self.tracks(b) {
                    let col_sum = column_sums(g);
                    self.accumulate(b, col_sum);
                }
                if self.tracks(x) {
                    let d = g.matmul_nt(self.val(w));
                    self.accumulate(x, d);
                }
                if self.tracks(w) {
                    let d = self.val(x).matmul_tn(g);
                    self.accumulate(w, d);
                }
            }
            Op::MatMul(a, b) => {
                // dA = G Bᵀ ; dB = Aᵀ G
                if self.tracks(a) {
                    let d = g.matmul_nt(self.val(b));
                    self.accumulate(a, d);
                }
                if self.tracks(b) {
                    let d = self.val(a).matmul_tn(g);
                    self.accumulate(b, d);
                }
            }
            Op::MatMulNt(a, b) => {
                // out = A Bᵀ ⇒ dA = G B ; dB = Gᵀ A
                if self.tracks(a) {
                    let d = g.matmul(self.val(b));
                    self.accumulate(a, d);
                }
                if self.tracks(b) {
                    let d = g.matmul_tn(self.val(a));
                    self.accumulate(b, d);
                }
            }
            Op::AttentionScores(q, k, scale) => {
                // Softmax backward first: dS_r = y_r ⊙ (g_r − (g_r · y_r)),
                // then through the scaled score product (the mask is a
                // constant): dQ = scale·(dS × K), dK = scale·(dSᵀ × Q).
                let ds = softmax_backward(&self.values[i], g);
                if self.tracks(q) {
                    let d = ds.matmul(self.val(k)).scale(scale);
                    self.accumulate(q, d);
                }
                if self.tracks(k) {
                    let d = ds.matmul_tn(self.val(q)).scale(scale);
                    self.accumulate(k, d);
                }
            }
            Op::Tanh(x) => {
                let d = self.values[i].map(|t| 1.0 - t * t);
                self.accumulate(x, g.hadamard(&d));
            }
            Op::Sigmoid(x) => {
                let d = self.values[i].map(|s| s * (1.0 - s));
                self.accumulate(x, g.hadamard(&d));
            }
            Op::Gelu(x, at) => {
                const C: f32 = crate::matrix::GELU_C;
                // Numerically robust derivative of the approximation, from
                // the forward's `tanh` terms.
                let ts = &self.aux[at as usize..];
                let mut d = self.val(x).clone();
                for (d, &t) in d.data_mut().iter_mut().zip(ts) {
                    let v = *d;
                    let dinner = C * (1.0 + 3.0 * 0.044715 * v * v);
                    *d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner;
                }
                self.accumulate(x, g.hadamard(&d));
            }
            Op::LnEps(x, eps) => {
                let d = self.val(x).map(|v| 1.0 / (v + eps));
                self.accumulate(x, g.hadamard(&d));
            }
            Op::SoftmaxRows(x) => {
                let dx = softmax_backward(&self.values[i], g);
                self.accumulate(x, dx);
            }
            Op::LogSoftmaxRows(x) => {
                // dx_r = g_r − softmax(x)_r · sum(g_r)
                let softmax = self.val(x).softmax_rows();
                let mut dx = Matrix::zeros(g.rows(), g.cols());
                for r in 0..g.rows() {
                    let gsum: f32 = g.row(r).iter().sum();
                    for (d, (&s, &gv)) in dx
                        .row_mut(r)
                        .iter_mut()
                        .zip(softmax.row(r).iter().zip(g.row(r)))
                    {
                        *d = gv - s * gsum;
                    }
                }
                self.accumulate(x, dx);
            }
            Op::LayerNorm { x, gamma, beta, at } => {
                // β's share, then γ's one row at a time, then the
                // normalization's: the order separate normalize, γ-tiling,
                // product and bias-add ops pass them in, which the trained
                // bits depend on.
                let (rows, cols) = g.shape();
                let at = at as usize;
                if self.tracks(beta) {
                    let col_sum = column_sums(g);
                    self.accumulate(beta, col_sum);
                }
                let y = &self.aux[at + rows..at + rows + rows * cols];
                if self.tracks(gamma) {
                    for (gr, yr) in g.data().chunks_exact(cols).zip(y.chunks_exact(cols)) {
                        let share = gr.iter().zip(yr).map(|(&gv, &yv)| gv * yv);
                        match &mut self.grads[gamma as usize] {
                            Some(acc) => {
                                for (a, d) in acc.data_mut().iter_mut().zip(share) {
                                    *a += d;
                                }
                            }
                            slot @ None => *slot = Some(Matrix::row_vec(share.collect())),
                        }
                    }
                }
                if self.tracks(x) {
                    let mut dn = g.clone();
                    for row in dn.data_mut().chunks_exact_mut(cols) {
                        for (d, &gm) in row.iter_mut().zip(self.val(gamma).data()) {
                            *d *= gm;
                        }
                    }
                    let dx = normalize_backward(&dn, y, &self.aux[at..at + rows]);
                    self.accumulate(x, dx);
                }
            }
            Op::SliceRows(x, lo, hi) => {
                let (rows, cols) = self.shape(Var(x));
                let mut dx = Matrix::zeros(rows, cols);
                for (i, r) in (lo as usize..hi as usize).enumerate() {
                    dx.row_mut(r).copy_from_slice(g.row(i));
                }
                self.accumulate(x, dx);
            }
            Op::SliceCols(x, lo, hi) => {
                let (rows, cols) = self.shape(Var(x));
                let (lo, hi) = (lo as usize, hi as usize);
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r)[lo..hi].copy_from_slice(g.row(r));
                }
                self.accumulate(x, dx);
            }
            Op::ConcatRows { at, n } => {
                let mut offset = 0;
                for k in at..at + n {
                    let part = self.parts[k as usize];
                    let rows = self.val(part).rows();
                    if self.tracks(part) {
                        self.accumulate(part, g.slice_rows(offset, offset + rows));
                    }
                    offset += rows;
                }
            }
            Op::ConcatCols { at, n } => {
                let mut offset = 0;
                for k in at..at + n {
                    let part = self.parts[k as usize];
                    let cols = self.val(part).cols();
                    if self.tracks(part) {
                        self.accumulate(part, g.slice_cols(offset, offset + cols));
                    }
                    offset += cols;
                }
            }
            Op::Sum(x) => {
                let (rows, cols) = self.shape(Var(x));
                self.accumulate(x, Matrix::full(rows, cols, g.item()));
            }
        }
    }

    // ------------------------------------------------------------------
    // Elementwise & linear-algebra operators
    // ------------------------------------------------------------------

    fn binary(&mut self, a: Var, b: Var, op: Op, value: Matrix) -> Var {
        let tracks = self.tracks(a.0) || self.tracks(b.0);
        self.derived(tracks, op, value)
    }

    fn unary(&mut self, x: Var, op: Op, value: Matrix) -> Var {
        let tracks = self.tracks(x.0);
        self.derived(tracks, op, value)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.binary(a, b, Op::Add(a.0, b.0), value)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.binary(a, b, Op::Sub(a.0, b.0), value)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        self.binary(a, b, Op::Hadamard(a.0, b.0), value)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).scale(s);
        self.unary(x, Op::Scale(x.0, s), value)
    }

    /// An affine map `x·W + b` (`b` a 1×cols row added to every row), one
    /// node: the value is the product with the bias added in place, as
    /// [`crate::Linear::infer`] computes it.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let mut value = self.value(x).matmul(self.value(w));
        value.add_row_in_place(self.value(b));
        let tracks = self.tracks(x.0) || self.tracks(w.0) || self.tracks(b.0);
        self.derived(tracks, Op::Linear(x.0, w.0, b.0), value)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.binary(a, b, Op::MatMul(a.0, b.0), value)
    }

    /// `a × bᵀ` (used by attention scores and the pointer logits).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_nt(self.value(b));
        self.binary(a, b, Op::MatMulNt(a.0, b.0), value)
    }

    /// Fused attention scores: `softmax_rows(q × keysᵀ · scale [+ mask])`
    /// in one kernel ([`Matrix::attention_scores`]), one node instead of
    /// the `matmul_nt → scale → add → softmax_rows` chain. The value is
    /// bitwise the chain's; the backward applies the same chain rule with
    /// the scale folded in.
    pub fn attention_scores(
        &mut self,
        q: Var,
        keys: Var,
        scale: f32,
        mask: Option<&Matrix>,
    ) -> Var {
        let value = self
            .value(q)
            .attention_scores(self.value(keys), scale, mask);
        self.binary(q, keys, Op::AttentionScores(q.0, keys.0, scale), value)
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Hyperbolic tangent ([`crate::matrix::tanh`]).
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(crate::matrix::tanh);
        self.unary(x, Op::Tanh(x.0), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.unary(x, Op::Sigmoid(x.0), value)
    }

    /// GELU (tanh approximation), the transformer's default activation
    /// ([`crate::matrix::gelu`]). Its `tanh` terms are kept for the
    /// backward.
    pub fn gelu(&mut self, x: Var) -> Var {
        let at = self.aux.len();
        let xs: &Matrix = &self.values[x.at()];
        self.aux
            .extend(xs.data().iter().map(|&v| crate::matrix::gelu_tanh(v)));
        let mut value = xs.clone();
        for (v, &t) in value.data_mut().iter_mut().zip(&self.aux[at..]) {
            *v = 0.5 * *v * (1.0 + t);
        }
        self.unary(x, Op::Gelu(x.0, at as u32), value)
    }

    /// Natural log of `x + eps` (safe for non-negative inputs).
    pub fn ln_eps(&mut self, x: Var, eps: f32) -> Var {
        let value = self.value(x).map(|v| (v + eps).ln());
        self.unary(x, Op::LnEps(x.0, eps), value)
    }

    // ------------------------------------------------------------------
    // Row-wise normalizations
    // ------------------------------------------------------------------

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let value = self.value(x).softmax_rows();
        self.unary(x, Op::SoftmaxRows(x.0), value)
    }

    /// Row-wise log-softmax (numerically stable; used for sequence
    /// likelihoods).
    pub fn log_softmax_rows(&mut self, x: Var) -> Var {
        let mut value = self.value(x).clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            for v in row.iter_mut() {
                *v -= lse;
            }
        }
        self.unary(x, Op::LogSoftmaxRows(x.0), value)
    }

    /// Row-wise layer normalization followed by the affine `·γ + β` (both
    /// 1×cols), one node: each entry becomes `((v − mean)·inv_std)·γ + β`,
    /// as [`Matrix::layer_norm_in_place`] computes it.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let mut value = self.value(x).clone();
        let (rows, cols) = value.shape();
        let at = self.aux.len() as u32;
        for r in 0..rows {
            let inv_std = crate::matrix::normalize_row(value.row_mut(r), eps);
            self.aux.push(inv_std);
        }
        self.aux.extend_from_slice(value.data());
        let (g, b) = (self.value(gamma), self.value(beta));
        assert_eq!(g.shape(), (1, cols), "layer norm gamma width");
        assert_eq!(b.shape(), (1, cols), "layer norm beta width");
        for row in value.data_mut().chunks_exact_mut(cols) {
            for ((v, &gv), &bv) in row.iter_mut().zip(g.data()).zip(b.data()) {
                *v = *v * gv + bv;
            }
        }
        let tracks = self.tracks(x.0) || self.tracks(gamma.0) || self.tracks(beta.0);
        let op = Op::LayerNorm {
            x: x.0,
            gamma: gamma.0,
            beta: beta.0,
            at,
        };
        self.derived(tracks, op, value)
    }

    // ------------------------------------------------------------------
    // Shape surgery
    // ------------------------------------------------------------------

    /// Copy of rows `lo..hi` (gradient scatters back).
    pub fn slice_rows(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let value = self.value(x).slice_rows(lo, hi);
        self.unary(x, Op::SliceRows(x.0, lo as u32, hi as u32), value)
    }

    /// Copy of columns `lo..hi` (gradient scatters back).
    pub fn slice_cols(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let value = self.value(x).slice_cols(lo, hi);
        self.unary(x, Op::SliceCols(x.0, lo as u32, hi as u32), value)
    }

    /// Records the parts of a concatenation in `parts`.
    fn concat(&mut self, parts: &[Var], value: Matrix, rows: bool) -> Var {
        let tracks = parts.iter().any(|p| self.tracks(p.0));
        let (at, n) = (self.parts.len() as u32, parts.len() as u32);
        if tracks {
            self.parts.extend(parts.iter().map(|p| p.0));
        }
        let op = if rows {
            Op::ConcatRows { at, n }
        } else {
            Op::ConcatCols { at, n }
        };
        self.derived(tracks, op, value)
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::concat_rows(&values);
        self.concat(parts, value, true)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::concat_cols(&values);
        self.concat(parts, value, false)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all entries (1×1 output).
    pub fn sum(&mut self, x: Var) -> Var {
        let value = Matrix::scalar(self.value(x).sum());
        self.unary(x, Op::Sum(x.0), value)
    }

    /// Mean of all entries (1×1 output).
    pub fn mean(&mut self, x: Var) -> Var {
        let (rows, cols) = self.shape(x);
        let n = (rows * cols) as f32;
        let s = self.sum(x);
        self.scale(s, 1.0 / n)
    }

    /// Mean over rows: `(n, d)` → `(1, d)` (sequence pooling), as a
    /// constant `1/n` row times `x`.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let rows = self.shape(x).0;
        let ones = self.constant(Matrix::full(1, rows, 1.0 / rows as f32));
        self.matmul(ones, x)
    }
}

/// The column sums of `g`, each accumulated down the rows from zero (a bias
/// gradient).
fn column_sums(g: &Matrix) -> Matrix {
    let mut sums = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (s, &v) in sums.row_mut(0).iter_mut().zip(g.row(r)) {
            *s += v;
        }
    }
    sums
}

/// The row-wise normalization's backward: with `y` the normalized rows
/// (row-major) and `inv_stds` their `1/std`,
/// `dx = inv_std · (dn − mean(dn) − y ⊙ mean(dn ⊙ y))` rowwise.
fn normalize_backward(dn: &Matrix, y: &[f32], inv_stds: &[f32]) -> Matrix {
    let cols = dn.cols();
    let n = cols as f32;
    let mut dx = Matrix::zeros(dn.rows(), cols);
    for (r, &inv_std) in inv_stds.iter().enumerate() {
        let gr = dn.row(r);
        let yr = &y[r * cols..(r + 1) * cols];
        let g_mean: f32 = gr.iter().sum::<f32>() / n;
        let gy_mean: f32 = gr.iter().zip(yr).map(|(&a, &b)| a * b).sum::<f32>() / n;
        for (d, (&gv, &yv)) in dx.row_mut(r).iter_mut().zip(gr.iter().zip(yr)) {
            *d = inv_std * (gv - g_mean - yv * gy_mean);
        }
    }
    dx
}

/// The softmax backward of rows `y` under the gradient `g`:
/// `dx_r = y_r ⊙ (g_r − (g_r · y_r))`.
fn softmax_backward(y: &Matrix, g: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(g.rows(), g.cols());
    for r in 0..g.rows() {
        let yr = y.row(r);
        let gr = g.row(r);
        let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        for (d, (&yv, &gv)) in dx.row_mut(r).iter_mut().zip(yr.iter().zip(gr)) {
            *d = yv * (gv - dot);
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gradient of a scalar loss with respect to `at`, built by
    /// `build` on a fresh tape with `at` as its parameter.
    fn grad_of(build: &dyn Fn(&mut Tape, Var) -> Var, at: &Matrix) -> Matrix {
        let mut t = Tape::new();
        let p = t.param(at);
        let loss = build(&mut t, p);
        t.backward(loss);
        t.grad(p)
    }

    /// `build`'s scalar loss at `at`.
    fn loss_at(build: &dyn Fn(&mut Tape, Var) -> Var, at: &Matrix) -> f32 {
        let mut t = Tape::new();
        let p = t.param(at);
        let loss = build(&mut t, p);
        t.item(loss)
    }

    /// Finite-difference check of d(loss)/d(param) at one entry.
    fn finite_diff(build: &dyn Fn(&mut Tape, Var) -> Var, at: &Matrix, idx: usize) -> (f32, f32) {
        let analytic = grad_of(build, at).data()[idx];
        let eps = 1e-3;
        let mut plus = at.clone();
        plus.data_mut()[idx] += eps;
        let mut minus = at.clone();
        minus.data_mut()[idx] -= eps;
        let (lp, lm) = (loss_at(build, &plus), loss_at(build, &minus));
        (analytic, (lp - lm) / (2.0 * eps))
    }

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{a} vs {b}");
    }

    #[test]
    fn add_and_scale_grads() {
        let (a, b) = (Matrix::scalar(2.0), Matrix::scalar(3.0));
        let mut t = Tape::new();
        let (va, vb) = (t.param(&a), t.param(&b));
        let sum = t.add(va, vb);
        let loss = t.scale(sum, 4.0);
        t.backward(loss);
        assert_eq!(t.grad(va).item(), 4.0);
        assert_eq!(t.grad(vb).item(), 4.0);
    }

    #[test]
    fn hadamard_grads() {
        let (a, b) = (Matrix::scalar(2.0), Matrix::scalar(3.0));
        let mut t = Tape::new();
        let (va, vb) = (t.param(&a), t.param(&b));
        let loss = t.hadamard(va, vb);
        t.backward(loss);
        assert_eq!(t.grad(va).item(), 3.0);
        assert_eq!(t.grad(vb).item(), 2.0);
    }

    #[test]
    fn reuse_accumulates() {
        // loss = x * x → dx = 2x.
        let x = Matrix::scalar(5.0);
        let mut t = Tape::new();
        let v = t.param(&x);
        let loss = t.hadamard(v, v);
        t.backward(loss);
        assert_eq!(t.grad(v).item(), 10.0);
    }

    #[test]
    fn a_parameter_read_twice_is_one_node() {
        let x = Matrix::scalar(5.0);
        let mut t = Tape::new();
        let (a, b) = (t.param(&x), t.param(&x));
        assert_eq!(a, b);
        let loss = t.hadamard(a, b);
        t.backward(loss);
        let grads = t.into_grads(&[&x, &Matrix::scalar(5.0)]);
        assert_eq!(grads[0].as_ref().map(Matrix::item), Some(10.0));
        assert!(grads[1].is_none(), "a matrix the tape never read");
    }

    #[test]
    fn matmul_grad_finite_diff() {
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7]);
        let at = Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);
        let build = |t: &mut Tape, p: Var| {
            let b = t.constant(b.clone());
            let h1 = t.matmul(p, b);
            let h2 = t.matmul(p, b);
            let h = t.hadamard(h1, h2);
            t.sum(h)
        };
        for idx in 0..6 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 2e-2);
        }
    }

    #[test]
    fn matmul_nt_grad_finite_diff() {
        let b = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7]);
        let at = Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);
        let build = |t: &mut Tape, p: Var| {
            let b = t.constant(b.clone());
            let h = t.matmul_nt(p, b);
            t.sum(h)
        };
        for idx in 0..6 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 1e-2);
        }
    }

    /// `sum(f(p) ⊙ w)` for a fixed weight row `w`.
    fn weighted(f: fn(&mut Tape, Var) -> Var) -> impl Fn(&mut Tape, Var) -> Var {
        move |t: &mut Tape, p: Var| {
            let w = t.constant(Matrix::from_vec(1, 4, vec![0.3, -0.7, 1.1, 0.2]));
            let y = f(t, p);
            let h = t.hadamard(y, w);
            t.sum(h)
        }
    }

    #[test]
    fn softmax_grad_finite_diff() {
        let at = Matrix::from_vec(1, 4, vec![0.1, 0.5, -0.3, 0.9]);
        let build = weighted(|t, p| t.softmax_rows(p));
        for idx in 0..4 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 1e-2);
        }
    }

    #[test]
    fn log_softmax_grad_finite_diff() {
        let at = Matrix::from_vec(1, 4, vec![0.1, 0.5, -0.3, 0.9]);
        let build = weighted(|t, p| t.log_softmax_rows(p));
        for idx in 0..4 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 1e-2);
        }
    }

    /// A layer norm with a non-trivial affine `γ`/`β`.
    fn affine_norm(t: &mut Tape, p: Var) -> Var {
        let gamma = t.constant(Matrix::from_vec(1, 4, vec![0.9, -1.3, 0.4, 1.1]));
        let beta = t.constant(Matrix::from_vec(1, 4, vec![0.1, 0.0, -0.2, 0.3]));
        t.layer_norm(p, gamma, beta, 1e-5)
    }

    #[test]
    fn layernorm_grad_finite_diff() {
        let at = Matrix::from_vec(1, 4, vec![0.2, -0.4, 0.8, 1.2]);
        let build = weighted(affine_norm);
        for idx in 0..4 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 3e-2);
        }
        // And through the affine parameters, over two rows.
        let x = Matrix::from_vec(2, 4, vec![0.2, -0.4, 0.8, 1.2, -1.0, 0.3, 0.6, 0.1]);
        let beta = Matrix::from_vec(1, 4, vec![0.1, 0.0, -0.2, 0.3]);
        let norm_with_gamma = |t: &mut Tape, gamma: Var| {
            let (xv, b) = (t.constant(x.clone()), t.constant(beta.clone()));
            let y = t.layer_norm(xv, gamma, b, 1e-5);
            let w = t.constant(Matrix::from_vec(
                2,
                4,
                vec![0.3, -0.7, 1.1, 0.2, 0.5, 0.4, -0.9, 1.3],
            ));
            let h = t.hadamard(y, w);
            t.sum(h)
        };
        let gamma = Matrix::from_vec(1, 4, vec![0.9, -1.3, 0.4, 1.1]);
        for idx in 0..4 {
            let (a, fd) = finite_diff(&norm_with_gamma, &gamma, idx);
            assert_close(a, fd, 3e-2);
        }
    }

    #[test]
    fn activations_grad_finite_diff() {
        let at = Matrix::from_vec(1, 3, vec![0.5, -0.7, 1.3]);
        let activations: [fn(&mut Tape, Var) -> Var; 3] =
            [|t, p| t.tanh(p), |t, p| t.sigmoid(p), |t, p| t.gelu(p)];
        for idx in 0..3 {
            for f in activations {
                let build = move |t: &mut Tape, p: Var| {
                    let y = f(t, p);
                    t.sum(y)
                };
                let (a, fd) = finite_diff(&build, &at, idx);
                assert_close(a, fd, 1e-2);
            }
        }
    }

    #[test]
    fn fused_attention_scores_forward_bitwise_and_grads_close() {
        let qm = Matrix::from_vec(2, 3, vec![0.3, -1.2, 0.7, 2.0, -0.4, 0.1]);
        let km = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7]);
        let mask = Matrix::from_vec(2, 2, vec![0.0, -1e9, 0.0, 0.0]);
        let scale = 1.0 / 3f32.sqrt();
        let w = Matrix::from_vec(2, 2, vec![0.3, -0.7, 1.1, 0.2]);
        let run = |fused: bool| {
            let mut t = Tape::new();
            let (q, k) = (t.param(&qm), t.param(&km));
            let scores = if fused {
                t.attention_scores(q, k, scale, Some(&mask))
            } else {
                let s = t.matmul_nt(q, k);
                let s = t.scale(s, scale);
                let m = t.constant(mask.clone());
                let s = t.add(s, m);
                t.softmax_rows(s)
            };
            let value = t.value(scores).clone();
            let wv = t.input(&w);
            let h = t.hadamard(scores, wv);
            let loss = t.sum(h);
            t.backward(loss);
            (value, t.grad(q), t.grad(k))
        };
        let (fused, fq, fk) = run(true);
        let (composed, cq, ck) = run(false);
        assert_eq!(fused, composed);
        for (a, b) in fq.data().iter().zip(cq.data()) {
            assert_close(*a, *b, 1e-5);
        }
        for (a, b) in fk.data().iter().zip(ck.data()) {
            assert_close(*a, *b, 1e-5);
        }
    }

    #[test]
    fn slicing_grads_scatter() {
        let at = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = grad_of(
            &|t, p| {
                let s = t.slice_rows(p, 1, 2);
                t.sum(s)
            },
            &at,
        );
        assert_eq!(g.data(), &[0., 0., 1., 1., 0., 0.]);
        let at2 = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let g2 = grad_of(
            &|t, p| {
                let s = t.slice_cols(p, 2, 3);
                t.sum(s)
            },
            &at2,
        );
        assert_eq!(g2.data(), &[0., 0., 1., 0., 0., 1.]);
    }

    #[test]
    fn concat_grads_split() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let mut t = Tape::new();
        let (va, vb) = (t.param(&a), t.param(&b));
        let c = t.concat_rows(&[va, vb]);
        let s = t.scale(c, 2.0);
        let loss = t.sum(s);
        t.backward(loss);
        assert_eq!(t.grad(va).data(), &[2., 2.]);
        assert_eq!(t.grad(vb).data(), &[2., 2., 2., 2.]);
    }

    #[test]
    fn broadcast_bias_grad() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let w = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let b = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut t = Tape::new();
        let (vx, vw, vb) = (t.input(&x), t.input(&w), t.param(&b));
        let y = t.linear(vx, vw, vb);
        assert_eq!(t.value(y).data(), &[1.5, 1.5, 3.5, 3.5]);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(vb).data(), &[2., 2.]);
    }

    #[test]
    fn linear_grad_finite_diff() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);
        let b = Matrix::from_vec(1, 2, vec![0.3, -0.2]);
        let at = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7]);
        let build = |t: &mut Tape, w: Var| {
            let (xv, bv) = (t.constant(x.clone()), t.constant(b.clone()));
            let h = t.linear(xv, w, bv);
            let h = t.tanh(h);
            t.sum(h)
        };
        for idx in 0..6 {
            let (a, fd) = finite_diff(&build, &at, idx);
            assert_close(a, fd, 1e-2);
        }
    }

    #[test]
    fn constants_get_no_grad() {
        let p = Matrix::scalar(2.0);
        let mut t = Tape::new();
        let c = t.constant(Matrix::scalar(1.0));
        let vp = t.param(&p);
        let loss = t.hadamard(c, vp);
        t.backward(loss);
        assert_eq!(t.grad(c).item(), 0.0);
        assert_eq!(t.grad(vp).item(), 1.0);
    }

    #[test]
    fn ops_over_constants_record_no_gradient() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::scalar(2.0));
        let b = t.scale(a, 3.0);
        assert!(!t.tracks(b.0));
        // Backward from a constant root is a no-op.
        t.backward(b);
        assert_eq!(t.grad(a).item(), 0.0);
    }

    #[test]
    fn diamond_graph_accumulates_once() {
        // y = x + x; z = y * y = 4x² → dz/dx = 8x.
        let x = Matrix::scalar(3.0);
        let mut t = Tape::new();
        let v = t.param(&x);
        let y = t.add(v, v);
        let z = t.hadamard(y, y);
        t.backward(z);
        assert_eq!(t.grad(v).item(), 24.0);
    }

    #[test]
    fn mean_and_ln() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 3.0]);
        let g = grad_of(&|t, p| t.mean(p), &p);
        assert_eq!(g.data(), &[0.5, 0.5]);
        let build = |t: &mut Tape, p: Var| {
            let l = t.ln_eps(p, 1e-6);
            t.sum(l)
        };
        let (a, fd) = finite_diff(&build, &Matrix::from_vec(1, 2, vec![2.0, 0.5]), 0);
        assert_close(a, fd, 1e-2);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A small matrix with entries in `-2..2` (no NaN/inf).
    fn arb_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Central finite difference of a scalar-valued builder at one entry.
    fn fd(build: &dyn Fn(&mut Tape, Var) -> Var, at: &Matrix, idx: usize) -> (f32, f32) {
        let run = |at: &Matrix, backward: bool| {
            let mut t = Tape::new();
            let p = t.param(at);
            let loss = build(&mut t, p);
            if backward {
                t.backward(loss);
            }
            (t.item(loss), t.grad(p))
        };
        let analytic = run(at, true).1.data()[idx];
        let eps = 2e-3;
        let mut plus = at.clone();
        plus.data_mut()[idx] += eps;
        let mut minus = at.clone();
        minus.data_mut()[idx] -= eps;
        let (lp, lm) = (run(&plus, false).0, run(&minus, false).0);
        (analytic, (lp - lm) / (2.0 * eps))
    }

    /// A randomly composed smooth expression has gradients matching
    /// finite differences at a random coordinate.
    #[test]
    fn random_expression_matches_finite_difference() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let at = arb_matrix(&mut rng, 2, 3);
            let w = arb_matrix(&mut rng, 3, 2);
            let (idx, path) = (rng.gen_range(0usize..6), rng.gen_range(0u8..4));
            let build = move |t: &mut Tape, p: Var| -> Var {
                let w = t.constant(w.clone());
                let h = t.matmul(p, w); // (2,2)
                let h = match path {
                    0 => t.tanh(h),
                    1 => t.sigmoid(h),
                    2 => t.gelu(h),
                    _ => t.softmax_rows(h),
                };
                let sq = t.hadamard(h, h);
                t.mean(sq)
            };
            let (analytic, numeric) = fd(&build, &at, idx);
            assert!(
                (analytic - numeric).abs() <= 0.05 * (1.0 + numeric.abs()),
                "seed {seed}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// Gradient of a sum splits linearly: d(sum(a+b)) = 1 for both.
    #[test]
    fn addition_linearity() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (arb_matrix(&mut rng, 2, 2), arb_matrix(&mut rng, 2, 2));
            let mut t = Tape::new();
            let (pa, pb) = (t.param(&a), t.param(&b));
            let s = t.add(pa, pb);
            let loss = t.sum(s);
            t.backward(loss);
            for p in [pa, pb] {
                assert!(
                    t.grad(p).data().iter().all(|&g| (g - 1.0).abs() < 1e-6),
                    "seed {seed}"
                );
            }
        }
    }

    /// Softmax rows always sum to 1 and layer-norm rows have ~zero mean.
    #[test]
    fn normalization_invariants() {
        for seed in 0..24 {
            let mut t = Tape::new();
            let v = t.constant(arb_matrix(&mut StdRng::seed_from_u64(seed), 3, 4));
            let s = t.softmax_rows(v);
            for r in 0..3 {
                let sum: f32 = t.value(s).row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "seed {seed}");
            }
            let gamma = t.constant(Matrix::full(1, 4, 1.0));
            let beta = t.constant(Matrix::zeros(1, 4));
            let n = t.layer_norm(v, gamma, beta, 1e-5);
            for r in 0..3 {
                let mean: f32 = t.value(n).row(r).iter().sum::<f32>() / 4.0;
                assert!(mean.abs() < 1e-5, "seed {seed}");
            }
        }
    }
}
