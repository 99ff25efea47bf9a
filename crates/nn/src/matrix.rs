//! Dense row-major `f32` matrices.
//!
//! Buffers are recycled through [`kernel`]'s per-thread arena: every
//! constructor asks the arena for its backing `Vec<f32>` and [`Drop`]
//! returns it, so steady-state forward passes allocate nothing. The
//! `profile::OpStats` counters reflect this — `allocations` counts arena
//! *misses* (a genuine heap allocation), `arena_reuses` counts hits.
//!
//! `matmul` and `matmul_nt` run [`kernel::gemm`], the one GEMM;
//! `matmul_each` runs its row-major loop over several right-hand sides at
//! once ([`kernel::gemm_each`]).

use crate::kernel;
use crate::profile;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: kernel::take_copy(&self.data),
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        kernel::recycle(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: kernel::take(rows * cols, 0.0),
        }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: kernel::take(rows * cols, value),
        }
    }

    /// Builds from a row-major vector; `data.len()` must equal
    /// `rows * cols`. The buffer arrives from outside the arena, so this
    /// always counts as an allocation.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        profile::record_alloc((rows * cols) as u64);
        Self { rows, cols, data }
    }

    /// A 1×1 matrix (scalar).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// A row vector.
    pub fn row_vec(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self::from_vec(1, cols, data)
    }

    /// Xavier/Glorot-uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (rows + cols))`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let mut data = kernel::take_empty(rows * cols);
        data.extend((0..rows * cols).map(|_| rng.gen_range(-a..a)));
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a 1×1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar {self:?}");
        self.data[0]
    }

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        profile::record_matmul(2 * (self.rows * other.cols * self.cols) as u64);
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernel::gemm(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            kernel::BKind::RowMajor,
            &mut out.data,
        );
        out
    }

    /// `self × others[j]` for every `j`, as one GEMM call over `self`
    /// ([`kernel::gemm_each`]), bitwise-equal to `N` [`Self::matmul`]s.
    pub fn matmul_each<const N: usize>(&self, others: [&Matrix; N]) -> [Matrix; N] {
        let mut flops = 0;
        for other in others {
            assert_eq!(self.cols, other.rows, "matmul shape mismatch");
            flops += 2 * (self.rows * other.cols * self.cols) as u64;
        }
        profile::record_matmul(flops);
        let mut outs = others.map(|other| Matrix::zeros(self.rows, other.cols));
        kernel::gemm_each(
            &self.data,
            self.rows,
            self.cols,
            others.map(|other| other.data.as_slice()),
            outs.each_mut().map(|out| out.data.as_mut_slice()),
        );
        outs
    }

    /// `self × otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        profile::record_matmul(2 * (self.rows * other.rows * self.cols) as u64);
        let mut out = Matrix::zeros(self.rows, other.rows);
        kernel::gemm(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            kernel::BKind::Transposed,
            &mut out.data,
        );
        out
    }

    /// `selfᵀ × other` without materializing the transpose (backward pass
    /// only).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        profile::record_matmul(2 * (self.cols * other.cols * self.rows) as u64);
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Fused attention scores: `softmax_rows(self × keysᵀ · scale [+ mask])`
    /// in one pass over one buffer, instead of the scale/add/softmax chain
    /// of intermediates. Bitwise-identical to the composed form (Rust
    /// never contracts the `*`/`+` pair into an FMA).
    pub fn attention_scores(&self, keys: &Matrix, scale: f32, mask: Option<&Matrix>) -> Matrix {
        let mut scores = self.matmul_nt(keys);
        match mask {
            Some(m) => {
                assert_eq!(scores.shape(), m.shape(), "attention mask shape mismatch");
                for (o, &mv) in scores.data.iter_mut().zip(&m.data) {
                    *o = *o * scale + mv;
                }
            }
            None => {
                for o in scores.data.iter_mut() {
                    *o *= scale;
                }
            }
        }
        scores.softmax_rows_in_place();
        scores
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum (same shape).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `row` (a 1×cols matrix) to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_in_place(row);
        out
    }

    /// Adds `row` (a 1×cols matrix) to every row in place (a bias add).
    pub fn add_row_in_place(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(row.data()) {
                *o += b;
            }
        }
    }

    /// Row-wise layer normalization followed by the affine `γ`/`β` (both
    /// 1×cols), in place and in one pass per row: each entry becomes
    /// `((v − mean)·inv_std)·γ + β`, rounded after every op exactly as the
    /// tape's [`crate::Tape::layer_norm`] rounds it.
    pub fn layer_norm_in_place(&mut self, gamma: &Matrix, beta: &Matrix, eps: f32) {
        assert_eq!(gamma.shape(), (1, self.cols), "layer norm gamma width");
        assert_eq!(beta.shape(), (1, self.cols), "layer norm beta width");
        for r in 0..self.rows {
            let row = self.row_mut(r);
            normalize_row(row, eps);
            for ((v, &g), &b) in row.iter_mut().zip(gamma.data()).zip(beta.data()) {
                *v = *v * g + b;
            }
        }
    }

    /// GELU ([`gelu`]) applied to every entry in place.
    pub fn gelu_in_place(&mut self) {
        for v in self.data.iter_mut() {
            *v = gelu(*v);
        }
    }

    /// Copy of the listed rows, in the listed order.
    pub fn gather_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = kernel::take_empty(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = kernel::take_empty(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise zip-map.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let mut data = kernel::take_empty(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Copy of rows `lo..hi`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows, "row slice out of range");
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: kernel::take_copy(&self.data[lo * self.cols..hi * self.cols]),
        }
    }

    /// Copy of columns `lo..hi`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.cols, "col slice out of range");
        let mut out = Matrix::zeros(self.rows, hi - lo);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[lo..hi]);
        }
        out
    }

    /// Vertical concatenation (equal column counts).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of nothing");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|m| m.rows).sum();
        let mut data = kernel::take_empty(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "concat_rows width mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontal concatenation (equal row counts).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = parts[0].rows;
        let cols = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "concat_cols height mismatch");
                out.row_mut(r)[offset..offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// Row-wise softmax in place (the allocation-free half of
    /// [`Self::softmax_rows`], shared with the fused attention kernel).
    fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            softmax_row(self.row_mut(r));
        }
    }
}

/// GELU (tanh approximation), the transformer's activation. The tape's
/// [`crate::Tape::gelu`] and the inference [`Matrix::gelu_in_place`] both
/// evaluate this one function.
#[inline]
pub fn gelu(v: f32) -> f32 {
    0.5 * v * (1.0 + gelu_tanh(v))
}

/// The `tanh` term of [`gelu`], which its derivative reuses.
#[inline]
pub(crate) fn gelu_tanh(v: f32) -> f32 {
    tanh(GELU_C * (v + 0.044715 * v * v * v))
}

/// `sqrt(2/π)`, the GELU approximation's inner scale.
pub(crate) const GELU_C: f32 = 0.797_884_6;

// Hyperbolic tangent: fdlibm's `__tanhf` over `__expm1f`, as glibc ships
// them (sysdeps/ieee754/flt-32/s_tanhf.c and s_expm1f.c), which carry
// this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

// fdlibm's constants, as the shortest literals that give its bits.
const LN2_HI: f32 = 0.693_138_1; // 0x3f317180
const LN2_LO: f32 = 9.058_001e-6; // 0x3717f7d1
const INV_LN2: f32 = std::f32::consts::LOG2_E; // 0x3fb8aa3b
const Q1: f32 = -0.033_333_335; // 0xbd088889
const Q2: f32 = 0.001_587_301_6; // 0x3ad00d01
const Q3: f32 = -7.936_507_6e-5; // 0xb8a670cd
const Q4: f32 = 4.008_217_7e-6; // 0x36867e54
const Q5: f32 = -2.010_992_1e-7; // 0xb457edbb
/// `1.5·2^23`: adding and subtracting it rounds a float below `2^22` in
/// magnitude to an integer, and the sum's low bits hold that integer.
const ROUND: f32 = 12_582_912.0;

/// Hyperbolic tangent, bit for bit the value of glibc's `tanhf` (fdlibm
/// `__tanhf`) on every input. Every tanh in the crate is this one.
///
/// It is branch-free: each input runs every range reduction and every
/// reconstruction of `expm1`, and selects keep the one fdlibm takes, so a
/// loop over it (GELU in place) auto-vectorizes on baseline SSE2.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    // Inputs that end on a constant path below (|x| >= 22, ±inf, NaN) are
    // clamped to 22, so that their unused lanes stay in expm1's range.
    let a = ax.min(22.0);
    // |x| >= 1 takes expm1(2|x|) and 1 - 2/(t+2), |x| < 1 expm1(-2|x|) and
    // -t/(t+2).
    let ge_one = a >= 1.0;
    let t = expm1_for_tanh(a * if ge_one { 2.0 } else { -2.0 });
    let q = if ge_one { 2.0 } else { -t } / (t + 2.0);
    let z = if ge_one { 1.0 - q } else { q };
    // |x| >= 22 and ±inf give ±1; fdlibm negates for negative x, and z is
    // never negative.
    let z = if ax >= 22.0 { 1.0 } else { z };
    let z = z.copysign(x);
    // |x| < 2^-55 and ±0 give x; NaN gives the quieted NaN.
    let z = if ax < f32::from_bits(0x2400_0000) {
        x
    } else {
        z
    };
    if x.is_nan() {
        f32::from_bits(x.to_bits() | 0x0040_0000)
    } else {
        z
    }
}

/// fdlibm `__expm1f` on the arguments [`tanh`] passes it, `-2 <= x <= 0`
/// and `2 <= x <= 44`. There `k` (`e^x = 2^k·e^r`) is 0, -1, -2, -3 or in
/// `3..=63`, so the overflow, `k == 1` and `x < -27·ln2` branches are
/// never taken and are left out.
#[inline(always)]
fn expm1_for_tanh(x: f32) -> f32 {
    let ax = x.abs();
    // k = trunc(x/ln2 ± 0.5), kept in floats: round to the nearest
    // integer, then step toward zero if that went past. k is 0 up to
    // 0.5·ln2 and -1 (only x < 0 gets there) below 1.5·ln2.
    let y = INV_LN2 * x + 0.5f32.copysign(x);
    let r = (y + ROUND) - ROUND;
    let k_far = if r.abs() > y.abs() {
        r - 1.0f32.copysign(y)
    } else {
        r
    };
    let kf = if ax <= f32::from_bits(0x3eb1_7218) {
        0.0
    } else if ax < f32::from_bits(0x3f85_1592) {
        -1.0
    } else {
        k_far
    };
    let k = (kf + ROUND).to_bits() as i32 - ROUND.to_bits() as i32;
    // x = hi - lo + k·ln2. At k = 0 this leaves x as it is, and at k = -1
    // it is fdlibm's exact `x + ln2_hi`, `-ln2_lo`.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // xr is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    // fdlibm's k == 0 result `xr - (xr·e - hxs)` is this with c = 0.
    let e = (xr * (e - c) - c) - hxs;
    let k0 = xr - e;
    let km1 = 0.5 * k0 - 0.5;
    // The other reconstructions add k to the exponent of y: for
    // k <= -2 or k > 56, `2^k·(1 - (e - xr)) - 1`; for k < 23,
    // `2^k·((1 - 2^-k) - (e - xr))`; else `2^k·((xr - (e + 2^-k)) + 1)`.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let two_mk = f32::from_bits(((0x7f - k) << 23) as u32);
    let far = kf <= -2.0 || kf > 56.0;
    let low = scale(if far { 1.0 } else { 1.0 - two_mk } - (e - xr)) - if far { 1.0 } else { 0.0 };
    let high = scale((xr - (e + two_mk)) + 1.0);
    let y = if (23.0..=56.0).contains(&kf) {
        high
    } else {
        low
    };
    let y = if kf == -1.0 { km1 } else { y };
    let y = if kf == 0.0 { k0 } else { y };
    // |x| < 2^-25 returns x.
    if ax < f32::from_bits(0x3300_0000) {
        x
    } else {
        y
    }
}

/// Normalizes one row in place to zero mean and unit variance (population
/// variance plus `eps`) and returns its `inv_std`. The tape's
/// [`crate::Tape::layer_norm`] and the inference
/// [`Matrix::layer_norm_in_place`] both normalize through this.
pub(crate) fn normalize_row(row: &mut [f32], eps: f32) -> f32 {
    let n = row.len() as f32;
    let mean: f32 = row.iter().sum::<f32>() / n;
    let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv_std = 1.0 / (var + eps).sqrt();
    for v in row.iter_mut() {
        *v = (*v - mean) * inv_std;
    }
    inv_std
}

/// Softmax of one row in place: subtract the row max, exponentiate and sum
/// in ascending order, divide. Every softmax in the crate goes through
/// this one op order, so the packed and incremental attention paths stay
/// bitwise-equal to the per-sequence one.
pub(crate) fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 5, &mut rng);
        let b = Matrix::xavier(3, 5, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(5, 4, &mut rng);
        let b = Matrix::xavier(5, 3, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn fused_attention_scores_match_composed_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let q = Matrix::xavier(6, 8, &mut rng);
        let k = Matrix::xavier(6, 8, &mut rng);
        let mask = Matrix::full(6, 6, -0.5);
        let scale = 1.0 / (8f32).sqrt();
        let fused = q.attention_scores(&k, scale, Some(&mask));
        let composed = q.matmul_nt(&k).scale(scale).add(&mask).softmax_rows();
        assert_eq!(fused.data(), composed.data());
        let fused_nomask = q.attention_scores(&k, scale, None);
        let composed_nomask = q.matmul_nt(&k).scale(scale).softmax_rows();
        assert_eq!(fused_nomask.data(), composed_nomask.data());
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn broadcast_add() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let row = m(1, 2, &[10., 20.]);
        assert_eq!(a.add_row_broadcast(&row).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn slicing_and_concat() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.slice_rows(1, 3).data(), &[3., 4., 5., 6.]);
        assert_eq!(a.slice_cols(1, 2).data(), &[2., 4., 6.]);
        let top = a.slice_rows(0, 1);
        let bottom = a.slice_rows(1, 3);
        assert_eq!(Matrix::concat_rows(&[&top, &bottom]), a);
        let left = a.slice_cols(0, 1);
        let right = a.slice_cols(1, 2);
        assert_eq!(Matrix::concat_cols(&[&left, &right]), a);
    }

    #[test]
    fn softmax_rows_normalized() {
        let a = m(2, 3, &[1., 2., 3., 1000., 1000., 1000.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large inputs don't overflow (max-subtraction).
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::xavier(10, 10, &mut rng);
        let a = (6.0f32 / 20.0).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= a));
        assert!(w.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn fdlibm_constants_have_fdlibms_bits() {
        let bits = [LN2_HI, LN2_LO, INV_LN2, Q1, Q2, Q3, Q4, Q5].map(f32::to_bits);
        assert_eq!(
            bits,
            [
                0x3f31_7180,
                0x3717_f7d1,
                0x3fb8_aa3b,
                0xbd08_8889,
                0x3ad0_0d01,
                0xb8a6_70cd,
                0x3686_7e54,
                0xb457_edbb
            ]
        );
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
