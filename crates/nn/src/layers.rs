//! Parameterized layers: linear, layer norm, feed-forward, MLP.
//!
//! Each layer owns its parameters as plain [`Matrix`] values and has two
//! forwards over them. `forward` records the layer on a training [`Tape`];
//! `infer` runs on plain matrices, reads each parameter once, and builds
//! no tape. Both evaluate the same kernels in the same order, so `infer`
//! is bitwise-equal to `forward`'s value.

use crate::autograd::{Tape, Var};
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// Anything holding trainable parameters.
///
/// Implementations list their parameter-holding fields once, through
/// [`crate::module_parameters!`], which writes both visitors so that
/// [`Module::parameters`] and [`Module::parameters_mut`] always agree on
/// the order.
pub trait Module {
    /// Pushes every parameter onto `out`, in a stable order.
    fn visit<'a>(&'a self, out: &mut Vec<&'a Matrix>);

    /// Pushes every parameter onto `out` mutably, in the order of
    /// [`Module::visit`].
    fn visit_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Matrix>);

    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        self.visit(&mut out);
        out
    }

    /// All trainable parameters, mutably, in the order of
    /// [`Module::parameters`] (optimizer steps and weight loading).
    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        self.visit_mut(&mut out);
        out
    }

    /// Total scalar parameter count.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.data().len()).sum()
    }
}

/// A bare matrix is a module of one parameter.
impl Module for Matrix {
    fn visit<'a>(&'a self, out: &mut Vec<&'a Matrix>) {
        out.push(self);
    }

    fn visit_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Matrix>) {
        out.push(self);
    }
}

impl<T: Module> Module for Vec<T> {
    fn visit<'a>(&'a self, out: &mut Vec<&'a Matrix>) {
        for m in self {
            m.visit(out);
        }
    }

    fn visit_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Matrix>) {
        for m in self {
            m.visit_mut(out);
        }
    }
}

/// Writes [`Module::visit`] and [`Module::visit_mut`] over the listed
/// fields, in order. Each field is a [`Matrix`] parameter or a
/// [`Module`].
#[macro_export]
macro_rules! module_parameters {
    ($($field:ident),+ $(,)?) => {
        fn visit<'a>(&'a self, out: &mut Vec<&'a $crate::Matrix>) {
            $($crate::layers::Module::visit(&self.$field, out);)+
        }

        fn visit_mut<'a>(&'a mut self, out: &mut Vec<&'a mut $crate::Matrix>) {
            $($crate::layers::Module::visit_mut(&mut self.$field, out);)+
        }
    };
}

/// Affine layer `y = x W + b` mapping `(n, in)` to `(n, out)`.
#[derive(Clone)]
pub struct Linear {
    w: Matrix,
    b: Matrix,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Matrix::xavier(input, output, rng),
            b: Matrix::zeros(1, output),
        }
    }

    /// Forward pass on the tape.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        let w = t.param(&self.w);
        let b = t.param(&self.b);
        t.linear(x, w, b)
    }

    /// Inference forward: the GEMM, then the bias added into its output
    /// in place.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_in_place(&self.b);
        y
    }

    /// [`Self::infer`] of every layer in `layers` over the same input `x`,
    /// bitwise, with all their products in one GEMM call
    /// ([`Matrix::matmul_each`]): attention's query, key and value
    /// projections, for one.
    pub fn infer_each<const N: usize>(x: &Matrix, layers: [&Linear; N]) -> [Matrix; N] {
        let mut ys = x.matmul_each(layers.map(|l| &l.w));
        for (y, l) in ys.iter_mut().zip(layers) {
            y.add_row_in_place(&l.b);
        }
        ys
    }
}

impl Module for Linear {
    module_parameters!(w, b);
}

/// Layer normalization with learnable scale and shift.
#[derive(Clone)]
pub struct LayerNorm {
    gamma: Matrix,
    beta: Matrix,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Matrix::full(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            eps: 1e-5,
        }
    }

    /// Forward pass: row-wise normalize, then scale and shift.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        let gamma = t.param(&self.gamma);
        let beta = t.param(&self.beta);
        t.layer_norm(x, gamma, beta, self.eps)
    }

    /// Inference forward: normalize and apply `γ`/`β` in one pass.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        y.layer_norm_in_place(&self.gamma, &self.beta, self.eps);
        y
    }
}

impl Module for LayerNorm {
    module_parameters!(gamma, beta);
}

/// Transformer position-wise feed-forward: `Linear → GELU → Linear`.
#[derive(Clone)]
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// Builds with hidden width `hidden` (typically `4 × d_model`).
    pub fn new(dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            l1: Linear::new(dim, hidden, rng),
            l2: Linear::new(hidden, dim, rng),
        }
    }

    /// Forward pass on the tape.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        let h = self.l1.forward(t, x);
        let h = t.gelu(h);
        self.l2.forward(t, h)
    }

    /// Inference forward, with GELU applied in place.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.l1.infer(x);
        h.gelu_in_place();
        self.l2.infer(&h)
    }
}

impl Module for FeedForward {
    module_parameters!(l1, l2);
}

/// A multi-layer perceptron with GELU activations between layers (the
/// paper's `M_CardEst` / `M_CostEst` heads are two-layer MLPs).
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds from a width list, e.g. `[64, 32, 1]` for a two-layer head.
    pub fn new(widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Forward pass on the tape (no activation after the last layer).
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(t, h);
            if i + 1 < self.layers.len() {
                h = t.gelu(h);
            }
        }
        h
    }

    /// Inference forward, with GELU applied in place. Row-local: each
    /// output row depends only on the same input row, so a head can run
    /// on just the rows it reads.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut layers = self.layers.iter();
        let mut h = match layers.next() {
            Some(first) => first.infer(x),
            None => return x.clone(),
        };
        for layer in layers {
            h.gelu_in_place();
            h = layer.infer(&h);
        }
        h
    }
}

impl Module for Mlp {
    module_parameters!(layers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(4, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(5, 4));
        let y = l.forward(&mut t, x);
        assert_eq!(t.shape(y), (5, 3));
        assert_eq!(l.parameter_count(), 4 * 3 + 3);
    }

    #[test]
    fn linear_trains_toward_target() {
        // One linear layer can fit y = 2x + 1.
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(1, 1, &mut rng);
        let mut opt = crate::optim::Adam::new(&l.parameters(), 0.05);
        let x = Matrix::from_vec(4, 1, vec![-1.0, 0.0, 1.0, 2.0]);
        let target = Matrix::from_vec(4, 1, vec![-1.0, 1.0, 3.0, 5.0]);
        for _ in 0..200 {
            let grads = {
                let mut t = Tape::new();
                let (xv, tv) = (t.input(&x), t.input(&target));
                let pred = l.forward(&mut t, xv);
                let diff = t.sub(pred, tv);
                let sq = t.hadamard(diff, diff);
                let loss = t.mean(sq);
                t.backward(loss);
                t.into_grads(&l.parameters())
            };
            opt.step(l.parameters_mut(), &grads);
        }
        let y = l.infer(&Matrix::from_vec(1, 1, vec![3.0])).item();
        assert!((y - 7.0).abs() < 0.1, "prediction {y}");
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_vec(2, 4, vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let mut t = Tape::new();
        let xv = t.input(&x);
        let yv = ln.forward(&mut t, xv);
        let y = t.value(yv);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn layernorm_gamma_beta_trainable() {
        let ln = LayerNorm::new(3);
        let x = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let mut t = Tape::new();
        let xv = t.input(&x);
        let y = ln.forward(&mut t, xv);
        let loss = t.sum(y);
        t.backward(loss);
        let grads = t.into_grads(&ln.parameters());
        let norm = |g: &Option<Matrix>| g.as_ref().map_or(0.0, Matrix::norm);
        assert!(norm(&grads[0]) > 0.0, "gamma receives gradient");
        assert!(norm(&grads[1]) > 0.0, "beta receives gradient");
    }

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[8, 16, 1], &mut rng);
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(3, 8));
        let y = mlp.forward(&mut t, x);
        assert_eq!(t.shape(y), (3, 1));
        assert_eq!(mlp.parameters().len(), 4);
    }

    #[test]
    fn parameters_mut_lists_parameters_in_order() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut ff = FeedForward::new(3, 5, &mut rng);
        let shapes: Vec<_> = ff.parameters().iter().map(|p| p.shape()).collect();
        assert_eq!(shapes, [(3, 5), (1, 5), (5, 3), (1, 3)]);
        let mutable: Vec<_> = ff.parameters_mut().iter().map(|p| p.shape()).collect();
        assert_eq!(mutable, shapes);
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let (r, c) = m.shape();
        (r, c, m.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn infer_matches_the_tape_forward_bitwise_at_0_1_and_n_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let linear = Linear::new(6, 5, &mut rng);
        let ff = FeedForward::new(6, 24, &mut rng);
        let mlp = Mlp::new(&[6, 7, 7, 3], &mut rng);
        let mut ln = LayerNorm::new(6);
        // Non-trivial γ/β, so the affine half is exercised too.
        ln.gamma = Matrix::xavier(1, 6, &mut rng);
        ln.beta = Matrix::xavier(1, 6, &mut rng);
        for rows in [0, 1, 5] {
            let x = Matrix::xavier(rows, 6, &mut rng);
            let mut t = Tape::new();
            let v = t.input(&x);
            let l = linear.forward(&mut t, v);
            let f = ff.forward(&mut t, v);
            let m = mlp.forward(&mut t, v);
            let n = ln.forward(&mut t, v);
            let tape = |y: Var| bits(t.value(y));
            assert_eq!(bits(&linear.infer(&x)), tape(l), "linear, {rows} rows");
            assert_eq!(bits(&ff.infer(&x)), tape(f), "ffn, {rows} rows");
            assert_eq!(bits(&mlp.infer(&x)), tape(m), "mlp, {rows} rows");
            assert_eq!(bits(&ln.infer(&x)), tape(n), "norm, {rows} rows");
        }
    }

    #[test]
    fn feedforward_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let ff = FeedForward::new(6, 24, &mut rng);
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(5, 6));
        let y = ff.forward(&mut t, x);
        assert_eq!(t.shape(y), (5, 6));
    }
}
