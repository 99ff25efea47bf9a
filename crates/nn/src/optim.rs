//! Optimizers: Adam (the paper uses Adam with lr 1e-4).

use crate::matrix::Matrix;

/// Adam optimizer (Kingma & Ba \[14\], as used by the paper).
///
/// It keeps the first and second moments of each parameter, in the order
/// of the parameter list it was built over; [`Adam::step`] takes the same
/// list mutably, with one gradient per parameter.
pub struct Adam {
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    clip: Option<f32>,
}

impl Adam {
    /// Creates Adam over `params` with learning rate `lr` and default betas
    /// `(0.9, 0.999)`.
    pub fn new(params: &[&Matrix], lr: f32) -> Self {
        let zeros = || params.iter().map(|p| vec![0.0; p.data().len()]).collect();
        Self {
            m: zeros(),
            v: zeros(),
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            clip: Some(5.0),
        }
    }

    /// Sets (or disables) global gradient-norm clipping.
    pub fn with_clip(mut self, clip: Option<f32>) -> Self {
        self.clip = clip;
        self
    }

    /// Sets the learning rate (e.g. lowered for fine-tuning).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one Adam update to `params` in place, from `grads[i]` for
    /// parameter `i` (`None` steps with an all-zero gradient: no gradient
    /// reached the parameter). Nothing is cloned. Each parameter's
    /// moments, value and gradient are walked as slices of one length, so
    /// the update vectorizes; the global clip norm is summed parameter by
    /// parameter, in order.
    pub fn step(&mut self, params: Vec<&mut Matrix>, grads: &[Option<Matrix>]) {
        assert_eq!(params.len(), self.m.len(), "Adam: parameter count changed");
        assert_eq!(
            grads.len(),
            params.len(),
            "Adam: one gradient per parameter"
        );
        self.t += 1;
        // Optional global-norm clip to stabilize transformer training.
        let scale = match self.clip {
            Some(clip) => {
                let total: f32 = sums_of_squares(grads).into_iter().sum::<f32>().sqrt();
                if total > clip {
                    clip / total
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let bias1 = 1.0 - beta1.powi(self.t as i32);
        let bias2 = 1.0 - beta2.powi(self.t as i32);
        let update = |m: &mut f32, v: &mut f32, g: f32, x: &mut f32| {
            let g = g * scale;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *x -= lr * m_hat / (v_hat.sqrt() + eps);
        };
        for (((p, m), v), g) in params
            .into_iter()
            .zip(&mut self.m)
            .zip(&mut self.v)
            .zip(grads)
        {
            let x = p.data_mut();
            let n = x.len();
            assert_eq!(m.len(), n, "Adam: parameter shape changed");
            let (m, v) = (&mut m[..n], &mut v[..n]);
            match g {
                Some(g) => {
                    let g = &g.data()[..n];
                    for i in 0..n {
                        update(&mut m[i], &mut v[i], g[i], &mut x[i]);
                    }
                }
                None => {
                    for i in 0..n {
                        update(&mut m[i], &mut v[i], 0.0, &mut x[i]);
                    }
                }
            }
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// `Σ g²` of each gradient (0 for `None`), each summed in ascending order
/// from zero as `iter().sum()` sums it, so every sum has its bits. The
/// gradients run four at a time, longest first, so that four independent
/// addition chains overlap instead of one running after another.
fn sums_of_squares(grads: &[Option<Matrix>]) -> Vec<f32> {
    let data: Vec<&[f32]> = grads
        .iter()
        .map(|g| g.as_ref().map_or(&[][..], Matrix::data))
        .collect();
    let mut by_length: Vec<usize> = (0..data.len()).collect();
    by_length.sort_by_key(|&i| std::cmp::Reverse(data[i].len()));
    let mut sums = vec![0.0f32; data.len()];
    for group in by_length.chunks(4) {
        let mut lanes: [&[f32]; 4] = [&[]; 4];
        for (lane, &i) in lanes.iter_mut().zip(group) {
            *lane = data[i];
        }
        let mut acc = [0.0f32; 4];
        for j in 0..lanes[0].len() {
            for (a, lane) in acc.iter_mut().zip(&lanes) {
                if let Some(&v) = lane.get(j) {
                    *a += v * v;
                }
            }
        }
        for (&a, &i) in acc.iter().zip(group) {
            sums[i] = a;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (x - 3)² from x = 0.
        let mut x = Matrix::scalar(0.0);
        let mut opt = Adam::new(&[&x], 0.1);
        let three = Matrix::scalar(3.0);
        for _ in 0..200 {
            let grads = {
                let mut t = Tape::new();
                let (xv, c) = (t.param(&x), t.input(&three));
                let d = t.sub(xv, c);
                let loss = t.hadamard(d, d);
                t.backward(loss);
                t.into_grads(&[&x])
            };
            opt.step(vec![&mut x], &grads);
        }
        assert!((x.item() - 3.0).abs() < 0.05, "x = {}", x.item());
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn clipping_bounds_update() {
        let mut x = Matrix::scalar(0.0);
        let mut opt = Adam::new(&[&x], 0.1).with_clip(Some(1e-3));
        let grads = {
            let mut t = Tape::new();
            let xv = t.param(&x);
            let loss = t.scale(xv, 1e6);
            t.backward(loss);
            t.into_grads(&[&x])
        };
        opt.step(vec![&mut x], &grads);
        // With tiny clip the first Adam step is still bounded by lr.
        assert!(x.item().abs() <= 0.11, "x = {}", x.item());
    }

    /// The clone-based Adam step `step` replaced: clone and scale each
    /// gradient, clone the value, update the copy and write it back.
    fn reference_step(
        params: &mut [Matrix],
        grads: &[Matrix],
        m: &mut [Matrix],
        v: &mut [Matrix],
        t: u64,
        lr: f32,
        clip: Option<f32>,
    ) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let scale = match clip {
            Some(clip) => {
                let total: f32 = grads
                    .iter()
                    .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
                    .sum::<f32>()
                    .sqrt();
                if total > clip {
                    clip / total
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bias1 = 1.0 - beta1.powi(t as i32);
        let bias2 = 1.0 - beta2.powi(t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            let g = grads[i].scale(scale);
            let mut value = p.clone();
            for (((mv, vv), gv), x) in m[i]
                .data_mut()
                .iter_mut()
                .zip(v[i].data_mut())
                .zip(g.data())
                .zip(value.data_mut())
            {
                *mv = beta1 * *mv + (1.0 - beta1) * gv;
                *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
                let m_hat = *mv / bias1;
                let v_hat = *vv / bias2;
                *x -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            *p = value;
        }
    }

    #[test]
    fn in_place_step_matches_clone_based_formula_bitwise() {
        let fill = |rows: usize, cols: usize, salt: usize| {
            let data = (0..rows * cols)
                .map(|i| ((i * 37 + salt) % 11) as f32 * 0.13 - 0.6)
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        // The third parameter is on no path to the loss: no gradient ever
        // reaches it, and both steps read that as an all-zero gradient.
        let params = || vec![fill(2, 3, 1), fill(3, 2, 5), fill(1, 4, 9), fill(1, 2, 3)];
        // The loss's gradients at `p`, one per parameter.
        let grads = |p: &[Matrix], k: f32| -> Vec<Option<Matrix>> {
            let mut t = Tape::new();
            let v: Vec<_> = p.iter().map(|m| t.param(m)).collect();
            let h = t.linear(v[0], v[1], v[3]);
            let h = t.tanh(h);
            let h = t.scale(h, k);
            let loss = t.sum(h);
            t.backward(loss);
            t.into_grads(&[&p[0], &p[1], &p[2], &p[3]])
        };
        let bits = |p: &Matrix| p.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Clip inactive, clip active on every step, and no clip.
        for clip in [Some(5.0), Some(1e-3), None] {
            let mut ours = params();
            let mut theirs = params();
            let refs: Vec<&Matrix> = ours.iter().collect();
            let mut opt = Adam::new(&refs, 0.05).with_clip(clip);
            let zeros = || -> Vec<Matrix> {
                let shapes = theirs.iter().map(Matrix::shape);
                shapes.map(|(r, c)| Matrix::zeros(r, c)).collect()
            };
            let (mut m, mut v) = (zeros(), zeros());
            for t in 1..=30u64 {
                let k = 1.0 + t as f32 * 0.5;
                let g = grads(&ours, k);
                assert!(g[2].is_none(), "the unused parameter got a gradient");
                opt.step(ours.iter_mut().collect(), &g);
                let g: Vec<Matrix> = grads(&theirs, k)
                    .into_iter()
                    .zip(&theirs)
                    .map(|(g, p)| g.unwrap_or_else(|| Matrix::zeros(p.rows(), p.cols())))
                    .collect();
                reference_step(&mut theirs, &g, &mut m, &mut v, t, 0.05, clip);
                for (a, b) in ours.iter().zip(&theirs) {
                    assert_eq!(bits(a), bits(b), "step {t}, clip {clip:?}");
                }
            }
        }
    }

    #[test]
    fn sums_of_squares_have_the_sequential_bits() {
        let fill = |n: usize, salt: u32| -> Option<Matrix> {
            let data = (0..n as u32)
                .map(|i| {
                    f32::from_bits(
                        0x3c00_0000 + (i.wrapping_mul(2_654_435_761) ^ salt) % 0x0400_0000,
                    )
                })
                .collect();
            Some(Matrix::from_vec(1, n, data))
        };
        let grads = vec![
            fill(7, 1),
            None,
            fill(300, 2),
            fill(1, 3),
            fill(64, 4),
            fill(299, 5),
        ];
        let sequential: Vec<f32> = grads
            .iter()
            .map(|g| {
                g.as_ref()
                    .map_or(0.0, |g| g.data().iter().map(|v| v * v).sum::<f32>())
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sums_of_squares(&grads)), bits(&sequential));
    }

    #[test]
    fn lr_adjustable() {
        let mut opt = Adam::new(&[&Matrix::scalar(0.0)], 0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }
}
