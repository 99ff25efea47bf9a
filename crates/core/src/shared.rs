//! The shared representation module (S): `Trans_Share`.
//!
//! Serving runs it over every node of the initial plan
//! ([`SharedModule::infer`]), and over the chosen plan for its root row
//! only ([`SharedModule::infer_rows`]); training runs the tape forward.

use crate::config::MtmlfConfig;
use crate::serialize::raw_width;
use mtmlf_nn::layers::{Linear, Module};
use mtmlf_nn::{Matrix, Tape, TransformerEncoder, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `Trans_Share`: projects raw node features to model width and runs the
/// shared transformer encoder. The output `(S_1, S_2, …)` has one row per
/// plan node, in one-to-one correspondence with the input `E(P)` (paper
/// Section 3.2 S). Trained jointly on all tasks; shared across databases
/// under meta-learning.
#[derive(Clone)]
pub struct SharedModule {
    input_proj: Linear,
    trans_share: TransformerEncoder,
}

impl SharedModule {
    /// Builds the module for a configuration.
    pub fn new(config: &MtmlfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5AA5);
        Self {
            input_proj: Linear::new(raw_width(config), config.d_model, &mut rng),
            trans_share: TransformerEncoder::new(
                config.d_model,
                config.heads,
                config.share_blocks,
                &mut rng,
            ),
        }
    }

    /// Computes the shared representation `(nodes, d_model)` from raw node
    /// features on the tape.
    pub fn forward<'p>(&'p self, t: &mut Tape<'p>, features: &'p Matrix) -> Var {
        let x = t.input(features);
        let projected = self.input_proj.forward(t, x);
        self.trans_share.forward(t, projected)
    }

    /// Inference forward of one plan's raw features: the shared
    /// representation [`SharedModule::forward`] computes, from plain values,
    /// with no tape built ([`TransformerEncoder::forward_packed`]).
    pub fn infer(&self, features: &Matrix) -> Matrix {
        self.trans_share
            .forward_packed(self.input_proj.infer(features))
    }

    /// The rows `rows` of [`SharedModule::infer`], bitwise, for a caller
    /// that reads only those (the heads on a plan's root, the advisor on
    /// its scan nodes): the last encoder block and the final norm run on
    /// the asked-for rows only ([`TransformerEncoder::forward_rows`]).
    pub fn infer_rows(&self, features: &Matrix, rows: &[usize]) -> Matrix {
        self.trans_share
            .forward_rows(self.input_proj.infer(features), rows)
    }
}

impl Module for SharedModule {
    mtmlf_nn::module_parameters!(input_proj, trans_share);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_infer_match() {
        let cfg = MtmlfConfig::tiny();
        let module = SharedModule::new(&cfg);
        let features = Matrix::full(7, raw_width(&cfg), -0.1);
        let mut t = Tape::new();
        let s = module.forward(&mut t, &features);
        assert_eq!(t.shape(s), (7, cfg.d_model));
        assert_eq!(&module.infer(&features), t.value(s));
        assert_eq!(
            module.infer_rows(&features, &[6, 2]),
            t.value(s).gather_rows(&[6, 2])
        );
    }
}
