//! # mtmlf-nn
//!
//! A from-scratch neural-network stack for the MTMLF reproduction: the
//! paper trains transformer encoders (per-table `Enc_i`, `Trans_Share`), a
//! transformer decoder (`Trans_JO`), MLP heads, and a Tree-LSTM baseline —
//! all of which this crate supports on CPU with `f32` dense matrices and
//! reverse-mode (tape) automatic differentiation.
//!
//! Everything is deterministic: weight initialization takes an explicit
//! RNG, and no global state affects results.
//!
//! Layout conventions:
//! - All tensors are 2-D [`Matrix`] values, row-major.
//! - A sequence is a `(seq_len, d_model)` matrix; training batches by
//!   iterating samples and accumulating gradients (sequence lengths vary
//!   per query).
//!
//! Training runs on a flat tape: [`Tape`] records each operator over the
//! `u32` indices ([`Var`]) of its inputs, [`Tape::backward`] is one reverse
//! pass over the recorded ops, and [`optim::Adam`] updates the parameters
//! in place. Parameters are plain [`Matrix`] values owned by the layers
//! ([`Module::parameters`]); a tape borrows the ones it reads, and the
//! optimizer takes them `&mut` once the tape is dropped. Inference never
//! builds a tape. Every layer has an `infer` forward over plain [`Matrix`]
//! values next to its tape `forward`, evaluating the same kernels in the
//! same order, so the two agree bit for bit; the packed encoder
//! ([`TransformerEncoder::forward_packed`]) and the incremental decoder
//! ([`TransformerDecoder::forward_step`]) are built from them. A trained
//! model is read-only, so it serves from many threads at once with no
//! lock. [`OpStats::tape_nodes`] counts the nodes recorded, which is 0 on
//! the inference paths.

#![forbid(unsafe_code)]

pub mod attention;
pub mod autograd;
pub mod kernel;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod profile;
pub mod serialize;
pub mod transformer;

pub use attention::MultiHeadAttention;
pub use autograd::{Tape, Var};
pub use layers::{FeedForward, LayerNorm, Linear, Mlp, Module};
pub use matrix::Matrix;
pub use optim::Adam;
pub use profile::{OpStats, ProfileGuard};
pub use transformer::{
    DecoderBlock, EncoderBlock, KvCache, TransformerDecoder, TransformerEncoder,
};
