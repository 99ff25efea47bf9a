//! `Trans_JO` (T.iii): the join-order decoder.
//!
//! The join-order selection task is a seq2seq problem (paper Section 4.2):
//! `Trans_Share` is the encoder, `Trans_JO` a transformer decoder. At step
//! `t` the decoder consumes the representation of the table chosen at
//! `t − 1` (teacher-forced during training) and emits `P̂_t`, a
//! distribution over the query's candidate tables.
//!
//! `P̂_t` is computed with a *pointer* layer: the decoder state is dotted
//! with a learned projection of each candidate table's shared
//! representation. On one database this is exactly the paper's multinoulli
//! over tables; across databases it is size-agnostic, which the MLA
//! experiment requires (see crate docs).

use crate::config::MtmlfConfig;
use mtmlf_nn::layers::{Linear, Module};
use mtmlf_nn::{KvCache, Matrix, Tape, TransformerDecoder, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-query state computed once and reused across every decode step of a
/// beam: the two linear projections of the table representations
/// (`pointer` keys and `input_proj` rows) that [`TransJo::step_logits`]
/// recomputes at every call, and the decoder's per-block cross-attention
/// keys and values of the encoder memory. Each row of `keys`/`proj`/
/// `memory_kv` is bitwise-identical to the corresponding one-row forward
/// because all three are row-wise matmuls with fixed ascending-k
/// accumulation.
#[derive(Clone)]
pub struct DecodeCache {
    /// Pointer keys: `pointer(table_reps)`, `(m, d_model)`, computed once.
    keys: Matrix,
    /// Projected decoder inputs: `input_proj(table_reps)`, once.
    proj: Matrix,
    /// Cross-attention K/V of the memory, per decoder block, once.
    memory_kv: KvCache,
}

impl DecodeCache {
    /// Number of candidate tables (pointer-logit width).
    pub fn tables(&self) -> usize {
        self.keys.rows()
    }
}

/// One live prefix of a query, as [`TransJo::step_logits_batch`] scores
/// it.
#[derive(Clone, Copy)]
pub struct StepEntry<'a> {
    /// Slots chosen so far.
    pub prefix: &'a [usize],
    /// Self-attention keys and values of the prefix's `prefix.len()`
    /// earlier decoder rows: the cache that the step which decoded its
    /// parent returned, or the default (empty) cache for the empty
    /// prefix.
    pub past: &'a KvCache,
}

/// The join-order decoder.
#[derive(Clone)]
pub struct TransJo {
    decoder: TransformerDecoder,
    /// Learned start-of-sequence token.
    start: Matrix,
    /// Projects the chosen table's representation into the decoder input.
    input_proj: Linear,
    /// Projects table representations into pointer keys.
    pointer: Linear,
    /// Step positional embeddings (max_query_tables, d_model).
    step_pos: Matrix,
    /// Bushy mode: per-table logits over the complete-binary-tree leaf
    /// positions of the Section 4.1 codec (trained with KL divergence
    /// against the decoding embeddings).
    position_head: Linear,
    /// Width of the position head (codec dimension).
    positions: usize,
}

impl TransJo {
    /// Builds the decoder.
    pub fn new(config: &MtmlfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x70A0);
        let positions = crate::config::codec_positions(config);
        Self {
            decoder: TransformerDecoder::new(
                config.d_model,
                config.heads,
                config.jo_blocks,
                &mut rng,
            ),
            start: Matrix::xavier(1, config.d_model, &mut rng),
            input_proj: Linear::new(config.d_model, config.d_model, &mut rng),
            pointer: Linear::new(config.d_model, config.d_model, &mut rng),
            step_pos: Matrix::xavier(config.max_query_tables + 1, config.d_model, &mut rng),
            position_head: Linear::new(config.d_model, positions, &mut rng),
            positions,
        }
    }

    /// Width of the bushy position head (codec dimension).
    pub fn position_width(&self) -> usize {
        self.positions
    }

    /// Bushy mode (Section 4.1/4.2): per-table logits over the complete
    /// binary tree's leaf positions. The decoder runs one step per query
    /// table (slot order) — the input sequence is the tables' own
    /// representations, so no teacher forcing is needed — and the position
    /// head maps each step's state to `P̂_t` over the codec positions.
    /// Returns `(m, positions)` logits.
    pub fn position_logits<'p>(&'p self, t: &mut Tape<'p>, memory: Var, table_reps: Var) -> Var {
        let m = t.shape(table_reps).0;
        let projected = self.input_proj.forward(t, table_reps);
        let step_pos = t.param(&self.step_pos);
        let positions = t.slice_rows(step_pos, 0, m);
        let x = t.add(projected, positions);
        let decoded = self.decoder.forward(t, x, memory);
        self.position_head.forward(t, decoded)
    }

    /// Inference [`Self::position_logits`] on plain values, bitwise-equal
    /// to it: the decoder runs one incremental step per table
    /// ([`TransformerDecoder::forward_step`]), whose row equals that row
    /// of the causal full-sequence forward, and the heads are row-local.
    pub fn infer_position_logits(&self, memory: &Matrix, table_reps: &Matrix) -> Matrix {
        let mut x = self.input_proj.infer(table_reps);
        for r in 0..x.rows() {
            for (o, &p) in x.row_mut(r).iter_mut().zip(self.step_pos.row(r)) {
                *o += p;
            }
        }
        let memory_kv = self.decoder.memory_kv(memory);
        let mut past = KvCache::default();
        let mut next = Vec::with_capacity(1);
        let mut decoded = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row =
                self.decoder
                    .forward_step(x.slice_rows(r, r + 1), |_| &past, &memory_kv, &mut next);
            decoded.row_mut(r).copy_from_slice(row.row(0));
            past = next.pop().unwrap_or_default();
        }
        self.position_head.infer(&decoded)
    }

    /// Computes step logits on the tape given a (possibly empty) prefix of
    /// chosen table slots.
    ///
    /// - `memory`: the full shared representation `(nodes, d_model)`;
    /// - `table_reps`: the `(m, d_model)` rows of the query tables' scan
    ///   nodes, in slot order;
    /// - `prefix`: slots chosen so far (teacher-forced during training).
    ///
    /// Returns `(prefix.len() + 1, m)` logits: row `t` is `P̂_t` (before
    /// softmax) — the distribution over which table to join at step `t`
    /// given the prefix's first `t` choices.
    pub fn step_logits<'p>(
        &'p self,
        t: &mut Tape<'p>,
        memory: Var,
        table_reps: Var,
        prefix: &[usize],
    ) -> Var {
        let steps = prefix.len() + 1;
        // Decoder input: start token followed by the chosen tables'
        // projected representations, plus step positions.
        let mut inputs = Vec::with_capacity(steps);
        inputs.push(t.param(&self.start));
        for &slot in prefix {
            let rep = t.slice_rows(table_reps, slot, slot + 1);
            inputs.push(self.input_proj.forward(t, rep));
        }
        let x = t.concat_rows(&inputs);
        let step_pos = t.param(&self.step_pos);
        let positions = t.slice_rows(step_pos, 0, steps);
        let x = t.add(x, positions);
        let decoded = self.decoder.forward(t, x, memory);
        // Pointer logits: decoded (steps, d) × keys (m, d)ᵀ → (steps, m).
        let keys = self.pointer.forward(t, table_reps);
        t.matmul_nt(decoded, keys)
    }

    /// Teacher-forced logits for a full target sequence: returns
    /// `(m, m)` logits where row `t` predicts `target[t]`.
    pub fn teacher_forced_logits<'p>(
        &'p self,
        t: &mut Tape<'p>,
        memory: Var,
        table_reps: Var,
        target: &[usize],
    ) -> Var {
        debug_assert!(!target.is_empty());
        let prefix = &target[..target.len() - 1];
        self.step_logits(t, memory, table_reps, prefix)
    }

    /// Builds the per-query decode cache from the shared representation
    /// `memory` and the query tables' `(m, d_model)` scan-node rows
    /// `table_reps`: the pointer keys, the projected decoder inputs and the
    /// memory's cross-attention keys and values, computed once instead of
    /// once per beam step.
    pub fn decode_cache(&self, memory: &Matrix, table_reps: &Matrix) -> DecodeCache {
        let [keys, proj] = Linear::infer_each(table_reps, [&self.pointer, &self.input_proj]);
        DecodeCache {
            keys,
            proj,
            memory_kv: self.decoder.memory_kv(memory),
        }
    }

    /// Incremental step logits: decodes only the *newest* row of every
    /// live prefix of one query, in one inference step
    /// ([`TransformerDecoder::forward_step`]).
    ///
    /// Entry `e`'s new decoder input row is `(start | proj[last slot]) +
    /// step_pos[prefix.len()]`; it attends over `e.past` plus itself and
    /// over the query's memory keys and values in `cache`. Returns a matrix
    /// whose row `r` holds entry `r`'s *next-step* pointer logits
    /// (bitwise-identical to row `prefix.len()` of [`TransJo::step_logits`])
    /// and, per entry, `past` extended by the new row: the cache the
    /// entry's extensions pass as their `past` at the next step.
    pub fn step_logits_batch(
        &self,
        cache: &DecodeCache,
        entries: &[StepEntry<'_>],
    ) -> (Matrix, Vec<KvCache>) {
        let mut next = Vec::with_capacity(entries.len());
        let logits = self.step_logits_into(cache, entries.len(), |r| entries[r], &mut next);
        (logits, next)
    }

    /// [`Self::step_logits_batch`] over the `n` entries `entry(0..n)`,
    /// leaving the extended caches in `next`, whose handles it reuses: the
    /// form the beam calls at every step, so that a step builds no entry
    /// list and no cache list of its own.
    // lint: hot-path
    pub fn step_logits_into<'a>(
        &self,
        cache: &DecodeCache,
        n: usize,
        entry: impl Fn(usize) -> StepEntry<'a>,
        next: &mut Vec<KvCache>,
    ) -> Matrix {
        if n == 0 {
            next.clear();
            return Matrix::zeros(0, cache.tables());
        }
        // One new input row per entry, written in place: the same
        // element-wise sums the per-sequence concat-and-add formulation
        // produces for the prefix's last row.
        let (start, pos) = (&self.start, &self.step_pos);
        let mut xm = Matrix::zeros(n, start.cols());
        for r in 0..n {
            let e = entry(r);
            debug_assert_eq!(e.past.len(), e.prefix.len());
            let src = match e.prefix.last() {
                Some(&slot) => cache.proj.row(slot),
                None => start.row(0),
            };
            for ((o, &a), &b) in xm
                .row_mut(r)
                .iter_mut()
                .zip(src)
                .zip(pos.row(e.prefix.len()))
            {
                *o = a + b;
            }
        }
        let decoded = self
            .decoder
            .forward_step(xm, |r| entry(r).past, &cache.memory_kv, next);
        // Point every decoded row at the query's keys: one `(n, d) × (m, d)ᵀ`
        // product.
        decoded.matmul_nt(&cache.keys)
    }
}

impl Module for TransJo {
    mtmlf_nn::module_parameters!(decoder, start, input_proj, pointer, step_pos, position_head);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_nn::loss::cross_entropy_rows;
    use mtmlf_nn::Adam;

    fn setup(cfg: &MtmlfConfig) -> (TransJo, Matrix, Matrix) {
        let jo = TransJo::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let memory = Matrix::xavier(7, cfg.d_model, &mut rng);
        let table_reps = Matrix::xavier(4, cfg.d_model, &mut rng);
        (jo, memory, table_reps)
    }

    /// [`TransJo::step_logits`]'s value on a fresh tape.
    fn step_logits(jo: &TransJo, memory: &Matrix, reps: &Matrix, prefix: &[usize]) -> Matrix {
        let mut t = Tape::new();
        let (m, r) = (t.input(memory), t.input(reps));
        let logits = jo.step_logits(&mut t, m, r, prefix);
        t.value(logits).clone()
    }

    #[test]
    fn logits_shapes() {
        let cfg = MtmlfConfig::tiny();
        let (jo, memory, reps) = setup(&cfg);
        assert_eq!(step_logits(&jo, &memory, &reps, &[]).shape(), (1, 4));
        assert_eq!(step_logits(&jo, &memory, &reps, &[2, 0]).shape(), (3, 4));
        let mut t = Tape::new();
        let (m, r) = (t.input(&memory), t.input(&reps));
        let logits = jo.teacher_forced_logits(&mut t, m, r, &[1, 3, 0, 2]);
        assert_eq!(t.shape(logits), (4, 4));
    }

    #[test]
    fn prefix_extension_is_consistent() {
        // Causality: logits for step t must not change when the prefix is
        // extended beyond t.
        let cfg = MtmlfConfig::tiny();
        let (jo, memory, reps) = setup(&cfg);
        let short = step_logits(&jo, &memory, &reps, &[1]);
        let long = step_logits(&jo, &memory, &reps, &[1, 2, 3]);
        for c in 0..4 {
            assert!((short.get(0, c) - long.get(0, c)).abs() < 1e-4);
            assert!((short.get(1, c) - long.get(1, c)).abs() < 1e-4);
        }
    }

    #[test]
    fn learns_a_fixed_order() {
        // The decoder can overfit one target order via teacher forcing.
        let cfg = MtmlfConfig::tiny();
        let (mut jo, memory, reps) = setup(&cfg);
        let target = [2usize, 0, 3, 1];
        let mut opt = Adam::new(&jo.parameters(), 5e-3);
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            let grads = {
                let mut t = Tape::new();
                let (m, r) = (t.input(&memory), t.input(&reps));
                let logits = jo.teacher_forced_logits(&mut t, m, r, &target);
                let loss = cross_entropy_rows(&mut t, logits, &target);
                t.backward(loss);
                last = t.item(loss);
                t.into_grads(&jo.parameters())
            };
            opt.step(jo.parameters_mut(), &grads);
        }
        assert!(last < 0.1, "final CE {last}");
        // Greedy decode reproduces the target.
        let mut prefix: Vec<usize> = Vec::new();
        for t in 0..4 {
            let logits = step_logits(&jo, &memory, &reps, &prefix);
            let row = logits.row(t);
            let best = (0..4)
                .filter(|s| !prefix.contains(s))
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .unwrap();
            prefix.push(best);
        }
        assert_eq!(prefix, target);
    }

    #[test]
    fn incremental_step_logits_match_sequential_bitwise() {
        // Prefixes of each of two queries decoded step by step, each step's
        // new rows scored together: every row must reproduce the per-prefix
        // sequential logits bit for bit.
        let cfg = MtmlfConfig::tiny();
        let jo = TransJo::new(&cfg);
        let mut rng = StdRng::seed_from_u64(31);
        let queries: [(usize, usize, &[&[usize]]); 2] =
            [(7, 4, &[&[], &[1, 3], &[2]]), (5, 3, &[&[2], &[0, 2]])];
        for (nodes, m, prefixes) in queries {
            let memory = Matrix::xavier(nodes, cfg.d_model, &mut rng);
            let reps = Matrix::xavier(m, cfg.d_model, &mut rng);
            let cache = jo.decode_cache(&memory, &reps);
            let mut past = vec![KvCache::default(); prefixes.len()];
            for t in 0..=2 {
                let live: Vec<usize> = (0..prefixes.len())
                    .filter(|&i| prefixes[i].len() >= t)
                    .collect();
                let entries: Vec<StepEntry> = live
                    .iter()
                    .map(|&i| StepEntry {
                        prefix: &prefixes[i][..t],
                        past: &past[i],
                    })
                    .collect();
                let (logits, next) = jo.step_logits_batch(&cache, &entries);
                assert_eq!(logits.shape(), (live.len(), m));
                for (row, (&i, kv)) in live.iter().zip(next).enumerate() {
                    let prefix = &prefixes[i][..t];
                    let seq = step_logits(&jo, &memory, &reps, prefix);
                    assert_eq!(logits.row(row), seq.row(t), "prefix {prefix:?}");
                    past[i] = kv;
                }
            }
            // No live entry: an empty logits block.
            let (logits, next) = jo.step_logits_batch(&cache, &[]);
            assert_eq!(logits.shape(), (0, m));
            assert!(next.is_empty());
        }
    }
}
