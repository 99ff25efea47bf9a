//! Property suite pinning the incremental-decode equivalence contract.
//!
//! There is one decode path: every beam step decodes only the newest row
//! of each live prefix, against the keys and values cached for its earlier
//! rows. The suite pins it against the per-sequence training forward,
//! *bitwise*:
//!
//! 1. **Incremental step == training step** — random live-prefix sets are
//!    decoded step by step, and at every step each row of
//!    [`TransJo::step_logits_batch`] equals row `t` of
//!    [`TransJo::step_logits`] over the prefix's first `t` slots, computed
//!    on the training tape, for every width × topology × legality
//!    combination.
//! 2. **Beam == per-sequence reference beam** — a reference beam that
//!    decodes *every* step, the forced last one included, with
//!    [`TransJo::step_logits`] over each whole prefix keeps exactly the
//!    candidate slot sequences [`beam_search`] returns. (Their last-step
//!    log-probabilities may differ in the last bits: the reference adds
//!    the log-softmax of a single allowed table, `(lp + v) − v`, where the
//!    beam adds its exact value, 0.)
//! 3. **Bushy decode reads the training forward's logits** — the
//!    position-head logits the bushy decode scores are the training tape's
//!    [`TransJo::position_logits`], bit for bit.
//!
//! Equality is `assert_eq!` on logit rows and candidate vectors, which
//! compares `f32` values exactly — any reassociation or re-accumulation in
//! the incremental path fails the suite.

use mtmlf::beam::{beam_search, beam_search_bushy, BeamConfig, Legality};
use mtmlf::config::MtmlfConfig;
use mtmlf::transjo::{StepEntry, TransJo};
use mtmlf_nn::{KvCache, Matrix, Tape};
use mtmlf_query::JoinGraph;
use mtmlf_storage::TableId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three join-graph topologies the suite sweeps: a chain (each table
/// joins the next), a star (every table joins a hub), and a clique (every
/// pair joins — legality never prunes).
fn graph(topology: u8, m: usize) -> JoinGraph {
    let vertices = (0..m as u32).map(TableId).collect();
    let edges: Vec<(usize, usize)> = match topology % 3 {
        0 => (0..m - 1).map(|i| (i, i + 1)).collect(),
        1 => (1..m).map(|i| (0, i)).collect(),
        _ => (0..m)
            .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
            .collect(),
    };
    JoinGraph::from_edges(vertices, &edges).expect("valid join graph")
}

/// A decoder plus random-but-seeded encoder memory and table reps for an
/// `m`-table query. The model is untrained — equivalence is a property of
/// the computation, not the weights.
fn setup(seed: u64, m: usize) -> (TransJo, Matrix, Matrix) {
    let cfg = MtmlfConfig::tiny();
    let jo = TransJo::new(&cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let memory = Matrix::xavier(2 * m - 1, cfg.d_model, &mut rng);
    let table_reps = Matrix::xavier(m, cfg.d_model, &mut rng);
    (jo, memory, table_reps)
}

/// The training forward's step logits over `prefix`, on a fresh tape.
fn training_step_logits(
    jo: &TransJo,
    memory: &Matrix,
    table_reps: &Matrix,
    prefix: &[usize],
) -> Matrix {
    let mut t = Tape::new();
    let (mv, rv) = (t.input(memory), t.input(table_reps));
    let logits = jo.step_logits(&mut t, mv, rv, prefix);
    t.value(logits).clone()
}

/// `width` random live prefixes over `g` (duplicates allowed), each of a
/// random length below `g.len()`: constrained prefixes only ever extend
/// the join frontier, unconstrained ones take any unchosen table.
fn live_prefixes(
    rng: &mut StdRng,
    g: &JoinGraph,
    width: usize,
    constrained: bool,
) -> Vec<Vec<usize>> {
    (0..width)
        .map(|_| {
            let len = rng.gen_range(0..g.len());
            let mut prefix: Vec<usize> = Vec::with_capacity(len);
            let mut chosen = 0u64;
            while prefix.len() < len {
                let allowed: Vec<usize> = (0..g.len())
                    .filter(|&s| chosen & (1 << s) == 0)
                    .filter(|&s| !constrained || g.frontier(chosen) & (1 << s) != 0)
                    .collect();
                let slot = allowed[rng.gen_range(0..allowed.len())];
                chosen |= 1 << slot;
                prefix.push(slot);
            }
            prefix
        })
        .collect()
}

/// The reference beam of property 3: every step, the forced last one
/// included, decodes each live prefix with the per-sequence training
/// forward, log-softmaxes its row over the allowed tables, and keeps the
/// top `width` by stable sort. Returns the full-length candidates' slot
/// sequences and log-probabilities, best first.
fn reference_beam(
    jo: &TransJo,
    memory: &Matrix,
    table_reps: &Matrix,
    g: &JoinGraph,
    config: &BeamConfig,
) -> Vec<(Vec<usize>, f32)> {
    let m = g.len();
    let mut beams: Vec<(Vec<usize>, f32)> = vec![(Vec::new(), 0.0)];
    for t in 0..m {
        let mut next = Vec::new();
        for (prefix, lp) in &beams {
            let logits = training_step_logits(jo, memory, table_reps, prefix);
            let row = logits.row(t);
            let chosen = prefix.iter().fold(0u64, |b, &s| b | (1 << s));
            let allowed: Vec<usize> = (0..m)
                .filter(|&s| chosen & (1 << s) == 0)
                .filter(|&s| {
                    config.legality == Legality::Unconstrained || g.frontier(chosen) & (1 << s) != 0
                })
                .collect();
            if allowed.is_empty() {
                continue;
            }
            let max = allowed
                .iter()
                .map(|&s| row[s])
                .fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = allowed.iter().map(|&s| (row[s] - max).exp()).sum();
            let lse = max + sum.ln();
            for &s in &allowed {
                let mut extended = prefix.clone();
                extended.push(s);
                next.push((extended, lp + row[s] - lse));
            }
        }
        next.sort_by(|a, b| b.1.total_cmp(&a.1));
        next.truncate(config.width.max(1));
        beams = next;
    }
    beams.retain(|(slots, _)| slots.len() == m);
    beams
}

fn beam_config(width_sel: u8, constrained: bool) -> BeamConfig {
    let config = BeamConfig::new([1, 2, 4, 8][width_sel as usize % 4]);
    if constrained {
        config.constrained()
    } else {
        config.unconstrained()
    }
}

/// Each row of the packed incremental step equals the training forward's row
/// for that prefix at every step, across widths {1,2,4,8} ×
/// {chain,star,clique} × {constrained,unconstrained} live-prefix sets.
#[test]
fn packed_step_is_bitwise_training_step() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model_seed, m) = (rng.gen_range(0u64..1_000), rng.gen_range(2usize..=6));
        let (width_sel, topology) = (rng.gen_range(0u8..4), rng.gen_range(0u8..3));
        let constrained = rng.gen_range(0u8..2) == 0;
        let (jo, memory, table_reps) = setup(model_seed, m);
        let g = graph(topology, m);
        let width = beam_config(width_sel, constrained).width;
        let mut rng = StdRng::seed_from_u64(model_seed ^ 0x5EED);
        let prefixes = live_prefixes(&mut rng, &g, width, constrained);

        let cache = jo.decode_cache(&memory, &table_reps);
        let mut past = vec![KvCache::default(); prefixes.len()];
        let longest = prefixes.iter().map(Vec::len).max().unwrap_or(0);
        for t in 0..=longest {
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
            for (row, (&i, kv)) in live.iter().zip(next).enumerate() {
                let prefix = &prefixes[i][..t];
                let training = training_step_logits(&jo, &memory, &table_reps, prefix);
                assert_eq!(
                    logits.row(row),
                    training.row(t),
                    "seed {seed}: prefix {prefix:?} diverged"
                );
                past[i] = kv;
            }
        }
    }
}

/// The beam keeps exactly the candidate slot sequences of a reference
/// beam that decodes every step with the per-sequence forward, across
/// widths × topologies × legality modes, with log-probabilities equal
/// up to the reference's last-step rounding residue.
#[test]
fn beam_candidates_match_a_per_sequence_reference() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model_seed, m) = (rng.gen_range(0u64..1_000), rng.gen_range(1usize..=6));
        let (width_sel, topology) = (rng.gen_range(0u8..4), rng.gen_range(0u8..3));
        let constrained = rng.gen_range(0u8..2) == 0;
        let (jo, memory, table_reps) = setup(model_seed, m);
        let g = graph(topology, m);
        let config = beam_config(width_sel, constrained);
        let beam = beam_search(&jo, &memory, &table_reps, &g, &config);
        let reference = reference_beam(&jo, &memory, &table_reps, &g, &config);
        let mut got: Vec<&Vec<usize>> = beam.iter().map(|c| &c.slots).collect();
        let mut want: Vec<&Vec<usize>> = reference.iter().map(|(slots, _)| slots).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "seed {seed}: candidate slot sets differ");
        for c in &beam {
            let (_, lp) = reference
                .iter()
                .find(|(slots, _)| *slots == c.slots)
                .expect("slot sets are equal");
            assert!(
                (c.log_prob - lp).abs() <= 1e-5 * (1.0 + lp.abs()),
                "seed {seed}: {:?}: {} vs {lp}",
                c.slots,
                c.log_prob
            );
        }
    }
}

/// Bushy decoding scores the training forward's position logits: the
/// inference forward it runs equals the tape's, bit for bit.
#[test]
fn bushy_decode_reads_the_training_position_logits() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model_seed, m) = (rng.gen_range(0u64..1_000), rng.gen_range(2usize..=5));
        let (jo, memory, table_reps) = setup(model_seed, m);
        let mut t = Tape::new();
        let (mv, rv) = (t.input(&memory), t.input(&table_reps));
        let logits = jo.position_logits(&mut t, mv, rv);
        let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&jo.infer_position_logits(&memory, &table_reps)),
            bits(t.value(logits)),
            "seed {seed}: bushy inference != training forward"
        );
        let (width_sel, topology) = (rng.gen_range(0u8..4), rng.gen_range(0u8..3));
        let config = beam_config(width_sel, true).bushy();
        let out = beam_search_bushy(&jo, &memory, &table_reps, &graph(topology, m), &config);
        assert!(out.len() <= config.width.max(1), "seed {seed}");
    }
}
