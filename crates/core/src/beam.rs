//! Legality-pruned beam search over join orders (paper Section 4.3).
//!
//! The query's join-graph adjacency matrix restricts candidates at every
//! step to tables joinable with the already-joined prefix (the paper's
//! "pruning strategy based on beam search ... we only choose candidates
//! from tables having join key with current joined table"), so every
//! emitted order is executable. An *unconstrained* mode searches the
//! model's raw preferences and marks each candidate's legality — the
//! candidate source for the sequence-level loss of Section 5, whose `λ`
//! term penalizes illegal mass.
//!
//! There is one left-deep decode path, and it is incremental: every step
//! decodes only the newest row of each of the query's live prefixes in one
//! decoder step ([`TransJo::step_logits_into`]). Each prefix carries the
//! self-attention keys and values of its earlier rows, and a surviving
//! extension inherits its parent's; the query's memory keys and values are
//! computed once ([`DecodeCache`]). The last
//! step is forced — every live prefix has exactly one table left — so it
//! is not decoded at all: the log-softmax over one allowed table is
//! exactly 0. Decoding runs on plain [`Matrix`] values and builds no
//! autograd tape; candidates come back as plain `f32` scores.
//!
//! Bushy decoding ([`beam_search_bushy`]) scores every table in one
//! position-head forward ([`TransJo::infer_position_logits`]), also on
//! plain values.

use crate::transjo::{DecodeCache, StepEntry, TransJo};
use mtmlf_nn::{KvCache, Matrix};
use mtmlf_query::JoinGraph;

/// Which candidate extensions a beam step may propose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Legality {
    /// Only frontier tables (joinable with the prefix) — every emitted
    /// order is executable.
    Constrained,
    /// The model's raw preferences; legality is recorded per candidate
    /// (the candidate source for the Section 5 sequence-level loss).
    Unconstrained,
}

/// The plan space the decoder searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeShape {
    /// Left-deep join orders (pointer decoding, Section 4.3).
    LeftDeep,
    /// Bushy trees via the Section 4.1 codec's position head.
    Bushy,
}

/// How a beam search is decoded: its width, legality pruning, and plan
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamConfig {
    /// Beam width (≥ 1).
    pub width: usize,
    /// Extension pruning mode.
    pub legality: Legality,
    /// Searched plan shape.
    pub shape: TreeShape,
}

impl Default for BeamConfig {
    fn default() -> Self {
        Self::new(8)
    }
}

impl BeamConfig {
    /// Constrained, left-deep decoding at `width`.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            legality: Legality::Constrained,
            shape: TreeShape::LeftDeep,
        }
    }

    /// Sets the beam width.
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Only propose executable extensions.
    pub fn constrained(mut self) -> Self {
        self.legality = Legality::Constrained;
        self
    }

    /// Keep the model's raw top-k and record legality per candidate.
    pub fn unconstrained(mut self) -> Self {
        self.legality = Legality::Unconstrained;
        self
    }

    /// Search left-deep join orders.
    pub fn left_deep(mut self) -> Self {
        self.shape = TreeShape::LeftDeep;
        self
    }

    /// Search bushy join trees.
    pub fn bushy(mut self) -> Self {
        self.shape = TreeShape::Bushy;
        self
    }
}

/// One beam-search candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamCandidate {
    /// Chosen table slots, in join order.
    pub slots: Vec<usize>,
    /// Cumulative log-probability under the model.
    pub log_prob: f32,
    /// Whether the order is executable under the join graph.
    pub legal: bool,
}

/// One proposed extension of a live prefix: `beams[parent]` extended by
/// `slot`. Candidates stay `Copy` so a beam step never clones prefix
/// vectors — only the `width` survivors of the sort are materialized.
#[derive(Clone, Copy)]
struct Extension {
    parent: u32,
    slot: u32,
    log_prob: f32,
}

/// Slots `prefix` has chosen, as a bitset.
fn chosen_set(prefix: &[usize]) -> u64 {
    prefix.iter().fold(0, |b, &s| b | (1 << s))
}

/// The slots (a bitset) that may extend a prefix that has chosen `chosen`:
/// the unchosen ones, and under [`Legality::Constrained`] only those on
/// the join graph's frontier.
fn allowed_slots(graph: &JoinGraph, chosen: u64, legality: Legality) -> u64 {
    match legality {
        Legality::Unconstrained => !chosen,
        Legality::Constrained => !chosen & graph.frontier(chosen),
    }
}

/// Proposes every allowed extension of one live prefix, renormalizing the
/// step's probability mass over the available tables. Candidate order —
/// ascending slot within a prefix, prefixes in beam order — is part of the
/// determinism contract: the final stable sort breaks ties by this
/// insertion order.
// lint: hot-path
fn extend_prefix(
    row: &[f32],
    prefix: &[usize],
    parent: u32,
    log_prob: f32,
    graph: &JoinGraph,
    legality: Legality,
    next: &mut Vec<Extension>,
) {
    let m = graph.len();
    let allowed_slots = allowed_slots(graph, chosen_set(prefix), legality);
    let allowed = |s: usize| allowed_slots & (1 << s) != 0;
    // Log-softmax over the available tables, accumulated in ascending slot
    // order.
    let mut max = f32::NEG_INFINITY;
    for (s, &v) in row.iter().enumerate().take(m) {
        if allowed(s) {
            max = max.max(v);
        }
    }
    if max == f32::NEG_INFINITY {
        return; // no available extension
    }
    let mut sum = 0.0f32;
    for (s, &v) in row.iter().enumerate().take(m) {
        if allowed(s) {
            sum += (v - max).exp();
        }
    }
    let lse = max + sum.ln();
    for (s, &v) in row.iter().enumerate().take(m) {
        if allowed(s) {
            next.push(Extension {
                parent,
                slot: s as u32,
                log_prob: log_prob + v - lse,
            });
        }
    }
}

/// One live prefix: its cumulative log-probability and the index (into
/// [`BeamState::kv`]) of the self-attention cache its newest decoder row
/// attends over — its parent's, inherited when it survived. Its slots are
/// [`BeamState::prefix`].
#[derive(Clone, Copy)]
struct Beam {
    log_prob: f32,
    past: usize,
}

/// The beam of one query: its live prefixes and their caches. The beam is
/// over once no prefix is live.
///
/// Every buffer is kept for the whole search: a step writes its survivors
/// and its extended caches into the `next_*` buffers and swaps them in, so
/// once the buffers have grown to the beam's width a step makes no heap
/// allocation.
struct BeamState<'a> {
    graph: &'a JoinGraph,
    /// Live prefixes, in beam order.
    beams: Vec<Beam>,
    /// Their slots, flat: every live prefix has chosen `len` slots.
    slots: Vec<usize>,
    len: usize,
    /// The previous step's extended caches, one per then-live prefix
    /// (only the empty cache before the first step).
    kv: Vec<KvCache>,
    /// Extension scratch.
    next: Vec<Extension>,
    /// The survivors and the step's extended caches, before the swap.
    next_beams: Vec<Beam>,
    next_slots: Vec<usize>,
    next_kv: Vec<KvCache>,
}

impl<'a> BeamState<'a> {
    fn new(graph: &'a JoinGraph, width: usize) -> Self {
        let m = graph.len();
        let mut kv = Vec::with_capacity(width);
        kv.push(KvCache::default());
        let mut beams = Vec::with_capacity(width);
        beams.push(Beam {
            log_prob: 0.0,
            past: 0,
        });
        Self {
            graph,
            beams,
            slots: Vec::with_capacity(width * m),
            len: 0,
            kv,
            next: Vec::with_capacity(width * m),
            next_beams: Vec::with_capacity(width),
            next_slots: Vec::with_capacity(width * m),
            next_kv: Vec::with_capacity(width),
        }
    }

    /// Slots of prefix `i`, as laid out in `slots` by `len`.
    fn prefix(slots: &[usize], len: usize, i: usize) -> &[usize] {
        &slots[i * len..(i + 1) * len]
    }

    /// One decoded step: the logits and extended caches of every live
    /// prefix in one [`TransJo::step_logits_into`] call, then
    /// [`Self::advance`].
    // lint: hot-path
    fn step(&mut self, jo: &TransJo, cache: &DecodeCache, legality: Legality, width: usize) {
        let (beams, slots, kv, len) = (&self.beams, &self.slots, &self.kv, self.len);
        let logits = jo.step_logits_into(
            cache,
            beams.len(),
            |i| StepEntry {
                prefix: Self::prefix(slots, len, i),
                past: &kv[beams[i].past],
            },
            &mut self.next_kv,
        );
        std::mem::swap(&mut self.kv, &mut self.next_kv);
        self.advance(&logits, legality, width);
    }

    /// Applies one step's logits (one row per live prefix, in beam order):
    /// proposes extensions, keeps the top `width`, and materializes the
    /// surviving prefixes, each inheriting its parent's extended cache.
    /// The order is the stable sort's by descending log-probability:
    /// equal log-probabilities keep proposal order, which is ascending
    /// `(parent, slot)`.
    // lint: hot-path
    fn advance(&mut self, logits: &Matrix, legality: Legality, width: usize) {
        debug_assert_eq!(logits.rows(), self.beams.len());
        debug_assert_eq!(self.kv.len(), self.beams.len());
        let len = self.len;
        self.next.clear();
        for (i, beam) in self.beams.iter().enumerate() {
            extend_prefix(
                logits.row(i),
                Self::prefix(&self.slots, len, i),
                i as u32,
                beam.log_prob,
                self.graph,
                legality,
                &mut self.next,
            );
        }
        self.next.sort_unstable_by(|a, b| {
            b.log_prob
                .total_cmp(&a.log_prob)
                .then(a.parent.cmp(&b.parent))
                .then(a.slot.cmp(&b.slot))
        });
        self.next.truncate(width);
        self.next_beams.clear();
        self.next_slots.clear();
        for e in &self.next {
            let parent = e.parent as usize;
            self.next_slots
                .extend_from_slice(Self::prefix(&self.slots, len, parent));
            self.next_slots.push(e.slot as usize);
            self.next_beams.push(Beam {
                log_prob: e.log_prob,
                past: parent,
            });
        }
        self.swap_in_next();
    }

    /// The forced last step: every live prefix has exactly one table left,
    /// so the log-softmax over its allowed set is exactly 0 and no decoder
    /// row is needed. Each prefix takes that table with its log-probability
    /// unchanged, or drops out if legality forbids it. Beam order is kept,
    /// and it is already descending by log-probability.
    fn advance_forced(&mut self, legality: Legality) {
        let (graph, len) = (self.graph, self.len);
        self.next_beams.clear();
        self.next_slots.clear();
        for (i, beam) in self.beams.iter().enumerate() {
            let prefix = Self::prefix(&self.slots, len, i);
            let chosen = chosen_set(prefix);
            let Some(last) = (0..graph.len()).find(|&s| chosen & (1 << s) == 0) else {
                continue;
            };
            if allowed_slots(graph, chosen, legality) & (1 << last) != 0 {
                self.next_slots.extend_from_slice(prefix);
                self.next_slots.push(last);
                self.next_beams.push(*beam);
            }
        }
        self.swap_in_next();
    }

    /// Makes the survivors in `next_beams`/`next_slots` the live prefixes,
    /// one slot longer.
    fn swap_in_next(&mut self) {
        std::mem::swap(&mut self.beams, &mut self.next_beams);
        std::mem::swap(&mut self.slots, &mut self.next_slots);
        self.len += 1;
    }

    /// Full-length candidates, legality-checked and sorted by descending
    /// log-probability.
    fn finish(self) -> Vec<BeamCandidate> {
        let graph = self.graph;
        if self.len != graph.len() {
            return Vec::new();
        }
        let mut out: Vec<BeamCandidate> = self
            .beams
            .iter()
            .enumerate()
            .map(|(i, beam)| {
                let slots = Self::prefix(&self.slots, self.len, i);
                BeamCandidate {
                    legal: graph.check_left_deep(slots).is_ok(),
                    slots: slots.to_vec(),
                    log_prob: beam.log_prob,
                }
            })
            .collect();
        out.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        out
    }
}

/// Runs left-deep beam search for one query under `config`, over a
/// [`DecodeCache`] of the shared representation `memory` and the query
/// tables' scan-node rows `table_reps`. Every step decodes one new row per
/// live prefix in **one** incremental decoder step
/// ([`TransJo::step_logits_into`]), each row attending over the cache its
/// prefix inherited from its parent; the forced last step is applied
/// without decoding. Candidates are returned sorted by descending
/// log-probability.
pub fn beam_search(
    jo: &TransJo,
    memory: &Matrix,
    table_reps: &Matrix,
    graph: &JoinGraph,
    config: &BeamConfig,
) -> Vec<BeamCandidate> {
    let cache = jo.decode_cache(memory, table_reps);
    let width = config.width.max(1);
    let mut state = BeamState::new(graph, width);
    for step in 0..graph.len() {
        if state.beams.is_empty() {
            break;
        }
        if step + 1 == graph.len() {
            state.advance_forced(config.legality);
            break;
        }
        state.step(jo, &cache, config.legality, width);
    }
    state.finish()
}

/// A bushy beam-search candidate: a full join tree over query slots.
#[derive(Debug, Clone, PartialEq)]
pub struct BushyCandidate {
    /// The decoded join tree; leaves are slot indices encoded as
    /// `TableId(slot)`.
    pub tree: mtmlf_query::JoinTree,
    /// Cumulative length-normalized log-score.
    pub score: f32,
}

/// Bushy decoding (paper Sections 4.1–4.2): the position head emits, for
/// each query table, a distribution over the complete-binary-tree leaf
/// positions; the beam assigns each table a power-of-two-aligned leaf
/// *block* (disjoint from previous assignments), and complete assignments
/// decode through the tree codec. Candidates whose trees are not
/// executable under the join graph are dropped; the caller falls back to
/// left-deep search when none survive. The position head runs on plain
/// values and builds no tape.
pub fn beam_search_bushy(
    jo: &TransJo,
    memory: &Matrix,
    table_reps: &Matrix,
    graph: &JoinGraph,
    config: &BeamConfig,
) -> Vec<BushyCandidate> {
    use mtmlf_query::treecodec::{decode, DecodingEmbedding};

    let width = config.width.max(1);
    let m = graph.len();
    let dim = jo.position_width();
    // Active codec width for m tables: 2^(m-1), capped by the head width.
    let active = (1usize << m.saturating_sub(1)).min(dim);
    let logits = jo.infer_position_logits(memory, table_reps);
    // Row-wise log-softmax over the active positions.
    let mut logp = vec![vec![0.0f32; active]; m];
    for (t, row_logp) in logp.iter_mut().enumerate() {
        let row = &logits.row(t)[..active];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        for (d, &v) in row_logp.iter_mut().zip(row) {
            *d = v - lse;
        }
    }

    // Candidate blocks: aligned ranges [k·2^j, (k+1)·2^j) within `active`.
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    let mut size = 1usize;
    while size <= active {
        let mut k = 0;
        while (k + 1) * size <= active {
            blocks.push((k * size, (k + 1) * size));
            k += 1;
        }
        size *= 2;
    }

    // Beam over per-table block assignments.
    #[derive(Clone)]
    struct State {
        assigned: Vec<(usize, usize)>,
        used: u128, // occupancy bitset over positions (active ≤ 128)
        score: f32,
    }
    let block_mask = |lo: usize, hi: usize| -> u128 {
        if hi - lo >= 128 {
            u128::MAX
        } else {
            ((1u128 << (hi - lo)) - 1) << lo
        }
    };
    let mut beams = vec![State {
        assigned: Vec::new(),
        used: 0,
        score: 0.0,
    }];
    for (t, logp_row) in logp.iter().enumerate() {
        let remaining = m - t - 1;
        let mut next: Vec<State> = Vec::new();
        for state in &beams {
            for &(lo, hi) in &blocks {
                let mask = block_mask(lo, hi);
                if state.used & mask != 0 {
                    continue;
                }
                let used = state.used | mask;
                // Prune assignments that cannot complete into a gapless
                // complete-binary-tree partition with the remaining tables.
                if !can_finish(used, remaining, active) {
                    continue;
                }
                // Length-normalized block score: mean log-prob of its
                // positions.
                let block_score: f32 = logp_row[lo..hi].iter().sum::<f32>() / (hi - lo) as f32;
                let mut s = state.clone();
                s.assigned.push((lo, hi));
                s.used = used;
                s.score += block_score;
                next.push(s);
            }
        }
        next.sort_by(|a, b| b.score.total_cmp(&a.score));
        next.truncate((width * 4).max(width)); // wider interior beam
        beams = next;
        if beams.is_empty() {
            return Vec::new();
        }
    }

    let mut out = Vec::new();
    for state in beams {
        // Build decoding embeddings over the active width and decode.
        let embeddings: Vec<DecodingEmbedding> = state
            .assigned
            .iter()
            .enumerate()
            .map(|(slot, &(lo, hi))| {
                let mut positions = vec![0.0f32; active];
                for p in positions.iter_mut().take(hi).skip(lo) {
                    *p = 1.0;
                }
                DecodingEmbedding {
                    table: mtmlf_storage::TableId(slot as u32),
                    positions,
                }
            })
            .collect();
        let Ok(tree) = decode(&embeddings) else {
            continue;
        };
        if !bushy_legal(&tree, graph) {
            continue;
        }
        out.push(BushyCandidate {
            tree,
            score: state.score,
        });
        if out.len() >= width {
            break;
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    out
}

/// Feasibility of completing a partial block assignment: there must exist
/// a power-of-two width `W` covering the used positions such that the free
/// space in `[0, W)` decomposes into maximal aligned blocks numbering at
/// most `remaining` (each needs ≥ 1 table) while offering at least
/// `remaining` leaf positions (each table needs ≥ 1 leaf). Any maximal
/// aligned block of size `2^j` can be split into between 1 and `2^j`
/// aligned sub-blocks, so the bound is exact.
fn can_finish(used: u128, remaining: usize, active: usize) -> bool {
    let highest = 128 - used.leading_zeros() as usize; // 0 if used == 0
    let mut w = highest.next_power_of_two().max(1);
    while w <= active {
        let free_count = w - used.count_ones() as usize;
        if free_count >= remaining {
            let maximal = maximal_free_blocks(used, w);
            if (remaining == 0 && free_count == 0) || (remaining > 0 && maximal <= remaining) {
                return true;
            }
        }
        w *= 2;
    }
    false
}

/// Number of maximal aligned free blocks in `[0, w)` given `used`.
fn maximal_free_blocks(used: u128, w: usize) -> usize {
    let mut count = 0;
    let mut p = 0;
    while p < w {
        if used & (1u128 << p) != 0 {
            p += 1;
            continue;
        }
        // Largest aligned free block starting at p.
        let mut size = 1usize;
        loop {
            let next = size * 2;
            if p % next != 0 || p + next > w {
                break;
            }
            let mask = (((1u128 << next) - 1) << p) & !(((1u128 << size) - 1) << p);
            if used & mask != 0 {
                break;
            }
            size = next;
        }
        count += 1;
        p += size;
    }
    count
}

/// Checks executability of a slot-indexed join tree under the join graph.
fn bushy_legal(tree: &mtmlf_query::JoinTree, graph: &JoinGraph) -> bool {
    fn walk(tree: &mtmlf_query::JoinTree, graph: &JoinGraph) -> Option<u64> {
        match tree {
            mtmlf_query::JoinTree::Leaf(t) => {
                let slot = t.index();
                (slot < graph.len()).then(|| 1u64 << slot)
            }
            mtmlf_query::JoinTree::Node(l, r) => {
                let lb = walk(l, graph)?;
                let rb = walk(r, graph)?;
                (graph.frontier(lb) & rb != 0).then_some(lb | rb)
            }
        }
    }
    walk(tree, graph).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MtmlfConfig;
    use mtmlf_nn::Matrix;
    use mtmlf_storage::TableId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(m: usize, seed: u64) -> (TransJo, Matrix, Matrix) {
        let cfg = MtmlfConfig::tiny();
        let jo = TransJo::new(&cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let memory = Matrix::xavier(2 * m - 1, cfg.d_model, &mut rng);
        let table_reps = Matrix::xavier(m, cfg.d_model, &mut rng);
        (jo, memory, table_reps)
    }

    fn chain(m: usize) -> JoinGraph {
        let vertices = (0..m as u32).map(TableId).collect();
        let edges: Vec<(usize, usize)> = (0..m - 1).map(|i| (i, i + 1)).collect();
        JoinGraph::from_edges(vertices, &edges).unwrap()
    }

    fn clique(m: usize) -> JoinGraph {
        let vertices = (0..m as u32).map(TableId).collect();
        let edges: Vec<(usize, usize)> = (0..m)
            .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
            .collect();
        JoinGraph::from_edges(vertices, &edges).unwrap()
    }

    #[test]
    fn constrained_candidates_all_legal() {
        let (jo, memory, table_reps) = setup(4, 11);
        let g = chain(4);
        let out = beam_search(&jo, &memory, &table_reps, &g, &BeamConfig::new(4));
        assert!(!out.is_empty());
        for c in &out {
            assert!(c.legal);
            assert_eq!(c.slots.len(), 4);
            g.check_left_deep(&c.slots).unwrap();
        }
        // Sorted by descending log-prob.
        for w in out.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn unconstrained_may_contain_illegal_and_marks_them() {
        let (jo, memory, table_reps) = setup(4, 11);
        let g = chain(4);
        let out = beam_search(
            &jo,
            &memory,
            &table_reps,
            &g,
            &BeamConfig::new(8).unconstrained(),
        );
        assert!(!out.is_empty());
        for c in &out {
            assert_eq!(c.legal, g.check_left_deep(&c.slots).is_ok());
        }
        // With width 8 on 4 tables of an untrained model, at least one
        // explored permutation of a chain is typically illegal; at minimum
        // the count of candidates exceeds the number of legal chain orders
        // found by the constrained search with the same width.
        let constrained = beam_search(&jo, &memory, &table_reps, &g, &BeamConfig::new(8));
        assert!(out.len() >= constrained.len());
    }

    #[test]
    fn candidates_are_permutations() {
        let (jo, memory, table_reps) = setup(5, 11);
        let g = chain(5);
        for c in beam_search(&jo, &memory, &table_reps, &g, &BeamConfig::new(3)) {
            let mut sorted = c.slots.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn single_table_query() {
        let (jo, memory, table_reps) = setup(1, 11);
        let g = JoinGraph::from_edges(vec![TableId(0)], &[]).unwrap();
        let single_rep = table_reps.slice_rows(0, 1);
        let out = beam_search(&jo, &memory, &single_rep, &g, &BeamConfig::new(4));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slots, vec![0]);
    }

    #[test]
    fn star_graph_legality() {
        // Star: every order must place the hub (slot 0) first or second.
        let (jo, memory, table_reps) = setup(4, 11);
        let vertices = (0..4u32).map(TableId).collect();
        let g = JoinGraph::from_edges(vertices, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        for c in beam_search(&jo, &memory, &table_reps, &g, &BeamConfig::new(6)) {
            let hub_pos = c.slots.iter().position(|&s| s == 0).unwrap();
            assert!(hub_pos <= 1, "hub at {hub_pos} in {:?}", c.slots);
        }
    }

    #[test]
    fn bushy_candidates_are_valid_trees() {
        let (jo, memory, table_reps) = setup(4, 23);
        let g = clique(4);
        let out = beam_search_bushy(&jo, &memory, &table_reps, &g, &BeamConfig::new(4).bushy());
        assert!(!out.is_empty(), "clique accepts any tree shape");
        for c in &out {
            assert_eq!(c.tree.leaf_count(), 4);
            let mut leaves: Vec<usize> = c.tree.leaves().iter().map(|t| t.index()).collect();
            leaves.sort_unstable();
            assert_eq!(leaves, vec![0, 1, 2, 3]);
        }
        // Sorted by score.
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn bushy_candidates_respect_chain_legality() {
        let (jo, memory, table_reps) = setup(4, 23);
        let g = chain(4);
        for c in beam_search_bushy(&jo, &memory, &table_reps, &g, &BeamConfig::new(8).bushy()) {
            // Every join node must connect its sides in the chain; e.g. a
            // (0⋈2) node would be illegal. Re-check with the local checker.
            let leaves = c.tree.leaves();
            assert_eq!(leaves.len(), 4);
            // Recompute legality explicitly.
            fn legal(tree: &mtmlf_query::JoinTree, g: &JoinGraph) -> Option<u64> {
                match tree {
                    mtmlf_query::JoinTree::Leaf(t) => Some(1 << t.index()),
                    mtmlf_query::JoinTree::Node(l, r) => {
                        let lb = legal(l, g)?;
                        let rb = legal(r, g)?;
                        (g.frontier(lb) & rb != 0).then_some(lb | rb)
                    }
                }
            }
            assert!(legal(&c.tree, &g).is_some());
        }
    }

    #[test]
    fn single_table_bushy() {
        let (jo, memory, table_reps) = setup(1, 23);
        let g = JoinGraph::from_edges(vec![TableId(0)], &[]).unwrap();
        let reps = table_reps.slice_rows(0, 1);
        let out = beam_search_bushy(&jo, &memory, &reps, &g, &BeamConfig::new(4).bushy());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tree, mtmlf_query::JoinTree::Leaf(TableId(0)));
    }
}
