//! The featurization and encoding module (F): all *database-specific*
//! knowledge lives here.
//!
//! Predicate tokenization (F.i): each filter predicate becomes one token
//! row `[column one-hot | predicate-kind one-hot | normalized lo | hi |
//! needle hash one-hot | flag]`. Literal values are normalized by the
//! column's `[min, max]` range (the scaled stand-in for the paper's
//! per-value embeddings, which do not fit a 64-value-wide model);
//! `LIKE` needles are feature-hashed.
//!
//! Per-table encoders `Enc_i` (F.ii) summarize token sequences into the
//! table-distribution embeddings used by the serializer (F.iii, in
//! [`crate::serialize`]).

use crate::config::MtmlfConfig;
use crate::encoder::TableEncoder;
use crate::error::MtmlfError;
use crate::Result;
use mtmlf_datagen::single_table_queries;
use mtmlf_nn::layers::Module;
use mtmlf_nn::Matrix;
use mtmlf_query::{CmpOp, FilterPredicate, LikePattern};
use mtmlf_storage::{Column, Database, TableId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, PoisonError};

/// Predicate-kind slots: eq, neq, lt, le, gt, ge, between, like-contains,
/// like-prefix, like-suffix, in-set.
const PRED_KINDS: usize = 11;

/// Upper bound on distinct memoized encoder forwards. Serving workloads
/// repeat a small set of per-table filter shapes, so a few thousand entries
/// cover them; past the cap new results are returned uncached rather than
/// evicted (no LRU bookkeeping on the hot path).
const EMBED_CACHE_CAP: usize = 4096;

/// One memoized encoder forward. The exact token bit pattern is kept so a
/// hash collision can never serve the wrong embedding: hits require the
/// full token matrix to match bit-for-bit.
struct CachedEmbedding {
    token_bits: TokenBits,
    embedding: Matrix,
    log_card: f32,
}

/// Encoder forwards memoized by `(table, token-bits hash)`.
type EmbedCache = HashMap<(usize, u64), Vec<CachedEmbedding>>;

/// A token matrix's exact bit pattern, kept sparse: its length and the
/// `(index, bits)` of every entry whose bits are not all zero. Tokens are
/// mostly zeros (one-hot kinds, columns and needle buckets: about 4 of 54
/// entries per row), so this is a fraction of the dense bits, and two
/// patterns are equal exactly when the dense bits are.
#[derive(PartialEq, Eq, Hash)]
struct TokenBits {
    len: usize,
    nonzeros: Vec<(u32, u32)>,
}

impl TokenBits {
    fn of(tokens: &Matrix) -> Self {
        Self {
            len: tokens.data().len(),
            nonzeros: tokens
                .data()
                .iter()
                .enumerate()
                .filter(|(_, v)| v.to_bits() != 0)
                .map(|(i, v)| (i as u32, v.to_bits()))
                .collect(),
        }
    }

    fn fx_hash(&self) -> u64 {
        let mut h = mtmlf_exec::hasher::FxHasher::default();
        Hash::hash(self, &mut h);
        h.finish()
    }
}

/// The per-database featurization module: per-table encoders plus the
/// column metadata needed for value normalization.
///
/// Cloning copies the encoders (they are frozen after
/// [`FeaturizationModule::fit`]) and shares the embedding memo, which lets
/// several model variants — e.g. the multi-task model and its single-task
/// ablations — reuse one fitted featurizer and its memoized forwards.
#[derive(Clone)]
pub struct FeaturizationModule {
    db_name: String,
    encoders: Vec<TableEncoder>,
    /// `[table][column] -> (min, max)` numeric view ranges.
    col_ranges: Vec<Vec<(f64, f64)>>,
    /// Rows per table (for the log-size feature on scan nodes).
    table_rows: Vec<usize>,
    max_cols: usize,
    needle_buckets: usize,
    d_model: usize,
    /// Memoized encoder forwards keyed by `(table, token-bits hash)`, with
    /// exact token verification per entry. Shared across clones (encoders
    /// are frozen after [`FeaturizationModule::fit`], so entries never go
    /// stale; [`FeaturizationModule::parameters_mut`] gives the module a
    /// memo of its own) and bounded by [`EMBED_CACHE_CAP`].
    embed_cache: Arc<Mutex<EmbedCache>>,
}

impl FeaturizationModule {
    /// Width of one predicate token.
    pub fn token_width(config: &MtmlfConfig) -> usize {
        config.max_cols + PRED_KINDS + 2 + config.needle_buckets + 1
    }

    /// Builds and pre-trains the module for a database: collects column
    /// ranges, generates single-table filter queries per table, and fits
    /// each `Enc_i` on single-table CardEst (paper Algorithm 1, line 4).
    ///
    /// The tables' fits are independent, so they run concurrently: the
    /// calling thread and `available_parallelism() - 1` scoped helpers
    /// (at most one per table beyond the first) take tables from a shared
    /// queue. A table's samples and its training seed depend only on its
    /// [`TableId`], and every encoder's initial weights are drawn here by
    /// [`FeaturizationModule::untrained`], so the fitted parameters are the
    /// sequential loop's, bit for bit, whatever the schedule.
    pub fn fit(db: &Database, config: &MtmlfConfig) -> Result<Self> {
        let mut module = Self::untrained(db, config)?;
        let mut encoders = std::mem::take(&mut module.encoders);
        let queue = Mutex::new(encoders.iter_mut().enumerate());
        let fit_queued = || loop {
            let Some((i, encoder)) = queue.lock().unwrap_or_else(PoisonError::into_inner).next()
            else {
                break;
            };
            module.fit_encoder(db, config, TableId(i as u32), encoder);
        };
        let helpers = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(db.table_count())
            .saturating_sub(1);
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(fit_queued);
            }
            fit_queued();
        });
        module.encoders = encoders;
        Ok(module)
    }

    /// Fits one table's encoder on single-table queries drawn for that
    /// table alone.
    fn fit_encoder(
        &self,
        db: &Database,
        config: &MtmlfConfig,
        tid: TableId,
        encoder: &mut TableEncoder,
    ) {
        let samples: Vec<(Matrix, u64)> =
            single_table_queries(db, tid, config.enc_queries, config.seed ^ 0xF17)
                .into_iter()
                .map(|q| (self.predicate_tokens(tid, &q.filters), q.cardinality))
                .collect();
        encoder.fit(
            &samples,
            config.enc_epochs,
            config.enc_lr,
            config.seed ^ u64::from(tid.0),
        );
    }

    /// Builds the module without pre-training the encoders (tests and
    /// custom training loops).
    pub fn untrained(db: &Database, config: &MtmlfConfig) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFEA7);
        let mut encoders = Vec::with_capacity(db.table_count());
        let mut col_ranges = Vec::with_capacity(db.table_count());
        let mut table_rows = Vec::with_capacity(db.table_count());
        let token_width = Self::token_width(config);
        for (_, table) in db.tables() {
            if table.arity() > config.max_cols {
                return Err(MtmlfError::TooManyColumns {
                    got: table.arity(),
                    max: config.max_cols,
                });
            }
            encoders.push(TableEncoder::new(
                token_width,
                config.d_model,
                config.heads,
                config.enc_blocks,
                &mut rng,
            ));
            let mut ranges = Vec::with_capacity(table.arity());
            for c in 0..table.arity() {
                ranges.push(column_range(
                    table.column(mtmlf_storage::ColumnId(c as u32))?,
                ));
            }
            col_ranges.push(ranges);
            table_rows.push(table.rows());
        }
        Ok(Self {
            db_name: db.name().to_string(),
            encoders,
            col_ranges,
            table_rows,
            max_cols: config.max_cols,
            needle_buckets: config.needle_buckets,
            d_model: config.d_model,
            embed_cache: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Name of the database this module was fitted on.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Number of tables covered.
    pub fn table_count(&self) -> usize {
        self.encoders.len()
    }

    /// Rows of a table (catalog metadata visible to any component).
    pub fn table_rows(&self, table: TableId) -> usize {
        self.table_rows.get(table.index()).copied().unwrap_or(0)
    }

    /// Tokenizes a conjunction of filters on `table` (F.i). An empty filter
    /// set yields one pass-through token spanning the full value range.
    pub fn predicate_tokens(&self, table: TableId, filters: &[FilterPredicate]) -> Matrix {
        let width = self.max_cols + PRED_KINDS + 2 + self.needle_buckets + 1;
        if filters.is_empty() {
            let mut t = Matrix::zeros(1, width);
            t.set(0, self.max_cols + PRED_KINDS + 1, 1.0); // hi = full range
            return t;
        }
        let mut rows = Matrix::zeros(filters.len(), width);
        for (r, f) in filters.iter().enumerate() {
            let col = f.column().index().min(self.max_cols - 1);
            rows.set(r, col, 1.0);
            let kind_base = self.max_cols;
            let value_base = self.max_cols + PRED_KINDS;
            let needle_base = value_base + 2;
            let flag = width - 1;
            rows.set(r, flag, 1.0);
            let range = self
                .col_ranges
                .get(table.index())
                .and_then(|t| t.get(f.column().index()))
                .copied()
                .unwrap_or((0.0, 1.0));
            match f {
                FilterPredicate::Cmp { op, value, .. } => {
                    let slot = match op {
                        CmpOp::Eq => 0,
                        CmpOp::Neq => 1,
                        CmpOp::Lt => 2,
                        CmpOp::Le => 3,
                        CmpOp::Gt => 4,
                        CmpOp::Ge => 5,
                    };
                    rows.set(r, kind_base + slot, 1.0);
                    let v = normalize(range, value);
                    let (lo, hi) = match op {
                        CmpOp::Eq | CmpOp::Neq => (v, v),
                        CmpOp::Lt | CmpOp::Le => (0.0, v),
                        CmpOp::Gt | CmpOp::Ge => (v, 1.0),
                    };
                    rows.set(r, value_base, lo);
                    rows.set(r, value_base + 1, hi);
                }
                FilterPredicate::Between { lo, hi, .. } => {
                    rows.set(r, kind_base + 6, 1.0);
                    rows.set(r, value_base, normalize(range, lo));
                    rows.set(r, value_base + 1, normalize(range, hi));
                }
                FilterPredicate::Like { pattern, .. } => {
                    let slot = match pattern {
                        LikePattern::Contains(_) => 7,
                        LikePattern::Prefix(_) => 8,
                        LikePattern::Suffix(_) => 9,
                    };
                    rows.set(r, kind_base + slot, 1.0);
                    let bucket = hash_needle(pattern.needle(), self.needle_buckets);
                    rows.set(r, needle_base + bucket, 1.0);
                }
                FilterPredicate::InSet { values, .. } => {
                    rows.set(r, kind_base + 10, 1.0);
                    // Represent the set by its normalized extremes and size.
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for v in values {
                        let nv = normalize(range, v) as f64;
                        lo = lo.min(nv);
                        hi = hi.max(nv);
                    }
                    if lo.is_finite() {
                        rows.set(r, value_base, lo as f32);
                        rows.set(r, value_base + 1, hi as f32);
                    }
                }
            }
        }
        rows
    }

    /// The table-distribution embedding `E(f(T_i))` as a detached matrix
    /// `(1, d_model)`.
    pub fn table_embedding(&self, table: TableId, filters: &[FilterPredicate]) -> Result<Matrix> {
        Ok(self.table_embedding_with_logcard(table, filters)?.0)
    }

    /// The table-distribution embedding plus the encoder's own predicted
    /// log-cardinality for the filters (its pre-training head's output).
    /// The serializer feeds both to the shared module: the embedding is the
    /// learned distribution summary, the log-cardinality an explicit
    /// filtered-size signal (both are (F)-module outputs, detached).
    ///
    /// Both values come from *one* encoder forward
    /// ([`TableEncoder::embed_with_logcard`]) and are memoized per exact
    /// token matrix: repeated filter shapes — the common case in serving
    /// workloads — skip the transformer entirely. Cached results are the
    /// stored matrices themselves, so hits are bitwise-identical to misses.
    pub fn table_embedding_with_logcard(
        &self,
        table: TableId,
        filters: &[FilterPredicate],
    ) -> Result<(Matrix, f32)> {
        let enc = self
            .encoders
            .get(table.index())
            .ok_or(MtmlfError::EncoderMissing(table.0))?;
        let tokens = self.predicate_tokens(table, filters);
        let bits = TokenBits::of(&tokens);
        let key = (table.index(), bits.fx_hash());
        {
            let cache = self.embed_cache.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(bucket) = cache.get(&key) {
                for entry in bucket {
                    if entry.token_bits == bits {
                        return Ok((entry.embedding.clone(), entry.log_card));
                    }
                }
            }
        }
        let (embedding, log_card) = enc.embed_with_logcard(&tokens);
        let mut cache = self.embed_cache.lock().unwrap_or_else(|p| p.into_inner());
        if cache.len() < EMBED_CACHE_CAP {
            // An exact-size copy: a clone would take a pooled arena buffer
            // of whatever larger capacity fits, and the cache keeps it for
            // the life of the model.
            let (rows, cols) = embedding.shape();
            cache.entry(key).or_default().push(CachedEmbedding {
                token_bits: bits,
                embedding: Matrix::from_vec(rows, cols, embedding.data().to_vec()),
                log_card,
            });
        }
        Ok((embedding, log_card))
    }

    /// All encoder parameters, in table order.
    pub fn parameters(&self) -> Vec<&Matrix> {
        self.encoders.iter().flat_map(|e| e.parameters()).collect()
    }

    /// All encoder parameters, mutably, in the order of
    /// [`FeaturizationModule::parameters`] (weight loading). The module
    /// leaves the memo it shares with its clones and starts an empty one,
    /// so no embedding of the old weights survives and no clone reads one
    /// of the new.
    pub(crate) fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.embed_cache = Arc::new(Mutex::new(HashMap::new()));
        self.encoders
            .iter_mut()
            .flat_map(|e| e.parameters_mut())
            .collect()
    }

    /// Borrow a table's encoder (evaluation of encoder quality).
    pub fn encoder(&self, table: TableId) -> Result<&TableEncoder> {
        self.encoders
            .get(table.index())
            .ok_or(MtmlfError::EncoderMissing(table.0))
    }
}

fn column_range(column: &Column) -> (f64, f64) {
    let n = column.len();
    if n == 0 {
        return (0.0, 1.0);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in 0..n {
        let v = column.numeric_at(r);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

fn normalize(range: (f64, f64), value: &Value) -> f32 {
    let v = match value {
        Value::Str(_) => return 0.5, // string literals carry no numeric view
        v => v.as_numeric().unwrap_or(0.0),
    };
    let (lo, hi) = range;
    if hi > lo {
        (((v - lo) / (hi - lo)).clamp(0.0, 1.0)) as f32
    } else {
        0.5
    }
}

fn hash_needle(needle: &str, buckets: usize) -> usize {
    let mut h = mtmlf_exec::hasher::FxHasher::default();
    needle.hash(&mut h);
    (h.finish() as usize) % buckets.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{imdb::ImdbScale, imdb_lite};
    use mtmlf_nn::layers::Module;
    use mtmlf_storage::ColumnId;

    fn small_db() -> Database {
        imdb_lite(1, ImdbScale { scale: 0.02 }).unwrap()
    }

    #[test]
    fn token_shapes() {
        let db = small_db();
        let cfg = MtmlfConfig::tiny();
        let f = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let empty = f.predicate_tokens(TableId(0), &[]);
        assert_eq!(empty.shape(), (1, FeaturizationModule::token_width(&cfg)));
        let filters = vec![
            FilterPredicate::Cmp {
                column: ColumnId(1),
                op: CmpOp::Le,
                value: Value::Int(1990),
            },
            FilterPredicate::Like {
                column: ColumnId(3),
                pattern: LikePattern::Contains("dark".into()),
            },
        ];
        let tokens = f.predicate_tokens(TableId(0), &filters);
        assert_eq!(tokens.shape(), (2, FeaturizationModule::token_width(&cfg)));
    }

    #[test]
    fn normalization_monotone() {
        let db = small_db();
        let cfg = MtmlfConfig::tiny();
        let f = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let tok = |year: i64| {
            f.predicate_tokens(
                TableId(0),
                &[FilterPredicate::Cmp {
                    column: ColumnId(1),
                    op: CmpOp::Le,
                    value: Value::Int(year),
                }],
            )
        };
        let value_base = cfg.max_cols + PRED_KINDS;
        let early = tok(1950).get(0, value_base + 1);
        let late = tok(2015).get(0, value_base + 1);
        assert!(late > early, "normalized bound must grow with the literal");
    }

    #[test]
    fn distinct_needles_usually_distinct_buckets() {
        let db = small_db();
        let cfg = MtmlfConfig::tiny();
        let f = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let bucket_of = |needle: &str| {
            let t = f.predicate_tokens(
                TableId(0),
                &[FilterPredicate::Like {
                    column: ColumnId(3),
                    pattern: LikePattern::Contains(needle.into()),
                }],
            );
            let needle_base = cfg.max_cols + PRED_KINDS + 2;
            (0..cfg.needle_buckets)
                .find(|&b| t.get(0, needle_base + b) == 1.0)
                .unwrap()
        };
        let distinct: std::collections::HashSet<usize> = ["dark", "light", "house", "star", "king"]
            .iter()
            .map(|n| bucket_of(n))
            .collect();
        assert!(distinct.len() >= 3, "hash spreads needles: {distinct:?}");
        assert_eq!(bucket_of("dark"), bucket_of("dark"), "deterministic");
    }

    #[test]
    fn embedding_shape_and_determinism() {
        let db = small_db();
        let cfg = MtmlfConfig::tiny();
        let f = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let e1 = f.table_embedding(TableId(2), &[]).unwrap();
        let e2 = f.table_embedding(TableId(2), &[]).unwrap();
        assert_eq!(e1.shape(), (1, cfg.d_model));
        assert_eq!(e1, e2);
    }

    #[test]
    fn sparse_token_bits_equal_exactly_when_dense_bits_do() {
        let m = |rows: usize, v: &[f32]| Matrix::from_vec(rows, v.len() / rows, v.to_vec());
        let a = TokenBits::of(&m(1, &[0.0, 1.5, 0.0, 2.0]));
        assert!(a == TokenBits::of(&m(1, &[0.0, 1.5, 0.0, 2.0])));
        // -0.0 is not +0.0 bit for bit.
        assert!(a != TokenBits::of(&m(1, &[-0.0, 1.5, 0.0, 2.0])));
        // Trailing zeros still count: the lengths differ.
        assert!(a != TokenBits::of(&m(2, &[0.0, 1.5, 0.0, 2.0, 0.0, 0.0])));
        assert!(a != TokenBits::of(&m(1, &[0.0, 1.5, 2.0, 0.0])));
    }

    #[test]
    fn logcard_embedding_memoized_and_bitwise_stable() {
        let db = small_db();
        let cfg = MtmlfConfig::tiny();
        let f = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let filters = vec![FilterPredicate::Cmp {
            column: ColumnId(1),
            op: CmpOp::Le,
            value: Value::Int(1990),
        }];
        // Reference: the historical pair of separate encoder forwards.
        let enc = f.encoder(TableId(0)).unwrap();
        let tokens = f.predicate_tokens(TableId(0), &filters);
        let mut t = mtmlf_nn::Tape::new();
        let log_card = enc.log_card(&mut t, &tokens);
        let reference = (enc.embed(&tokens), t.item(log_card));
        // Cache miss, then hit: both must match the reference bitwise.
        let miss = f
            .table_embedding_with_logcard(TableId(0), &filters)
            .unwrap();
        let hit = f
            .table_embedding_with_logcard(TableId(0), &filters)
            .unwrap();
        assert_eq!(miss.0, reference.0);
        assert_eq!(miss.1.to_bits(), reference.1.to_bits());
        assert_eq!(hit.0, miss.0);
        assert_eq!(hit.1.to_bits(), miss.1.to_bits());
        // Clones share the memo (and copy the frozen encoder parameters).
        let clone = f.clone();
        let via_clone = clone
            .table_embedding_with_logcard(TableId(0), &filters)
            .unwrap();
        assert_eq!(via_clone.0, miss.0);
        assert_eq!(via_clone.1.to_bits(), miss.1.to_bits());
        // The plain-embedding entry point rides the same cache.
        assert_eq!(f.table_embedding(TableId(0), &filters).unwrap(), miss.0);
    }

    #[test]
    fn fit_trains_encoders_to_predict_cardinality() {
        let db = small_db();
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 60;
        cfg.enc_epochs = 20;
        let f = FeaturizationModule::fit(&db, &cfg).unwrap();
        // The trained encoder's cardinality head should track truth within
        // an order of magnitude on fresh single-table queries.
        let fresh = single_table_queries(&db, TableId(0), 30, 999);
        let enc = f.encoder(TableId(0)).unwrap();
        let mut good = 0;
        for q in &fresh {
            let tokens = f.predicate_tokens(TableId(0), &q.filters);
            let pred = mtmlf_nn::loss::log_pred_to_estimate(enc.embed_with_logcard(&tokens).1);
            let q_err = mtmlf_optd::q_error(pred, q.cardinality as f64);
            if q_err < 12.0 {
                good += 1;
            }
        }
        assert!(
            good * 2 > fresh.len(),
            "most fresh queries within q-error 12: {good}/{}",
            fresh.len()
        );
    }

    /// Every encoder parameter of a module, as bit patterns.
    fn encoder_bits(f: &FeaturizationModule) -> Vec<Vec<u32>> {
        f.encoders
            .iter()
            .flat_map(|e| e.parameters())
            .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn parallel_fit_is_bitwise_the_sequential_loop() {
        let db = small_db();
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 12;
        cfg.enc_epochs = 2;
        let fitted = FeaturizationModule::fit(&db, &cfg).unwrap();
        // Reference: the untrained encoders fitted one table after another
        // on the calling thread.
        let mut reference = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let initial = encoder_bits(&reference);
        for (tid, _) in db.tables() {
            let samples: Vec<(Matrix, u64)> =
                single_table_queries(&db, tid, cfg.enc_queries, cfg.seed ^ 0xF17)
                    .into_iter()
                    .map(|q| (reference.predicate_tokens(tid, &q.filters), q.cardinality))
                    .collect();
            reference.encoders[tid.index()].fit(
                &samples,
                cfg.enc_epochs,
                cfg.enc_lr,
                cfg.seed ^ u64::from(tid.0),
            );
        }
        assert!(db.table_count() > 1);
        assert!(encoder_bits(&fitted) == encoder_bits(&reference));
        assert!(encoder_bits(&fitted) != initial, "fit trained nothing");
    }

    #[test]
    fn too_many_columns_rejected() {
        let db = small_db();
        let cfg = MtmlfConfig {
            max_cols: 2,
            ..MtmlfConfig::tiny()
        };
        assert!(matches!(
            FeaturizationModule::untrained(&db, &cfg),
            Err(MtmlfError::TooManyColumns { .. })
        ));
    }
}
