//! Cross-DB meta-learning (paper Section 3.3, Algorithm 1 — "MLA").
//!
//! The meta-learner owns one set of (S) and (T) modules. `pretrain`:
//!
//! 1. for each database, fits a featurization module — training every
//!    per-table encoder `Enc_j` on single-table CardEst (line 4);
//! 2. serializes every labelled query into `E(P)` with its labels
//!    (lines 5–6);
//! 3. shuffles the pooled training data *across databases* (line 7) and
//!    trains (S) and (T) on it (line 8).
//!
//! `transfer` then deploys on an unseen database by fitting only its
//! featurization module and attaching copies of the pre-trained (S)/(T) —
//! the paper's claim being that the shuffled multi-DB training forces those
//! modules to carry *database-agnostic meta knowledge* (e.g. how to
//! compose join distributions from single-table distributions, Eq. 2)
//! rather than memorizing one database.

use crate::config::MtmlfConfig;
use crate::featurize::FeaturizationModule;
use crate::model::MtmlfQo;
use crate::shared::SharedModule;
use crate::tasks::TaskHeads;
use crate::train::{
    prepare_sample, run_training, st_parameters, st_parameters_mut, PreparedSample,
};
use crate::transjo::TransJo;
use crate::Result;
use mtmlf_datagen::LabeledQuery;
use mtmlf_nn::Matrix;
use mtmlf_storage::Database;

/// The MLA driver.
pub struct MetaLearner {
    shared: SharedModule,
    heads: TaskHeads,
    jo: TransJo,
    config: MtmlfConfig,
    /// Featurization modules of the training databases, by input order.
    featurizers: Vec<FeaturizationModule>,
}

impl MetaLearner {
    /// Initializes fresh (S) and (T) modules.
    pub fn new(config: MtmlfConfig) -> Self {
        Self {
            shared: SharedModule::new(&config),
            heads: TaskHeads::new(&config),
            jo: TransJo::new(&config),
            config,
            featurizers: Vec::new(),
        }
    }

    /// Runs Algorithm 1 over `n` databases with their labelled workloads.
    /// Returns per-epoch mean losses over the pooled, cross-DB-shuffled
    /// training data.
    pub fn pretrain(&mut self, databases: &[(&Database, &[LabeledQuery])]) -> Result<Vec<f32>> {
        let mut pooled: Vec<PreparedSample> = Vec::new();
        self.featurizers.clear();
        for (db, workload) in databases {
            // Line 4: train Enc_j for each table of this database.
            let featurizer = FeaturizationModule::fit(db, &self.config)?;
            // Lines 5-6: featurize each query, attach labels.
            for labeled in workload.iter() {
                pooled.push(prepare_sample(&featurizer, labeled, &self.config)?);
            }
            self.featurizers.push(featurizer);
        }
        // Lines 7-8: shuffle across databases (run_training shuffles every
        // epoch) and train (S) + (T).
        Ok(run_training(
            &mut self.shared,
            &mut self.heads,
            &mut self.jo,
            &pooled,
            &self.config,
            self.config.epochs,
            self.config.lr,
        ))
    }

    /// Federated pre-training (the paper's future research direction #2:
    /// "design a federated learning algorithm to protect the DB users'
    /// data privacy and simultaneously ensure effective training of
    /// MTMLF"). FedAvg over the (S)/(T) parameters: each round, every
    /// database trains a *local copy* of the shared modules on its own
    /// labelled queries — raw data never leaves the site — and the
    /// provider averages the parameter deltas into the global modules.
    /// Returns the mean local loss per round.
    pub fn pretrain_federated(
        &mut self,
        databases: &[(&Database, &[LabeledQuery])],
        rounds: usize,
        local_epochs: usize,
    ) -> Result<Vec<f32>> {
        // Site-local featurizers and prepared samples (computed once).
        self.featurizers.clear();
        let mut site_samples: Vec<Vec<PreparedSample>> = Vec::with_capacity(databases.len());
        for (db, workload) in databases {
            let featurizer = FeaturizationModule::fit(db, &self.config)?;
            let samples = workload
                .iter()
                .map(|l| prepare_sample(&featurizer, l, &self.config))
                .collect::<Result<Vec<_>>>()?;
            site_samples.push(samples);
            self.featurizers.push(featurizer);
        }

        let mut history = Vec::with_capacity(rounds);
        for _round in 0..rounds {
            let snapshot: Vec<Matrix> = st_parameters(&self.shared, &self.heads, &self.jo)
                .into_iter()
                .cloned()
                .collect();
            let mut deltas: Vec<Matrix> = snapshot
                .iter()
                .map(|m| Matrix::zeros(m.shape().0, m.shape().1))
                .collect();
            let mut round_loss = 0.0;
            for samples in &site_samples {
                // Local training starts from the global snapshot.
                let params = st_parameters_mut(&mut self.shared, &mut self.heads, &mut self.jo);
                for (p, s) in params.into_iter().zip(&snapshot) {
                    *p = s.clone();
                }
                let local = run_training(
                    &mut self.shared,
                    &mut self.heads,
                    &mut self.jo,
                    samples,
                    &self.config,
                    local_epochs,
                    self.config.lr,
                );
                round_loss += local.last().copied().unwrap_or(0.0);
                // Only the parameter deltas are "transmitted".
                let params = st_parameters(&self.shared, &self.heads, &self.jo);
                for ((p, s), d) in params.into_iter().zip(&snapshot).zip(&mut deltas) {
                    d.add_assign(&p.sub(s));
                }
            }
            // FedAvg: global = snapshot + mean(deltas).
            let k = site_samples.len().max(1) as f32;
            let params = st_parameters_mut(&mut self.shared, &mut self.heads, &mut self.jo);
            for ((p, s), d) in params.into_iter().zip(&snapshot).zip(&deltas) {
                *p = s.add(&d.scale(1.0 / k));
            }
            history.push(round_loss / k);
        }
        Ok(history)
    }

    /// Deploys on a new database: fits only its featurization module and
    /// attaches copies of the pre-trained (S)/(T). The returned model can be
    /// used zero-shot or [`MtmlfQo::fine_tune`]d on a small number of
    /// example queries; fine-tuning changes only its own copies, never the
    /// meta-learner's modules or another transferred model.
    pub fn transfer(&self, db: &Database) -> Result<MtmlfQo> {
        let featurizer = FeaturizationModule::fit(db, &self.config)?;
        Ok(MtmlfQo::from_modules(
            featurizer,
            self.shared.clone(),
            self.heads.clone(),
            self.jo.clone(),
            self.config.clone(),
        ))
    }

    /// The meta-learner's configuration.
    pub fn config(&self) -> &MtmlfConfig {
        &self.config
    }

    /// Featurization modules fitted during pre-training (index-aligned with
    /// the `pretrain` input).
    pub fn featurizers(&self) -> &[FeaturizationModule] {
        &self.featurizers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{
        generate_database, generate_queries, label_workload, LabelConfig, PipelineConfig,
        WorkloadConfig,
    };

    fn make_db(seed: u64) -> (Database, Vec<LabeledQuery>) {
        let mut cfg = PipelineConfig::tiny();
        cfg.min_rows = 150;
        cfg.max_rows = 500;
        let mut db = generate_database(&format!("meta{seed}"), seed, &cfg).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 6,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            seed ^ 0xBEEF,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        (db, labeled)
    }

    fn tiny_meta_config() -> MtmlfConfig {
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 15;
        cfg.enc_epochs = 2;
        cfg.epochs = 2;
        cfg
    }

    #[test]
    fn pretrain_pools_across_databases() {
        let (db1, w1) = make_db(1);
        let (db2, w2) = make_db(2);
        let mut meta = MetaLearner::new(tiny_meta_config());
        let history = meta
            .pretrain(&[(&db1, w1.as_slice()), (&db2, w2.as_slice())])
            .unwrap();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|l| l.is_finite()));
        assert_eq!(meta.featurizers().len(), 2);
    }

    #[test]
    fn transfer_produces_working_model() {
        let (db1, w1) = make_db(3);
        let (db_new, w_new) = make_db(4);
        let mut meta = MetaLearner::new(tiny_meta_config());
        meta.pretrain(&[(&db1, w1.as_slice())]).unwrap();
        let model = meta.transfer(&db_new).unwrap();
        for l in &w_new {
            let order = model.predict_join_order(&l.query, &l.plan).unwrap();
            order.validate(&l.query).unwrap();
            let preds = model.predict_nodes(&l.query, &l.plan).unwrap();
            assert_eq!(preds.len(), l.plan.node_count());
        }
    }

    #[test]
    fn transferred_model_fine_tunes() {
        let (db1, w1) = make_db(5);
        let (db_new, w_new) = make_db(6);
        let mut meta = MetaLearner::new(tiny_meta_config());
        meta.pretrain(&[(&db1, w1.as_slice())]).unwrap();
        let mut model = meta.transfer(&db_new).unwrap();
        let history = model.fine_tune(&w_new, 3, 5e-4).unwrap();
        assert_eq!(history.len(), 3);
        assert!(
            history.last().unwrap() <= &history[0],
            "fine-tuning should not diverge: {history:?}"
        );
    }

    #[test]
    fn transfer_copies_parameter_values_from_meta_learner() {
        let (db1, w1) = make_db(7);
        let mut meta = MetaLearner::new(tiny_meta_config());
        meta.pretrain(&[(&db1, w1.as_slice())]).unwrap();
        let model_a = meta.transfer(&db1).unwrap();
        let (shared_a, _, _) = model_a.transferable_modules();
        let values = |m: &SharedModule| -> Vec<Matrix> {
            mtmlf_nn::layers::Module::parameters(m)
                .into_iter()
                .cloned()
                .collect()
        };
        assert!(values(&shared_a) == values(&meta.shared));
    }
}

#[cfg(test)]
mod federated_tests {
    use super::*;
    use mtmlf_datagen::{
        generate_database, generate_queries, label_workload, LabelConfig, PipelineConfig,
        WorkloadConfig,
    };

    fn make_db(seed: u64) -> (Database, Vec<LabeledQuery>) {
        let mut cfg = PipelineConfig::tiny();
        cfg.min_rows = 150;
        cfg.max_rows = 500;
        let mut db = generate_database(&format!("fed{seed}"), seed, &cfg).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 6,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            seed ^ 0xFED,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        (db, labeled)
    }

    fn tiny_config() -> crate::MtmlfConfig {
        crate::MtmlfConfig {
            enc_queries: 12,
            enc_epochs: 2,
            epochs: 2,
            seed: 31,
            ..crate::MtmlfConfig::tiny()
        }
    }

    #[test]
    fn federated_rounds_train_and_transfer() {
        let (db1, w1) = make_db(41);
        let (db2, w2) = make_db(42);
        let (db_new, w_new) = make_db(43);
        let mut meta = MetaLearner::new(tiny_config());
        let history = meta
            .pretrain_federated(&[(&db1, w1.as_slice()), (&db2, w2.as_slice())], 2, 1)
            .unwrap();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|l| l.is_finite()));
        let model = meta.transfer(&db_new).unwrap();
        for l in &w_new {
            model
                .predict_join_order(&l.query, &l.plan)
                .unwrap()
                .validate(&l.query)
                .unwrap();
        }
    }

    #[test]
    fn federated_update_moves_parameters() {
        let (db1, w1) = make_db(44);
        let mut meta = MetaLearner::new(tiny_config());
        let before: f32 = mtmlf_nn::layers::Module::parameters(&meta.shared)
            .iter()
            .map(|p| p.norm())
            .sum();
        meta.pretrain_federated(&[(&db1, w1.as_slice())], 1, 1)
            .unwrap();
        let after: f32 = mtmlf_nn::layers::Module::parameters(&meta.shared)
            .iter()
            .map(|p| p.norm())
            .sum();
        assert_ne!(before, after, "federated round must update parameters");
    }
}
