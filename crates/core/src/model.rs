//! The `MtmlfQo` facade: build, train, and query the full model.

use crate::beam::beam_search;
use crate::config::MtmlfConfig;
use crate::error::MtmlfError;
use crate::featurize::FeaturizationModule;
use crate::serialize::{reserialize_plan, serialize_plan, SerializedPlan};
use crate::shared::SharedModule;
use crate::tasks::TaskHeads;
use crate::train::{prepare_sample, run_training};
use crate::transjo::TransJo;
use crate::Result;
use mtmlf_datagen::LabeledQuery;
use mtmlf_query::{JoinOrder, PlanNode, Query};
use mtmlf_storage::Database;

/// The MTMLF-QO model: a per-database featurization module (F) plus the
/// shared representation (S) and task heads (T) that are jointly trained —
/// and, under meta-learning, shared across databases.
pub struct MtmlfQo {
    featurization: FeaturizationModule,
    shared: SharedModule,
    heads: TaskHeads,
    jo: TransJo,
    config: MtmlfConfig,
}

impl MtmlfQo {
    /// Builds a fresh model for one database: fits (pre-trains) the
    /// per-table encoders and initializes (S) and (T).
    pub fn new(db: &Database, config: MtmlfConfig) -> Result<Self> {
        let featurization = FeaturizationModule::fit(db, &config)?;
        Ok(Self {
            shared: SharedModule::new(&config),
            heads: TaskHeads::new(&config),
            jo: TransJo::new(&config),
            featurization,
            config,
        })
    }

    /// Assembles a model from existing modules — how the meta-learner
    /// attaches pre-trained (S)/(T) modules to a new database's featurizer.
    pub fn from_modules(
        featurization: FeaturizationModule,
        shared: SharedModule,
        heads: TaskHeads,
        jo: TransJo,
        config: MtmlfConfig,
    ) -> Self {
        Self {
            featurization,
            shared,
            heads,
            jo,
            config,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &MtmlfConfig {
        &self.config
    }

    /// The featurization module (F).
    pub fn featurization(&self) -> &FeaturizationModule {
        &self.featurization
    }

    /// Re-fits the featurization module against (possibly changed) data,
    /// leaving (S) and (T) untouched — the paper's Section 2.3 evolution
    /// story: "when the data or query workload distribution in this DB
    /// shifts, only the featurization and encoding module of MTMLF needs
    /// to be updated without affecting the other two modules".
    pub fn refresh_featurization(&mut self, db: &Database) -> Result<()> {
        self.featurization = FeaturizationModule::fit(db, &self.config)?;
        Ok(())
    }

    /// Copies of the transferable modules `(S, T)` — what the cloud
    /// provider ships to users in the paper's workflow.
    pub fn transferable_modules(&self) -> (SharedModule, TaskHeads, TransJo) {
        (self.shared.clone(), self.heads.clone(), self.jo.clone())
    }

    /// Jointly trains (S) and (T) on labelled queries with the configured
    /// loss weights (Eq. 1). Returns per-epoch mean losses.
    pub fn train(&mut self, data: &[LabeledQuery]) -> Result<Vec<f32>> {
        let samples = data
            .iter()
            .map(|l| prepare_sample(&self.featurization, l, &self.config))
            .collect::<Result<Vec<_>>>()?;
        Ok(run_training(
            &mut self.shared,
            &mut self.heads,
            &mut self.jo,
            &samples,
            &self.config,
            self.config.epochs,
            self.config.lr,
        ))
    }

    /// Two-phase training (the paper's Section 3.2 "research
    /// opportunities"): optimal join orders are exponential to label, so
    /// phase 1 trains on a large workload supervised by the *classical
    /// optimizer's* (cheap, sub-optimal) orders, and phase 2 fine-tunes on
    /// the small, precious exact-optimal set. Returns both loss histories.
    pub fn train_two_phase(
        &mut self,
        cheap: &[LabeledQuery],
        precious: &[LabeledQuery],
        phase1_epochs: usize,
    ) -> Result<(Vec<f32>, Vec<f32>)> {
        let phase1 = cheap
            .iter()
            .map(|l| {
                crate::train::prepare_sample_with(
                    &self.featurization,
                    l,
                    &self.config,
                    crate::train::JoTarget::InitialPlan,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let h1 = run_training(
            &mut self.shared,
            &mut self.heads,
            &mut self.jo,
            &phase1,
            &self.config,
            phase1_epochs,
            self.config.lr,
        );
        let h2 = self.train(precious)?;
        Ok((h1, h2))
    }

    /// Fine-tunes (S) and (T) on a small set of queries from this model's
    /// database (the user-side step of the pre-train/fine-tune workflow).
    pub fn fine_tune(&mut self, data: &[LabeledQuery], epochs: usize, lr: f32) -> Result<Vec<f32>> {
        let samples = data
            .iter()
            .map(|l| prepare_sample(&self.featurization, l, &self.config))
            .collect::<Result<Vec<_>>>()?;
        Ok(run_training(
            &mut self.shared,
            &mut self.heads,
            &mut self.jo,
            &samples,
            &self.config,
            epochs,
            lr,
        ))
    }

    /// Predicts `(cardinality, cost)` for the sub-plan rooted at every node
    /// of `plan`, in post-order (the modified CardEst/CostEst tasks of
    /// Section 3.2 I).
    pub fn predict_nodes(&self, query: &Query, plan: &PlanNode) -> Result<Vec<(f64, f64)>> {
        let serialized = serialize_plan(&self.featurization, query, plan, &self.config)?;
        let s = self.shared.infer(&serialized.features);
        Ok(self.heads.estimates(&s))
    }

    /// The model's `(cardinality, cost)` estimates for the root of `plan`
    /// alone: exactly the last entry of [`Self::predict_nodes`].
    fn predict_root(&self, query: &Query, plan: &PlanNode) -> Result<(f64, f64)> {
        self.estimate_root(&serialize_plan(
            &self.featurization,
            query,
            plan,
            &self.config,
        )?)
    }

    /// The `(cardinality, cost)` estimates for the root of a serialized
    /// plan. The root is the last node in post-order, and only its row
    /// runs through the last encoder block and the heads
    /// ([`SharedModule::infer_rows`]); all of them are row-local, so this
    /// is exactly the root's entry of the full forward.
    pub(crate) fn estimate_root(&self, serialized: &SerializedPlan) -> Result<(f64, f64)> {
        let no_nodes = || MtmlfError::Internal("estimated plan has no nodes".into());
        let root = serialized
            .features
            .rows()
            .checked_sub(1)
            .ok_or_else(no_nodes)?;
        let shared = self.shared.infer_rows(&serialized.features, &[root]);
        self.heads
            .estimates(&shared)
            .first()
            .copied()
            .ok_or_else(no_nodes)
    }

    /// Recommends the access path for each query table — the
    /// physical-design task of the paper's Section 2.2, served by the
    /// advisor head (train with [`crate::LossWeights::with_advisor`]).
    /// Returns `(table, recommended scan operator)` per query table.
    pub fn recommend_access_paths(
        &self,
        query: &Query,
        plan: &PlanNode,
    ) -> Result<Vec<(mtmlf_storage::TableId, mtmlf_query::ScanOp)>> {
        let serialized = serialize_plan(&self.featurization, query, plan, &self.config)?;
        // The advisor head reads the scan nodes' rows only, so only those
        // run through the last encoder block.
        let scans = self
            .shared
            .infer_rows(&serialized.features, &serialized.scan_node_of_slot);
        let logits = self.heads.infer_advisor(&scans);
        Ok(serialized
            .table_slots
            .iter()
            .enumerate()
            .map(|(slot, &table)| {
                let op = if logits.get(slot, 0) > 0.0 {
                    mtmlf_query::ScanOp::IndexScan
                } else {
                    mtmlf_query::ScanOp::SeqScan
                };
                (table, op)
            })
            .collect())
    }

    /// Predicts a *bushy* join order (Section 4.1's extension): the
    /// position head's distributions are decoded by a block-assignment
    /// beam search and reverted through the tree codec. Falls back to the
    /// left-deep search when no legal bushy candidate survives (e.g. on an
    /// untrained head).
    pub fn predict_bushy_join_order(&self, query: &Query, plan: &PlanNode) -> Result<JoinOrder> {
        let serialized = serialize_plan(&self.featurization, query, plan, &self.config)?;
        let s = self.shared.infer(&serialized.features);
        let table_reps = s.gather_rows(&serialized.scan_node_of_slot);
        let candidates = crate::beam::beam_search_bushy(
            &self.jo,
            &s,
            &table_reps,
            &serialized.graph,
            &self.config.beam.bushy(),
        );
        match candidates.first() {
            Some(best) => {
                // Re-index leaves from slots to global table ids.
                fn relabel(
                    tree: &mtmlf_query::JoinTree,
                    slots: &[mtmlf_storage::TableId],
                ) -> mtmlf_query::JoinTree {
                    match tree {
                        mtmlf_query::JoinTree::Leaf(t) => {
                            mtmlf_query::JoinTree::Leaf(slots[t.index()])
                        }
                        mtmlf_query::JoinTree::Node(l, r) => {
                            mtmlf_query::JoinTree::join(relabel(l, slots), relabel(r, slots))
                        }
                    }
                }
                let order = JoinOrder::Bushy(relabel(&best.tree, &serialized.table_slots));
                order.validate(query)?;
                Ok(order)
            }
            None => self.predict_join_order(query, plan),
        }
    }

    /// Predicts the join order for a query given its initial plan, using
    /// the legality-constrained beam search (Section 4.3). The result is
    /// guaranteed executable.
    pub fn predict_join_order(&self, query: &Query, plan: &PlanNode) -> Result<JoinOrder> {
        self.beam_orders(query, plan)?
            .1
            .into_iter()
            .next()
            .ok_or(MtmlfError::NoLegalOrder)
    }

    /// The legality-constrained beam's candidate orders, best-first, with
    /// the serialization of `plan` they were decoded from.
    fn beam_orders(
        &self,
        query: &Query,
        plan: &PlanNode,
    ) -> Result<(SerializedPlan, Vec<JoinOrder>)> {
        let serialized = serialize_plan(&self.featurization, query, plan, &self.config)?;
        let s = self.shared.infer(&serialized.features);
        let table_reps = s.gather_rows(&serialized.scan_node_of_slot);
        // Serving must emit an executable order: legality pruning is
        // forced on regardless of the configured default.
        let candidates = beam_search(
            &self.jo,
            &s,
            &table_reps,
            &serialized.graph,
            &self.config.beam.constrained().left_deep(),
        );
        if candidates.is_empty() {
            return Err(MtmlfError::NoLegalOrder);
        }
        let orders = candidates
            .into_iter()
            .map(|c| {
                JoinOrder::LeftDeep(
                    c.slots
                        .iter()
                        .map(|&slot| serialized.table_slots[slot])
                        .collect(),
                )
            })
            .collect();
        Ok((serialized, orders))
    }

    /// Multi-task consistent inference (the paper's Section 2.3: "the
    /// inference of each task can effectively take others into
    /// consideration, guaranteed to make consistent decisions"): the beam's
    /// candidate orders are re-ranked by the model's *own* CostEst head —
    /// each candidate becomes a plan, and the predicted root cost picks the
    /// winner. Joint training makes this possible; the single-task
    /// MTMLF-JoinSel ablation has no trained cost head and cannot veto a
    /// catastrophic candidate, which is one mechanism behind Table 2's
    /// joint ≻ single-task gap.
    ///
    /// Each candidate reuses the scan rows of the beam's own serialization
    /// ([`reserialize_plan`]) and is scored on its root row alone
    /// ([`Self::estimate_root`]).
    pub fn predict_join_order_costed(&self, query: &Query, plan: &PlanNode) -> Result<JoinOrder> {
        let (initial, candidates) = self.beam_orders(query, plan)?;
        let mut best: Option<(f64, JoinOrder)> = None;
        for order in candidates {
            let candidate = reserialize_plan(&initial, query, &order.to_plan()?, &self.config)?;
            let (_, root_cost) = self.estimate_root(&candidate)?;
            if best.as_ref().is_none_or(|(c, _)| root_cost < *c) {
                best = Some((root_cost, order));
            }
        }
        best.map(|(_, order)| order).ok_or(MtmlfError::NoLegalOrder)
    }

    /// Derives the deterministic initial left-deep plan the model's
    /// serializer expects: a greedy legal order over the query's join graph
    /// (the same construction the training pipeline uses). Callers that
    /// only have a [`Query`] never need to build a [`PlanNode`] themselves.
    pub fn initial_plan(&self, query: &Query) -> Result<PlanNode> {
        let order = mtmlf_exec::executor::greedy_legal_order(query)?;
        Ok(PlanNode::left_deep(&order)?)
    }

    /// Plans a query end to end: derives the initial plan internally and
    /// runs the legality-constrained beam search. This is the one-call
    /// facade used by [`crate::serve::PlannerService`] and external
    /// consumers; `predict_join_order` remains available when a caller
    /// wants to supply its own starting plan.
    pub fn plan(&self, query: &Query) -> Result<JoinOrder> {
        let initial = self.initial_plan(query)?;
        match self.config.beam.shape {
            crate::beam::TreeShape::LeftDeep => self.predict_join_order(query, &initial),
            crate::beam::TreeShape::Bushy => self.predict_bushy_join_order(query, &initial),
        }
    }

    /// Plans a query and returns the predicted join order together with the
    /// model's root cardinality and cost estimates for the chosen plan —
    /// exactly the payload a [`crate::serve::PlanResponse`] carries.
    pub fn plan_with_estimates(&self, query: &Query) -> Result<(JoinOrder, f64, f64)> {
        let order = self.plan(query)?;
        let (card, cost) = self.predict_root(query, &order.to_plan()?)?;
        Ok((order, card, cost))
    }

    pub(crate) fn shared_module(&self) -> &SharedModule {
        &self.shared
    }

    pub(crate) fn jo_module(&self) -> &TransJo {
        &self.jo
    }

    /// All parameters (featurization + shared + task modules), in the
    /// stable order weight files list them in.
    pub fn all_parameters(&self) -> Vec<&mtmlf_nn::Matrix> {
        let mut p = self.featurization.parameters();
        p.extend(crate::train::st_parameters(
            &self.shared,
            &self.heads,
            &self.jo,
        ));
        p
    }

    /// [`Self::all_parameters`], mutably (weight loading).
    pub(crate) fn all_parameters_mut(&mut self) -> Vec<&mut mtmlf_nn::Matrix> {
        let mut p = self.featurization.parameters_mut();
        p.extend(crate::train::st_parameters_mut(
            &mut self.shared,
            &mut self.heads,
            &mut self.jo,
        ));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };
    use mtmlf_optd::q_error;

    fn setup(count: usize) -> (Database, Vec<LabeledQuery>) {
        let mut db = imdb_lite(1, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            5,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        (db, labeled)
    }

    #[test]
    fn end_to_end_predictions_valid() {
        let (db, labeled) = setup(6);
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 20;
        cfg.enc_epochs = 2;
        cfg.epochs = 2;
        let mut model = MtmlfQo::new(&db, cfg).unwrap();
        model.train(&labeled).unwrap();
        for l in &labeled {
            let preds = model.predict_nodes(&l.query, &l.plan).unwrap();
            assert_eq!(preds.len(), l.plan.node_count());
            for (card, cost) in preds {
                assert!(card >= 1.0 && card.is_finite());
                assert!(cost >= 1.0 && cost.is_finite());
            }
            let order = model.predict_join_order(&l.query, &l.plan).unwrap();
            order.validate(&l.query).unwrap();
        }
    }

    #[test]
    fn training_improves_card_estimates() {
        let (db, labeled) = setup(24);
        let (train, test) = labeled.split_at(18);
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 60;
        cfg.enc_epochs = 15;
        cfg.epochs = 10;
        let geo_mean_qerr = |model: &MtmlfQo| -> f64 {
            let mut total = 0.0;
            let mut n = 0;
            for l in test {
                let preds = model.predict_nodes(&l.query, &l.plan).unwrap();
                for (i, (card, _)) in preds.iter().enumerate() {
                    total += q_error(*card, l.node_cards[i] as f64).ln();
                    n += 1;
                }
            }
            (total / n as f64).exp()
        };
        let mut model = MtmlfQo::new(&db, cfg).unwrap();
        let before = geo_mean_qerr(&model);
        model.train(train).unwrap();
        let after = geo_mean_qerr(&model);
        assert!(after < before, "q-error improves: {before} -> {after}");
    }

    #[test]
    fn transferable_modules_are_copies() {
        let (db, labeled) = setup(4);
        let mut cfg = MtmlfConfig::tiny();
        cfg.enc_queries = 10;
        cfg.enc_epochs = 1;
        cfg.epochs = 1;
        let mut model = MtmlfQo::new(&db, cfg.clone()).unwrap();
        let (shared, heads, jo) = model.transferable_modules();
        // Training the model leaves the copies as they were.
        let values = |m: &SharedModule| -> Vec<mtmlf_nn::Matrix> {
            mtmlf_nn::layers::Module::parameters(m)
                .into_iter()
                .cloned()
                .collect()
        };
        let before = values(&shared);
        model.train(&labeled).unwrap();
        assert!(values(&shared) == before, "training moved a copy");
        assert!(values(&model.shared) != before, "training moved nothing");
        // And the copies can be attached to a new featurizer.
        let f2 = FeaturizationModule::untrained(&db, &cfg).unwrap();
        let model2 = MtmlfQo::from_modules(f2, shared, heads, jo, cfg);
        let l = &labeled[0];
        let order = model2.predict_join_order(&l.query, &l.plan).unwrap();
        order.validate(&l.query).unwrap();
    }
}

#[cfg(test)]
mod two_phase_tests {
    use super::*;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };

    #[test]
    fn two_phase_training_runs_and_stays_finite() {
        let mut db = imdb_lite(13, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 12,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            6,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        let (cheap, precious) = labeled.split_at(8);
        let cfg = MtmlfConfig {
            enc_queries: 15,
            enc_epochs: 2,
            epochs: 2,
            seed: 13,
            ..MtmlfConfig::tiny()
        };
        let mut model = MtmlfQo::new(&db, cfg).unwrap();
        let (h1, h2) = model.train_two_phase(cheap, precious, 2).unwrap();
        assert_eq!(h1.len(), 2);
        assert_eq!(h2.len(), 2);
        assert!(h1.iter().chain(&h2).all(|l| l.is_finite()));
        // The model still produces legal orders afterwards.
        for l in &labeled {
            model
                .predict_join_order(&l.query, &l.plan)
                .unwrap()
                .validate(&l.query)
                .unwrap();
        }
    }
}

#[cfg(test)]
mod costed_inference_tests {
    use super::*;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };

    #[test]
    fn costed_order_legal_and_never_worse_under_own_cost_model() {
        let mut db = imdb_lite(15, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 10,
                min_tables: 3,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            8,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        let cfg = MtmlfConfig {
            enc_queries: 20,
            enc_epochs: 3,
            epochs: 4,
            seed: 15,
            ..MtmlfConfig::tiny()
        };
        let mut model = MtmlfQo::new(&db, cfg).unwrap();
        model.train(&labeled).unwrap();
        for l in &labeled {
            let plain = model.predict_join_order(&l.query, &l.plan).unwrap();
            let costed = model.predict_join_order_costed(&l.query, &l.plan).unwrap();
            plain.validate(&l.query).unwrap();
            costed.validate(&l.query).unwrap();
            // The costed pick has predicted root cost ≤ the plain pick's.
            let cost_of = |o: &JoinOrder| -> f64 {
                let plan = o.to_plan().unwrap();
                model
                    .predict_nodes(&l.query, &plan)
                    .unwrap()
                    .last()
                    .unwrap()
                    .1
            };
            assert!(cost_of(&costed) <= cost_of(&plain) + 1e-9);
        }
    }
}

#[cfg(test)]
mod advisor_tests {
    use super::*;
    use crate::config::LossWeights;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };

    #[test]
    fn advisor_learns_access_path_selection() {
        let mut db = imdb_lite(17, ImdbScale { scale: 0.03 }).unwrap();
        db.analyze_all(16, 8);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 60,
                min_tables: 2,
                max_tables: 4,
                filter_prob: 1.0,
                ..WorkloadConfig::default()
            },
            14,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        let (train, test) = labeled.split_at(labeled.len() - 12);
        let cfg = MtmlfConfig {
            weights: LossWeights::with_advisor(),
            enc_queries: 60,
            enc_epochs: 10,
            epochs: 10,
            seed: 17,
            ..MtmlfConfig::tiny()
        };
        let mut model = MtmlfQo::new(&db, cfg).unwrap();
        model.train(train).unwrap();
        // Compare recommendations against the true cheaper access path.
        let coefficients = mtmlf_exec::cost::OperatorCost::default();
        let mut correct = 0usize;
        let mut total = 0usize;
        for l in test {
            let recs = model.recommend_access_paths(&l.query, &l.plan).unwrap();
            for (i, node) in l.plan.post_order().iter().enumerate() {
                if let mtmlf_query::PlanNode::Scan { table, .. } = node {
                    let rows = db.table(*table).unwrap().rows() as f64;
                    let out = l.node_cards[i] as f64;
                    let seq = mtmlf_exec::cost::CostTracker::scan_cost(
                        &coefficients,
                        mtmlf_query::ScanOp::SeqScan,
                        rows,
                        out,
                    );
                    let idx = mtmlf_exec::cost::CostTracker::scan_cost(
                        &coefficients,
                        mtmlf_query::ScanOp::IndexScan,
                        rows,
                        out,
                    );
                    let truth = if idx < seq {
                        mtmlf_query::ScanOp::IndexScan
                    } else {
                        mtmlf_query::ScanOp::SeqScan
                    };
                    let rec = recs
                        .iter()
                        .find(|(t, _)| t == table)
                        .map(|(_, op)| *op)
                        .unwrap();
                    if rec == truth {
                        correct += 1;
                    }
                    total += 1;
                }
            }
        }
        let accuracy = correct as f64 / total.max(1) as f64;
        assert!(
            accuracy > 0.6,
            "advisor should beat coin flips: {correct}/{total}"
        );
    }
}
