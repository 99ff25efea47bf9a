//! Cross-DB meta-learning integration (paper Section 3.3 / Table 3 logic).

use mtmlf::{MetaLearner, MtmlfConfig, MtmlfQo};
use mtmlf_datagen::{
    generate_database, generate_queries, label_workload, LabelConfig, LabeledQuery, PipelineConfig,
    WorkloadConfig,
};
use mtmlf_nn::layers::Module;
use mtmlf_storage::{Database, TableId};

fn make_db(seed: u64) -> (Database, Vec<LabeledQuery>) {
    let pipeline = PipelineConfig {
        min_rows: 150,
        max_rows: 600,
        max_attrs: 4,
        ..PipelineConfig::tiny()
    };
    let mut db = generate_database(&format!("xfer{seed}"), seed, &pipeline).unwrap();
    db.analyze_all(8, 4);
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 8,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        seed ^ 0x1234,
    );
    let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
    (db, labeled)
}

fn config() -> MtmlfConfig {
    MtmlfConfig {
        enc_queries: 15,
        enc_epochs: 2,
        epochs: 2,
        seed: 5,
        ..MtmlfConfig::tiny()
    }
}

#[test]
fn mla_pretrain_transfer_and_finetune() {
    let (db_a, wl_a) = make_db(101);
    let (db_b, wl_b) = make_db(102);
    let (db_new, wl_new) = make_db(103);

    let mut meta = MetaLearner::new(config());
    let history = meta
        .pretrain(&[(&db_a, wl_a.as_slice()), (&db_b, wl_b.as_slice())])
        .unwrap();
    assert!(history.iter().all(|l| l.is_finite()));

    // Zero-shot transfer: the shared modules drive a new DB's featurizer.
    let mut model = meta.transfer(&db_new).unwrap();
    for l in &wl_new {
        let order = model.predict_join_order(&l.query, &l.plan).unwrap();
        order.validate(&l.query).unwrap();
    }

    // Fine-tuning on a handful of queries runs and stays finite.
    let history = model.fine_tune(&wl_new[..4], 2, 3e-4).unwrap();
    assert!(history.iter().all(|l| l.is_finite()));
}

#[test]
fn transfer_works_across_different_table_counts() {
    // The pointer-based decoder must handle databases whose table counts
    // differ between pre-training and deployment.
    let (db_a, wl_a) = make_db(104);
    let (db_new, wl_new) = make_db(105);
    assert!(
        db_a.table_count() >= 6 && db_new.table_count() >= 6,
        "pipeline DBs have 6-7 tables"
    );
    let mut meta = MetaLearner::new(config());
    meta.pretrain(&[(&db_a, wl_a.as_slice())]).unwrap();
    let model = meta.transfer(&db_new).unwrap();
    for l in &wl_new {
        let preds = model.predict_nodes(&l.query, &l.plan).unwrap();
        assert_eq!(preds.len(), l.plan.node_count());
    }
}

#[test]
fn featurizers_are_db_specific_but_modules_shared() {
    let (db_a, wl_a) = make_db(106);
    let (db_b, _) = make_db(107);
    let mut meta = MetaLearner::new(config());
    meta.pretrain(&[(&db_a, wl_a.as_slice())]).unwrap();
    let m1 = meta.transfer(&db_b).unwrap();
    let m2 = meta.transfer(&db_b).unwrap();
    // Both transfers copy the meta-learner's (S)/(T) parameters and re-fit
    // db_b's featurizer with the same seed, so their predictions on a fresh
    // db_b workload agree exactly.
    let queries = generate_queries(
        &db_b,
        &WorkloadConfig {
            count: 3,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        9,
    );
    let labeled = label_workload(&db_b, &queries, &LabelConfig::default()).unwrap();
    for l in &labeled {
        let a = m1.predict_nodes(&l.query, &l.plan).unwrap();
        let b = m2.predict_nodes(&l.query, &l.plan).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn fine_tuning_one_transfer_leaves_the_others_alone() {
    // Each transfer owns its copy of (S)/(T): fine-tuning one model must
    // not move the meta-learner's modules or a sibling model's predictions.
    let (db_a, wl_a) = make_db(113);
    let (db_b, wl_b) = make_db(114);
    let mut meta = MetaLearner::new(config());
    meta.pretrain(&[(&db_a, wl_a.as_slice())]).unwrap();
    let mut tuned = meta.transfer(&db_b).unwrap();
    let sibling = meta.transfer(&db_b).unwrap();
    let predict = |m: &MtmlfQo| -> Vec<Vec<(f64, f64)>> {
        wl_b.iter()
            .map(|l| m.predict_nodes(&l.query, &l.plan).unwrap())
            .collect()
    };
    let before = predict(&sibling);
    assert_eq!(predict(&tuned), before);
    tuned.fine_tune(&wl_b[..4], 2, 1e-2).unwrap();
    assert_ne!(predict(&tuned), before, "fine-tuning moved nothing");
    assert_eq!(
        predict(&sibling),
        before,
        "fine-tuning leaked into a sibling"
    );
    let later = meta.transfer(&db_b).unwrap();
    assert_eq!(
        predict(&later),
        before,
        "fine-tuning leaked into the meta-learner"
    );
}

/// Every encoder parameter of a model's featurizer, as bit patterns.
fn encoder_bits(model: &MtmlfQo) -> Vec<Vec<u32>> {
    let f = model.featurization();
    (0..f.table_count() as u32)
        .flat_map(|t| f.encoder(TableId(t)).unwrap().parameters())
        .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn racing_transfers_fit_the_same_encoders_as_one() {
    // `transfer` fits its tables' encoders on several threads; two
    // transfers racing on two more threads must still each produce the
    // encoders of a transfer run alone.
    let (db_a, wl_a) = make_db(108);
    let (db_b, _) = make_db(109);
    let mut meta = MetaLearner::new(config());
    meta.pretrain(&[(&db_a, wl_a.as_slice())]).unwrap();
    let alone = encoder_bits(&meta.transfer(&db_b).unwrap());
    let start = std::sync::Barrier::new(2);
    let racing_transfer = || {
        start.wait();
        meta.transfer(&db_b).unwrap()
    };
    let (x, y) = std::thread::scope(|s| {
        let x = s.spawn(racing_transfer);
        let y = s.spawn(racing_transfer);
        (x.join().unwrap(), y.join().unwrap())
    });
    assert!(!alone.is_empty());
    assert!(encoder_bits(&x) == alone, "first racing transfer differs");
    assert!(encoder_bits(&y) == alone, "second racing transfer differs");
}

/// FNV-1a 64 over the bits of every parameter, in order.
fn parameter_digest(params: &[Vec<u32>]) -> u64 {
    let bytes: Vec<u8> = params
        .iter()
        .flatten()
        .flat_map(|bits| bits.to_le_bytes())
        .collect();
    mtmlf::envelope::fnv1a64(&bytes)
}

#[test]
fn trained_bits_match_the_recorded_digest() {
    // Every training loop at a fixed seed: a featurizer fitted on its own,
    // a two-database pretrain, a transfer and a fine-tune. The constants
    // pin the trained bits, so any change to the tape, the kernels or
    // Adam that moves one bit of one parameter fails here.
    let (db_a, wl_a) = make_db(110);
    let (db_b, wl_b) = make_db(111);
    let (db_new, wl_new) = make_db(112);
    let featurizer = mtmlf::FeaturizationModule::fit(&db_a, &config()).unwrap();
    let mut meta = MetaLearner::new(config());
    meta.pretrain(&[(&db_a, wl_a.as_slice()), (&db_b, wl_b.as_slice())])
        .unwrap();
    let mut model = meta.transfer(&db_new).unwrap();
    model.fine_tune(&wl_new[..4], 2, 3e-4).unwrap();

    let bits = |params: Vec<&mtmlf_nn::Matrix>| -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let mut params = bits(featurizer.parameters());
    params.extend(bits(model.all_parameters()));
    let path = std::env::temp_dir().join(format!("mtmlf-digest-{}.bin", std::process::id()));
    model.save_weights(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let digests = (parameter_digest(&params), mtmlf::envelope::fnv1a64(&saved));
    // Recorded at the commit before the flat training tape replaced the
    // reference-counted graph; the tape changed no bit.
    assert_eq!(digests, (0x42fa_54b4_f717_c668, 0x20b8_eaa7_5ec4_bf6b));
}
