//! Model persistence: save and load MTMLF-QO weights.
//!
//! The weight file carries the parameter values of the featurization
//! module (per-table encoders) and of the transferable (S)/(T) modules, in
//! a stable order. The architecture (widths, depths, table count) is *not*
//! stored — it comes from the [`crate::MtmlfConfig`] and database used to
//! rebuild the model, and every shape is validated at load time.
//!
//! # On-disk format
//!
//! The [`crate::envelope`] (magic `b"MTMLFQO\x01"`, payload length,
//! FNV-1a 64 checksum) wraps the raw parameter payload produced by
//! [`mtmlf_nn::serialize::save_parameters`].
//!
//! A truncated, bit-flipped, or foreign file fails with a descriptive
//! [`MtmlfError::Corrupt`] before any parameter is touched, instead of
//! surfacing as a confusing shape error — or worse, loading garbage. A raw
//! `mtmlf-nn` payload without the envelope fails the magic check.
//!
//! This realizes the paper's deployment story: the provider trains and
//! ships the (S)/(T) weights; the user instantiates the architecture
//! locally and loads them.

use crate::envelope;
use crate::model::MtmlfQo;
use crate::MtmlfError;
use crate::Result;
use mtmlf_nn::serialize::{load_parameters, save_parameters};
use std::fs;
use std::path::Path;

/// Magic + format version of the enveloped weight file.
const WEIGHTS_MAGIC: &[u8; 8] = b"MTMLFQO\x01";

impl MtmlfQo {
    /// Saves all weights to a file, wrapped in the checksummed envelope
    /// described in the [module docs](self).
    pub fn save_weights(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut payload = Vec::new();
        save_parameters(&mut payload, &self.all_parameters()).map_err(MtmlfError::from)?;
        fs::write(path, envelope::seal(WEIGHTS_MAGIC, &payload)).map_err(MtmlfError::from)
    }

    /// Loads weights saved by [`MtmlfQo::save_weights`] into this model.
    ///
    /// The envelope's magic, length, and checksum are validated before any
    /// parameter is touched; failures return [`MtmlfError::Corrupt`]. The
    /// model must have been built with the same configuration and database
    /// shape; mismatches are rejected.
    pub fn load_weights(&mut self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = fs::read(path).map_err(MtmlfError::from)?;
        let payload = envelope::unseal(&bytes, WEIGHTS_MAGIC, "mtmlf weight file")?;
        load_parameters(payload, self.all_parameters_mut()).map_err(MtmlfError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MtmlfConfig;
    use mtmlf_datagen::{
        generate_queries, imdb::ImdbScale, imdb_lite, label_workload, LabelConfig, WorkloadConfig,
    };

    #[test]
    fn weights_roundtrip_preserves_predictions() {
        let mut db = imdb_lite(9, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 6,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            5,
        );
        let labeled = label_workload(&db, &queries, &LabelConfig::default()).unwrap();
        let cfg = MtmlfConfig {
            enc_queries: 15,
            enc_epochs: 2,
            epochs: 2,
            seed: 9,
            ..MtmlfConfig::tiny()
        };
        let mut trained = MtmlfQo::new(&db, cfg.clone()).unwrap();
        trained.train(&labeled).unwrap();
        let dir = std::env::temp_dir().join("mtmlf_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.bin");
        trained.save_weights(&path).unwrap();

        // A fresh model with the same config but different seed-derived
        // weights; after loading it must agree exactly.
        let mut fresh = MtmlfQo::new(&db, MtmlfConfig { seed: 77, ..cfg }).unwrap();
        let l = &labeled[0];
        let before = fresh.predict_nodes(&l.query, &l.plan).unwrap();
        fresh.load_weights(&path).unwrap();
        let after = fresh.predict_nodes(&l.query, &l.plan).unwrap();
        let reference = trained.predict_nodes(&l.query, &l.plan).unwrap();
        assert_ne!(before, reference, "different init predicts differently");
        assert_eq!(after, reference, "loaded weights reproduce predictions");
        let order_a = fresh.predict_join_order(&l.query, &l.plan).unwrap();
        let order_b = trained.predict_join_order(&l.query, &l.plan).unwrap();
        assert_eq!(order_a, order_b);
        std::fs::remove_file(&path).ok();
    }

    fn tiny_model(seed: u64) -> (MtmlfQo, std::path::PathBuf) {
        let mut db = imdb_lite(10, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let cfg = MtmlfConfig {
            enc_queries: 5,
            enc_epochs: 1,
            seed,
            ..MtmlfConfig::tiny()
        };
        let model = MtmlfQo::new(&db, cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("mtmlf_persist_{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        (model, dir)
    }

    #[test]
    fn wrong_architecture_rejected() {
        let mut db = imdb_lite(10, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let small = MtmlfConfig {
            enc_queries: 5,
            enc_epochs: 1,
            seed: 1,
            ..MtmlfConfig::tiny()
        };
        let big = MtmlfConfig {
            d_model: 32,
            ..small.clone()
        };
        let a = MtmlfQo::new(&db, small).unwrap();
        let mut b = MtmlfQo::new(&db, big).unwrap();
        let dir = std::env::temp_dir().join("mtmlf_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.bin");
        a.save_weights(&path).unwrap();
        assert!(b.load_weights(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_shape_error() {
        let (mut model, dir) = tiny_model(21);
        let path = dir.join("weights.bin");
        model.save_weights(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-payload: the length check must fire before parsing.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        match model.load_weights(&path) {
            Err(MtmlfError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Header alone cut short: bad-magic path.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            model.load_weights(&path),
            Err(MtmlfError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let (mut model, dir) = tiny_model(22);
        let path = dir.join("weights.bin");
        model.save_weights(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = envelope::HEADER_LEN + (bytes.len() - envelope::HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match model.load_weights(&path) {
            Err(MtmlfError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headerless_payload_fails_the_magic_check() {
        let (mut model, dir) = tiny_model(23);
        let path = dir.join("headerless.bin");
        // A raw mtmlf-nn payload with no envelope around it.
        let mut payload = Vec::new();
        save_parameters(&mut payload, &model.all_parameters()).unwrap();
        std::fs::write(&path, &payload).unwrap();
        match model.load_weights(&path) {
            Err(MtmlfError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let (mut model, dir) = tiny_model(24);
        let path = dir.join("does_not_exist.bin");
        assert!(matches!(model.load_weights(&path), Err(MtmlfError::Io(_))));
    }
}
