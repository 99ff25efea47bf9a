//! The violation baseline: a checked-in ratchet for existing debt.
//!
//! `lint.baseline` records, per `(rule, file)`, how many violations are
//! tolerated. `--check` fails only when a count *exceeds* its baseline —
//! new debt is rejected, old debt can be burned down incrementally. When a
//! file drops below its baseline the run reports the slack so the baseline
//! can be tightened (`--update-baseline` rewrites it from reality).
//!
//! Format: one entry per line, `<rule> <count> <file>`, `#` comments,
//! sorted. Hand-editable; no JSON parser needed.

use crate::rules::Violation;
use std::collections::BTreeMap;

/// Baseline counts keyed by `(rule, file)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Tolerated violation counts.
    pub counts: BTreeMap<(String, String), u64>,
}

/// Outcome of comparing current violations against the baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Violations beyond the baseline (these fail `--check`).
    pub new: Vec<Violation>,
    /// `(rule, file, baseline, actual)` where actual < baseline.
    pub improved: Vec<(String, String, u64, u64)>,
    /// Baseline entries whose file no longer has any violations at all.
    pub stale: Vec<(String, String, u64)>,
}

impl Baseline {
    /// Parses the baseline text format (missing file ⇒ empty baseline).
    pub fn parse(text: &str) -> Self {
        let mut counts = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(rule), Some(count), Some(file)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            if let Ok(count) = count.parse::<u64>() {
                counts.insert((rule.to_string(), file.trim().to_string()), count);
            }
        }
        Self { counts }
    }

    /// Renders the baseline text format from current violations.
    pub fn render(violations: &[Violation]) -> String {
        let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
        for v in violations {
            *counts
                .entry((v.rule.to_string(), v.file.clone()))
                .or_default() += 1;
        }
        let mut out = String::from(
            "# mtmlf-lint baseline: tolerated per-file violation counts.\n\
             # `cargo run -p mtmlf-lint -- --check` fails only when a count grows.\n\
             # Burn debt down, then `--update-baseline` to ratchet. Format: rule count file\n",
        );
        for ((rule, file), count) in counts {
            out.push_str(&format!("{rule} {count} {file}\n"));
        }
        out
    }

    /// Splits current violations into new-vs-baseline and improvements.
    pub fn compare(&self, violations: &[Violation]) -> Comparison {
        let mut grouped: BTreeMap<(String, String), Vec<&Violation>> = BTreeMap::new();
        for v in violations {
            grouped
                .entry((v.rule.to_string(), v.file.clone()))
                .or_default()
                .push(v);
        }
        let mut cmp = Comparison::default();
        for (key, vs) in &grouped {
            let budget = self.counts.get(key).copied().unwrap_or(0);
            let actual = vs.len() as u64;
            if actual > budget {
                // Report the overflow, attributed to the trailing hits so
                // diagnostics stay stable as files grow from the top.
                for v in vs.iter().skip(budget as usize) {
                    cmp.new.push((*v).clone());
                }
            } else if actual < budget {
                cmp.improved
                    .push((key.0.clone(), key.1.clone(), budget, actual));
            }
        }
        for (key, &budget) in &self.counts {
            if !grouped.contains_key(key) {
                cmp.stale.push((key.0.clone(), key.1.clone(), budget));
            }
        }
        cmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, file: &str, line: u32) -> Violation {
        Violation {
            rule,
            file: file.to_string(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn parse_render_roundtrip() {
        let violations = vec![
            v("L1", "crates/a/src/x.rs", 3),
            v("L1", "crates/a/src/x.rs", 9),
            v("L2", "crates/b/src/y.rs", 1),
        ];
        let text = Baseline::render(&violations);
        let parsed = Baseline::parse(&text);
        assert_eq!(
            parsed
                .counts
                .get(&("L1".into(), "crates/a/src/x.rs".into())),
            Some(&2)
        );
        assert_eq!(
            parsed
                .counts
                .get(&("L2".into(), "crates/b/src/y.rs".into())),
            Some(&1)
        );
    }

    #[test]
    fn growth_is_new_shrink_is_improved_absence_is_stale() {
        let baseline = Baseline::parse("L1 2 f.rs\nL2 1 gone.rs\n");
        let current = vec![
            v("L1", "f.rs", 1),
            v("L1", "f.rs", 2),
            v("L1", "f.rs", 3),
            v("L4", "h.rs", 7),
        ];
        let cmp = baseline.compare(&current);
        // f.rs grew 2 → 3: exactly one new violation; h.rs is all new.
        assert_eq!(cmp.new.len(), 2);
        assert!(cmp.new.iter().any(|n| n.file == "h.rs"));
        assert_eq!(cmp.stale, vec![("L2".into(), "gone.rs".into(), 1)]);
        assert!(cmp.improved.is_empty());

        let cmp = baseline.compare(&[v("L1", "f.rs", 1)]);
        assert!(cmp.new.is_empty());
        assert_eq!(cmp.improved, vec![("L1".into(), "f.rs".into(), 2, 1)]);
    }

    #[test]
    fn empty_baseline_tolerates_nothing() {
        let cmp = Baseline::default().compare(&[v("L1", "f.rs", 1)]);
        assert_eq!(cmp.new.len(), 1);
    }
}
