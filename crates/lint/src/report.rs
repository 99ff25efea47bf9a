//! Machine-readable report (`results/LINT.json`), hand-rolled writer.

use crate::baseline::Comparison;
use crate::interleave::Exploration;
use crate::ir::IrStats;
use crate::rules::Violation;
use std::collections::BTreeMap;

/// `results/LINT.json` schema version. v2 added `schema_version` itself,
/// the G1/G2/L5/L6 per-pass counts, the `advisory` (report-only bench)
/// section, `ir` extraction stats, and the `models_passed` tally.
pub const SCHEMA_VERSION: u32 = 2;

/// Rule ids reported in `rule_counts`, in render order.
pub const ALL_RULES: &[&str] = &["L1", "L2", "L4", "G1", "G2", "L5", "L6"];

/// Everything one lint run learned, serializable to `results/LINT.json`.
#[derive(Debug, Default)]
pub struct Report {
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations (baseline-tolerated ones included; `new_violations`
    /// carries the delta that fails `--check`).
    pub violations: Vec<Violation>,
    /// Report-only findings (`crates/bench`): recorded, never fatal.
    pub advisory: Vec<Violation>,
    /// Hits suppressed via `// lint: allow(...)`.
    pub allowed: Vec<Violation>,
    /// Aggregate IR-extraction counts (fn items, calls, guards, …).
    pub ir_stats: IrStats,
    /// Count of violations beyond the baseline.
    pub new_violations: usize,
    /// `(rule, file, baseline, actual)` improvements vs. the baseline.
    pub improved: Vec<(String, String, u64, u64)>,
    /// Baseline entries with no remaining violations.
    pub stale_baseline: Vec<(String, String, u64)>,
    /// Model-checker results: name → exploration stats.
    pub models: Vec<(&'static str, Exploration)>,
    /// Model-checker failure, if any: (model, message).
    pub model_failure: Option<(String, String)>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn violation_json(v: &Violation, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
        v.rule,
        esc(&v.file),
        v.line,
        esc(&v.message)
    )
}

impl Report {
    /// Applies a baseline comparison to the report.
    pub fn absorb(&mut self, cmp: Comparison) {
        self.new_violations = cmp.new.len();
        self.improved = cmp.improved;
        self.stale_baseline = cmp.stale;
    }

    /// Per-rule violation counts.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule).or_default() += 1;
        }
        counts
    }

    /// Whether `--check` should fail.
    pub fn failed(&self) -> bool {
        self.new_violations > 0 || self.model_failure.is_some()
    }

    /// Per-rule advisory counts (bench report-only findings).
    pub fn advisory_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for v in &self.advisory {
            *counts.entry(v.rule).or_default() += 1;
        }
        counts
    }

    /// Renders the full JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"tool\": \"mtmlf-lint\",\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"check_passed\": {},\n",
            if self.failed() { "false" } else { "true" }
        ));

        out.push_str("  \"rule_counts\": {");
        let counts = self.rule_counts();
        let parts: Vec<String> = ALL_RULES
            .iter()
            .map(|r| format!("\"{}\": {}", r, counts.get(*r).copied().unwrap_or(0)))
            .collect();
        out.push_str(&parts.join(", "));
        out.push_str("},\n");

        out.push_str("  \"advisory_counts\": {");
        let acounts = self.advisory_counts();
        let parts: Vec<String> = ALL_RULES
            .iter()
            .map(|r| format!("\"{}\": {}", r, acounts.get(*r).copied().unwrap_or(0)))
            .collect();
        out.push_str(&parts.join(", "));
        out.push_str("},\n");

        out.push_str(&format!(
            "  \"ir\": {{\"functions\": {}, \"calls\": {}, \"guards\": {}, \"channels\": {}, \"spawns\": {}}},\n",
            self.ir_stats.functions,
            self.ir_stats.calls,
            self.ir_stats.guards,
            self.ir_stats.channels,
            self.ir_stats.spawns,
        ));

        // On a model failure the suite aborts and `models` stays empty, so
        // this is simply "how many models ran to completion".
        out.push_str(&format!("  \"models_passed\": {},\n", self.models.len()));

        out.push_str(&format!("  \"new_violations\": {},\n", self.new_violations));

        out.push_str("  \"violations\": [\n");
        let vs: Vec<String> = self
            .violations
            .iter()
            .map(|v| violation_json(v, "    "))
            .collect();
        out.push_str(&vs.join(",\n"));
        if !vs.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"advisory\": [\n");
        let adv: Vec<String> = self
            .advisory
            .iter()
            .map(|v| violation_json(v, "    "))
            .collect();
        out.push_str(&adv.join(",\n"));
        if !adv.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"allowed\": [\n");
        let al: Vec<String> = self
            .allowed
            .iter()
            .map(|v| violation_json(v, "    "))
            .collect();
        out.push_str(&al.join(",\n"));
        if !al.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"baseline_improvements\": [\n");
        let imp: Vec<String> = self
            .improved
            .iter()
            .map(|(rule, file, budget, actual)| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"baseline\": {budget}, \"actual\": {actual}}}",
                    rule,
                    esc(file)
                )
            })
            .collect();
        out.push_str(&imp.join(",\n"));
        if !imp.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"models\": [\n");
        let ms: Vec<String> = self
            .models
            .iter()
            .map(|(name, stats)| {
                format!(
                    "    {{\"name\": \"{name}\", \"schedules\": {}, \"steps\": {}}}",
                    stats.schedules, stats.steps
                )
            })
            .collect();
        out.push_str(&ms.join(",\n"));
        if !ms.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        match &self.model_failure {
            Some((model, message)) => out.push_str(&format!(
                "  \"model_failure\": {{\"model\": \"{}\", \"message\": \"{}\"}}\n",
                esc(model),
                esc(message)
            )),
            None => out.push_str("  \"model_failure\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Renders a minimal SARIF 2.1.0 document (one run, one result per
    /// violation; advisory findings carry level `note`, everything else
    /// `warning` when baseline-tolerated semantics apply). Uploaded as a CI
    /// artifact so findings render in code-scanning UIs.
    pub fn to_sarif(&self) -> String {
        fn result_json(v: &Violation, level: &str) -> String {
            format!(
                concat!(
                    "        {{\"ruleId\": \"{}\", \"level\": \"{}\", ",
                    "\"message\": {{\"text\": \"{}\"}}, \"locations\": [{{",
                    "\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, ",
                    "\"region\": {{\"startLine\": {}}}}}}}]}}"
                ),
                v.rule,
                level,
                esc(&v.message),
                esc(&v.file),
                v.line.max(1),
            )
        }
        let rule_descs: &[(&str, &str)] = &[
            ("L1", "no panic paths in library crates"),
            ("L2", "clock/randomness confinement"),
            ("L4", "error enums wire into MtmlfError"),
            ("G1", "global lock-acquisition graph is acyclic"),
            ("G2", "no blocking operation while a guard is live"),
            ("L5", "no allocation in // lint: hot-path functions"),
            ("L6", "no unbounded channels without an escape hatch"),
        ];
        let mut out = String::from("{\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        out.push_str("  \"runs\": [{\n");
        out.push_str("    \"tool\": {\"driver\": {\"name\": \"mtmlf-lint\", \"rules\": [\n");
        let rules: Vec<String> = rule_descs
            .iter()
            .map(|(id, desc)| {
                format!(
                    "      {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{desc}\"}}}}"
                )
            })
            .collect();
        out.push_str(&rules.join(",\n"));
        out.push_str("\n    ]}},\n");
        out.push_str("    \"results\": [\n");
        let mut results: Vec<String> = self
            .violations
            .iter()
            .map(|v| result_json(v, "warning"))
            .collect();
        results.extend(self.advisory.iter().map(|v| result_json(v, "note")));
        out.push_str(&results.join(",\n"));
        if !results.is_empty() {
            out.push('\n');
        }
        out.push_str("    ]\n");
        out.push_str("  }]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut report = Report {
            files_scanned: 3,
            ..Report::default()
        };
        report.violations.push(Violation {
            rule: "L1",
            file: "a\"b.rs".to_string(),
            line: 7,
            message: "bad\nthing".to_string(),
        });
        let json = report.to_json();
        assert!(json.contains("\\\"b.rs"));
        assert!(json.contains("bad\\nthing"));
        assert!(json.contains("\"L1\": 1"));
        assert!(json.contains("\"check_passed\": true"));
    }
}
