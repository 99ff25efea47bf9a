//! The MTMLF lint catalog (L1, L2, L4) over lexed token streams.
//!
//! | rule | name         | invariant |
//! |------|--------------|-----------|
//! | L1   | `panic`      | no `unwrap()` / `expect()` / `panic!`-family macros in library-crate non-test code |
//! | L2   | `clock`      | no wall-clock or OS randomness outside `serve.rs` / bench code; *strict* in `trace.rs` / `metrics.rs` / `lifecycle.rs`, where any `Instant`/`SystemTime` token is flagged — the observability and lifecycle layers read time only through the injectable `Clock` |
//! | L4   | `error-impl` | every public error enum implements `std::error::Error` and `From`-converts (possibly transitively) into `MtmlfError` |
//!
//! Every rule honors the `// lint: allow(<name>)` escape hatch (same line,
//! or a directive-only comment covering the next line); allowed hits are
//! counted separately so debt stays visible. Test code (`#[cfg(test)]`
//! items, `tests/`, `benches/`) is exempt from L1/L2 — panics are the
//! correct failure mode for a test.
//!
//! The matchers are token patterns with brace-depth bookkeeping, not a
//! parser. Where that forces an approximation, the approximation is
//! conservative and documented inline.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// Crate directories under `crates/` that count as library code for L1.
pub const LIBRARY_CRATES: &[&str] = &[
    "core", "nn", "exec", "query", "storage", "treelstm", "optd", "datagen",
];

/// Crate directories exempt from L2 entirely (measurement is their job, or
/// they are the lint itself).
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["bench", "lint"];

/// Library-crate files where L2 is *strict*: the observability layer must
/// read time only through the injectable `Clock` abstraction, so any
/// `Instant` / `SystemTime` token — even a type annotation or an
/// `.elapsed()` on a stored stamp, which ordinary L2 permits — is a
/// violation here. This is what makes traces replayable under `ManualClock`
/// and keeps histogram tests deterministic. `lifecycle.rs` is held to the
/// same bar: the registry and the swap point name no clock, so swap and
/// re-adopt tests replay deterministically. `durable.rs` too:
/// log-record stamps come from the injected clock, so recovery tests can
/// replay byte-identical logs.
pub const CLOCK_STRICT_FILES: &[&str] = &["trace.rs", "metrics.rs", "lifecycle.rs", "durable.rs"];

/// One rule violation with a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `L1`, `L2` or `L4`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// A hit suppressed by `// lint: allow(...)` — reported, not failed.
pub type Allowed = Violation;

/// Where a file sits in the workspace, as far as the rules care.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Directory name under `crates/` (`None` for the root package).
    pub crate_dir: Option<String>,
    /// Inside `tests/` or `benches/` (integration tests / benchmarks).
    pub in_test_tree: bool,
    /// File name (last path component).
    pub file_name: String,
    /// Benchmark code: `crates/bench` or the `perfbench/` workspace. Its
    /// findings are advisory (report-only).
    pub bench: bool,
    /// Treat the file as library code even when its crate is not in
    /// [`LIBRARY_CRATES`] — used for the advisory (report-only) pass over
    /// benchmark code.
    pub library_override: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path like `crates/core/src/serve.rs`.
    pub fn of(rel_path: &str) -> Self {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_dir = if parts.len() >= 2 && parts[0] == "crates" {
            Some(parts[1].to_string())
        } else {
            None
        };
        let in_test_tree = parts.iter().any(|p| *p == "tests" || *p == "benches");
        let file_name = parts.last().unwrap_or(&"").to_string();
        let bench = parts[0] == "perfbench" || crate_dir.as_deref() == Some("bench");
        Self {
            crate_dir,
            in_test_tree,
            file_name,
            bench,
            library_override: false,
        }
    }

    /// Whether the per-file rules treat this as library code.
    pub fn is_library_crate(&self) -> bool {
        self.library_override
            || self
                .crate_dir
                .as_deref()
                .is_some_and(|d| LIBRARY_CRATES.contains(&d))
    }

    fn clock_exempt(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|d| CLOCK_EXEMPT_CRATES.contains(&d))
            || self.file_name == "serve.rs"
    }
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]`-gated items, so the
/// per-file rules can skip them.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Scan the attribute body for `cfg … test` or a bare `test`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut saw_cfg = false;
            let mut saw_not = false;
            let mut saw_test_ident = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if toks[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if toks[j].is_ident("not") {
                    saw_not = true;
                } else if toks[j].is_ident("test") {
                    saw_test_ident = true;
                }
                j += 1;
            }
            // `#[cfg(not(test))]` gates *production* code — do not mask it.
            let is_test_attr = (saw_cfg && saw_test_ident && !saw_not)
                || (saw_test_ident && j == i + 4/* #[test] */);
            if is_test_attr {
                // Skip any further attributes, then mask through the end of
                // the gated item: to the matching `}` of its first block, or
                // to a `;` for block-less items (`#[cfg(test)] use …;`).
                let mut k = j;
                while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                    let mut d = 1;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        if toks[k].is_punct('[') {
                            d += 1;
                        } else if toks[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let mut d = 0usize;
                let mut entered = false;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        d += 1;
                        entered = true;
                    } else if toks[k].is_punct('}') {
                        d = d.saturating_sub(1);
                        if entered && d == 0 {
                            mask[k] = true;
                            k += 1;
                            break;
                        }
                    } else if toks[k].is_punct(';') && !entered {
                        mask[k] = true;
                        k += 1;
                        break;
                    }
                    mask[k] = true;
                    k += 1;
                }
                for m in mask.iter_mut().take(k).skip(i) {
                    *m = true;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Records one finding of `rule` — its id and the name its
/// `// lint: allow(<name>)` escape hatch uses — as allowed or as a
/// violation.
fn push(
    violations: &mut Vec<Violation>,
    allowed: &mut Vec<Allowed>,
    lexed: &Lexed,
    (rule, rule_name): (&'static str, &str),
    file: &str,
    line: u32,
    message: String,
) {
    let v = Violation {
        rule,
        file: file.to_string(),
        line,
        message,
    };
    if lexed.is_allowed(line, rule_name) {
        allowed.push(v);
    } else {
        violations.push(v);
    }
}

/// L1: no panicking constructs in library-crate non-test code.
pub fn check_l1(
    rel_path: &str,
    scope: &FileScope,
    lexed: &Lexed,
    mask: &[bool],
    violations: &mut Vec<Violation>,
    allowed: &mut Vec<Allowed>,
) {
    if !scope.is_library_crate() || scope.in_test_tree {
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call = |name: &str| -> bool {
            t.is_ident(name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('(')
        };
        if method_call("unwrap") || method_call("expect") {
            push(
                violations,
                allowed,
                lexed,
                ("L1", "panic"),
                rel_path,
                t.line,
                format!(
                    "`.{}()` in library code can panic; return an error instead \
                     (escape hatch: `// lint: allow(panic)`)",
                    t.text
                ),
            );
        } else if matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && i + 1 < toks.len()
            && toks[i + 1].is_punct('!')
        {
            push(
                violations,
                allowed,
                lexed,
                ("L1", "panic"),
                rel_path,
                t.line,
                format!(
                    "`{}!` in library code aborts the caller; return an error",
                    t.text
                ),
            );
        }
    }
}

/// L2: planning must be deterministic and replayable — no wall clock, no OS
/// randomness, outside the serving/bench allowlist.
pub fn check_l2(
    rel_path: &str,
    scope: &FileScope,
    lexed: &Lexed,
    mask: &[bool],
    violations: &mut Vec<Violation>,
    allowed: &mut Vec<Allowed>,
) {
    if scope.clock_exempt() || scope.in_test_tree {
        return;
    }
    let strict = !scope.bench
        && scope.is_library_crate()
        && CLOCK_STRICT_FILES.contains(&scope.file_name.as_str());
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if strict && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            push(
                violations,
                allowed,
                lexed,
                ("L2", "clock"),
                rel_path,
                t.line,
                format!(
                    "`{}` in `{}`: the observability layer must read time only \
                     through the injectable `Clock` (strict L2 file)",
                    t.text, scope.file_name
                ),
            );
            continue;
        }
        let path_call = |head: &str, tail: &str| -> bool {
            t.is_ident(head)
                && i + 3 < toks.len()
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && toks[i + 3].is_ident(tail)
        };
        let hit = if path_call("Instant", "now") {
            Some("Instant::now")
        } else if path_call("SystemTime", "now") {
            Some("SystemTime::now")
        } else if t.is_ident("thread_rng") {
            Some("thread_rng")
        } else if t.is_ident("from_entropy") {
            Some("from_entropy")
        } else if path_call("rand", "random") {
            Some("rand::random")
        } else {
            None
        };
        if let Some(what) = hit {
            push(
                violations,
                allowed,
                lexed,
                ("L2", "clock"),
                rel_path,
                t.line,
                format!(
                    "`{what}` breaks deterministic replay; thread a seeded RNG or a \
                     caller-supplied clock (allowed only in serve.rs and bench crates)"
                ),
            );
        }
    }
}

/// Cross-file facts L4 needs: error enums, `Error` impls, `From` edges.
#[derive(Debug, Default)]
pub struct ErrorGraph {
    /// `pub enum *Error` declarations: name → (file, line).
    pub enums: HashMap<String, (String, u32)>,
    /// Types with an `impl … Error for T`.
    pub error_impls: HashSet<String>,
    /// `impl From<Src> for Dst` edges.
    pub from_edges: Vec<(String, String)>,
}

impl ErrorGraph {
    /// Harvests facts from one file.
    pub fn collect(&mut self, rel_path: &str, scope: &FileScope, lexed: &Lexed, mask: &[bool]) {
        if !scope.is_library_crate() || scope.in_test_tree {
            return;
        }
        let toks = &lexed.toks;
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            // `pub enum XError`
            if toks[i].is_ident("pub")
                && i + 2 < toks.len()
                && toks[i + 1].is_ident("enum")
                && toks[i + 2].kind == TokKind::Ident
                && toks[i + 2].text.ends_with("Error")
            {
                self.enums.insert(
                    toks[i + 2].text.clone(),
                    (rel_path.to_string(), toks[i + 2].line),
                );
            }
            if !toks[i].is_ident("impl") {
                continue;
            }
            // Find `for` at angle-depth 0 within the impl header.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut for_at = None;
            while j < toks.len() && j < i + 40 {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if tj.is_punct('{') || tj.is_punct(';') {
                    break;
                } else if tj.is_ident("for") && angle == 0 {
                    for_at = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(f) = for_at else { continue };
            // Target type: last ident after `for` before `{` / `<` / `where`.
            let mut target = None;
            let mut k = f + 1;
            while k < toks.len() {
                let tk = &toks[k];
                if tk.is_punct('{') || tk.is_punct('<') || tk.is_ident("where") {
                    break;
                }
                if tk.kind == TokKind::Ident {
                    target = Some(tk.text.clone());
                }
                k += 1;
            }
            let Some(target) = target else { continue };
            // Trait: tokens between `impl` and `for`.
            let header: Vec<&Tok> = toks[i + 1..f].iter().collect();
            let is_error_trait = header
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)
                .is_some_and(|t| t.text == "Error");
            if is_error_trait {
                self.error_impls.insert(target);
                continue;
            }
            // `From < Src… >`
            if let Some(fp) = header.iter().position(|t| t.is_ident("From")) {
                // Source type: last ident inside the <...> after From.
                let mut src = None;
                let mut angle = 0i32;
                for t in header.iter().skip(fp + 1) {
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    } else if t.kind == TokKind::Ident && angle >= 1 {
                        src = Some(t.text.clone());
                    }
                }
                if let Some(src) = src {
                    self.from_edges.push((src, target));
                }
            }
        }
    }

    /// Emits L4 violations after all files have been collected.
    pub fn finalize(&self, violations: &mut Vec<Violation>) {
        // Transitive closure of From edges toward MtmlfError.
        let mut reaches: HashSet<String> = HashSet::new();
        reaches.insert("MtmlfError".to_string());
        let mut changed = true;
        while changed {
            changed = false;
            for (src, dst) in &self.from_edges {
                if reaches.contains(dst) && reaches.insert(src.clone()) {
                    changed = true;
                }
            }
        }
        let mut names: Vec<&String> = self.enums.keys().collect();
        names.sort();
        for name in names {
            let (file, line) = &self.enums[name];
            if !self.error_impls.contains(name) {
                violations.push(Violation {
                    rule: "L4",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "public error enum `{name}` does not implement `std::error::Error`"
                    ),
                });
            }
            if !reaches.contains(name) {
                violations.push(Violation {
                    rule: "L4",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "public error enum `{name}` has no `From` path into `MtmlfError`; \
                         callers cannot propagate it through the unified `mtmlf::Result`"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_l1(path: &str, src: &str) -> (Vec<Violation>, Vec<Allowed>) {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let scope = FileScope::of(path);
        let (mut v, mut a) = (Vec::new(), Vec::new());
        check_l1(path, &scope, &lexed, &mask, &mut v, &mut a);
        (v, a)
    }

    #[test]
    fn l1_flags_unwrap_expect_and_panic_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }";
        let (v, _) = run_l1("crates/core/src/model.rs", src);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|v| v.rule == "L1"));
    }

    #[test]
    fn l1_skips_unwrap_or_variants_and_non_library_code() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        let (v, _) = run_l1("crates/core/src/model.rs", src);
        assert!(v.is_empty());
        let src = "fn f() { x.unwrap(); }";
        let (v, _) = run_l1("crates/bench/src/table1.rs", src);
        assert!(v.is_empty(), "bench crate is not a library crate");
        let (v, _) = run_l1("crates/core/tests/integration.rs", src);
        assert!(v.is_empty(), "integration tests are exempt");
    }

    #[test]
    fn l1_skips_cfg_test_modules() {
        let src = r#"
            fn lib_code() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); z.expect("fine in tests"); }
            }
        "#;
        let (v, _) = run_l1("crates/nn/src/matrix.rs", src);
        assert_eq!(v.len(), 1, "only the library-code unwrap counts: {v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn l1_escape_hatch_reclassifies_not_hides() {
        let src = "fn f() { x.unwrap(); // lint: allow(panic)\n y.unwrap(); }";
        let (v, a) = run_l1("crates/core/src/model.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].line, 1);
    }

    fn run_l2(path: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let scope = FileScope::of(path);
        let (mut v, mut a) = (Vec::new(), Vec::new());
        check_l2(path, &scope, &lexed, &mask, &mut v, &mut a);
        v
    }

    #[test]
    fn l2_flags_clock_and_randomness_outside_allowlist() {
        let src =
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); let r = thread_rng(); }";
        assert_eq!(run_l2("crates/core/src/train.rs", src).len(), 3);
        assert!(run_l2("crates/core/src/serve.rs", src).is_empty());
        assert!(run_l2("crates/bench/src/table1.rs", src).is_empty());
        assert!(run_l2("crates/core/tests/t.rs", src).is_empty());
    }

    #[test]
    fn l2_does_not_flag_instant_elapsed_or_duration() {
        let src = "fn f(t: Instant) -> Duration { t.elapsed() }";
        assert!(run_l2("crates/core/src/train.rs", src).is_empty());
    }

    #[test]
    fn l2_strict_files_flag_any_instant_or_systemtime_token() {
        // In trace.rs / metrics.rs even a type annotation or a stored-stamp
        // `.elapsed()` — legal elsewhere — is a violation.
        let src = "fn f(t: Instant) -> Duration { t.elapsed() }";
        let v = run_l2("crates/core/src/trace.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("injectable `Clock`"));
        let src = "struct S { at: SystemTime }";
        assert_eq!(run_l2("crates/core/src/metrics.rs", src).len(), 1);
        // Same tokens in a non-strict library file keep the ordinary rules.
        assert!(run_l2("crates/core/src/train.rs", "struct S { at: SystemTime }").is_empty());
        // Strict files never double-report `Instant::now` (one hit, not two).
        let v = run_l2("crates/core/src/trace.rs", "fn f() { Instant::now(); }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn l2_strict_files_accept_injected_clock_code() {
        let src = r#"
            pub struct Tracer { clock: Arc<dyn Clock> }
            impl Tracer {
                fn now(&self) -> Duration { self.clock.now() }
            }
        "#;
        assert!(run_l2("crates/core/src/trace.rs", src).is_empty());
        assert!(run_l2("crates/core/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn l4_requires_error_impl_and_from_path() {
        let mut graph = ErrorGraph::default();
        let files = [
            (
                "crates/storage/src/error.rs",
                "pub enum GoodError {}\nimpl std::error::Error for GoodError {}\nimpl From<GoodError> for MidError { fn from(e: GoodError) -> Self { todo() } }",
            ),
            (
                "crates/query/src/error.rs",
                "pub enum MidError {}\nimpl std::error::Error for MidError {}\nimpl From<MidError> for MtmlfError { fn from(e: MidError) -> Self { todo() } }",
            ),
            (
                "crates/exec/src/error.rs",
                "pub enum OrphanError {}\n",
            ),
            (
                "crates/core/src/error.rs",
                "pub enum MtmlfError {}\nimpl std::error::Error for MtmlfError {}",
            ),
        ];
        for (path, src) in files {
            let lexed = lex(src);
            let mask = test_mask(&lexed.toks);
            graph.collect(path, &FileScope::of(path), &lexed, &mask);
        }
        let mut v = Vec::new();
        graph.finalize(&mut v);
        // OrphanError: missing Error impl AND missing From path. Good/Mid
        // reach MtmlfError transitively.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.message.contains("OrphanError")));
    }
}
