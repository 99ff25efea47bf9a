//! A lightweight syntactic IR for whole-program concurrency analysis.
//!
//! The L1, L2 and L4 rules are single-file token matchers. The
//! concurrency passes (G1 lock-order cycles, G2 blocking-under-guard, L5
//! hot-path allocations, L6 unbounded channels — see
//! [`crate::concurrency`]) need a view of the *program*: which functions
//! exist, who calls whom, where lock guards are acquired and how long they
//! live, where channels are built and drained, where threads are spawned.
//! This module extracts that view from the lexed token stream of each
//! file.
//!
//! It is a *syntactic* IR: no types, no name resolution beyond identifier
//! text. The approximations (documented per extraction rule below and in
//! DESIGN.md §13) are chosen so the downstream passes err on the side
//! that the ratcheting baseline and `// lint: allow(...)` hatches can
//! absorb:
//!
//! * **Guard lifetimes** are approximated from statement shape: a
//!   `let g = x.lock()…;` whose initializer ends after poison adapters
//!   (`unwrap` / `expect` / `unwrap_or_else` / `map_err` / `?`) binds a
//!   guard live until its enclosing block closes (or an explicit
//!   `drop(g)`); a lock call with further method calls chained onto it
//!   (`x.lock().unwrap().get(k)`) is a temporary live to the end of the
//!   statement; a lock call in an `if let` / `while let` / `match` header
//!   is live until the construct's block closes.
//! * **Lock identity** is the field name for `self.<field>.lock()`-style
//!   chains and for `UPPER_STATIC.lock()` (a *global* identity shared
//!   across files), and a `{file}::{fn}::{var}` scoped identity for bare
//!   local receivers so unrelated locals named `m` never unify.
//! * **Guard-returning functions** (return type mentions `*Guard`) are
//!   recognized so wrappers like `lock_unpoisoned(&self.inboxes)` count
//!   as acquisitions of `inboxes` at the call site.
//! * **Call edges** are by bare callee name; resolution against the
//!   function index happens in the analysis pass.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::FileScope;

/// One concurrency-relevant event inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A lock acquisition: `.lock()` / `.read()` / `.write()`.
    LockAcquire {
        /// Lock identity (global field/static name or scoped local).
        lock: String,
        /// Exclusive token index where the guard's approximate life ends.
        until: usize,
        /// Whether the guard was `let`-bound (vs. a statement temporary).
        bound: bool,
    },
    /// Blocking `.recv()`.
    Recv,
    /// Blocking `.recv_timeout(..)` / `.recv_deadline(..)`.
    RecvTimeout,
    /// Blocking no-arg `.join()` (thread join; `Path::join` takes args).
    Join,
    /// `sleep(..)` / `thread::sleep(..)`.
    Sleep,
    /// `.send(..)` — blocking only when the channel is bounded; the
    /// analysis consults the file's `bounded_senders`.
    Send {
        /// Receiver identifier the send was invoked on (`tx` in `tx.send`).
        sender: String,
    },
    /// Construction of an unbounded channel (`unbounded()`, `mpsc::channel()`).
    ChannelUnbounded,
    /// Construction of a bounded channel (`bounded(n)`, `sync_channel(n)`).
    ChannelBounded,
    /// A heap allocation site (L5 hot-path catalog).
    Alloc {
        /// What allocated, e.g. `Vec::new` or `.clone()`.
        what: String,
    },
    /// A thread spawn site (`spawn(..)` / `.spawn(..)`).
    Spawn,
}

/// An event with its position.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Token index in the file's token stream.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`foo` for `foo(..)` and for `x.foo(..)`).
    pub callee: String,
    /// Whether this was a method call (`.foo(..)`).
    pub method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Lock identity derived from the first `self.<field>` / local chain in
    /// the argument list, for calls to guard-returning wrappers.
    pub arg_lock: Option<String>,
    /// Approximate guard live-range end if this call returns a guard
    /// (computed with the same statement-shape rules as direct locks).
    pub until: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnIr {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body (inclusive `{`, inclusive `}`).
    pub body: (usize, usize),
    /// Whether a `// lint: hot-path` marker covers this function.
    pub hot: bool,
    /// Whether the return type mentions a `*Guard` type.
    pub returns_guard: bool,
    /// Concurrency events in body order.
    pub events: Vec<Event>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
}

/// The IR of one file.
#[derive(Debug, Clone, Default)]
pub struct FileIr {
    /// Workspace-relative path.
    pub file: String,
    /// Function items.
    pub fns: Vec<FnIr>,
    /// Sender variable names bound from a bounded-channel constructor
    /// (`let (tx, rx) = bounded(n)`), file-wide.
    pub bounded_senders: std::collections::HashSet<String>,
}

/// Aggregate counts over a set of [`FileIr`]s (reported in LINT.json).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrStats {
    /// Function items extracted.
    pub functions: usize,
    /// Call sites recorded.
    pub calls: usize,
    /// Guard acquisitions (direct lock calls).
    pub guards: usize,
    /// Channel construction sites.
    pub channels: usize,
    /// Thread-spawn sites.
    pub spawns: usize,
}

impl IrStats {
    /// Tallies one file into the stats.
    pub fn absorb(&mut self, ir: &FileIr) {
        self.functions += ir.fns.len();
        for f in &ir.fns {
            self.calls += f.calls.len();
            for e in &f.events {
                match e.kind {
                    EventKind::LockAcquire { .. } => self.guards += 1,
                    EventKind::ChannelUnbounded | EventKind::ChannelBounded => self.channels += 1,
                    EventKind::Spawn => self.spawns += 1,
                    _ => {}
                }
            }
        }
    }
}

/// Rust keywords that look like calls when followed by `(`.
const NON_CALLEE_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "let", "fn", "move", "in", "as", "ref", "mut",
    "else", "break", "continue", "where", "impl", "dyn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "extern", "crate", "super", "Some", "Ok", "Err",
    "None", "Box", "Vec", "String", "Arc", "Rc",
];

/// Allocation-constructor paths recognized for L5 (head, tail).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Allocating method calls recognized for L5.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "clone",
    "to_string",
    "to_owned",
    "to_boxed",
    "collect",
];

/// Allocating macros recognized for L5.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

fn is_upper_ident(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Extracts the IR of one lexed file. `mask` marks test-gated tokens
/// (skipped entirely, matching the per-file rules).
pub fn extract(rel_path: &str, _scope: &FileScope, lexed: &Lexed, mask: &[bool]) -> FileIr {
    let toks = &lexed.toks;
    let mut ir = FileIr {
        file: rel_path.to_string(),
        ..FileIr::default()
    };

    // Pass 0: matching-brace map over unmasked tokens, so guard lifetimes
    // can point at the end of their enclosing block.
    let mut block_close = vec![toks.len(); toks.len()]; // tok -> innermost enclosing block's `}`
    {
        let mut stack: Vec<usize> = Vec::new();
        let mut opens: Vec<Vec<usize>> = Vec::new(); // tokens inside each open block
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            if toks[i].is_punct('{') {
                stack.push(i);
                opens.push(Vec::new());
            } else if toks[i].is_punct('}') {
                if stack.pop().is_some() {
                    if let Some(members) = opens.pop() {
                        for m in members {
                            block_close[m] = i;
                        }
                    }
                }
            } else if let Some(members) = opens.last_mut() {
                members.push(i);
            }
        }
    }

    // Forward scan helper: end of the current statement-or-construct
    // starting at token `i` (exclusive token index). Stops at `;` at the
    // starting nesting level, at the close of a block opened at that level
    // (`match`/`if let` headers), or at the enclosing block's `}`.
    let construct_end = |start: usize| -> usize {
        let mut d = 0i32;
        let mut j = start;
        while j < toks.len() {
            if mask[j] {
                j += 1;
                continue;
            }
            let t = &toks[j];
            if t.is_punct('{') {
                d += 1;
            } else if t.is_punct('}') {
                if d == 0 {
                    return j; // enclosing block closed
                }
                d -= 1;
                if d == 0 {
                    // A construct-level block closed (match / if / loop
                    // body). Continue through `else` chains only.
                    let next = next_unmasked(toks, mask, j + 1);
                    if !next.is_some_and(|n| toks[n].is_ident("else")) {
                        return j;
                    }
                }
            } else if t.is_punct(';') && d == 0 {
                return j;
            }
            j += 1;
        }
        toks.len()
    };

    // Pass 1: function items. A `fn` keyword followed by an identifier
    // opens an item; the signature runs to the body `{` (or `;` for trait
    // declarations, which have no body and are skipped).
    let mut i = 0;
    let mut fn_spans: Vec<(usize, usize, usize)> = Vec::new(); // (fn kw, body open, body close)
    let mut headers: Vec<(String, u32, bool)> = Vec::new(); // (name, line, returns_guard)
    while i < toks.len() {
        if mask[i] || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_at) = next_unmasked(toks, mask, i + 1) else {
            break;
        };
        if toks[name_at].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[name_at].text.clone();
        let line = toks[i].line;
        // Scan the signature for the body `{` or a trailing `;`.
        let mut j = name_at + 1;
        let mut saw_arrow = false;
        let mut returns_guard = false;
        let mut paren = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            if mask[j] {
                j += 1;
                continue;
            }
            let t = &toks[j];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('-')
                && j + 1 < toks.len()
                && toks[j + 1].is_punct('>')
                && paren == 0
            {
                saw_arrow = true;
            } else if t.kind == TokKind::Ident && saw_arrow && t.text.ends_with("Guard") {
                returns_guard = true;
            } else if t.is_punct('{') && paren == 0 {
                body_open = Some(j);
                break;
            } else if t.is_punct(';') && paren == 0 {
                break; // trait method declaration — no body
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let close = block_close_of(toks, mask, open);
        fn_spans.push((i, open, close));
        headers.push((name, line, returns_guard));
        i = name_at + 1; // nested fns re-enter the scan inside this body
    }

    // Hot-path markers cover the *next* `fn` item: the fn's keyword line
    // must be within a small window below the marker (attributes may sit
    // between) with no other fn item starting in between.
    let fn_lines: Vec<u32> = headers.iter().map(|&(_, l, _)| l).collect();
    let hot_for = |fn_line: u32| -> bool {
        lexed.hot_markers.iter().any(|&m| {
            m <= fn_line && fn_line - m <= 4 && !fn_lines.iter().any(|&l| l >= m && l < fn_line)
        })
    };

    // Pass 2: per-function event/call extraction. Tokens inside a nested
    // fn belong to the innermost enclosing item.
    for (idx, &(_kw, open, close)) in fn_spans.iter().enumerate() {
        let (name, line, returns_guard) = headers[idx].clone();
        let nested: Vec<(usize, usize)> = fn_spans
            .iter()
            .enumerate()
            .filter(|&(k, &(kw2, _, c2))| k != idx && kw2 > open && c2 <= close)
            .map(|(_, &(kw2, _, c2))| (kw2, c2))
            .collect();
        let mut f = FnIr {
            name,
            line,
            body: (open, close),
            hot: hot_for(line),
            returns_guard,
            events: Vec::new(),
            calls: Vec::new(),
        };
        // Closures handed to another thread (`spawn(move || …)`) or stored
        // for later (`Box::new(|…| …)`) do
        // not run under the spawning function's guards — mask their bodies
        // so their events/calls are not attributed here. The `spawn` /
        // `Box::new` tokens themselves sit outside the range, so the Spawn
        // and Alloc events are still recorded. Trade-off: locks taken
        // *inside* such closures are invisible to G1/G2 (DESIGN.md §13).
        let mut deferred: Vec<(usize, usize)> = Vec::new();
        {
            let mut t = open + 1;
            while t + 1 < close.min(toks.len()) {
                let is_deferral = !mask[t]
                    && toks[t + 1].is_punct('(')
                    && (toks[t].is_ident("spawn")
                        || (toks[t].is_ident("new")
                            && t >= 3
                            && toks[t - 1].is_punct(':')
                            && toks[t - 2].is_punct(':')
                            && toks[t - 3].is_ident("Box")));
                if is_deferral {
                    if let Some(a) = next_unmasked(toks, mask, t + 2) {
                        if toks[a].is_ident("move") || toks[a].is_punct('|') {
                            let mut d = 0i32;
                            let mut j = t + 1;
                            while j < toks.len() {
                                if toks[j].is_punct('(') {
                                    d += 1;
                                } else if toks[j].is_punct(')') {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                j += 1;
                            }
                            deferred.push((t + 2, j));
                            t = j + 1;
                            continue;
                        }
                    }
                }
                t += 1;
            }
        }
        let mut t = open + 1;
        while t < close.min(toks.len()) {
            if mask[t] {
                t += 1;
                continue;
            }
            if let Some(&(_, c2)) = nested.iter().find(|&&(kw2, c2)| t >= kw2 && t <= c2) {
                t = c2 + 1; // skip nested fn bodies
                continue;
            }
            if let Some(&(_, e2)) = deferred.iter().find(|&&(s2, e2)| t >= s2 && t <= e2) {
                t = e2 + 1; // skip deferred-closure bodies
                continue;
            }
            extract_at(
                &mut ir,
                &mut f,
                toks,
                mask,
                t,
                &block_close,
                &construct_end,
                rel_path,
            );
            t += 1;
        }
        ir.fns.push(f);
    }
    ir
}

fn next_unmasked(toks: &[Tok], mask: &[bool], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !mask[i] {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Matching `}` for the `{` at `open` (or end of stream).
fn block_close_of(toks: &[Tok], mask: &[bool], open: usize) -> usize {
    let mut d = 0i32;
    for j in open..toks.len() {
        if mask[j] {
            continue;
        }
        if toks[j].is_punct('{') {
            d += 1;
        } else if toks[j].is_punct('}') {
            d -= 1;
            if d == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Walks the receiver chain left from the token before `.method` at `dot`:
/// returns the chain of identifiers right-to-left (`self.a.b.lock()` →
/// `["b", "a", "self"]`). Call results (`self.shard(k).write()`) contribute
/// the method name.
fn receiver_chain(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot as isize - 1;
    loop {
        if j < 0 {
            break;
        }
        let ju = j as usize;
        if toks[ju].is_punct(')') {
            // Skip the balanced parens of a call, then expect its name.
            let mut d = 0i32;
            let mut k = j;
            while k >= 0 {
                let ku = k as usize;
                if toks[ku].is_punct(')') {
                    d += 1;
                } else if toks[ku].is_punct('(') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            j = k - 1;
            continue;
        }
        if toks[ju].kind != TokKind::Ident {
            break;
        }
        chain.push(toks[ju].text.clone());
        // Continue only through `.` or `::` links.
        if ju >= 1 && toks[ju - 1].is_punct('.') {
            j = ju as isize - 2;
        } else if ju >= 2 && toks[ju - 1].is_punct(':') && toks[ju - 2].is_punct(':') {
            j = ju as isize - 3;
        } else {
            break;
        }
    }
    chain
}

/// Lock identity from a receiver chain (see module docs).
fn lock_identity(chain: &[String], file: &str, func: &str) -> String {
    match chain {
        [] => format!("{file}::{func}::<expr>"),
        [local] if !is_upper_ident(local) => format!("{file}::{func}::{local}"),
        chain => {
            let leftmost = chain.last().map(String::as_str).unwrap_or("");
            if leftmost == "self" || is_upper_ident(leftmost) || chain.len() >= 2 {
                chain[0].clone() // field / static name: global identity
            } else {
                format!("{file}::{func}::{}", chain[0])
            }
        }
    }
}

/// Guard live-range end for an acquisition whose callee identifier sits at
/// `i`: `let`-bound guards live to the enclosing block's `}` (minus an
/// explicit `drop(var)`); temporaries live to the end of their
/// statement-or-construct.
fn guard_live_end(
    toks: &[Tok],
    mask: &[bool],
    i: usize,
    block_close: &[usize],
    construct_end: &dyn Fn(usize) -> usize,
) -> (usize, bool) {
    // Find the close paren of the call at `i` (`i` is the method ident).
    let mut j = i + 1;
    let mut d = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            d += 1;
        } else if toks[j].is_punct(')') {
            d -= 1;
            if d == 0 {
                break;
            }
        }
        j += 1;
    }
    // Walk through poison/err adapters chained onto the call.
    let mut k = j + 1;
    while let Some(n) = next_unmasked(toks, mask, k) {
        if toks[n].is_punct('?') {
            k = n + 1;
            continue;
        }
        if toks[n].is_punct('.')
            && n + 1 < toks.len()
            && matches!(
                toks[n + 1].text.as_str(),
                "unwrap" | "expect" | "unwrap_or_else" | "map_err"
            )
        {
            // Skip the adapter's balanced parens.
            let mut m = n + 2;
            let mut dd = 0i32;
            while m < toks.len() {
                if toks[m].is_punct('(') {
                    dd += 1;
                } else if toks[m].is_punct(')') {
                    dd -= 1;
                    if dd == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        break;
    }
    let after = next_unmasked(toks, mask, k);
    match after {
        Some(n) if toks[n].is_punct(';') => {
            // `let g = x.lock().unwrap();` — bound until block close.
            (block_close.get(i).copied().unwrap_or(toks.len()), true)
        }
        _ => (construct_end(i), false),
    }
}

/// Finds a `drop(<name>)` call in `[start, end)` and returns its index.
fn find_drop(toks: &[Tok], mask: &[bool], start: usize, end: usize, name: &str) -> Option<usize> {
    let mut j = start;
    while j + 3 < toks.len().min(end) {
        if !mask[j]
            && toks[j].is_ident("drop")
            && toks[j + 1].is_punct('(')
            && toks[j + 2].is_ident(name)
            && toks[j + 3].is_punct(')')
        {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// First `self.<field>` or lone-identifier chain in the argument list of
/// the call whose name token is at `i`; used to attribute guard-returning
/// wrapper calls to a lock.
fn arg_lock_of(toks: &[Tok], i: usize, file: &str, func: &str) -> Option<String> {
    let open = i + 1;
    if open >= toks.len() || !toks[open].is_punct('(') {
        return None;
    }
    let mut d = 0i32;
    let mut j = open;
    let mut chain: Vec<String> = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            d += 1;
        } else if t.is_punct(')') {
            d -= 1;
            if d == 0 {
                break;
            }
        } else if d == 1 && t.kind == TokKind::Ident {
            chain.push(t.text.clone());
            // Stop the chain at the first non-`.` link.
            let mut k = j + 1;
            while k + 1 < toks.len() && toks[k].is_punct('.') && toks[k + 1].kind == TokKind::Ident
            {
                chain.push(toks[k + 1].text.clone());
                k += 2;
            }
            if chain.first().map(String::as_str) == Some("self") && chain.len() >= 2 {
                return chain.last().cloned();
            }
            if chain.len() == 1 {
                let only = &chain[0];
                if is_upper_ident(only) {
                    return Some(only.clone());
                }
                return Some(format!("{file}::{func}::{only}"));
            }
            return chain.last().cloned();
        }
        j += 1;
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn extract_at(
    ir: &mut FileIr,
    f: &mut FnIr,
    toks: &[Tok],
    mask: &[bool],
    t: usize,
    block_close: &[usize],
    construct_end: &dyn Fn(usize) -> usize,
    file: &str,
) {
    let tok = &toks[t];
    if tok.kind != TokKind::Ident {
        return;
    }
    let prev_dot = t > 0 && toks[t - 1].is_punct('.');
    let next_open = t + 1 < toks.len() && toks[t + 1].is_punct('(');
    let next_noarg = next_open && t + 2 < toks.len() && toks[t + 2].is_punct(')');
    let line = tok.line;

    // --- lock acquisitions -------------------------------------------
    if prev_dot && next_noarg && matches!(tok.text.as_str(), "lock" | "read" | "write") {
        let chain = receiver_chain(toks, t - 1);
        let lock = lock_identity(&chain, file, &f.name);
        let (mut until, bound) = guard_live_end(toks, mask, t, block_close, construct_end);
        if bound {
            // `let g = …` — honor an explicit drop(g).
            if let Some(name_at) = let_binding_name(toks, mask, t) {
                if let Some(d) = find_drop(toks, mask, t, until, &name_at) {
                    until = d;
                }
            }
        }
        f.events.push(Event {
            kind: EventKind::LockAcquire { lock, until, bound },
            tok: t,
            line,
        });
        return;
    }

    // --- blocking operations -----------------------------------------
    if prev_dot && next_noarg && tok.text == "recv" {
        f.events.push(Event {
            kind: EventKind::Recv,
            tok: t,
            line,
        });
        return;
    }
    if prev_dot && next_open && matches!(tok.text.as_str(), "recv_timeout" | "recv_deadline") {
        f.events.push(Event {
            kind: EventKind::RecvTimeout,
            tok: t,
            line,
        });
        return;
    }
    if prev_dot && next_noarg && tok.text == "join" {
        f.events.push(Event {
            kind: EventKind::Join,
            tok: t,
            line,
        });
        return;
    }
    if next_open && tok.text == "sleep" {
        f.events.push(Event {
            kind: EventKind::Sleep,
            tok: t,
            line,
        });
        return;
    }
    if prev_dot && next_open && tok.text == "send" {
        let sender = receiver_chain(toks, t - 1)
            .first()
            .cloned()
            .unwrap_or_default();
        f.events.push(Event {
            kind: EventKind::Send { sender },
            tok: t,
            line,
        });
        // fall through: `.send(` is also a call site (Transport::send).
    }

    // --- channel construction ----------------------------------------
    if next_open && tok.text == "unbounded" {
        f.events.push(Event {
            kind: EventKind::ChannelUnbounded,
            tok: t,
            line,
        });
        return;
    }
    // `get_or_init(channel::unbounded)` — constructor passed as a value.
    if !next_open
        && tok.text == "unbounded"
        && t >= 2
        && toks[t - 1].is_punct(':')
        && toks[t - 2].is_punct(':')
    {
        f.events.push(Event {
            kind: EventKind::ChannelUnbounded,
            tok: t,
            line,
        });
        return;
    }
    if next_open
        && tok.text == "channel"
        && t >= 3
        && toks[t - 1].is_punct(':')
        && toks[t - 2].is_punct(':')
        && toks[t - 3].is_ident("mpsc")
    {
        // `mpsc::channel()` is unbounded.
        f.events.push(Event {
            kind: EventKind::ChannelUnbounded,
            tok: t,
            line,
        });
        return;
    }
    if next_open && matches!(tok.text.as_str(), "bounded" | "sync_channel") {
        f.events.push(Event {
            kind: EventKind::ChannelBounded,
            tok: t,
            line,
        });
        // Harvest `let (tx, rx) = bounded(n)` sender names.
        if let Some(tx) = tuple_first_binding(toks, mask, t) {
            ir.bounded_senders.insert(tx);
        }
        return;
    }

    // --- spawns -------------------------------------------------------
    if next_open && tok.text == "spawn" {
        f.events.push(Event {
            kind: EventKind::Spawn,
            tok: t,
            line,
        });
        return;
    }

    // --- allocations --------------------------------------------------
    if t >= 2 && toks[t - 1].is_punct(':') && toks[t - 2].is_punct(':') && next_open {
        if let Some(head_at) = t.checked_sub(3) {
            if toks[head_at].kind == TokKind::Ident {
                let head = toks[head_at].text.as_str();
                let tail = tok.text.as_str();
                if ALLOC_PATHS.iter().any(|&(h, m)| h == head && m == tail) {
                    f.events.push(Event {
                        kind: EventKind::Alloc {
                            what: format!("{head}::{tail}"),
                        },
                        tok: t,
                        line,
                    });
                    return;
                }
            }
        }
    }
    if prev_dot && next_open && ALLOC_METHODS.contains(&tok.text.as_str()) {
        f.events.push(Event {
            kind: EventKind::Alloc {
                what: format!(".{}()", tok.text),
            },
            tok: t,
            line,
        });
        return;
    }
    if t + 1 < toks.len() && toks[t + 1].is_punct('!') && ALLOC_MACROS.contains(&tok.text.as_str())
    {
        f.events.push(Event {
            kind: EventKind::Alloc {
                what: format!("{}!", tok.text),
            },
            tok: t,
            line,
        });
        return;
    }

    // --- plain call sites --------------------------------------------
    if next_open && !NON_CALLEE_KEYWORDS.contains(&tok.text.as_str()) && !is_upper_ident(&tok.text)
    {
        let (until, _) = guard_live_end(toks, mask, t, block_close, construct_end);
        f.calls.push(CallSite {
            callee: tok.text.clone(),
            method: prev_dot,
            tok: t,
            line,
            arg_lock: arg_lock_of(toks, t, file, &f.name),
            until,
        });
    }
}

/// Name bound by the `let` statement containing the token at `i`, scanning
/// backwards: `let [mut] <name> =`. Tuple patterns return `None`.
fn let_binding_name(toks: &[Tok], mask: &[bool], i: usize) -> Option<String> {
    let mut j = i as isize;
    let mut steps = 0;
    while j >= 0 && steps < 64 {
        let ju = j as usize;
        if !mask[ju] && (toks[ju].is_punct(';') || toks[ju].is_punct('{')) {
            return None;
        }
        if !mask[ju] && toks[ju].is_ident("let") {
            let mut k = ju + 1;
            if k < toks.len() && toks[k].is_ident("mut") {
                k += 1;
            }
            if k < toks.len() && toks[k].kind == TokKind::Ident {
                return Some(toks[k].text.clone());
            }
            return None;
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// First identifier of a `let (a, b) =` tuple pattern containing token `i`.
fn tuple_first_binding(toks: &[Tok], mask: &[bool], i: usize) -> Option<String> {
    let mut j = i as isize;
    let mut steps = 0;
    while j >= 0 && steps < 64 {
        let ju = j as usize;
        if !mask[ju] && (toks[ju].is_punct(';') || toks[ju].is_punct('{')) {
            return None;
        }
        if !mask[ju] && toks[ju].is_ident("let") {
            let mut k = ju + 1;
            if k < toks.len() && toks[k].is_punct('(') {
                k += 1;
                if k < toks.len() && toks[k].kind == TokKind::Ident {
                    return Some(toks[k].text.clone());
                }
            }
            return None;
        }
        j -= 1;
        steps += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{test_mask, FileScope};

    fn ir_of(path: &str, src: &str) -> FileIr {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        extract(path, &FileScope::of(path), &lexed, &mask)
    }

    #[test]
    fn extracts_fns_and_calls() {
        let src = r#"
            fn alpha(&self) { beta(); self.gamma(1); }
            fn beta() {}
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        assert_eq!(ir.fns.len(), 2);
        let alpha = &ir.fns[0];
        assert_eq!(alpha.name, "alpha");
        let callees: Vec<&str> = alpha.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["beta", "gamma"]);
    }

    #[test]
    fn let_bound_guard_lives_to_block_close() {
        let src = r#"
            fn f(&self) {
                let g = self.cache.lock().unwrap();
                after();
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let f = &ir.fns[0];
        let ev = f
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::LockAcquire { .. }))
            .expect("lock event");
        let EventKind::LockAcquire {
            ref lock,
            until,
            bound,
        } = ev.kind
        else {
            unreachable!()
        };
        assert_eq!(lock, "cache");
        assert!(bound);
        // The `after()` call is inside the live range.
        let call = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(call.tok < until);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = r#"
            fn f(&self) {
                self.cache.lock().unwrap().insert(k, v);
                after();
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let f = &ir.fns[0];
        let EventKind::LockAcquire { until, bound, .. } = f.events[0].kind else {
            panic!("expected lock event: {:?}", f.events)
        };
        assert!(!bound);
        let call = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(call.tok > until, "temporary guard must not cover after()");
    }

    #[test]
    fn drop_ends_bound_guard_early() {
        let src = r#"
            fn f(&self) {
                let g = self.cache.lock().unwrap();
                drop(g);
                after();
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let f = &ir.fns[0];
        let EventKind::LockAcquire { until, .. } = f.events[0].kind else {
            panic!("expected lock event")
        };
        let call = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(call.tok > until, "drop(g) must end the live range");
    }

    #[test]
    fn local_receivers_get_scoped_identity() {
        let src = "fn f(m: &Mutex<u8>) { let g = m.lock().unwrap(); }";
        let ir = ir_of("crates/core/src/x.rs", src);
        let EventKind::LockAcquire { ref lock, .. } = ir.fns[0].events[0].kind else {
            panic!()
        };
        assert_eq!(lock, "crates/core/src/x.rs::f::m");
    }

    #[test]
    fn channels_sends_and_spawns_are_recorded() {
        let src = r#"
            fn f() {
                let (tx, rx) = bounded(4);
                let (utx, urx) = unbounded();
                tx.send(1);
                let x = rx.recv();
                std::thread::spawn(move || {});
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let f = &ir.fns[0];
        assert!(ir.bounded_senders.contains("tx"));
        let kinds: Vec<&EventKind> = f.events.iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::ChannelBounded)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::ChannelUnbounded)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::Send { sender } if sender == "tx")));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Recv)));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Spawn)));
    }

    #[test]
    fn guard_returning_fn_and_wrapper_arg_lock() {
        let src = r#"
            fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
                m.lock().unwrap_or_else(PoisonError::into_inner)
            }
            fn f(&self) {
                let g = lock_unpoisoned(&self.inboxes);
                after();
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        assert!(ir.fns[0].returns_guard);
        let f = &ir.fns[1];
        let call = f
            .calls
            .iter()
            .find(|c| c.callee == "lock_unpoisoned")
            .unwrap();
        assert_eq!(call.arg_lock.as_deref(), Some("inboxes"));
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.tok < call.until, "wrapper guard covers after()");
    }

    #[test]
    fn allocations_are_catalogued() {
        let src = r#"
            fn f() {
                let v = Vec::new();
                let b = Box::new(1);
                let w = x.to_vec();
                let c = y.clone();
                let m = vec![1, 2];
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let allocs: Vec<String> = ir.fns[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Alloc { what } => Some(what.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            allocs,
            vec!["Vec::new", "Box::new", ".to_vec()", ".clone()", "vec!"]
        );
    }

    #[test]
    fn hot_marker_covers_next_fn() {
        let src = "// lint: hot-path\nfn hot() {}\nfn cold() {}";
        let ir = ir_of("crates/nn/src/x.rs", src);
        assert!(ir.fns[0].hot);
        assert!(!ir.fns[1].hot);
    }

    #[test]
    fn match_header_guard_covers_match_body() {
        let src = r#"
            fn f(&self) {
                match self.m.lock() {
                    Ok(g) => inside(),
                    Err(_) => {}
                }
                after();
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        let f = &ir.fns[0];
        let EventKind::LockAcquire { until, .. } = f.events[0].kind else {
            panic!()
        };
        let inside = f.calls.iter().find(|c| c.callee == "inside").unwrap();
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(inside.tok < until);
        assert!(after.tok > until);
    }

    #[test]
    fn test_code_is_masked_out() {
        let src = r#"
            fn lib() {}
            #[cfg(test)]
            mod tests {
                fn helper(&self) { let g = self.cache.lock().unwrap(); }
            }
        "#;
        let ir = ir_of("crates/core/src/x.rs", src);
        assert_eq!(ir.fns.len(), 1);
        assert_eq!(ir.fns[0].name, "lib");
    }
}
