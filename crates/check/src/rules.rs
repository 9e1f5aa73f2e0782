//! The rule engine: a structural pass over the lexed token stream
//! (`cfg(test)` regions, enclosing-function tracking) plus the eleven
//! concurrency- and IO-discipline rules, each with an explicit per-rule
//! allowlist. The rules are documented for humans in
//! `docs/ARCHITECTURE.md` ("Invariants & analysis"); this module is the
//! machine-readable version.

use crate::lexer::{lex, Token};

/// One rule violation, reported as `path:line [rule] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule — the data the CLI prints and the
/// docs section mirrors. Detection itself is code (see [`check_source`]).
pub struct Rule {
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Exemptions, as workspace-relative paths (optionally
    /// `path::function` for function-scoped exemptions).
    pub allow: &'static [&'static str],
}

/// Every enforced rule. Order is report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "spawn-confinement",
        summary: "thread spawns are confined to the event plumbing; \
                  evaluation runs on the caller's thread",
        allow: &["crates/core/src/events.rs"],
    },
    Rule {
        name: "unbounded-channel",
        summary: "no unbounded std::sync::mpsc::channel in non-test code \
                  (bounded sync_channel and events::bounded are fine anywhere)",
        allow: &[],
    },
    Rule {
        name: "no-unwrap",
        summary: "no bare .unwrap() in non-test eq_core/eq_db/eq_unify code; \
                  state the invariant with a match/let-else or a documented \
                  expect outside the hot paths",
        allow: &[],
    },
    Rule {
        name: "no-expect-hot",
        summary: "no .expect() in the evaluator/unifier/matching/region hot \
                  paths (eval.rs, unifier.rs, matching.rs, intra.rs); \
                  unreachable states are handled structurally so a corrupted \
                  invariant degrades instead of panicking mid-flush",
        allow: &[],
    },
    Rule {
        name: "no-direct-recursion",
        summary: "no direct recursion in eval.rs/intra.rs/matching.rs outside \
                  cfg(test) oracles — guards the heap-bounded-depth invariant \
                  (RUST_MIN_STACK regression in CI)",
        allow: &[],
    },
    Rule {
        name: "no-unifier-clone",
        summary: "no Unifier deep-copies in matching.rs, engine.rs, \
                  combine.rs or ucs.rs outside cfg(test) oracles — \
                  unifiers are moved or merged in place, never copied",
        allow: &[],
    },
    Rule {
        name: "event-choke-point",
        summary: "no Event construction in shard critical sections except \
                  through stage_outcomes/stage_flushed (plus the read-only \
                  accessors) — every event flows through the ordered dispatch \
                  queue",
        allow: &[
            "crates/core/src/service.rs::stage_outcomes",
            "crates/core/src/service.rs::stage_flushed",
            "crates/core/src/events.rs::id",
            "crates/core/src/events.rs::tag",
            "crates/core/src/events.rs::is_terminal",
        ],
    },
    Rule {
        name: "no-publish-under-lock",
        summary: "broadcast/pump/publish_flushed must not be called from a \
                  scope that holds a service mutex guard (.lock()) — events \
                  are staged under the lock and delivered only after it is \
                  released (crate::dispatch)",
        allow: &[],
    },
    Rule {
        name: "sans-io-shard",
        summary: "the shard state machine and the router (shard.rs, router.rs) \
                  name no Mutex, RwLock, Instant::now, thread, channel, \
                  Dispatcher or DurabilitySink outside cfg(test) — the \
                  service shell owns the locks, the clock, dispatch and the \
                  sink, and passes the time in",
        allow: &[],
    },
    Rule {
        name: "io-choke-point",
        summary: "std::fs / std::io::Write are confined to eq_store (the \
                  durability choke point), eq_check's source scanner, and \
                  eq_bench's JSON report writer — everything else routes \
                  page/WAL/checkpoint traffic through eq_store",
        allow: &["crates/bench/src/lib.rs"],
    },
    Rule {
        name: "forbid-unsafe",
        summary: "every workspace crate root carries #![forbid(unsafe_code)]",
        allow: &[],
    },
];

/// Files `no-expect-hot` and `no-direct-recursion` apply to (suffix
/// match on the workspace-relative path).
const HOT_PATH_FILES: &[&str] = &[
    "crates/db/src/eval.rs",
    "crates/unify/src/unifier.rs",
    "crates/core/src/matching.rs",
    "crates/core/src/intra.rs",
];

/// Files whose non-test code must not deep-copy a `Unifier` (suffix
/// match): matching, evaluation and combined-query assembly. The
/// detection is name-based — `.clone()` on a binding whose identifier
/// is unifier-shaped, or an explicit `Unifier::clone(..)` — so benign
/// clones of tuples, reports, and survivor lists stay legal.
const UNIFIER_CLONE_FILES: &[&str] = &[
    "crates/core/src/matching.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/combine.rs",
    "crates/core/src/ucs.rs",
];

/// Files `no-publish-under-lock` applies to (suffix match; an entry
/// ending in `/` is a directory): the service's lock shell and the
/// durable module — the two places that both take service-side mutexes
/// and sit next to the event plumbing.
const PUBLISH_UNDER_LOCK_FILES: &[&str] =
    &["crates/core/src/service.rs", "crates/core/src/durable/"];

/// Files `sans-io-shard` applies to (suffix match): the per-shard state
/// machine and the connectivity router, which the service's lock shell
/// drives.
const SANS_IO_FILES: &[&str] = &["crates/core/src/shard.rs", "crates/core/src/router.rs"];

const RECURSION_FILES: &[&str] = &[
    "crates/db/src/eval.rs",
    "crates/core/src/intra.rs",
    "crates/core/src/matching.rs",
];

/// Crates whose non-test sources must not contain bare `.unwrap()`.
const NO_UNWRAP_SCOPES: &[&str] = &["crates/core/src/", "crates/db/src/", "crates/unify/src/"];

/// Directories exempt from `io-choke-point` wholesale: the storage
/// crate *is* the choke point, and the analyzer must read source files
/// to do its job.
const IO_CHOKE_EXEMPT_DIRS: &[&str] = &["crates/store/src/", "crates/check/src/"];

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/ir/src/lib.rs",
    "crates/unify/src/lib.rs",
    "crates/db/src/lib.rs",
    "crates/sql/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/workload/src/lib.rs",
    "crates/store/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/check/src/lib.rs",
];

fn rule(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("unknown rule {name}"))
}

fn allowed(rule: &Rule, path: &str, func: Option<&str>) -> bool {
    rule.allow.iter().any(|entry| match entry.split_once("::") {
        Some((file, f)) => path_matches(path, file) && func == Some(f),
        None => path_matches(path, entry),
    })
}

/// Suffix match so both `crates/core/src/events.rs` and an absolute
/// on-disk path compare equal to the rule's workspace-relative entry.
/// An entry ending in `/` is a directory: it matches every path under
/// it.
fn path_matches(path: &str, entry: &str) -> bool {
    if entry.ends_with('/') {
        return path.starts_with(entry) || path.contains(&format!("/{entry}"));
    }
    path == entry || path.ends_with(&format!("/{entry}"))
}

// ---------------------------------------------------------------------------
// Structural analysis: cfg(test) regions + enclosing functions
// ---------------------------------------------------------------------------

/// Per-token structural facts layered over the raw token stream.
struct Analysis {
    tokens: Vec<Token>,
    /// Token is inside a `#[cfg(test)]`/`#[test]`-gated item.
    in_test: Vec<bool>,
    /// Name of the innermost enclosing `fn`, if any.
    enclosing_fn: Vec<Option<String>>,
    /// Modules declared out of line (`mod name;`), each with whether
    /// the declaration is test-gated (`#[cfg(test)] mod name;`, or any
    /// declaration inside a test region): the module's file is then
    /// test code as a whole.
    modules: Vec<(String, bool)>,
}

enum Scope {
    Test,
    Func,
    Other,
}

/// Analyzes one file; `test_file` marks all of it as test code (a
/// module file declared under a test gate elsewhere).
fn analyze(src: &str, test_file: bool) -> Analysis {
    let tokens = lex(src);
    let mut in_test = Vec::with_capacity(tokens.len());
    let mut enclosing_fn: Vec<Option<String>> = Vec::with_capacity(tokens.len());
    let mut modules = Vec::new();

    let mut stack: Vec<Scope> = Vec::new();
    // Test scopes currently open; a test file is one whole.
    let mut test_depth = usize::from(test_file);
    let mut fn_stack: Vec<String> = Vec::new();
    let mut pending_test = false;
    let mut pending_fn: Option<String> = None;
    // Tokens before this index are attribute interior: their brackets
    // and identifiers carry no structural meaning for the scope walk.
    let mut attr_until = 0usize;

    for i in 0..tokens.len() {
        in_test.push(test_depth > 0);
        enclosing_fn.push(fn_stack.last().cloned());
        if i < attr_until {
            continue;
        }
        match &tokens[i].kind {
            crate::lexer::TokenKind::Symbol('#') => {
                // Attribute: `#[...]` (outer) or `#![...]` (inner). Only
                // outer attributes latch a pending test-gate marker; a
                // `not(...)` anywhere inside (e.g. `cfg(not(test))`)
                // keeps the item live.
                let inner = tokens.get(i + 1).is_some_and(|t| t.is_symbol('!'));
                let open = i + if inner { 2 } else { 1 };
                if tokens.get(open).is_some_and(|t| t.is_symbol('[')) {
                    let mut depth = 1usize;
                    let mut j = open + 1;
                    let mut has_test = false;
                    let mut has_not = false;
                    while j < tokens.len() && depth > 0 {
                        let tj = &tokens[j];
                        if tj.is_symbol('[') {
                            depth += 1;
                        } else if tj.is_symbol(']') {
                            depth -= 1;
                        } else if let Some(id) = tj.ident() {
                            has_test |= id == "test";
                            has_not |= id == "not";
                        }
                        j += 1;
                    }
                    if !inner && has_test && !has_not {
                        pending_test = true;
                    }
                    attr_until = j;
                }
            }
            crate::lexer::TokenKind::Ident(id) if id == "fn" => {
                if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                    pending_fn = Some(name.to_owned());
                }
            }
            crate::lexer::TokenKind::Ident(id) if id == "mod" => {
                let name = tokens.get(i + 1).and_then(|t| t.ident());
                if let Some(name) =
                    name.filter(|_| tokens.get(i + 2).is_some_and(|t| t.is_symbol(';')))
                {
                    modules.push((name.to_owned(), pending_test || test_depth > 0));
                }
            }
            crate::lexer::TokenKind::Symbol('{') => {
                let scope = if pending_test {
                    pending_test = false;
                    pending_fn = None;
                    test_depth += 1;
                    Scope::Test
                } else if let Some(name) = pending_fn.take() {
                    fn_stack.push(name);
                    Scope::Func
                } else {
                    Scope::Other
                };
                stack.push(scope);
            }
            crate::lexer::TokenKind::Symbol('}') => match stack.pop() {
                Some(Scope::Test) => test_depth = test_depth.saturating_sub(1),
                Some(Scope::Func) => {
                    fn_stack.pop();
                }
                _ => {}
            },
            crate::lexer::TokenKind::Symbol(';') => {
                // `#[cfg(test)] use x;` or a bodiless `fn f();`: a
                // pending marker must not latch onto a later item.
                pending_test = false;
                pending_fn = None;
            }
            _ => {}
        }
    }

    Analysis {
        tokens,
        in_test,
        enclosing_fn,
        modules,
    }
}

/// The files a `mod name;` in `path` may name: `name.rs` or
/// `name/mod.rs`, beside a crate root or a `mod.rs`, under a directory
/// named after any other file.
fn module_files(path: &str, name: &str) -> [String; 2] {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let base = match stem {
        "mod" | "lib" | "main" => dir.to_owned(),
        _ if dir.is_empty() => stem.to_owned(),
        _ => format!("{dir}/{stem}"),
    };
    let prefix = if base.is_empty() {
        String::new()
    } else {
        format!("{base}/")
    };
    [
        format!("{prefix}{name}.rs"),
        format!("{prefix}{name}/mod.rs"),
    ]
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

/// Runs every applicable rule over one source file. `path` is the
/// workspace-relative path the file is checked *as* (fixtures use a
/// `//@ path:` directive to impersonate real locations).
pub fn check_source(path: &str, src: &str) -> Vec<Violation> {
    check_analyzed(path, &analyze(src, false))
}

/// Runs every applicable rule over a set of source files, given as
/// `(path, source)` pairs, with each module file that a test-gated
/// declaration names (`#[cfg(test)] mod tests;`) — and every module
/// below it — checked as test code, like an inline test module.
pub fn check_sources(files: &[(String, String)]) -> Vec<Violation> {
    let mut analyses: Vec<Analysis> = files.iter().map(|(_, src)| analyze(src, false)).collect();
    let at = |path: &str| files.iter().position(|(p, _)| p == path);
    let mut test_files = vec![false; files.len()];
    let mut work: Vec<usize> = Vec::new();
    let declared = |file: usize, analysis: &Analysis, whole: bool| -> Vec<usize> {
        (analysis.modules.iter())
            .filter(|(_, gated)| whole || *gated)
            .filter_map(|(name, _)| {
                module_files(&files[file].0, name)
                    .iter()
                    .find_map(|p| at(p))
            })
            .collect()
    };
    for (file, analysis) in analyses.iter().enumerate() {
        work.extend(declared(file, analysis, false));
    }
    while let Some(file) = work.pop() {
        if !std::mem::replace(&mut test_files[file], true) {
            work.extend(declared(file, &analyses[file], true));
        }
    }
    let mut out = Vec::new();
    for (file, (path, src)) in files.iter().enumerate() {
        if test_files[file] {
            analyses[file] = analyze(src, true);
        }
        out.extend(check_analyzed(path, &analyses[file]));
    }
    out
}

fn check_analyzed(path: &str, a: &Analysis) -> Vec<Violation> {
    let mut out = Vec::new();

    scan_spawn(path, a, &mut out);
    scan_channel(path, a, &mut out);
    scan_unwrap_expect(path, a, &mut out);
    scan_recursion(path, a, &mut out);
    scan_unifier_clone(path, a, &mut out);
    scan_event_construction(path, a, &mut out);
    scan_publish_under_lock(path, a, &mut out);
    scan_sans_io(path, a, &mut out);
    scan_io(path, a, &mut out);
    scan_forbid_unsafe(path, a, &mut out);

    out.sort_by(|x, y| (x.line, x.rule).cmp(&(y.line, y.rule)));
    out
}

fn ident_at(a: &Analysis, i: usize) -> Option<&str> {
    a.tokens.get(i).and_then(|t| t.ident())
}

fn symbol_at(a: &Analysis, i: usize, c: char) -> bool {
    a.tokens.get(i).is_some_and(|t| t.is_symbol(c))
}

/// True if the token at `i` (just past a callee identifier) begins a
/// call — either `(` directly or a turbofish `::<...>(`.
fn call_follows(a: &Analysis, i: usize) -> bool {
    if symbol_at(a, i, '(') {
        return true;
    }
    if symbol_at(a, i, ':') && symbol_at(a, i + 1, ':') && symbol_at(a, i + 2, '<') {
        let mut depth = 1usize;
        let mut j = i + 3;
        while j < a.tokens.len() && depth > 0 {
            if symbol_at(a, j, '<') {
                depth += 1;
            } else if symbol_at(a, j, '>') {
                depth -= 1;
            }
            j += 1;
        }
        return symbol_at(a, j, '(');
    }
    false
}

/// `spawn(` anywhere outside cfg(test) — covers `thread::spawn(...)`,
/// `std::thread::spawn(...)`, and `scope.spawn(...)`.
fn scan_spawn(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("spawn-confinement");
    if allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        if ident_at(a, i) == Some("spawn") && call_follows(a, i + 1) {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: "thread spawn outside events.rs; \
                          evaluation runs on the caller's thread"
                    .into(),
            });
        }
    }
}

/// `channel(` (including `mpsc::channel(`) in non-test code. The
/// bounded `sync_channel` is a different identifier and stays legal.
fn scan_channel(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("unbounded-channel");
    if allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        if ident_at(a, i) == Some("channel") && call_follows(a, i + 1) {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: "unbounded mpsc channel in non-test code; use \
                          sync_channel or events::bounded"
                    .into(),
            });
        }
    }
}

/// `.unwrap()` in the three engine crates; `.expect()` additionally in
/// the designated hot-path files.
fn scan_unwrap_expect(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let unwrap_rule = rule("no-unwrap");
    let expect_rule = rule("no-expect-hot");
    let in_unwrap_scope = NO_UNWRAP_SCOPES.iter().any(|s| path_matches(path, s));
    let in_hot_file = HOT_PATH_FILES.iter().any(|f| path_matches(path, f));
    if !in_unwrap_scope && !in_hot_file {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] || !symbol_at(a, i, '.') {
            continue;
        }
        let callee = ident_at(a, i + 1);
        let is_call = symbol_at(a, i + 2, '(');
        if !is_call {
            continue;
        }
        if in_unwrap_scope && callee == Some("unwrap") && !allowed(unwrap_rule, path, None) {
            out.push(Violation {
                rule: unwrap_rule.name,
                path: path.to_owned(),
                line: a.tokens[i + 1].line,
                message: "bare .unwrap() in non-test engine code; restructure \
                          or use a documented expect outside the hot paths"
                    .into(),
            });
        }
        if in_hot_file && callee == Some("expect") && !allowed(expect_rule, path, None) {
            out.push(Violation {
                rule: expect_rule.name,
                path: path.to_owned(),
                line: a.tokens[i + 1].line,
                message: "panic path (.expect) in an evaluator/unifier/matching \
                          hot file; handle the impossible case structurally"
                    .into(),
            });
        }
    }
}

/// An identifier calling itself (`name(...)` inside `fn name`) outside
/// cfg(test) in the iterative-by-contract files.
fn scan_recursion(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("no-direct-recursion");
    if !RECURSION_FILES.iter().any(|f| path_matches(path, f)) || allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        let Some(name) = ident_at(a, i) else { continue };
        if !symbol_at(a, i + 1, '(') {
            continue;
        }
        // Skip the definition site itself (`fn name(`).
        if i > 0 && ident_at(a, i - 1) == Some("fn") {
            continue;
        }
        if a.enclosing_fn[i].as_deref() == Some(name) {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: format!(
                    "direct recursion in `{name}` — this file is iterative by \
                     contract (heap-bounded depth); keep recursion in \
                     cfg(test) oracles"
                ),
            });
        }
    }
}

/// `.clone()` on a unifier-shaped receiver (`unifier`, `global`, `mgu`,
/// or any `*_unifier` binding) or an explicit `Unifier::clone(..)` in
/// the files of [`UNIFIER_CLONE_FILES`], outside cfg(test). Keeps the
/// zero-clone hot path honest: a unifier is moved or merged in place
/// (`merge_from`), never deep-copied.
fn scan_unifier_clone(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("no-unifier-clone");
    if !UNIFIER_CLONE_FILES.iter().any(|f| path_matches(path, f)) || allowed(r, path, None) {
        return;
    }
    let unifier_shaped =
        |name: &str| matches!(name, "unifier" | "global" | "mgu") || name.ends_with("_unifier");
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        let Some(name) = ident_at(a, i) else { continue };
        let method_clone = symbol_at(a, i + 1, '.')
            && ident_at(a, i + 2) == Some("clone")
            && symbol_at(a, i + 3, '(')
            && unifier_shaped(name);
        let ufcs_clone = name == "Unifier"
            && symbol_at(a, i + 1, ':')
            && symbol_at(a, i + 2, ':')
            && ident_at(a, i + 3) == Some("clone")
            && call_follows(a, i + 4);
        if method_clone || ufcs_clone {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: "Unifier deep-copied on a matching/evaluation path; \
                          move it or merge_from it instead — clones are \
                          confined to cfg(test) oracles"
                    .into(),
            });
        }
    }
}

/// `Event::Variant(...)`/`Event::Variant {{ ... }}` in eq_core outside
/// the allowlisted service functions.
fn scan_event_construction(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("event-choke-point");
    if !(path.contains("crates/core/src/") || path.starts_with("crates/core/src/")) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        if ident_at(a, i) != Some("Event") || !symbol_at(a, i + 1, ':') || !symbol_at(a, i + 2, ':')
        {
            continue;
        }
        let Some(_variant) = ident_at(a, i + 3) else {
            continue;
        };
        let constructs = symbol_at(a, i + 4, '(') || symbol_at(a, i + 4, '{');
        if !constructs {
            continue;
        }
        if allowed(r, path, a.enclosing_fn[i].as_deref()) {
            continue;
        }
        out.push(Violation {
            rule: r.name,
            path: path.to_owned(),
            line: a.tokens[i].line,
            message: "Event built outside the stage_outcomes/stage_flushed \
                      choke point — all event construction in shard critical \
                      sections must go through one staging site"
                .into(),
        });
    }
}

/// A call to one of the publishing identifiers (`broadcast`, `pump`,
/// `publish_flushed`) from a brace scope in which a `.lock()` guard was
/// taken and is still live. Conservative by design: a guard is treated
/// as held until its scope closes (temporaries like
/// `x.lock().append(..)` extend to the end of the block), which is the
/// right bias for a rule whose job is keeping subscriber I/O out of
/// critical sections — staging (`Dispatcher::enqueue`) is what's legal
/// under a lock, delivery is not.
fn scan_publish_under_lock(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("no-publish-under-lock");
    if !PUBLISH_UNDER_LOCK_FILES
        .iter()
        .any(|f| path_matches(path, f))
        || allowed(r, path, None)
    {
        return;
    }
    let banned = |name: &str| matches!(name, "broadcast" | "pump" | "publish_flushed");
    let mut depth = 0usize;
    // Brace depths at which a lock guard was created; a guard dies when
    // its scope closes (depth drops below the recorded value).
    let mut lock_depths: Vec<usize> = Vec::new();
    for i in 0..a.tokens.len() {
        if symbol_at(a, i, '{') {
            depth += 1;
        } else if symbol_at(a, i, '}') {
            depth = depth.saturating_sub(1);
            lock_depths.retain(|&d| d <= depth);
        }
        if a.in_test[i] {
            continue;
        }
        if symbol_at(a, i, '.') && ident_at(a, i + 1) == Some("lock") && symbol_at(a, i + 2, '(') {
            lock_depths.push(depth);
        }
        let Some(name) = ident_at(a, i) else { continue };
        // Skip definition sites (`fn pump(`): only calls publish.
        if i > 0 && ident_at(a, i - 1) == Some("fn") {
            continue;
        }
        if banned(name)
            && call_follows(a, i + 1)
            && !lock_depths.is_empty()
            && !allowed(r, path, a.enclosing_fn[i].as_deref())
        {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: format!(
                    "`{name}` called while a mutex guard from .lock() is live \
                     — stage events on the dispatch queue inside the lock and \
                     deliver after it is released"
                ),
            });
        }
    }
}

/// A lock, thread, channel, dispatcher or sink type named, or the clock
/// read (`Instant::now`), outside cfg(test) in [`SANS_IO_FILES`]. Names
/// are matched as whole identifiers, so `now: Instant` parameters and
/// comments stay legal.
fn scan_sans_io(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("sans-io-shard");
    if !SANS_IO_FILES.iter().any(|f| path_matches(path, f)) || allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        let Some(name) = ident_at(a, i) else { continue };
        let banned = matches!(
            name,
            "Mutex"
                | "MutexGuard"
                | "RwLock"
                | "RwLockReadGuard"
                | "RwLockWriteGuard"
                | "Condvar"
                | "thread"
                | "mpsc"
                | "channel"
                | "sync_channel"
                | "Dispatcher"
                | "DurabilitySink"
        );
        let clock = name == "Instant"
            && symbol_at(a, i + 1, ':')
            && symbol_at(a, i + 2, ':')
            && ident_at(a, i + 3) == Some("now");
        if banned || clock {
            let what = if clock { "Instant::now" } else { name };
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: format!(
                    "`{what}` in the sans-IO shard layer — take `now` as a \
                     parameter and return effects; the service shell owns \
                     locks, the clock, dispatch and the sink"
                ),
            });
        }
    }
}

/// The token paths `std::fs` and `io::Write` (which also catches
/// `std::io::Write`) outside cfg(test) — file IO is confined to the
/// audited choke points so durability guarantees (fsync discipline,
/// torn-tail handling, page placement) have exactly one implementation.
/// `std::fmt::Write` is a different path and stays legal everywhere.
fn scan_io(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("io-choke-point");
    let exempt = IO_CHOKE_EXEMPT_DIRS.iter().any(|s| path_matches(path, s));
    if exempt || allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if a.in_test[i] {
            continue;
        }
        let segment = |j: usize, name: &str| -> bool {
            symbol_at(a, j, ':') && symbol_at(a, j + 1, ':') && ident_at(a, j + 2) == Some(name)
        };
        let hit = match ident_at(a, i) {
            Some("std") => segment(i + 1, "fs"),
            Some("io") => segment(i + 1, "Write"),
            _ => false,
        };
        if hit {
            out.push(Violation {
                rule: r.name,
                path: path.to_owned(),
                line: a.tokens[i].line,
                message: "file IO outside the eq_store choke point — route \
                          page/WAL/checkpoint traffic through eq_store (or \
                          the bench JSON writer for reports)"
                    .into(),
            });
        }
    }
}

/// Crate roots must open with `#![forbid(unsafe_code)]`.
fn scan_forbid_unsafe(path: &str, a: &Analysis, out: &mut Vec<Violation>) {
    let r = rule("forbid-unsafe");
    if !FORBID_UNSAFE_ROOTS.iter().any(|f| path_matches(path, f)) || allowed(r, path, None) {
        return;
    }
    for i in 0..a.tokens.len() {
        if symbol_at(a, i, '#')
            && symbol_at(a, i + 1, '!')
            && symbol_at(a, i + 2, '[')
            && ident_at(a, i + 3) == Some("forbid")
            && symbol_at(a, i + 4, '(')
            && ident_at(a, i + 5) == Some("unsafe_code")
        {
            return; // present
        }
    }
    out.push(Violation {
        rule: r.name,
        path: path.to_owned(),
        line: 1,
        message: "crate root is missing #![forbid(unsafe_code)]".into(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_mask_violations() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn go() { std::thread::spawn(|| {}); }
            }
        ";
        assert!(check_source("crates/core/src/engine.rs", src).is_empty());
    }

    /// A module file is test code when its declaration is test-gated,
    /// and so is every module below it; a plain declaration's file, or
    /// one gated `cfg(not(test))`, stays engine code.
    #[test]
    fn a_test_gated_module_file_is_test_code() {
        let unwraps = "fn f() { None::<u32>.unwrap(); }\nmod deeper;";
        let files: Vec<(String, String)> = [
            (
                "crates/core/src/a/mod.rs",
                "#[cfg(test)]\nmod tests;\nmod live;\n#[cfg(not(test))]\nmod prod;",
            ),
            ("crates/core/src/a/tests.rs", unwraps),
            ("crates/core/src/a/tests/deeper/mod.rs", unwraps),
            ("crates/core/src/a/live.rs", unwraps),
            ("crates/core/src/a/prod.rs", unwraps),
            ("crates/core/src/b.rs", "#[cfg(test)]\nmod tests;"),
            ("crates/core/src/b/tests.rs", unwraps),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let fired: Vec<String> = check_sources(&files).into_iter().map(|v| v.path).collect();
        assert_eq!(
            fired,
            ["crates/core/src/a/live.rs", "crates/core/src/a/prod.rs"]
        );
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "
            #[cfg(not(test))]
            mod prod {
                fn go() { std::thread::spawn(|| {}); }
            }
        ";
        let v = check_source("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "spawn-confinement");
    }

    #[test]
    fn attribute_on_statement_does_not_leak() {
        // `#[cfg(test)] use x;` must not mark the next item as test.
        let src = "
            #[cfg(test)]
            use std::thread;
            fn go() { thread::spawn(|| {}); }
        ";
        let v = check_source("crates/core/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn enclosing_fn_names_nested_items() {
        let src = "
            fn outer() {
                let c = |x: u32| x;
                inner(c(1));
            }
            fn inner(x: u32) -> u32 { inner_helper(x) }
            fn inner_helper(x: u32) -> u32 { x }
        ";
        // No recursion: inner calls inner_helper, not itself.
        assert!(check_source("crates/core/src/intra.rs", src).is_empty());
    }

    #[test]
    fn direct_recursion_is_flagged_per_enclosing_fn() {
        let src = "fn walk(n: u32) -> u32 { if n == 0 { 0 } else { walk(n - 1) } }";
        let v = check_source("crates/db/src/eval.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-direct-recursion");
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = r#"
            fn f() {
                // result.unwrap() would be wrong here
                let msg = "do not .unwrap() the poison";
                result.unwrap_or_default();
            }
        "#;
        assert!(check_source("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn event_choke_point_honors_function_allowlist() {
        let good = "
            impl Coordinator {
                fn stage_outcomes(&self) { self.enqueue(Event::Expired { id, tag }); }
                fn stage_flushed(&self, r: BatchReport) {
                    self.enqueue(Event::Flushed(r));
                }
            }
        ";
        assert!(check_source("crates/core/src/service.rs", good).is_empty());
        let bad = "
            impl Coordinator {
                fn sneaky(&self) { self.enqueue(Event::Flushed(r)); }
            }
        ";
        let v = check_source("crates/core/src/service.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "event-choke-point");
        // The accessors match on variants beside the type itself.
        let accessor = "
            impl Event {
                pub fn id(&self) -> Option<u64> {
                    match self { Event::Answered { id } => Some(*id), _ => None }
                }
            }
        ";
        assert!(check_source("crates/core/src/events.rs", accessor).is_empty());
        assert_eq!(
            check_source("crates/core/src/service.rs", accessor).len(),
            1
        );
    }

    #[test]
    fn publish_under_lock_tracks_guard_scopes() {
        // A publish inside a scope holding a `.lock()` guard fires;
        // the same call after the guard's scope closed does not.
        let bad = "
            impl Coordinator {
                fn flush(&self) {
                    let mut inner = self.inner.lock();
                    inner.step();
                    self.broadcast(done);
                }
            }
        ";
        let v = check_source("crates/core/src/service.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-publish-under-lock");

        let good = "
            impl Coordinator {
                fn flush(&self) {
                    {
                        let mut inner = self.inner.lock();
                        inner.step();
                    }
                    self.broadcast(done);
                }
            }
        ";
        assert!(check_source("crates/core/src/service.rs", good).is_empty());
        // Out-of-scope files and cfg(test) regions are exempt;
        // `pump_stats` is a different identifier than the banned `pump`.
        assert!(check_source("crates/core/src/engine.rs", bad).is_empty());
        let pump_stats = "
            fn recover(&self) {
                let state = self.state.lock();
                drop(state);
                self.coordinator.pump_stats();
            }
        ";
        assert!(check_source("crates/core/src/durable/sink.rs", pump_stats).is_empty());
        // The durable module is a directory: a publish under a lock in
        // any file of it fires, and in a file beside it does not.
        let durable_bad = "
            fn checkpoint(&self) {
                let state = self.state.lock();
                self.coordinator.pump();
            }
        ";
        for file in [
            "crates/core/src/durable/sink.rs",
            "crates/core/src/durable/mod.rs",
        ] {
            let v = check_source(file, durable_bad);
            assert_eq!(v.len(), 1, "{file}: {v:?}");
            assert_eq!(v[0].rule, "no-publish-under-lock");
        }
        assert!(check_source("crates/core/src/durable.rs", durable_bad).is_empty());
    }

    #[test]
    fn sans_io_shard_bans_locks_and_the_clock_but_not_instants() {
        let good = "
            use std::time::Instant;
            pub struct Shard;
            impl Shard {
                pub fn flush(&mut self, now: Instant) {}
            }
            #[cfg(test)]
            mod tests {
                fn t() { let m = std::sync::Mutex::new(Instant::now()); }
            }
        ";
        assert!(check_source("crates/core/src/shard.rs", good).is_empty());
        let bad = "
            pub struct Shard { m: parking_lot::Mutex<u64> }
            fn tick() { let t = std::time::Instant::now(); }
        ";
        let v = check_source("crates/core/src/router.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "sans-io-shard"));
        // The shell is where locks and the clock live.
        assert!(check_source("crates/core/src/service.rs", bad).is_empty());
    }

    #[test]
    fn unifier_clone_is_confined_to_test_oracles() {
        let banned = "
            fn speculate(parent_unifier: &Unifier) -> Unifier {
                let forked = parent_unifier.clone();
                forked
            }
        ";
        let v = check_source("crates/core/src/matching.rs", banned);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unifier-clone");

        let ufcs = "fn f(global: &Unifier) -> Unifier { Unifier::clone(global) }";
        let v = check_source("crates/core/src/engine.rs", ufcs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-unifier-clone");

        // Benign clones, cfg(test) oracles, and out-of-scope files are
        // all legal.
        let benign = "fn f(report: &BatchReport) -> BatchReport { report.clone() }";
        assert!(check_source("crates/core/src/engine.rs", benign).is_empty());
        let oracle = "
            #[cfg(test)]
            mod tests {
                fn fork(global: &Unifier) -> Unifier { global.clone() }
            }
        ";
        assert!(check_source("crates/core/src/combine.rs", oracle).is_empty());
        assert!(check_source("crates/core/src/intra.rs", banned).is_empty());
    }

    #[test]
    fn io_is_confined_to_the_storage_choke_point() {
        let banned = "fn persist() { std::fs::write(\"x\", b\"y\").ok(); }";
        let v = check_source("crates/core/src/durable/recovery.rs", banned);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "io-choke-point");

        let trait_import = "#![forbid(unsafe_code)]\nuse std::io::Write;\nfn f() {}";
        let v = check_source("crates/workload/src/out_of_core.rs", trait_import);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "io-choke-point");

        // The choke points themselves, the analyzer, and the bench JSON
        // writer stay legal; so does fmt::Write anywhere.
        assert!(check_source("crates/store/src/wal.rs", banned).is_empty());
        assert!(check_source("crates/check/src/main.rs", banned).is_empty());
        assert!(check_source("crates/bench/src/lib.rs", trait_import).is_empty());
        assert!(check_source(
            "crates/core/src/durable/codec.rs",
            "use std::fmt::Write;\nfn f() {}"
        )
        .is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_only_crate_roots() {
        let v = check_source("crates/core/src/lib.rs", "pub mod x;");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "forbid-unsafe");
        assert!(check_source(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;"
        )
        .is_empty());
        assert!(check_source("crates/core/src/engine.rs", "pub fn f() {}").is_empty());
    }
}
