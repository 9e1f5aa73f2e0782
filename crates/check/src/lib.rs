//! `eq_check`: the in-tree concurrency-discipline analyzer.
//!
//! The engine's correctness rests on concurrency invariants that the
//! compiler cannot see — no thread is spawned outside the event
//! plumbing, events are only built at the service-lock
//! choke point, the evaluator/matching/intra files must stay iterative
//! (heap-bounded depth), hot paths must not panic through
//! `.unwrap()`/`.expect()`. This crate makes those invariants
//! *machine-checked*: a hand-rolled, vendor-free Rust lexer
//! ([`lexer`]) feeds a rule engine ([`rules`]) that scans every
//! workspace source file and reports violations with file, line, rule,
//! and rationale.
//!
//! Run it as `cargo run -p eq_check` (exit status 1 on any violation —
//! wired into `scripts/ci.sh`), or point it at specific files with
//! `--file`. Each rule ships a must-pass/must-fail fixture pair under
//! `fixtures/` (exercised by `--fixtures` and the test suite), so the
//! checker itself is checked: a rule that silently stops firing fails
//! CI.
//!
//! The rules are listed with their rationale in `docs/ARCHITECTURE.md`
//! ("Invariants & analysis"). The companion *dynamic* half of the
//! discipline story lives in the instrumented `parking_lot` shim:
//! debug-build lock-order inversion detection and always-on hold-time
//! counters surfaced through `BatchReport::lock_hold_ns`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{check_source, check_sources, Violation, FORBID_UNSAFE_ROOTS, RULES};

use std::path::{Path, PathBuf};

/// Source directories scanned by [`check_workspace`], relative to the
/// workspace root. Vendor shims are deliberately out of scope: they
/// exist to wrap the std primitives and poison-handling the rules ban
/// elsewhere (the instrumented lock layer *is* the vendored
/// `parking_lot`).
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "crates/ir/src",
    "crates/unify/src",
    "crates/db/src",
    "crates/sql/src",
    "crates/core/src",
    "crates/workload/src",
    "crates/store/src",
    "crates/bench/src",
    "crates/check/src",
];

/// The workspace root, resolved from this crate's manifest directory at
/// compile time (`crates/check` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels under the workspace root")
        .to_path_buf()
}

/// Scans every `.rs` file under [`SCAN_ROOTS`] and returns all
/// violations, sorted by path then line. Also enforces that every
/// crate root in [`FORBID_UNSAFE_ROOTS`] was actually seen (a renamed
/// lib.rs must not silently drop the `forbid-unsafe` check).
pub fn check_workspace(root: &Path) -> std::io::Result<(usize, Vec<Violation>)> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files)?;
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    let mut seen_roots = 0usize;
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        if FORBID_UNSAFE_ROOTS.iter().any(|r| rel == *r) {
            seen_roots += 1;
        }
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    let mut out = check_sources(&sources);
    if seen_roots != FORBID_UNSAFE_ROOTS.len() {
        out.push(Violation {
            rule: "forbid-unsafe",
            path: root.to_string_lossy().into_owned(),
            line: 1,
            message: format!(
                "only {seen_roots} of {} expected crate roots were found — \
                 update eq_check's FORBID_UNSAFE_ROOTS alongside workspace \
                 layout changes",
                FORBID_UNSAFE_ROOTS.len()
            ),
        });
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((files.len(), out))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A fixture's leading `//@ key: value` directives. `path` is the
/// workspace-relative location the fixture impersonates; `expect` (on
/// must-fail fixtures) names the rule that must fire.
#[derive(Debug, Default)]
pub struct Directives {
    pub path: Option<String>,
    pub expect: Option<String>,
}

/// Parses `//@ path:` / `//@ expect:` directives from a fixture source.
pub fn parse_directives(src: &str) -> Directives {
    let mut d = Directives::default();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("//@") else {
            continue;
        };
        if let Some((key, value)) = rest.split_once(':') {
            match key.trim() {
                "path" => d.path = Some(value.trim().to_owned()),
                "expect" => d.expect = Some(value.trim().to_owned()),
                _ => {}
            }
        }
    }
    d
}

/// Checks one on-disk file, honoring its `//@ path:` directive if
/// present (fixtures impersonate real workspace locations so the
/// path-scoped rules apply).
pub fn check_file(path: &Path) -> std::io::Result<Vec<Violation>> {
    let src = std::fs::read_to_string(path)?;
    let d = parse_directives(&src);
    let virtual_path = d
        .path
        .unwrap_or_else(|| path.to_string_lossy().replace('\\', "/"));
    Ok(check_source(&virtual_path, &src))
}

/// Checks every `.rs` file under `dir` as one source tree, each at the
/// location its `//@ path:` directive names, so a module declared in
/// one file and kept in another is resolved as in the workspace.
pub fn check_tree(dir: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(dir, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let path = parse_directives(&src)
            .path
            .unwrap_or_else(|| file.to_string_lossy().replace('\\', "/"));
        sources.push((path, src));
    }
    Ok(check_sources(&sources))
}

/// The fixture pair of out-of-line test modules, under
/// `crates/check/fixtures`: a `fail/` tree whose module file is declared
/// without a test gate (its `.unwrap()` fires `no-unwrap`) and a `pass/`
/// tree whose module file is declared by `#[cfg(test)] mod tests;` and
/// declares a module of its own (both are test code, and clean).
pub const MODULE_FIXTURE: &str = "test-module-file";

/// Verifies the fixture suite under `crates/check/fixtures`: every rule
/// has a `fail.rs` that fires exactly its own rule and a `pass.rs` that
/// is clean, and [`MODULE_FIXTURE`]'s `fail/` tree fires exactly
/// `no-unwrap` while its `pass/` tree is clean. Returns failures as
/// human-readable strings.
pub fn run_fixture_suite(root: &Path) -> std::io::Result<Vec<String>> {
    let fixtures = root.join("crates/check/fixtures");
    let mut problems = Vec::new();
    let module_fixture = fixtures.join(MODULE_FIXTURE);
    let fail = check_tree(&module_fixture.join("fail"))?;
    if fail.is_empty() || fail.iter().any(|v| v.rule != "no-unwrap") {
        problems.push(format!(
            "module fixture {}/fail must fire `no-unwrap` alone (got: {fail:?})",
            module_fixture.display()
        ));
    }
    let pass = check_tree(&module_fixture.join("pass"))?;
    if !pass.is_empty() {
        problems.push(format!(
            "module fixture {}/pass is not clean: {pass:?}",
            module_fixture.display()
        ));
    }
    for rule in RULES {
        let dir = fixtures.join(rule.name);
        let fail = dir.join("fail.rs");
        let pass = dir.join("pass.rs");
        if !fail.is_file() || !pass.is_file() {
            problems.push(format!(
                "rule `{}` is missing its fixture pair under {}",
                rule.name,
                dir.display()
            ));
            continue;
        }
        let fail_src = std::fs::read_to_string(&fail)?;
        let expect = parse_directives(&fail_src)
            .expect
            .unwrap_or_else(|| rule.name.to_owned());
        if expect != rule.name {
            problems.push(format!(
                "fixture {} declares `//@ expect: {expect}` but lives under \
                 rule `{}`",
                fail.display(),
                rule.name
            ));
        }
        let violations = check_file(&fail)?;
        if !violations.iter().any(|v| v.rule == rule.name) {
            problems.push(format!(
                "must-fail fixture {} did not trigger rule `{}` (got: {:?})",
                fail.display(),
                rule.name,
                violations
            ));
        }
        if let Some(stray) = violations.iter().find(|v| v.rule != rule.name) {
            problems.push(format!(
                "must-fail fixture {} triggered an unrelated rule: {stray}",
                fail.display()
            ));
        }
        let clean = check_file(&pass)?;
        if !clean.is_empty() {
            problems.push(format!(
                "must-pass fixture {} is not clean: {:?}",
                pass.display(),
                clean
            ));
        }
    }
    Ok(problems)
}
