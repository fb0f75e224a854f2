#![warn(missing_docs)]

//! `auditor` — a std-only static-analysis pass that machine-enforces the
//! workspace's determinism and panic-surface invariants.
//!
//! The fleet-carbon numbers this repo reproduces are only trustworthy
//! because every execution strategy (serial, parallel, streamed, columnar)
//! is pinned bit-identical. The rules that guarantee that — rank-order
//! left folds, CRN RNG keying, no iteration-order or wall-clock
//! nondeterminism in result paths — used to live only as prose in
//! `docs/ARCHITECTURE.md`. This crate turns each of them into a named,
//! testable rule, run as a CI gate:
//!
//! ```text
//! cargo run -p auditor -- check                    # audit, exit != 0 on any finding
//! cargo run -p auditor -- check --format github    # PR-diff annotations
//! cargo run -p auditor -- rules                    # list the enforced rules
//! cargo run -p auditor -- graph --dot [--crates]   # export the call graph
//! ```
//!
//! Two invariants are not rules here, because the compiler checks them at
//! every call site: no `unsafe` code (`[workspace.lints.rust] unsafe_code =
//! "forbid"`) and no raw thread creation outside the sites that carry an
//! `#[expect(clippy::disallowed_methods, reason = "…")]` (the root
//! `clippy.toml`).
//!
//! Two engines share one registry ([`registry::REGISTRY`]):
//!
//! - **lexical** rules ([`rules`]) check one file at a time over a
//!   lightweight token stream;
//! - **semantic** rules ([`semantic`]) check the whole workspace over an
//!   item/call graph ([`items`], [`graph`]): reachability from result
//!   entry points replaces per-file allowlists, panic sites on the serve
//!   request lifecycle must be justified, and sync-site acquisition order
//!   must form a DAG.
//!
//! Diagnostics are `file:line: rule-id: message`. The escape hatch is a
//! comment directly above (or trailing) the offending line:
//!
//! ```text
//! // audit: allow(wall-clock) — measuring real elapsed time is the point here
//! ```
//!
//! Allows must name a known rule and carry a reason; `allow-hygiene`
//! enforces that too. `check` fails on any finding; [`report`] renders
//! findings as text or as GitHub annotations.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod registry;
pub mod report;
pub mod rules;
pub mod semantic;

pub use registry::{known_rule, Rule, RuleKind, REGISTRY};
pub use rules::{audit_source, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS metadata, and
/// the auditor's own rule fixtures (which violate rules on purpose).
const EXCLUDED_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Recursively collects every workspace `.rs` file under `root`, sorted by
/// path so diagnostics (and therefore CI logs) are deterministic.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !EXCLUDED_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Collects the workspace manifests (`Cargo.toml` at the root and one per
/// `crates/*` member) as workspace-relative `(path, source)` pairs.
pub fn collect_manifests(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut candidates = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        members.sort();
        for m in members {
            let manifest = m.join("Cargo.toml");
            if manifest.is_file() {
                candidates.push(manifest);
            }
        }
    }
    for path in candidates {
        if !path.is_file() {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

/// Audits a set of in-memory sources: the per-file lexical rules plus the
/// workspace-wide semantic rules over the item/call graph built from
/// `sources` and the dependency closures in `manifests`. Paths must be
/// workspace-relative with forward slashes. Violations are sorted by
/// (path, line, rule).
///
/// The escape-hatch comment (`allow(rule-id)` with a reason, as described
/// in the crate docs) applies to semantic findings exactly as to lexical
/// ones: the allow lives in the file the finding is reported against.
pub fn audit_sources(
    sources: &[(String, String)],
    manifests: &[(String, String)],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut files = Vec::with_capacity(sources.len());
    let mut allows = Vec::with_capacity(sources.len());
    for (path, source) in sources {
        let lexed = lexer::lex(source);
        files.push(items::parse_items(path, &lexed));
        let (vs, al) = rules::audit_file(path, lexed);
        violations.extend(vs);
        allows.push((path.as_str(), al));
    }
    let graph = graph::Graph::build(&files, manifests);
    let mut semantic = semantic::check(&files, &graph);
    semantic.retain(|v| {
        !allows
            .iter()
            .any(|(path, al)| *path == v.path && al.iter().any(|a| a.excuses(v.rule, v.line)))
    });
    violations.extend(semantic);
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    // Two sites on one line (e.g. `intervals()[i]` twice) produce identical
    // findings; one diagnostic per (path, line, rule, message) is enough.
    violations.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    violations
}

/// Workspace-relative `(path, contents)` pairs — `.rs` sources or
/// `Cargo.toml` manifests.
pub type NamedSources = Vec<(String, String)>;

/// Reads every `.rs` file and manifest under `root` as workspace-relative
/// `(path, source)` pairs.
pub fn load_workspace(root: &Path) -> io::Result<(NamedSources, NamedSources)> {
    let mut sources = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok((sources, collect_manifests(root)?))
}

/// Audits every `.rs` file under `root` (lexical + semantic rules) and
/// returns all violations, sorted by (path, line, rule).
pub fn audit_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let (sources, manifests) = load_workspace(root)?;
    Ok(audit_sources(&sources, &manifests))
}

/// Builds the workspace call graph (for `graph --dot`).
pub fn workspace_graph(root: &Path) -> io::Result<graph::Graph> {
    let (sources, manifests) = load_workspace(root)?;
    let files: Vec<items::FileItems> = sources
        .iter()
        .map(|(path, source)| items::parse_items(path, &lexer::lex(source)))
        .collect();
    Ok(graph::Graph::build(&files, &manifests))
}
