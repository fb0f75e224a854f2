//! Fixture-based tests: every lexical rule with at least one violating and
//! one clean fixture, the scope (allowlist) dimension of each rule, the
//! escape-hatch comment path, a self-test that the real workspace is
//! clean, and drift checks that the docs table and the compiler-checked
//! lints stay in place.
//!
//! Fixtures live in `tests/fixtures/` (excluded from the workspace walk —
//! they violate rules on purpose) and are audited under *pretend* paths,
//! because rule scope is derived from the workspace-relative path.

use auditor::report::{self, Format};
use auditor::{audit_source, audit_workspace, known_rule, Violation, REGISTRY};

fn audit(pretend_path: &str, source: &str) -> Vec<Violation> {
    audit_source(pretend_path, source)
}

fn lines_of(violations: &[Violation], rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

// --------------------------------------------------------- map-iteration

#[test]
fn hash_iteration_in_result_crates_is_flagged() {
    let src = include_str!("fixtures/map_iter_bad.rs");
    let v = audit("crates/easyc/src/cache.rs", src);
    assert_eq!(lines_of(&v, "map-iteration"), vec![9, 15, 22, 27]);
}

#[test]
fn hash_lookup_btreemap_and_test_iteration_pass() {
    let src = include_str!("fixtures/map_iter_ok.rs");
    let v = audit("crates/easyc/src/index.rs", src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn map_iteration_rule_only_guards_result_crates() {
    let src = include_str!("fixtures/map_iter_bad.rs");
    assert!(audit("crates/auditor/src/walk.rs", src).is_empty());
    assert!(audit("tests/helpers.rs", src).is_empty());
}

// ------------------------------------------------------------ wall-clock

#[test]
fn wall_clock_and_env_entropy_are_flagged() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let v = audit("crates/analysis/src/report.rs", src);
    assert_eq!(lines_of(&v, "wall-clock"), vec![1, 4, 5, 12]);
}

#[test]
fn wall_clock_allowed_in_bench_criterion_and_tests() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    assert!(audit("crates/bench/benches/scaling.rs", src).is_empty());
    assert!(audit("crates/criterion/src/lib.rs", src).is_empty());
    assert!(audit("tests/streaming.rs", src).is_empty());
}

#[test]
fn sleep_env_macro_args_strings_and_test_mods_pass() {
    let src = include_str!("fixtures/wall_clock_ok.rs");
    let v = audit("crates/top500/src/io.rs", src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

// ------------------------------------------------------------- float-sum

#[test]
fn anonymous_float_reductions_in_easyc_are_flagged() {
    let src = include_str!("fixtures/float_sum_bad.rs");
    let v = audit("crates/easyc/src/uncertainty.rs", src);
    assert_eq!(lines_of(&v, "float-sum"), vec![2, 6, 11, 16]);
}

#[test]
fn integer_sums_and_ordered_folds_pass() {
    let src = include_str!("fixtures/float_sum_ok.rs");
    let v = audit("crates/easyc/src/batch.rs", src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn float_sum_rule_scopes_to_easyc_only() {
    let src = include_str!("fixtures/float_sum_bad.rs");
    assert!(audit("crates/frame/src/stats.rs", src).is_empty());
}

// --------------------------------------------------------- partial-merge

#[test]
fn adhoc_carbon_running_totals_are_flagged() {
    let src = include_str!("fixtures/partial_merge_bad.rs");
    let v = audit("src/main.rs", src);
    assert_eq!(lines_of(&v, "partial-merge"), vec![8, 9, 17, 25]);
    let v = audit("crates/analysis/src/fleet.rs", src);
    assert_eq!(lines_of(&v, "partial-merge").len(), 4);
}

#[test]
fn monoid_folds_integer_counts_and_test_references_pass() {
    let src = include_str!("fixtures/partial_merge_ok.rs");
    let v = audit("crates/analysis/src/fleet.rs", src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn the_partial_module_itself_may_accumulate() {
    let src = include_str!("fixtures/partial_merge_bad.rs");
    assert!(audit("crates/easyc/src/partial.rs", src).is_empty());
    assert!(audit("tests/helpers.rs", src).is_empty());
    assert!(audit("crates/bench/benches/scaling.rs", src).is_empty());
    assert!(audit("crates/auditor/src/walk.rs", src).is_empty());
}

// ------------------------------------------------------ the escape hatch

#[test]
fn reasoned_allows_suppress_block_and_trailing_forms() {
    let src = include_str!("fixtures/allow_ok.rs");
    let v = audit("crates/easyc/src/ops.rs", src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn bare_or_unknown_allows_are_hygiene_violations_and_do_not_suppress() {
    let src = include_str!("fixtures/allow_bad.rs");
    let v = audit("crates/easyc/src/ops.rs", src);
    assert_eq!(lines_of(&v, "allow-hygiene"), vec![2, 7, 12]);
    // The reasonless allow does not excuse the violation beneath it.
    assert_eq!(lines_of(&v, "wall-clock"), vec![3]);
}

#[test]
fn allow_must_name_the_matching_rule() {
    let src = "// audit: allow(float-sum) — wrong rule for this violation\nlet t = std::time::Instant::now();";
    let v = audit("crates/easyc/src/ops.rs", src);
    assert_eq!(lines_of(&v, "wall-clock"), vec![2]);
    assert!(lines_of(&v, "allow-hygiene").is_empty());
}

#[test]
fn rule_registry_is_consistent() {
    assert!(known_rule("map-iteration"));
    assert!(known_rule("allow-hygiene"));
    assert!(!known_rule("fast-and-loose"));
}

// -------------------------------------------------- the workspace itself

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The same gate CI runs: the real workspace must audit clean, with no
/// finding at all. Keeping it in `cargo test` means a violation fails fast
/// locally, with the exact diagnostics in the assertion message.
#[test]
fn workspace_audits_clean() {
    let violations = audit_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        violations.is_empty(),
        "workspace has invariant violations:\n{}",
        report::render(Format::Text, &violations)
    );
}

/// Two audits of the real workspace render identical `text` and `github`
/// output, so CI logs and PR annotations are deterministic.
#[test]
fn workspace_findings_round_trip_deterministically() {
    let root = workspace_root();
    let v1 = audit_workspace(&root).expect("walk workspace");
    let v2 = audit_workspace(&root).expect("walk workspace again");
    for format in [Format::Text, Format::Github] {
        assert_eq!(
            report::render(format, &v1),
            report::render(format, &v2),
            "two audits must render identically ({format:?})"
        );
    }
}

/// The committed crate-level DOT snapshot matches the live graph, so the
/// CI `graph --dot --crates` smoke diff cannot go stale silently.
#[test]
fn crate_graph_snapshot_is_current() {
    let root = workspace_root();
    let dot = auditor::workspace_graph(&root)
        .expect("build workspace graph")
        .to_dot(true);
    let committed =
        std::fs::read_to_string(root.join("docs/audit-graph.dot")).expect("docs/audit-graph.dot");
    assert_eq!(
        dot, committed,
        "docs/audit-graph.dot is stale — regenerate with \
         `cargo run -p auditor -- graph --dot --crates > docs/audit-graph.dot`"
    );
}

/// The rules table in `docs/ARCHITECTURE.md` (between the audit-rules
/// markers) carries exactly the registry's rule ids — the docs cannot
/// drift from what is enforced.
#[test]
fn docs_rules_table_matches_registry() {
    let root = workspace_root();
    let docs =
        std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("docs/ARCHITECTURE.md");
    let begin = docs
        .find("<!-- audit-rules:begin -->")
        .expect("audit-rules:begin marker in docs/ARCHITECTURE.md");
    let end = docs
        .find("<!-- audit-rules:end -->")
        .expect("audit-rules:end marker in docs/ARCHITECTURE.md");
    let mut documented = std::collections::BTreeSet::new();
    for line in docs[begin..end].lines() {
        if let Some(rest) = line.strip_prefix("| `") {
            if let Some(id) = rest.split('`').next() {
                documented.insert(id.to_string());
            }
        }
    }
    let registry: std::collections::BTreeSet<String> =
        REGISTRY.iter().map(|r| r.id.to_string()).collect();
    assert_eq!(
        documented, registry,
        "docs/ARCHITECTURE.md rules table does not match auditor::REGISTRY"
    );
}

/// Every workspace member and the root package inherit the compiler-checked
/// lints, and the root keeps them on: `unsafe` is forbidden and the thread
/// constructors listed in `clippy.toml` are denied. The lints reach a
/// crate only through its own manifest, so a new crate that forgets
/// `[lints] workspace = true` would silently escape them.
#[test]
fn every_member_inherits_the_compiler_checked_lints() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let root_manifest = read("Cargo.toml");
    let members_at = root_manifest
        .find("members = [")
        .expect("[workspace] members in Cargo.toml");
    let members_end = members_at + root_manifest[members_at..].find(']').expect("members end");
    let members: Vec<&str> = root_manifest[members_at..members_end]
        .split('"')
        .skip(1)
        .step_by(2)
        .collect();
    assert!(!members.is_empty(), "no [workspace] members in Cargo.toml");

    let inherits = |manifest: &str| {
        let lines: Vec<&str> = manifest.lines().map(str::trim).collect();
        lines
            .iter()
            .position(|l| *l == "[lints]")
            .is_some_and(|at| {
                lines[at + 1..]
                    .iter()
                    .take_while(|l| !l.starts_with('['))
                    .any(|l| *l == "workspace = true")
            })
    };
    assert!(
        root_manifest.contains("[package]") && inherits(&root_manifest),
        "the root package must carry `[lints] workspace = true`"
    );
    for member in &members {
        let rel = format!("{member}/Cargo.toml");
        assert!(
            inherits(&read(&rel)),
            "{rel} must carry `[lints] workspace = true`"
        );
    }

    let table = |name: &str| {
        let at = root_manifest
            .find(&format!("[{name}]"))
            .unwrap_or_else(|| panic!("[{name}] in Cargo.toml"));
        let body = &root_manifest[at + name.len() + 2..];
        body[..body.find("\n[").unwrap_or(body.len())].to_string()
    };
    assert!(
        table("workspace.lints.rust").contains("unsafe_code = \"forbid\""),
        "[workspace.lints.rust] must keep unsafe_code = \"forbid\""
    );
    assert!(
        table("workspace.lints.clippy").contains("disallowed_methods = \"deny\""),
        "[workspace.lints.clippy] must keep disallowed_methods = \"deny\""
    );

    let clippy = read("clippy.toml");
    for method in [
        "std::thread::spawn",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{method}\"")),
            "clippy.toml must list `{method}` under disallowed-methods"
        );
    }
}
