//! Fixture-based tests: every rule with at least one violating and one
//! clean fixture, the scope (allowlist) dimension of each rule, the
//! escape-hatch comment path, and a self-test that the real workspace is
//! clean.
//!
//! Fixtures live in `tests/fixtures/` (excluded from the workspace walk —
//! they violate rules on purpose) and are audited under *pretend* paths,
//! because rule scope is derived from the workspace-relative path.

use auditor::report;
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

// ------------------------------------------------------- safety-comment

#[test]
fn missing_safety_comments_are_flagged() {
    let src = include_str!("fixtures/safety_missing.rs");
    let v = audit("crates/easyc/src/patch.rs", src);
    assert_eq!(lines_of(&v, "safety-comment"), vec![3, 7]);
    // The same tokens also violate unsafe-scope: no file may hold `unsafe`.
    assert_eq!(lines_of(&v, "unsafe-scope"), vec![3, 7]);
}

#[test]
fn safety_comment_forms_all_pass() {
    // Every comment form satisfies safety-comment, yet each of the five
    // `unsafe` sites is still an unsafe-scope finding, in the substrate
    // crate too: the allowlist is empty.
    let src = include_str!("fixtures/safety_ok.rs");
    let v = audit("crates/parallel/src/lib.rs", src);
    assert!(v.iter().all(|v| v.rule == "unsafe-scope"), "got: {v:?}");
    assert_eq!(v.len(), 5);
}

// ---------------------------------------------------------- unsafe-scope

#[test]
fn unsafe_outside_allowlist_is_flagged_even_when_documented() {
    let src = include_str!("fixtures/safety_ok.rs");
    let v = audit("crates/analysis/src/report.rs", src);
    assert!(lines_of(&v, "safety-comment").is_empty());
    assert_eq!(lines_of(&v, "unsafe-scope").len(), 5);
}

#[test]
fn no_module_is_an_unsafe_home() {
    let src = "// SAFETY: fixture\nlet x = unsafe { 1 };";
    for path in [
        "crates/parallel/src/pool.rs",
        "crates/parallel/src/lib.rs",
        "crates/parallel/src/rng.rs",
        "crates/serve/src/server.rs",
        "tests/helpers.rs",
    ] {
        assert_eq!(
            lines_of(&audit(path, src), "unsafe-scope"),
            vec![2],
            "{path}"
        );
    }
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

// ---------------------------------------------------------- thread-spawn

#[test]
fn raw_thread_creation_is_flagged_outside_the_allowlist() {
    let src = include_str!("fixtures/spawn_bad.rs");
    let v = audit("crates/easyc/src/session.rs", src);
    assert_eq!(lines_of(&v, "thread-spawn"), vec![4, 8]);
}

#[test]
fn parallel_stream_and_serve_may_spawn() {
    let src = include_str!("fixtures/spawn_bad.rs");
    assert!(audit("crates/parallel/src/lib.rs", src).is_empty());
    assert!(audit("crates/top500/src/stream.rs", src).is_empty());
    assert!(audit("crates/serve/src/server.rs", src).is_empty());
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
    let src = "// audit: allow(thread-spawn) — wrong rule for this violation\nlet t = std::time::Instant::now();";
    let v = audit("crates/easyc/src/ops.rs", src);
    assert_eq!(lines_of(&v, "wall-clock"), vec![2]);
    assert!(lines_of(&v, "allow-hygiene").is_empty());
}

#[test]
fn rule_registry_is_consistent() {
    assert!(known_rule("safety-comment"));
    assert!(known_rule("allow-hygiene"));
    assert!(!known_rule("fast-and-loose"));
}

#[test]
fn removing_a_safety_justification_resurfaces_the_finding() {
    // The acceptance contract for SAFETY comments mirrors the allow one:
    // neutering any justification flips the audit outcome. Rewriting the
    // marker (instead of deleting lines) keeps the unsafe sites in place.
    let src = include_str!("fixtures/safety_ok.rs").replace("SAFETY:", "NOTE:");
    let v = audit("crates/parallel/src/lib.rs", &src);
    assert!(!lines_of(&v, "safety-comment").is_empty());
}

// -------------------------------------------------- the workspace itself

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The same gate CI runs: the real workspace must audit clean *modulo the
/// checked-in baseline* — no new findings, and no stale baseline entries
/// (the baseline burns down, it never rots). Keeping it in `cargo test`
/// means a violation fails fast locally, with the exact diagnostics in the
/// assertion message.
#[test]
fn workspace_audits_clean() {
    let root = workspace_root();
    let violations = audit_workspace(&root).expect("walk workspace");
    let baseline_src =
        std::fs::read_to_string(root.join("audit-baseline.json")).expect("audit-baseline.json");
    let baseline = report::parse_baseline(&baseline_src).expect("parse audit-baseline.json");
    let d = report::diff(&violations, &baseline);
    assert!(
        d.new.is_empty(),
        "workspace has invariant violations not in audit-baseline.json:\n{}",
        d.new
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        d.stale.is_empty(),
        "audit-baseline.json has stale entries — regenerate with \
         `cargo run -p auditor -- check --write-baseline`:\n{:?}",
        d.stale
    );
}

/// `--format json` output over the real workspace is deterministic and
/// round-trips through the baseline parser: serialising the findings and
/// diffing them against themselves yields no new and no stale entries.
#[test]
fn workspace_findings_round_trip_deterministically() {
    let root = workspace_root();
    let v1 = audit_workspace(&root).expect("walk workspace");
    let v2 = audit_workspace(&root).expect("walk workspace again");
    let json = report::to_json(&v1);
    assert_eq!(
        json,
        report::to_json(&v2),
        "two audits must serialise identically"
    );
    let keys = report::parse_baseline(&json).expect("parse own output");
    assert_eq!(keys, v1.iter().map(report::key).collect::<Vec<_>>());
    let d = report::diff(&v1, &keys);
    assert!(d.new.is_empty() && d.stale.is_empty());
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
