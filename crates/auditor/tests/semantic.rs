//! Fixture tests for the four interprocedural (semantic) rules. Each rule
//! has a violating and a clean fixture, audited under *pretend* paths via
//! [`auditor::audit_sources`] — rule scope and graph crate membership are
//! derived from the workspace-relative path, and cross-crate edges from
//! synthetic `Cargo.toml` sources passed alongside.

use auditor::{audit_sources, Violation};

fn src(path: &str, body: &str) -> (String, String) {
    (path.to_string(), body.to_string())
}

fn manifest(path: &str, name: &str, deps: &[&str]) -> (String, String) {
    let mut s = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
    for d in deps {
        s.push_str(&format!("{d} = {{ path = \"../{d}\" }}\n"));
    }
    (path.to_string(), s)
}

fn lines_of(violations: &[Violation], rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

// ------------------------------------------------- transitive-wall-clock

const CLOCK_SINK: &str = include_str!("fixtures/semantic_clock_sink.rs");

/// A binary calling the entry point, so `dead-public` sees it used.
fn pipeline_caller() -> (String, String) {
    src(
        "src/main.rs",
        "fn main() {\n    let _ = easyc::pipeline::assess_pipeline();\n}\n",
    )
}

fn clock_manifests() -> Vec<(String, String)> {
    vec![
        manifest("crates/easyc/Cargo.toml", "easyc", &["telem"]),
        manifest("crates/telem/Cargo.toml", "telem", &[]),
    ]
}

#[test]
fn clock_sink_reachable_from_result_entry_is_flagged() {
    let sources = vec![
        src(
            "crates/easyc/src/pipeline.rs",
            include_str!("fixtures/semantic_clock_entry_bad.rs"),
        ),
        src("crates/telem/src/telemetry.rs", CLOCK_SINK),
    ];
    let v = audit_sources(&sources, &clock_manifests());
    // The lexical wall-clock finding is excused by the sink's allow; only
    // the reachability rule fires, against the sink file.
    assert!(lines_of(&v, "wall-clock").is_empty());
    assert_eq!(lines_of(&v, "transitive-wall-clock"), vec![8]);
    let finding = v
        .iter()
        .find(|v| v.rule == "transitive-wall-clock")
        .unwrap();
    assert_eq!(finding.path, "crates/telem/src/telemetry.rs");
    // The diagnostic carries the entry → sink chain.
    assert!(
        finding.message.contains("assess_pipeline"),
        "expected the reach chain in: {}",
        finding.message
    );
}

#[test]
fn unreachable_clock_sink_is_clean() {
    let sources = vec![
        src(
            "crates/easyc/src/pipeline.rs",
            include_str!("fixtures/semantic_clock_entry_ok.rs"),
        ),
        src("crates/telem/src/telemetry.rs", CLOCK_SINK),
        pipeline_caller(),
    ];
    let v = audit_sources(&sources, &clock_manifests());
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn clock_edges_are_gated_by_the_dependency_closure() {
    // Same violating entry, but easyc does not depend on telem — the call
    // cannot resolve across crates, so no reach chain exists.
    let sources = vec![
        src(
            "crates/easyc/src/pipeline.rs",
            include_str!("fixtures/semantic_clock_entry_bad.rs"),
        ),
        src("crates/telem/src/telemetry.rs", CLOCK_SINK),
        pipeline_caller(),
    ];
    let manifests = vec![
        manifest("crates/easyc/Cargo.toml", "easyc", &[]),
        manifest("crates/telem/Cargo.toml", "telem", &[]),
    ];
    let v = audit_sources(&sources, &manifests);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

// --------------------------------------------------------- panic-surface

#[test]
fn unjustified_panics_on_the_request_path_are_flagged() {
    let sources = vec![src(
        "crates/serve/src/router.rs",
        include_str!("fixtures/semantic_panic_bad.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    // Line 6: unwrap in the pub entry; line 12: expect in a private fn
    // reachable from it.
    assert_eq!(lines_of(&v, "panic-surface"), vec![6, 12]);
}

#[test]
fn structured_errors_and_justified_panics_are_clean() {
    let sources = vec![src(
        "crates/serve/src/router.rs",
        include_str!("fixtures/semantic_panic_ok.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn removing_a_panic_justification_resurfaces_the_finding() {
    // The acceptance contract for the escape hatch: deleting any one allow
    // line flips the audit outcome.
    let stripped: String = include_str!("fixtures/semantic_panic_ok.rs")
        .lines()
        .filter(|l| !l.contains("audit: allow"))
        .collect::<Vec<_>>()
        .join("\n");
    let sources = vec![src("crates/serve/src/router.rs", &stripped)];
    let v = audit_sources(&sources, &[]);
    assert!(!lines_of(&v, "panic-surface").is_empty());
}

#[test]
fn panic_rule_scopes_to_serve_and_easyc_hot_paths_only() {
    // The same panicky source outside the scope (an easyc cold-path file)
    // draws no panic-surface finding.
    let sources = vec![src(
        "crates/easyc/src/coverage.rs",
        include_str!("fixtures/semantic_panic_bad.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    assert!(lines_of(&v, "panic-surface").is_empty());
    // The scenario matrix and mask parsers read serve's client text, so
    // their file is in scope.
    let sources = vec![src(
        "crates/easyc/src/scenario.rs",
        include_str!("fixtures/semantic_panic_bad.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    assert_eq!(lines_of(&v, "panic-surface"), vec![6, 12]);
}

// ------------------------------------------------------------ lock-order

#[test]
fn opposed_acquisition_orders_form_a_flagged_cycle() {
    let sources = vec![src(
        "crates/serve/src/locks.rs",
        include_str!("fixtures/semantic_lock_bad.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    // One finding, anchored at the smallest witness (submit's first lock).
    assert_eq!(lines_of(&v, "lock-order"), vec![11]);
    let finding = v.iter().find(|v| v.rule == "lock-order").unwrap();
    assert!(
        finding.message.contains("serve:jobs") && finding.message.contains("serve:results"),
        "expected both sites in: {}",
        finding.message
    );
}

#[test]
fn consistent_acquisition_order_is_clean() {
    let sources = vec![src(
        "crates/serve/src/locks.rs",
        include_str!("fixtures/semantic_lock_ok.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

// ----------------------------------------------------------- dead-public

const DEAD_PROVIDER: &str = include_str!("fixtures/semantic_dead_public_provider.rs");

#[test]
fn unreferenced_pub_items_are_flagged_but_types_are_exempt() {
    let sources = vec![src("crates/ghg/src/overrides.rs", DEAD_PROVIDER)];
    let v = audit_sources(&sources, &[]);
    // Line 6: the const; line 14: the fn. The pub struct on line 9 flows
    // through inference and is exempt.
    assert_eq!(lines_of(&v, "dead-public"), vec![6, 14]);
}

#[test]
fn cross_file_references_make_pub_items_live() {
    let sources = vec![
        src("crates/ghg/src/overrides.rs", DEAD_PROVIDER),
        src(
            "crates/analysis/src/grid.rs",
            include_str!("fixtures/semantic_dead_public_consumer.rs"),
        ),
    ];
    let v = audit_sources(&sources, &[]);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn a_name_in_a_crate_that_cannot_call_the_definer_keeps_nothing_alive() {
    // hwdb mentions ghg's names but does not depend on ghg, so those
    // mentions are some other item's: the provider's pub API is dead.
    let sources = vec![
        src("crates/ghg/src/overrides.rs", DEAD_PROVIDER),
        src(
            "crates/hwdb/src/grid.rs",
            include_str!("fixtures/semantic_dead_public_consumer.rs"),
        ),
    ];
    let unrelated = vec![
        manifest("crates/ghg/Cargo.toml", "ghg", &[]),
        manifest("crates/hwdb/Cargo.toml", "hwdb", &[]),
    ];
    let v = audit_sources(&sources, &unrelated);
    assert_eq!(lines_of(&v, "dead-public"), vec![6, 14]);
    // Once hwdb depends on ghg, the same mentions are references.
    let dependent = vec![
        manifest("crates/ghg/Cargo.toml", "ghg", &[]),
        manifest("crates/hwdb/Cargo.toml", "hwdb", &["ghg"]),
    ];
    let v = audit_sources(&sources, &dependent);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn a_pub_fn_called_only_by_its_own_tests_is_flagged() {
    let sources = vec![src(
        "crates/frame/src/share.rs",
        include_str!("fixtures/semantic_dead_public_test_only.rs"),
    )];
    let v = audit_sources(&sources, &[]);
    assert_eq!(lines_of(&v, "dead-public"), vec![5]);
}

#[test]
fn dead_public_scopes_to_result_library_crates_only() {
    // The same unreferenced API in serve (a front end, not a result crate)
    // draws no finding.
    let sources = vec![src("crates/serve/src/overrides.rs", DEAD_PROVIDER)];
    let v = audit_sources(&sources, &[]);
    assert!(lines_of(&v, "dead-public").is_empty());
}
