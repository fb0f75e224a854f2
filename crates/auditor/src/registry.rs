//! The single source of truth for every enforced rule.
//!
//! `rules.rs` (the lexical engine), `semantic.rs` (the graph engine), the
//! CLI `rules` listing and the docs table in `docs/ARCHITECTURE.md` all
//! derive from [`REGISTRY`]; a drift test in `tests/rules.rs` asserts the
//! docs table carries exactly these ids, so the three surfaces cannot
//! disagree about what is enforced.
//!
//! Two invariants are deliberately absent: no `unsafe` code and no raw
//! thread creation. rustc and clippy check those at every call site,
//! through the root manifest's `[workspace.lints]` and `clippy.toml`; a
//! second drift test in `tests/rules.rs` pins that every member inherits
//! them.

/// How a rule is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Token-pattern rule over one file at a time.
    Lexical,
    /// Interprocedural rule over the workspace item/call graph.
    Semantic,
    /// Meta rule about the escape-hatch comments themselves.
    Hygiene,
}

impl RuleKind {
    /// Lowercase label used by the CLI listing.
    pub fn label(self) -> &'static str {
        match self {
            RuleKind::Lexical => "lexical",
            RuleKind::Semantic => "semantic",
            RuleKind::Hygiene => "hygiene",
        }
    }
}

/// One enforced rule: stable id, what it enforces, and where it applies.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id — referenced by allow comments and the docs
    /// table.
    pub id: &'static str,
    /// One-sentence summary of the invariant it machine-checks.
    pub summary: &'static str,
    /// Where the rule applies (the scope side of the contract).
    pub scope: &'static str,
    /// Checking engine.
    pub kind: RuleKind,
}

/// Every enforceable rule, in catalog order (lexical, then semantic, then
/// hygiene).
pub const REGISTRY: &[Rule] = &[
    Rule {
        id: "map-iteration",
        summary: "no iteration over HashMap/HashSet in result-producing crates (iter/keys/values/drain/for-in) — hash maps are lookup-only; ordered output must come from Vec/BTreeMap or an explicit sort",
        scope: "result crates (frame, parallel, top500, hwdb, easyc, ghg, analysis, src/)",
        kind: RuleKind::Lexical,
    },
    Rule {
        id: "wall-clock",
        summary: "no Instant::now / SystemTime / env::var in result paths — wall-clock and environment entropy live only in test code or behind a reasoned allow",
        scope: "every .rs file outside tests/ and benches/ directories",
        kind: RuleKind::Lexical,
    },
    Rule {
        id: "float-sum",
        summary: "no anonymous float reductions (`.sum::<f64>()` or untyped `.sum()`) in easyc result code — use the ordered fold helpers (easyc::fold) or an integer turbofish",
        scope: "crates/easyc/src",
        kind: RuleKind::Lexical,
    },
    Rule {
        id: "partial-merge",
        summary: "fleet carbon totals accumulate only through easyc::fold / easyc::PartialAssessment — ad-hoc `+=` running totals over footprint carbon in result crates bypass the one pinned running fold",
        scope: "result crates except easyc::partial (the fold itself)",
        kind: RuleKind::Lexical,
    },
    Rule {
        id: "transitive-wall-clock",
        summary: "no function reachable from an easyc/analysis result entry point may reach Instant::now / SystemTime / env entropy — checked by call-graph reachability, not per-file allowlists",
        scope: "call graph rooted at pub fns of crates/easyc and crates/analysis",
        kind: RuleKind::Semantic,
    },
    Rule {
        id: "panic-surface",
        summary: "unwrap/expect/panic!/call-result indexing on serve's request lifecycle, the easyc hot paths and the CSV ingest path must carry an `// audit: allow(panic-surface) — reason` justification or be refactored into structured errors",
        scope: "fns in crates/serve, the easyc hot-path modules (session, stream, state, partial, columns, uncertainty) and the ingest path (frame::csv, top500::{io, stream}) reachable from their pub entry points",
        kind: RuleKind::Semantic,
    },
    Rule {
        id: "lock-order",
        summary: "declared Mutex/RwLock/Condvar/channel acquisition order across serve + parallel forms a DAG — an acquisition-order cycle is a potential deadlock",
        scope: "crates/serve and crates/parallel, interprocedural through the call graph",
        kind: RuleKind::Semantic,
    },
    Rule {
        id: "dead-public",
        summary: "every pub fn/const/static/trait in a result crate is referenced by some other workspace file (bin/test/example) of its own crate or of a crate that depends on it; the defining file's own tests do not count — pub API that nothing else calls is rot from past refactors; types are exempt (they flow through inference unnamed)",
        scope: "pub nameable items of the result library crates",
        kind: RuleKind::Semantic,
    },
    Rule {
        id: "allow-hygiene",
        summary: "every `audit: allow(rule)` escape comment names a known rule and carries a reason after the closing paren",
        scope: "every workspace .rs file (cannot be suppressed)",
        kind: RuleKind::Hygiene,
    },
];

/// True when `id` names a rule in [`REGISTRY`].
pub fn known_rule(id: &str) -> bool {
    REGISTRY.iter().any(|r| r.id == id)
}

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    REGISTRY.iter().find(|r| r.id == id)
}
