//! The invariant rules and the per-file checking engine.
//!
//! Each rule is a named, lexical approximation of one prose invariant from
//! `docs/ARCHITECTURE.md` ("Determinism rules" / "Enforced invariants").
//! Rules work on the token stream plus the file's workspace-relative path;
//! there is no type inference, so each rule documents its approximation and
//! the escape-hatch comment documented in the crate root (`lib.rs`) covers
//! the rare mis-fire.

use crate::lexer::{lex, Comment, Lexed, TokKind};

/// One rule violation (or allow-hygiene diagnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule id (kebab-case, stable — referenced by allow comments and docs).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

pub use crate::registry::known_rule;

// ------------------------------------------------------------------ scope

/// Where each rule applies, derived from the workspace-relative path.
struct FileScope {
    /// tests/, benches/ files: exempt from result-path rules.
    test_file: bool,
    /// Crates whose output is part of the reproduced science.
    result_crate: bool,
    /// `easyc` sources: float reductions must be ordered folds.
    easyc_src: bool,
    /// The one module allowed to accumulate carbon totals directly: the
    /// running fold itself (`easyc::partial`).
    partial_allowed: bool,
}

impl FileScope {
    fn of(path: &str) -> FileScope {
        let test_file = path.starts_with("tests/")
            || path.contains("/tests/")
            || path.starts_with("benches/")
            || path.contains("/benches/");
        FileScope {
            test_file,
            result_crate: path.starts_with("crates/frame/src/")
                || path.starts_with("crates/parallel/src/")
                || path.starts_with("crates/top500/src/")
                || path.starts_with("crates/hwdb/src/")
                || path.starts_with("crates/easyc/src/")
                || path.starts_with("crates/ghg/src/")
                || path.starts_with("crates/analysis/src/")
                || path.starts_with("src/"),
            easyc_src: path.starts_with("crates/easyc/src/"),
            partial_allowed: path == "crates/easyc/src/partial.rs",
        }
    }
}

// ------------------------------------------------------ per-file context

struct FileCtx<'a> {
    path: &'a str,
    lexed: Lexed,
    scope: FileScope,
    /// `#[cfg(test)] mod`- and `#[test]` fn line ranges (inclusive).
    test_ranges: Vec<(usize, usize)>,
}

impl FileCtx<'_> {
    fn in_test_code(&self, line: usize) -> bool {
        self.scope.test_file
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// Finds the line ranges of `#[cfg(test)]` items and `#[test]` functions by
/// brace-matching the item that follows the attribute.
pub(crate) fn test_line_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(lexed.is_punct(i, '#') && lexed.is_punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let close = match matching(lexed, i + 1, '[', ']') {
            Some(c) => c,
            None => break,
        };
        let body: Vec<&str> = toks[i + 2..close]
            .iter()
            .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        let is_test_attr = body == ["cfg", "(", "test", ")"]
            || body == ["test"]
            || body == ["cfg", "(", "miri", ")"];
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then brace-match the item body. A
        // `;` before the `{` means an un-braced item (e.g. `use`) — skip.
        let mut k = close + 1;
        while lexed.is_punct(k, '#') && lexed.is_punct(k + 1, '[') {
            match matching(lexed, k + 1, '[', ']') {
                Some(c) => k = c + 1,
                None => return ranges,
            }
        }
        let mut open = None;
        let mut j = k;
        while j < toks.len() {
            if lexed.is_punct(j, '{') {
                open = Some(j);
                break;
            }
            if lexed.is_punct(j, ';') {
                break;
            }
            j += 1;
        }
        if let Some(open) = open {
            if let Some(end) = matching(lexed, open, '{', '}') {
                ranges.push((toks[i].line, toks[end].line));
                i = end + 1;
                continue;
            }
        }
        i = close + 1;
    }
    ranges
}

/// Index of the bracket matching the opener at `open` (same punct kinds).
fn matching(lexed: &Lexed, open: usize, lhs: char, rhs: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.is_punct(i, lhs) {
            depth += 1;
        } else if lexed.is_punct(i, rhs) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

// -------------------------------------------------------- allow comments

/// One parsed escape-hatch comment (syntax in the crate root docs).
pub(crate) struct Allow {
    pub(crate) line: usize,
    pub(crate) rule: Option<String>,
    pub(crate) has_reason: bool,
    /// Lines this allow excuses.
    pub(crate) covered: Vec<usize>,
}

impl Allow {
    /// True when this allow excuses a violation of `rule` on `line`.
    pub(crate) fn excuses(&self, rule: &str, line: usize) -> bool {
        self.rule.as_deref() == Some(rule) && self.has_reason && self.covered.contains(&line)
    }
}

pub(crate) fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find("audit:") else {
            continue;
        };
        let rest = c.text[at + "audit:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rule, reason) = match rest.strip_prefix('(') {
            Some(inner) => match inner.find(')') {
                Some(end) => {
                    let id = inner[..end].trim();
                    let tail = inner[end + 1..]
                        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
                        .trim();
                    ((!id.is_empty()).then(|| id.to_string()), !tail.is_empty())
                }
                None => (None, false),
            },
            None => (None, false),
        };
        out.push(Allow {
            line: c.start_line,
            rule,
            has_reason: reason,
            covered: covered_lines(lexed, c),
        });
    }
    out
}

/// An allow covers its own comment lines; a comment-only allow additionally
/// covers the rest of its contiguous comment block below it plus the first
/// code line after the block (the line it sits directly above).
fn covered_lines(lexed: &Lexed, c: &Comment) -> Vec<usize> {
    let mut lines: Vec<usize> = (c.start_line..=c.end_line).collect();
    if !lexed.has_token_on(c.start_line) {
        let mut next = c.end_line + 1;
        while let Some(below) = lexed.comment_at(next) {
            if lexed.has_token_on(next) {
                break;
            }
            lines.extend(next..=below.end_line);
            next = below.end_line + 1;
        }
        lines.push(next);
    }
    lines
}

// ---------------------------------------------------------------- engine

/// Audits one file's source text. `path` must be workspace-relative with
/// forward slashes (it selects which rules apply).
pub fn audit_source(path: &str, source: &str) -> Vec<Violation> {
    audit_file(path, lex(source)).0
}

/// The per-file engine behind [`audit_source`]: takes the pre-lexed file
/// and additionally returns the parsed allow comments, so the workspace
/// driver can apply the same escape hatch to semantic findings without
/// lexing twice.
pub(crate) fn audit_file(path: &str, lexed: Lexed) -> (Vec<Violation>, Vec<Allow>) {
    let ctx = FileCtx {
        path,
        test_ranges: test_line_ranges(&lexed),
        scope: FileScope::of(path),
        lexed,
    };
    let allows = parse_allows(&ctx.lexed);

    let mut violations = Vec::new();
    rule_map_iteration(&ctx, &mut violations);
    rule_wall_clock(&ctx, &mut violations);
    rule_float_sum(&ctx, &mut violations);
    rule_partial_merge(&ctx, &mut violations);

    // Apply the escape hatch, then append its own hygiene diagnostics
    // (which cannot themselves be allowed away).
    violations.retain(|v| !allows.iter().any(|a| a.excuses(v.rule, v.line)));
    for a in &allows {
        match &a.rule {
            None => violations.push(Violation {
                path: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: "malformed allow — expected `audit: allow(rule-id) — reason`".into(),
            }),
            Some(id) if !known_rule(id) => violations.push(Violation {
                path: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: format!("allow names unknown rule `{id}`"),
            }),
            Some(_) if !a.has_reason => violations.push(Violation {
                path: path.to_string(),
                line: a.line,
                rule: "allow-hygiene",
                message: "allow carries no reason — add `— why this is sound` after the paren"
                    .into(),
            }),
            Some(_) => {}
        }
    }
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (violations, allows)
}

fn push(out: &mut Vec<Violation>, ctx: &FileCtx, line: usize, rule: &'static str, msg: String) {
    out.push(Violation {
        path: ctx.path.to_string(),
        line,
        rule,
        message: msg,
    });
}

// --------------------------------------------------------- map-iteration

const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Collects every identifier bound or typed as a `HashMap`/`HashSet` in
/// this file: `name: HashMap<…>` (fields, params, let ascriptions) and
/// `let [mut] name = HashMap::…`/`HashSet::…`.
fn hash_container_names(lexed: &Lexed) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..lexed.tokens.len() {
        let Some(id) = lexed.ident(i) else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Hop back over a `path::to::` prefix.
        let mut head = i;
        while head >= 3
            && lexed.is_punct(head - 1, ':')
            && lexed.is_punct(head - 2, ':')
            && lexed.ident(head - 3).is_some()
        {
            head -= 3;
        }
        if head == 0 {
            continue;
        }
        // Skip `&`, `&mut`, lifetimes between the binder and the type.
        let mut p = head - 1;
        loop {
            let skippable = lexed.is_punct(p, '&')
                || lexed.ident(p) == Some("mut")
                || matches!(lexed.tokens.get(p), Some(t) if t.kind == TokKind::Lifetime);
            if skippable && p > 0 {
                p -= 1;
            } else {
                break;
            }
        }
        let name = if lexed.is_punct(p, ':')
            && p >= 1
            && !lexed.is_punct(p - 1, ':')
            && lexed.ident(p - 1).is_some()
        {
            // `name: HashMap<…>` — field, param, or let ascription.
            lexed.ident(p - 1)
        } else if lexed.is_punct(p, '=') && p >= 1 && !lexed.is_punct(p - 1, '=') {
            // `let [mut] name = HashMap::new()`.
            lexed.ident(p - 1)
        } else {
            None
        };
        if let Some(name) = name {
            if name != "mut" && !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

fn rule_map_iteration(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.result_crate || ctx.scope.test_file {
        return;
    }
    let names = hash_container_names(&ctx.lexed);
    if names.is_empty() {
        return;
    }
    let lexed = &ctx.lexed;
    let is_map = |i: usize| matches!(lexed.ident(i), Some(id) if names.iter().any(|n| n == id));
    for i in 0..lexed.tokens.len() {
        let line = lexed.tokens[i].line;
        if ctx.in_test_code(line) {
            continue;
        }
        // `map.iter()` / `self.map.keys()` / …
        if is_map(i) && lexed.is_punct(i + 1, '.') {
            if let Some(m) = lexed.ident(i + 2) {
                if MAP_ITER_METHODS.contains(&m) && lexed.is_punct(i + 3, '(') {
                    push(
                        out,
                        ctx,
                        lexed.tokens[i + 2].line,
                        "map-iteration",
                        format!(
                            "iteration over hash container `{}` (`.{m}()`) — hash order is nondeterministic; use lookups, a Vec side-order, or BTreeMap",
                            lexed.ident(i).unwrap_or_default()
                        ),
                    );
                }
            }
        }
        // `for pat in &map { … }` / `for pat in map { … }`
        if lexed.ident(i) == Some("for") {
            let mut k = i + 1;
            let limit = (i + 64).min(lexed.tokens.len());
            while k < limit && !lexed.is_punct(k, '{') {
                if lexed.ident(k) == Some("in") {
                    let mut m = k + 1;
                    while lexed.is_punct(m, '&') || lexed.ident(m) == Some("mut") {
                        m += 1;
                    }
                    if is_map(m) && lexed.is_punct(m + 1, '{') {
                        push(
                            out,
                            ctx,
                            lexed.tokens[m].line,
                            "map-iteration",
                            format!(
                                "`for … in` over hash container `{}` — hash order is nondeterministic",
                                lexed.ident(m).unwrap_or_default()
                            ),
                        );
                    }
                    break;
                }
                k += 1;
            }
        }
    }
}

// ------------------------------------------------------------ wall-clock

fn rule_wall_clock(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.scope.test_file {
        return;
    }
    let lexed = &ctx.lexed;
    for i in 0..lexed.tokens.len() {
        let line = lexed.tokens[i].line;
        if ctx.in_test_code(line) {
            continue;
        }
        let hit = match lexed.ident(i) {
            Some("Instant")
                if lexed.is_punct(i + 1, ':')
                    && lexed.is_punct(i + 2, ':')
                    && lexed.ident(i + 3) == Some("now") =>
            {
                Some("`Instant::now` reads the wall clock")
            }
            Some("SystemTime") => Some("`SystemTime` reads the wall clock"),
            Some("env")
                if lexed.is_punct(i + 1, ':')
                    && lexed.is_punct(i + 2, ':')
                    && matches!(lexed.ident(i + 3), Some("var") | Some("var_os")) =>
            {
                Some("`env::var` injects environment entropy")
            }
            _ => None,
        };
        if let Some(what) = hit {
            push(
                out,
                ctx,
                line,
                "wall-clock",
                format!("{what} in a result path — results may depend only on inputs and the seed"),
            );
        }
    }
}

// ------------------------------------------------------------- float-sum

const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

fn rule_float_sum(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.easyc_src {
        return;
    }
    let lexed = &ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if !(lexed.is_punct(i, '.') && matches!(lexed.ident(i + 1), Some("sum") | Some("product")))
        {
            continue;
        }
        let line = lexed.tokens[i + 1].line;
        if ctx.in_test_code(line) {
            continue;
        }
        let method = lexed.ident(i + 1).unwrap_or("sum");
        // Turbofish form: `.sum::<T>()`.
        if lexed.is_punct(i + 2, ':') && lexed.is_punct(i + 3, ':') && lexed.is_punct(i + 4, '<') {
            match lexed.ident(i + 5) {
                Some(ty) if INT_TYPES.contains(&ty) => continue,
                Some(ty) => push(
                    out,
                    ctx,
                    line,
                    "float-sum",
                    format!(
                        "`.{method}::<{ty}>()` is an anonymous non-integer reduction — use the ordered fold helpers (easyc::fold) so the fold order is an explicit contract"
                    ),
                ),
                None => push(
                    out,
                    ctx,
                    line,
                    "float-sum",
                    format!("unreadable `.{method}` turbofish — use easyc::fold"),
                ),
            }
            continue;
        }
        // Plain `.sum()`: accept only when the enclosing `let` carries an
        // integer ascription; everything else is ambiguous or float.
        let mut j = i;
        while j > 0 && !(lexed.is_punct(j, ';') || lexed.is_punct(j, '{') || lexed.is_punct(j, '}'))
        {
            j -= 1;
        }
        let mut ok = false;
        for l in j..i {
            if lexed.ident(l) == Some("let") {
                let mut m = l + 1;
                if lexed.ident(m) == Some("mut") {
                    m += 1;
                }
                if lexed.ident(m).is_some()
                    && lexed.is_punct(m + 1, ':')
                    && matches!(lexed.ident(m + 2), Some(ty) if INT_TYPES.contains(&ty))
                {
                    ok = true;
                }
                break;
            }
        }
        if !ok {
            push(
                out,
                ctx,
                line,
                "float-sum",
                format!(
                    "untyped `.{method}()` — annotate an integer turbofish (`.{method}::<usize>()`) or use easyc::fold::sum_f64 for ordered float reduction"
                ),
            );
        }
    }
}

// --------------------------------------------------------- partial-merge

/// Carbon-total accessors whose `+=` accumulation outside the running fold
/// marks an ad-hoc fleet fold — the identifiers a footprint or stream slice
/// exposes its MT CO2e totals through.
const CARBON_TERMS: &[&str] = &[
    "mt_co2e",
    "operational_mt",
    "embodied_mt",
    "operational_total_mt",
    "embodied_total_mt",
];

/// Lexical approximation: a compound `+=` whose right-hand side (up to the
/// statement's `;`) mentions a carbon-total accessor is a running fleet
/// total built outside `easyc::PartialAssessment`/`easyc::fold`. Such loops
/// have a fold order fixed by accident (whatever order the loop visits),
/// not by contract — chunk- and worker-count invariance only holds for
/// totals folded through the running fold. `easyc::partial` itself is the one
/// module allowed to accumulate directly (it *is* the fold), and test code
/// is exempt (serial reference folds in tests are the point).
fn rule_partial_merge(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.scope.result_crate || ctx.scope.test_file || ctx.scope.partial_allowed {
        return;
    }
    let lexed = &ctx.lexed;
    for i in 0..lexed.tokens.len() {
        if !(lexed.is_punct(i, '+') && lexed.is_punct(i + 1, '=')) {
            continue;
        }
        let line = lexed.tokens[i].line;
        if ctx.in_test_code(line) {
            continue;
        }
        let mut term = None;
        let mut j = i + 2;
        while j < lexed.tokens.len() && !lexed.is_punct(j, ';') {
            if let Some(id) = lexed.ident(j) {
                if CARBON_TERMS.contains(&id) {
                    term = Some(id);
                    break;
                }
            }
            j += 1;
        }
        if let Some(term) = term {
            push(
                out,
                ctx,
                line,
                "partial-merge",
                format!(
                    "running `+=` over `{term}` builds a fleet total outside the running fold — absorb into easyc::PartialAssessment (or reduce via easyc::fold) so the fold order stays pinned"
                ),
            );
        }
    }
}
