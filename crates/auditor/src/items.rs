//! Item-level parsing on top of the lexer: fn / impl / mod / trait / use
//! skeletons with line spans, plus the per-function facts the semantic
//! rules consume (call-site identifiers, panic sites, wall-clock sites,
//! sync acquisitions).
//!
//! This is deliberately **not** an expression grammar. The parser walks the
//! token stream once, brace-matching item bodies, and records:
//!
//! - every `fn` item with its module/impl qualification and body span;
//! - inside each body, every `ident(` / `a::b::ident(` plain call and
//!   every `.ident(` method call (the graph over-approximates method
//!   dispatch by name);
//! - panic-adjacent tokens (`.unwrap()`, `.expect(`, `panic!`-family
//!   macros, and `)[…]` indexing straight into a call result);
//! - wall-clock tokens (`Instant::now`, `SystemTime`, `env::var`);
//! - sync acquisitions (`x.lock()`, `x.read()`, `x.write()`, `x.recv()`,
//!   `x.recv_timeout(`, `x.send(`, `x.wait(`) keyed by the receiver
//!   identifier, matched later against declared sync sites.
//!
//! Unparseable or truncated input never panics: the parser skips what it
//! cannot shape (the compiler owns syntax errors), which a proptest in
//! `tests/parser_proptests.rs` pins against arbitrary token soup.

use crate::lexer::{Lexed, TokKind};

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments as written (`["frame", "csv", "write"]`; one segment
    /// for plain and method calls).
    pub path: Vec<String>,
    /// True for `.name(…)` method syntax (dispatch target unknown —
    /// resolved by name over-approximation).
    pub method: bool,
    /// 1-based source line.
    pub line: usize,
    /// Token index — orders calls against acquisitions within the body.
    pub order: usize,
}

/// One panic-adjacent site inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// What the site is (`unwrap`, `expect`, `panic!`, `indexing`, …).
    pub what: &'static str,
}

/// One wall-clock / entropy token inside a fn body.
#[derive(Debug, Clone)]
pub struct ClockSite {
    /// 1-based source line.
    pub line: usize,
    /// What the site reads (`Instant::now`, `SystemTime`, `env::var`).
    pub what: &'static str,
}

/// One potentially blocking sync acquisition inside a fn body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// The receiver identifier (`releases` in `shared.releases.lock()`).
    pub receiver: String,
    /// The acquisition method (`lock`, `read`, `recv_timeout`, …).
    pub op: String,
    /// 1-based source line.
    pub line: usize,
    /// Token index — orders acquisitions against calls within the body.
    pub order: usize,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn name as written.
    pub name: String,
    /// Qualification inside the file: enclosing `mod` names plus the
    /// `impl`/`trait` type name, outermost first.
    pub qual: Vec<String>,
    /// Declared `pub` (unscoped; `pub(crate)` etc. count as private API).
    pub is_pub: bool,
    /// 1-based first line (the `fn` keyword).
    pub start_line: usize,
    /// 1-based last line of the body (or of the `;` for bodyless decls).
    pub end_line: usize,
    /// True when the fn sits inside a `#[cfg(test)]` range / `#[test]`.
    pub in_test: bool,
    /// Call sites in the body, in token order.
    pub calls: Vec<Call>,
    /// Panic-adjacent sites in the body.
    pub panics: Vec<PanicSite>,
    /// Wall-clock / entropy sites in the body.
    pub clocks: Vec<ClockSite>,
    /// Sync acquisitions in the body, in token order.
    pub acquires: Vec<Acquire>,
}

/// One `pub` non-fn item (struct / enum / trait / const / static / type).
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Item keyword (`struct`, `enum`, …).
    pub kind: &'static str,
    /// The item name.
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// True when declared inside a `#[cfg(test)]` range.
    pub in_test: bool,
}

/// Everything the semantic rules need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Every parsed fn.
    pub fns: Vec<FnItem>,
    /// Every `pub` non-fn item.
    pub pub_items: Vec<PubItem>,
    /// Names declared with a sync type in this file (`name: Mutex<…>`
    /// fields/params/lets and `let (tx, rx) = sync_channel(…)` bindings).
    pub sync_decls: Vec<String>,
    /// Every identifier token in the file, deduplicated — the reference
    /// set `dead-public` consults.
    pub idents: std::collections::BTreeSet<String>,
}

/// Index of the bracket matching the opener at `open`.
pub(crate) fn matching(lexed: &Lexed, open: usize, lhs: char, rhs: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < lexed.tokens.len() {
        if lexed.is_punct(i, lhs) {
            depth += 1;
        } else if lexed.is_punct(i, rhs) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "unsafe", "as", "in", "where", "impl", "dyn", "pub", "use", "mod",
];

/// Blocking sync acquisition methods the `lock-order` rule tracks.
/// (`try_send`/`try_recv`/`try_lock` are non-blocking and excluded.)
const ACQUIRE_OPS: &[&str] = &[
    "lock",
    "read",
    "write",
    "recv",
    "recv_timeout",
    "send",
    "wait",
];

/// Type names whose ascription marks a declared sync site.
const SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "SyncSender",
    "Sender",
    "Receiver",
];

/// Parses one lexed file into its item skeleton. Never panics on malformed
/// input — items that cannot be shaped are skipped.
pub fn parse_items(path: &str, lexed: &Lexed) -> FileItems {
    let test_ranges = crate::rules::test_line_ranges(lexed);
    let in_test = |line: usize| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    let mut out = FileItems {
        path: path.to_string(),
        ..FileItems::default()
    };
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident {
            out.idents.insert(t.text.clone());
        }
    }
    collect_sync_decls(lexed, &mut out.sync_decls);

    // (name, closing token index) frames for mod / impl / trait scopes.
    let mut frames: Vec<(Option<String>, usize)> = Vec::new();
    let mut pending_pub = false;
    let mut pending_scoped = false;
    let n = lexed.tokens.len();
    let mut i = 0usize;
    while i < n {
        while let Some(&(_, close)) = frames.last() {
            if i > close {
                frames.pop();
            } else {
                break;
            }
        }
        let Some(id) = lexed.ident(i) else {
            // Attributes carry no visibility; `;`, `{`, `}` end whatever
            // visibility was pending.
            if lexed.is_punct(i, ';') || lexed.is_punct(i, '{') || lexed.is_punct(i, '}') {
                pending_pub = false;
                pending_scoped = false;
            }
            i += 1;
            continue;
        };
        match id {
            "pub" => {
                if lexed.is_punct(i + 1, '(') {
                    pending_scoped = true;
                    pending_pub = false;
                    i = matching(lexed, i + 1, '(', ')').map_or(n, |c| c + 1);
                } else {
                    pending_pub = true;
                    pending_scoped = false;
                    i += 1;
                }
                continue;
            }
            // Modifiers between `pub` and the item keyword keep it pending.
            "const" if matches!(lexed.ident(i + 1), Some("fn")) => {
                i += 1;
                continue;
            }
            "unsafe" | "async" | "extern" => {
                i += 1;
                continue;
            }
            "macro_rules" if lexed.is_punct(i + 1, '!') => {
                // `macro_rules! name { … }` — skip the whole definition so
                // its token soup never reads as items.
                let mut j = i + 2;
                while j < n && !lexed.is_punct(j, '{') {
                    j += 1;
                }
                i = matching(lexed, j, '{', '}').map_or(n, |c| c + 1);
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            "mod" => {
                let name = lexed.ident(i + 1).map(str::to_string);
                if lexed.is_punct(i + 2, '{') {
                    match matching(lexed, i + 2, '{', '}') {
                        Some(close) => frames.push((name, close)),
                        None => break,
                    }
                    i += 3;
                } else {
                    i += 2; // `mod name;` declaration
                }
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            "impl" => {
                let (type_name, open) = impl_header(lexed, i);
                match open.and_then(|o| matching(lexed, o, '{', '}')) {
                    Some(close) => {
                        frames.push((type_name, close));
                        i = open.unwrap_or(i) + 1;
                    }
                    None => i += 1,
                }
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            "trait" => {
                let name = lexed.ident(i + 1).map(str::to_string);
                if pending_pub {
                    if let Some(name) = &name {
                        out.pub_items.push(PubItem {
                            kind: "trait",
                            name: name.clone(),
                            line: lexed.tokens[i].line,
                            in_test: in_test(lexed.tokens[i].line),
                        });
                    }
                }
                let mut j = i + 1;
                while j < n && !lexed.is_punct(j, '{') && !lexed.is_punct(j, ';') {
                    j += 1;
                }
                if lexed.is_punct(j, '{') {
                    match matching(lexed, j, '{', '}') {
                        Some(close) => frames.push((name, close)),
                        None => break,
                    }
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            "fn" => {
                let Some(name) = lexed.ident(i + 1) else {
                    i += 1; // `fn(…)` pointer type, not an item
                    continue;
                };
                let start_line = lexed.tokens[i].line;
                // The signature runs to the body `{` or a bodyless `;`.
                let mut j = i + 2;
                while j < n && !lexed.is_punct(j, '{') && !lexed.is_punct(j, ';') {
                    j += 1;
                }
                let (body, end_line, next) = if lexed.is_punct(j, '{') {
                    match matching(lexed, j, '{', '}') {
                        Some(close) => (Some((j + 1, close)), lexed.tokens[close].line, close + 1),
                        None => (Some((j + 1, n)), lexed.tokens[n - 1].line, n),
                    }
                } else {
                    let end = lexed.tokens.get(j).map_or(start_line, |t| t.line);
                    (None, end, j.saturating_add(1))
                };
                let qual: Vec<String> = frames.iter().filter_map(|(q, _)| q.clone()).collect();
                let mut item = FnItem {
                    name: name.to_string(),
                    qual,
                    is_pub: pending_pub && !pending_scoped,
                    start_line,
                    end_line,
                    in_test: in_test(start_line),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    clocks: Vec::new(),
                    acquires: Vec::new(),
                };
                if let Some((lo, hi)) = body {
                    body_facts(lexed, lo, hi, &mut item);
                }
                out.fns.push(item);
                pending_pub = false;
                pending_scoped = false;
                i = next;
                continue;
            }
            "struct" | "enum" | "union" | "static" | "type" | "const" => {
                if pending_pub {
                    if let Some(name) = lexed.ident(i + 1) {
                        let kind = match id {
                            "struct" => "struct",
                            "enum" => "enum",
                            "union" => "union",
                            "static" => "static",
                            "type" => "type",
                            _ => "const",
                        };
                        out.pub_items.push(PubItem {
                            kind,
                            name: name.to_string(),
                            line: lexed.tokens[i].line,
                            in_test: in_test(lexed.tokens[i].line),
                        });
                    }
                }
                // Skip the item body: `{…}` for braced defs, else to `;`.
                let mut j = i + 1;
                while j < n
                    && !lexed.is_punct(j, '{')
                    && !lexed.is_punct(j, ';')
                    && !lexed.is_punct(j, '}')
                {
                    j += 1;
                }
                i = if lexed.is_punct(j, '{') {
                    matching(lexed, j, '{', '}').map_or(n, |c| c + 1)
                } else {
                    j + 1
                };
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            "use" => {
                let mut j = i + 1;
                while j < n && !lexed.is_punct(j, ';') {
                    j += 1;
                }
                i = j + 1;
                pending_pub = false;
                pending_scoped = false;
                continue;
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

/// Parses an `impl` header starting at token `i` (`impl<…> Type {` or
/// `impl<…> Trait for Type {`): returns the impl type name and the index
/// of the body `{`.
fn impl_header(lexed: &Lexed, i: usize) -> (Option<String>, Option<usize>) {
    let n = lexed.tokens.len();
    let mut j = i + 1;
    // Skip the generic parameter list if present.
    if lexed.is_punct(j, '<') {
        let mut depth = 0usize;
        while j < n {
            if lexed.is_punct(j, '<') {
                depth += 1;
            } else if lexed.is_punct(j, '>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Find the body `{`, remembering whether a `for` splits trait/type.
    let mut open = None;
    let mut after_for = None;
    let mut first_ident = None;
    let mut k = j;
    while k < n {
        if lexed.is_punct(k, '{') {
            open = Some(k);
            break;
        }
        if lexed.ident(k) == Some("for") {
            after_for = lexed.ident(k + 1).map(str::to_string);
        } else if first_ident.is_none() {
            if let Some(id) = lexed.ident(k) {
                first_ident = Some(id.to_string());
            }
        }
        k += 1;
    }
    (after_for.or(first_ident), open)
}

/// Extracts calls, panic sites, clock sites and sync acquisitions from the
/// body token range `[lo, hi)`.
fn body_facts(lexed: &Lexed, lo: usize, hi: usize, item: &mut FnItem) {
    let hi = hi.min(lexed.tokens.len());
    for j in lo..hi {
        let line = lexed.tokens[j].line;
        // `)[` — indexing straight into a call result.
        if lexed.is_punct(j, ')') && lexed.is_punct(j + 1, '[') && j + 1 < hi {
            item.panics.push(PanicSite {
                line: lexed.tokens[j + 1].line,
                what: "call-result indexing",
            });
        }
        let Some(id) = lexed.ident(j) else { continue };
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if lexed.is_punct(j + 1, '!')
            && (lexed.is_punct(j + 2, '(')
                || lexed.is_punct(j + 2, '[')
                || lexed.is_punct(j + 2, '{'))
        {
            if matches!(id, "panic" | "unreachable" | "todo" | "unimplemented") {
                item.panics.push(PanicSite {
                    line,
                    what: match id {
                        "panic" => "panic!",
                        "unreachable" => "unreachable!",
                        "todo" => "todo!",
                        _ => "unimplemented!",
                    },
                });
            }
            continue;
        }
        // Wall-clock / entropy tokens.
        if id == "Instant"
            && lexed.is_punct(j + 1, ':')
            && lexed.is_punct(j + 2, ':')
            && lexed.ident(j + 3) == Some("now")
        {
            item.clocks.push(ClockSite {
                line,
                what: "Instant::now",
            });
        } else if id == "SystemTime" {
            item.clocks.push(ClockSite {
                line,
                what: "SystemTime",
            });
        } else if id == "env"
            && lexed.is_punct(j + 1, ':')
            && lexed.is_punct(j + 2, ':')
            && matches!(lexed.ident(j + 3), Some("var") | Some("var_os"))
        {
            item.clocks.push(ClockSite {
                line,
                what: "env::var",
            });
        }
        // Calls: `ident(` with an optional `a::b::` prefix, or `.ident(`.
        if !lexed.is_punct(j + 1, '(') {
            continue;
        }
        if lexed.is_punct(j.wrapping_sub(1), '.') && j >= 1 {
            // Method call.
            if id == "unwrap" && lexed.is_punct(j + 2, ')') {
                item.panics.push(PanicSite {
                    line,
                    what: "unwrap",
                });
            } else if id == "expect" {
                item.panics.push(PanicSite {
                    line,
                    what: "expect",
                });
            }
            if ACQUIRE_OPS.contains(&id) {
                if let Some(receiver) = lexed.ident(j.wrapping_sub(2)) {
                    if j >= 2 {
                        item.acquires.push(Acquire {
                            receiver: receiver.to_string(),
                            op: id.to_string(),
                            line,
                            order: j,
                        });
                    }
                }
            }
            item.calls.push(Call {
                path: vec![id.to_string()],
                method: true,
                line,
                order: j,
            });
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&id) {
            continue;
        }
        // Collect the `a::b::` prefix backwards.
        let mut segs = vec![id.to_string()];
        let mut head = j;
        while head >= 3
            && lexed.is_punct(head - 1, ':')
            && lexed.is_punct(head - 2, ':')
            && lexed.ident(head - 3).is_some()
        {
            head -= 3;
            segs.insert(0, lexed.ident(head).unwrap_or_default().to_string());
        }
        item.calls.push(Call {
            path: segs,
            method: false,
            line,
            order: j,
        });
    }
}

/// Collects declared sync-site names: `name: [&][Arc<…>]SyncType<…>`
/// ascriptions (struct fields, params, lets) and the two binders of a
/// `let (tx, rx) = [mpsc::]sync_channel(…)` / `channel(…)` destructuring.
fn collect_sync_decls(lexed: &Lexed, out: &mut Vec<String>) {
    let n = lexed.tokens.len();
    for i in 0..n {
        let Some(id) = lexed.ident(i) else { continue };
        if SYNC_TYPES.contains(&id) {
            // Walk back over wrapper-type junk to the `name :` ascription:
            // `releases: Mutex<u64>`, `panics: Arc<Mutex<usize>>`.
            let mut p = i;
            while p > 0 {
                let q = p - 1;
                let skippable = lexed.is_punct(q, '<')
                    || lexed.is_punct(q, '&')
                    || matches!(lexed.ident(q), Some("Arc") | Some("Option") | Some("Box"));
                if skippable {
                    p = q;
                } else {
                    break;
                }
            }
            // `path::to::Mutex` prefixes: hop the `::`s too.
            while p >= 3
                && lexed.is_punct(p - 1, ':')
                && lexed.is_punct(p - 2, ':')
                && lexed.ident(p - 3).is_some()
            {
                p -= 3;
            }
            if p >= 2 && lexed.is_punct(p - 1, ':') && !lexed.is_punct(p.wrapping_sub(2), ':') {
                if let Some(name) = lexed.ident(p - 2) {
                    if !out.iter().any(|d| d == name) {
                        out.push(name.to_string());
                    }
                }
            }
            continue;
        }
        if (id == "sync_channel" || id == "channel") && i >= 1 {
            // `let ( a , b ) = [path::]sync_channel` — scan back a bounded
            // window for the destructuring pattern.
            let lo = i.saturating_sub(12);
            for l in (lo..i).rev() {
                if lexed.ident(l) == Some("let") && lexed.is_punct(l + 1, '(') {
                    let (a, b) = (lexed.ident(l + 2), lexed.ident(l + 4));
                    if lexed.is_punct(l + 3, ',') && lexed.is_punct(l + 5, ')') {
                        for name in [a, b].into_iter().flatten() {
                            if !out.iter().any(|d| d == name) {
                                out.push(name.to_string());
                            }
                        }
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileItems {
        parse_items("crates/x/src/lib.rs", &lex(src))
    }

    #[test]
    fn fns_mods_impls_and_visibility() {
        let src = "pub fn top() {}\nmod inner {\n    pub(crate) fn scoped() {}\n    impl Widget {\n        pub fn method(&self) { helper(); }\n        fn helper() {}\n    }\n}\n";
        let items = parse(src);
        let names: Vec<(String, Vec<String>, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.qual.clone(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("top".into(), vec![], true),
                ("scoped".into(), vec!["inner".into()], false),
                ("method".into(), vec!["inner".into(), "Widget".into()], true),
                (
                    "helper".into(),
                    vec!["inner".into(), "Widget".into()],
                    false
                ),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_takes_the_type_name() {
        let src = "impl<S, F> Strategy for Map<S, F> {\n    fn new_value(&self) { self.inner.new_value(); }\n}";
        let items = parse(src);
        assert_eq!(items.fns[0].qual, vec!["Map".to_string()]);
        assert!(items.fns[0]
            .calls
            .iter()
            .any(|c| c.method && c.path == ["new_value"]));
    }

    #[test]
    fn calls_collect_paths_methods_and_macros() {
        let src = "fn f() {\n    frame::csv::write(x);\n    helper();\n    y.finish();\n    println!(\"not a call\");\n    panic!(\"boom\");\n}";
        let items = parse(src);
        let f = &items.fns[0];
        let plain: Vec<&[String]> = f
            .calls
            .iter()
            .filter(|c| !c.method)
            .map(|c| c.path.as_slice())
            .collect();
        assert!(plain
            .contains(&["frame".to_string(), "csv".to_string(), "write".to_string()].as_slice()));
        assert!(plain.contains(&["helper".to_string()].as_slice()));
        assert!(f.calls.iter().any(|c| c.method && c.path == ["finish"]));
        assert!(!f
            .calls
            .iter()
            .any(|c| c.path.last().map(String::as_str) == Some("println")));
        assert_eq!(f.panics.len(), 1);
        assert_eq!(f.panics[0].what, "panic!");
    }

    #[test]
    fn panic_sites_cover_unwrap_expect_and_indexing() {
        let src = "fn f() {\n    let a = x.unwrap();\n    let b = y.expect(\"msg\");\n    let c = out.slices()[0];\n    let d = &buf[..n];\n}";
        let items = parse(src);
        let whats: Vec<&str> = items.fns[0].panics.iter().map(|p| p.what).collect();
        assert_eq!(whats, vec!["unwrap", "expect", "call-result indexing"]);
    }

    #[test]
    fn clock_sites_and_acquires() {
        let src = "fn f(&self) {\n    let t = Instant::now();\n    let g = self.releases.lock();\n    let s = self.state.read();\n    self.released.wait(g);\n}";
        let items = parse(src);
        let f = &items.fns[0];
        assert_eq!(f.clocks.len(), 1);
        let acq: Vec<(&str, &str)> = f
            .acquires
            .iter()
            .map(|a| (a.receiver.as_str(), a.op.as_str()))
            .collect();
        assert_eq!(
            acq,
            vec![
                ("releases", "lock"),
                ("state", "read"),
                ("released", "wait")
            ]
        );
    }

    #[test]
    fn sync_decls_from_ascriptions_and_channels() {
        let src = "struct S {\n    releases: Mutex<u64>,\n    state: RwLock<Fleet>,\n    reply: SyncSender<String>,\n    panics: Arc<Mutex<usize>>,\n}\nfn g() {\n    let (tx, rx) = sync_channel::<Request>(4);\n}";
        let items = parse(src);
        assert_eq!(
            items.sync_decls,
            vec!["releases", "state", "reply", "panics", "tx", "rx"]
        );
    }

    #[test]
    fn pub_items_and_test_fns_are_marked() {
        let src = "pub struct Wide;\npub const K: usize = 3;\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}";
        let items = parse(src);
        let kinds: Vec<(&str, &str)> = items
            .pub_items
            .iter()
            .map(|p| (p.kind, p.name.as_str()))
            .collect();
        assert_eq!(kinds, vec![("struct", "Wide"), ("const", "K")]);
        let helper = items.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
    }

    #[test]
    fn truncated_and_hostile_sources_never_panic() {
        for src in [
            "fn",
            "fn f(",
            "fn f() {",
            "impl {",
            "impl<T for {",
            "mod m { fn g(",
            "pub(",
            "trait T",
            "macro_rules! m { bad",
            "struct S { x: Mutex<",
            "let (a, = channel();",
            ") [ ] . unwrap (",
        ] {
            let _ = parse(src);
        }
    }
}
