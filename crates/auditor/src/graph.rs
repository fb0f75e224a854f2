//! Cross-crate symbol/call graph over the parsed item skeletons.
//!
//! Nodes are non-test `fn` items. Each node carries a segment list
//! `[crate, file modules…, inline mods/impl type…, name]` derived from its
//! workspace-relative path plus the parser's qualification, so a call
//! written as `frame::csv::write(…)` resolves by **suffix match** against
//! `["frame", "csv", "write"]` without modelling `use` imports.
//!
//! Method calls (`x.write(…)`) dispatch by name alone — a deliberate
//! conservative over-approximation. To keep that over-approximation from
//! connecting unrelated crates (e.g. an `easyc` `.run(…)` edge into a
//! same-named method of a crate `easyc` cannot call), every edge is
//! restricted to the **dependency closure** of the caller's crate, parsed
//! from the workspace `Cargo.toml` files. Only `[dependencies]` count: a
//! dev-dependency is visible to tests and examples, never to library code.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::FileItems;

/// One graph node: a non-test `fn` item.
#[derive(Debug, Clone)]
pub struct Node {
    /// Display id, `crate::mods::Type::name`.
    pub id: String,
    /// Owning crate (directory-derived; the root package is
    /// `top500-carbon`).
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Index into the defining file's `FileItems::fns`.
    pub file_idx: usize,
    /// Index of the fn within that file's `fns` vector.
    pub fn_idx: usize,
    /// Full segment list used for suffix resolution.
    pub segments: Vec<String>,
    /// The bare fn name (last segment).
    pub name: String,
    /// Declared `pub`.
    pub is_pub: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All nodes, in deterministic (path, declaration) order.
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[u]` is the sorted, deduplicated callee set.
    pub edges: Vec<Vec<usize>>,
    /// Per-crate dependency closure (crate → crates it may call,
    /// including itself).
    pub dep_closure: BTreeMap<String, BTreeSet<String>>,
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "top500-carbon".to_string()
}

/// Module segments implied by the file's location: `crates/frame/src/csv.rs`
/// → `["csv"]`, `src/lib.rs` → `[]`, `src/a/mod.rs` → `["a"]`.
fn file_mods(path: &str) -> Vec<String> {
    let rel = if let Some(rest) = path.strip_prefix("crates/") {
        match rest.split_once('/') {
            Some((_, tail)) => tail,
            None => return Vec::new(),
        }
    } else {
        path
    };
    let Some(inner) = rel.strip_prefix("src/") else {
        // tests/, benches/, examples/: each file is its own root module.
        return Vec::new();
    };
    let mut mods: Vec<String> = inner.split('/').map(str::to_string).collect();
    let Some(last) = mods.pop() else {
        return Vec::new();
    };
    let stem = last.strip_suffix(".rs").unwrap_or(&last);
    if stem != "lib" && stem != "main" && stem != "mod" {
        mods.push(stem.to_string());
    }
    mods
}

/// Parses `[dependencies]` path-dep names out of one Cargo.toml source.
fn direct_deps(manifest: &str) -> (Option<String>, Vec<String>) {
    let mut package = None;
    let mut deps = Vec::new();
    let mut section = "";
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if section == "[package]" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    package = Some(v.trim().trim_matches('"').to_string());
                }
            }
        } else if section == "[dependencies]" && !line.is_empty() && !line.starts_with('#') {
            let name: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() {
                deps.push(name);
            }
        }
    }
    (package, deps)
}

/// Builds the per-crate dependency closure from `(path, source)` manifest
/// pairs. Crates without a manifest depend only on themselves.
pub fn dep_closure(manifests: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (path, source) in manifests {
        let (package, deps) = direct_deps(source);
        let name = package.unwrap_or_else(|| crate_of(path));
        direct.entry(name).or_default().extend(deps);
    }
    let mut closure = BTreeMap::new();
    for name in direct.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue = VecDeque::from([name.clone()]);
        while let Some(c) = queue.pop_front() {
            if !seen.insert(c.clone()) {
                continue;
            }
            if let Some(ds) = direct.get(&c) {
                queue.extend(ds.iter().cloned());
            }
        }
        closure.insert(name.clone(), seen);
    }
    closure
}

impl Graph {
    /// Builds the graph from parsed files plus manifest sources.
    pub fn build(files: &[FileItems], manifests: &[(String, String)]) -> Graph {
        let dep_closure = dep_closure(manifests);
        let mut nodes = Vec::new();
        // Fn name → node indices, for suffix resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (file_idx, file) in files.iter().enumerate() {
            let crate_name = crate_of(&file.path);
            let mods = file_mods(&file.path);
            for (fn_idx, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let mut segments = Vec::with_capacity(2 + mods.len() + f.qual.len());
                segments.push(crate_name.clone());
                segments.extend(mods.iter().cloned());
                segments.extend(f.qual.iter().cloned());
                segments.push(f.name.clone());
                nodes.push(Node {
                    id: segments.join("::"),
                    crate_name: crate_name.clone(),
                    path: file.path.clone(),
                    file_idx,
                    fn_idx,
                    segments,
                    name: f.name.clone(),
                    is_pub: f.is_pub,
                });
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            by_name.entry(node.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (u, node) in nodes.iter().enumerate() {
            let file = &files[node.file_idx];
            let f = &file.fns[node.fn_idx];
            let allowed = dep_closure.get(&node.crate_name);
            let crate_ok = |callee: &Node| match allowed {
                Some(set) => set.contains(&callee.crate_name),
                // No manifest for this crate: only same-crate edges.
                None => callee.crate_name == node.crate_name,
            };
            let mut out = BTreeSet::new();
            for call in &f.calls {
                // Normalise the written path: a leading `crate` means the
                // caller's own crate; `self`/`super` are dropped (the
                // remaining suffix still has to match).
                let mut segs: Vec<&str> = call.path.iter().map(String::as_str).collect();
                if segs.first() == Some(&"crate") {
                    segs[0] = &node.crate_name;
                }
                while matches!(segs.first(), Some(&"self") | Some(&"super")) {
                    segs.remove(0);
                }
                let Some(last) = segs.last() else { continue };
                let Some(cands) = by_name.get(last) else {
                    continue;
                };
                for &v in cands {
                    let callee = &nodes[v];
                    if !crate_ok(callee) {
                        continue;
                    }
                    if call.method || segs.len() == 1 {
                        // Name-only dispatch: over-approximate.
                        out.insert(v);
                    } else if ends_with(&callee.segments, &segs) {
                        out.insert(v);
                    }
                }
            }
            edges[u] = out.into_iter().collect();
        }
        Graph {
            nodes,
            edges,
            dep_closure,
        }
    }

    /// BFS from `entries`; returns per-node predecessor (`parent[v]` is the
    /// node that first reached `v`; entries point at themselves).
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &e in entries {
            if parent[e].is_none() {
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Renders the entry→target chain recorded in a `reachable_from`
    /// predecessor map, as `a -> b -> c` display ids.
    pub fn render_path(&self, parent: &[Option<usize>], target: usize) -> String {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.nodes[i].id.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Deterministic DOT export. With `by_crate`, nodes are condensed to
    /// crates (the committed CI snapshot uses this form — it is stable
    /// across refactors that do not change crate-level dependencies).
    pub fn to_dot(&self, by_crate: bool) -> String {
        let mut lines = BTreeSet::new();
        if by_crate {
            for (u, vs) in self.edges.iter().enumerate() {
                for &v in vs {
                    let (a, b) = (&self.nodes[u].crate_name, &self.nodes[v].crate_name);
                    if a != b {
                        lines.insert(format!("  \"{a}\" -> \"{b}\";"));
                    }
                }
            }
            for node in &self.nodes {
                lines.insert(format!("  \"{}\";", node.crate_name));
            }
        } else {
            for node in &self.nodes {
                lines.insert(format!("  \"{}\";", node.id));
            }
            for (u, vs) in self.edges.iter().enumerate() {
                for &v in vs {
                    lines.insert(format!(
                        "  \"{}\" -> \"{}\";",
                        self.nodes[u].id, self.nodes[v].id
                    ));
                }
            }
        }
        let mut out = String::from("digraph audit {\n");
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// True when `haystack` ends with `needle` (string-slice comparison).
fn ends_with(haystack: &[String], needle: &[&str]) -> bool {
    needle.len() <= haystack.len()
        && haystack[haystack.len() - needle.len()..]
            .iter()
            .zip(needle)
            .all(|(h, n)| h == n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn file(path: &str, src: &str) -> FileItems {
        parse_items(path, &lex(src))
    }

    fn manifest(path: &str, name: &str, deps: &[&str]) -> (String, String) {
        let mut s = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
        for d in deps {
            s.push_str(&format!("{d} = {{ path = \"../{d}\" }}\n"));
        }
        (path.to_string(), s)
    }

    #[test]
    fn suffix_resolution_and_dep_closure_gate() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "pub fn entry() { b::util::helper(); c::tick(); }",
            ),
            file("crates/b/src/util.rs", "pub fn helper() {}"),
            file("crates/c/src/lib.rs", "pub fn tick() {}"),
        ];
        let manifests = vec![
            manifest("crates/a/Cargo.toml", "a", &["b"]),
            manifest("crates/b/Cargo.toml", "b", &[]),
            manifest("crates/c/Cargo.toml", "c", &[]),
        ];
        let g = Graph::build(&files, &manifests);
        let entry = g.nodes.iter().position(|n| n.id == "a::entry").unwrap();
        let helper = g
            .nodes
            .iter()
            .position(|n| n.id == "b::util::helper")
            .unwrap();
        let tick = g.nodes.iter().position(|n| n.id == "c::tick").unwrap();
        // b is a dependency of a, so the qualified call resolves; c is not,
        // so even an explicit `c::tick()` call stays out of the graph.
        assert!(g.edges[entry].contains(&helper));
        assert!(!g.edges[entry].contains(&tick));
    }

    #[test]
    fn method_calls_over_approximate_within_closure_only() {
        let files = vec![
            file("crates/a/src/lib.rs", "pub fn go(x: X) { x.run(); }"),
            file("crates/b/src/lib.rs", "impl R { pub fn run(&self) {} }"),
            file("crates/c/src/lib.rs", "impl S { pub fn run(&self) {} }"),
        ];
        let manifests = vec![
            manifest("crates/a/Cargo.toml", "a", &["b"]),
            manifest("crates/b/Cargo.toml", "b", &[]),
            manifest("crates/c/Cargo.toml", "c", &[]),
        ];
        let g = Graph::build(&files, &manifests);
        let go = g.nodes.iter().position(|n| n.id == "a::go").unwrap();
        let b_run = g.nodes.iter().position(|n| n.id == "b::R::run").unwrap();
        let c_run = g.nodes.iter().position(|n| n.id == "c::S::run").unwrap();
        assert!(g.edges[go].contains(&b_run));
        assert!(!g.edges[go].contains(&c_run));
    }

    #[test]
    fn transitive_dep_closure() {
        let manifests = vec![
            manifest("crates/a/Cargo.toml", "a", &["b"]),
            manifest("crates/b/Cargo.toml", "b", &["c"]),
            manifest("crates/c/Cargo.toml", "c", &[]),
        ];
        let closure = dep_closure(&manifests);
        assert!(closure["a"].contains("c"));
        assert!(!closure["c"].contains("a"));
    }

    #[test]
    fn dev_dependencies_are_excluded() {
        let manifests = vec![(
            "crates/a/Cargo.toml".to_string(),
            "[package]\nname = \"a\"\n\n[dependencies]\nb = { path = \"../b\" }\n\n[dev-dependencies]\ncriterion = { path = \"../criterion\" }\n".to_string(),
        )];
        let closure = dep_closure(&manifests);
        assert!(closure["a"].contains("b"));
        assert!(!closure["a"].contains("criterion"));
    }

    #[test]
    fn reachability_and_path_rendering() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "pub fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}",
        )];
        let manifests = vec![manifest("crates/a/Cargo.toml", "a", &[])];
        let g = Graph::build(&files, &manifests);
        let top = g.nodes.iter().position(|n| n.name == "top").unwrap();
        let leaf = g.nodes.iter().position(|n| n.name == "leaf").unwrap();
        let island = g.nodes.iter().position(|n| n.name == "island").unwrap();
        let parent = g.reachable_from(&[top]);
        assert!(parent[leaf].is_some());
        assert!(parent[island].is_none());
        assert_eq!(g.render_path(&parent, leaf), "a::top -> a::mid -> a::leaf");
    }

    #[test]
    fn dot_output_is_deterministic() {
        let files = vec![
            file("crates/a/src/lib.rs", "pub fn f() { b::g(); }"),
            file("crates/b/src/lib.rs", "pub fn g() {}"),
        ];
        let manifests = vec![
            manifest("crates/a/Cargo.toml", "a", &["b"]),
            manifest("crates/b/Cargo.toml", "b", &[]),
        ];
        let g1 = Graph::build(&files, &manifests).to_dot(false);
        let g2 = Graph::build(&files, &manifests).to_dot(false);
        assert_eq!(g1, g2);
        let crates = Graph::build(&files, &manifests).to_dot(true);
        assert!(crates.contains("\"a\" -> \"b\";"));
    }
}
