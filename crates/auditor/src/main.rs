//! The `auditor` CLI: `check` walks the workspace and exits non-zero on
//! any finding; `rules` lists the enforced rules from the registry;
//! `graph` exports the call graph.

use std::path::PathBuf;
use std::process::ExitCode;

use auditor::report::{self, Format};
use auditor::{audit_workspace, workspace_graph, REGISTRY};

const USAGE: &str = "usage: auditor <command>

commands:
  check [--root DIR] [--format text|github]
                       audit every workspace .rs file (default root: .)
                       exits 1 on any finding
  rules                list the enforced rules (lexical, semantic, hygiene)
  graph [--root DIR] [--dot] [--crates]
                       export the workspace call graph (DOT with --dot;
                       --crates condenses nodes to crates)

escape hatch: a comment directly above (or trailing) the offending line —
  // audit: allow(rule-id) — reason the invariant still holds
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for r in REGISTRY {
                println!(
                    "{} [{}]\n    {}\n    scope: {}",
                    r.id,
                    r.kind.label(),
                    r.summary,
                    r.scope
                );
            }
            ExitCode::SUCCESS
        }
        Some("graph") => graph(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return flag_err("--root needs a directory"),
            },
            "--format" => match it.next().and_then(|f| Format::parse(f)) {
                Some(f) => format = f,
                None => return flag_err("--format needs text|github"),
            },
            other => {
                eprintln!("auditor: unknown argument `{other}`");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let violations = match audit_workspace(&root) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("auditor: io error: {err}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::render(format, &violations));
    if format == Format::Text {
        if violations.is_empty() {
            println!(
                "auditor: workspace clean ({} rules enforced)",
                REGISTRY.len()
            );
        } else {
            println!("auditor: {} finding(s)", violations.len());
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn graph(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut dot = false;
    let mut by_crate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return flag_err("--root needs a directory"),
            },
            "--dot" => dot = true,
            "--crates" => by_crate = true,
            other => {
                eprintln!("auditor: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match workspace_graph(&root) {
        Ok(g) => {
            if dot {
                print!("{}", g.to_dot(by_crate));
            } else {
                let edges: usize = g.edges.iter().map(Vec::len).sum();
                println!(
                    "auditor: graph has {} fn node(s), {} edge(s)",
                    g.nodes.len(),
                    edges
                );
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("auditor: io error: {err}");
            ExitCode::from(2)
        }
    }
}

fn flag_err(msg: &str) -> ExitCode {
    eprintln!("auditor: {msg}");
    ExitCode::from(2)
}
