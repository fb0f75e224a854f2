//! The benchmark's view of the machine: its one clock, process CPU time
//! and resident memory, and the capture record stored with every run.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The benchmark's clock. Every timing in the benchmark reads it here.
pub fn now() -> Instant {
    // audit: allow(wall-clock) — the benchmark's own timer; it never feeds an engine result
    Instant::now()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel clock ticks per second behind `/proc/self/stat` (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used (all threads), at the
/// kernel's 10 ms tick resolution; `0.0` where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// Resets the kernel's resident-memory high-water mark (`VmHWM`) to the
/// current resident set. Returns false where `/proc/self/clear_refs` is
/// not writable; `VmHWM` then keeps the peak since the process started.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set in MiB since the last [`reset_peak_rss`] (`VmHWM`);
/// `0.0` where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a capture records about the build and the machine it ran on.
#[derive(Debug, Clone)]
pub struct Capture {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: String,
    pub git_rev: String,
    pub source_digest: String,
    pub profile: &'static str,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cache_size(level: u32) -> String {
    // index0/1 are L1d/L1i on x86; scan for the level rather than assume.
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if read("level").map(|l| l.trim().to_string()) == Some(level.to_string()) {
            return read("size").map_or("unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".into()
}

/// Digest of the engine sources the benchmark builds (every `.rs` file
/// under `crates/*/src`, in path order): identifies the code under test
/// where no git metadata exists.
fn source_digest(repo: &Path) -> String {
    let mut files = Vec::new();
    let mut stack = vec![repo.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && name != "tests" && name != "benches" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") && path.to_string_lossy().contains("/src/") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut d = crate::stats::Digest::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            d.update(
                f.strip_prefix(repo)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.update(&bytes);
        }
    }
    format!("{:016x} ({} files)", d.finish(), files.len())
}

impl Capture {
    /// Reads the machine and build description.
    pub fn take() -> Capture {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap_or(Path::new("."));
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git_rev = first_line_of("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".into());
        Capture {
            nproc: nproc(),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev,
            source_digest: source_digest(repo),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}
