//! `top500-carbon` — command-line interface to the EasyC study.
//!
//! ```text
//! top500-carbon study [artifacts_dir]       run the full Top 500 study
//! top500-carbon assess <systems.csv>        assess systems from a CSV
//! top500-carbon template                    print the CSV input template
//! top500-carbon figures <dir>               write every figure/table CSV
//! top500-carbon sweep <scenarios.csv> [systems.csv] [options]
//!                                           assess a scenario matrix in one session
//!   --workers N        threads per session phase
//!   --out results.csv  write per-(scenario, system) columnar results; under
//!                      --stream the rows are spilled chunk-by-chunk (same
//!                      bytes, bounded memory)
//!   --draws N          Monte-Carlo fleet intervals (operational + embodied),
//!                      at most easyc::MAX_DRAWS (2^20) over all scenarios
//!   --confidence L     interval confidence level in (0, 1) (default 0.95)
//!   --seed S           RNG seed for the Monte-Carlo draws (default 0)
//!   --compare A,B      paired scenario comparison B − A: common random
//!                      numbers replay identical per-system perturbations in
//!                      both scenarios, so the difference interval is far
//!                      tighter than differencing the two separate bands
//!                      (enables --draws 1000 if --draws was not given)
//!   --synthetic N      use an N-system synthetic fleet instead of a CSV
//!   --stream           pipelined chunked ingestion: the next chunk is parsed
//!                      on a background thread while the engine assesses the
//!                      current one; memory bounded by --chunk-rows (at most
//!                      two chunks resident), not fleet size
//!   --chunk-rows N     rows per streamed chunk (default 8192)
//!   (any other --option, or a second systems path, is a usage error)
//! top500-carbon sweep-template              print the scenario CSV template
//! top500-carbon serve [systems.csv] [--addr H:P --synthetic N --workers N
//!                     --serve-workers N --queue-depth N --timeout-ms N --cold]
//!                                           resident JSONL/TCP assessment server
//!                                           over a warm easyc::FleetState
//!                                           (systems.csv and --synthetic
//!                                           are exclusive)
//! top500-carbon query --addr H:P <op>       one request against a running server
//!                                           (status / assess / sweep / compare /
//!                                           invalidate / shutdown)
//! ```

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;

use top500_carbon::analysis::fleet::{render_deltas, render_sweep, summarize};
use top500_carbon::analysis::report::{run_study, SweepCsvWriter};
use top500_carbon::easyc::{
    Assessment, AssessmentOutput, DrawPlan, FleetState, Interval, ScenarioMatrix, MAX_DRAWS,
};
use top500_carbon::frame;
use top500_carbon::serve::{self, ServeConfig};
use top500_carbon::top500::io::{export_csv, import_csv, stream_csv, COLUMNS};
use top500_carbon::top500::list::Top500List;
use top500_carbon::top500::stream::{FleetChunks, Prefetched, SyntheticChunks};
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

const DEFAULT_SEED: u64 = 0x5EED_CAFE;
const DEFAULT_CHUNK_ROWS: usize = 8192;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("study") => cmd_study(args.get(1).map(Path::new)),
        Some("assess") => match args.get(1) {
            Some(path) => cmd_assess(Path::new(path)),
            None => usage("assess requires a CSV path"),
        },
        Some("template") => cmd_template(),
        Some("figures") => match args.get(1) {
            Some(dir) => cmd_figures(Path::new(dir)),
            None => usage("figures requires an output directory"),
        },
        Some("sweep") => match args.get(1) {
            Some(path) => cmd_sweep(Path::new(path), &args[2..]),
            None => usage("sweep requires a scenarios CSV path"),
        },
        Some("sweep-template") => {
            print!("{}", ScenarioMatrix::csv_template());
            ExitCode::SUCCESS
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("no command given"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n");
    eprintln!("usage:");
    eprintln!("  top500-carbon study [artifacts_dir]   run the full Top 500 study");
    eprintln!("  top500-carbon assess <systems.csv>    assess systems from a CSV");
    eprintln!("  top500-carbon template                print the CSV input template");
    eprintln!("  top500-carbon figures <dir>           write every figure/table CSV");
    eprintln!("  top500-carbon sweep <scenarios.csv> [systems.csv] [options]");
    eprintln!("                                        assess a scenario matrix in one session");
    eprintln!("    --workers N         threads per session phase");
    eprintln!("    --out results.csv   write per-(scenario, system) columnar results");
    eprintln!("                        (works with --stream: rows spill chunk-by-chunk,");
    eprintln!("                        byte-identical artifact at bounded memory)");
    eprintln!("    --draws N           Monte-Carlo fleet intervals per scenario");
    eprintln!("                        (at most {MAX_DRAWS} draws over all scenarios)");
    eprintln!("    --confidence L      interval confidence level in (0, 1), default 0.95");
    eprintln!("    --seed S            RNG seed for the Monte-Carlo draws, default 0");
    eprintln!("    --compare A,B       paired delta B − A over common random numbers");
    eprintln!("                        (defaults --draws to 1000 when not given)");
    eprintln!("    --synthetic N       N-system synthetic fleet instead of a CSV");
    eprintln!("    --stream            pipelined chunked ingestion (parse overlaps assess),");
    eprintln!("                        memory bounded by --chunk-rows, not fleet size");
    eprintln!("    --chunk-rows N      rows per streamed chunk (default {DEFAULT_CHUNK_ROWS})");
    eprintln!("  top500-carbon sweep-template          print the scenario CSV template");
    eprintln!("  top500-carbon serve [systems.csv] [options]");
    eprintln!("                                        resident assessment server (JSONL/TCP)");
    eprintln!("    --addr HOST:PORT    bind address (default 127.0.0.1:0, port printed)");
    eprintln!("    --synthetic N       N-system synthetic fleet instead of a CSV (default 500)");
    eprintln!("    --workers N         threads per query phase; caps a request's --workers");
    eprintln!("    --serve-workers N   compute workers draining the request queue (default 2)");
    eprintln!("    --queue-depth N     bounded request queue (default 16; full → queue-full)");
    eprintln!("    --timeout-ms N      per-request reply deadline (default 30000)");
    eprintln!("    --cold              skip warming the footprint cache at startup");
    eprintln!("  top500-carbon query --addr HOST:PORT <op> [options]");
    eprintln!("                                        one request against a running server");
    eprintln!("    status | shutdown                   transport ops");
    eprintln!("    assess [--mask SPEC --scenario NAME --pue X --utilization X --aci X]");
    eprintln!("    sweep <scenarios.csv> [--out results.csv]   (CSV identical to `sweep --out`)");
    eprintln!("    compare <scenarios.csv> A,B");
    eprintln!("    invalidate --hash HEX16");
    eprintln!("    shared: --draws N --seed S --confidence L --workers N");
    eprintln!("            (--workers is capped at the server's own --workers)");
    ExitCode::FAILURE
}

/// Parsed `--flag value` pairs, as (name, value) in argv order.
type Flags = Vec<(String, String)>;

/// Parses the arguments of `serve`/`query`: `--name value` pairs for the
/// names in `valued`, bare `--name` switches for those in `switches`, and
/// positionals. Any other `--` argument, or a valued flag without its
/// value, is an error that names it.
fn parse_flags(
    rest: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(Vec<String>, Flags), String> {
    let mut positionals = Vec::new();
    let mut flags = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        if switches.contains(&name) {
            flags.push((name.to_string(), String::new()));
        } else if valued.contains(&name) {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            return Err(format!("unknown option `{arg}`"));
        }
    }
    Ok((positionals, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn cmd_serve(rest: &[String]) -> ExitCode {
    let valued = [
        "addr",
        "synthetic",
        "workers",
        "serve-workers",
        "queue-depth",
        "timeout-ms",
    ];
    let (positionals, flags) = match parse_flags(rest, &valued, &["cold"]) {
        Ok(parsed) => parsed,
        Err(problem) => return usage(&format!("serve: {problem}")),
    };
    if positionals.len() > 1 {
        return usage("serve takes at most one systems.csv");
    }
    if !positionals.is_empty() && flag(&flags, "synthetic").is_some() {
        return usage("pass either systems.csv or --synthetic N, not both");
    }
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:0");
    let mut config = top500_carbon::easyc::EasyCConfig::default();
    if let Some(w) = flag(&flags, "workers") {
        match w.parse::<usize>() {
            Ok(w) if w > 0 => config.workers = w,
            _ => return usage("--workers requires a positive integer"),
        }
    }
    let state = match positionals.first() {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match FleetState::from_csv(&text, config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let n = match flag(&flags, "synthetic") {
                Some(n) => match n.parse::<u32>() {
                    Ok(n) if n > 0 => n,
                    _ => return usage("--synthetic requires a positive integer"),
                },
                None => 500,
            };
            FleetState::from_list(
                generate_full(&SyntheticConfig {
                    seed: DEFAULT_SEED,
                    n,
                    ..Default::default()
                }),
                config,
            )
        }
    };
    let mut state = state;
    if flag(&flags, "cold").is_none() {
        state.warm();
    }
    let mut serve_config = ServeConfig::default();
    if let Some(w) = flag(&flags, "serve-workers") {
        match w.parse::<usize>() {
            Ok(w) if w > 0 => serve_config.workers = w,
            _ => return usage("--serve-workers requires a positive integer"),
        }
    }
    if let Some(d) = flag(&flags, "queue-depth") {
        match d.parse::<usize>() {
            Ok(d) if d > 0 => serve_config.queue_depth = d,
            _ => return usage("--queue-depth requires a positive integer"),
        }
    }
    if let Some(ms) = flag(&flags, "timeout-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => serve_config.request_timeout = std::time::Duration::from_millis(ms),
            _ => return usage("--timeout-ms requires a positive integer"),
        }
    }
    let warm = state.is_warm();
    let systems = state.len();
    let hash = state.source_hash();
    let server = match serve::spawn(state, addr, serve_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving {systems} systems on {} (source hash {hash:016x}, cache {})",
        server.addr(),
        if warm { "warm" } else { "cold" }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    println!("server shut down");
    ExitCode::SUCCESS
}

fn cmd_query(rest: &[String]) -> ExitCode {
    // Request fields forwarded verbatim when given, by value type.
    const INTEGERS: [&str; 3] = ["draws", "seed", "workers"];
    const NUMBERS: [&str; 4] = ["confidence", "pue", "utilization", "aci"];
    const STRINGS: [&str; 3] = ["mask", "scenario", "hash"];
    let valued = [&["addr", "out"][..], &INTEGERS, &NUMBERS, &STRINGS].concat();
    let (positionals, flags) = match parse_flags(rest, &valued, &[]) {
        Ok(parsed) => parsed,
        Err(problem) => return usage(&format!("query: {problem}")),
    };
    let Some(addr) = flag(&flags, "addr") else {
        return usage("query requires --addr HOST:PORT");
    };
    let Some(op) = positionals.first().map(String::as_str) else {
        return usage("query requires an op (status/assess/sweep/compare/invalidate/shutdown)");
    };
    let mut request = serve::json::Obj::new().field_str("op", op);
    for key in INTEGERS {
        if let Some(v) = flag(&flags, key) {
            match v.parse::<usize>() {
                Ok(n) => request = request.field_int(key, n),
                Err(_) => return usage(&format!("--{key} requires an integer")),
            }
        }
    }
    for key in NUMBERS {
        if let Some(v) = flag(&flags, key) {
            match v.parse::<f64>() {
                Ok(x) => request = request.field_num(key, x),
                Err(_) => return usage(&format!("--{key} requires a number")),
            }
        }
    }
    for key in STRINGS {
        if let Some(v) = flag(&flags, key) {
            request = request.field_str(key, v);
        }
    }
    match op {
        "status" | "assess" | "invalidate" | "shutdown" => {}
        "sweep" | "compare" => {
            let Some(path) = positionals.get(1) else {
                return usage(&format!("{op} requires a scenarios CSV path"));
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            request = request.field_str("matrix_csv", &text);
            if op == "compare" {
                let Some((a, b)) = positionals.get(2).and_then(|pair| pair.split_once(',')) else {
                    return usage("compare requires two scenario names as A,B");
                };
                request = request.field_str("baseline", a).field_str("variant", b);
            }
        }
        other => return usage(&format!("unknown query op `{other}`")),
    }
    let mut client = match serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let raw = match client.request_raw(&request.finish()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match serve::json::parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: unparseable response ({e}): {raw}");
            return ExitCode::FAILURE;
        }
    };
    let ok = parsed.get("ok").and_then(serve::json::Value::as_bool) == Some(true);
    if let Some(out) = flag(&flags, "out") {
        // `sweep --out` spills the per-(scenario, system) CSV — the same
        // bytes the CLI `sweep --out` writes, which CI diffs.
        let Some(csv) = parsed.get("csv").and_then(serve::json::Value::as_str) else {
            eprintln!("error: response carries no csv field: {raw}");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(out, csv) {
            eprintln!("error: could not write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote per-system scenario results to {out}");
        return ExitCode::SUCCESS;
    }
    println!("{raw}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a scenario matrix over a system list (a CSV, or a synthetic
/// fleet) in one interleaved assessment session. In-memory mode can write
/// the full columnar results; `--stream` folds chunks incrementally so
/// memory stays bounded by `--chunk-rows` regardless of fleet size.
fn cmd_sweep(scenarios_path: &Path, rest: &[String]) -> ExitCode {
    let text = match std::fs::read_to_string(scenarios_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", scenarios_path.display());
            return ExitCode::FAILURE;
        }
    };
    let matrix = match ScenarioMatrix::from_csv(&text) {
        Ok(m) if !m.is_empty() => m,
        Ok(_) => {
            eprintln!("error: scenario matrix is empty");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out_path: Option<&str> = None;
    let mut systems_path: Option<&str> = None;
    let mut workers: usize = top500_carbon::parallel::default_workers();
    let mut stream = false;
    let mut chunk_rows = DEFAULT_CHUNK_ROWS;
    let mut synthetic_n: Option<u32> = None;
    let mut plan = DrawPlan::new(0);
    let mut draws_given = false;
    let mut compare: Option<(String, String)> = None;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            match iter.next() {
                Some(p) => out_path = Some(p),
                None => return usage("--out requires a path"),
            }
        } else if arg == "--workers" {
            match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => workers = n,
                _ => return usage("--workers requires a positive integer"),
            }
        } else if arg == "--stream" {
            stream = true;
        } else if arg == "--chunk-rows" {
            match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => chunk_rows = n,
                _ => return usage("--chunk-rows requires a positive integer"),
            }
        } else if arg == "--synthetic" {
            match iter.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => synthetic_n = Some(n),
                _ => return usage("--synthetic requires a positive integer"),
            }
        } else if arg == "--draws" {
            match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => {
                    plan.draws = n;
                    draws_given = true;
                }
                _ => return usage("--draws requires an integer"),
            }
        } else if arg == "--confidence" {
            match iter.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(level) if level > 0.0 && level < 1.0 => plan.level = level,
                _ => return usage("--confidence requires a level strictly between 0 and 1"),
            }
        } else if arg == "--seed" {
            match iter.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(seed) => plan.seed = seed,
                _ => return usage("--seed requires an unsigned integer"),
            }
        } else if arg == "--compare" {
            match iter.next().and_then(|pair| {
                let (a, b) = pair.split_once(',')?;
                (!a.is_empty() && !b.is_empty()).then(|| (a.to_string(), b.to_string()))
            }) {
                Some(pair) => compare = Some(pair),
                None => return usage("--compare requires two scenario names as A,B"),
            }
        } else if arg.starts_with("--") {
            return usage(&format!("sweep: unknown option `{arg}`"));
        } else if let Some(first) = systems_path {
            return usage(&format!(
                "sweep takes one systems.csv, got `{first}` and `{arg}`"
            ));
        } else {
            systems_path = Some(arg);
        }
    }
    if systems_path.is_some() && synthetic_n.is_some() {
        return usage("pass either systems.csv or --synthetic N, not both");
    }
    if let Some((a, b)) = &compare {
        for name in [a, b] {
            if !matrix.scenarios().iter().any(|s| &s.name == name) {
                eprintln!("error: --compare scenario `{name}` is not in the matrix");
                return ExitCode::FAILURE;
            }
        }
        // A comparison needs paired draws; pick a sensible default when
        // the user asked for the delta but said nothing about draws — an
        // explicit `--draws 0` contradicts `--compare` and is rejected.
        if plan.draws == 0 {
            if draws_given {
                return usage("--compare needs --draws > 0");
            }
            plan.draws = 1000;
        }
    }
    // Refused before anything is allocated: each scenario holds `draws`
    // slots in each draw buffer.
    let max_draws = MAX_DRAWS / matrix.len();
    if plan.draws > max_draws {
        return usage(&format!(
            "--draws must be at most {max_draws} over {} scenario(s) \
             (easyc::MAX_DRAWS = {MAX_DRAWS} draws per run)",
            matrix.len()
        ));
    }
    if stream {
        let synthetic = SyntheticConfig {
            seed: DEFAULT_SEED,
            n: synthetic_n.unwrap_or(500),
            ..Default::default()
        };
        // The next chunk parses on a background thread while the engine
        // assesses the current one; at most two chunks are ever resident.
        return match systems_path {
            Some(p) => {
                let file = match File::open(p) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("error: cannot open {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                run_stream_sweep(
                    Prefetched::new(stream_csv(BufReader::new(file), chunk_rows)),
                    &matrix,
                    workers,
                    plan,
                    compare.as_ref(),
                    out_path,
                )
            }
            None => run_stream_sweep(
                Prefetched::new(SyntheticChunks::new(synthetic, chunk_rows)),
                &matrix,
                workers,
                plan,
                compare.as_ref(),
                out_path,
            ),
        };
    }
    let list: Top500List = match systems_path {
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match import_csv(&text) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => generate_full(&SyntheticConfig {
            seed: DEFAULT_SEED,
            n: synthetic_n.unwrap_or(500),
            ..Default::default()
        }),
    };
    println!(
        "sweeping {} scenarios over {} systems ({} workers, one session)\n",
        matrix.len(),
        list.len(),
        workers
    );
    let output = Assessment::of(&list)
        .scenarios(&matrix)
        .workers(workers)
        .draw_plan(plan)
        .run();
    if let Err(code) = print_sweep(&output, compare.as_ref()) {
        return code;
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, frame::csv::write(&output.to_frame())) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote per-system scenario results to {path}");
    }
    ExitCode::SUCCESS
}

/// Drives the incremental session over any chunked source and renders the
/// folded sweep; with `out_path`, per-(scenario, system) rows spill to
/// disk chunk-by-chunk and assemble into the same columnar CSV the
/// in-memory sweep writes.
fn run_stream_sweep<S: FleetChunks>(
    source: S,
    matrix: &ScenarioMatrix,
    workers: usize,
    plan: DrawPlan,
    compare: Option<&(String, String)>,
    out_path: Option<&str>,
) -> ExitCode {
    println!(
        "streaming sweep: {} scenarios, {} workers, folded per chunk (prefetched ingest)\n",
        matrix.len(),
        workers
    );
    let mut writer = match out_path {
        Some(path) => match SweepCsvWriter::create(path, matrix.len()) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("error: could not create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let session = Assessment::stream(source)
        .scenarios(matrix)
        .workers(workers)
        .draw_plan(plan);
    let session = match writer.as_mut() {
        Some(writer) => session.rows(|block| writer.append(&block)),
        None => session,
    };
    let output = match session.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(writer) = writer {
        match writer.finish() {
            Ok(path) => println!("wrote per-system scenario results to {}\n", path.display()),
            Err(e) => {
                eprintln!("error: could not write streamed results: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(code) = print_sweep(&output, compare) {
        return code;
    }
    println!(
        "{} systems in {} chunks; peak resident chunk: {} rows",
        output.systems(),
        output.chunks(),
        output.peak_chunk_rows()
    );
    ExitCode::SUCCESS
}

/// Renders a sweep's output, whatever its source: the summary table, the
/// per-scenario fleet intervals (operational + embodied) when the plan ran
/// draws, and the `--compare` panel through the shared
/// `analysis::fleet::render_deltas` table — the CRN construction pairs both
/// scenarios' draws, so its bands are tighter than the difference of the
/// two per-scenario intervals printed above it.
fn print_sweep(
    output: &AssessmentOutput,
    compare: Option<&(String, String)>,
) -> Result<(), ExitCode> {
    println!("{}", render_sweep(&summarize(output)));
    let plan = output.draw_plan();
    if plan.draws > 0 {
        println!("fleet intervals (MT CO2e):");
        let fmt = |iv: &Option<Interval>| match iv {
            Some(iv) => format!("{:.0} [{:.0}, {:.0}]", iv.point, iv.lo, iv.hi),
            None => "—".to_string(),
        };
        for slice in output.slices() {
            println!(
                "  {:>16}: op {}  emb {}",
                slice.scenario.name,
                fmt(&slice.interval),
                fmt(&slice.embodied_interval)
            );
        }
        println!();
    }
    if let Some((baseline, variant)) = compare {
        let Some(delta) = output.compare(baseline, variant) else {
            eprintln!("error: --compare found no paired draws for {baseline},{variant}");
            return Err(ExitCode::FAILURE);
        };
        println!(
            "paired delta, MT CO2e ({:.0}% CI, common random numbers):",
            plan.level * 100.0
        );
        println!("{}", render_deltas(std::slice::from_ref(&delta)));
    }
    Ok(())
}

fn cmd_study(artifacts: Option<&Path>) -> ExitCode {
    let report = run_study(DEFAULT_SEED);
    println!("{}", report.summary());
    if let Some(dir) = artifacts {
        if let Err(e) = report.write_artifacts(dir) {
            eprintln!("error: could not write artifacts to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        println!("wrote figure artifacts to {}", dir.display());
    }
    ExitCode::SUCCESS
}

fn cmd_assess(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let list = match import_csv(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let output = Assessment::of(&list).run();
    let slice = &output.slices()[0];
    println!(
        "{:<6} {:<28} {:>14} {:>14}  notes",
        "rank", "name", "op (MT/yr)", "emb (MT)"
    );
    for (sys, fp) in list.systems().iter().zip(&slice.footprints) {
        let note = match (&fp.operational, &fp.embodied) {
            (Ok(_), Ok(_)) => String::new(),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => e.to_string(),
            (Err(a), Err(_)) => a.to_string(),
        };
        println!(
            "{:<6} {:<28} {:>14} {:>14}  {}",
            sys.rank,
            sys.name.as_deref().unwrap_or(""),
            fp.operational_mt()
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "—".into()),
            fp.embodied_mt()
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "—".into()),
            note
        );
    }
    // Fleet totals and coverage are the engine's own fold of these
    // footprints, so the CLI cannot drift from the sessions.
    println!(
        "\n{} systems; coverage {} operational / {} embodied",
        slice.coverage.total, slice.coverage.operational, slice.coverage.embodied
    );
    println!(
        "totals: {:.0} MT CO2e/yr operational, {:.0} MT CO2e embodied",
        slice.operational_total_mt, slice.embodied_total_mt
    );
    ExitCode::SUCCESS
}

fn cmd_template() -> ExitCode {
    println!("# Fill one row per system; leave unknown fields empty.");
    println!("# Required: rank, rmax_tflops. Everything else improves fidelity.");
    println!("{}", COLUMNS.join(","));
    // A worked example row to copy from: a masked synthetic system.
    let demo = generate_full(&SyntheticConfig {
        n: 1,
        seed: DEFAULT_SEED,
        ..Default::default()
    });
    print!(
        "{}",
        export_csv(&demo)
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!();
    ExitCode::SUCCESS
}

fn cmd_figures(dir: &Path) -> ExitCode {
    let report = run_study(DEFAULT_SEED);
    match report.write_artifacts(dir) {
        Ok(()) => {
            println!("wrote all figure/table artifacts to {}", dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
