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
//!                      (runs easyc::COMPARE_DRAWS draws if --draws was not
//!                      given)
//!   --synthetic N      use an N-system synthetic fleet instead of a CSV
//!   --stream           pipelined chunked ingestion: the next chunk is parsed
//!                      on a background thread while the engine assesses the
//!                      current one; memory bounded by --chunk-rows (at most
//!                      two chunks resident), not fleet size
//!   --chunk-rows N     rows per streamed chunk (default 8192)
//!   (any other --option, a repeated one, or a second systems path, is a
//!   usage error)
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
    Assessment, AssessmentOutput, DrawPlan, FleetState, Interval, PlanError, PlanField, PlanSpec,
    ScenarioMatrix, COMPARE_DRAWS, MAX_DRAWS,
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
    let path = |missing: &str| args.get(1).map(Path::new).ok_or_else(|| usage(missing));
    let run = match args.first().map(String::as_str) {
        Some("study") => cmd_study(args.get(1).map(Path::new)),
        Some("assess") => path("assess requires a CSV path").and_then(cmd_assess),
        Some("template") => cmd_template(),
        Some("figures") => path("figures requires an output directory").and_then(cmd_figures),
        Some("sweep") => {
            path("sweep requires a scenarios CSV path").and_then(|p| cmd_sweep(p, &args[2..]))
        }
        Some("sweep-template") => {
            print!("{}", ScenarioMatrix::csv_template());
            Ok(())
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some(other) => Err(usage(&format!("unknown command `{other}`"))),
        None => Err(usage("no command given")),
    };
    run.err().unwrap_or(ExitCode::SUCCESS)
}

/// A command's outcome: `Err` carries the exit status, its message
/// already printed.
type Run = Result<(), ExitCode>;

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
    eprintln!("                        (defaults --draws to {COMPARE_DRAWS} when not given)");
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

/// Prints `error: {problem}`: the command fails with exit status 1.
fn fail(problem: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {problem}");
    ExitCode::FAILURE
}

/// The text of the file at `path`, or the failure naming it.
fn read(path: impl AsRef<Path>) -> Result<String, ExitCode> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {}: {e}", path.display())))
}

/// Parsed `--flag value` pairs, as (name, value) in argv order.
type Flags = Vec<(String, String)>;

/// Parses the arguments of `command` (`sweep`, `serve` or `query`):
/// `--name value` pairs for the names in `valued`, bare `--name` switches
/// for those in `switches`, and positionals. Any other `--` argument, a
/// repeated one, or a valued flag without its value, is a usage error
/// that names it.
fn parse_flags(
    command: &str,
    rest: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(Vec<String>, Flags), ExitCode> {
    let problem = |p: String| usage(&format!("{command}: {p}"));
    let mut positionals = Vec::new();
    let mut flags: Flags = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        if flags.iter().any(|(seen, _)| seen == name) {
            return Err(problem(format!("`{arg}` is given twice")));
        }
        if switches.contains(&name) {
            flags.push((name.to_string(), String::new()));
        } else if valued.contains(&name) {
            let value = iter
                .next()
                .ok_or_else(|| problem(format!("{arg} needs a value")))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            return Err(problem(format!("unknown option `{arg}`")));
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

/// `--name`'s value as a positive integer, if given; a usage error names
/// the flag when it is not one.
fn positive<T>(flags: &[(String, String)], name: &str) -> Result<Option<T>, ExitCode>
where
    T: std::str::FromStr + Default + PartialOrd,
{
    match flag(flags, name).map(str::parse::<T>) {
        None => Ok(None),
        Some(Ok(n)) if n > T::default() => Ok(Some(n)),
        Some(_) => Err(usage(&format!("--{name} requires a positive integer"))),
    }
}

fn cmd_serve(rest: &[String]) -> Run {
    let valued = [
        "addr",
        "synthetic",
        "workers",
        "serve-workers",
        "queue-depth",
        "timeout-ms",
    ];
    let (positionals, flags) = parse_flags("serve", rest, &valued, &["cold"])?;
    if positionals.len() > 1 {
        return Err(usage("serve takes at most one systems.csv"));
    }
    if !positionals.is_empty() && flag(&flags, "synthetic").is_some() {
        return Err(usage("pass either systems.csv or --synthetic N, not both"));
    }
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:0");
    let mut config = top500_carbon::easyc::EasyCConfig::default();
    config.workers = positive(&flags, "workers")?.unwrap_or(config.workers);
    let defaults = ServeConfig::default();
    let serve_config = ServeConfig {
        workers: positive(&flags, "serve-workers")?.unwrap_or(defaults.workers),
        queue_depth: positive(&flags, "queue-depth")?.unwrap_or(defaults.queue_depth),
        request_timeout: positive(&flags, "timeout-ms")?
            .map_or(defaults.request_timeout, std::time::Duration::from_millis),
        ..defaults
    };
    let mut state = match positionals.first() {
        Some(path) => FleetState::from_csv(&read(path)?, config).map_err(fail)?,
        None => FleetState::from_list(
            generate_full(&SyntheticConfig {
                seed: DEFAULT_SEED,
                n: positive(&flags, "synthetic")?.unwrap_or(500),
                ..Default::default()
            }),
            config,
        ),
    };
    if flag(&flags, "cold").is_none() {
        state.warm();
    }
    let warm = state.is_warm();
    let systems = state.len();
    let hash = state.source_hash();
    let server = serve::spawn(state, addr, serve_config)
        .map_err(|e| fail(format!("cannot bind {addr}: {e}")))?;
    println!(
        "serving {systems} systems on {} (source hash {hash:016x}, cache {})",
        server.addr(),
        if warm { "warm" } else { "cold" }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    println!("server shut down");
    Ok(())
}

fn cmd_query(rest: &[String]) -> Run {
    // Request fields forwarded verbatim when given, by value type.
    const INTEGERS: [&str; 3] = ["draws", "seed", "workers"];
    const NUMBERS: [&str; 4] = ["confidence", "pue", "utilization", "aci"];
    const STRINGS: [&str; 3] = ["mask", "scenario", "hash"];
    let valued = [&["addr", "out"][..], &INTEGERS, &NUMBERS, &STRINGS].concat();
    let (positionals, flags) = parse_flags("query", rest, &valued, &[])?;
    let addr = flag(&flags, "addr").ok_or_else(|| usage("query requires --addr HOST:PORT"))?;
    let op = positionals.first().ok_or_else(|| {
        usage("query requires an op (status/assess/sweep/compare/invalidate/shutdown)")
    })?;
    let mut request = serve::json::Obj::new().field_str("op", op);
    for key in INTEGERS {
        if let Some(v) = flag(&flags, key) {
            let n = v
                .parse()
                .map_err(|_| usage(&format!("--{key} requires an integer")))?;
            request = request.field_int(key, n);
        }
    }
    for key in NUMBERS {
        if let Some(v) = flag(&flags, key) {
            let x = v
                .parse()
                .map_err(|_| usage(&format!("--{key} requires a number")))?;
            request = request.field_num(key, x);
        }
    }
    for key in STRINGS {
        if let Some(v) = flag(&flags, key) {
            request = request.field_str(key, v);
        }
    }
    match op.as_str() {
        "status" | "assess" | "invalidate" | "shutdown" => {}
        "sweep" | "compare" => {
            let path = positionals
                .get(1)
                .ok_or_else(|| usage(&format!("{op} requires a scenarios CSV path")))?;
            request = request.field_str("matrix_csv", &read(path)?);
            if op == "compare" {
                let (a, b) = positionals
                    .get(2)
                    .and_then(|pair| pair.split_once(','))
                    .ok_or_else(|| usage("compare requires two scenario names as A,B"))?;
                request = request.field_str("baseline", a).field_str("variant", b);
            }
        }
        other => return Err(usage(&format!("unknown query op `{other}`"))),
    }
    let mut client =
        serve::Client::connect(addr).map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
    let raw = client
        .request_raw(&request.finish())
        .map_err(|e| fail(format!("request failed: {e}")))?;
    let parsed =
        serve::json::parse(&raw).map_err(|e| fail(format!("unparseable response ({e}): {raw}")))?;
    if let Some(out) = flag(&flags, "out") {
        // `sweep --out` spills the per-(scenario, system) CSV — the same
        // bytes the CLI `sweep --out` writes, which CI diffs.
        let csv = parsed
            .get("csv")
            .and_then(serve::json::Value::as_str)
            .ok_or_else(|| fail(format!("response carries no csv field: {raw}")))?;
        std::fs::write(out, csv).map_err(|e| fail(format!("could not write {out}: {e}")))?;
        println!("wrote per-system scenario results to {out}");
        return Ok(());
    }
    println!("{raw}");
    match parsed.get("ok").and_then(serve::json::Value::as_bool) {
        Some(true) => Ok(()),
        _ => Err(ExitCode::FAILURE),
    }
}

/// Runs a scenario matrix over a system list (a CSV, or a synthetic
/// fleet) in one interleaved assessment session. In-memory mode can write
/// the full columnar results; `--stream` folds chunks incrementally so
/// memory stays bounded by `--chunk-rows` regardless of fleet size.
fn cmd_sweep(scenarios_path: &Path, rest: &[String]) -> Run {
    let matrix = ScenarioMatrix::from_csv(&read(scenarios_path)?).map_err(fail)?;
    let valued = [
        "out",
        "chunk-rows",
        "synthetic",
        "draws",
        "seed",
        "confidence",
        "workers",
        "compare",
    ];
    let (positionals, flags) = parse_flags("sweep", rest, &valued, &["stream"])?;
    if let [first, second, ..] = positionals.as_slice() {
        return Err(usage(&format!(
            "sweep takes one systems.csv, got `{first}` and `{second}`"
        )));
    }
    let mut spec = PlanSpec::default();
    for field in PlanField::ALL {
        if let Some(text) = flag(&flags, field.name()) {
            spec.set(field, text).map_err(plan_usage)?;
        }
    }
    let chunk_rows = positive(&flags, "chunk-rows")?.unwrap_or(DEFAULT_CHUNK_ROWS);
    let synthetic_n = positive(&flags, "synthetic")?;
    let systems_path = positionals.first();
    if systems_path.is_some() && synthetic_n.is_some() {
        return Err(usage("pass either systems.csv or --synthetic N, not both"));
    }
    // Refused before anything is allocated for the draws.
    let plan = spec.validate(&matrix).map_err(plan_usage)?;
    let workers = spec
        .workers
        .unwrap_or_else(top500_carbon::parallel::default_workers);
    let compare = spec.compare.as_ref();
    let out_path = flag(&flags, "out");
    let synthetic = SyntheticConfig {
        seed: DEFAULT_SEED,
        n: synthetic_n.unwrap_or(500),
        ..Default::default()
    };
    if flag(&flags, "stream").is_some() {
        // The next chunk parses on a background thread while the engine
        // assesses the current one; at most two chunks are ever resident.
        return match systems_path {
            Some(p) => {
                let file = File::open(p).map_err(|e| fail(format!("cannot open {p}: {e}")))?;
                run_stream_sweep(
                    Prefetched::new(stream_csv(BufReader::new(file), chunk_rows)),
                    &matrix,
                    workers,
                    plan,
                    compare,
                    out_path,
                )
            }
            None => run_stream_sweep(
                Prefetched::new(SyntheticChunks::new(synthetic, chunk_rows)),
                &matrix,
                workers,
                plan,
                compare,
                out_path,
            ),
        };
    }
    let list: Top500List = match systems_path {
        Some(p) => import_csv(&read(p)?).map_err(fail)?,
        None => generate_full(&synthetic),
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
    print_sweep(&output, compare)?;
    if let Some(path) = out_path {
        std::fs::write(path, frame::csv::write(&output.to_frame()))
            .map_err(|e| fail(format!("could not write {path}: {e}")))?;
        println!("wrote per-system scenario results to {path}");
    }
    Ok(())
}

/// A refused sweep plan: a usage error naming the flag at fault.
fn plan_usage(error: PlanError) -> ExitCode {
    usage(&error.message(|field| format!("--{}", field.name())))
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
) -> Run {
    println!(
        "streaming sweep: {} scenarios, {} workers, folded per chunk (prefetched ingest)\n",
        matrix.len(),
        workers
    );
    let mut writer = out_path
        .map(|path| {
            SweepCsvWriter::create(path, matrix.len())
                .map_err(|e| fail(format!("could not create {path}: {e}")))
        })
        .transpose()?;
    let session = Assessment::stream(source)
        .scenarios(matrix)
        .workers(workers)
        .draw_plan(plan);
    let session = match writer.as_mut() {
        Some(writer) => session.rows(|block| writer.append(&block)),
        None => session,
    };
    let output = session.run().map_err(fail)?;
    if let Some(writer) = writer {
        let path = writer
            .finish()
            .map_err(|e| fail(format!("could not write streamed results: {e}")))?;
        println!("wrote per-system scenario results to {}\n", path.display());
    }
    print_sweep(&output, compare)?;
    println!(
        "{} systems in {} chunks; peak resident chunk: {} rows",
        output.systems(),
        output.chunks(),
        output.peak_chunk_rows()
    );
    Ok(())
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
        let delta = output.compare(baseline, variant).ok_or_else(|| {
            fail(format!(
                "--compare found no paired draws for {baseline},{variant}"
            ))
        })?;
        println!(
            "paired delta, MT CO2e ({:.0}% CI, common random numbers):",
            plan.level * 100.0
        );
        println!("{}", render_deltas(std::slice::from_ref(&delta)));
    }
    Ok(())
}

fn cmd_study(artifacts: Option<&Path>) -> Run {
    let report = run_study(DEFAULT_SEED);
    println!("{}", report.summary());
    if let Some(dir) = artifacts {
        report.write_artifacts(dir).map_err(|e| {
            fail(format!(
                "could not write artifacts to {}: {e}",
                dir.display()
            ))
        })?;
        println!("wrote figure artifacts to {}", dir.display());
    }
    Ok(())
}

fn cmd_assess(path: &Path) -> Run {
    let list = import_csv(&read(path)?).map_err(fail)?;
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
    Ok(())
}

fn cmd_template() -> Run {
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
    Ok(())
}

fn cmd_figures(dir: &Path) -> Run {
    run_study(DEFAULT_SEED).write_artifacts(dir).map_err(fail)?;
    println!("wrote all figure/table artifacts to {}", dir.display());
    Ok(())
}
