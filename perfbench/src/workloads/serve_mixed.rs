//! `serve-mixed`: the resident path. `serve::spawn` over a warm, seeded
//! `FleetState` with the default `ServeConfig`, driven by a closed loop of
//! `nproc` client connections — callers that each wait for their reply.
//! Each client sends a seeded mix drawn from a small fixed set of distinct
//! requests: ~80% default `assess` (cache hit), ~10% masked or override
//! `assess` (cache miss), ~8% `assess` with draws, ~2% `sweep` of the
//! five-scenario matrix (whose reply carries the full per-system CSV).
//!
//! Reference: every distinct request answered once in set-up by a second
//! server over a *cold* (never warmed) copy of the state. Live replies must
//! equal those bytes exactly, apart from the advertised `warm` flag.

use super::{
    config, fold_totals, measure, phases, probe_state, replay_fleet, template_matrix, timed, Opts,
    Outcome, Phase, SetUp, PROBE_OP, SETUP_OP,
};
use crate::report::{PER_LAYER, SERVE_ERROR_CODES};
use crate::stats::{self, Rng};
use crate::sys;
use crate::trace::{span, Tracer};
use easyc::{DataScenario, EasyCConfig, FleetState, MetricMask, OverrideSet, ScenarioMatrix};
use serve::{spawn, Client, ServeConfig, Server};
use std::collections::BTreeMap;
use top500::synthetic::generate_full;
use top500::Top500List;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Draws,
    Sweep,
}

const CLASSES: [Class; 4] = [Class::Hit, Class::Miss, Class::Draws, Class::Sweep];

impl Class {
    /// Span of the client round trip, then the `serve.rtt_ms`,
    /// `serve.compute_ms` and `serve.overhead_ms` layer names.
    fn names(self) -> [&'static str; 4] {
        match self {
            Class::Hit => [
                "serve.rtt.hit",
                "serve.rtt_ms.hit",
                "serve.compute_ms.hit",
                "serve.overhead_ms.hit",
            ],
            Class::Miss => [
                "serve.rtt.miss",
                "serve.rtt_ms.miss",
                "serve.compute_ms.miss",
                "serve.overhead_ms.miss",
            ],
            Class::Draws => [
                "serve.rtt.draws",
                "serve.rtt_ms.draws",
                "serve.compute_ms.draws",
                "serve.overhead_ms.draws",
            ],
            Class::Sweep => [
                "serve.rtt.sweep",
                "serve.rtt_ms.sweep",
                "serve.compute_ms.sweep",
                "serve.overhead_ms.sweep",
            ],
        }
    }
}

/// One distinct request of the mix and the engine call that computes it.
struct Request {
    class: Class,
    line: String,
    /// The in-process equivalent: a scenario (miss), draws (draws), or the
    /// matrix (sweep); the hit is the default query.
    scenario: Option<DataScenario>,
    draws: usize,
    seed: u64,
    footprints: f64,
    draw_terms: f64,
}

/// The miss variants: two masks and two overrides.
fn miss_scenarios() -> Vec<(String, DataScenario)> {
    let masked =
        |spec: &str| DataScenario::masked("default", MetricMask::parse(spec).expect("valid mask"));
    let overridden =
        |o: OverrideSet| DataScenario::masked("default", MetricMask::ALL).with_overrides(o);
    vec![
        (
            r#""mask":"all -power -energy""#.into(),
            masked("all -power -energy"),
        ),
        (
            r#""mask":"all -nodes -gpus -cpus""#.into(),
            masked("all -nodes -gpus -cpus"),
        ),
        (
            r#""pue":1.25"#.into(),
            overridden(OverrideSet {
                pue: Some(1.25),
                ..OverrideSet::NONE
            }),
        ),
        (
            r#""aci":50"#.into(),
            overridden(OverrideSet {
                aci_g_per_kwh: Some(50.0),
                ..OverrideSet::NONE
            }),
        ),
    ]
}

fn request_set(opts: &Opts, matrix: &ScenarioMatrix) -> Vec<Request> {
    let n = f64::from(opts.scale.resident_systems);
    let draws = opts.scale.resident_draws;
    let mut set = vec![Request {
        class: Class::Hit,
        line: r#"{"op":"assess"}"#.into(),
        scenario: None,
        draws: 0,
        seed: 0,
        footprints: n,
        draw_terms: 0.0,
    }];
    for (fields, scenario) in miss_scenarios() {
        set.push(Request {
            class: Class::Miss,
            line: format!(r#"{{"op":"assess",{fields}}}"#),
            scenario: Some(scenario),
            draws: 0,
            seed: 0,
            footprints: n,
            draw_terms: 0.0,
        });
    }
    for k in 0..4 {
        let seed = opts.draw_seed() + k;
        set.push(Request {
            class: Class::Draws,
            line: format!(r#"{{"op":"assess","draws":{draws},"seed":{seed}}}"#),
            scenario: None,
            draws,
            seed,
            footprints: n,
            draw_terms: n * draws as f64,
        });
    }
    let mut line = String::from(r#"{"op":"sweep","matrix_csv":"#);
    serve::json::write_escaped(&mut line, &ScenarioMatrix::csv_template());
    line.push('}');
    set.push(Request {
        class: Class::Sweep,
        line,
        scenario: None,
        draws: 0,
        seed: 0,
        footprints: n * matrix.len() as f64,
        draw_terms: 0.0,
    });
    set
}

/// Picks the next request index: 80% hit, 10% miss, 8% draws, 2% sweep,
/// uniform within a class.
fn pick(rng: &mut Rng, set: &[Request]) -> usize {
    let x = rng.next_f64();
    let class = match x {
        x if x < 0.80 => Class::Hit,
        x if x < 0.90 => Class::Miss,
        x if x < 0.98 => Class::Draws,
        _ => Class::Sweep,
    };
    let members: Vec<usize> = (0..set.len()).filter(|&i| set[i].class == class).collect();
    members[rng.below(members.len())]
}

fn warm_flag(reply: &str) -> String {
    reply.replacen(r#""warm":false"#, r#""warm":true"#, 1)
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    phase: Phase,
    rtt_s: [Vec<f64>; 4],
    bytes: f64,
    errors: BTreeMap<&'static str, f64>,
}

/// Replies longer than this are not parsed. `sweep` replies (about 1.5 MB
/// at 2,000 systems) take `serve::json::parse` tens of seconds — its cost
/// grows faster than linearly with the reply.
const PARSE_LIMIT: usize = 256 * 1024;

/// The error code of a failed reply: the server's `code`, or `mismatch`.
fn error_code(reply: &str) -> &'static str {
    if reply.len() > PARSE_LIMIT {
        return "mismatch";
    }
    let code = serve::json::parse(reply)
        .ok()
        .and_then(|v| v.get("code").and_then(|c| c.as_str().map(str::to_string)));
    match code {
        Some(code) => SERVE_ERROR_CODES
            .iter()
            .find(|&&c| c == code)
            .copied()
            .unwrap_or("mismatch"),
        None => "mismatch",
    }
}

/// Passes over the distinct requests per client during the warm-up.
const WARMUP_ROUNDS: u64 = 30;

/// One closed-loop client on one connection: send, wait for the reply,
/// check it, repeat until the deadline. It reconnects only after a
/// transport failure.
fn client(
    server: &Server,
    set: &[Request],
    expected: &[String],
    seed: u64,
    deadline: std::time::Instant,
    tracer: Option<&Tracer>,
    op_base: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed);
    let mut conn = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(_) => {
            log.phase.op(0.0, false, 0.0, 0.0);
            *log.errors.entry("transport").or_default() += 1.0;
            return log;
        }
    };
    let mut op = op_base;
    while sys::now() < deadline {
        let i = pick(&mut rng, set);
        let req = &set[i];
        let (reply, secs) = timed(|| {
            span(tracer, req.class.names()[0], None, op, |_| {
                conn.request_raw(&req.line)
            })
        });
        let ok = match &reply {
            Ok(line) => {
                log.bytes += line.len() as f64;
                let ok = *line == expected[i];
                if !ok {
                    *log.errors.entry(error_code(line)).or_default() += 1.0;
                }
                ok
            }
            Err(_) => {
                *log.errors.entry("transport").or_default() += 1.0;
                false
            }
        };
        log.phase.op(secs, ok, req.footprints, req.draw_terms);
        log.rtt_s[req.class as usize].push(secs);
        op += 1;
        if reply.is_err() {
            match Client::connect(server.addr()) {
                Ok(c) => conn = c,
                Err(_) => break,
            }
        }
    }
    log
}

/// A closed-loop phase: `nproc` clients for `seconds`. Client `c` draws its
/// requests from the same seed in every phase, so the untraced and traced
/// halves of a trace run send the same sequences.
fn closed_loop(
    server: &Server,
    set: &[Request],
    expected: &[String],
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
    phase_no: u64,
) -> ClientLog {
    let clients = sys::nproc();
    let mut merged = ClientLog::default();
    // One step runs every client to the deadline.
    let phase = measure(0.0, 1, |p: &mut Phase| {
        let deadline = sys::now() + std::time::Duration::from_secs_f64(seconds);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients as u64)
                .map(|c| {
                    let seed = super::derive(seed, 0xC11E + c);
                    let op_base = (phase_no * 64 + c) << 32;
                    s.spawn(move || client(server, set, expected, seed, deadline, tracer, op_base))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for log in logs {
            p.ops.extend(&log.phase.ops);
            p.attempted += log.phase.attempted;
            p.failed += log.phase.failed;
            p.draw_terms += log.phase.draw_terms;
            for (mine, theirs) in merged.rtt_s.iter_mut().zip(log.rtt_s) {
                mine.extend(theirs);
            }
            merged.bytes += log.bytes;
            for (code, n) in log.errors {
                *merged.errors.entry(code).or_default() += n;
            }
        }
        if p.attempted == 0 {
            // Guarantees the loop in `measure` ends even if no client ran.
            p.op(0.0, false, 0.0, 0.0);
        }
    });
    merged.phase = phase;
    merged
}

/// Replays each class's request in-process on an identical warm state and
/// returns the median compute time per class, seconds.
fn replay_compute(
    state: &FleetState,
    set: &[Request],
    matrix: &ScenarioMatrix,
    reps: usize,
) -> [f64; 4] {
    let mut out = [0.0; 4];
    for class in CLASSES {
        let members: Vec<&Request> = set.iter().filter(|r| r.class == class).collect();
        let mut samples = Vec::new();
        for rep in 0..reps {
            let req = members[rep % members.len()];
            let ((), secs) = timed(|| {
                let mut query = state.query().uncertainty(req.draws).seed(req.seed);
                if let Some(s) = &req.scenario {
                    query = query.scenario(s.clone());
                }
                if class == Class::Sweep {
                    query = query.scenarios(matrix);
                }
                let output = query.run();
                for slice in output.slices() {
                    std::hint::black_box(fold_totals(&slice.footprints));
                }
                if class == Class::Sweep {
                    std::hint::black_box(frame::csv::write(&output.to_frame()));
                }
            });
            samples.push(secs);
        }
        out[class as usize] = stats::median(&samples);
    }
    out
}

/// Client parse time of one reply per class, measured after the phase on
/// the reference replies: the median of `reps` parses cycling over the
/// class's distinct replies. `None` for a class whose replies exceed
/// [`PARSE_LIMIT`].
fn parse_seconds(
    tracer: &Tracer,
    set: &[Request],
    expected: &[String],
    reps: usize,
) -> [Option<f64>; 4] {
    let mut out = [None; 4];
    for class in CLASSES {
        let replies: Vec<&String> = set
            .iter()
            .zip(expected)
            .filter(|(r, e)| r.class == class && e.len() <= PARSE_LIMIT)
            .map(|(_, e)| e)
            .collect();
        if replies.is_empty() {
            continue;
        }
        let samples: Vec<f64> = (0..reps)
            .map(|rep| {
                let reply = replies[rep % replies.len()];
                let (_, secs) = timed(|| {
                    span(Some(tracer), "serve.json.parse", None, PROBE_OP, |_| {
                        std::hint::black_box(serve::json::parse(reply).is_ok())
                    })
                });
                secs
            })
            .collect();
        out[class as usize] = Some(stats::median(&samples));
    }
    out
}

/// Starts a server over `list`: warm with the default configuration, or
/// cold with one worker per query (the reference).
fn start(list: Top500List, warm: bool) -> Result<Server, String> {
    let mut state = if warm {
        FleetState::from_list(list, config())
    } else {
        FleetState::from_list(
            list,
            EasyCConfig {
                workers: 1,
                ..config()
            },
        )
    };
    if warm {
        state.warm();
    }
    spawn(state, "127.0.0.1:0", ServeConfig::default()).map_err(|e| format!("serve::spawn: {e}"))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = opts.scale;
    let matrix = template_matrix();
    let tracer = opts.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let fleet = opts.fleet(scale.resident_systems);

    // Set-up: generate, build, warm and start the server.
    let mut setup = SetUp::new(scale.setup_reps, || {
        let list = crate::trace::span(tr, "top500.synthetic.gen", None, SETUP_OP, |_| {
            generate_full(&fleet)
        });
        start(list, true)
    });
    let server = setup.before()?;
    let list = generate_full(&fleet);

    // Reference replies from a cold server.
    let set = request_set(opts, &matrix);
    let cold = start(list.clone(), false)?;
    let mut expected = Vec::with_capacity(set.len());
    {
        let mut conn = Client::connect(cold.addr()).map_err(|e| format!("connect: {e}"))?;
        for req in &set {
            let reply = conn
                .request_raw(&req.line)
                .map_err(|e| format!("reference request failed: {e}"))?;
            if !reply.starts_with(r#"{"ok":true"#) {
                return Err(format!("reference request {} refused: {reply}", req.line));
            }
            expected.push(warm_flag(&reply));
        }
    }
    cold.shutdown();

    // Warm-up, untimed and checked: every client sends every distinct
    // request several times, concurrently, so the server's threads and
    // allocator reach their working size before timing.
    let mut extra_attempted = 0;
    let mut extra_failed = 0;
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..sys::nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut failed = 0u64;
                    let Ok(mut conn) = Client::connect(server.addr()) else {
                        return (1, 1);
                    };
                    for _ in 0..WARMUP_ROUNDS {
                        for (req, want) in set.iter().zip(&expected) {
                            if conn.request_raw(&req.line).ok().as_ref() != Some(want) {
                                failed += 1;
                            }
                        }
                    }
                    (WARMUP_ROUNDS * set.len() as u64, failed)
                })
            })
            .collect();
        for c in clients {
            let (attempted, failed) = c.join().expect("warm-up client panicked");
            extra_attempted += attempted;
            extra_failed += failed;
        }
    });

    let (untraced, traced_log) = phases(opts, tr, |seconds, tracer| {
        let phase_no = u64::from(tracer.is_some());
        closed_loop(
            &server, &set, &expected, seconds, opts.seed, tracer, phase_no,
        )
    });
    server.shutdown();
    let setup_s = setup.after()?;

    let mut layers = BTreeMap::new();
    if let (Some(tracer), Some(traced)) = (tr, &traced_log) {
        let mut replica = FleetState::from_list(list.clone(), config());
        replica.warm();
        let compute = replay_compute(&replica, &set, &matrix, 20);
        for class in CLASSES {
            let [_, rtt_name, compute_name, overhead_name] = class.names();
            let rtt = stats::median(&traced.rtt_s[class as usize]);
            let compute = compute[class as usize];
            layers.insert(rtt_name, rtt * 1e3);
            layers.insert(compute_name, compute * 1e3);
            layers.insert(overhead_name, (rtt - compute) * 1e3);
        }
        let replies = traced.phase.attempted.max(1) as f64;
        // Per-class parse times weighted by the traced phase's mix.
        let (mut parse_s, mut parsed) = (0.0, 0.0);
        for (class, secs) in CLASSES.iter().zip(parse_seconds(tracer, &set, &expected, 20)) {
            if let Some(secs) = secs {
                let n = traced.rtt_s[*class as usize].len() as f64;
                parse_s += n * secs;
                parsed += n;
            }
        }
        layers.insert("serve.json.parse_s", parse_s / parsed.max(1.0));
        layers.insert("serve.bytes_out", traced.bytes / replies);
        for (code, n) in untraced.errors.iter().chain(&traced.errors) {
            if let Some(d) = PER_LAYER
                .iter()
                .find(|d| d.name.strip_prefix("serve.errors.") == Some(*code))
            {
                *layers.entry(d.name).or_insert(0.0) += n;
            }
        }
        extra_attempted += 1;
        if !replay_fleet(tracer, &list, &matrix, &mut layers) {
            extra_failed += 1;
        }
        probe_state(
            tracer,
            &list,
            scale.resident_draws,
            opts.draw_seed(),
            20,
            &mut layers,
        );
        layers.insert(
            "easyc.draws.terms",
            f64::from(scale.resident_systems) * scale.resident_draws as f64,
        );
    }

    let mut notes = vec![format!(
        "{} resident systems, {} closed-loop clients, default ServeConfig, mix 80% hit / 10% miss / 8% draws({}) / 2% sweep({} scenarios)",
        scale.resident_systems,
        sys::nproc(),
        scale.resident_draws,
        matrix.len()
    )];
    notes.push(format!(
        "serve.json.parse_s is the client parse time per reply up to {} KiB, measured after the phase on each class's reference replies and weighted by the traced mix; sweep replies are not parsed",
        PARSE_LIMIT / 1024
    ));
    for (code, n) in &untraced.errors {
        notes.push(format!("serve error {code}: {n}"));
    }
    Ok(Outcome {
        setup_s,
        untraced: untraced.phase,
        traced: traced_log.map(|t| t.phase),
        layers,
        notes,
        extra_attempted,
        extra_failed,
        tracer,
    })
}
