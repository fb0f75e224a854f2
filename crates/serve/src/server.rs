//! The resident assessment server — a JSONL-over-TCP request loop.
//!
//! # Request lifecycle
//!
//! ```text
//! client ──line──▶ connection thread ──try_send──▶ bounded queue
//!                   │    (parse, route)               │
//!                   │ malformed / oversized /          ▼
//!                   │ queue-full answered here   serve-worker thread
//!                   ◀──────────reply channel───── (FleetState query)
//! ```
//!
//! One OS thread per connection owns the socket and never computes; the
//! bounded `sync_channel` queue is the **only** path into the
//! [`ServeConfig::workers`] compute threads, so a busy server sheds load
//! with a structured `queue-full` error instead of queueing unboundedly.
//! Each query may fan out over at most the state's configured worker
//! count (the operator's `--workers`): a request's `workers` field can
//! lower that, never raise it. Every reply travels
//! back on a per-request rendezvous channel with a timeout, so a stuck
//! query produces a `timeout` error while the connection stays
//! serviceable. Shutdown (the `shutdown` op or [`Server::shutdown`]) stops
//! the acceptor, lets in-flight requests finish, unparks held workers and
//! joins everything: the acceptor joins its connection threads and closes
//! the queue, then the server handle joins the compute workers — no
//! detached threads survive.
//!
//! Protocol ops: `status`, `assess`, `sweep`, `compare`, `invalidate`,
//! `hold`/`release` (diagnostic worker-occupancy control used by the
//! backpressure tests) and `shutdown`. Every response is a single JSON
//! line whose field order is fixed, so equal answers are equal bytes; all
//! carbon totals carry exact-bit hex fields next to the decimal ones.
//! Fleet totals and coverage are read off each query's
//! [`ScenarioSlice`]s — the engine's own
//! [`PartialAssessment`](easyc::PartialAssessment) fold, the same pinned
//! fold shape every other result path uses.

use crate::json::{self, Obj, Value};
use easyc::{
    Assessment, DataScenario, FleetState, Interval, InvalidateOutcome, MetricMask, OverrideSet,
    PlanError, PlanField, PlanSpec, ScenarioMatrix, ScenarioSlice,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Compute threads draining the request queue (each may itself fan a
    /// query out over the state's configured worker count).
    pub workers: usize,
    /// Bound of the request queue; a full queue answers `queue-full`.
    pub queue_depth: usize,
    /// Per-request reply deadline; exceeding it answers `timeout`.
    pub request_timeout: Duration,
    /// Longest accepted request line, bytes; longer answers `oversized-request`.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            request_timeout: Duration::from_secs(30),
            max_line_bytes: 1 << 20,
        }
    }
}

/// How often blocked socket reads wake to check the stop flag.
const POLL_TICK: Duration = Duration::from_millis(50);

struct Shared {
    state: RwLock<FleetState>,
    config: ServeConfig,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Requests currently queued or computing (reported by `status`).
    queued: AtomicUsize,
    /// `hold` ops park workers until this release counter advances (or
    /// shutdown) — the deterministic occupancy control behind the
    /// queue-full tests.
    releases: Mutex<u64>,
    released: Condvar,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, FleetState> {
        // A poisoned lock means some earlier request panicked; the state
        // itself is read-only to queries, so keep serving.
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, FleetState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// One queued request: the parsed line plus the reply rendezvous.
struct Request {
    value: Value,
    reply: SyncSender<String>,
}

/// A running server: the bound address plus the shutdown/join handle.
/// Dropping the handle shuts the server down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    /// The compute workers; they exit once the acceptor has closed the
    /// request queue.
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight requests finish, and joins every
    /// server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server shuts down (a `shutdown` request), then
    /// joins every server thread — what the CLI `serve` subcommand sits in.
    pub fn wait(mut self) {
        self.join();
    }

    /// Joins the acceptor (which joins the connections and closes the
    /// queue), then the compute workers the closed queue lets go.
    fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unpark held workers so they observe the stop flag.
        *self
            .shared
            .releases
            .lock()
            .unwrap_or_else(|e| e.into_inner()) += 1;
        self.shared.released.notify_all();
        // Wake the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `addr` and serves `state` until shutdown — see the
/// [module docs](self) for the request lifecycle.
pub fn spawn(
    state: FleetState,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        state: RwLock::new(state),
        config,
        addr: local,
        stop: AtomicBool::new(false),
        queued: AtomicUsize::new(0),
        releases: Mutex::new(0),
        released: Condvar::new(),
    });

    let (tx, rx) = sync_channel::<Request>(config.queue_depth.max(1));
    let accept_shared = Arc::clone(&shared);
    #[expect(
        clippy::disallowed_methods,
        reason = "serve's one acceptor thread, joined on shutdown"
    )]
    let accept = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            let mut connections: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if accept_shared.stopping() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                let conn_shared = Arc::clone(&accept_shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one reader per connection; queries still fan out through `parallel::run`"
                )]
                let handle = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || connection(stream, tx, conn_shared));
                match handle {
                    Ok(h) => {
                        // Join exited connections now, so a finished
                        // thread's stack is not held until shutdown.
                        for done in connections.extract_if(.., |c| c.is_finished()) {
                            let _ = done.join();
                        }
                        connections.push(h);
                    }
                    Err(_) => continue,
                }
            }
            drop(tx);
            for handle in connections {
                let _ = handle.join();
            }
        })?;

    let mut server = Server {
        addr: local,
        shared,
        accept: Some(accept),
        workers: Vec::new(),
    };
    let rx = Arc::new(Mutex::new(rx));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&server.shared);
        // On a failed spawn, dropping `server` stops and joins every
        // thread started so far.
        #[expect(
            clippy::disallowed_methods,
            reason = "the fixed set of request-queue workers, joined on shutdown"
        )]
        let worker = std::thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || drain_queue(&rx, &shared))?;
        server.workers.push(worker);
    }
    Ok(server)
}

/// One compute worker: answers queued requests until the queue closes.
fn drain_queue(rx: &Mutex<Receiver<Request>>, shared: &Shared) {
    loop {
        // Take the next request with the receiver lock *dropped*
        // before computing, so workers drain the queue concurrently.
        let request = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(request) = request else { break };
        let response = handle_request(&request.value, shared);
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        // The client may have timed out or disconnected; that drops
        // the receiver and this send fails — fine either way.
        let _ = request.reply.send(response);
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line within the byte bound (newline stripped).
    Line(String),
    /// The line exceeded the bound; it was consumed through its newline so
    /// the stream stays in sync.
    Oversized,
    /// Peer gone, unrecoverable error, or server stopping.
    Closed,
}

/// Reads one `\n`-terminated line from `stream`, buffering leftovers in
/// `buf` (pipelined requests), discarding — with bounded memory — anything
/// longer than `max` bytes, and polling the stop flag while blocked.
fn read_line_bounded(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max: usize,
    shared: &Shared,
) -> LineRead {
    let mut discarding = false;
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let rest = buf.split_off(pos + 1);
            let mut line = std::mem::replace(buf, rest);
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if discarding || line.len() > max {
                return LineRead::Oversized;
            }
            return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
        }
        if buf.len() > max {
            discarding = true;
            buf.clear();
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return LineRead::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stopping() {
                    return LineRead::Closed;
                }
            }
            Err(_) => return LineRead::Closed,
        }
    }
}

/// Owns one connection: read a line, answer a line, repeat. Transport
/// errors (disconnects mid-request or mid-response) end the connection —
/// never the server.
fn connection(stream: TcpStream, tx: SyncSender<Request>, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        if shared.stopping() {
            return;
        }
        let line =
            match read_line_bounded(&mut reader, &mut buf, shared.config.max_line_bytes, &shared) {
                LineRead::Closed => return,
                LineRead::Oversized => error_line(
                    "oversized-request",
                    &format!(
                        "request line exceeds {} bytes",
                        shared.config.max_line_bytes
                    ),
                ),
                LineRead::Line(line) if line.trim().is_empty() => continue,
                LineRead::Line(line) => route(&line, &tx, &shared),
            };
        if writer.write_all(line.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            return;
        }
    }
}

/// Parses one request line and produces its response: transport-layer ops
/// (`status`, `release`, `shutdown`) answer inline on the connection
/// thread; compute ops travel through the bounded queue to a compute worker.
fn route(line: &str, tx: &SyncSender<Request>, shared: &Shared) -> String {
    let value = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_line("malformed-request", &format!("invalid JSON: {e}")),
    };
    let Some(op) = value.get("op").and_then(Value::as_str) else {
        return error_line("malformed-request", "missing string field `op`");
    };
    match op {
        "status" => {
            let state = shared.read_state();
            Obj::new()
                .field_bool("ok", true)
                .field_str("op", "status")
                .field_int("systems", state.len())
                .field_bool("warm", state.is_warm())
                .field_str("source_hash", &format!("{:016x}", state.source_hash()))
                .field_int("queued", shared.queued.load(Ordering::SeqCst))
                .field_int("workers", shared.config.workers.max(1))
                .finish()
        }
        "release" => {
            *shared.releases.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            shared.released.notify_all();
            Obj::new()
                .field_bool("ok", true)
                .field_str("op", "release")
                .finish()
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            *shared.releases.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            shared.released.notify_all();
            // Wake the acceptor so it stops taking connections.
            let _ = TcpStream::connect(shared.addr);
            Obj::new()
                .field_bool("ok", true)
                .field_str("op", "shutdown")
                .finish()
        }
        "assess" | "sweep" | "compare" | "invalidate" | "hold" => {
            let (reply_tx, reply_rx) = sync_channel::<String>(1);
            shared.queued.fetch_add(1, Ordering::SeqCst);
            match tx.try_send(Request {
                value,
                reply: reply_tx,
            }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    shared.queued.fetch_sub(1, Ordering::SeqCst);
                    return error_line(
                        "queue-full",
                        &format!(
                            "request queue is full ({} pending); retry later",
                            shared.config.queue_depth
                        ),
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.queued.fetch_sub(1, Ordering::SeqCst);
                    return error_line("shutting-down", "server is shutting down");
                }
            }
            match reply_rx.recv_timeout(shared.config.request_timeout) {
                Ok(response) => response,
                Err(RecvTimeoutError::Timeout) => error_line(
                    "timeout",
                    &format!(
                        "request exceeded {} ms",
                        shared.config.request_timeout.as_millis()
                    ),
                ),
                Err(RecvTimeoutError::Disconnected) => {
                    error_line("shutting-down", "server is shutting down")
                }
            }
        }
        other => error_line("unknown-op", &format!("unknown op `{other}`")),
    }
}

/// Computes one queued request on a compute worker.
fn handle_request(value: &Value, shared: &Shared) -> String {
    let reply = match value.get("op").and_then(Value::as_str) {
        Some("assess") => op_assess(value, shared),
        Some("sweep") => op_sweep(value, shared),
        Some("compare") => op_compare(value, shared),
        Some("invalidate") => op_invalidate(value, shared),
        Some("hold") => Ok(op_hold(shared)),
        _ => Err(error_line("unknown-op", "unroutable op reached a worker")),
    };
    reply.unwrap_or_else(|error| error)
}

fn error_line(code: &str, message: &str) -> String {
    Obj::new()
        .field_bool("ok", false)
        .field_str("code", code)
        .field_str("error", message)
        .finish()
}

fn opt_f64(value: &Value, key: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

/// Reads a request's plan fields into a [`PlanSpec`]. The literal text of
/// each numeric field (`draws`, `seed`, `confidence`, `workers`) goes
/// through [`PlanSpec::set`], the parser the CLI's flags go through, so an
/// integer is read exactly and `8.0` or `1e3` is not one. A `compare`
/// request's string fields `baseline` and `variant` are the compared pair.
pub fn request_plan(value: &Value) -> Result<PlanSpec, PlanError> {
    use PlanField::{Confidence, Draws, Seed, Workers};
    let mut spec = PlanSpec::default();
    for field in [Draws, Seed, Confidence, Workers] {
        if let Some(v) = value.get(field.name()) {
            // A value that is not a number reads as empty text, which
            // `set` refuses like any other text that is not the field's.
            spec.set(field, v.as_number().unwrap_or_default())?;
        }
    }
    if value.get("op").and_then(Value::as_str) == Some("compare") {
        let name = |key| value.get(key).and_then(Value::as_str).map(str::to_string);
        spec.compare = name("baseline").zip(name("variant"));
    }
    Ok(spec)
}

/// The reply refusing a plan: an empty matrix (no field) or an unknown
/// compared scenario is a `bad-scenario`, any other fault a
/// `malformed-request`. serve reads the compared names as strings, never
/// through [`PlanSpec::set`], so its only `compare` fault is an unknown
/// name.
fn plan_error(error: PlanError) -> String {
    let code = match error.field {
        None | Some(PlanField::Compare) => "bad-scenario",
        Some(_) => "malformed-request",
    };
    let message = error.message(|field| match field {
        PlanField::Compare => "compare".to_string(),
        field => format!("field `{}`", field.name()),
    });
    error_line(code, &message)
}

/// A request's worker count, capped at the state's configured `max`:
/// results are bit-identical at any worker count, so the cap changes no
/// reply byte, but a client cannot make one query start thousands of
/// threads.
fn capped_workers(spec: &PlanSpec, max: usize) -> Option<usize> {
    spec.workers.map(|workers| workers.min(max))
}

/// The query that assesses `matrix` over `state` under `spec`, or the
/// reply refusing the plan.
fn planned<'s>(
    spec: &PlanSpec,
    state: &'s FleetState,
    matrix: &ScenarioMatrix,
) -> Result<Assessment<&'s FleetState>, String> {
    let plan = spec.validate(matrix).map_err(plan_error)?;
    let workers = state.config().workers;
    Ok(state
        .query()
        .draw_plan(plan)
        .scenarios(matrix)
        .workers(capped_workers(spec, workers).unwrap_or(workers)))
}

/// The scenario of an `assess` request from its optional fields: `scenario`
/// (name), `mask` (spec string), `pue` / `utilization` / `aci` overrides.
/// All absent = the state's default scenario, `default` with everything
/// visible (warm-path eligible).
fn scenario_spec(value: &Value) -> Result<DataScenario, String> {
    let name = match value.get("scenario") {
        None => "default",
        Some(v) => v.as_str().ok_or("field `scenario` must be a string")?,
    };
    let mask = match value.get("mask") {
        None => MetricMask::ALL,
        Some(v) => {
            let spec = v.as_str().ok_or("field `mask` must be a string")?;
            MetricMask::parse(spec).map_err(|e| format!("bad mask: {e}"))?
        }
    };
    let overrides = OverrideSet {
        pue: opt_f64(value, "pue")?,
        utilization: opt_f64(value, "utilization")?,
        aci_g_per_kwh: opt_f64(value, "aci")?,
    };
    Ok(DataScenario::masked(name, mask).with_overrides(overrides))
}

/// Renders an optional interval with exact bits (`null` when absent).
fn interval_json(interval: Option<Interval>) -> String {
    match interval {
        None => "null".to_string(),
        Some(iv) => Obj::new()
            .field_num("point", iv.point)
            .field_num("lo", iv.lo)
            .field_num("hi", iv.hi)
            .field_bits("point_bits", iv.point)
            .field_bits("lo_bits", iv.lo)
            .field_bits("hi_bits", iv.hi)
            .finish(),
    }
}

/// Renders one scenario slice's summary object from the coverage, totals
/// and intervals the engine folded (`*_errors = systems − *_covered`).
fn slice_summary(slice: &ScenarioSlice) -> String {
    let coverage = slice.coverage;
    Obj::new()
        .field_str("name", &slice.scenario.name)
        .field_int("systems", coverage.total)
        .field_int("op_covered", coverage.operational)
        .field_int("emb_covered", coverage.embodied)
        .field_int("op_errors", coverage.total - coverage.operational)
        .field_int("emb_errors", coverage.total - coverage.embodied)
        .field_num("operational_mt", slice.operational_total_mt)
        .field_bits("operational_bits", slice.operational_total_mt)
        .field_num("embodied_mt", slice.embodied_total_mt)
        .field_bits("embodied_bits", slice.embodied_total_mt)
        .field_raw("operational_interval", &interval_json(slice.interval))
        .field_raw("embodied_interval", &interval_json(slice.embodied_interval))
        .finish()
}

fn op_assess(value: &Value, shared: &Shared) -> Result<String, String> {
    let scenario = scenario_spec(value).map_err(|e| error_line("bad-scenario", &e))?;
    let spec = request_plan(value).map_err(plan_error)?;
    let state = shared.read_state();
    let output = planned(&spec, &state, &ScenarioMatrix::new().with(scenario))?.run();
    let result = output
        .slices()
        .first()
        .map(slice_summary)
        .ok_or_else(|| error_line("internal-error", "assessment produced no scenarios"))?;
    Ok(Obj::new()
        .field_bool("ok", true)
        .field_str("op", "assess")
        .field_bool("warm", state.is_warm())
        .field_str("source_hash", &format!("{:016x}", state.source_hash()))
        .field_raw("result", &result)
        .finish())
}

/// Parses the `matrix_csv` field shared by `sweep` and `compare`; a
/// refusal is a `bad-scenario` reply.
fn matrix_spec(value: &Value) -> Result<ScenarioMatrix, String> {
    let text = value
        .get("matrix_csv")
        .and_then(Value::as_str)
        .ok_or_else(|| error_line("bad-scenario", "missing string field `matrix_csv`"))?;
    ScenarioMatrix::from_csv(text)
        .map_err(|e| error_line("bad-scenario", &format!("bad matrix: {e}")))
}

fn op_sweep(value: &Value, shared: &Shared) -> Result<String, String> {
    let matrix = matrix_spec(value)?;
    let spec = request_plan(value).map_err(plan_error)?;
    let state = shared.read_state();
    let output = planned(&spec, &state, &matrix)?.run();
    let summaries: Vec<String> = output.slices().iter().map(slice_summary).collect();
    // The same per-(scenario, system) CSV `sweep --out` writes — byte
    // identical, which is what the CI smoke diffs.
    let csv = frame::csv::write(&output.to_frame());
    Ok(Obj::new()
        .field_bool("ok", true)
        .field_str("op", "sweep")
        .field_bool("warm", state.is_warm())
        .field_int("systems", state.len())
        .field_int("scenarios", output.len())
        .field_raw("results", &json::array(&summaries))
        .field_str("csv", &csv)
        .finish())
}

fn op_compare(value: &Value, shared: &Shared) -> Result<String, String> {
    let matrix = matrix_spec(value)?;
    let spec = request_plan(value).map_err(plan_error)?;
    let Some((baseline, variant)) = &spec.compare else {
        return Err(error_line(
            "malformed-request",
            "compare needs string fields `baseline` and `variant`",
        ));
    };
    // Only the compared scenarios run (one for a self-compare), and only
    // they count against the draw cap: draws are keyed by (system, draw),
    // never by scenario, so the delta's bits do not depend on the rest of
    // the matrix. When neither is in it, the whole matrix is checked, so
    // the refusal names the missing one.
    let mut pair = ScenarioMatrix::new();
    for scenario in matrix.scenarios() {
        if &scenario.name == baseline || &scenario.name == variant {
            pair.push(scenario.clone());
        }
    }
    let run = if pair.is_empty() { &matrix } else { &pair };
    let state = shared.read_state();
    let output = planned(&spec, &state, run)?.run();
    let delta = output.compare(baseline, variant).ok_or_else(|| {
        error_line(
            "no-paired-draws",
            &format!("no paired draws for {baseline},{variant}"),
        )
    })?;
    Ok(Obj::new()
        .field_bool("ok", true)
        .field_str("op", "compare")
        .field_bool("warm", state.is_warm())
        .field_str("baseline", &delta.baseline)
        .field_str("variant", &delta.variant)
        .field_raw("operational", &interval_json(delta.operational))
        .field_raw("embodied", &interval_json(delta.embodied))
        .field_raw("total", &interval_json(delta.total))
        .finish())
}

fn op_invalidate(value: &Value, shared: &Shared) -> Result<String, String> {
    let Some(hash) = value
        .get("hash")
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
    else {
        return Err(error_line(
            "malformed-request",
            "invalidate needs a hex string field `hash`",
        ));
    };
    let mut state = shared.write_state();
    let outcome = state.invalidate(hash);
    Ok(Obj::new()
        .field_bool("ok", true)
        .field_str("op", "invalidate")
        .field_str(
            "code",
            match outcome {
                InvalidateOutcome::Evicted => "evicted",
                InvalidateOutcome::Stale => "stale-hash",
            },
        )
        .field_str("source_hash", &format!("{:016x}", state.source_hash()))
        .finish())
}

/// Parks this worker until the next `release` (or shutdown) — occupies
/// exactly one compute slot, deterministically, without any clock.
fn op_hold(shared: &Shared) -> String {
    let seen = {
        let guard = shared.releases.lock().unwrap_or_else(|e| e.into_inner());
        *guard
    };
    let mut guard = shared.releases.lock().unwrap_or_else(|e| e.into_inner());
    while *guard == seen && !shared.stopping() {
        guard = shared
            .released
            .wait(guard)
            .unwrap_or_else(|e| e.into_inner());
    }
    Obj::new()
        .field_bool("ok", true)
        .field_str("op", "hold")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requested_workers_are_capped_at_the_states_worker_count() {
        let workers = |line: &str| {
            request_plan(&json::parse(line).expect("valid JSON"))
                .map(|spec| capped_workers(&spec, 4))
        };
        assert_eq!(workers(r#"{"op":"assess","workers":3000}"#), Ok(Some(4)));
        assert_eq!(workers(r#"{"op":"assess","workers":4}"#), Ok(Some(4)));
        assert_eq!(workers(r#"{"op":"assess","workers":2}"#), Ok(Some(2)));
        assert_eq!(workers(r#"{"op":"assess"}"#), Ok(None));
        assert!(workers(r#"{"op":"assess","workers":0}"#).is_err());
    }
}
