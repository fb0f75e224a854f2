//! `stream-csv`: the CLI's default large-fleet path. Set-up writes a
//! seeded synthetic fleet as a CSV file; each operation streams it through
//! `Prefetched(stream_csv(..))` into `Assessment::stream` under the
//! five-scenario matrix with no draws, rendering every block through a
//! `rows` sink into memory (`batch::footprints_frame` +
//! `frame::csv::write_rows`).
//!
//! Reference: a `workers = 1` streaming session over the *generated* fleet
//! (`SyntheticChunks`, no CSV parse, no prefetch, other chunk size). Each
//! operation must match its fleet totals bit for bit and the digest of
//! every rendered row byte per scenario.

use super::{
    finish_replay, measure, phases, record_replay_layers, replay_chunk, template_matrix, timed,
    Opts, Outcome, Phase, SetUp, TotalsKey, PROBE_OP, SETUP_OP,
};
use crate::stats::Digest;
use crate::sys;
use crate::trace::{span, Tracer};
use easyc::{Assessment, ChunkRows, PartialAssessment, ScenarioMatrix, StreamOutput};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use top500::io::{export_csv, stream_csv};
use top500::stream::{FleetChunks, Prefetched, SyntheticChunks};
use top500::synthetic::generate_full;
use top500::Top500List;

/// What one pass must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PassCheck {
    systems: usize,
    totals: Vec<TotalsKey>,
    /// Per scenario: digest of the rendered rows, in fleet order.
    rows: Vec<u64>,
    bytes_out: u64,
}

/// A `FleetChunks` adapter recording one span per `next_chunk` call.
struct Timed<S> {
    source: S,
    tracer: Option<Tracer>,
    name: &'static str,
    parent: Option<u64>,
    op: u64,
    /// Counter of delivered rows, if this layer counts them.
    rows: Option<&'static str>,
}

impl<S: FleetChunks> FleetChunks for Timed<S>
where
    S::Error: Display,
{
    type Error = S::Error;

    fn next_chunk(&mut self) -> Option<Result<Top500List, S::Error>> {
        let Some(tracer) = &self.tracer else {
            return self.source.next_chunk();
        };
        let open = tracer.open(self.name, self.parent, self.op);
        let chunk = self.source.next_chunk();
        tracer.close(open);
        if let (Some(counter), Some(Ok(list))) = (self.rows, &chunk) {
            tracer.count(counter, list.len() as f64);
        }
        chunk
    }
}

/// A reader counting the bytes it delivers into a trace counter.
struct Counting<R> {
    inner: R,
    tracer: Option<Tracer>,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(t) = &self.tracer {
            t.count("top500.ingest.bytes", n as f64);
        }
        Ok(n)
    }
}

/// A row sink rendering each block as the CLI's per-system CSV rows and
/// digesting them per scenario.
fn render_sink<'a>(
    digests: &'a mut [Digest],
    bytes_out: &'a mut u64,
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
    op: u64,
) -> impl FnMut(ChunkRows<'_>) + 'a {
    move |block: ChunkRows<'_>| {
        let text = span(tracer, "frame.csv.render", parent, op, |_| {
            let frame = easyc::batch::footprints_frame(&block.scenario.name, block.footprints);
            frame::csv::write_rows(&frame)
        });
        *bytes_out += text.len() as u64;
        span(tracer, "bench.digest", parent, op, |_| {
            digests[block.scenario_index].update(text.as_bytes())
        });
    }
}

fn check_of(output: &StreamOutput, digests: &[Digest], bytes_out: u64) -> PassCheck {
    PassCheck {
        systems: output.systems(),
        totals: output
            .slices()
            .iter()
            .map(|s| {
                (
                    s.operational_total_mt.to_bits(),
                    s.embodied_total_mt.to_bits(),
                    s.coverage.total,
                    s.coverage.operational,
                    s.coverage.embodied,
                )
            })
            .collect(),
        rows: digests.iter().map(Digest::finish).collect(),
        bytes_out,
    }
}

/// One operation: stream the CSV file through the prefetched reader into
/// a pooled session with the rendering sink.
fn pass(
    path: &Path,
    matrix: &ScenarioMatrix,
    chunk_rows: usize,
    workers: usize,
    tracer: Option<&Tracer>,
    op: u64,
) -> Result<PassCheck, String> {
    span(tracer, "op.stream-csv", None, op, |root| {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let reader = BufReader::new(Counting {
            inner: file,
            tracer: tracer.cloned(),
        });
        let parse = Timed {
            source: stream_csv(reader, chunk_rows),
            tracer: tracer.cloned(),
            name: "top500.parse",
            parent: root,
            op,
            rows: Some("top500.ingest.rows"),
        };
        let source = Timed {
            source: Prefetched::new(parse),
            tracer: tracer.cloned(),
            name: "top500.ingest.wait",
            parent: root,
            op,
            rows: None,
        };
        let mut digests = vec![Digest::default(); matrix.len()];
        let mut bytes_out = 0u64;
        let output = Assessment::stream(source)
            .scenarios(matrix)
            .workers(workers)
            .rows(render_sink(&mut digests, &mut bytes_out, tracer, root, op))
            .run()
            .map_err(|e| format!("stream failed: {e}"))?;
        Ok(check_of(&output, &digests, bytes_out))
    })
}

/// The reference pass: generated chunks, one worker, no prefetch.
fn reference(opts: &Opts, matrix: &ScenarioMatrix) -> PassCheck {
    let scale = &opts.scale;
    let source = SyntheticChunks::new(opts.fleet(scale.stream_systems), scale.reference_chunk_rows);
    let mut digests = vec![Digest::default(); matrix.len()];
    let mut bytes_out = 0u64;
    let output = Assessment::stream(source)
        .scenarios(matrix)
        .workers(1)
        .rows(render_sink(&mut digests, &mut bytes_out, None, None, 0))
        .run()
        .unwrap_or_else(|never| match never {});
    check_of(&output, &digests, bytes_out)
}

/// Serial layer-by-layer replay over the CSV file (no prefetch, no pool):
/// parse, extract, columns, estimation and fold, each in its own span.
fn replay(
    tracer: &Tracer,
    path: &Path,
    matrix: &ScenarioMatrix,
    chunk_rows: usize,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<TotalsKey>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut source = Timed {
        source: stream_csv(BufReader::new(file), chunk_rows),
        tracer: Some(tracer.clone()),
        name: "top500.parse.serial",
        parent: None,
        op: PROBE_OP,
        rows: None,
    };
    let mut partials: Vec<PartialAssessment> = matrix
        .scenarios()
        .iter()
        .map(|_| PartialAssessment::identity(0))
        .collect();
    let (mut first_row, mut err_rows) = (0usize, 0u64);
    while let Some(chunk) = source.next_chunk() {
        let list = chunk.map_err(|e| format!("replay parse failed: {e}"))?;
        err_rows += replay_chunk(tracer, &list, first_row, matrix, &mut partials);
        first_row += list.len();
    }
    let totals = finish_replay(tracer, partials);
    record_replay_layers(tracer, err_rows, layers);
    Ok(totals)
}

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Removes the input file when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = opts.scale;
    let matrix = template_matrix();
    let tracer = opts.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let workers = sys::nproc();
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let scratch = Scratch(opts.work_dir.join(format!(
        "stream-csv-{}-{}-{}.csv",
        opts.seed,
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    )));
    let path = scratch.0.as_path();

    // Set-up: generate the fleet and write it as CSV, several times.
    let config = opts.fleet(scale.stream_systems);
    let mut csv_bytes = 0;
    let mut setup = SetUp::new(scale.setup_reps_csv, || {
        let list = span(tr, "top500.synthetic.gen", None, SETUP_OP, |_| {
            generate_full(&config)
        });
        let text = span(tr, "top500.io.export", None, SETUP_OP, |_| {
            export_csv(&list)
        });
        drop(list);
        csv_bytes = text.len();
        span(tr, "bench.setup.write", None, SETUP_OP, |_| {
            std::fs::write(path, text.as_bytes())
        })
        .map_err(|e| format!("write {}: {e}", path.display()))
    });
    setup.before()?;
    let expected = reference(opts, &matrix);

    let mut op_id = 0u64;
    let footprints = f64::from(scale.stream_systems) * matrix.len() as f64;
    let mut phase = |seconds: f64, tracer: Option<&Tracer>| {
        // Every operation streams the whole fleet, so one is the minimum.
        measure(seconds, 1, |p: &mut Phase| {
            let (got, secs) =
                timed(|| pass(path, &matrix, scale.chunk_rows, workers, tracer, op_id));
            op_id += 1;
            p.op(secs, got.as_ref() == Ok(&expected), footprints, 0.0);
        })
    };
    // One untimed, checked operation first: caches fill and lazy set-up
    // finishes before timing.
    let warmup = phase(0.0, None);
    let mut extra_attempted = warmup.attempted;
    let mut extra_failed = warmup.failed;
    let (untraced, traced) = phases(opts, tr, phase);

    // The remaining set-ups rewrite the same bytes.
    let setup_s = setup.after()?;

    let mut layers = BTreeMap::new();
    if let (Some(tracer), Some(traced)) = (tr, &traced) {
        let passes = traced.attempted as f64;
        let per_pass = |name: &str| tracer.total(name) / passes;
        layers.insert("top500.parse.busy_s", per_pass("top500.parse"));
        layers.insert("top500.ingest.wait_s", per_pass("top500.ingest.wait"));
        layers.insert(
            "top500.ingest.rows",
            tracer.counter("top500.ingest.rows") / passes,
        );
        layers.insert(
            "top500.ingest.bytes",
            tracer.counter("top500.ingest.bytes") / passes,
        );
        layers.insert("frame.csv.render_s", per_pass("frame.csv.render"));
        // The correctness check's own share of each timed pass.
        layers.insert("bench.digest_s", per_pass("bench.digest"));
        layers.insert("frame.csv.bytes_out", expected.bytes_out as f64);
        let totals = replay(tracer, path, &matrix, scale.chunk_rows, &mut layers)?;
        extra_attempted += 1;
        if totals != expected.totals {
            extra_failed += 1;
        }
    }
    drop(scratch);

    let notes = vec![format!(
        "{} systems x {} scenarios streamed from a {:.1} MB CSV in {}-row chunks, prefetched, {} workers, draws 0",
        scale.stream_systems,
        matrix.len(),
        csv_bytes as f64 / 1e6,
        scale.chunk_rows,
        workers
    )];
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers,
        notes,
        extra_attempted,
        extra_failed,
        tracer,
    })
}
