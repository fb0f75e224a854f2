//! Chunked fleet sources — the ingestion side of streaming assessment.
//!
//! A production deployment serves fleets far larger than the Top 500; the
//! paper's 500-row table fits in memory, a utility's million-system
//! inventory does not. [`FleetChunks`] is the contract between any chunked
//! source of [`SystemRecord`]s and the incremental assessment session
//! (`easyc::Assessment::stream`): the consumer pulls one bounded
//! [`Top500List`] chunk at a time, folds it, and drops it before pulling
//! the next, so peak memory is set by the chunk budget rather than the
//! fleet size.
//!
//! Three sources ship here:
//!
//! - [`crate::io::CsvFleetReader`] — a Top500-schema CSV streamed through
//!   the quote-aware `frame::csv::ChunkedReader` (files larger than RAM).
//! - [`SyntheticChunks`] — the calibrated synthetic generator, chunked;
//!   each chunk is bit-identical to the same rank slice of
//!   [`crate::synthetic::generate_full`], so a million-row fleet needs no
//!   materialization.
//! - [`InMemoryChunks`] — an already-loaded list re-served in chunks, used
//!   to pin streamed-vs-in-memory bit-identity in tests.
//!
//! Plus two combinators: [`Prefetched`] wraps any `Send` source and parses
//! the next chunk on a dedicated background thread while the consumer
//! works on the current one — a double buffer with rendezvous
//! backpressure, so ingest latency hides behind assessment without the
//! residency bound growing past two chunks. [`ShardedCsvReader`] goes
//! further for seekable CSV files: `frame::csv::split_points` plans
//! record-aligned byte ranges, one parse worker streams each range
//! concurrently, and the consumer drains the lanes in file order — N
//! parsers feeding one fold, bit-identical to a serial read.

use crate::io::{stream_csv, ImportError};
use crate::list::Top500List;
use crate::record::SystemRecord;
use crate::synthetic::{generate_range, SyntheticConfig};
use frame::csv::{CsvShard, CsvSplit};
use frame::FrameError;
use std::convert::Infallible;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A pull-based source of fleet chunks.
///
/// `next_chunk` returns `None` when the fleet is exhausted, `Some(Err)` on
/// a source failure (malformed CSV, I/O error). Implementations should be
/// *fused*: after `None` or `Some(Err)`, keep returning `None`. Chunks must
/// be rank-ordered within themselves and across calls — the streaming
/// session folds in arrival order and its results are only comparable to
/// an in-memory session when the global order matches.
pub trait FleetChunks {
    /// Source failure type (use [`Infallible`] for sources that cannot
    /// fail, e.g. generators).
    type Error: Display;

    /// Pulls the next chunk of systems.
    fn next_chunk(&mut self) -> Option<Result<Top500List, Self::Error>>;
}

/// Serves an existing in-memory list as bounded chunks (records are cloned
/// per chunk — this adapter trades the zero-copy guarantee for source
/// uniformity and exists mainly so tests can compare the streamed fold
/// against the borrowed in-memory session over the very same systems).
#[derive(Debug, Clone)]
pub struct InMemoryChunks<'a> {
    systems: &'a [SystemRecord],
    next: usize,
    rows_per_chunk: usize,
}

impl<'a> InMemoryChunks<'a> {
    /// Chunked view of `list`, `rows_per_chunk` systems at a time (a
    /// budget of 0 is treated as 1).
    pub fn new(list: &'a Top500List, rows_per_chunk: usize) -> InMemoryChunks<'a> {
        InMemoryChunks {
            systems: list.systems(),
            next: 0,
            rows_per_chunk: rows_per_chunk.max(1),
        }
    }
}

impl FleetChunks for InMemoryChunks<'_> {
    type Error = Infallible;

    fn next_chunk(&mut self) -> Option<Result<Top500List, Infallible>> {
        if self.next >= self.systems.len() {
            return None;
        }
        let end = (self.next + self.rows_per_chunk).min(self.systems.len());
        let chunk = self.systems[self.next..end].to_vec();
        self.next = end;
        Some(Ok(Top500List::new(chunk)))
    }
}

/// Streams the calibrated synthetic generator without ever materializing
/// the full fleet: rank chunk `[k·B+1, (k+1)·B]` is generated on demand
/// and is bit-identical to the same slice of
/// [`crate::synthetic::generate_full`] (each
/// record depends only on `(seed, rank)`).
#[derive(Debug, Clone)]
pub struct SyntheticChunks {
    config: SyntheticConfig,
    next_rank: u32,
    rows_per_chunk: u32,
}

impl SyntheticChunks {
    /// Chunked generator for `config.n` systems, `rows_per_chunk` at a
    /// time (a budget of 0 is treated as 1).
    pub fn new(config: SyntheticConfig, rows_per_chunk: usize) -> SyntheticChunks {
        SyntheticChunks {
            config,
            next_rank: 1,
            rows_per_chunk: rows_per_chunk.clamp(1, u32::MAX as usize) as u32,
        }
    }
}

impl FleetChunks for SyntheticChunks {
    type Error = Infallible;

    fn next_chunk(&mut self) -> Option<Result<Top500List, Infallible>> {
        if self.next_rank == 0 || self.next_rank > self.config.n {
            return None;
        }
        let last = self
            .next_rank
            .saturating_add(self.rows_per_chunk - 1)
            .min(self.config.n);
        let chunk = generate_range(&self.config, self.next_rank, last);
        // `last + 1` would overflow when n == u32::MAX; 0 is not a valid
        // rank, so it doubles as the exhausted marker.
        self.next_rank = last.checked_add(1).unwrap_or(0);
        Some(Ok(Top500List::new(chunk)))
    }
}

/// Shared counters of a [`Prefetched`] source, cloneable before the source
/// is handed to a consumer (the streaming session consumes its source, so
/// the probe is the only way to inspect the pipeline afterwards).
///
/// The invariant the probe pins: with rendezvous backpressure the producer
/// never runs more than **one** chunk ahead of the consumer, so total chunk
/// residency is bounded by two — the chunk the consumer holds plus the one
/// the producer has parsed and is waiting to hand off.
#[derive(Debug, Clone)]
pub struct PrefetchProbe {
    parsed: Arc<AtomicUsize>,
    delivered: Arc<AtomicUsize>,
    in_flight: Arc<AtomicUsize>,
    peak_ahead: Arc<AtomicUsize>,
}

impl PrefetchProbe {
    fn new() -> PrefetchProbe {
        PrefetchProbe {
            parsed: Arc::new(AtomicUsize::new(0)),
            delivered: Arc::new(AtomicUsize::new(0)),
            in_flight: Arc::new(AtomicUsize::new(0)),
            peak_ahead: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Chunks the background thread has finished parsing so far.
    pub fn chunks_parsed(&self) -> usize {
        self.parsed.load(Ordering::SeqCst)
    }

    /// Chunks the consumer has pulled so far.
    pub fn chunks_delivered(&self) -> usize {
        self.delivered.load(Ordering::SeqCst)
    }

    /// High-water mark of chunks the prefetcher held parsed-but-undelivered
    /// at any instant. Always ≤ 1 — the rendezvous handoff blocks the
    /// producer until the previous chunk is taken, so consumer residency
    /// (1 chunk) plus this bound gives the ≤ 2-chunk pipeline residency
    /// the tests pin.
    pub fn peak_ahead(&self) -> usize {
        self.peak_ahead.load(Ordering::SeqCst)
    }
}

/// Double-buffered wrapper around any `Send` chunk source: a dedicated
/// background thread pulls (parses / generates) the next chunk while the
/// consumer — typically the streaming assessment session — works on the
/// current one, hiding ingest latency behind assessment.
///
/// Backpressure is a rendezvous handoff (`sync_channel(0)`): the producer
/// parses **one** chunk ahead, then blocks until the consumer takes it, so
/// at most two chunks are ever alive — one being assessed, one prefetched
/// ([`PrefetchProbe::peak_ahead`] pins the producer side of that bound).
/// Chunk order, contents and errors are exactly those of the wrapped
/// source, so a prefetched stream folds bit-identically to a serial one.
///
/// Dropping a `Prefetched` mid-stream disconnects the channel; the
/// background thread notices at its next handoff and exits (the drop
/// joins it).
pub struct Prefetched<E> {
    rx: Option<Receiver<Result<Top500List, E>>>,
    worker: Option<JoinHandle<()>>,
    probe: PrefetchProbe,
    done: bool,
}

impl<E: Send + 'static> Prefetched<E> {
    /// Spawns the prefetch thread and starts parsing the first chunk
    /// immediately. The source moves to the background thread, so it must
    /// be `Send + 'static` (file readers and generators are; the borrowed
    /// [`InMemoryChunks`] test adapter is not — re-chunk an owned list
    /// instead).
    pub fn new<S>(mut source: S) -> Prefetched<E>
    where
        S: FleetChunks<Error = E> + Send + 'static,
    {
        let (tx, rx) = sync_channel::<Result<Top500List, E>>(0);
        let probe = PrefetchProbe::new();
        let thread_probe = probe.clone();
        let worker = std::thread::Builder::new()
            .name("chunk-prefetch".into())
            .spawn(move || {
                while let Some(item) = source.next_chunk() {
                    let failed = item.is_err();
                    thread_probe.parsed.fetch_add(1, Ordering::SeqCst);
                    // `in_flight` counts chunks parsed but not yet handed
                    // over. There is one producer and the send below is a
                    // rendezvous, so it is 1 exactly between these two
                    // lines and 0 otherwise — the double-buffer bound.
                    let ahead = thread_probe.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    thread_probe.peak_ahead.fetch_max(ahead, Ordering::SeqCst);
                    let sent = tx.send(item).is_ok();
                    thread_probe.in_flight.fetch_sub(1, Ordering::SeqCst);
                    if !sent {
                        // Consumer dropped mid-stream; stop parsing.
                        return;
                    }
                    if failed {
                        // Sources are fused after an error; so is the pipe.
                        return;
                    }
                }
            })
            .expect("failed to spawn prefetch thread");
        Prefetched {
            rx: Some(rx),
            worker: Some(worker),
            probe,
            done: false,
        }
    }

    /// A cloneable handle onto the pipeline counters — grab one before
    /// handing the source to `Assessment::stream` (which consumes it).
    pub fn probe(&self) -> PrefetchProbe {
        self.probe.clone()
    }
}

impl<E: Display + Send + 'static> FleetChunks for Prefetched<E> {
    type Error = E;

    fn next_chunk(&mut self) -> Option<Result<Top500List, E>> {
        if self.done {
            return None;
        }
        let rx = self.rx.as_ref()?;
        match rx.recv() {
            Ok(item) => {
                self.probe.delivered.fetch_add(1, Ordering::SeqCst);
                if item.is_err() {
                    self.done = true;
                }
                Some(item)
            }
            Err(_) => {
                // Producer exhausted its source and hung up.
                self.done = true;
                None
            }
        }
    }
}

impl<E> Drop for Prefetched<E> {
    fn drop(&mut self) {
        // Disconnect first so a producer blocked on the rendezvous send
        // errors out instead of deadlocking the join below.
        self.rx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// One shard lane of a [`ShardedCsvReader`]: a parse worker and the
/// bounded channel it feeds.
struct ShardLane {
    rx: Option<Receiver<Result<Top500List, ImportError>>>,
    worker: Option<JoinHandle<()>>,
}

impl ShardLane {
    /// Starts the lane's parse worker; a failed thread spawn returns its
    /// `io::Error`.
    fn spawn(
        path: &Path,
        header: &[u8],
        shard: &CsvShard,
        index: usize,
        rows_before: usize,
        rows_per_chunk: usize,
    ) -> std::io::Result<ShardLane> {
        // Capacity 1 = double buffering per lane: each worker parses one
        // chunk ahead of the consumer, so total residency is O(shards),
        // never the whole file.
        let (tx, rx) = sync_channel::<Result<Top500List, ImportError>>(1);
        let path = path.to_path_buf();
        let header = header.to_vec();
        let (start, len) = (shard.start, shard.end - shard.start);
        let worker = std::thread::Builder::new()
            .name(format!("csv-shard-{index}"))
            .spawn(move || {
                let io_err = |e: std::io::Error| ImportError::Csv(FrameError::Io(e.to_string()));
                let mut file = match File::open(&path) {
                    Ok(f) => f,
                    Err(e) => {
                        let _ = tx.send(Err(io_err(e)));
                        return;
                    }
                };
                if let Err(e) = file.seek(SeekFrom::Start(start)) {
                    let _ = tx.send(Err(io_err(e)));
                    return;
                }
                // Replaying the header bytes in front of the shard's byte
                // range reconstructs exactly the prefix a serial reader
                // saw, so schema handling needs no special casing; the row
                // offset keeps error labels global.
                let input = Cursor::new(header).chain(BufReader::new(file.take(len)));
                let mut reader = stream_csv(input, rows_per_chunk).with_row_offset(rows_before);
                while let Some(item) = reader.next_chunk() {
                    let failed = item.is_err();
                    if tx.send(item).is_err() || failed {
                        // Consumer hung up, or the source fused after an
                        // error — either way this lane is done.
                        return;
                    }
                }
            })?;
        Ok(ShardLane {
            rx: Some(rx),
            worker: Some(worker),
        })
    }
}

/// Parallel byte-range CSV ingest: N parse workers, one deterministic
/// stream.
///
/// [`frame::csv::split_points`] plans `shards` record-aligned byte ranges
/// over the file (resynchronising across quoted embedded newlines), then
/// one named worker thread per non-empty range streams its bytes through
/// the standard [`stream_csv`] reader — each worker replays the header in
/// front of its range, so all of [`crate::io::CsvFleetReader`]'s schema
/// and conversion rules apply unchanged. The consumer drains the lanes in
/// file order, so downstream folds see records in exactly the order a
/// serial [`stream_csv`] over the whole file would deliver them: the
/// *records* and their order are bit-identical, only the chunk boundaries
/// differ (each shard restarts its chunk budget). Per-lane channels hold
/// at most one parsed chunk, bounding residency at O(`shards`) chunks.
///
/// Error semantics match the serial reader's: [`ImportError::BadRow`]
/// labels carry global row indices (each worker is offset by the rows
/// before its shard), and after the first delivered error the reader is
/// fused. Dropping a `ShardedCsvReader` mid-stream disconnects all lanes
/// and joins their workers.
pub struct ShardedCsvReader {
    split: CsvSplit,
    lanes: Vec<ShardLane>,
    current: usize,
    done: bool,
}

impl ShardedCsvReader {
    /// Plans the byte-range split of the CSV file at `path` and starts one
    /// parse worker per non-empty shard, each yielding chunks of at most
    /// `rows_per_chunk` rows. A file with no data records gets a single
    /// lane replaying just the header, so header-only semantics (schema
    /// check, one empty chunk) match [`stream_csv`] exactly. A worker that
    /// fails to start is an [`ImportError`]; the lanes already started are
    /// disconnected and joined before it returns.
    pub fn open(
        path: &Path,
        shards: usize,
        rows_per_chunk: usize,
    ) -> Result<ShardedCsvReader, ImportError> {
        let split = frame::csv::split_points(path, shards, true)?;
        let mut planned: Vec<(usize, CsvShard, usize)> = Vec::new();
        let mut rows_before = 0usize;
        for (index, shard) in split.shards.iter().enumerate() {
            if shard.rows > 0 {
                planned.push((index, shard.clone(), rows_before));
                rows_before += shard.rows;
            }
        }
        if planned.is_empty() {
            // No data rows anywhere. Run the (empty) first range through
            // one lane anyway: the replayed header still produces the
            // serial reader's single empty chunk and required-column
            // check, and an entirely empty file still produces nothing.
            if let Some(shard) = split.shards.first() {
                planned.push((0, shard.clone(), 0));
            }
        }
        let mut reader = ShardedCsvReader {
            split,
            lanes: Vec::with_capacity(planned.len()),
            current: 0,
            done: false,
        };
        for (index, shard, rows_before) in &planned {
            // On error, dropping `reader` joins the lanes started so far.
            let lane = ShardLane::spawn(
                path,
                &reader.split.header,
                shard,
                *index,
                *rows_before,
                rows_per_chunk,
            )
            .map_err(|e| {
                ImportError::Csv(FrameError::Io(format!(
                    "cannot start csv shard thread {index}: {e}"
                )))
            })?;
            reader.lanes.push(lane);
        }
        Ok(reader)
    }

    /// The byte-range plan this reader is executing.
    pub fn split(&self) -> &CsvSplit {
        &self.split
    }

    /// Total data rows the plan counted across all shards.
    pub fn rows(&self) -> usize {
        self.split.rows()
    }
}

impl FleetChunks for ShardedCsvReader {
    type Error = ImportError;

    fn next_chunk(&mut self) -> Option<Result<Top500List, ImportError>> {
        if self.done {
            return None;
        }
        while let Some(lane) = self.lanes.get_mut(self.current) {
            let rx = lane.rx.as_ref().expect("undrained lane has a receiver");
            match rx.recv() {
                Ok(item) => {
                    if item.is_err() {
                        self.done = true;
                    }
                    return Some(item);
                }
                Err(_) => {
                    // Lane exhausted: reap it and move to the next shard.
                    lane.rx.take();
                    if let Some(worker) = lane.worker.take() {
                        let _ = worker.join();
                    }
                    self.current += 1;
                }
            }
        }
        self.done = true;
        None
    }
}

impl Drop for ShardedCsvReader {
    fn drop(&mut self) {
        // Disconnect every lane first so workers blocked on a full channel
        // error out of `send` instead of deadlocking the joins.
        for lane in &mut self.lanes {
            lane.rx.take();
        }
        for lane in &mut self.lanes {
            if let Some(worker) = lane.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::generate_full;

    fn drain<S: FleetChunks>(mut source: S) -> (Vec<SystemRecord>, Vec<usize>) {
        let mut all = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            let chunk = chunk.unwrap_or_else(|e| panic!("chunk error: {e}"));
            sizes.push(chunk.len());
            all.extend(chunk.systems().iter().cloned());
        }
        (all, sizes)
    }

    #[test]
    fn synthetic_chunks_bit_identical_to_generate_full() {
        let config = SyntheticConfig {
            n: 137,
            ..Default::default()
        };
        let full = generate_full(&config);
        for rows in [1usize, 10, 64, 137, 500] {
            let (all, sizes) = drain(SyntheticChunks::new(config, rows));
            assert_eq!(all, full.systems(), "rows {rows}");
            assert!(sizes.iter().all(|s| *s <= rows), "rows {rows}: {sizes:?}");
        }
    }

    #[test]
    fn in_memory_chunks_cover_the_list_in_order() {
        let list = generate_full(&SyntheticConfig {
            n: 50,
            ..Default::default()
        });
        let (all, sizes) = drain(InMemoryChunks::new(&list, 7));
        assert_eq!(all, list.systems());
        assert_eq!(sizes, vec![7, 7, 7, 7, 7, 7, 7, 1]);
    }

    #[test]
    fn sources_are_fused_after_exhaustion() {
        let list = generate_full(&SyntheticConfig {
            n: 3,
            ..Default::default()
        });
        let mut mem = InMemoryChunks::new(&list, 8);
        assert!(mem.next_chunk().is_some());
        assert!(mem.next_chunk().is_none());
        assert!(mem.next_chunk().is_none());
        let mut synth = SyntheticChunks::new(
            SyntheticConfig {
                n: 2,
                ..Default::default()
            },
            8,
        );
        assert!(synth.next_chunk().is_some());
        assert!(synth.next_chunk().is_none());
        assert!(synth.next_chunk().is_none());
    }

    #[test]
    fn synthetic_chunks_terminate_at_u32_max_fleet() {
        // `last + 1` on the final chunk would overflow; the source must
        // still terminate (rank 0 doubles as the exhausted marker).
        let mut source = SyntheticChunks::new(
            SyntheticConfig {
                n: u32::MAX,
                ..Default::default()
            },
            4,
        );
        source.next_rank = u32::MAX - 5;
        let mut seen = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            let chunk = chunk.unwrap();
            seen.extend(chunk.systems().iter().map(|s| s.rank));
        }
        assert_eq!(
            seen,
            (u32::MAX - 5..=u32::MAX).collect::<Vec<_>>(),
            "must cover the tail exactly once and stop"
        );
        assert!(source.next_chunk().is_none(), "source must stay fused");
    }

    #[test]
    fn zero_budget_treated_as_one() {
        let list = generate_full(&SyntheticConfig {
            n: 2,
            ..Default::default()
        });
        let (all, sizes) = drain(InMemoryChunks::new(&list, 0));
        assert_eq!(all.len(), 2);
        assert_eq!(sizes, vec![1, 1]);
    }

    #[test]
    fn prefetched_chunks_identical_to_serial_source() {
        let config = SyntheticConfig {
            n: 91,
            ..Default::default()
        };
        for rows in [1usize, 8, 91, 200] {
            let (serial, serial_sizes) = drain(SyntheticChunks::new(config, rows));
            let prefetched = Prefetched::new(SyntheticChunks::new(config, rows));
            let probe = prefetched.probe();
            let (overlapped, overlapped_sizes) = drain(prefetched);
            assert_eq!(overlapped, serial, "rows {rows}");
            assert_eq!(overlapped_sizes, serial_sizes, "rows {rows}");
            assert_eq!(probe.chunks_parsed(), serial_sizes.len());
            assert_eq!(probe.chunks_delivered(), serial_sizes.len());
        }
    }

    #[test]
    fn prefetcher_runs_at_most_one_chunk_ahead() {
        // Rendezvous backpressure: however slowly the consumer pulls, the
        // producer never holds more than one undelivered chunk.
        let config = SyntheticConfig {
            n: 64,
            ..Default::default()
        };
        let mut source = Prefetched::new(SyntheticChunks::new(config, 8));
        let probe = source.probe();
        let mut chunks = 0usize;
        while let Some(chunk) = source.next_chunk() {
            chunk.unwrap();
            chunks += 1;
            // Simulate a slow assessment step so the prefetcher has every
            // chance to run ahead if it (incorrectly) could.
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(probe.peak_ahead() <= 1, "after chunk {chunks}");
        }
        assert_eq!(chunks, 8);
        assert_eq!(probe.peak_ahead(), 1, "the double buffer was never used");
    }

    #[test]
    fn prefetcher_parses_ahead_while_consumer_holds_a_chunk() {
        let config = SyntheticConfig {
            n: 40,
            ..Default::default()
        };
        let mut source = Prefetched::new(SyntheticChunks::new(config, 10));
        let probe = source.probe();
        let first = source.next_chunk().unwrap().unwrap();
        assert_eq!(first.len(), 10);
        // While we "assess" chunk 1, chunk 2 must get parsed in the
        // background. Poll with a bounded iteration count rather than a
        // wall-clock deadline: sleeping between polls keeps the wait
        // robust on slow machines (up to ~5 s) without reading the clock,
        // so even test code keeps to the `wall-clock` determinism rule.
        let mut polls = 0u32;
        while probe.chunks_parsed() < 2 && polls < 5000 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            polls += 1;
        }
        assert!(
            probe.chunks_parsed() >= 2,
            "prefetcher never overlapped: parsed {}",
            probe.chunks_parsed()
        );
        assert_eq!(probe.chunks_delivered(), 1);
        drop(first);
        let (rest, _) = drain(source);
        assert_eq!(rest.len(), 30);
    }

    #[test]
    fn prefetched_is_fused_and_propagates_errors() {
        struct Failing(usize);
        impl FleetChunks for Failing {
            type Error = String;
            fn next_chunk(&mut self) -> Option<Result<Top500List, String>> {
                self.0 += 1;
                match self.0 {
                    1 => Some(Ok(generate_full(&SyntheticConfig {
                        n: 3,
                        ..Default::default()
                    }))),
                    2 => Some(Err("disk on fire".into())),
                    _ => panic!("source polled past its error"),
                }
            }
        }
        let mut source = Prefetched::new(Failing(0));
        assert!(source.next_chunk().unwrap().is_ok());
        assert_eq!(source.next_chunk().unwrap().unwrap_err(), "disk on fire");
        assert!(source.next_chunk().is_none(), "fused after error");
        assert!(source.next_chunk().is_none());
    }

    #[test]
    fn dropping_a_prefetched_source_mid_stream_does_not_hang() {
        let config = SyntheticConfig {
            n: 1000,
            ..Default::default()
        };
        let mut source = Prefetched::new(SyntheticChunks::new(config, 10));
        assert!(source.next_chunk().is_some());
        drop(source); // must disconnect + join, not deadlock
    }

    // ---------------------------------------------------- sharded ingest

    use crate::io::{export_csv, import_csv};
    use crate::synthetic::{mask_baseline, MaskRates};

    fn temp_csv(content: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "top500-shard-{}-{}.csv",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, content).expect("write temp csv");
        path
    }

    #[test]
    fn sharded_reader_identical_to_serial_stream_and_whole_file_import() {
        let full = generate_full(&SyntheticConfig {
            n: 60,
            ..Default::default()
        });
        let masked = mask_baseline(&full, &MaskRates::default(), 3);
        let text = export_csv(&masked);
        let path = temp_csv(&text);
        let whole = import_csv(&text).unwrap();
        for shards in [1usize, 2, 3, 5, 9, 64] {
            for rows in [1usize, 7, 64] {
                let reader = ShardedCsvReader::open(&path, shards, rows).unwrap();
                assert_eq!(reader.rows(), 60, "shards {shards} rows {rows}");
                let (all, _) = drain(reader);
                assert_eq!(all, whole.systems(), "shards {shards} rows {rows}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_reader_resyncs_comments_and_quoted_newlines() {
        // Comment lines and a quoted field spanning raw lines sit right
        // where naive byte splits would cut; the planner must resync.
        let text = "# template comment\nrank,name,rmax_tflops\n1,\"Mare,\nNostrum\",100\n\
                    # interior comment\n2,plain,50\n3,\"also\nsplit\",25\n4,tail,10\n";
        let path = temp_csv(text);
        let serial = {
            let mut reader = stream_csv(text.as_bytes(), 2);
            let mut all = Vec::new();
            while let Some(chunk) = reader.next_chunk() {
                all.extend(chunk.unwrap().systems().iter().cloned());
            }
            all
        };
        assert_eq!(serial.len(), 4);
        for shards in [2usize, 3, 4] {
            let (all, _) = drain(ShardedCsvReader::open(&path, shards, 2).unwrap());
            assert_eq!(all, serial, "shards {shards}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_reader_reports_global_rows_and_fuses_on_error() {
        // The bad row lands in a late shard; its error label must still be
        // the global data-row index a serial reader reports.
        let mut text = String::from("rank,rmax_tflops\n");
        for rank in 1..=20 {
            text.push_str(&format!("{rank},{}\n", rank * 10));
        }
        text.push_str("21,-5\n");
        let serial_err = {
            let mut reader = stream_csv(text.as_bytes(), 4);
            let mut err = None;
            while let Some(chunk) = reader.next_chunk() {
                if let Err(e) = chunk {
                    err = Some(e);
                }
            }
            err.unwrap()
        };
        assert!(matches!(serial_err, ImportError::BadRow { row: 20, .. }));
        let path = temp_csv(&text);
        let mut reader = ShardedCsvReader::open(&path, 4, 4).unwrap();
        let mut rows = 0usize;
        let mut sharded_err = None;
        while let Some(chunk) = reader.next_chunk() {
            match chunk {
                Ok(list) => rows += list.len(),
                Err(e) => sharded_err = Some(e),
            }
        }
        assert_eq!(sharded_err.unwrap(), serial_err);
        assert!(rows < 21, "rows after the bad one must not be delivered");
        assert!(reader.next_chunk().is_none(), "fused after error");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_reader_missing_required_column_fails_like_serial() {
        let path = temp_csv("name\nfoo\nbar\nbaz\n");
        let mut reader = ShardedCsvReader::open(&path, 3, 8).unwrap();
        assert_eq!(
            reader.next_chunk().unwrap().unwrap_err(),
            ImportError::MissingColumn("rank")
        );
        assert!(reader.next_chunk().is_none(), "fused after error");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_reader_header_only_and_empty_files() {
        let path = temp_csv("rank,rmax_tflops\n");
        let mut reader = ShardedCsvReader::open(&path, 4, 8).unwrap();
        let first = reader.next_chunk().unwrap().unwrap();
        assert!(first.is_empty(), "schema-bearing empty chunk, like serial");
        assert!(reader.next_chunk().is_none());
        let _ = std::fs::remove_file(&path);

        let path = temp_csv("");
        let mut reader = ShardedCsvReader::open(&path, 4, 8).unwrap();
        assert!(reader.next_chunk().is_none(), "empty file yields nothing");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_a_sharded_reader_mid_stream_does_not_hang() {
        let full = generate_full(&SyntheticConfig {
            n: 500,
            ..Default::default()
        });
        let path = temp_csv(&export_csv(&full));
        let mut reader = ShardedCsvReader::open(&path, 4, 10).unwrap();
        assert!(reader.next_chunk().is_some());
        drop(reader); // must disconnect all lanes + join, not deadlock
        let _ = std::fs::remove_file(&path);
    }
}
