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
//!   the byte-level `frame::csv::Tokenizer` and parsed straight into
//!   records (files larger than RAM).
//! - [`SyntheticChunks`] — the calibrated synthetic generator, chunked;
//!   each chunk is bit-identical to the same rank slice of
//!   [`crate::synthetic::generate_full`], so a million-row fleet needs no
//!   materialization.
//! - [`InMemoryChunks`] — an already-loaded list re-served in chunks, used
//!   to pin streamed-vs-in-memory bit-identity in tests.
//!
//! Plus one combinator: [`Prefetched`] wraps any `Send` source and parses
//! the next chunk on a dedicated background thread while the consumer
//! works on the current one — a double buffer with rendezvous
//! backpressure, so ingest latency hides behind assessment without the
//! residency bound growing past two chunks.

use crate::list::Top500List;
use crate::record::SystemRecord;
use crate::synthetic::{generate_range, SyntheticConfig};
use std::convert::Infallible;
use std::fmt::Display;
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
        #[expect(
            clippy::disallowed_methods,
            reason = "one parse thread per stream, bounded one chunk ahead by a rendezvous channel"
        )]
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
            // audit: allow(panic-surface) — one thread per stream at set-up; failing to spawn it means the OS is out of threads, where `std::thread::spawn` panics too
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
}
