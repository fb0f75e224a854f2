//! Resident-service latency: what keeping a warm [`FleetState`] buys over
//! a cold session. Four rungs on a 2,000-system fleet — cold session
//! (parse-adjacent full build each request), resident startup (build +
//! warm, paid once), warm cache-hit query, and the O(k) incremental
//! `update_rows` repair — plus the same warm query over loopback TCP
//! through the serve front end. The warm and incremental paths are
//! asserted bit-identical to the cold session before any timing. Run with
//! `BENCH_JSON=BENCH_serve.json` to capture machine-readable numbers.

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, Criterion};
use easyc::{Assessment, EasyCConfig, FleetState};
use top500::synthetic::{generate_full, SyntheticConfig};

const N: u32 = 2000;
const TOUCHED: usize = 8;

fn bench_serve_latency(c: &mut Criterion) {
    let list = generate_full(&SyntheticConfig {
        n: N,
        seed: BENCH_SEED,
        ..Default::default()
    });
    let mut state = FleetState::from_list(list.clone(), EasyCConfig::default());
    state.warm();

    // The warm path must be the cold path, bit for bit, before it gets to
    // claim a speedup.
    let cold = Assessment::of(&list)
        .workers(1)
        .uncertainty(64)
        .seed(9)
        .run();
    let warm = state.query().workers(1).uncertainty(64).seed(9).run();
    assert_eq!(cold.intervals()[0], warm.intervals()[0]);
    for (a, b) in cold.slices()[0]
        .footprints
        .iter()
        .zip(&warm.slices()[0].footprints)
    {
        assert_eq!(
            a.operational.as_ref().map(|o| o.mt_co2e.to_bits()).ok(),
            b.operational.as_ref().map(|o| o.mt_co2e.to_bits()).ok()
        );
    }

    // Cold vs warm at draws=0: the pure footprint-cache win, with no
    // Monte-Carlo time diluting it.
    c.bench_function("serve_latency/cold_session_2000", |b| {
        b.iter(|| Assessment::of(std::hint::black_box(&list)).workers(1).run())
    });
    c.bench_function("serve_latency/warm_query_2000", |b| {
        b.iter(|| std::hint::black_box(&state).query().workers(1).run())
    });

    // The same pair with 64 Monte-Carlo draws: the draw kernels re-run on
    // both sides (CRN streams are keyed by system, not cached), so the
    // cache saves only the estimation phase.
    c.bench_function("serve_latency/cold_session_draws64_2000", |b| {
        b.iter(|| {
            Assessment::of(std::hint::black_box(&list))
                .workers(1)
                .uncertainty(64)
                .seed(9)
                .run()
        })
    });

    // Residency startup: columns + serial footprint fold, paid once.
    c.bench_function("serve_latency/state_build_and_warm_2000", |b| {
        b.iter(|| {
            let mut s =
                FleetState::from_list(std::hint::black_box(list.clone()), EasyCConfig::default());
            s.warm();
            s
        })
    });

    c.bench_function("serve_latency/warm_query_draws64_2000", |b| {
        b.iter(|| {
            std::hint::black_box(&state)
                .query()
                .workers(1)
                .uncertainty(64)
                .seed(9)
                .run()
        })
    });

    // Incremental: splice 8 edited rows and re-estimate only the touched
    // footprints — the cache stays warm throughout.
    let mut edit_a: Vec<_> = list.systems()[100..100 + TOUCHED].to_vec();
    let mut edit_b = edit_a.clone();
    for r in &mut edit_a {
        r.power_kw = Some(2_500.0);
    }
    for r in &mut edit_b {
        r.power_kw = Some(3_500.0);
    }
    let mut flip = false;
    c.bench_function("serve_latency/incremental_update_rows_k8_2000", |b| {
        b.iter(|| {
            flip = !flip;
            let rows = if flip { edit_a.clone() } else { edit_b.clone() };
            state
                .update_rows(100, rows)
                .expect("rank-preserving splice")
        })
    });
    assert!(
        state.is_warm(),
        "the incremental path must keep the cache warm"
    );

    // The warm query through the full serve stack: JSONL over loopback
    // TCP, bounded queue, compute worker, pinned-fold summary.
    let mut wire_state = FleetState::from_list(list, EasyCConfig::default());
    wire_state.warm();
    let server = serve::spawn(wire_state, "127.0.0.1:0", serve::ServeConfig::default())
        .expect("bind loopback");
    let mut client = serve::Client::connect(server.addr()).expect("connect");
    let request = r#"{"op":"assess","workers":1}"#;
    let first = client.request_raw(request).expect("assess");
    assert!(first.contains(r#""ok":true"#) && first.contains(r#""warm":true"#));
    c.bench_function("serve_latency/wire_assess_warm_2000", |b| {
        b.iter(|| {
            client
                .request_raw(std::hint::black_box(request))
                .expect("assess")
        })
    });
    server.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve_latency
}
criterion_main!(benches);
