//! End-to-end serving tests: a loopback JSONL server over a resident
//! [`FleetState`] must answer **byte-identically** whether its footprint
//! cache is warm or cold, agree bit-for-bit with a from-scratch
//! [`Assessment`], and survive many concurrent clients hammering mixed
//! queries.

use std::sync::{RwLock, RwLockReadGuard};
use top500_carbon::easyc::{
    Assessment, EasyCConfig, FleetState, Interval, PartialAssessment, ScenarioMatrix,
};
use top500_carbon::serve::json::{bits_from_hex, parse, Value};
use top500_carbon::serve::{spawn, Client, ServeConfig};
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

const SEED: u64 = 0x5EED_CAFE;

/// Every test here holds this shared, except the address-space test,
/// which holds it exclusively: no other test's threads (nor the malloc
/// arenas they reserve) may move `VmSize` while it measures.
static ADDRESS_SPACE: RwLock<()> = RwLock::new(());

fn shared_address_space() -> RwLockReadGuard<'static, ()> {
    ADDRESS_SPACE.read().unwrap_or_else(|e| e.into_inner())
}

fn fleet_state(n: u32, warm: bool) -> FleetState {
    let list = generate_full(&SyntheticConfig {
        n,
        seed: SEED,
        ..Default::default()
    });
    let mut state = FleetState::from_list(list, EasyCConfig::default());
    if warm {
        state.warm();
    }
    state
}

fn bits(value: &Value, path: &[&str]) -> u64 {
    let mut v = value;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("missing field {key}"));
    }
    bits_from_hex(v.as_str().expect("bits fields are hex strings"))
        .expect("valid hex bits")
        .to_bits()
}

/// The exact bits of the interval a reply carries at `path`: point, lo, hi.
fn interval_bits(value: &Value, path: &[&str]) -> [u64; 3] {
    ["point_bits", "lo_bits", "hi_bits"].map(|key| bits(value, &[path, &[key]].concat()))
}

fn bits_of(interval: Option<Interval>) -> [u64; 3] {
    let iv = interval.expect("draws requested");
    [iv.point, iv.lo, iv.hi].map(f64::to_bits)
}

#[test]
fn warm_and_cold_servers_answer_byte_identically_and_match_a_cold_session() {
    let _shared = shared_address_space();
    let warm = spawn(fleet_state(60, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let cold = spawn(
        fleet_state(60, false),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let mut warm_client = Client::connect(warm.addr()).unwrap();
    let mut cold_client = Client::connect(cold.addr()).unwrap();

    // The default-scenario assess is the warm path on one server and a
    // fresh columnar run on the other; modulo the advertised `warm` flag
    // the response lines must be equal bytes.
    let request = r#"{"op":"assess","draws":64,"seed":7}"#;
    let from_warm = warm_client.request_raw(request).unwrap();
    let from_cold = cold_client.request_raw(request).unwrap();
    assert!(from_warm.contains(r#""warm":true"#));
    assert_eq!(
        from_warm.replace(r#""warm":true"#, r#""warm":false"#),
        from_cold,
        "warm and cold responses diverge beyond the warm flag"
    );

    // And the bits inside agree exactly with a from-scratch session.
    let list = generate_full(&SyntheticConfig {
        n: 60,
        seed: SEED,
        ..Default::default()
    });
    let output = Assessment::of(&list).uncertainty(64).seed(7).run();
    let mut partial = PartialAssessment::identity(0);
    partial.absorb(0, &output.slices()[0].footprints);
    let totals = partial.finish();
    let parsed = parse(&from_warm).unwrap();
    assert_eq!(
        bits(&parsed, &["result", "operational_bits"]),
        totals.operational_mt.to_bits()
    );
    assert_eq!(
        bits(&parsed, &["result", "embodied_bits"]),
        totals.embodied_mt.to_bits()
    );
    let interval = output.intervals()[0].expect("draws requested");
    assert_eq!(
        bits(&parsed, &["result", "operational_interval", "lo_bits"]),
        interval.lo.to_bits()
    );
    assert_eq!(
        bits(&parsed, &["result", "operational_interval", "hi_bits"]),
        interval.hi.to_bits()
    );
    let embodied = output.embodied_intervals()[0].expect("draws requested");
    assert_eq!(
        bits(&parsed, &["result", "embodied_interval", "lo_bits"]),
        embodied.lo.to_bits()
    );

    // A masked/overridden scenario never hits the cache, so it exercises
    // the cold engine on both servers — still equal bytes throughout.
    let request =
        r#"{"op":"assess","scenario":"stress","mask":"all -power","pue":1.25,"draws":16,"seed":3}"#;
    let a = warm_client.request_raw(request).unwrap();
    let b = cold_client.request_raw(request).unwrap();
    assert_eq!(
        a.replace(r#""warm":true"#, r#""warm":false"#),
        b,
        "masked-scenario responses diverge"
    );

    warm.shutdown();
    cold.shutdown();
}

#[test]
fn sweep_csv_over_the_wire_is_byte_identical_to_the_session_artifact() {
    let _shared = shared_address_space();
    let server = spawn(fleet_state(40, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let matrix_csv = ScenarioMatrix::csv_template();
    let request = top500_carbon::serve::json::Obj::new()
        .field_str("op", "sweep")
        .field_str("matrix_csv", &matrix_csv)
        .field_int("draws", 24)
        .field_int("seed", 11)
        .finish();
    let response = client.request(&request).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("scenarios").and_then(Value::as_usize), Some(5));

    let list = generate_full(&SyntheticConfig {
        n: 40,
        seed: SEED,
        ..Default::default()
    });
    let matrix = ScenarioMatrix::from_csv(&matrix_csv).unwrap();
    let output = Assessment::of(&list)
        .scenarios(&matrix)
        .uncertainty(24)
        .seed(11)
        .run();
    let expected = top500_carbon::frame::csv::write(&output.to_frame());
    assert_eq!(
        response.get("csv").and_then(Value::as_str),
        Some(expected.as_str()),
        "the served sweep CSV must be the session artifact, byte for byte"
    );

    // compare over the same matrix agrees with the session's paired delta.
    let request = top500_carbon::serve::json::Obj::new()
        .field_str("op", "compare")
        .field_str("matrix_csv", &matrix_csv)
        .field_str("baseline", "full")
        .field_str("variant", "clean-grid")
        .field_int("draws", 24)
        .field_int("seed", 11)
        .finish();
    let response = client.request(&request).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let delta = output.compare("full", "clean-grid").expect("paired draws");
    let total = delta.total.expect("total delta interval");
    assert_eq!(
        bits(&response, &["total", "point_bits"]),
        total.point.to_bits()
    );
    assert_eq!(bits(&response, &["total", "lo_bits"]), total.lo.to_bits());
    assert_eq!(bits(&response, &["total", "hi_bits"]), total.hi.to_bits());
    assert_eq!(
        interval_bits(&response, &["operational"]),
        bits_of(delta.operational)
    );
    assert_eq!(
        interval_bits(&response, &["embodied"]),
        bits_of(delta.embodied)
    );

    server.shutdown();
}

#[test]
fn a_non_finite_matrix_override_is_a_bad_scenario_and_the_worker_lives() {
    let _shared = shared_address_space();
    // One compute worker: were the hostile sweep to kill it, nothing would
    // answer the follow-up requests.
    let config = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let server = spawn(fleet_state(50, true), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sweep = top500_carbon::serve::json::Obj::new()
        .field_str("op", "sweep")
        .field_str(
            "matrix_csv",
            "name,mask,pue_override,utilization_override,aci_override\nbad,all,,,NaN\n",
        )
        .field_int("draws", 8)
        .finish();
    let reply = client.request_raw(&sweep).unwrap();
    assert!(reply.contains(r#""code":"bad-scenario""#), "{reply}");
    assert!(reply.contains("aci_override"), "{reply}");
    let assess = client.request_raw(r#"{"op":"assess","draws":8}"#).unwrap();
    assert!(assess.contains(r#""ok":true"#), "{assess}");
    let status = client.request_raw(r#"{"op":"status"}"#).unwrap();
    assert!(status.contains(r#""queued":0"#), "{status}");
    server.shutdown();
}

#[test]
fn a_draw_count_past_the_cap_is_malformed_and_the_connection_lives() {
    let _shared = shared_address_space();
    let config = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let server = spawn(fleet_state(50, true), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Refused before anything is allocated: 10^9 draws would need 8 GB
    // per buffer, and the cap counts draws over every scenario a run
    // assesses, so a matrix divides it (2^20 draws fit one scenario, not
    // two; 1000 draws do not fit a 1049-scenario sweep). A compare runs
    // only its two scenarios, so its default 1000 draws fit any matrix.
    let matrix = |rows: usize| {
        let mut csv = String::from("name,mask\n");
        for i in 0..rows {
            let mask = if i % 2 == 1 { "all -power" } else { "all" };
            csv.push_str(&format!("s{i},{mask}\n"));
        }
        csv
    };
    let request = |op: &str, rows: usize, draws: Option<usize>| {
        let mut request = top500_carbon::serve::json::Obj::new()
            .field_str("op", op)
            .field_str("matrix_csv", &matrix(rows));
        if op == "compare" {
            request = request
                .field_str("baseline", "s0")
                .field_str("variant", "s1");
        }
        if let Some(draws) = draws {
            request = request.field_int("draws", draws);
        }
        request.finish()
    };
    let refused = [
        (
            r#"{"op":"assess","draws":1000000000}"#.to_string(),
            "1048576",
        ),
        (request("sweep", 2, Some(1 << 20)), "524288"),
        (request("compare", 2, Some((1 << 19) + 1)), "524288"),
        (request("sweep", 1049, Some(1000)), "999"),
    ];
    for (line, max) in refused {
        let reply = client.request_raw(&line).unwrap();
        assert!(reply.contains(r#""code":"malformed-request""#), "{reply}");
        assert!(reply.contains(&format!("at most {max} ")), "{reply}");
        assert!(reply.contains("1048576"), "{reply}");
        let assess = client.request_raw(r#"{"op":"assess","draws":8}"#).unwrap();
        assert!(assess.contains(r#""ok":true"#), "{assess}");
    }
    // The 1049-scenario compare is answered, with the bits of an
    // in-process run of its two scenarios at the default 1000 draws.
    let reply = client.request(&request("compare", 1049, None)).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let pair = ScenarioMatrix::from_csv(&matrix(2)).unwrap();
    let state = fleet_state(50, true);
    let output = state.query().scenarios(&pair).uncertainty(1000).run();
    let delta = output.compare("s0", "s1").expect("paired draws");
    for (key, interval) in [
        ("operational", delta.operational),
        ("embodied", delta.embodied),
        ("total", delta.total),
    ] {
        assert_eq!(interval_bits(&reply, &[key]), bits_of(interval), "{key}");
    }
    server.shutdown();
}

#[test]
fn seeds_past_two_to_the_53_are_served_exactly() {
    let _shared = shared_address_space();
    let server = spawn(fleet_state(30, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let state = fleet_state(30, true);
    let assess = |seed: u64| format!(r#"{{"op":"assess","draws":8,"seed":{seed}}}"#);
    for seed in [(1 << 53) + 1, u64::MAX] {
        let reply = client.request(&assess(seed)).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{seed}"
        );
        let output = state.query().uncertainty(8).seed(seed).run();
        assert_eq!(
            interval_bits(&reply, &["result", "operational_interval"]),
            bits_of(output.intervals()[0]),
            "{seed}"
        );
        assert_eq!(
            interval_bits(&reply, &["result", "embodied_interval"]),
            bits_of(output.embodied_intervals()[0]),
            "{seed}"
        );
    }
    // Read through `f64`, 2^53 + 1 would round to 2^53.
    let above = client.request_raw(&assess((1 << 53) + 1)).unwrap();
    let at = client.request_raw(&assess(1 << 53)).unwrap();
    assert_ne!(above, at);
    server.shutdown();
}

#[test]
fn numeric_looking_scenario_names_are_served_verbatim() {
    let _shared = shared_address_space();
    let server = spawn(fleet_state(30, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let compare = |baseline: &str, variant: &str| {
        top500_carbon::serve::json::Obj::new()
            .field_str("op", "compare")
            .field_str(
                "matrix_csv",
                "name,mask,pue_override\n007,all,\n1.50,all -power,\nTrue,all,1.1\n",
            )
            .field_str("baseline", baseline)
            .field_str("variant", variant)
            .field_int("draws", 8)
            .finish()
    };
    let reply = client.request_raw(&compare("007", "True")).unwrap();
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    // The names are the matrix's own text, not numbers read from it.
    let reply = client.request_raw(&compare("7", "true")).unwrap();
    assert!(reply.contains(r#""code":"bad-scenario""#), "{reply}");
    server.shutdown();
}

#[test]
fn concurrent_clients_see_identical_bytes_for_identical_queries() {
    let _shared = shared_address_space();
    let config = ServeConfig {
        workers: 4,
        queue_depth: 64,
        ..Default::default()
    };
    let server = spawn(fleet_state(30, true), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let matrix_csv = ScenarioMatrix::csv_template();

    // N threads × mixed ops: every thread issues the same fixed request
    // set (plus a per-thread variation) and records the raw bytes.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let matrix_csv = matrix_csv.clone();
            // audit: allow(thread-spawn) — test clients hammering the server; no result computation happens on these threads
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let shared_assess = client
                    .request_raw(r#"{"op":"assess","draws":32,"seed":5}"#)
                    .unwrap();
                let sweep_request = top500_carbon::serve::json::Obj::new()
                    .field_str("op", "sweep")
                    .field_str("matrix_csv", &matrix_csv)
                    .field_int("draws", 8)
                    .field_int("seed", 2)
                    .finish();
                let shared_sweep = client.request_raw(&sweep_request).unwrap();
                // Per-thread seed: ask twice on the same connection; the
                // answer must be deterministic request-by-request too.
                let own = format!(r#"{{"op":"assess","draws":16,"seed":{t}}}"#);
                let first = client.request_raw(&own).unwrap();
                let second = client.request_raw(&own).unwrap();
                assert_eq!(first, second, "thread {t}: repeat query changed bytes");
                assert!(first.contains(r#""ok":true"#));
                (shared_assess, shared_sweep)
            })
        })
        .collect();
    let results: Vec<(String, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (assess, sweep) in &results[1..] {
        assert_eq!(assess, &results[0].0, "assess bytes diverge across clients");
        assert_eq!(sweep, &results[0].1, "sweep bytes diverge across clients");
    }
    assert!(results[0].0.contains(r#""warm":true"#));

    server.shutdown();
}

#[test]
fn an_oversized_workers_field_gets_the_same_reply_bytes_as_none() {
    let _shared = shared_address_space();
    // The server caps a requested fan-out at the state's own worker count,
    // and results are bit-identical at any worker count, so a client asking
    // for 3000 threads gets exactly the bytes of the plain request.
    let server = spawn(fleet_state(40, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for plain in [
        r#"{"op":"assess","draws":16,"seed":3"#,
        r#"{"op":"assess","mask":"all -power","draws":8"#,
    ] {
        let without = client.request_raw(&format!("{plain}}}")).unwrap();
        let oversized = client
            .request_raw(&format!(r#"{plain},"workers":3000}}"#))
            .unwrap();
        assert!(without.contains(r#""ok":true"#), "{without}");
        assert_eq!(oversized, without, "request {plain}}}");
    }
    server.shutdown();
}

#[test]
fn invalidate_evicts_the_current_cache_and_ignores_stale_hashes() {
    let _shared = shared_address_space();
    let server = spawn(fleet_state(25, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert_eq!(status.get("warm").and_then(Value::as_bool), Some(true));
    let hash = status
        .get("source_hash")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // Record the warm bits, then evict with the *current* hash.
    let warm_answer = client
        .request_raw(r#"{"op":"assess","draws":8,"seed":1}"#)
        .unwrap();
    let request = format!(r#"{{"op":"invalidate","hash":"{hash}"}}"#);
    let response = client.request(&request).unwrap();
    assert_eq!(
        response.get("code").and_then(Value::as_str),
        Some("evicted")
    );
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert_eq!(status.get("warm").and_then(Value::as_bool), Some(false));

    // Cold answers carry the same carbon bytes (only the flag flips).
    let cold_answer = client
        .request_raw(r#"{"op":"assess","draws":8,"seed":1}"#)
        .unwrap();
    assert_eq!(
        warm_answer.replace(r#""warm":true"#, r#""warm":false"#),
        cold_answer
    );

    // A stale hash is a distinct no-op outcome, not an eviction.
    let stale = format!("{:016x}", u64::from_str_radix(&hash, 16).unwrap() ^ 1);
    let request = format!(r#"{{"op":"invalidate","hash":"{stale}"}}"#);
    let response = client.request(&request).unwrap();
    assert_eq!(
        response.get("code").and_then(Value::as_str),
        Some("stale-hash")
    );
    assert_eq!(
        response.get("source_hash").and_then(Value::as_str),
        Some(hash.as_str()),
        "a stale invalidate must not move the source hash"
    );

    server.shutdown();
}

#[test]
fn editing_a_csv_cell_evicts_the_cache_and_advances_the_hash() {
    let _shared = shared_address_space();
    // The state-level regression behind the serve `invalidate` contract: a
    // one-cell source edit re-keys the cache, and the old hash goes stale.
    let list = generate_full(&SyntheticConfig {
        n: 12,
        seed: SEED,
        ..Default::default()
    });
    let text = top500_carbon::top500::io::export_csv(&list);
    let mut state = FleetState::from_csv(&text, EasyCConfig::default()).unwrap();
    state.warm();
    let old_hash = state.source_hash();

    // Edit one numeric cell (the second data row's Rmax) and re-source.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let edited_row = lines[2].clone();
    let mut cells: Vec<&str> = edited_row.split(',').collect();
    let bumped = format!("{}", cells[10].parse::<f64>().unwrap() * 1.5);
    cells[10] = &bumped;
    lines[2] = cells.join(",");
    let edited = format!("{}\n", lines.join("\n"));
    assert_ne!(edited, text);

    state.update_source(&edited).unwrap();
    assert_ne!(state.source_hash(), old_hash, "edited source must re-key");
    assert!(!state.is_warm(), "a source edit evicts the footprint cache");

    // The displaced hash is now stale: invalidating through it is a no-op.
    use top500_carbon::easyc::InvalidateOutcome;
    assert_eq!(state.invalidate(old_hash), InvalidateOutcome::Stale);
    state.warm();
    assert_eq!(
        state.invalidate(state.source_hash()),
        InvalidateOutcome::Evicted
    );
    assert!(!state.is_warm());
}

#[cfg(target_os = "linux")]
#[test]
fn sequential_connections_do_not_grow_the_address_space() {
    // Each connection runs on its own thread. Once its client hangs up,
    // that thread must be joined, not kept (stack mapped) until shutdown.
    let _exclusive = ADDRESS_SPACE.write().unwrap_or_else(|e| e.into_inner());
    fn vm_size_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }
    let server = spawn(fleet_state(20, true), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr();
    let status = || {
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request_raw(r#"{"op":"status"}"#).unwrap();
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    };
    // A few connections first, so the arenas and stacks a steady state
    // reuses exist before the baseline is read.
    (0..16).for_each(|_| status());
    let before = vm_size_kib();
    (0..400).for_each(|_| status());
    let grown = vm_size_kib().saturating_sub(before);
    assert!(
        grown < 256 * 1024,
        "VmSize grew {grown} KiB over 400 sequential connections"
    );
    server.shutdown();
}
