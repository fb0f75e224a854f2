//! Failure injection: malformed or hostile inputs must produce typed
//! errors, never panics or silent garbage.

use top500_carbon::easyc::{EasyC, EasyCError};
use top500_carbon::frame::{csv, FrameError};
use top500_carbon::ghg::account::{operational, GhgInputs};
use top500_carbon::top500::SystemRecord;

#[test]
fn contradictory_record_negative_power() {
    let mut r = SystemRecord::bare(1, 1000.0, 1500.0);
    r.power_kw = Some(-22.0);
    let fp = EasyC::new().assess(&r);
    assert!(matches!(
        fp.operational,
        Err(EasyCError::InvalidField {
            field: "power_kw",
            ..
        })
    ));
}

#[test]
fn contradictory_record_zero_energy() {
    let mut r = SystemRecord::bare(1, 1000.0, 1500.0);
    r.annual_energy_mwh = Some(0.0);
    let fp = EasyC::new().assess(&r);
    assert!(matches!(
        fp.operational,
        Err(EasyCError::InvalidField {
            field: "annual_energy_mwh",
            ..
        })
    ));
}

#[test]
fn record_with_nothing_useful() {
    let r = SystemRecord::bare(321, 2500.0, 4000.0);
    let fp = EasyC::new().assess(&r);
    // CPU-only without cores: operational falls to the Rmax prior, but
    // embodied has no structural anchor at all.
    assert!(fp.operational.is_ok());
    assert!(matches!(
        fp.embodied,
        Err(EasyCError::NoStructuralData { rank: 321 })
    ));
}

#[test]
fn accelerated_with_generic_label_blocks_embodied() {
    let mut r = SystemRecord::bare(7, 90_000.0, 120_000.0);
    r.node_count = Some(1000);
    r.cpu_count = Some(1000);
    r.processor = Some("AMD EPYC 7763 64C 2.45GHz".to_string());
    r.accelerator = Some("NVIDIA GPU".to_string());
    r.accelerator_count = Some(4000);
    let fp = EasyC::new().assess(&r);
    assert!(matches!(
        fp.embodied,
        Err(EasyCError::GenericAcceleratorLabel { rank: 7 })
    ));
    // Operational is still fine — TDP path uses the vendor fallback wattage.
    assert!(fp.operational.is_ok());
}

#[test]
fn errors_render_human_messages() {
    let err = EasyCError::NoPowerPath { rank: 123 };
    assert!(err.to_string().contains("123"));
    let err = EasyCError::GenericAcceleratorLabel { rank: 9 };
    assert!(err.to_string().contains("family label"));
}

#[test]
fn csv_parser_rejects_malformed_not_panics() {
    // The tokenizer under a header mapped onto the file's own columns, as
    // every reader uses it: the first bad record is a CSV error.
    let read_all = |text: &str| -> Result<(), FrameError> {
        const COLUMNS: [&str; 2] = ["a", "b"];
        let mut records = csv::Tokenizer::new(text.as_bytes());
        if let Some(first) = records.next_record()? {
            let header = csv::Header::map(&first, &COLUMNS)?;
            while let Some(record) = records.next_record()? {
                header.cells(&record)?;
            }
        }
        Ok(())
    };
    for bad in [
        "a,b\n1\n",            // field count
        "a\n\"unterminated\n", // quote
        "a,b\n1,2,3\n",        // too many fields
    ] {
        match read_all(bad) {
            Err(FrameError::Csv { .. }) => {}
            other => panic!("expected CSV error for {bad:?}, got {other:?}"),
        }
    }
}

#[test]
fn csv_records_past_the_cap_fail_naming_their_line_and_the_limit() {
    use top500_carbon::easyc::ScenarioMatrix;
    use top500_carbon::top500::io::{import_csv, stream_csv, ImportError};
    use top500_carbon::top500::stream::FleetChunks;
    // Headers every reader takes (the fleet's required columns, the
    // matrix's `name` and `mask`), so each reads on to the long record.
    let header = "rank,rmax_tflops,name,mask\n";
    let two_mib = 2 << 20;
    let inputs = [
        (format!("{header}1,10,\"{}\",all\n", "x".repeat(two_mib)), 2),
        ("x".repeat(two_mib), 1),
        (
            format!(
                "{header}1,10,\"open\n{}",
                "2,5,b,all\n".repeat(two_mib / 10)
            ),
            2,
        ),
    ];
    let message = format!("record longer than {} bytes", csv::MAX_RECORD_BYTES);
    for (text, line) in &inputs {
        let expected = FrameError::Csv {
            line: *line,
            message: message.clone(),
        };
        assert_eq!(
            import_csv(text).unwrap_err(),
            ImportError::Csv(expected.clone())
        );
        for rows in [1, usize::MAX] {
            let mut chunks = stream_csv(text.as_bytes(), rows);
            let first = chunks.next_chunk().expect("an error chunk");
            assert_eq!(first.unwrap_err(), ImportError::Csv(expected.clone()));
        }
        assert_eq!(
            ScenarioMatrix::from_csv(text).unwrap_err(),
            expected.to_string()
        );
    }
}

#[test]
fn ghg_names_every_missing_metric() {
    let err = operational(&GhgInputs::new()).unwrap_err();
    assert!(err.ids.len() >= 20);
    assert!(err.ids.contains(&"refrigerant_leakage_kg"));
}

#[test]
fn thread_pool_survives_panicking_workloads() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use top500_carbon::parallel::{run, Job};
    let survived = AtomicUsize::new(0);
    let jobs = (0..50)
        .map(|i| -> Job<'_> {
            let survived = &survived;
            Box::new(move || {
                if i % 3 == 0 {
                    panic!("injected");
                }
                survived.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(4, jobs)));
    assert!(outcome.is_err(), "a job's panic reaches the caller");
    // The 17 panics stopped no other job.
    assert_eq!(survived.load(Ordering::Relaxed), 33);
    // The runner is still usable after panics.
    let ran = AtomicUsize::new(0);
    run(
        4,
        vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        })],
    );
    assert_eq!(ran.load(Ordering::Relaxed), 1);
}

#[test]
fn interpolation_of_hostile_series() {
    use top500_carbon::analysis::interpolate::nearest_peer_interpolation;
    // All-missing: refuses rather than inventing numbers.
    assert_eq!(nearest_peer_interpolation(&vec![None; 500], 5), None);
    // Single value: everything becomes that value.
    let mut series = vec![None; 100];
    series[37] = Some(42.0);
    let filled = nearest_peer_interpolation(&series, 5).unwrap();
    assert!(filled.iter().all(|&v| v == 42.0));
}

// ----------------------------------------------------------------- serve

mod serve_failures {
    use std::time::Duration;
    use top500_carbon::easyc::{EasyCConfig, FleetState};
    use top500_carbon::serve::json::Value;
    use top500_carbon::serve::{spawn, Client, ServeConfig, Server};
    use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

    fn tiny_server(config: ServeConfig) -> Server {
        let list = generate_full(&SyntheticConfig {
            n: 10,
            seed: 0x5EED_CAFE,
            ..Default::default()
        });
        let mut state = FleetState::from_list(list, EasyCConfig::default());
        state.warm();
        spawn(state, "127.0.0.1:0", config).expect("bind loopback")
    }

    fn error_code(client: &mut Client, line: &str) -> String {
        let response = client.request(line).expect("a structured error line");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(false),
            "expected an error response for {line:?}"
        );
        response
            .get("code")
            .and_then(Value::as_str)
            .expect("error responses carry a code")
            .to_string()
    }

    fn assert_serviceable(client: &mut Client) {
        let status = client.request(r#"{"op":"status"}"#).expect("status");
        assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
        let assess = client
            .request(r#"{"op":"assess","draws":4,"seed":9}"#)
            .expect("assess");
        assert_eq!(assess.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn malformed_jsonl_yields_structured_errors_and_the_line_stays_usable() {
        let server = tiny_server(ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        for (line, want) in [
            ("this is not json", "malformed-request"),
            (r#"{"op""#, "malformed-request"),
            (r#"{"op":5}"#, "malformed-request"),
            (r#"{}"#, "malformed-request"),
            (r#"[1,2,3]"#, "malformed-request"),
            (r#"{"op":"assess","draws":-3}"#, "malformed-request"),
            (r#"{"op":"assess","draws":1.5}"#, "malformed-request"),
            (r#"{"op":"assess","confidence":2.0}"#, "malformed-request"),
            (r#"{"op":"assess","mask":"all -bogus"}"#, "bad-scenario"),
            (r#"{"op":"sweep"}"#, "bad-scenario"),
            (
                r#"{"op":"sweep","matrix_csv":"name,mask\n"}"#,
                "bad-scenario",
            ),
            (r#"{"op":"compare","matrix_csv":"x"}"#, "bad-scenario"),
            (r#"{"op":"invalidate"}"#, "malformed-request"),
            (r#"{"op":"invalidate","hash":"zzz"}"#, "malformed-request"),
            (r#"{"op":"selfdestruct"}"#, "unknown-op"),
        ] {
            assert_eq!(error_code(&mut client, line), want, "for {line:?}");
        }
        // After fifteen hostile lines, the same connection still serves.
        assert_serviceable(&mut client);
        server.shutdown();
    }

    #[test]
    fn hostile_json_fragments_yield_error_frames_not_dropped_connections() {
        // Regression for the request-path panic retrofit: payloads aimed at
        // the hand-rolled JSON parser's edge cases (unterminated strings,
        // bad/truncated escapes, missing values) must come back as
        // structured `malformed-request` frames on a connection that keeps
        // serving — not as a panicked worker and a dropped socket.
        let server = tiny_server(ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        for line in [
            r#"{"op":"assess","pad":"unterminated"#,
            r#"{"op":"assess","pad":"bad \q escape"}"#,
            r#"{"op":"assess","pad":"\u00"}"#,
            r#"{"op":"assess","draws":}"#,
            "null",
            "[",
            "{",
            r#"{"op":"#,
        ] {
            assert_eq!(
                error_code(&mut client, line),
                "malformed-request",
                "for {line:?}"
            );
        }
        assert_serviceable(&mut client);
        server.shutdown();
    }

    #[test]
    fn sweep_pairs_every_scenario_with_exactly_one_summary() {
        // The retrofitted summary path walks scenario slices zipped with
        // their interval rows (never indexing one array by the other's
        // length); a well-formed sweep must come back with exactly one
        // result object per requested scenario.
        let server = tiny_server(ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        let line = concat!(
            r#"{"op":"sweep","draws":8,"seed":3,"#,
            r#""matrix_csv":"name,mask\nbaseline,all\nnopower,all -power\nblind,none"}"#,
        );
        let response = client.request(line).expect("sweep");
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(response.get("scenarios").and_then(Value::as_usize), Some(3));
        let results = response
            .get("results")
            .and_then(Value::as_array)
            .expect("results array");
        assert_eq!(results.len(), 3);
        let names: Vec<&str> = results
            .iter()
            .map(|s| s.get("name").and_then(Value::as_str).expect("summary name"))
            .collect();
        assert_eq!(names, ["baseline", "nopower", "blind"]);
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_the_stream_stays_in_sync() {
        let server = tiny_server(ServeConfig {
            max_line_bytes: 256,
            ..Default::default()
        });
        let mut client = Client::connect(server.addr()).unwrap();
        // Far past the bound — the server must discard through the newline
        // with bounded memory, answer once, and keep the framing.
        let huge = format!(r#"{{"op":"assess","pad":"{}"}}"#, "x".repeat(64 * 1024));
        assert_eq!(error_code(&mut client, &huge), "oversized-request");
        assert_serviceable(&mut client);
        // Pipelined: oversized then a valid status in one write — both
        // answered, in order.
        let mut pipelined = Client::connect(server.addr()).unwrap();
        pipelined.send_only(&huge).unwrap();
        let response = pipelined.request(r#"{"op":"status"}"#).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            response.get("code").and_then(Value::as_str),
            Some("oversized-request")
        );
        let status = pipelined.request(r#"{"op":"status"}"#).unwrap();
        assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
        server.shutdown();
    }

    #[test]
    fn client_disconnect_mid_response_never_wedges_a_worker() {
        let server = tiny_server(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        // Fire a compute request and hang up without reading the reply;
        // the single worker must absorb the dead reply channel.
        for seed in 0..3 {
            let mut doomed = Client::connect(server.addr()).unwrap();
            doomed
                .send_only(&format!(r#"{{"op":"assess","draws":64,"seed":{seed}}}"#))
                .unwrap();
            drop(doomed);
        }
        let mut client = Client::connect(server.addr()).unwrap();
        assert_serviceable(&mut client);
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_load_with_a_structured_error_then_recovers() {
        // One worker, one queue slot: `hold` parks the worker, the next
        // request fills the queue, the third must bounce — depth-first
        // deterministic backpressure, no clocks involved.
        let server = tiny_server(ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        });
        let addr = server.addr();
        // audit: allow(thread-spawn) — test client parking the worker; no result computation on this thread
        let holder = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let response = client.request(r#"{"op":"hold"}"#).unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        });
        // Wait until the worker has the hold in hand (status counts it).
        let mut control = Client::connect(addr).unwrap();
        loop {
            let status = control.request(r#"{"op":"status"}"#).unwrap();
            if status.get("queued").and_then(Value::as_usize) == Some(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Occupy the single queue slot with a second compute request.
        // audit: allow(thread-spawn) — test client occupying the queue slot; no result computation on this thread
        let queued = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let response = client
                .request(r#"{"op":"assess","draws":4,"seed":1}"#)
                .unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        });
        loop {
            let status = control.request(r#"{"op":"status"}"#).unwrap();
            if status.get("queued").and_then(Value::as_usize) == Some(2) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Worker busy + queue full: the third compute request bounces
        // immediately with the structured backpressure error.
        assert_eq!(
            error_code(&mut control, r#"{"op":"assess","draws":4,"seed":2}"#),
            "queue-full"
        );
        // Release the held worker; everything in flight completes.
        let response = control.request(r#"{"op":"release"}"#).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        holder.join().unwrap();
        queued.join().unwrap();
        assert_serviceable(&mut control);
        server.shutdown();
    }

    #[test]
    fn slow_requests_time_out_with_a_structured_error_not_a_hang() {
        let server = tiny_server(ServeConfig {
            workers: 1,
            request_timeout: Duration::from_millis(100),
            ..Default::default()
        });
        let mut client = Client::connect(server.addr()).unwrap();
        // `hold` parks the only worker past the reply deadline.
        assert_eq!(error_code(&mut client, r#"{"op":"hold"}"#), "timeout");
        // Unpark it; the connection — and the server — recover.
        let response = client.request(r#"{"op":"release"}"#).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        assert_serviceable(&mut client);
        server.shutdown();
    }
}
