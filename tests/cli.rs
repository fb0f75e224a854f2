//! Command-line argument checks: the binary must refuse what it does not
//! understand, with exit status 1 and an error naming the argument,
//! instead of silently dropping it.

use std::process::Command;
use top500_carbon::easyc::ScenarioMatrix;
use top500_carbon::top500::io::export_csv;
use top500_carbon::top500::synthetic::{generate_full, SyntheticConfig};

#[test]
fn unknown_flags_and_extra_paths_are_usage_errors() {
    let scenarios = std::env::temp_dir().join(format!("cli-scenarios-{}.csv", std::process::id()));
    std::fs::write(&scenarios, ScenarioMatrix::csv_template()).expect("write scenarios");
    let scen = scenarios.to_str().unwrap();
    for (args, named) in [
        (vec!["sweep", scen, "--bogus"], "--bogus"),
        (vec!["sweep", scen, "a.csv", "b.csv"], "b.csv"),
        (vec!["sweep", scen, "--stream", "--shards", "4"], "--shards"),
        (
            vec!["query", "--addr", "127.0.0.1:1", "--raw", "status"],
            "--raw",
        ),
        (vec!["serve", "a.csv", "--synthetic", "100"], "--synthetic"),
        // A repeated flag is refused, not resolved to its first or last use.
        (
            vec!["sweep", scen, "--draws", "5", "--draws", "6"],
            "--draws",
        ),
        (
            vec!["serve", "--workers", "1", "--workers", "4"],
            "--workers",
        ),
        (
            vec![
                "query",
                "--addr",
                "127.0.0.1:1",
                "--seed",
                "1",
                "--seed",
                "2",
                "status",
            ],
            "--seed",
        ),
        (vec!["sweep", scen, "--stream", "--stream"], "--stream"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
            .args(&args)
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
    }
    std::fs::remove_file(&scenarios).ok();
}

#[test]
fn non_finite_matrix_overrides_are_refused_and_overflowing_ones_run() {
    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
            .args(args)
            .output()
            .expect("run the CLI")
    };
    let header = "name,mask,pue_override,utilization_override,aci_override\n";
    let matrix = std::env::temp_dir().join(format!("cli-nan-matrix-{}.csv", std::process::id()));
    std::fs::write(&matrix, format!("{header}bad,all,,,NaN\n")).expect("write matrix");
    let path = matrix.to_str().unwrap();
    let output = cli(&["sweep", path, "--synthetic", "50", "--draws", "8"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("aci_override"), "{stderr}");

    // Finite overrides whose totals overflow: the paired deltas are
    // `inf − inf`, which must print, not panic.
    std::fs::write(&matrix, format!("{header}a,all,,,1e308\nb,all,,,1e308\n"))
        .expect("write matrix");
    let output = cli(&[
        "sweep",
        path,
        "--synthetic",
        "50",
        "--compare",
        "a,b",
        "--draws",
        "8",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn empty_or_comment_only_systems_csv_is_an_error_in_both_modes() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let scenarios = dir.join(format!("cli-empty-scenarios-{id}.csv"));
    std::fs::write(&scenarios, ScenarioMatrix::csv_template()).expect("write scenarios");
    let out = dir.join(format!("cli-empty-out-{id}.csv"));
    for (label, text) in [("empty", ""), ("comments", "# nothing\n  # here\r\n")] {
        let systems = dir.join(format!("cli-empty-{label}-{id}.csv"));
        std::fs::write(&systems, text).expect("write systems");
        let (scen, sys) = (scenarios.to_str().unwrap(), systems.to_str().unwrap());
        for stream in [false, true] {
            let mut args = vec!["sweep", scen, sys, "--out", out.to_str().unwrap()];
            if stream {
                args.push("--stream");
            }
            let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
                .args(&args)
                .output()
                .expect("run the CLI");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{label} {args:?}: {stderr}");
            assert!(stderr.contains("`rank`"), "{label} {args:?}: {stderr}");
        }
        std::fs::remove_file(&systems).ok();
    }
    std::fs::remove_file(&scenarios).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn a_malformed_systems_csv_names_the_csv_error_once_in_both_modes() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let scenarios = dir.join(format!("cli-quote-scenarios-{id}.csv"));
    let systems = dir.join(format!("cli-quote-systems-{id}.csv"));
    std::fs::write(&scenarios, ScenarioMatrix::csv_template()).expect("write scenarios");
    std::fs::write(&systems, "rank,name,rmax_tflops\n1,\"alpha,100\n").expect("write systems");
    let (scen, sys) = (scenarios.to_str().unwrap(), systems.to_str().unwrap());
    for stream in [false, true] {
        let mut args = vec!["sweep", scen, sys];
        if stream {
            args.push("--stream");
        }
        let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
            .args(&args)
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("unterminated quote"), "{args:?}: {stderr}");
        assert_eq!(stderr.matches("CSV error").count(), 1, "{args:?}: {stderr}");
    }
    std::fs::remove_file(&scenarios).ok();
    std::fs::remove_file(&systems).ok();
}

/// A matrix whose names look like numbers or a boolean.
const NUMERIC_NAMES: &str = "name,mask,pue_override,utilization_override,aci_override\n\
                             007,all,,,\n\
                             1.50,all -power -energy,,,\n\
                             True,all,1.1,,\n\
                             1e3,all,,,50\n\
                             -0,all -nodes -gpus -cpus,,,\n";

#[test]
fn numeric_looking_scenario_names_are_kept_verbatim() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let matrix = dir.join(format!("cli-numeric-names-{id}.csv"));
    std::fs::write(&matrix, NUMERIC_NAMES).expect("write matrix");
    let mut written = Vec::new();
    for stream in [false, true] {
        let out = dir.join(format!("cli-numeric-names-out-{id}-{stream}.csv"));
        let mut args = vec![
            matrix.to_str().unwrap(),
            "--synthetic",
            "50",
            "--compare",
            "007,True",
            "--out",
            out.to_str().unwrap(),
        ];
        if stream {
            args.push("--stream");
        }
        let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
            .arg("sweep")
            .args(&args)
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "stream {stream}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("True − 007"), "stream {stream}: {stdout}");
        let csv = std::fs::read_to_string(&out).expect("read --out");
        let names: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|line| line.split(',').next().unwrap())
            .collect();
        assert_eq!(names.first(), Some(&"007"), "stream {stream}");
        for name in ["1.50", "True", "1e3", "-0"] {
            assert!(names.contains(&name), "stream {stream}: {name} missing");
        }
        written.push(csv);
        std::fs::remove_file(&out).ok();
    }
    assert_eq!(
        written[0], written[1],
        "in-memory and streamed --out differ"
    );
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn draw_counts_past_the_cap_are_refused_before_allocating() {
    // 10^9 draws would ask for gigabytes of draw buffers, and 2^62 for
    // more bytes than a `Vec` can hold: both are refused while parsing.
    // The cap counts draws over every scenario, so the template's five
    // scenarios refuse the 2^20 draws one scenario may take.
    let scenarios = std::env::temp_dir().join(format!("cli-draw-cap-{}.csv", std::process::id()));
    std::fs::write(&scenarios, ScenarioMatrix::csv_template()).expect("write scenarios");
    let scen = scenarios.to_str().unwrap();
    for draws in ["1048576", "1000000000", "4611686018427387904"] {
        for stream in [false, true] {
            let mut args = vec!["sweep", scen, "--synthetic", "50", "--draws", draws];
            if stream {
                args.push("--stream");
            }
            let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
                .args(&args)
                .output()
                .expect("run the CLI");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("--draws must be at most 209715 over 5 scenario(s)")
                    && stderr.contains("1048576"),
                "{args:?} must name the cap: {stderr}"
            );
        }
    }
    std::fs::remove_file(&scenarios).ok();
}

#[test]
fn byte_order_marked_matrix_and_systems_sweep_like_plain_files() {
    // Spreadsheet "CSV UTF-8" exports lead with a byte-order mark.
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let fleet = generate_full(&SyntheticConfig {
        n: 40,
        ..Default::default()
    });
    let (matrix, systems) = (ScenarioMatrix::csv_template(), export_csv(&fleet));
    let out = dir.join(format!("cli-bom-out-{id}.csv"));
    let mut runs = Vec::new();
    for bom in ["", "\u{feff}"] {
        let matrix_path = dir.join(format!("cli-bom-matrix-{id}-{}.csv", bom.len()));
        let systems_path = dir.join(format!("cli-bom-systems-{id}-{}.csv", bom.len()));
        std::fs::write(&matrix_path, format!("{bom}{matrix}")).expect("write matrix");
        std::fs::write(&systems_path, format!("{bom}{systems}")).expect("write systems");
        for stream in [false, true] {
            let mut args = vec![
                "sweep",
                matrix_path.to_str().unwrap(),
                systems_path.to_str().unwrap(),
                "--draws",
                "8",
                "--out",
                out.to_str().unwrap(),
            ];
            if stream {
                args.extend(["--stream", "--chunk-rows", "7"]);
            }
            let output = Command::new(env!("CARGO_BIN_EXE_top500-carbon"))
                .args(&args)
                .output()
                .expect("run the CLI");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
            let written = std::fs::read(&out).expect("read --out");
            runs.push((bom.len(), stream, output.stdout, written));
        }
        std::fs::remove_file(&matrix_path).ok();
        std::fs::remove_file(&systems_path).ok();
    }
    std::fs::remove_file(&out).ok();
    let (plain, marked) = runs.split_at(2);
    for (p, m) in plain.iter().zip(marked) {
        assert_eq!(p.1, m.1);
        assert!(p.2 == m.2, "stream {}: stdout differs", p.1);
        assert!(p.3 == m.3, "stream {}: --out differs", p.1);
    }
}

#[cfg(unix)]
#[test]
fn a_streamed_out_of_a_wide_matrix_fits_a_small_open_file_limit() {
    // The streamed writer spills each scenario's rows to its own sidecar;
    // 200 scenarios under a 64-file limit pass only if a sidecar is open
    // just while a block is appended to it.
    let dir = std::env::temp_dir().join(format!("cli-wide-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    let matrix = dir.join("matrix.csv");
    let mut csv = String::from("name,mask\n");
    for i in 0..200 {
        csv.push_str(&format!("s{i},all\n"));
    }
    std::fs::write(&matrix, csv).expect("write matrix");
    let mut written = Vec::new();
    for stream in [false, true] {
        let out = dir.join(format!("out-{stream}.csv"));
        let mut args = vec![
            "sweep",
            matrix.to_str().unwrap(),
            "--synthetic",
            "30",
            "--out",
            out.to_str().unwrap(),
        ];
        if stream {
            args.extend(["--stream", "--chunk-rows", "7"]);
        }
        let output = Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 64 && exec "$0" "$@""#)
            .arg(env!("CARGO_BIN_EXE_top500-carbon"))
            .args(&args)
            .output()
            .expect("run the CLI under sh");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "stream {stream}: {stderr}");
        written.push(std::fs::read(&out).expect("read --out"));
    }
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("list the scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.contains(".part"))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        written[0] == written[1],
        "in-memory and streamed --out differ"
    );
    assert!(leftovers.is_empty(), "sidecars left behind: {leftovers:?}");
}
