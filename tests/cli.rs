//! Command-line argument checks: the binary must refuse what it does not
//! understand, with exit status 1 and an error naming the argument,
//! instead of silently dropping it.

use std::process::Command;
use top500_carbon::easyc::ScenarioMatrix;

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
