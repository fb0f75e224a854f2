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
