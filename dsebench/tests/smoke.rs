//! A short run of every workload, socket and traced, must check every
//! response and report no failures.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dsebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("run dsebench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_runs_without_failures() {
    // One run at a time: each starts a server process of its own.
    for workload in [
        "designer_walk",
        "core_narrow",
        "batch_fanout",
        "designer_rounds",
    ] {
        for trace in ["0", "1"] {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": ")
                    && result.contains("\"failed\": 0, \"metrics\": {"),
                "{workload} --trace {trace}: {result}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsebench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("run dsebench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
