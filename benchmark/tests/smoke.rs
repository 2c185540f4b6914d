//! `--smoke`: all four workloads, untraced and traced, end to end, with the
//! correctness checks on. The server workload needs the `dynccd` executable
//! beside the benchmark's; Cargo builds both for this test.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_run_is_correct_and_quick() {
    // Naming it makes Cargo build it; the benchmark finds it by location.
    let dynccd = env!("CARGO_BIN_EXE_dynccd");
    assert!(std::path::Path::new(dynccd).is_file());
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dyncomp-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("correct=true").count(), 8, "{stdout}");
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "smoke run took {:?}",
        start.elapsed()
    );
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_dyncomp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
