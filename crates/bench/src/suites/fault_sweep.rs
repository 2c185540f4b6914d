//! Fault-injection sweep: every [`FaultPoint`] against every paper
//! kernel, asserting the robustness invariant end to end — a session
//! under injected faults must produce **bit-identical checksums** to the
//! fault-free run (recovery may spend extra simulated cycles, never
//! change a result).
//!
//! For each kernel the harness first measures a fault-free reference,
//! then re-runs the full workload once per fault point with
//! `FaultPlan::single(point, 2)` armed (two fires, any region, default
//! recovery policy), in the mode the lattice's fault-opportunity rule
//! ([`crate::lattice::fault_mode`]) gives it: worker faults in a tiered
//! session, shared-cache faults against a freshly warmed shared cache,
//! persist faults against a fresh or a populated directory. Every row
//! records the checksum, the fault/recovery counters, and whether the
//! checksum matched — any mismatch or unfired injection exits non-zero.
//!
//! Usage: `bench fault_sweep [--smoke] [--json <path>] [--check <path>]`
//!
//! Everything here is simulated-deterministic, so every field is gated:
//! CI checks the sweep against the committed reference, then runs it
//! again and diffs.

use crate::driver::{Args, Report};
use crate::kernel_workloads;
use crate::lattice::{self, Mode};
use crate::row::Row;
use dyncomp::{Compiler, FaultPoint};

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    println!("Fault sweep: every fault point x every kernel ({scale:?} scale)");
    println!(
        "{:<12} | {:<24} | {:<20} | {:>7} | {:>7} | {:>8} | {:>6} | {:>8} | {:>8} | match",
        "kernel",
        "fault point",
        "checksum",
        "faults",
        "retries",
        "failures",
        "quar",
        "fallback",
        "stitches",
    );
    println!("{}", "-".repeat(132));

    let mut rows: Vec<Row> = Vec::new();
    let mut bad = 0u32;
    for w in kernel_workloads(scale) {
        // One program per kernel, compiled with static fallback copies so
        // quarantine and worker faults have somewhere to degrade to.
        let program = w.compile(&Compiler::tiered());
        let mut reference = 0;
        lattice::sessions(&program, &w.setup, &[Mode::Default], |run, _| {
            reference = run.outcome.checksum;
        });

        for point in FaultPoint::ALL {
            // Each point runs in the mode that gives it an opportunity
            // (`lattice::fault_mode`), after that mode's fault-free
            // prelude: a warm shared cache, or a populated persist dir.
            let mut own = None;
            lattice::sessions(
                &program,
                &w.setup,
                &[Mode::Fault(point, 2)],
                |run, is_own| {
                    if is_own {
                        own = Some((run.outcome.clone(), run.session.health()));
                    } else {
                        assert_eq!(
                            run.outcome.checksum, reference,
                            "the prelude changes no result"
                        );
                    }
                },
            );
            let (outcome, health) = own.expect("the cell's own session ran");
            let checksum = outcome.checksum;
            let fallback_runs: u64 = outcome.reports.iter().map(|r| r.fallback_runs).sum();
            let stitches: u64 = outcome.reports.iter().map(|r| u64::from(r.stitches)).sum();
            let matches = checksum == reference;
            if !matches {
                bad += 1;
                eprintln!(
                    "fault_sweep: {} under {} drifted: {} != {}",
                    w.kernel,
                    point.name(),
                    checksum,
                    reference
                );
            }
            if health.faults_injected == 0 {
                bad += 1;
                eprintln!(
                    "fault_sweep: {} under {} never fired the injection",
                    w.kernel,
                    point.name()
                );
            }
            println!(
                "{:<12} | {:<24} | {:<20} | {:>7} | {:>7} | {:>8} | {:>6} | {:>8} | {:>8} | {}",
                w.kernel,
                point.name(),
                checksum,
                health.faults_injected,
                health.retries,
                health.total_failures,
                health.quarantined.len(),
                fallback_runs,
                stitches,
                if matches { "ok" } else { "DRIFT" },
            );
            rows.push(
                Row::new()
                    .field("kernel", w.kernel)
                    .field("point", point.name())
                    .field("checksum", checksum)
                    .field("matches_reference", matches)
                    .field("faults_injected", health.faults_injected)
                    .field("retries", health.retries)
                    .field("failures", health.total_failures)
                    .field("quarantined", health.quarantined.len())
                    .field("fallback_runs", fallback_runs)
                    .field("stitches", stitches),
            );
        }
    }

    Report {
        rows,
        violations: bad,
    }
}
