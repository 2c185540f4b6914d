//! VM-differential oracle for the host-native backend: every paper
//! kernel, in every execution mode, must produce **bit-identical**
//! checksums and simulated cycles with [`EngineOptions::native`] on and
//! off — the native backend is a pure host-speed substitution, with the
//! VM as the cycle oracle.
//!
//! The expected checksums are additionally pinned to the committed
//! `BENCH_table2_smoke.json`, so a native-backend regression cannot
//! hide behind a matching-but-wrong pair of runs.
//!
//! On hosts without the backend (non-x86-64) the native half runs on
//! the VM too and the differential degenerates to a self-check; the
//! pinned-checksum assertions still hold.

use dyncomp::{run_session_differential, Compiler, EngineOptions, KernelSetup, TieredOptions};
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use std::sync::Arc;

/// The smoke-scale Table 2 configurations, in `BENCH_table2_smoke.json`
/// row order.
fn smoke_setups() -> Vec<(&'static str, KernelSetup<'static>)> {
    vec![
        ("calculator", calculator::setup(80)),
        ("smatmul", smatmul::setup(8, 16, 8)),
        ("spmv 12x12", spmv::setup(12, 3, 20)),
        ("spmv 8x8", spmv::setup(8, 2, 20)),
        ("dispatch", dispatch::setup(10, 60)),
        ("sorter 4-key", sorter::setup(40, 4, 5)),
        ("sorter 12-key", sorter::setup(40, 12, 5)),
    ]
}

/// Checksums pinned in the committed smoke reference, parsed with a
/// string scan (the workspace takes no JSON dependency).
fn committed_checksums() -> Vec<u64> {
    let doc = include_str!("../../../BENCH_table2_smoke.json");
    let mut out = Vec::new();
    for part in doc.split("\"checksum\": ").skip(1) {
        let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
        out.push(digits.parse::<u64>().expect("checksum field is a u64"));
    }
    out
}

fn tiered_options(speculate: bool) -> EngineOptions {
    EngineOptions {
        tiered: Some(TieredOptions {
            workers: 1,
            speculate,
        }),
        ..EngineOptions::default()
    }
}

/// One mode's sweep over all seven smoke configurations: run the
/// differential (which itself asserts checksum and cycle equality
/// between the backends) and pin the agreed checksum to the committed
/// reference.
fn sweep(mode: &str, options: &EngineOptions, tiered_artifact: bool) {
    let expected = committed_checksums();
    assert_eq!(expected.len(), 7, "smoke reference has seven rows");
    let mut native_served = 0u64;
    for ((name, setup), want) in smoke_setups().into_iter().zip(expected) {
        let compiler = if tiered_artifact {
            Compiler::tiered()
        } else {
            Compiler::new()
        };
        let program = Arc::new(compiler.compile(setup.src).expect("kernel compiles"));
        let d = run_session_differential(&program, &setup, options.clone())
            .unwrap_or_else(|e| panic!("{name} ({mode}): {e}"));
        assert_eq!(
            d.native.outcome.checksum, want,
            "{name} ({mode}): native checksum drifted from BENCH_table2_smoke.json"
        );
        assert!(
            d.native.native.enabled,
            "{name} ({mode}): native half must request the backend"
        );
        native_served += d.native.native.entries;
    }
    // On supported hosts the backend must actually serve dispatches
    // across the sweep — a silently-disabled backend would make the
    // differential vacuous.
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(
            native_served > 0,
            "({mode}): native backend never dispatched on a supported host"
        );
    }
}

#[test]
fn sync_mode_matches_oracle_and_reference() {
    // Chaining is on by default: this is the chained-mode sweep.
    sweep("sync", &EngineOptions::default(), false);
}

#[test]
fn unchained_mode_matches_oracle_and_reference() {
    // `--no-native-chain` ablation: the per-instance dispatch path must
    // still match the oracle and the committed reference on its own.
    let options = EngineOptions {
        native_chain: false,
        ..EngineOptions::default()
    };
    sweep("unchained", &options, false);
}

#[test]
fn tiered_mode_matches_oracle_and_reference() {
    sweep("tiered", &tiered_options(false), true);
}

#[test]
fn speculate_mode_matches_oracle_and_reference() {
    sweep("speculate", &tiered_options(true), true);
}

/// The cross-function inlining workloads — whose opened regions span
/// call boundaries — must match the oracle in both chain modes, and the
/// two modes must agree with each other (chaining is a pure host-speed
/// substitution; every simulated quantity is identical).
#[test]
fn inline_workloads_match_oracle_in_both_chain_modes() {
    for (name, setup) in [
        ("protomsg", protomsg::setup(8, 40)),
        ("queryexec", queryexec::setup(6, 30, 5)),
    ] {
        let program = Arc::new(
            Compiler::with_inline_depth(2)
                .compile(setup.src)
                .expect("kernel compiles"),
        );
        let chained = run_session_differential(&program, &setup, EngineOptions::default())
            .unwrap_or_else(|e| panic!("{name} (chained): {e}"));
        let unchained_opts = EngineOptions {
            native_chain: false,
            ..EngineOptions::default()
        };
        let unchained = run_session_differential(&program, &setup, unchained_opts)
            .unwrap_or_else(|e| panic!("{name} (unchained): {e}"));
        assert_eq!(
            chained.native.outcome.checksum, unchained.native.outcome.checksum,
            "{name}: chain mode changed the checksum"
        );
        assert_eq!(
            chained.native.outcome.total_cycles, unchained.native.outcome.total_cycles,
            "{name}: chain mode changed simulated cycles"
        );
    }
}

/// The tentpole's observable effect: with chaining on, the sorter's
/// VM-dispatched native entries collapse to roughly its iteration count
/// (control stays native across the comparator's exit-and-re-enter
/// loop), while the unchained session re-dispatches every comparison.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn chained_sorter_collapses_vm_dispatches() {
    let setup = sorter::setup(40, 4, 5);
    let program = Arc::new(Compiler::new().compile(setup.src).expect("compiles"));
    let d = run_session_differential(&program, &setup, EngineOptions::default()).expect("runs");
    let unchained_opts = EngineOptions {
        native_chain: false,
        ..EngineOptions::default()
    };
    let u = run_session_differential(&program, &setup, unchained_opts).expect("runs");
    let (chained, unchained) = (d.native.native, u.native.native);
    assert!(
        chained.chained > 0,
        "sorter must chain transfers: {chained:?}"
    );
    assert!(
        chained.entries * 50 < unchained.entries,
        "chaining must collapse VM dispatches ({} vs {})",
        chained.entries,
        unchained.entries
    );
}

/// The native backend installs real instances and reports coverage on a
/// supported host: counters in the report line up with what a session
/// did, not just with the oracle.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn native_report_counts_installs_and_coverage() {
    let setup = calculator::setup(80);
    let program = Arc::new(Compiler::new().compile(setup.src).expect("compiles"));
    let options = EngineOptions {
        native: true,
        ..EngineOptions::default()
    };
    let run = dyncomp::run_session_timed(&program, &setup, options).expect("runs");
    let n = run.native;
    assert!(n.enabled && n.active, "backend stays active: {n:?}");
    assert!(n.installs > 0, "at least one instance installs: {n:?}");
    assert!(n.entries > 0, "dispatches are served: {n:?}");
    assert!(n.bytes > 0, "arena holds installed bytes: {n:?}");
    assert!(
        n.covered_instructions > 0 && n.covered_instructions <= n.translated_instructions,
        "coverage counters are sane: {n:?}"
    );
}
