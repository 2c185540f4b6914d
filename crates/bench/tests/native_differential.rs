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

use dyncomp::{run_session_differential, run_session_timed, BackendRun, EngineOptions};
use dyncomp_bench::lattice::{self, Caches, Kernel, Mode};
use dyncomp_bench::{table2_workloads, Scale};

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

/// One mode's sweep over the seven smoke-scale Table 2 rows, in
/// `BENCH_table2_smoke.json` order: run the differential (which itself
/// asserts checksum and cycle equality between the backends) in the
/// plan's cell and pin the agreed checksum to the committed reference.
fn sweep(mode: &str) {
    let plan = lattice::plan(&format!("native_differential::{mode}"));
    let cell = &plan.cells[0];
    let expected = committed_checksums();
    assert_eq!(expected.len(), 7, "smoke reference has seven rows");
    let mut native_served = 0u64;
    for (w, want) in table2_workloads(Scale::Smoke).into_iter().zip(expected) {
        let program = w.compile(&cell.comp.compiler());
        let options = lattice::options(&cell.modes);
        let d = run_session_differential(&program, &w.setup, options)
            .unwrap_or_else(|e| panic!("{} ({mode}): {e}", w.config));
        assert_eq!(
            d.native.outcome.checksum, want,
            "{} ({mode}): native checksum drifted from BENCH_table2_smoke.json",
            w.config
        );
        assert!(
            d.native.native.enabled,
            "{} ({mode}): native half must request the backend",
            w.config
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
    sweep("sync");
}

#[test]
fn unchained_mode_matches_oracle_and_reference() {
    // `--no-native-chain` ablation: the per-instance dispatch path must
    // still match the oracle and the committed reference on its own.
    sweep("unchained");
}

#[test]
fn tiered_mode_matches_oracle_and_reference() {
    sweep("tiered");
}

#[test]
fn speculate_mode_matches_oracle_and_reference() {
    sweep("speculate");
}

/// The cross-function inlining workloads — whose opened regions span
/// call boundaries — must match the oracle in both chain modes, and the
/// two modes must agree with each other (chaining is a pure host-speed
/// substitution; every simulated quantity is identical).
#[test]
fn inline_workloads_match_oracle_in_both_chain_modes() {
    lattice::check("native_differential::inline_chain_modes");
}

/// The tentpole's observable effect: with chaining on, the sorter's
/// VM-dispatched native entries collapse to roughly its iteration count
/// (control stays native across the comparator's exit-and-re-enter
/// loop), while the unchained session re-dispatches every comparison.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn chained_sorter_collapses_vm_dispatches() {
    let setup = Kernel::Sorter.setup(lattice::Size::Smoke);
    let program = Kernel::Sorter.compiled(lattice::Comp::Dynamic);
    let d = run_session_differential(&program, &setup, EngineOptions::default()).expect("runs");
    let unchained = lattice::options(&[Mode::Native(false)]);
    let u = run_session_differential(&program, &setup, unchained).expect("runs");
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
    let setup = Kernel::Calculator.setup(lattice::Size::Smoke);
    let program = Kernel::Calculator.compiled(lattice::Comp::Dynamic);
    let options = lattice::options(&[Mode::Native(true)]);
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

/// A persisted native section records the chain mode it was translated
/// under: a reader in the other mode translates again instead of
/// installing stubs whose `Jmp`/`Jsr` were (or were not) lowered through
/// the dispatch table. For the seven kernels and each writer × reader
/// chain mode, the reader matches a VM reader's checksum and cycles, and
/// its native entries and chained transfers are those of a reader whose
/// writer used the reader's own mode.
#[test]
fn persisted_native_sections_follow_the_reader_chain_mode() {
    let native = dyncomp_native::available();
    let plan = lattice::plan("native_differential::persisted");
    let mut drift = Vec::new();
    for k in &plan.programs {
        let (name, setup) = (k.name(), k.setup(plan.size));
        let program = k.compiled(plan.cells[0].comp);
        // (writer mode, reader mode) -> the reader's run.
        let mut readers = Vec::new();
        for writer in &plan.cells {
            for reader in &plan.cells {
                let caches = Caches::new(&reader.modes);
                let run = |modes| -> BackendRun {
                    run_session_timed(&program, &setup, caches.options(modes)).expect("runs")
                };
                run(&writer.modes);
                let (got, vm) = (run(&reader.modes), run(&[]));
                assert_eq!(
                    (got.outcome.checksum, got.outcome.total_cycles),
                    (vm.outcome.checksum, vm.outcome.total_cycles),
                    "{name}: writer [{writer}], reader [{reader}] left the VM oracle"
                );
                readers.push((writer, reader, got.native));
            }
        }
        if !native {
            continue;
        }
        for &(writer, reader, got) in &readers {
            let same = readers
                .iter()
                .find(|&&(w, r, _)| w == reader && r == reader)
                .map(|&(_, _, n)| n)
                .expect("the same-mode reader ran");
            if (got.entries, got.chained) != (same.entries, same.chained) {
                drift.push(format!(
                    "{name}: a [{reader}] reader after a [{writer}] writer took \
                     {} entries, {} chained; after a [{reader}] writer {}, {}",
                    got.entries, got.chained, same.entries, same.chained
                ));
            }
        }
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}
