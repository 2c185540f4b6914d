//! Trace determinism: the observability layer must be a pure observer.
//!
//! * Tracing the same workload twice yields **byte-identical** JSONL and
//!   Chrome documents (events carry simulated cycle stamps, never wall
//!   clocks, thread ids, or addresses).
//! * Tiered traces are stamped from the session / virtual-worker clocks,
//!   so they are identical across *host* thread counts, and — whenever at
//!   most one job is ever in flight — across virtual worker counts too.
//! * Turning tracing on does not perturb measurement: the Table 2 rows
//!   (and the committed `BENCH_table2_smoke.json`) are bit-identical with
//!   tracing enabled and disabled.

use dyncomp_bench::lattice::{self, Mode};
use dyncomp_bench::{render_table2_json, run_all, run_all_with, Scale};

#[test]
fn tracing_twice_is_byte_identical() {
    lattice::check("trace_determinism::twice");
}

#[test]
fn tiered_tracing_twice_is_byte_identical() {
    lattice::check("trace_determinism::tiered_twice");
}

/// With one dynamic region (every paper kernel) there is never more than
/// one job in flight, so the virtual-worker assignment is forced and the
/// trace must not depend on the pool width.
#[test]
fn single_region_traces_invariant_across_virtual_worker_counts() {
    lattice::check_with("trace_determinism::workers", |k, _, _| {
        let program = k.compiled(lattice::Comp::Tiered);
        assert_eq!(program.region_count(), 1, "{k:?} has one region");
    });
}

/// Stamps come from simulated clocks, so eight host threads tracing the
/// same workload concurrently must all render the same bytes — including
/// under speculation, where many jobs overlap.
#[test]
fn traces_invariant_across_host_threads() {
    lattice::check("trace_determinism::host_threads");
}

#[test]
fn tracing_does_not_perturb_table2() {
    let plain = run_all(Scale::Smoke).expect("untraced run");
    let traced = lattice::options(&[Mode::Traced]);
    let observed = run_all_with(Scale::Smoke, traced).expect("traced run");
    let plain_json = render_table2_json(&plain);
    let traced_json = render_table2_json(&observed);
    assert_eq!(
        plain_json, traced_json,
        "tracing changed the Table 2 measurements"
    );
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_table2_smoke.json"
    ))
    .expect("committed smoke artifact present");
    assert_eq!(
        traced_json, committed,
        "traced smoke run drifted from the committed BENCH_table2_smoke.json"
    );
}

/// Attribution self-check (trace sums == report counters) for every
/// kernel in sync, tiered, and tiered+speculative modes; all modes must
/// agree on the results.
#[test]
fn self_check_passes_across_modes_with_equal_checksums() {
    lattice::check("trace_determinism::self_check");
}
