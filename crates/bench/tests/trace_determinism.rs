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

use dyncomp::measure::{run_session_profiled, KernelSetup, ProfiledSession};
use dyncomp::{Compiler, EngineOptions, Program, TieredOptions, TraceOptions};
use dyncomp_bench::kernels::{calculator, dispatch, smatmul, sorter, spmv};
use dyncomp_bench::{render_table2_json, run_all, run_all_with, Scale};
use std::sync::Arc;

fn traced() -> EngineOptions {
    EngineOptions {
        trace: Some(TraceOptions::default()),
        ..EngineOptions::default()
    }
}

fn tiered(workers: usize, speculate: bool) -> EngineOptions {
    EngineOptions {
        trace: Some(TraceOptions::default()),
        tiered: Some(TieredOptions { workers, speculate }),
        ..EngineOptions::default()
    }
}

/// The five paper kernels at smoke sizes, with programs compiled for the
/// requested lowering (tiered needs static fallback copies).
fn kernels(tiered: bool) -> Vec<(&'static str, Arc<Program>, KernelSetup<'static>)> {
    let setups = vec![
        ("calculator", calculator::setup(80)),
        ("smatmul", smatmul::setup(8, 16, 8)),
        ("spmv", spmv::setup(12, 3, 20)),
        ("dispatch", dispatch::setup(10, 60)),
        ("sorter", sorter::setup(40, 4, 5)),
    ];
    setups
        .into_iter()
        .map(|(name, setup)| {
            let compiler = if tiered {
                Compiler::tiered()
            } else {
                Compiler::new()
            };
            let program = Arc::new(compiler.compile(setup.src).expect("compiles"));
            (name, program, setup)
        })
        .collect()
}

fn profiled(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> ProfiledSession {
    run_session_profiled(program, setup, options).expect("runs and passes self-check")
}

#[test]
fn tracing_twice_is_byte_identical() {
    for (name, program, setup) in kernels(false) {
        let a = profiled(&program, &setup, traced());
        let b = profiled(&program, &setup, traced());
        assert_eq!(a.jsonl, b.jsonl, "{name}: JSONL differs across runs");
        assert_eq!(
            a.chrome, b.chrome,
            "{name}: Chrome JSON differs across runs"
        );
        assert_eq!(a.outcome.checksum, b.outcome.checksum, "{name}: checksum");
        assert_eq!(a.dropped, 0, "{name}: smoke traces must fit the ring");
    }
}

#[test]
fn tiered_tracing_twice_is_byte_identical() {
    for (name, program, setup) in kernels(true) {
        for options in [tiered(2, false), tiered(2, true)] {
            let a = profiled(&program, &setup, options.clone());
            let b = profiled(&program, &setup, options.clone());
            assert_eq!(a.jsonl, b.jsonl, "{name}: tiered JSONL differs");
            assert_eq!(a.chrome, b.chrome, "{name}: tiered Chrome differs");
            assert_eq!(a.outcome.checksum, b.outcome.checksum, "{name}");
        }
    }
}

#[test]
fn single_region_traces_invariant_across_virtual_worker_counts() {
    // With one dynamic region there is never more than one job in flight,
    // so the virtual-worker assignment is forced and the trace must not
    // depend on the pool width.
    for (name, program, setup) in kernels(true) {
        if program.region_count() != 1 {
            continue;
        }
        let base = profiled(&program, &setup, tiered(1, false));
        for workers in [2, 4] {
            let wide = profiled(&program, &setup, tiered(workers, false));
            assert_eq!(
                base.jsonl, wide.jsonl,
                "{name}: trace depends on virtual worker count ({workers})"
            );
        }
    }
}

#[test]
fn traces_invariant_across_host_threads() {
    // Stamps come from simulated clocks, so eight host threads tracing
    // the same workload concurrently must all render the same bytes —
    // including under speculation, where many jobs overlap.
    let setup_src = smatmul::setup(8, 16, 8).src;
    let program = Arc::new(Compiler::tiered().compile(setup_src).expect("compiles"));
    let reference = {
        let setup = smatmul::setup(8, 16, 8);
        profiled(&program, &setup, tiered(2, true))
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let program = Arc::clone(&program);
                scope.spawn(move || {
                    let setup = smatmul::setup(8, 16, 8);
                    let p = run_session_profiled(&program, &setup, tiered(2, true))
                        .expect("runs and passes self-check");
                    (p.jsonl, p.chrome, p.outcome.checksum)
                })
            })
            .collect();
        for h in handles {
            let (jsonl, chrome, checksum) = h.join().expect("no panic");
            assert_eq!(jsonl, reference.jsonl, "JSONL differs across host threads");
            assert_eq!(
                chrome, reference.chrome,
                "Chrome differs across host threads"
            );
            assert_eq!(checksum, reference.outcome.checksum);
        }
    });
}

#[test]
fn tracing_does_not_perturb_table2() {
    let plain = run_all(Scale::Smoke).expect("untraced run");
    let observed = run_all_with(Scale::Smoke, traced()).expect("traced run");
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

#[test]
fn self_check_passes_across_modes_with_equal_checksums() {
    // Attribution self-check (trace sums == report counters) for every
    // kernel in sync, tiered, and tiered+speculative modes; all modes
    // must agree on the results.
    for ((name, sync_prog, setup), (_, tiered_prog, _)) in
        kernels(false).into_iter().zip(kernels(true))
    {
        let sync = profiled(&sync_prog, &setup, traced());
        let bg = profiled(&tiered_prog, &setup, tiered(2, false));
        let spec = profiled(&tiered_prog, &setup, tiered(2, true));
        assert_eq!(sync.outcome.checksum, bg.outcome.checksum, "{name}: tiered");
        assert_eq!(
            sync.outcome.checksum, spec.outcome.checksum,
            "{name}: speculative"
        );
    }
}
