//! The artifact/session determinism suite: many sessions over one shared
//! `Arc<Program>` must be *bit-identical* — same results, same per-session
//! simulated cycle counts, same region reports — whether they run on one
//! thread or eight. The simulated machine is fully deterministic; the
//! artifact/session split must not leak any host-side nondeterminism
//! (thread scheduling, allocation addresses) into simulated state.

use dyncomp::{run_session, Compiler, EngineOptions, KernelSetup, Program, SessionOutcome};
use dyncomp_bench::kernels::{calculator, dispatch, smatmul, sorter, spmv};
use std::sync::Arc;

const THREADS: usize = 8;

/// All five paper kernels at smoke scale.
fn workloads() -> Vec<(&'static str, KernelSetup<'static>)> {
    vec![
        ("calculator", calculator::setup(40)),
        ("smatmul", smatmul::setup(8, 16, 8)),
        ("spmv", spmv::setup(12, 3, 10)),
        ("dispatch", dispatch::setup(10, 30)),
        ("sorter", sorter::setup(40, 4, 3)),
    ]
}

/// Run one session per thread concurrently; return every outcome.
fn run_threaded(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: &EngineOptions,
) -> Vec<SessionOutcome> {
    let mut outcomes: Vec<Option<SessionOutcome>> = (0..THREADS).map(|_| None).collect();
    std::thread::scope(|s| {
        for slot in outcomes.iter_mut() {
            s.spawn(|| {
                *slot = Some(run_session(program, setup, options.clone()).expect("session runs"));
            });
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("slot filled"))
        .collect()
}

/// 8 threads × shared `Arc<Program>`, default options: every session is
/// bit-identical to the single-threaded run on all five paper kernels —
/// checksum, simulated cycle counts, and full per-region reports.
#[test]
fn eight_threads_bit_identical_to_single_threaded() {
    for (name, setup) in workloads() {
        let program = Arc::new(Compiler::new().compile(setup.src).expect("compiles"));
        let reference =
            run_session(&program, &setup, EngineOptions::default()).expect("reference runs");
        let outcomes = run_threaded(&program, &setup, &EngineOptions::default());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                *o, reference,
                "{name}: session {i} of {THREADS} diverged from the single-threaded run"
            );
        }
    }
}

/// The same holds with the shared stitched-code cache enabled *for the
/// results*: cycle counts may differ between sessions (whoever stitches
/// first pays set-up; later sessions pay the cheaper install), but every
/// session must still compute identical checksums.
#[test]
fn shared_cache_preserves_results_across_threads() {
    for (name, setup) in workloads() {
        let program = Arc::new(Compiler::new().compile(setup.src).expect("compiles"));
        let reference =
            run_session(&program, &setup, EngineOptions::default()).expect("reference runs");
        let options = EngineOptions {
            shared_cache: Some(Arc::new(dyncomp::SharedCodeCache::default())),
            ..EngineOptions::default()
        };
        let outcomes = run_threaded(&program, &setup, &options);
        let mut total_stitches = 0u64;
        let mut total_shared_hits = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                o.checksum, reference.checksum,
                "{name}: session {i} computed a different result under the shared cache"
            );
            for r in &o.reports {
                total_stitches += u64::from(r.stitches);
                total_shared_hits += r.shared_hits;
            }
        }
        let reference_stitches: u64 = reference
            .reports
            .iter()
            .map(|r| u64::from(r.stitches))
            .sum();
        // Reuse must actually happen: eight sessions need strictly fewer
        // stitches than eight independent runs would perform.
        assert!(
            total_stitches < THREADS as u64 * reference_stitches,
            "{name}: no cross-session reuse ({total_stitches} stitches, \
             {total_shared_hits} shared hits)"
        );
        assert!(
            total_shared_hits > 0,
            "{name}: expected at least one shared-cache hit"
        );
    }
}

/// Tiered mode must not weaken the determinism guarantee: install
/// visibility is decided on virtual worker clocks, not by when a stitch
/// job ran on the host, so eight threaded sessions with tiering
/// (and speculation) are still bit-identical to the single-threaded run —
/// checksums, cycle counts, and full reports including tiered counters.
#[test]
fn eight_threads_bit_identical_with_tiering() {
    for (name, setup) in workloads() {
        let program = Arc::new(Compiler::tiered().compile(setup.src).expect("compiles"));
        for speculate in [false, true] {
            let options = EngineOptions {
                tiered: Some(dyncomp::TieredOptions {
                    workers: 2,
                    speculate,
                }),
                ..EngineOptions::default()
            };
            let reference = run_session(&program, &setup, options.clone()).expect("reference runs");
            let outcomes = run_threaded(&program, &setup, &options);
            for (i, o) in outcomes.iter().enumerate() {
                assert_eq!(
                    *o, reference,
                    "{name} (speculate={speculate}): tiered session {i} of {THREADS} \
                     diverged from the single-threaded run"
                );
            }
        }
    }
}
