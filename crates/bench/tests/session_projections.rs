//! `run_session`, `run_session_trace`, `run_session_profiled` and
//! `run_session_timed` are projections of one driver
//! ([`dyncomp::measure::SessionRun`]): whatever else each one reports,
//! they must agree on everything simulated, in every execution mode, for
//! keyed and unkeyed regions alike.

use dyncomp::measure::{
    run_session, run_session_profiled, run_session_timed, run_session_trace, SessionRun,
};
use dyncomp::{Compiler, EngineOptions, TieredOptions};
use dyncomp_bench::kernels::{calculator, smatmul};
use std::sync::Arc;

fn tiered() -> EngineOptions {
    EngineOptions {
        tiered: Some(TieredOptions {
            workers: 2,
            ..TieredOptions::default()
        }),
        ..EngineOptions::default()
    }
}

fn native() -> EngineOptions {
    EngineOptions {
        native: true,
        ..EngineOptions::default()
    }
}

/// (mode, options, whether every stitch is on the session's own clock)
type Mode = (&'static str, fn() -> EngineOptions, bool);

#[test]
fn the_four_projections_agree_in_every_mode() {
    let modes: [Mode; 3] = [
        ("default", EngineOptions::default, true),
        ("tiered", tiered, false),
        ("native", native, true),
    ];
    // Keyed (one instance per scalar) and unkeyed (trap retired).
    for setup in [smatmul::setup(8, 16, 8), calculator::setup(80)] {
        let program = Arc::new(Compiler::tiered().compile(setup.src).expect("compiles"));
        for (mode, options, synchronous) in modes {
            let at = format!("{} [{mode}]", setup.func);
            let plain = run_session(&program, &setup, options()).expect("runs");
            let trace = run_session_trace(&program, &setup, options()).expect("runs");
            let profiled = run_session_profiled(&program, &setup, options()).expect("runs");
            let timed = run_session_timed(&program, &setup, options()).expect("runs");
            for (projection, outcome) in [
                ("trace", &trace.outcome),
                ("profiled", &profiled.outcome),
                ("timed", &timed.outcome),
            ] {
                assert_eq!(outcome.checksum, plain.checksum, "{at}: {projection}");
                assert_eq!(outcome.call_cycles, plain.call_cycles, "{at}: {projection}");
                assert_eq!(outcome.reports, plain.reports, "{at}: {projection}");
            }

            // The trace charges each call the stitcher cycles its traps
            // incurred; take them back out and the calls add up.
            assert_eq!(trace.per_call_cycles.len() as u64, setup.iterations, "{at}");
            if synchronous {
                let per_call: u64 = trace.per_call_cycles.iter().sum();
                let stitch: u64 = plain.reports.iter().map(|r| r.stitch_cycles).sum();
                assert!(stitch > 0, "{at}: the workload stitches");
                assert_eq!(per_call - stitch, plain.call_cycles, "{at}");
            }

            // The driver itself: one hook call per invocation, handed
            // exactly the cycles it accounts.
            let mut run = SessionRun::start(&program, &setup, options());
            let (mut fired, mut cycles_seen) = (0u64, 0u64);
            run.pass(|_, cycles| {
                fired += 1;
                cycles_seen += cycles;
            })
            .expect("runs");
            assert_eq!(fired, setup.iterations, "{at}");
            assert_eq!(cycles_seen, run.outcome.call_cycles, "{at}");
            assert_eq!(run.outcome, plain, "{at}: driver vs run_session");
        }
    }
}
