//! Stitcher throughput: the one directive walk priced with copy-and-patch
//! plans on and off, on the paper's five kernels.
//!
//! Each kernel runs its [`crate::kernel_workloads`] row once to populate
//! the per-region constants tables, then the stitcher is re-run over
//! every recorded `(region, table)` pair — pure stitching work, no
//! set-up execution, no installation — with plans on and off. Both run
//! the same walk and stitch the same words; plans move only the
//! simulated price. Two numbers per configuration:
//!
//! * **simulated cycles / stitched instruction** — the deterministic
//!   [`StitchCost`] model (what Tables 2/3 charge);
//! * **host ns / stitched instruction** — wall-clock of the reproduction
//!   itself (median over samples).
//!
//! Usage: `bench stitch_throughput [--smoke] [--samples N]` (default 9).
//!
//! [`StitchCost`]: dyncomp_stitcher::StitchCost

use crate::driver::{Args, Report};
use crate::kernel_workloads;
use dyncomp::{Compiler, EngineOptions, Session, SessionRun};
use dyncomp_stitcher::StitchOptions;
use std::hint::black_box;
use std::time::Instant;

/// Median host ns for one `restitch_all` pass under `opts`.
fn host_ns(engine: &mut Session, opts: &StitchOptions, samples: usize) -> f64 {
    for _ in 0..2 {
        black_box(engine.restitch_all(opts).expect("restitch"));
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(engine.restitch_all(opts).expect("restitch"));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

pub fn run(args: &Args) -> Report {
    let samples = args.value::<usize>("--samples", 9).max(1);

    println!(
        "{:<12} | {:>6} | {:>22} | {:>22} | {:>9} | {:>11}",
        "kernel",
        "insts",
        "sim cycles/inst (plan)",
        "sim cycles/inst (int.)",
        "sim ratio",
        "host ns/inst"
    );
    println!("{}", "-".repeat(100));

    for w in kernel_workloads(args.scale) {
        let program = w.compile(&Compiler::new());
        let mut run = SessionRun::start(&program, &w.setup, EngineOptions::default());
        run.pass(|_, _| {}).expect("runs");
        let mut engine = run.session;

        let plan_opts = StitchOptions::default();
        let interp_opts = StitchOptions {
            plans: false,
            ..StitchOptions::default()
        };

        let sp = engine.restitch_all(&plan_opts).expect("plan restitch");
        let si = engine.restitch_all(&interp_opts).expect("interp restitch");
        assert_eq!(
            sp.instructions_stitched, si.instructions_stitched,
            "plans on and off must stitch the same instructions"
        );
        let insts = sp.instructions_stitched.max(1) as f64;
        let sim_plan = sp.cycles as f64 / insts;
        let sim_interp = si.cycles as f64 / insts;

        let h_plan = host_ns(&mut engine, &plan_opts, samples) / insts;
        let h_interp = host_ns(&mut engine, &interp_opts, samples) / insts;

        println!(
            "{:<12} | {:>6} | {:>22.1} | {:>22.1} | {:>8.2}x | {:>5.1} / {:>5.1}",
            w.kernel,
            sp.instructions_stitched,
            sim_plan,
            sim_interp,
            sim_interp / sim_plan,
            h_plan,
            h_interp,
        );
        println!(
            "{:<12} |        | plan hits {:>4}, misses {:>3} | (int.: plans off, the walk's price)",
            "", sp.plan_hits, sp.plan_misses
        );
    }
    println!("\nhost ns/inst column: plans on / off (median of {samples} samples)");
    Report::default()
}
