//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Split set-up/stitcher vs merged** — the paper attributes its high
//!    overhead to the directive-interpreting stitcher and predicts a
//!    merged pass would "drastically reduce" it (§5/§7). Compare the
//!    default cost model against the fused one.
//! 2. **Linearized large-constants table on/off** — §4's table vs inline
//!    constant construction.
//! 3. **Peephole strength reduction on/off** — visible on the
//!    scalar-matrix multiply.
//! 4. **Reachability analysis on/off** — without it, unstructured
//!    constant merges are lost (§3.1's central claim); the dispatcher's
//!    guard switches stop resolving.
//! 5. **Keyed code-cache capacity** — bounding the per-region cache
//!    trades stitch thrash for footprint; results stay identical.
//!
//! Usage: `bench ablation [--smoke]`

use crate::driver::{Args, Report};
use crate::kernels::{calculator, smatmul};
use crate::Scale;
use dyncomp::{measure_kernel_full, CompileOptions, Compiler, EngineOptions, KernelSetup, Session};
use dyncomp_analysis::AnalysisConfig;
use dyncomp_stitcher::StitchCost;
use std::sync::Arc;

pub fn run(args: &Args) -> Report {
    let smoke = matches!(args.scale, Scale::Smoke);
    let iters = if smoke { 80 } else { 1000 };

    println!("== Ablation 1: directive-interpreting stitcher vs fused fast path ==");
    {
        let default = calculator::workload(iters)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let mut opts = EngineOptions::default();
        opts.stitch.cost = StitchCost::fused();
        let setup = calculator::setup(iters);
        let fused = measure_kernel_full(&setup, &Compiler::new(), opts).unwrap();
        let d = &default.measurement;
        println!(
            "  directive interpreter: overhead {} cycles ({} setup + {} stitch), breakeven {:?}",
            d.setup_cycles + d.stitch_cycles,
            d.setup_cycles,
            d.stitch_cycles,
            d.breakeven
        );
        println!(
            "  fused cost model:      overhead {} cycles ({} setup + {} stitch), breakeven {:?}",
            fused.setup_cycles + fused.stitch_cycles,
            fused.setup_cycles,
            fused.stitch_cycles,
            fused.breakeven
        );
        println!(
            "  stitcher-cycle reduction: {:.1}x (the paper's predicted 'drastic' cut)",
            d.stitch_cycles as f64 / fused.stitch_cycles.max(1) as f64
        );
    }

    println!();
    println!("== Ablation 2: linearized constants table on/off (64-bit constants) ==");
    {
        // A hash-mix kernel whose derived constants are full 64-bit values:
        // too large for immediates, so each hole either loads from the
        // linearized table (3 cycles) or is constructed inline from 13-bit
        // chunks (9 instructions).
        let setup = bigconst_setup(iters.min(400));
        let on = measure_kernel_full(&setup, &Compiler::new(), EngineOptions::default()).unwrap();
        let setup = bigconst_setup(iters.min(400));
        let mut opts = EngineOptions::default();
        opts.stitch.linearized_table = false;
        let off = measure_kernel_full(&setup, &Compiler::new(), opts).unwrap();
        println!(
            "  with table:    dynamic {:.0} cycles/exec, {} instrs stitched",
            on.dynamic_cycles, on.instructions_stitched
        );
        println!(
            "  without table: dynamic {:.0} cycles/exec, {} instrs stitched",
            off.dynamic_cycles, off.instructions_stitched
        );
    }

    println!();
    println!("== Ablation 3: peephole strength reduction on/off (smatmul) ==");
    {
        let rows = if smoke { 8 } else { 40 };
        let scalars = if smoke { 8 } else { 60 };
        let on = smatmul::workload(rows, 16, scalars)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let setup = smatmul::setup(rows, 16, scalars);
        let mut opts = EngineOptions::default();
        opts.stitch.peephole = false;
        let off = measure_kernel_full(&setup, &Compiler::new(), opts).unwrap();
        println!(
            "  peephole on:  speedup {:.2}x, {} strength reductions",
            on.measurement.speedup, on.measurement.stitch.strength_reductions
        );
        println!(
            "  peephole off: speedup {:.2}x, {} strength reductions",
            off.speedup, off.stitch.strength_reductions
        );
    }

    println!();
    println!("== Ablation 4: reachability analysis on/off (calculator switches) ==");
    {
        let setup = calculator::setup(iters.min(300));
        let with = measure_kernel_full(&setup, &Compiler::new(), EngineOptions::default()).unwrap();
        let setup = calculator::setup(iters.min(300));
        let no_reach = Compiler::with_options(CompileOptions {
            analysis: AnalysisConfig {
                use_reachability: false,
            },
            ..Default::default()
        });
        let without = measure_kernel_full(&setup, &no_reach, EngineOptions::default()).unwrap();
        println!(
            "  with reachability:    speedup {:.2}x, {} constant branches resolved, {} holes",
            with.speedup, with.stitch.const_branches_resolved, with.spec.holes
        );
        println!(
            "  without reachability: speedup {:.2}x, {} constant branches resolved, {} holes",
            without.speedup, without.stitch.const_branches_resolved, without.spec.holes
        );
    }

    println!();
    println!("== Ablation 5: keyed code-cache capacity (working set of 4 keys) ==");
    {
        // A keyed region entered with a rotating working set of 4 keys.
        // An unbounded cache stitches each key once; a too-small cache
        // thrashes, paying set-up + stitch on (nearly) every entry.
        let src = r#"
            int poly(int k, int x) {
                dynamicRegion key(k) (k) {
                    return (k * x + k) * x + 3 * k;
                }
            }
        "#;
        let rounds = if smoke { 20 } else { 200 };
        for cap in [None, Some(4), Some(2), Some(1)] {
            let p = Arc::new(Compiler::new().compile(src).unwrap());
            let mut e = Session::with_options(
                p,
                EngineOptions {
                    keyed_cache_capacity: cap,
                    ..EngineOptions::default()
                },
            );
            let mut sink = 0u64;
            for round in 0..rounds {
                for k in 1..=4u64 {
                    sink = sink.wrapping_add(e.call("poly", &[k, round % 7]).unwrap());
                }
            }
            let r = e.region_report(0);
            let label = cap.map_or("unbounded".to_string(), |c| format!("capacity {c}"));
            println!(
                "  {label:<11}: {:>9} total cycles, {:>4} stitch(es), {:>4} eviction(s)  [sink {sink}]",
                e.cycles(),
                r.stitches,
                r.evictions
            );
        }
    }
    Report::default()
}

fn bigconst_setup(iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: r#"
            unsigned mix(unsigned k, unsigned x) {
                dynamicRegion (k) {
                    unsigned a = k * 2654435761;
                    unsigned b = k * 40503 + 2654435769;
                    unsigned c = a ^ (b << 13);
                    return ((x + a) ^ (x * 31 + b)) + c;
                }
            }
        "#,
        func: "mix",
        iterations,
        prepare: Box::new(|_| vec![0x1234_5678_9ABC_DEF0u64]),
        args: Box::new(|i, p| vec![p[0], i]),
    }
}
