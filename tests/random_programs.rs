//! Randomized differential testing across the whole system: random
//! MiniC programs are executed three ways —
//!
//! 1. the reference IR interpreter (plain lowering),
//! 2. the static compiler + SimAlpha VM,
//! 3. the dynamic compiler (body wrapped in a `dynamicRegion`) + stitcher,
//!
//! and all three must agree on every input. This exercises the front end,
//! SSA construction/destruction, the optimizer, the analyses, the
//! specializer, register allocation, codegen, the VM and the stitcher in
//! one property. Programs are generated from a seeded [`SplitMix64`], so
//! every run tests the identical corpus.

use dyncomp::{Compiler, Session};
use dyncomp_frontend::{compile, LowerOptions};
use dyncomp_ir::eval::{EvalOutcome, Evaluator};
use dyncomp_ir::prng::SplitMix64;
use std::sync::Arc;

#[path = "support/random_program.rs"]
mod random_program;
use random_program::{random_stmts, render_program};

fn run_reference(src: &str, k: u64, x: u64) -> i64 {
    let m = compile(src, &LowerOptions::default())
        .expect("compiles")
        .module;
    let fid = m.func_by_name("f").unwrap();
    let mut ev = Evaluator::new(&m);
    match ev.call(fid, &[k, x]).expect("reference runs") {
        EvalOutcome::Return(Some(v)) => v as i64,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn three_way_agreement() {
    let mut rng = SplitMix64::new(0x3a3a_0001);
    for case in 0..48 {
        let stmts = random_stmts(&mut rng);
        let k = rng.below(40);
        let xs: Vec<u64> = (0..rng.range_u64(1, 4)).map(|_| rng.below(64)).collect();

        let plain_src = render_program(&stmts, false);
        let dyn_src = render_program(&stmts, true);

        // Static compile once; dynamic compile once.
        let static_prog = Arc::new(
            Compiler::static_baseline()
                .compile(&plain_src)
                .expect("static compiles"),
        );
        let dyn_prog = Arc::new(Compiler::new().compile(&dyn_src).expect("dynamic compiles"));
        let mut se = Session::new(static_prog);
        let mut de = Session::new(dyn_prog);

        for &x in &xs {
            let want = run_reference(&plain_src, k, x);
            let got_static = se.call("f", &[k, x]).expect("static vm runs") as i64;
            assert_eq!(
                got_static, want,
                "case {case}: static VM vs reference (k={k}, x={x})\n{plain_src}"
            );
            let got_dyn = de.call("f", &[k, x]).expect("dynamic vm runs") as i64;
            assert_eq!(
                got_dyn, want,
                "case {case}: dynamic VM vs reference (k={k}, x={x})\n{dyn_src}"
            );
        }
    }
}

#[test]
fn optimizer_preserves_random_programs() {
    let mut rng = SplitMix64::new(0x3a3a_0002);
    for case in 0..48 {
        let stmts = random_stmts(&mut rng);
        let k = rng.below(40);
        let x = rng.below(64);
        let src = render_program(&stmts, false);
        // The optimized static compile on the VM must agree with the
        // reference interpreter on the unoptimized module, as lowered and
        // in SSA form (the optimizer's input).
        let want = run_reference(&src, k, x);
        let mut ssa = compile(&src, &LowerOptions::default())
            .expect("compiles")
            .module;
        for f in ssa.funcs.iter_mut() {
            dyncomp_ir::ssa::construct_ssa(f);
        }
        let fid = ssa.func_by_name("f").unwrap();
        let unopt = match Evaluator::new(&ssa).call(fid, &[k, x]).expect("SSA runs") {
            EvalOutcome::Return(Some(v)) => v as i64,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(unopt, want, "case {case}: SSA form vs lowering\n{src}");
        let opt = Arc::new(Compiler::static_baseline().compile(&src).expect("compiles"));
        let got = Session::new(opt).call("f", &[k, x]).expect("runs") as i64;
        assert_eq!(got, want, "case {case}: optimizer changed behavior\n{src}");
    }
}
