//! Differential test of `dyncomp_opt::optimize` against a reference
//! driver: the public pass functions in the optimizer's round structure,
//! every pass a full walk over the reachable blocks, rounds until one
//! changes nothing.
//!
//! A pass observer on `Compiler::compile_observed` watches every
//! `optimize` call the static compiler makes, the inliner's included: it
//! copies the function before the call, runs the reference on the copy
//! with the call's options, and after the call the two must report the
//! same `OptStats` and leave the same printed function. The corpus is the
//! `compile_golden` matrix (seven kernels under the static, dynamic,
//! tiered and inline-depth-2 compilers, and the synthetic units of 8 and
//! 64 functions) and 512 seeded units of `tests/random_programs.rs`'s
//! generator, each plain and in a dynamic region, plus a few shapes that
//! corpus reaches rarely.

use dyncomp::{Compiler, PassObserver, Phase};
use dyncomp_bench::lattice;
use dyncomp_bench::synthetic;
use dyncomp_ir::prng::SplitMix64;
use dyncomp_ir::Function;
use dyncomp_opt::{
    copy_propagate, eliminate_dead_code, fold_constants, local_cse, simplify_cfg, OptOptions,
    OptStats,
};

#[path = "../../../tests/support/random_program.rs"]
mod random_program;

/// The reference: every pass over every reachable block, in the
/// optimizer's pass order, until a round changes nothing (at most 50).
fn reference(f: &mut Function, opts: &OptOptions) -> OptStats {
    let mut total = OptStats::default();
    for _ in 0..50 {
        let passes = [
            fold_constants(f),
            copy_propagate(f, opts.hole_scope.as_ref()),
            local_cse(f),
            eliminate_dead_code(f),
            if opts.cfg_simplify {
                simplify_cfg(f)
            } else {
                OptStats::default()
            },
        ];
        let mut round = OptStats::default();
        for p in passes {
            round.folded += p.folded;
            round.branches_folded += p.branches_folded;
            round.copies_propagated += p.copies_propagated;
            round.dead_removed += p.dead_removed;
            round.cse_hits += p.cse_hits;
            round.cfg_simplified += p.cfg_simplified;
        }
        total.folded += round.folded;
        total.branches_folded += round.branches_folded;
        total.copies_propagated += round.copies_propagated;
        total.dead_removed += round.dead_removed;
        total.cse_hits += round.cse_hits;
        total.cfg_simplified += round.cfg_simplified;
        if round == OptStats::default() {
            break;
        }
    }
    total
}

/// Checks every `optimize` call of one compile against the reference.
struct Checked<'a> {
    /// The unit, for failure messages.
    what: &'a str,
    /// The function as the `optimize` call under way found it.
    before: Option<Function>,
    /// Calls checked so far.
    calls: usize,
}

impl PassObserver for Checked<'_> {
    fn before(&mut self, phase: Phase, func: Option<&Function>) {
        if phase == Phase::Optimize {
            self.before = func.cloned();
        }
    }

    fn optimized(&mut self, f: &Function, opts: &OptOptions, got: &OptStats) {
        let what = self.what;
        let mut want_f = self
            .before
            .take()
            .expect("optimize is observed before it runs");
        let want = reference(&mut want_f, opts);
        assert_eq!(*got, want, "{what}: `{}`'s counters differ", f.name);
        assert_eq!(
            f.to_string(),
            want_f.to_string(),
            "{what}: `{}` differs after optimize",
            f.name
        );
        self.calls += 1;
    }
}

/// Compile `src`, checking every `optimize` call. Returns how many calls
/// were checked.
fn check(compiler: &Compiler, src: &str, what: &str) -> usize {
    let mut checked = Checked {
        what,
        before: None,
        calls: 0,
    };
    compiler
        .compile_observed(src, &mut checked)
        .expect("unit compiles");
    checked.calls
}

/// The compiler for a unit with or without its annotations.
fn compiler(dynamic: bool) -> Compiler {
    if dynamic {
        Compiler::new()
    } else {
        Compiler::static_baseline()
    }
}

#[test]
fn optimize_matches_the_reference_over_the_compile_golden_matrix() {
    let plan = lattice::plan("opt_differential::matrix");
    let mut calls = 0;
    for k in &plan.programs {
        for c in &plan.cells {
            let unit = format!("{}.{}", k.name(), c.comp.name());
            calls += check(&c.comp.compiler(), k.src(), &unit);
        }
    }
    for (n, seed) in [(8, 0x5eed_0008), (64, 0x5eed_0064)] {
        let src = synthetic::unit(n, seed);
        calls += check(&Compiler::new(), &src, &format!("synthetic{n}"));
    }
    assert_eq!(calls, 193, "optimize calls checked over the matrix");
}

#[test]
fn optimize_matches_the_reference_over_512_random_units() {
    let mut rng = SplitMix64::new(0x0b7d_1ff0);
    let mut calls = 0;
    for case in 0..512 {
        let stmts = random_program::random_stmts(&mut rng);
        let dynamic = case % 2 == 1;
        let src = random_program::render_program(&stmts, dynamic);
        calls += check(
            &compiler(dynamic),
            &src,
            &format!("random unit {case}\n{src}"),
        );
    }
    assert!(calls >= 768, "only {calls} optimize calls checked");
}

/// Shapes the seeded corpus reaches only rarely, each needing one rule of
/// the optimizer's dirty marking.
const TARGETED: [&str; 4] = [
    // CSE turns a branch condition into a copy of an earlier compare
    // (commuted operands): the terminator must be revisited.
    "int f(int k, int x) { int y = (k == x); if (x == k) { y = 2; } return y; }",
    // A φ folds away in a later round, and the join loses its leading φ:
    // simplify_cfg must run again.
    "int f(int k, int x) { int v = k; if ((x | (x > x))) { v = (k - (x - x)); } return v * 3; }",
    // Dead-code elimination empties a loop's preheader in a later round,
    // once CSE, copy propagation and folding have cancelled `p - q`: the
    // emptied block must re-arm simplify_cfg, which then threads it.
    "int g; int f(int k, int x) { if (x) { int p = x * x; int q = x * x; \
     while (g) { g = (g - 1) + (p - q); } } return k; }",
    // The join's only φ dies in a later round, when `m - m` folds, and the
    // join keeps other code: the stripped φ must re-arm simplify_cfg,
    // which then threads the empty arm into the join.
    "int f(int k, int x) { int v = k; if (x) { v = x; } return (k * 3) + ((v * x) - (v * x)); }",
];

#[test]
fn optimize_matches_the_reference_on_targeted_shapes() {
    for (case, src) in TARGETED.iter().enumerate() {
        for dynamic in [false, true] {
            let src = if dynamic {
                src.replacen("{ ", "{ dynamicRegion (k) { ", 1) + " }"
            } else {
                src.to_string()
            };
            check(&compiler(dynamic), &src, &format!("shape {case}\n{src}"));
        }
    }
}
