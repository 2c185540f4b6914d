//! Differential test of `dyncomp_opt::optimize` against a reference
//! driver: the public pass functions in the optimizer's round structure,
//! every pass a full walk over the reachable blocks, rounds until one
//! changes nothing.
//!
//! Every `optimize` call the static compiler makes is replayed through the
//! public layer functions, and at each one the reference runs on a copy of
//! the same function. The two must report the same `OptStats` and leave
//! the same printed function. The corpus is the `compile_golden` matrix
//! (seven kernels under the static, dynamic, tiered and inline-depth-2
//! front ends, and the synthetic units of 8 and 64 functions) and 512
//! seeded units of `tests/random_programs.rs`'s generator, each plain and
//! in a dynamic region, plus a few shapes that corpus reaches rarely.

use dyncomp_analysis::AnalysisConfig;
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use dyncomp_bench::synthetic;
use dyncomp_frontend::LowerOptions;
use dyncomp_ir::prng::SplitMix64;
use dyncomp_ir::{FuncId, Function, IdSet, InstKind, Module};
use dyncomp_opt::{
    copy_propagate, eliminate_dead_code, fold_constants, local_cse, optimize, simplify_cfg,
    OptOptions, OptStats,
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

/// `optimize(f, opts)`, checked against the reference on a copy of `f`.
fn checked(f: &mut Function, opts: &OptOptions, what: &str) -> OptStats {
    let mut want_f = f.clone();
    let want = reference(&mut want_f, opts);
    let got = optimize(f, opts);
    assert_eq!(got, want, "{what}: `{}`'s counters differ", f.name);
    assert_eq!(
        f.to_string(),
        want_f.to_string(),
        "{what}: `{}` differs after optimize",
        f.name
    );
    got
}

/// Phase-1 prep of one function, as the compiler runs it.
fn prep(f: &mut Function, what: &str) {
    if !f.is_ssa {
        dyncomp_ir::ssa::construct_ssa(f);
    }
    checked(
        f,
        &OptOptions {
            cfg_simplify: true,
            hole_scope: None,
        },
        what,
    );
    dyncomp_ir::cfg::split_critical_edges(f);
    f.canonicalize_region_roots();
    dyncomp_ir::verify::verify(f).expect("prep verifies");
}

/// Phase 2 at the given depth: inline region call sites whose arguments
/// include a run-time constant, re-running the prep after each one.
/// Returns how many sites were inlined.
fn inline_demanded(m: &mut Module, depth: u32, config: &AnalysisConfig, what: &str) -> usize {
    let mut inlined = 0;
    for _ in 0..depth {
        let mut any = false;
        for fid in m.funcs.ids().collect::<Vec<_>>() {
            let eligible_max = m.funcs[fid].insts.len();
            let mut rejected = Vec::new();
            while let Some((block, call, callee)) =
                demanded_call(m, fid, eligible_max, &rejected, config)
            {
                let callee_fn = m.funcs[callee].clone();
                if dyncomp_ir::inline_call(&mut m.funcs[fid], block, call, &callee_fn).is_ok() {
                    prep(&mut m.funcs[fid], what);
                    inlined += 1;
                    any = true;
                } else {
                    rejected.push(call);
                }
            }
        }
        if !any {
            break;
        }
    }
    inlined
}

fn demanded_call(
    m: &Module,
    fid: FuncId,
    eligible_max: usize,
    rejected: &[dyncomp_ir::InstId],
    config: &AnalysisConfig,
) -> Option<(dyncomp_ir::BlockId, dyncomp_ir::InstId, FuncId)> {
    let f = &m.funcs[fid];
    for rid in f.regions.ids() {
        let analysis = dyncomp_analysis::analyze_region(f, rid, config);
        let r = &f.regions[rid];
        for b in r.blocks.iter() {
            for &i in &f.blocks[b].insts {
                let InstKind::Call { callee, args } = f.kind(i) else {
                    continue;
                };
                if i.index() >= eligible_max || rejected.contains(&i) || *callee == fid {
                    continue;
                }
                let small = m.funcs[*callee].regions.is_empty()
                    && m.funcs[*callee].placed_inst_count() <= 512;
                let demanded = args
                    .iter()
                    .any(|&a| analysis.is_const(a) || r.const_roots.contains(&a));
                if small && demanded {
                    return Some((b, i, *callee));
                }
            }
        }
    }
    None
}

/// The compiler's three phases through the public layer functions, with
/// every `optimize` call checked. Returns how many calls were checked.
fn replay(src: &str, lower: &LowerOptions, inline_depth: u32, what: &str) -> usize {
    let mut m = dyncomp_frontend::compile(src, lower)
        .expect("front end accepts the unit")
        .module;
    let config = AnalysisConfig::default();
    let mut calls = 0;
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        prep(&mut m.funcs[fid], what);
        calls += 1;
    }
    calls += inline_demanded(&mut m, inline_depth, &config, what);
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        let f = &mut m.funcs[fid];
        let mut template_scope = IdSet::new();
        for rid in f.regions.ids().collect::<Vec<_>>() {
            let mut analysis = dyncomp_analysis::analyze_region(f, rid, &config);
            if dyncomp_specialize::legalize_dynamic_switches(f, rid, &analysis) {
                dyncomp_ir::cfg::split_critical_edges(f);
                analysis = dyncomp_analysis::analyze_region(f, rid, &config);
            }
            let spec = dyncomp_specialize::specialize_region(f, rid, &analysis)
                .expect("region specializes");
            for &b in &spec.template_blocks {
                template_scope.insert(b);
            }
        }
        if !f.regions.is_empty() {
            checked(
                f,
                &OptOptions {
                    cfg_simplify: false,
                    hole_scope: Some(template_scope),
                },
                what,
            );
            calls += 1;
            dyncomp_ir::verify::verify(f).expect("optimized IR verifies");
        }
    }
    calls
}

fn lower(honor_annotations: bool, tiered_fallback: bool) -> LowerOptions {
    LowerOptions {
        honor_annotations,
        tiered_fallback,
    }
}

#[test]
fn optimize_matches_the_reference_over_the_compile_golden_matrix() {
    let kernels: [(&str, &str); 7] = [
        ("calculator", calculator::SRC),
        ("smatmul", smatmul::SRC),
        ("spmv", spmv::SRC),
        ("dispatch", dispatch::SRC),
        ("sorter", sorter::SRC),
        ("protomsg", protomsg::SRC),
        ("queryexec", queryexec::SRC),
    ];
    let modes = [
        ("static", lower(false, false), 0),
        ("dynamic", lower(true, false), 0),
        ("inline2", lower(true, false), 2),
        ("tiered", lower(true, true), 0),
    ];
    let mut calls = 0;
    for (kernel, src) in kernels {
        for (tag, opts, depth) in &modes {
            calls += replay(src, opts, *depth, &format!("{kernel}.{tag}"));
        }
    }
    for (n, seed) in [(8, 0x5eed_0008), (64, 0x5eed_0064)] {
        let src = synthetic::unit(n, seed);
        calls += replay(&src, &lower(true, false), 0, &format!("synthetic{n}"));
    }
    assert!(calls >= 100, "only {calls} optimize calls checked");
}

#[test]
fn optimize_matches_the_reference_over_512_random_units() {
    let mut rng = SplitMix64::new(0x0b7d_1ff0);
    for case in 0..512 {
        let stmts = random_program::random_stmts(&mut rng);
        let dynamic = case % 2 == 1;
        let src = random_program::render_program(&stmts, dynamic);
        replay(
            &src,
            &lower(dynamic, false),
            0,
            &format!("random unit {case}\n{src}"),
        );
    }
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
            replay(
                &src,
                &lower(dynamic, false),
                0,
                &format!("shape {case}\n{src}"),
            );
        }
    }
}
