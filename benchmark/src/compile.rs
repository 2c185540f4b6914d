//! Workload `compile`: the static compiler does all the work.
//!
//! One operation is one `Compiler::compile(src)` over a fixed rotation of 18
//! units: the seven kernel sources under `static_baseline` and
//! default-dynamic, `protomsg` and `queryexec` again at inline depth 2, and
//! two seeded synthetic units of 8 and 64 functions. The run time does
//! nothing here; the 64-function unit is there to expose passes whose cost
//! grows faster than the unit.
//!
//! Every compiled unit is run once in set-up and checked against its host
//! reference; every timed compile must then produce code word-identical to
//! that checked artifact.

use crate::harness::{
    end_to_end, out_dir, repeat_setup, round_rate, rounds, vm_hwm_mib, CaseSamples, RunArgs,
};
use crate::inputs::{sub_seeds, KernelCase, Sizes, SynthUnit};
use crate::metrics::{Outcome, Tally, KERNELS};
use crate::stats::{gmean, mean, Fnv64};
use crate::trace::{case_medians, write_chrome, Tracer};
use dyncomp::{Compiler, EngineOptions, Program, Session};
use dyncomp_analysis::{analyze_region, AnalysisConfig};
use dyncomp_codegen::CompiledModule;
use dyncomp_frontend::LowerOptions;
use dyncomp_ir::{FuncId, IdSet};
use dyncomp_opt::{optimize, OptOptions};
use dyncomp_specialize::{legalize_dynamic_switches, specialize_region, RegionSpec};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Static,
    Dynamic,
    Inline2,
}

impl Mode {
    fn compiler(self) -> Compiler {
        match self {
            Mode::Static => Compiler::static_baseline(),
            Mode::Dynamic => Compiler::new(),
            Mode::Inline2 => Compiler::with_inline_depth(2),
        }
    }
}

enum Check {
    Kernel(KernelCase),
    Synth(SynthUnit),
}

struct Unit {
    name: String,
    mode: Mode,
    check: Check,
    /// Code words of the artifact that passed its run check in set-up,
    /// and two more of its sizes.
    golden: Vec<u32>,
    template_words: usize,
    inline_sites: usize,
}

impl Unit {
    fn new(name: String, mode: Mode, check: Check) -> Unit {
        Unit {
            name,
            mode,
            check,
            golden: Vec::new(),
            template_words: 0,
            inline_sites: 0,
        }
    }

    fn src(&self) -> &str {
        match &self.check {
            Check::Kernel(k) => k.src,
            Check::Synth(s) => &s.src,
        }
    }
}

pub struct Ctx {
    units: Vec<Unit>,
    inputs_fnv: u64,
    tally: Tally,
}

impl Ctx {
    fn case_samples(&self) -> CaseSamples {
        CaseSamples::new(self.units.iter().map(|u| u.name.clone()).collect())
    }
}

/// Inputs just large enough to exercise every region of a compiled unit
/// once: the run check is about the compiler's output, not about speed.
const CHECK_SIZES: Sizes = Sizes {
    calls: 2,
    spmv: (12, 3),
    smatmul: (32, 2),
    sorter_records: 16,
    query_rows: 8,
};

/// Run a compiled unit once on fresh inputs and compare every result with
/// the host reference.
fn run_check(program: Program, check: &Check) -> bool {
    // A small data memory: the check inputs are tiny, and the peak resident
    // set this workload reports should be the compiler's, not a session's.
    let options = EngineOptions {
        memory_bytes: 1 << 20,
        ..EngineOptions::default()
    };
    let mut s = Session::with_options(Arc::new(program), options);
    match check {
        Check::Kernel(case) => {
            let args = case.prepare(&mut s);
            args.iter().zip(&case.expected).all(|(a, &want)| {
                matches!(s.call(case.func, a), Ok(got) if got == want)
                    && case.memory_matches(&mut s, a)
            })
        }
        Check::Synth(unit) => {
            let t = unit.build(&mut s);
            (0..unit.funcs.len()).all(|f| {
                matches!(
                    s.call(&unit.funcs[f].name, &[t, unit.x as u64]),
                    Ok(got) if got == unit.expected(f)
                )
            })
        }
    }
}

fn setup(seed: u64) -> Ctx {
    let mut fnv = Fnv64::default();
    let seeds = sub_seeds(seed, KERNELS.len() + 2);
    let mut units = Vec::new();
    for (&kernel, &seed) in KERNELS.iter().zip(&seeds) {
        let inline = matches!(kernel, "protomsg" | "queryexec");
        for (mode, tag) in [
            (Mode::Static, "static"),
            (Mode::Dynamic, "dynamic"),
            (Mode::Inline2, "inline2"),
        ] {
            if mode != Mode::Inline2 || inline {
                let case = KernelCase::generate(kernel, &CHECK_SIZES, seed, &mut fnv);
                units.push(Unit::new(
                    format!("{kernel}.{tag}"),
                    mode,
                    Check::Kernel(case),
                ));
            }
        }
    }
    for (n_funcs, &seed) in [8usize, 64].into_iter().zip(&seeds[KERNELS.len()..]) {
        units.push(Unit::new(
            format!("synthetic{n_funcs}.dynamic"),
            Mode::Dynamic,
            Check::Synth(SynthUnit::generate(n_funcs, seed, &mut fnv)),
        ));
    }
    let mut tally = Tally::default();
    for u in &mut units {
        let checked = match u.mode.compiler().compile(u.src()) {
            Ok(p) => {
                u.golden = p.compiled.code.clone();
                u.template_words = p
                    .compiled
                    .regions
                    .iter()
                    .map(|r| r.template.code.len())
                    .sum();
                u.inline_sites = p.inline_sites.len();
                run_check(p, &u.check)
            }
            Err(e) => {
                eprintln!("compile: unit {} did not compile: {e}", u.name);
                false
            }
        };
        if !checked {
            eprintln!("compile: unit {} failed its run check", u.name);
        }
        tally.record(checked);
    }
    Ctx {
        units,
        inputs_fnv: fnv.finish(),
        tally,
    }
}

/// Rotate over the units until `seconds` have passed, calling `op(round,
/// case, unit)` for each; returns the wall time of every round. `op` returns
/// whether the operation's output was correct.
fn rotate(ctx: &mut Ctx, seconds: f64, mut op: impl FnMut(u64, usize, &Unit) -> bool) -> Vec<f64> {
    rounds(seconds, |round| {
        for (i, u) in ctx.units.iter().enumerate() {
            ctx.tally.record(op(round, i, u));
        }
    })
}

/// One untimed-check, timed `Compiler::compile`; records the latency.
fn timed_compile(samples: &mut CaseSamples, i: usize, u: &Unit) -> bool {
    let compiler = u.mode.compiler();
    let t0 = Instant::now();
    let r = compiler.compile(std::hint::black_box(u.src()));
    samples.push(i, t0.elapsed().as_secs_f64() * 1e6);
    matches!(&r, Ok(p) if p.compiled.code == u.golden)
}

/// Counts the replayed pipeline exposes, per unit.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Counts {
    ir_insts: u64,
    ir_insts_after: u64,
    regions: u64,
    holes: u64,
    const_insts_eliminated: u64,
}

fn placed(m: &dyncomp_ir::Module) -> u64 {
    m.funcs.iter().map(|f| f.placed_inst_count() as u64).sum()
}

/// Phases 1 and 3 of `Compiler::compile`, call for call, through the public
/// layer functions, with a span around each. Only valid at inline depth 0
/// (phase 2 is private to `dyncomp`).
fn replay(tr: &mut Tracer, src: &str, dynamic: bool) -> Result<(CompiledModule, Counts), String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut counts = Counts::default();
    let lowered = tr
        .time("frontend.compile", || {
            dyncomp_frontend::compile(
                src,
                &LowerOptions {
                    honor_annotations: dynamic,
                    tiered_fallback: false,
                },
            )
        })
        .map_err(|x| e(&x))?;
    let mut module = lowered.module;
    counts.ir_insts = placed(&module);
    let mut specs: Vec<(FuncId, RegionSpec)> = Vec::new();

    for fid in module.funcs.ids().collect::<Vec<_>>() {
        let f = &mut module.funcs[fid];
        if !f.is_ssa {
            tr.time("ir.ssa", || dyncomp_ir::ssa::construct_ssa(f));
        }
        tr.time("opt.optimize", || {
            optimize(
                f,
                &OptOptions {
                    cfg_simplify: true,
                    hole_scope: None,
                },
            )
        });
        tr.time("ir.cfg_verify", || {
            dyncomp_ir::cfg::split_critical_edges(f);
            f.canonicalize_region_roots();
            dyncomp_ir::verify::verify(f)
        })
        .map_err(|x| e(&x))?;
    }

    let config = AnalysisConfig::default();
    for fid in module.funcs.ids().collect::<Vec<_>>() {
        let f = &mut module.funcs[fid];
        let mut template_scope = IdSet::new();
        for rid in f.regions.ids().collect::<Vec<_>>() {
            counts.regions += 1;
            let mut analysis = tr.time("analysis.analyze_region", || {
                analyze_region(f, rid, &config)
            });
            if tr.time("specialize.region", || {
                legalize_dynamic_switches(f, rid, &analysis)
            }) {
                tr.time("ir.cfg_verify", || {
                    dyncomp_ir::cfg::split_critical_edges(f);
                    dyncomp_ir::verify::verify(f)
                })
                .map_err(|x| e(&x))?;
                analysis = tr.time("analysis.analyze_region", || {
                    analyze_region(f, rid, &config)
                });
            }
            let spec = tr
                .time("specialize.region", || specialize_region(f, rid, &analysis))
                .map_err(|x| e(&x))?;
            tr.time("ir.cfg_verify", || dyncomp_ir::verify::verify(f))
                .map_err(|x| e(&x))?;
            for &b in &spec.template_blocks {
                template_scope.insert(b);
            }
            counts.holes += spec.stats.holes as u64;
            counts.const_insts_eliminated += spec.stats.const_insts_eliminated as u64;
            specs.push((fid, spec));
        }
        if !f.regions.is_empty() {
            tr.time("opt.optimize", || {
                optimize(
                    f,
                    &OptOptions {
                        cfg_simplify: false,
                        hole_scope: Some(template_scope),
                    },
                )
            });
            tr.time("ir.cfg_verify", || dyncomp_ir::verify::verify(f))
                .map_err(|x| e(&x))?;
        }
    }
    counts.ir_insts_after = placed(&module);
    let compiled = tr
        .time("codegen.compile_module", || {
            dyncomp_codegen::compile_module(&mut module, &specs)
        })
        .map_err(|x| e(&x))?;
    Ok((compiled, counts))
}

/// Span name to per-layer metric.
const LAYER_SPANS: [(&str, &str); 7] = [
    ("frontend.compile", "frontend.compile_ns"),
    ("ir.ssa", "ir.ssa_ns"),
    ("ir.cfg_verify", "ir.cfg_verify_ns"),
    ("opt.optimize", "opt.optimize_ns"),
    ("analysis.analyze_region", "analysis.analyze_region_ns"),
    ("specialize.region", "specialize.region_ns"),
    ("codegen.compile_module", "codegen.compile_module_ns"),
];

pub fn run(args: &RunArgs) -> Outcome {
    let (mut contexts, setup_s) = repeat_setup(args.setup_repeats(), true, || setup(args.seed));
    let mut ctx = contexts.pop().expect("at least one set-up ran");
    let mut out = Outcome {
        inputs_fnv: ctx.inputs_fnv,
        ..Outcome::default()
    };
    if !args.trace {
        let mut samples = ctx.case_samples();
        let walls = rotate(&mut ctx, args.seconds, |_, i, u| {
            timed_compile(&mut samples, i, u)
        });
        let rate = round_rate(ctx.units.len(), &walls);
        end_to_end(&mut out, setup_s, rate, &samples, vm_hwm_mib(None));
    } else {
        traced(&mut ctx, args, &mut out);
    }
    out.tally = ctx.tally;
    out
}

fn traced(ctx: &mut Ctx, args: &RunArgs, out: &mut Outcome) {
    // Rounds alternate between the real `Compiler::compile` (the whole a
    // layer's share is taken of) and the replay with spans (the whole
    // `compile` for the two inline units, whose phase 2 cannot be replayed
    // from outside), so both see the same machine state.
    let mut whole = ctx.case_samples();
    let mut replayed = ctx.case_samples();
    let mut tr = Tracer::new(Instant::now());
    let mut counts: Vec<Option<Counts>> = vec![None; ctx.units.len()];
    let mut counts_repeat = true;
    rotate(ctx, args.seconds, |round, i, u| {
        if round % 2 == 0 {
            return timed_compile(&mut whole, i, u);
        }
        tr.next_op(Some(i));
        let t0 = Instant::now();
        let root = tr.begin("compile");
        let ok = if u.mode == Mode::Inline2 {
            matches!(u.mode.compiler().compile(u.src()), Ok(p) if p.compiled.code == u.golden)
        } else {
            match replay(&mut tr, u.src(), u.mode == Mode::Dynamic) {
                Ok((compiled, c)) => {
                    counts_repeat &= *counts[i].get_or_insert(c) == c;
                    compiled.code == u.golden
                }
                Err(e) => {
                    eprintln!("compile: replay of {} failed: {e}", u.name);
                    false
                }
            }
        };
        tr.end(root);
        replayed.push(i, t0.elapsed().as_secs_f64() * 1e6);
        ok
    });
    if !counts_repeat {
        eprintln!("compile: a replay count changed between repetitions");
    }
    ctx.tally.record(counts_repeat);

    let n = ctx.units.len();
    let layers = case_medians(&tr, n);
    let (whole_us, replayed_us) = (whole.medians(), replayed.medians());
    let whole_ns = mean(&whole_us) * 1e3;
    let mut attributed = 0.0;
    for (span, metric) in LAYER_SPANS {
        let v = layers.get(span).map_or(0.0, |per_unit| mean(per_unit));
        out.set(metric, v);
        attributed += v;
    }
    out.set("core.compile_ns", whole_ns);
    out.set("core.compile_unattributed_ns", whole_ns - attributed);
    out.set(
        "trace_overhead_pct.compile",
        (gmean(&replayed_us) / gmean(&whole_us) - 1.0) * 100.0,
    );

    // Exact counts, summed over one rotation.
    let sum = |f: fn(&Counts) -> u64| counts.iter().flatten().map(f).sum::<u64>() as f64;
    let total = |f: fn(&Unit) -> usize| ctx.units.iter().map(f).sum::<usize>() as f64;
    out.set("frontend.src_bytes", total(|u| u.src().len()));
    out.set("frontend.ir_insts", sum(|c| c.ir_insts));
    out.set("opt.ir_insts_after", sum(|c| c.ir_insts_after));
    out.set("analysis.regions", sum(|c| c.regions));
    out.set("specialize.holes", sum(|c| c.holes));
    out.set(
        "specialize.const_insts_eliminated",
        sum(|c| c.const_insts_eliminated),
    );
    out.set("codegen.code_words", total(|u| u.golden.len()));
    out.set("codegen.template_words", total(|u| u.template_words));
    out.set("core.inline_sites", total(|u| u.inline_sites));

    // How faithfully the replay reproduces the real pipeline's time, over
    // the units it covers (the accounting check: within a few percent).
    let covered = |us: &[f64]| -> f64 {
        (0..n)
            .filter(|&i| ctx.units[i].mode != Mode::Inline2)
            .map(|i| us[i])
            .sum()
    };
    out.derive(
        "accounting.compile.replay_over_real",
        covered(&replayed_us) / covered(&whole_us),
        "ratio",
    );
    for (i, u) in ctx.units.iter().enumerate() {
        out.derive(format!("compile_us.{}", u.name), whole_us[i], "us");
    }
    if let Err(e) = write_chrome(&out_dir().join("trace-compile.json"), &[&tr.spans]) {
        eprintln!("compile: cannot write the trace file: {e}");
    }
}
