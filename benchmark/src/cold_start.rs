//! Workload `cold-start`: what a session pays before its first result.
//!
//! One operation is one cold script: `Session::with_options`, building the
//! inputs (untimed), then the cold calls, every result checked. The rotation
//! is 7 cases x 4 cache-tier/backend pairs. Session creation, the trap,
//! set-up code, the stitcher, `verify_code`, install, native translation and
//! the three cache tiers do the work; steady execution does almost none.
//!
//! `spmv96` is one big unrolled stitch (per-instruction cost dominates) and
//! `smatmul-sweep` is sixteen small keyed stitches (per-stitch fixed cost,
//! keyed lookup and install dominate): the same stitcher used two ways. The
//! shared and persistent tiers relocate and verify *instead of* stitching, so
//! a stitcher change must leave them unmoved.

use crate::harness::{
    end_to_end, out_dir, repeat_setup, round_rate, rounds, vm_hwm_mib, CaseSamples, RunArgs,
};
use crate::inputs::{sub_seeds, KernelCase, Sizes};
use crate::metrics::{Outcome, Tally, COLD_CASES, COLD_TIERS};
use crate::stats::{gmean, mean, median, Fnv64};
use crate::trace::{case_medians, write_chrome, Tracer};
use dyncomp::{
    Compiler, EngineOptions, PersistentCache, Program, Session, SharedCodeCache, SharedKey,
};
use dyncomp_machine::verify_code;
use dyncomp_native::ChainSpec;
use dyncomp_stitcher::{StitchOptions, Stitched};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small inputs: the cold script is about getting to the first result.
const COLD_SIZES: Sizes = Sizes {
    calls: 1,
    spmv: (96, 5),
    smatmul: (32, 16),
    sorter_records: 24,
    query_rows: 8,
};

struct Case {
    kernel: KernelCase,
    program: Arc<Program>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Stitch,
    Shared,
    Persist,
}

/// A directory under `benchmark/out/tmp`, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join("tmp").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub struct Ctx {
    cases: Vec<Case>,
    /// Engine options per tier, in [`COLD_TIERS`] order.
    options: Vec<(Tier, EngineOptions)>,
    shared: Arc<SharedCodeCache>,
    persist: Arc<PersistentCache>,
    persist_dir: TempDir,
    inputs_fnv: u64,
    tally: Tally,
}

impl Ctx {
    fn cell_names() -> Vec<String> {
        COLD_TIERS
            .iter()
            .flat_map(|t| COLD_CASES.iter().map(move |c| format!("{t}.{c}")))
            .collect()
    }
}

/// What one cold script left behind, for the checks and the traced replays.
struct Cold {
    session: Session,
    args: Vec<Vec<u64>>,
    session_new: Duration,
    cold_calls: Duration,
    ok: bool,
}

/// Run `case`'s calls and compare each result with the host reference.
fn calls_ok(s: &mut Session, case: &KernelCase, args: &[Vec<u64>]) -> bool {
    let mut ok = true;
    for (a, &want) in args.iter().zip(&case.expected) {
        ok &= matches!(s.call(case.func, a), Ok(got) if got == want);
    }
    ok
}

/// Whether the session got its code the way its tier says: a cache tier
/// that silently stitched would be measured under the wrong name.
fn tier_ok(s: &Session, tier: Tier) -> bool {
    let reports: Vec<_> = (0..s.program().region_count())
        .map(|i| s.region_report(i))
        .collect();
    let stitches: u64 = reports.iter().map(|r| u64::from(r.stitches)).sum();
    let shared: u64 = reports.iter().map(|r| r.shared_hits).sum();
    let persist: u64 = reports.iter().map(|r| r.persist_hits).sum();
    match tier {
        Tier::Stitch => stitches > 0 && shared == 0 && persist == 0,
        Tier::Shared => shared > 0 && stitches == 0 && persist == 0,
        Tier::Persist => persist > 0 && stitches == 0 && shared == 0,
    }
}

/// `f` under a span when tracing, plain otherwise.
fn span<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.time(name, f),
        None => f(),
    }
}

/// One cold script: create the session, build the inputs (untimed), make the
/// cold calls, check the results and the path the code took.
fn cold_script(
    case: &Case,
    tier: Tier,
    options: &EngineOptions,
    mut tr: Option<&mut Tracer>,
) -> Cold {
    let program = Arc::clone(&case.program);
    let options = options.clone();
    let t0 = Instant::now();
    let mut session = span(&mut tr, "engine.session_new", || {
        Session::with_options(program, options)
    });
    let session_new = t0.elapsed();
    let args = span(&mut tr, "prepare", || case.kernel.prepare(&mut session));
    let t1 = Instant::now();
    let ok = span(&mut tr, "engine.cold_calls", || {
        calls_ok(&mut session, &case.kernel, &args)
    });
    let cold_calls = t1.elapsed();
    let ok = ok
        && tier_ok(&session, tier)
        && args
            .last()
            .is_none_or(|a| case.kernel.memory_matches(&mut session, a));
    Cold {
        session,
        args,
        session_new,
        cold_calls,
        ok,
    }
}

fn setup(seed: u64) -> Ctx {
    let mut fnv = Fnv64::default();
    let seeds = sub_seeds(seed, COLD_CASES.len());
    let cases: Vec<Case> = COLD_CASES
        .iter()
        .zip(&seeds)
        .map(|(&name, &s)| {
            let (kernel, inline) = match name {
                "spmv96" => ("spmv", false),
                "smatmul-sweep" => ("smatmul", false),
                "sorter4" => ("sorter", false),
                "protomsg-inl2" => ("protomsg", true),
                "queryexec-inl2" => ("queryexec", true),
                other => (other, false),
            };
            let kernel = KernelCase::generate(kernel, &COLD_SIZES, s, &mut fnv);
            let compiler = if inline {
                Compiler::with_inline_depth(2)
            } else {
                Compiler::new()
            };
            let program = compiler
                .compile(kernel.src)
                .expect("kernel sources compile (checked by the compile workload)");
            Case {
                kernel,
                program: Arc::new(program),
            }
        })
        .collect();

    let shared = Arc::new(SharedCodeCache::default());
    let persist_dir = TempDir::new("persist").expect("benchmark/out/tmp is writable");
    let persist = Arc::new(PersistentCache::open(&persist_dir.0).expect("persist directory opens"));
    let native = EngineOptions {
        native: true,
        ..EngineOptions::default()
    };
    let options = vec![
        (Tier::Stitch, EngineOptions::default()),
        (Tier::Stitch, native.clone()),
        (
            Tier::Shared,
            EngineOptions {
                shared_cache: Some(Arc::clone(&shared)),
                ..native.clone()
            },
        ),
        (
            Tier::Persist,
            EngineOptions {
                persist: Some(Arc::clone(&persist)),
                ..native
            },
        ),
    ];

    let mut ctx = Ctx {
        cases,
        options,
        shared,
        persist,
        persist_dir,
        inputs_fnv: fnv.finish(),
        tally: Tally::default(),
    };
    // Producer sessions fill the two caches (they stitch and publish), then
    // one warm-up pass over the whole rotation checks every cell.
    for case in &ctx.cases {
        for (_, options) in &ctx.options[2..] {
            ctx.tally
                .record(cold_script(case, Tier::Stitch, options, None).ok);
        }
    }
    rotate(&mut ctx, 0.0, |_, _, case, tier, options| {
        cold_script(case, tier, options, None).ok
    });
    ctx
}

/// Rotate over the 28 cells until `seconds` have passed (at least once);
/// returns the wall time of every round.
fn rotate(
    ctx: &mut Ctx,
    seconds: f64,
    mut op: impl FnMut(u64, usize, &Case, Tier, &EngineOptions) -> bool,
) -> Vec<f64> {
    rounds(seconds, |round| {
        for (t, (tier, options)) in ctx.options.iter().enumerate() {
            for (c, case) in ctx.cases.iter().enumerate() {
                ctx.tally
                    .record(op(round, t * COLD_CASES.len() + c, case, *tier, options));
            }
        }
    })
}

fn timed_cold(
    samples: &mut CaseSamples,
    cell: usize,
    c: &Case,
    t: Tier,
    o: &EngineOptions,
) -> bool {
    let cold = cold_script(c, t, o, None);
    samples.push(
        cell,
        (cold.session_new + cold.cold_calls).as_secs_f64() * 1e6,
    );
    cold.ok
}

pub fn run(args: &RunArgs) -> Outcome {
    let (mut contexts, setup_s) = repeat_setup(args.setup_repeats(), true, || setup(args.seed));
    let mut ctx = contexts.pop().expect("at least one set-up ran");
    let mut out = Outcome {
        inputs_fnv: ctx.inputs_fnv,
        ..Outcome::default()
    };
    if !args.trace {
        let mut samples = CaseSamples::new(Ctx::cell_names());
        let walls = rotate(&mut ctx, args.seconds, |_, cell, c, t, o| {
            timed_cold(&mut samples, cell, c, t, o)
        });
        let rate = round_rate(samples.names.len(), &walls);
        end_to_end(&mut out, setup_s, rate, &samples, vm_hwm_mib(None));
    } else {
        traced(&mut ctx, args, &mut out);
    }
    out.tally = ctx.tally;
    out
}

/// Exact counts one cold script exposes.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Counts {
    sim_setup_cycles: u64,
    trap_invocations: u64,
    instructions_stitched: u64,
    words_emitted: u64,
    plan_hits: u64,
    plan_misses: u64,
    sim_stitch_cycles: u64,
    persist_hits: u64,
    persist_rejects: u64,
    /// Code words the session installed, by any path.
    installed_words: u64,
    /// Instructions and host bytes of the replayed native translation.
    native_instructions: u64,
    native_bytes: u64,
    /// Simulated cycles of re-stitching with copy-and-patch plans off.
    noplan_sim_cycles: u64,
}

fn counts_of(s: &Session) -> Counts {
    let mut c = Counts::default();
    for i in 0..s.program().region_count() {
        let r = s.region_report(i);
        c.sim_setup_cycles += r.setup_cycles;
        c.trap_invocations += r.invocations;
        c.instructions_stitched += u64::from(r.stitch_stats.instructions_stitched);
        c.words_emitted += u64::from(r.stitch_stats.words_emitted);
        c.plan_hits += u64::from(r.stitch_stats.plan_hits);
        c.plan_misses += u64::from(r.stitch_stats.plan_misses);
        c.sim_stitch_cycles += r.stitch_cycles;
        c.persist_hits += r.persist_hits;
        c.persist_rejects += r.persist_rejects;
    }
    c
}

/// An installed instance, copied out of the session: region, key, install
/// base and code words.
struct Instance {
    region: u16,
    key: Vec<u64>,
    base: u32,
    code: Vec<u32>,
}

fn instances_of(s: &Session) -> Vec<Instance> {
    let origin = s.vm.code.as_ptr() as usize;
    (0..s.program().region_count())
        .flat_map(|i| {
            s.stitched_instances(i)
                .into_iter()
                .map(move |(key, code)| Instance {
                    region: i as u16,
                    key: key.to_vec(),
                    // The slice borrows the session's code space, so its
                    // offset from the start is the install base.
                    base: ((code.as_ptr() as usize - origin) / std::mem::size_of::<u32>()) as u32,
                    code: code.to_vec(),
                })
        })
        .collect()
}

/// The layer replays of one cold script, each under its own span. They run
/// after the cold calls, on the session and the artifacts those calls left:
/// the engine's own layers are timed from outside, not instrumented.
fn replay_layers(
    tr: &mut Tracer,
    ctx_shared: &SharedCodeCache,
    case: &Case,
    tier: Tier,
    options: &EngineOptions,
    cold: &mut Cold,
    counts: &mut Counts,
) -> bool {
    let s = &mut cold.session;
    let mut ok = tr.time("engine.warm_calls", || {
        calls_ok(s, &case.kernel, &cold.args)
    });
    if tier == Tier::Stitch {
        ok &= tr
            .time("stitcher.stitch", || s.restitch_all(&options.stitch))
            .is_ok();
        // The same stitches through the interpretive directive walk: the
        // simulated cost model prices plans well below it, the host does not.
        let noplan = StitchOptions {
            plans: false,
            ..options.stitch.clone()
        };
        match tr.time("stitcher.stitch_noplan", || s.restitch_all(&noplan)) {
            Ok(stats) => counts.noplan_sim_cycles = stats.cycles,
            Err(_) => ok = false,
        }
    }
    let instances = instances_of(s);
    counts.installed_words = instances.iter().map(|i| i.code.len() as u64).sum();
    ok &= tr.time("machine.verify", || {
        instances
            .iter()
            .all(|i| verify_code(&i.code, i.base).is_ok())
    });
    if options.native && s.native_report().installs > 0 {
        // The spec the engine translates region instances with.
        let spec = ChainSpec {
            indirect: options.native_chain,
            guards: Vec::new(),
            leaders: Vec::new(),
        };
        let artifacts: Vec<_> = tr.time("native.translate", || {
            instances
                .iter()
                .map(|i| dyncomp_native::translate_with(&i.code, i.base, &s.vm.model, &spec))
                .collect()
        });
        counts.native_instructions = artifacts.iter().map(|a| u64::from(a.instructions)).sum();
        counts.native_bytes = artifacts.iter().map(|a| a.bytes.len() as u64).sum();
        let mut backend = dyncomp_native::Backend::new();
        tr.time("native.install", || {
            for (i, a) in instances.iter().zip(&artifacts) {
                // An instance whose entry does not lower stays on the VM,
                // exactly as in the engine.
                let _ = backend.install(i.base, a);
            }
        });
    }
    if tier != Tier::Stitch {
        // The cached form of each instance (the persistent tier decodes the
        // same `Stitched` from its file; the shared cache holds it as is).
        let cached: Vec<(SharedKey, Arc<Stitched>)> = instances
            .iter()
            .filter_map(|i| {
                let key = SharedKey {
                    program: case.program.id(),
                    region: i.region,
                    key: i.key.clone(),
                };
                ctx_shared.lookup(&key).map(|st| (key, st))
            })
            .collect();
        ok &= cached.len() == instances.len();
        let base = s.vm.code.len() as u32;
        ok &= tr.time("stitcher.relocate", || {
            cached
                .iter()
                .all(|(_, st)| st.relocate(base, &mut s.vm.mem).is_ok())
        });
        if tier == Tier::Shared {
            let scratch = SharedCodeCache::default();
            tr.time("cache.insert", || {
                for (key, st) in &cached {
                    scratch.insert(key.clone(), Arc::clone(st));
                }
            });
            ok &= tr.time("cache.lookup", || {
                cached.iter().all(|(key, _)| scratch.lookup(key).is_some())
            });
        }
    }
    ok
}

/// Span name to per-layer metric, for the spans averaged over all cells.
const LAYER_SPANS: [(&str, &str); 9] = [
    ("engine.session_new", "engine.session_new_ns"),
    ("engine.cold_calls", "engine.cold_calls_ns"),
    ("stitcher.stitch", "stitcher.stitch_ns"),
    ("stitcher.relocate", "stitcher.relocate_ns"),
    ("machine.verify", "machine.verify_ns"),
    ("native.translate", "native.translate_ns"),
    ("native.install", "native.install_ns"),
    ("cache.lookup", "cache.lookup_ns"),
    ("cache.insert", "cache.insert_ns"),
];

fn traced(ctx: &mut Ctx, args: &RunArgs, out: &mut Outcome) {
    let n_cells = COLD_TIERS.len() * COLD_CASES.len();
    let mut whole = CaseSamples::new(Ctx::cell_names());
    let mut traced = CaseSamples::new(Ctx::cell_names());
    let mut tr = Tracer::new(Instant::now());
    let mut counts: Vec<Option<Counts>> = vec![None; n_cells];
    let mut counts_repeat = true;
    let shared = Arc::clone(&ctx.shared);
    let (mut shared_hits, mut shared_misses) = (0u64, 0u64);

    // Rounds alternate between the untraced script (the whole) and the
    // traced one, so both see the same machine state.
    rotate(ctx, args.seconds, |round, cell, case, tier, options| {
        if round % 2 == 0 {
            return timed_cold(&mut whole, cell, case, tier, options);
        }
        tr.next_op(Some(cell));
        let root = tr.begin("cold_script");
        let probes = shared.stats();
        let mut cold = cold_script(case, tier, options, Some(&mut tr));
        if tier == Tier::Shared {
            let after = shared.stats();
            shared_hits += after.hits - probes.hits;
            shared_misses += after.misses - probes.misses;
        }
        let mut c = counts_of(&cold.session);
        let ok = cold.ok & replay_layers(&mut tr, &shared, case, tier, options, &mut cold, &mut c);
        tr.end(root);
        counts_repeat &= *counts[cell].get_or_insert(c) == c;
        traced.push(
            cell,
            (cold.session_new + cold.cold_calls).as_secs_f64() * 1e6,
        );
        ok
    });
    if !counts_repeat {
        eprintln!("cold-start: an exact count changed between repetitions");
    }
    ctx.tally.record(counts_repeat);

    // Artifact load and store, per program, on the warm directory.
    let mut load_ns = Vec::new();
    let mut store_ns = Vec::new();
    for case in &ctx.cases {
        let (mut loads, mut stores) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            tr.next_op(None);
            let ((), ns) = tr.timed("persist.store_program", || {
                ctx.persist.store_program(&case.program)
            });
            stores.push(ns);
            let (loaded, ns) = tr.timed("persist.load_program", || {
                ctx.persist.load_program(case.program.artifact_hash())
            });
            loads.push(ns);
            ctx.tally
                .record(loaded.is_some_and(|p| p.compiled.code == case.program.compiled.code));
        }
        load_ns.push(median(&loads));
        store_ns.push(median(&stores));
    }

    let layers = case_medians(&tr, n_cells);
    let layer = |span: &str| layers.get(span).map_or(0.0, |cells| mean(cells));
    let total = |span: &str| {
        layers
            .get(span)
            .map_or(0.0, |cells| cells.iter().sum::<f64>())
    };
    for (span, metric) in LAYER_SPANS {
        out.set(metric, layer(span));
    }
    let attributed: f64 = [
        "engine.warm_calls",
        "stitcher.stitch",
        "stitcher.relocate",
        "machine.verify",
        "native.translate",
        "native.install",
    ]
    .iter()
    .map(|s| layer(s))
    .sum();
    out.set(
        "engine.cold_unattributed_ns",
        layer("engine.cold_calls") - attributed,
    );
    out.derive("engine.warm_calls_ns", layer("engine.warm_calls"), "ns");
    out.set("persist.load_program_ns", mean(&load_ns));
    out.set("persist.store_program_ns", mean(&store_ns));

    let sum = |f: fn(&Counts) -> u64| counts.iter().flatten().map(f).sum::<u64>() as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.set("engine.sim_setup_cycles", sum(|c| c.sim_setup_cycles));
    out.set("engine.trap_invocations", sum(|c| c.trap_invocations));
    out.set(
        "stitcher.instructions_stitched",
        sum(|c| c.instructions_stitched),
    );
    out.set("stitcher.words_emitted", sum(|c| c.words_emitted));
    out.set("stitcher.plan_hits", sum(|c| c.plan_hits));
    out.set("stitcher.plan_misses", sum(|c| c.plan_misses));
    out.set("stitcher.sim_cycles", sum(|c| c.sim_stitch_cycles));
    out.set(
        "stitcher.ns_per_instruction",
        per(total("stitcher.stitch"), sum(|c| c.instructions_stitched)),
    );
    out.set(
        "machine.verify_ns_per_word",
        per(total("machine.verify"), sum(|c| c.installed_words)),
    );
    out.set(
        "native.translate_ns_per_instruction",
        per(total("native.translate"), sum(|c| c.native_instructions)),
    );
    out.set(
        "native.bytes_per_instruction",
        per(sum(|c| c.native_bytes), sum(|c| c.native_instructions)),
    );
    out.set(
        "cache.hit_share",
        per(shared_hits as f64, (shared_hits + shared_misses) as f64),
    );
    out.set("persist.instance_hits", sum(|c| c.persist_hits));
    out.set("persist.instance_rejects", sum(|c| c.persist_rejects));
    out.set(
        "persist.bytes_on_disk",
        dir_bytes(&ctx.persist_dir.0) as f64,
    );

    let medians = whole.medians();
    for (t, tier) in COLD_TIERS.iter().enumerate() {
        let cells = &medians[t * COLD_CASES.len()..(t + 1) * COLD_CASES.len()];
        out.set(format!("cold_start_us.{tier}"), gmean(cells));
        for (case, us) in COLD_CASES.iter().zip(cells) {
            out.set(format!("cold_start_us.{tier}.{case}"), *us);
        }
    }
    out.set(
        "trace_overhead_pct.cold-start",
        (gmean(&traced.medians()) / gmean(&medians) - 1.0) * 100.0,
    );
    // Plans against the interpretive walk, on both clocks.
    let stitched = sum(|c| c.instructions_stitched);
    out.derive(
        "stitcher.sim_cycles_per_instruction.plans",
        per(sum(|c| c.sim_stitch_cycles), stitched),
        "cycles",
    );
    out.derive(
        "stitcher.sim_cycles_per_instruction.noplans",
        per(sum(|c| c.noplan_sim_cycles), stitched),
        "cycles",
    );
    out.derive(
        "stitcher.ns_per_instruction.noplans",
        per(total("stitcher.stitch_noplan"), stitched),
        "ns",
    );
    if let Err(e) = write_chrome(&out_dir().join("trace-cold-start.json"), &[&tr.spans]) {
        eprintln!("cold-start: cannot write the trace file: {e}");
    }
}
