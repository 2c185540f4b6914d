//! Heap allocations of the static compiler, pass by pass: a deterministic
//! row beside the host-time ledger.
//!
//! A counting global allocator wraps the system one. Over the
//! `compile_golden` matrix, the units that can be replayed through the
//! public pass functions (inline depth 0) are replayed call for call, and
//! the allocator calls made inside each pass are charged to it. The
//! inline-depth-2 units, whose inliner fixpoint is private to `dyncomp`,
//! are charged to one whole-compile row. An allocation is a call to
//! `alloc`, `alloc_zeroed` or `realloc`.
//!
//! The static compiler is deterministic, so every count is exact. Each is
//! pinned as an upper bound: a pass that allocates more than its bound
//! fails here without a single host timing. A bound is lowered to the
//! new count when a pass allocates less; it is never raised.
//!
//! `cargo test --release -p dyncomp-bench --test compile_allocs` prints
//! the table.

use dyncomp_analysis::{analyze_region_with, AnalysisConfig, AnalysisScratch};
use dyncomp_bench::lattice::{self, Comp};
use dyncomp_bench::synthetic;
use dyncomp_frontend::LowerOptions;
use dyncomp_ir::ssa::{construct_ssa_with, SsaScratch};
use dyncomp_ir::verify::{verify_with, VerifyScratch};
use dyncomp_ir::{FuncId, IdSet};
use dyncomp_opt::{optimize_with, OptOptions, OptScratch};
use dyncomp_specialize::{RegionSpec, SpecScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocator calls while [`COUNTING`] is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn charge(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// bumps two atomic counters, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The rows, in pipeline order. The replayed passes are named as the
/// benchmark names its layers, except that the front end's
/// `frontend.compile` is split into its parser and its lowering (with
/// type checking); `ir.cfg_verify` is edge splitting, root
/// canonicalization and every `ir::verify` call.
const PASSES: [&str; 9] = [
    "frontend.parse",
    "frontend.lower",
    "ir.ssa",
    "opt.optimize",
    "ir.cfg_verify",
    "analysis.analyze_region",
    "specialize.region",
    "codegen.compile_module",
    "core.compile (inline depth 2)",
];

/// Upper bound on the allocations of each row of [`PASSES`], summed over
/// the matrix (debug and release builds count the same).
const BOUND: [u64; 9] = [636, 3_459, 1_453, 1_607, 894, 6_080, 10_275, 6_384, 7_231];

/// The matrix's total before the compile path stopped allocating per
/// query (every row at its first pinned bound). The total stays at most
/// half of it.
const FIRST_TOTAL: u64 = 189_185;

/// Allocations and bytes per row of [`PASSES`].
#[derive(Default)]
struct Table {
    allocs: [u64; 9],
    bytes: [u64; 9],
}

impl Table {
    /// Run `work`, charging its allocations to row `pass`.
    fn charge<T>(&mut self, pass: usize, work: impl FnOnce() -> T) -> T {
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let out = work();
        COUNTING.store(false, Ordering::Relaxed);
        self.allocs[pass] += ALLOCS.load(Ordering::Relaxed);
        self.bytes[pass] += BYTES.load(Ordering::Relaxed);
        out
    }

    fn total(&self) -> u64 {
        self.allocs.iter().sum()
    }
}

const PARSE: usize = 0;
const LOWER: usize = 1;
const SSA: usize = 2;
const OPTIMIZE: usize = 3;
const CFG_VERIFY: usize = 4;
const ANALYSIS: usize = 5;
const SPECIALIZE: usize = 6;
const CODEGEN: usize = 7;
const WHOLE: usize = 8;

/// Phases 1 and 3 of `Compiler::compile` at inline depth 0, call for call
/// (as `compile_golden` replays them), each pass charged to its row. As
/// in the compiler, SSA construction, the optimizer, the verifier, the
/// analysis and the specializer keep their tables in one scratch per unit, charged to the row of the call
/// that grows them.
fn replay(t: &mut Table, src: &str, lower: &LowerOptions) {
    let mut ssa = SsaScratch::default();
    let mut opt = OptScratch::default();
    let mut ver = VerifyScratch::default();
    let mut an = AnalysisScratch::default();
    let mut sp = SpecScratch::default();
    let prog = t
        .charge(PARSE, || dyncomp_frontend::parse(src))
        .expect("the unit parses");
    let mut module = t
        .charge(LOWER, || dyncomp_frontend::lower(&prog, lower))
        .expect("the unit lowers")
        .module;
    let fids: Vec<FuncId> = module.funcs.ids().collect();
    let prep = OptOptions {
        cfg_simplify: true,
        hole_scope: None,
    };
    for &fid in &fids {
        let f = &mut module.funcs[fid];
        if !f.is_ssa {
            t.charge(SSA, || construct_ssa_with(f, &mut ssa));
        }
        t.charge(OPTIMIZE, || optimize_with(f, &prep, &mut opt));
        t.charge(CFG_VERIFY, || {
            dyncomp_ir::cfg::split_critical_edges(f);
            f.canonicalize_region_roots();
            verify_with(f, &mut ver)
        })
        .expect("prep verifies");
    }
    let config = AnalysisConfig::default();
    let mut specs: Vec<(FuncId, RegionSpec)> = Vec::new();
    for &fid in &fids {
        let f = &mut module.funcs[fid];
        let mut template_scope = IdSet::new();
        let rids: Vec<_> = f.regions.ids().collect();
        for rid in rids {
            let mut analysis = t.charge(ANALYSIS, || analyze_region_with(f, rid, &config, &mut an));
            if t.charge(SPECIALIZE, || {
                dyncomp_specialize::legalize_dynamic_switches(f, rid, &analysis)
            }) {
                t.charge(CFG_VERIFY, || {
                    dyncomp_ir::cfg::split_critical_edges(f);
                    verify_with(f, &mut ver)
                })
                .expect("legalized IR verifies");
                analysis = t.charge(ANALYSIS, || analyze_region_with(f, rid, &config, &mut an));
            }
            let spec = t
                .charge(SPECIALIZE, || {
                    dyncomp_specialize::specialize_region_with(f, rid, &analysis, &mut sp)
                })
                .expect("region specializes");
            t.charge(CFG_VERIFY, || verify_with(f, &mut ver))
                .expect("specialized IR verifies");
            for &b in &spec.template_blocks {
                template_scope.insert(b);
            }
            specs.push((fid, spec));
        }
        if !f.regions.is_empty() {
            let post = OptOptions {
                cfg_simplify: false,
                hole_scope: Some(template_scope),
            };
            t.charge(OPTIMIZE, || optimize_with(f, &post, &mut opt));
            t.charge(CFG_VERIFY, || verify_with(f, &mut ver))
                .expect("optimized IR verifies");
        }
    }
    t.charge(CODEGEN, || {
        dyncomp_codegen::compile_module(&mut module, &specs)
    })
    .expect("codegen");
}

/// The front end's options, when the pipeline can be replayed.
fn replayable(comp: Comp) -> Option<LowerOptions> {
    let (honor_annotations, tiered_fallback) = match comp {
        Comp::Static => (false, false),
        Comp::Dynamic => (true, false),
        Comp::Tiered => (true, true),
        Comp::Inline2 => return None,
    };
    Some(LowerOptions {
        honor_annotations,
        tiered_fallback,
    })
}

fn unit(t: &mut Table, src: &str, comp: Comp) {
    match replayable(comp) {
        Some(lower) => replay(t, src, &lower),
        None => {
            let compiler = comp.compiler();
            t.charge(WHOLE, || compiler.compile(src))
                .expect("unit compiles");
        }
    }
}

fn table() -> Table {
    let mut t = Table::default();
    let plan = lattice::plan("compile_golden::matrix");
    for k in &plan.programs {
        for c in &plan.cells {
            unit(&mut t, k.src(), c.comp);
        }
    }
    for (n, seed) in [(8, 0x5eed_0008), (64, 0x5eed_0064)] {
        unit(&mut t, &synthetic::unit(n, seed), Comp::Dynamic);
    }
    t
}

// The binary runs without the test harness (`harness = false` in
// Cargo.toml): its `main` is the only thread, so no harness thread can
// allocate while a pass is being counted.
fn main() {
    allocations_per_pass_stay_within_their_bounds();
}

fn allocations_per_pass_stay_within_their_bounds() {
    let t = table();
    println!(
        "{:<32} {:>10} {:>12} {:>10}",
        "pass", "allocs", "bytes", "bound"
    );
    for (i, pass) in PASSES.iter().enumerate() {
        println!(
            "{pass:<32} {:>10} {:>12} {:>10}",
            t.allocs[i], t.bytes[i], BOUND[i]
        );
    }
    println!("{:<32} {:>10}", "total", t.total());
    let over: Vec<(&str, u64, u64)> = PASSES
        .iter()
        .zip(t.allocs.iter().zip(BOUND.iter()))
        .filter(|(_, (got, bound))| got > bound)
        .map(|(p, (&got, &bound))| (*p, got, bound))
        .collect();
    assert!(
        over.is_empty(),
        "passes over their bound (pass, allocs, bound): {over:?}"
    );
    assert!(
        2 * t.total() <= FIRST_TOTAL,
        "{} allocations: more than half of {FIRST_TOTAL}",
        t.total()
    );
}
