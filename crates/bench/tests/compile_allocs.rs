//! Heap allocations of the static compiler, pass by pass: a deterministic
//! row beside the host-time ledger.
//!
//! A counting global allocator wraps the system one. Over the
//! `compile_golden` matrix, a pass observer on `Compiler::compile_observed`
//! charges the allocator calls made inside each pass to its phase, in one
//! column for the units at inline depth 0 and one for the inline-depth-2
//! units, whose inliner fixpoint is observed like every other pass. An
//! allocation is a call to `alloc`, `alloc_zeroed` or `realloc`; what the
//! compiler allocates between passes (its module bookkeeping) is not
//! charged.
//!
//! The static compiler is deterministic, so every count is exact. Each is
//! pinned as an upper bound: a pass that allocates more than its bound
//! fails here without a single host timing. A bound is lowered to the
//! new count when a pass allocates less; it is never raised.
//!
//! `cargo test --release -p dyncomp-bench --test compile_allocs` prints
//! the table.

use dyncomp::{PassObserver, Phase};
use dyncomp_bench::lattice::{self, Comp};
use dyncomp_bench::synthetic;
use dyncomp_ir::Function;
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

/// The two columns: units at inline depth 0, and at inline depth 2.
const COLUMNS: [&str; 2] = ["depth 0", "inline depth 2"];

/// Upper bound on the allocations of each phase of `Phase::ALL`, summed
/// over the matrix, per column (debug and release builds count the same).
/// The inline-depth-2 column sums to less than the 7,231 allocations its
/// units made as whole compiles before their passes were observed.
const BOUND: [[u64; Phase::ALL.len()]; 2] = [
    [636, 3_459, 1_453, 1_607, 894, 0, 6_080, 10_275, 6_339],
    [163, 518, 324, 426, 447, 84, 2_782, 1_442, 999],
];

/// The matrix's total before the compile path stopped allocating per
/// query (every row at its first pinned bound). The total stays at most
/// half of it.
const FIRST_TOTAL: u64 = 189_185;

/// Allocations and bytes per column and phase; observes the units of
/// column `col`.
#[derive(Default)]
struct Table {
    allocs: [[u64; Phase::ALL.len()]; 2],
    bytes: [[u64; Phase::ALL.len()]; 2],
    col: usize,
}

impl PassObserver for Table {
    fn before(&mut self, _: Phase, _: Option<&Function>) {
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
    }

    fn after(&mut self, phase: Phase, _: Option<&Function>) {
        COUNTING.store(false, Ordering::Relaxed);
        self.allocs[self.col][phase as usize] += ALLOCS.load(Ordering::Relaxed);
        self.bytes[self.col][phase as usize] += BYTES.load(Ordering::Relaxed);
    }
}

fn table() -> Table {
    let mut t = Table::default();
    let mut unit = |src: &str, comp: Comp| {
        t.col = usize::from(comp == Comp::Inline2);
        comp.compiler()
            .compile_observed(src, &mut t)
            .expect("unit compiles");
    };
    let plan = lattice::plan("compile_golden::matrix");
    for k in &plan.programs {
        for c in &plan.cells {
            unit(k.src(), c.comp);
        }
    }
    for (n, seed) in [(8, 0x5eed_0008), (64, 0x5eed_0064)] {
        unit(&synthetic::unit(n, seed), Comp::Dynamic);
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
    let mut over = Vec::new();
    for (col, name) in COLUMNS.iter().enumerate() {
        println!(
            "{:<24} {:>10} {:>12} {:>10}",
            name, "allocs", "bytes", "bound"
        );
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let (got, bound) = (t.allocs[col][i], BOUND[col][i]);
            println!(
                "{:<24} {got:>10} {:>12} {bound:>10}",
                phase.name(),
                t.bytes[col][i]
            );
            if got > bound {
                over.push((*name, phase.name(), got, bound));
            }
        }
        println!("{:<24} {:>10}", "total", t.allocs[col].iter().sum::<u64>());
    }
    assert!(
        over.is_empty(),
        "passes over their bound (column, pass, allocs, bound): {over:?}"
    );
    let total: u64 = t.allocs.iter().flatten().sum();
    assert!(
        2 * total <= FIRST_TOTAL,
        "{total} allocations: more than half of {FIRST_TOTAL}"
    );
}
