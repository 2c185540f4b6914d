//! The correctness matrix, declared once: program × compiler × mode.
//!
//! The paper's evaluation (§5, Tables 2 and 3) is one matrix: every
//! kernel compiled statically and dynamically and run under each
//! configuration. This module is that matrix for the test suites and the
//! fault sweep:
//!
//! - **programs**: the seven [`Kernel`]s, with their workloads at a
//!   [`Size`] (built from the kernel modules and
//!   [`table2_workloads`](crate::table2_workloads));
//! - **compilers**: [`Comp`] — static, dynamic, tiered, inline depth 2;
//! - **modes**: [`Mode`] — what a session runs under, composable
//!   (`tiered-1+native-chained`), each with the [`Contract`] it keeps
//!   against the default run;
//! - **the fault-opportunity rule** ([`fault_mode`]): the mode in which
//!   each fault point gets a chance to fire;
//! - **plans** ([`plan`]): what each test instantiates, by key.
//!
//! The lattice test at the bottom renders every plan's cells and checks
//! that `tests/lattice_cells.txt` — the cells the suites ran before they
//! were rebuilt on the lattice — stays covered. A new mode is one
//! [`Mode`] variant with its contract, and one plan row per suite that
//! should run it.

use crate::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use crate::{kernel_workloads, Scale};
use dyncomp::measure::{run_session_differential, run_session_profiled, SessionRun};
use dyncomp::{
    Compiler, EngineOptions, FaultPlan, FaultPoint, Injection, KernelSetup, PersistentCache,
    Program, SessionOutcome, SharedCodeCache,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The seven kernels: the paper's five in Table 2 order, then the two
/// cross-function workloads of demand-driven inlining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Reverse-polish desk calculator.
    Calculator,
    /// Scalar-matrix multiply.
    Smatmul,
    /// Sparse matrix-vector multiply.
    Spmv,
    /// Event dispatcher.
    Dispatch,
    /// Record sorter.
    Sorter,
    /// Protocol message decoder.
    Protomsg,
    /// Query-compiler row filter.
    Queryexec,
}

/// Each kernel's name and source, in [`Kernel`] order.
const KERNELS: [(&str, &str); 7] = [
    ("calculator", calculator::SRC),
    ("smatmul", smatmul::SRC),
    ("spmv", spmv::SRC),
    ("dispatch", dispatch::SRC),
    ("sorter", sorter::SRC),
    ("protomsg", protomsg::SRC),
    ("queryexec", queryexec::SRC),
];

/// Workload sizes: the smoke rows, a larger size for suites that must
/// sweep more keys or calls, the inputs the translator golden pins, and a
/// smaller size for suites that replicate sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Each paper kernel's first Table 2 smoke row; the inline workloads
    /// at `inline_bench --smoke`.
    Smoke,
    /// Larger than smoke in every parameter, for suites whose kernels
    /// must sweep more keys.
    Large,
    /// The inputs `translate_golden` pins.
    Translate,
    /// Below smoke, for suites that run many sessions of every cell.
    Concurrent,
}

impl Kernel {
    /// Every kernel.
    pub const ALL: [Kernel; 7] = [
        Kernel::Calculator,
        Kernel::Smatmul,
        Kernel::Spmv,
        Kernel::Dispatch,
        Kernel::Sorter,
        Kernel::Protomsg,
        Kernel::Queryexec,
    ];
    /// The paper's five.
    pub const PAPER: &'static [Kernel] = Kernel::ALL.split_at(5).0;
    /// The cross-function inlining workloads.
    pub const INLINE: &'static [Kernel] = Kernel::ALL.split_at(5).1;

    /// Short name (the `kernel` field of the JSON artifacts).
    pub fn name(self) -> &'static str {
        KERNELS[self as usize].0
    }

    /// Annotated MiniC source.
    pub fn src(self) -> &'static str {
        KERNELS[self as usize].1
    }

    /// The kernel compiled by `comp`, once per process.
    pub fn compiled(self, comp: Comp) -> Arc<Program> {
        type Memo = Vec<((Kernel, Comp), Arc<Program>)>;
        static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, p)) = memo.iter().find(|(key, _)| *key == (self, comp)) {
            return Arc::clone(p);
        }
        let program = comp.compiler().compile(self.src());
        let program = Arc::new(program.unwrap_or_else(|e| panic!("{self:?} compiles: {e}")));
        memo.push(((self, comp), Arc::clone(&program)));
        program
    }

    /// The kernel's workload at `size`: a size other than `Smoke` names
    /// only the kernels it runs at a different size.
    pub fn setup(self, size: Size) -> KernelSetup<'static> {
        use Kernel::*;
        match (size, self) {
            (Size::Large, Smatmul) => smatmul::setup(12, 16, 12),
            (Size::Large, Spmv) => spmv::setup(24, 4, 40),
            (Size::Large, Dispatch) => dispatch::setup(10, 80),
            (Size::Large, Sorter) => sorter::setup(48, 4, 5),
            (Size::Large, Queryexec) => queryexec::setup(6, 30, 40),
            (Size::Translate, Calculator) => calculator::setup(4),
            (Size::Translate, Spmv) => spmv::setup(12, 3, 4),
            (Size::Translate, Dispatch) => dispatch::setup(10, 12),
            (Size::Translate, Sorter) => sorter::setup(40, 4, 2),
            (Size::Translate, Protomsg) => protomsg::setup(8, 6),
            (Size::Translate, Queryexec) => queryexec::setup(6, 30, 2),
            (Size::Concurrent, Calculator) => calculator::setup(40),
            (Size::Concurrent, Spmv) => spmv::setup(12, 3, 10),
            (Size::Concurrent, Dispatch) => dispatch::setup(10, 30),
            (Size::Concurrent, Sorter) => sorter::setup(40, 4, 3),
            (_, Protomsg) => protomsg::setup(8, 40),
            (_, Queryexec) => queryexec::setup(6, 30, 5),
            (_, k) => kernel_workloads(Scale::Smoke).swap_remove(k as usize).setup,
        }
    }
}

/// The compiler axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comp {
    /// Annotations ignored: the Table 2 baseline.
    Static,
    /// Annotations honoured: the paper's dynamic compilation.
    Dynamic,
    /// Dynamic, with static fallback copies of every region (tiered
    /// execution, quarantine and the code budget degrade to them).
    Tiered,
    /// Dynamic, with demand-driven inlining to depth 2.
    Inline2,
}

impl Comp {
    /// Every compiler, in the order the compile goldens list them.
    pub const ALL: [Comp; 4] = [Comp::Static, Comp::Dynamic, Comp::Inline2, Comp::Tiered];

    /// The name cells and golden rows use.
    pub fn name(self) -> &'static str {
        match self {
            Comp::Static => "static",
            Comp::Dynamic => "dynamic",
            Comp::Tiered => "tiered",
            Comp::Inline2 => "inline2",
        }
    }

    /// The compiler itself.
    pub fn compiler(self) -> Compiler {
        match self {
            Comp::Static => Compiler::static_baseline(),
            Comp::Dynamic => Compiler::new(),
            Comp::Tiered => Compiler::tiered(),
            Comp::Inline2 => Compiler::with_inline_depth(2),
        }
    }
}

/// The mode axis: what a session runs under. A cell lists one or more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Default engine options.
    Default,
    /// Sessions over one fresh shared code cache: a warm session, then
    /// the cell's own ([`sessions`]); or the cell's concurrent sessions
    /// ([`check`]).
    Shared,
    /// The cell's session writes through to a fresh persistent cache.
    PersistCold,
    /// A cold session fills a fresh persistent cache; the cell's session
    /// then reads it.
    PersistWarm,
    /// Tiered execution: virtual workers, and whether to speculate.
    Tiered(usize, bool),
    /// The host-native backend, with or without chaining.
    Native(bool),
    /// A one-entry keyed code cache.
    Capacity1,
    /// A 256-byte code budget.
    CodeBudget,
    /// Stitch plans off: every block priced as a directive walk.
    PlansOff,
    /// Structured tracing on.
    Traced,
    /// `FaultPlan::single(point, fires)`, in [`fault_mode`]`(point)`.
    Fault(FaultPoint, u32),
    /// Every set-up in the region (any region for `None`) traps, with no
    /// retries and quarantine after two failures: the region is pinned
    /// to its fallback copy.
    Quarantine(Option<u16>),
}

/// The fault-opportunity rule: the mode that gives `point` a chance to
/// fire. Worker faults need background jobs, shared-cache faults a
/// populated shared cache, native faults the backend requested (both
/// fire before any host check), store-side persist faults a fresh
/// directory (every stitch then stores) and the load-side one a
/// populated directory (every probe then hits).
pub fn fault_mode(point: FaultPoint) -> Mode {
    match point {
        FaultPoint::WorkerPanic | FaultPoint::WorkerSlow => Mode::Tiered(2, false),
        FaultPoint::SharedCacheInstall | FaultPoint::SharedCachePoisonedShard => Mode::Shared,
        FaultPoint::NativeArenaExhausted | FaultPoint::NativeChainPatch => Mode::Native(true),
        FaultPoint::PersistWriteTorn | FaultPoint::PersistLockContended => Mode::PersistCold,
        FaultPoint::PersistLoadCorrupt => Mode::PersistWarm,
        _ => Mode::Default,
    }
}

impl Mode {
    /// What this mode keeps against the default run of the same program.
    pub fn contract(self) -> Contract {
        match self {
            Mode::Default | Mode::PlansOff | Mode::Traced => Contract::BitIdentical,
            Mode::PersistCold | Mode::Native(_) => Contract::CycleEqual,
            Mode::PersistWarm => Contract::CycleLe,
            _ => Contract::ChecksumEqual,
        }
    }

    /// The mode that decides which caches a session needs.
    fn base(self) -> Mode {
        match self {
            Mode::Fault(point, _) => fault_mode(point),
            m => m,
        }
    }

    fn apply(self, o: &mut EngineOptions) {
        match self {
            Mode::Default | Mode::Shared | Mode::PersistCold | Mode::PersistWarm => {}
            Mode::Tiered(workers, speculate) => {
                o.tiered = Some(dyncomp::TieredOptions { workers, speculate });
            }
            Mode::Native(chain) => (o.native, o.native_chain) = (true, chain),
            Mode::Capacity1 => o.keyed_cache_capacity = Some(1),
            Mode::CodeBudget => o.recovery.code_budget_bytes = Some(256),
            Mode::PlansOff => o.stitch.plans = false,
            Mode::Traced => o.trace = true,
            Mode::Fault(point, fires) => {
                fault_mode(point).apply(o);
                o.faults = Some(FaultPlan::single(point, fires));
            }
            Mode::Quarantine(region) => {
                let injections = vec![Injection {
                    region,
                    max_fires: u32::MAX,
                    ..Injection::new(FaultPoint::SetupVmTrap)
                }];
                o.faults = Some(FaultPlan {
                    seed: 1,
                    injections,
                });
                (o.recovery.max_retries, o.recovery.quarantine_after) = (0, 2);
            }
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Mode::Default => f.write_str("default"),
            Mode::Shared => f.write_str("shared"),
            Mode::PersistCold => f.write_str("persist-cold"),
            Mode::PersistWarm => f.write_str("persist-warm"),
            Mode::Tiered(w, s) => write!(f, "tiered-{w}{}", if s { "-speculate" } else { "" }),
            Mode::Native(c) => write!(f, "native-{}chained", if c { "" } else { "un" }),
            Mode::Capacity1 => f.write_str("capacity-1"),
            Mode::CodeBudget => f.write_str("code-budget"),
            Mode::PlansOff => f.write_str("plans-off"),
            Mode::Traced => f.write_str("traced"),
            Mode::Fault(p, n) => write!(f, "fault-{}-{n}", p.name()),
            Mode::Quarantine(None) => f.write_str("quarantine"),
            Mode::Quarantine(Some(r)) => write!(f, "quarantine-r{r}"),
        }
    }
}

/// What a cell keeps against its reference. Ordered strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Contract {
    /// Everything observed is equal: checksum, cycles, every region
    /// report, traces.
    BitIdentical,
    /// Checksum and simulated cycles equal.
    CycleEqual,
    /// Checksum equal, cycles no more than the reference's.
    CycleLe,
    /// Checksum equal.
    ChecksumEqual,
    /// A fingerprint equal to a committed constant (the goldens).
    HashPinned,
}

impl Contract {
    /// The name cell lines use.
    pub fn name(self) -> &'static str {
        match self {
            Contract::BitIdentical => "bit-identical",
            Contract::CycleEqual => "cycle-equal",
            Contract::CycleLe => "cycle-le",
            Contract::ChecksumEqual => "checksum-equal",
            Contract::HashPinned => "hash-pinned",
        }
    }

    /// Whether `got` keeps this contract against `want`.
    pub fn holds(self, want: &Observed, got: &Observed) -> bool {
        let (w, g) = (&want.outcome, &got.outcome);
        match self {
            Contract::BitIdentical => want == got,
            Contract::CycleEqual => {
                (w.checksum, w.call_cycles, w.total_cycles)
                    == (g.checksum, g.call_cycles, g.total_cycles)
            }
            Contract::CycleLe => w.checksum == g.checksum && g.call_cycles <= w.call_cycles,
            Contract::ChecksumEqual => w.checksum == g.checksum,
            Contract::HashPinned => panic!("a pinned cell has no reference"),
        }
    }
}

/// One compiler and the modes a session runs under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The compiler.
    pub comp: Comp,
    /// The modes, applied in order; none for a cell that only compiles.
    pub modes: Vec<Mode>,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let modes: Vec<String> = self.modes.iter().map(Mode::to_string).collect();
        let modes = if modes.is_empty() {
            vec!["-".into()]
        } else {
            modes
        };
        write!(f, "{} {}", self.comp.name(), modes.join("+"))
    }
}

fn cell(comp: Comp, modes: &[Mode]) -> Cell {
    Cell {
        comp,
        modes: modes.to_vec(),
    }
}

/// One test's instantiation: every program × cell, each checked against
/// the reference cell (or, without one, against a fresh run of itself)
/// under the contract.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The programs.
    pub programs: Vec<Kernel>,
    /// Their workload size.
    pub size: Size,
    /// The cell every other is compared with, if not itself.
    pub reference: Option<Cell>,
    /// The cells.
    pub cells: Vec<Cell>,
    /// What each cell keeps.
    pub contract: Contract,
    /// Concurrent sessions per cell (over the cell's caches).
    pub threads: usize,
}

fn pinned(programs: &[Kernel], cells: Vec<Cell>, contract: Contract) -> Plan {
    Plan {
        programs: programs.to_vec(),
        size: Size::Smoke,
        reference: None,
        cells,
        contract,
        threads: 1,
    }
}

/// Each cell against a fresh run of itself: bit-identical.
fn repeat(programs: &[Kernel], cells: Vec<Cell>) -> Plan {
    pinned(programs, cells, Contract::BitIdentical)
}

/// Each cell against `reference`, under the weakest contract of its modes.
fn against(programs: &[Kernel], reference: Cell, cells: Vec<Cell>) -> Plan {
    let contract = cells
        .iter()
        .flat_map(|c| c.modes.iter().map(|m| m.contract()))
        .max()
        .unwrap_or(Contract::BitIdentical);
    Plan {
        reference: Some(reference),
        ..pinned(programs, cells, contract)
    }
}

/// Every plan, by `target::label` key; the target is the test file.
#[rustfmt::skip]
fn plans() -> Vec<(&'static str, Plan)> {
    use Comp::{Dynamic as D, Inline2 as I2, Tiered as T};
    use Contract::*;
    use Kernel::*;
    use Mode::*;
    let (paper, inline, all) = (Kernel::PAPER, Kernel::INLINE, &Kernel::ALL[..]);
    let compiled = || Comp::ALL.map(|comp| cell(comp, &[])).to_vec();
    let t = |w, s| cell(T, &[Tiered(w, s)]);
    let tt = |w, s| cell(T, &[Tiered(w, s), Traced]);
    let mut ladder = vec![
        cell(D, &[Default]), cell(D, &[Shared]), cell(D, &[PersistWarm]), t(2, true),
        cell(D, &[Native(true)]), cell(D, &[Capacity1]), cell(T, &[CodeBudget]),
        cell(T, &[Fault(FaultPoint::SetupVmTrap, 3)]), cell(T, &[Fault(FaultPoint::CodeArenaExhausted, 3)]),
    ];
    ladder.extend(FaultPoint::ALL.map(|p| cell(T, &[Fault(p, 2)])));
    let sized = |size, plan| Plan { size, ..plan };
    let concurrent = |plan| Plan { threads: 8, size: Size::Concurrent, ..plan };
    let contract = |contract, plan| Plan { contract, ..plan };
    let native = |c| pinned(paper, vec![c], CycleEqual);
    vec![
        ("compile_golden::matrix", pinned(all, compiled(), HashPinned)),
        ("opt_differential::matrix", pinned(all, compiled(), BitIdentical)),
        ("frontend_golden::corpus", pinned(all, vec![], HashPinned)),
        ("translate_golden::paper", sized(Size::Translate, pinned(paper, vec![cell(D, &[Default])], HashPinned))),
        ("translate_golden::inline", sized(Size::Translate, pinned(inline, vec![cell(I2, &[Default])], HashPinned))),
        ("persist_golden::dynamic", pinned(all, vec![cell(D, &[PersistCold])], HashPinned)),
        ("persist_golden::tiered", pinned(&[Calculator], vec![cell(T, &[PersistCold])], HashPinned)),
        ("persist_golden::inline2", pinned(&[Queryexec], vec![cell(I2, &[PersistCold])], HashPinned)),
        ("ladder_golden::matrix", pinned(paper, ladder, HashPinned)),
        ("concurrent_determinism::default", concurrent(repeat(paper, vec![cell(D, &[Default])]))),
        ("concurrent_determinism::shared", concurrent(against(paper, cell(D, &[Default]), vec![cell(D, &[Shared])]))),
        ("concurrent_determinism::tiered", concurrent(repeat(paper, vec![t(2, false), t(2, true)]))),
        ("trace_determinism::twice", repeat(paper, vec![cell(D, &[Traced])])),
        ("trace_determinism::tiered_twice", repeat(paper, vec![tt(2, false), tt(2, true)])),
        ("trace_determinism::workers", contract(BitIdentical, against(paper, tt(1, false), vec![tt(2, false), tt(4, false)]))),
        ("trace_determinism::host_threads", concurrent(repeat(&[Smatmul], vec![tt(2, true)]))),
        ("trace_determinism::self_check", against(paper, cell(D, &[Traced]), vec![tt(2, false), tt(2, true)])),
        ("tiered_execution::sync", sized(Size::Large, against(paper, cell(D, &[Default]), vec![t(1, false), t(1, true)]))),
        ("tiered_execution::workers", sized(Size::Large, against(paper, t(1, true), vec![t(2, true), t(4, true)]))),
        ("tiered_execution::repeat", sized(Size::Large, repeat(paper, vec![t(2, false), t(2, true)]))),
        ("tiered_execution::no_fallback_copy", against(&[Calculator], cell(D, &[Default]), vec![cell(D, &[Tiered(2, true)])])),
        ("native_differential::sync", native(cell(D, &[Native(true)]))),
        ("native_differential::unchained", native(cell(D, &[Native(false)]))),
        ("native_differential::tiered", native(cell(T, &[Tiered(1, false), Native(true)]))),
        ("native_differential::speculate", native(cell(T, &[Tiered(1, true), Native(true)]))),
        ("native_differential::inline_chain_modes", against(inline, cell(I2, &[Native(true)]), vec![cell(I2, &[Native(false)])])),
        ("native_differential::persisted", sized(Size::Large, pinned(all, vec![cell(D, &[PersistWarm, Native(true)]), cell(D, &[PersistWarm, Native(false)])], CycleEqual))),
        ("plan_identity::paper", sized(Size::Large, against(paper, cell(D, &[Default]), vec![cell(D, &[PlansOff])]))),
        ("inline_differential::paper", contract(CycleEqual, against(paper, cell(D, &[Default]), vec![cell(I2, &[Default])]))),
        ("inline_differential::artifacts", pinned(paper, vec![cell(I2, &[])], BitIdentical)),
        ("inline_differential::inline", contract(CycleLe, against(inline, cell(D, &[Default]), vec![cell(I2, &[Default])]))),
        ("inline_differential::table2", repeat(paper, vec![cell(D, &[Default])])),
        ("session_projections::modes", pinned(&[Smatmul, Calculator], vec![cell(T, &[Default]), t(2, false), cell(T, &[Native(true)])], BitIdentical)),
    ]
}

/// The plan stored under `key` (`target::label`).
///
/// # Panics
/// An unknown key is a bug in the suite.
pub fn plan(key: &str) -> Plan {
    let found = plans().into_iter().find(|(k, _)| *k == key);
    found.unwrap_or_else(|| panic!("no lattice plan {key}")).1
}

/// Every cell the plans instantiate, references included, one `target
/// program compiler mode contract` line each (`- -` for a program that is
/// only lexed).
pub fn cell_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (key, plan) in plans() {
        let target = key.split("::").next().unwrap_or(key);
        let contract = plan.contract.name();
        let all = plan.reference.iter().chain(&plan.cells);
        let mut cells: Vec<String> = all.map(Cell::to_string).collect();
        if cells.is_empty() {
            cells.push("- -".into());
        }
        for k in &plan.programs {
            for c in &cells {
                lines.push(format!("{target} {} {c} {contract}", k.name()));
            }
        }
    }
    lines
}

/// What one session of a cell leaves to compare: its outcome and, for a
/// traced cell, its traces (empty otherwise).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observed {
    /// Checksum, cycles and region reports.
    pub outcome: SessionOutcome,
    /// The JSON Lines trace.
    pub jsonl: String,
    /// The Chrome trace.
    pub chrome: String,
}

/// The caches one cell's sessions share, each made fresh when a mode of
/// the cell needs it.
#[derive(Default)]
pub struct Caches {
    /// The shared code cache ([`Mode::Shared`]).
    pub shared: Option<Arc<SharedCodeCache>>,
    /// The persistent cache and its directory ([`Mode::PersistCold`],
    /// [`Mode::PersistWarm`]).
    pub persist: Option<(Arc<PersistentCache>, ScratchDir)>,
}

impl Caches {
    /// Fresh caches for `modes`.
    pub fn new(modes: &[Mode]) -> Self {
        let needs = |want: &[Mode]| modes.iter().any(|m| want.contains(&m.base()));
        Caches {
            shared: needs(&[Mode::Shared]).then(|| Arc::new(SharedCodeCache::new(4, 64))),
            persist: needs(&[Mode::PersistCold, Mode::PersistWarm]).then(|| {
                let dir = ScratchDir::new("lattice");
                (dir.persistent_cache(), dir)
            }),
        }
    }

    /// Engine options for a session under `modes` over these caches.
    pub fn options(&self, modes: &[Mode]) -> EngineOptions {
        let mut o = EngineOptions {
            shared_cache: self.shared.clone(),
            persist: self.persist.as_ref().map(|(c, _)| Arc::clone(c)),
            ..EngineOptions::default()
        };
        for m in modes {
            m.apply(&mut o);
        }
        o
    }

    /// A session under `modes` over these caches, after two passes of
    /// `setup`: every key re-enters, background jobs resolve.
    ///
    /// # Panics
    /// A session that fails to answer.
    pub fn twice<'s>(
        &self,
        program: &Arc<Program>,
        setup: &'s KernelSetup<'s>,
        modes: &[Mode],
    ) -> SessionRun<'s> {
        let mut run = SessionRun::start(program, setup, self.options(modes));
        for _ in 0..2 {
            let answered = run.pass(|_, _| {});
            answered.unwrap_or_else(|e| panic!("{}: the session must answer: {e}", setup.func));
        }
        run
    }
}

/// Engine options for a session under `modes` that needs no cache.
pub fn options(modes: &[Mode]) -> EngineOptions {
    Caches::default().options(modes)
}

/// Run a cell the way the fault sweep and the ladder golden do: the
/// prelude its modes need (a warm session over the shared cache, or a
/// session filling the persistent cache; either with the cell's caches
/// and tracing but nothing else), then the cell's own session, each
/// [`Caches::twice`]. `each` sees every session, told whether it is the
/// cell's own. The caches are returned for a session after the cell's.
pub fn sessions(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    modes: &[Mode],
    mut each: impl FnMut(&mut SessionRun<'_>, bool),
) -> Caches {
    let caches = Caches::new(modes);
    let traced: &[Mode] = if modes.contains(&Mode::Traced) {
        &[Mode::Traced]
    } else {
        &[]
    };
    if modes
        .iter()
        .any(|m| matches!(m.base(), Mode::Shared | Mode::PersistWarm))
    {
        each(&mut caches.twice(program, setup, traced), false);
    }
    each(&mut caches.twice(program, setup, modes), true);
    caches
}

/// One session of a cell: traced cells keep their traces (attribution
/// self-checked), native cells run against the VM oracle (checksums and
/// cycles required equal) and are observed on the native side.
fn observe(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    modes: &[Mode],
    caches: &Caches,
) -> Observed {
    let options = caches.options(modes);
    let fail = |e: dyncomp::Error| -> ! { panic!("{}: {e}", setup.func) };
    if modes.contains(&Mode::Traced) {
        let p = run_session_profiled(program, setup, options).unwrap_or_else(|e| fail(e));
        assert_eq!(p.dropped, 0, "{}: traces must fit the ring", setup.func);
        return Observed {
            outcome: p.outcome,
            jsonl: p.jsonl,
            chrome: p.chrome,
        };
    }
    let outcome = if options.native {
        run_session_differential(program, setup, options)
            .unwrap_or_else(|e| fail(e))
            .native
            .outcome
    } else {
        dyncomp::run_session(program, setup, options).unwrap_or_else(|e| fail(e))
    };
    Observed {
        outcome,
        ..Observed::default()
    }
}

/// Run the plan under `key`: for every program, the reference and every
/// cell, each cell's sessions (`threads` of them at once) checked under
/// the contract. `extra` then sees the program, the reference and the
/// cell's sessions.
///
/// # Panics
/// A cell that breaks the contract, or a session that fails.
pub fn check_with(key: &str, extra: impl Fn(Kernel, &Observed, &[Observed])) {
    let plan = plan(key);
    for &k in &plan.programs {
        let setup = k.setup(plan.size);
        // `threads` sessions of cell `c` at once, over its caches.
        let run = |c: &Cell, threads: usize| {
            let (program, caches) = (k.compiled(c.comp), Caches::new(&c.modes));
            let observe = || observe(&program, &setup, &c.modes, &caches);
            if threads == 1 {
                return vec![observe()];
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(observe)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panic"))
                    .collect()
            })
        };
        let reference = plan.reference.as_ref().map(|r| (r, run(r, 1).remove(0)));
        for c in &plan.cells {
            let (name, want) = match &reference {
                Some((r, want)) => (r.to_string(), want.clone()),
                None => ("itself".into(), run(c, 1).remove(0)),
            };
            let got = run(c, plan.threads);
            for (i, g) in got.iter().enumerate() {
                assert!(
                    plan.contract.holds(&want, g),
                    "{key}: {} [{c}] session {i} is not {} to [{name}]: {:?} vs {:?}",
                    k.name(),
                    plan.contract.name(),
                    g.outcome,
                    want.outcome
                );
            }
            extra(k, &want, &got);
        }
    }
}

/// [`check_with`] and nothing more.
pub fn check(key: &str) {
    check_with(key, |_, _, _| {});
}

/// A fresh, empty directory under the OS temp dir, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A new directory whose name starts `dyncomp-{tag}-`, unique within
    /// and across processes.
    ///
    /// # Panics
    /// The temp dir is not writable.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dyncomp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A persistent cache rooted here.
    ///
    /// # Panics
    /// The directory is not writable.
    pub fn persistent_cache(&self) -> Arc<PersistentCache> {
        Arc::new(PersistentCache::open(&self.0).expect("scratch dir is writable"))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_cell_is_instantiated() {
        let lines = cell_lines();
        let committed = include_str!("../tests/lattice_cells.txt");
        let missing: Vec<&str> = committed
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter(|l| !lines.iter().any(|c| c == l))
            .collect();
        assert!(
            missing.is_empty(),
            "cells no plan instantiates:\n{}",
            missing.join("\n")
        );
    }

    #[test]
    fn plan_keys_are_unique_and_smoke_is_table2() {
        let keys: Vec<&str> = plans().iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        for (k, w) in Kernel::PAPER.iter().zip(kernel_workloads(Scale::Smoke)) {
            assert_eq!((k.name(), k.src()), (w.kernel, w.setup.src));
        }
    }
}
