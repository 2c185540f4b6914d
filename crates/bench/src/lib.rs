//! # dyncomp-bench
//!
//! The evaluation of the PLDI'96 reproduction: the paper's five kernels
//! (§5, Tables 2 and 3), the register-actions experiment, and the
//! ablations DESIGN.md calls out.
//!
//! Each kernel module provides the annotated MiniC source, reproducible
//! workload generators, host-side reference implementations for
//! cross-checking, and a `workload` whose [`Workload::measure`] produces
//! a [`KernelResult`] with the Table 2 quantities. One binary,
//! `bench <suite>`, runs every evaluation harness from the
//! [`driver::SUITES`] registry; each suite builds its `BENCH_*.json` rows
//! as [`row::Row`] field lists.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernels {
    //! The paper's five benchmark kernels, plus the two cross-function
    //! workloads exercising demand-driven inlining.
    pub mod calculator;
    pub mod dispatch;
    pub mod protomsg;
    pub mod queryexec;
    pub mod smatmul;
    pub mod sorter;
    pub mod spmv;
}

pub mod driver;
pub mod lattice;
pub mod row;
pub mod synthetic;

mod suites {
    //! The evaluation suites `bench` runs: one module per
    //! [`crate::driver::SUITES`] entry, each a measurement loop with its
    //! invariant checks.
    pub mod ablation;
    pub mod concurrent_throughput;
    pub mod fault_sweep;
    pub mod inline_bench;
    pub mod load_gen;
    pub mod native_comparison;
    pub mod persist_bench;
    pub mod regactions;
    pub mod region_profile;
    pub mod table2;
    pub mod table3;
    pub mod warmup;
}

pub use dyncomp::KernelMeasurement;

use dyncomp::{Compiler, EngineOptions, Error, KernelSetup, Program};
use row::{f4, Row};
use std::sync::Arc;

/// One measured Table 2 row.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Benchmark name (Table 2's first column).
    pub name: &'static str,
    /// Run-time-constant configuration description.
    pub config: String,
    /// The paper's breakeven unit for this kernel.
    pub unit: &'static str,
    /// Units per measured iteration (e.g. records per sort), for
    /// converting the breakeven point into the paper's unit.
    pub unit_scale: u64,
    /// The measured quantities.
    pub measurement: KernelMeasurement,
}

impl KernelResult {
    /// Render as one row of the Table 2 report.
    pub fn table2_row(&self) -> String {
        let m = &self.measurement;
        let breakeven = match m.breakeven {
            Some(b) => format!("{} {}", b * self.unit_scale.max(1), self.unit),
            None => "never".to_string(),
        };
        format!(
            "{:<42} | {:<46} | {:>5.1}x ({:.0}/{:.0}) | {:<26} | {:>7.1}k / {:>7.1}k | {:>6.0} ({})",
            self.name,
            self.config,
            m.speedup,
            m.static_cycles,
            m.dynamic_cycles,
            breakeven,
            m.setup_cycles as f64 / 1000.0,
            m.stitch_cycles as f64 / 1000.0,
            m.cycles_per_stitched_instruction,
            m.instructions_stitched,
        )
    }

    /// The `BENCH_table2.json` object for this row.
    pub fn row(&self) -> Row {
        let m = &self.measurement;
        Row::new()
            .field("name", self.name)
            .field("config", self.config.as_str())
            .field("unit", self.unit)
            .field("iterations", m.iterations)
            .field("static_cycles", f4(m.static_cycles))
            .field("dynamic_cycles", f4(m.dynamic_cycles))
            .field("speedup", f4(m.speedup))
            .field("breakeven", m.breakeven)
            .field(
                "breakeven_units",
                m.breakeven.map(|b| b * self.unit_scale.max(1)),
            )
            .field("setup_cycles", m.setup_cycles)
            .field("stitch_cycles", m.stitch_cycles)
            .field("instructions_stitched", m.instructions_stitched)
            .field(
                "cycles_per_stitched_instruction",
                f4(m.cycles_per_stitched_instruction),
            )
            .field("checksum", m.checksum)
    }

    /// Render as one row of the Table 3 report.
    pub fn table3_row(&self) -> String {
        let o = self.measurement.optimizations();
        let cell = |b: bool| if b { "  ✓  " } else { "     " };
        format!(
            "{:<42} |{}|{}|{}|{}|{}|{}|",
            self.name,
            cell(o.constant_folding),
            cell(o.static_branch_elimination),
            cell(o.load_elimination),
            cell(o.dead_code_elimination),
            cell(o.complete_loop_unrolling),
            cell(o.strength_reduction),
        )
    }
}

/// Problem sizing for the table harnesses.
#[derive(Clone, Copy, Debug)]
pub enum Scale {
    /// Tiny sizes for CI / debug-build smoke runs.
    Smoke,
    /// The paper's §5 configurations (run in release builds).
    Paper,
}

/// One Table 2 workload: a paper kernel at one problem size. Built by
/// each kernel module's `workload`; [`table2_workloads`] is the one place
/// the sizes the harnesses run are written down.
pub struct Workload {
    /// Short kernel name (the `kernel` field of the JSON artifacts).
    pub kernel: &'static str,
    /// Short problem-size label.
    pub config: String,
    /// How to run it.
    pub setup: KernelSetup<'static>,
    // The Table 2 presentation of a measurement of `setup`: the fields
    // of `KernelResult` that do not depend on the run.
    name: &'static str,
    table2_config: String,
    unit: &'static str,
    unit_scale: u64,
}

impl Workload {
    /// The workload's source compiled by `compiler`, ready to share
    /// across sessions.
    ///
    /// # Panics
    /// A paper kernel that does not compile is a bug in the harness.
    pub fn compile(&self, compiler: &Compiler) -> Arc<Program> {
        let program = compiler.compile(self.setup.src);
        Arc::new(program.unwrap_or_else(|e| panic!("{} compiles: {e}", self.kernel)))
    }

    /// Measure the workload the Table 2 way (static vs dynamic), the
    /// dynamic version compiled by `compiler` and run under `options`.
    ///
    /// # Errors
    /// Compilation or execution failure in either version.
    pub fn measure(
        &self,
        compiler: &Compiler,
        options: EngineOptions,
    ) -> Result<KernelResult, Error> {
        Ok(KernelResult {
            name: self.name,
            config: self.table2_config.clone(),
            unit: self.unit,
            unit_scale: self.unit_scale,
            measurement: dyncomp::measure_kernel_full(&self.setup, compiler, options)?,
        })
    }
}

/// The rows of Table 2 at `scale`, in table order: the paper's §5
/// configurations, and CI-sized stand-ins for them.
pub fn table2_workloads(scale: Scale) -> Vec<Workload> {
    use kernels::{calculator, dispatch, smatmul, sorter, spmv};
    match scale {
        Scale::Smoke => vec![
            calculator::workload(80),
            smatmul::workload(8, 16, 8),
            spmv::workload(12, 3, 20),
            spmv::workload(8, 2, 20),
            dispatch::workload(10, 60),
            sorter::workload(40, 4, 5),
            sorter::workload(40, 12, 5),
        ],
        Scale::Paper => vec![
            calculator::workload(2000),
            smatmul::workload(100, 800, 100),
            spmv::workload(200, 10, 300),
            spmv::workload(96, 5, 300),
            dispatch::workload(10, 2000),
            sorter::workload(500, 4, 20),
            sorter::workload(500, 12, 20),
        ],
    }
}

/// Each kernel's first Table 2 row: what the harnesses that run every
/// kernel once (fault sweep, warm-up, persistence, region profiles) use.
pub fn kernel_workloads(scale: Scale) -> Vec<Workload> {
    let mut rows = table2_workloads(scale);
    rows.dedup_by_key(|w| w.kernel);
    rows
}

/// Run every Table 2 row at the given scale.
///
/// # Errors
/// Propagates the first kernel failure.
pub fn run_all(scale: Scale) -> Result<Vec<KernelResult>, Error> {
    run_all_with(scale, EngineOptions::default())
}

/// [`run_all`] under explicit engine options — used by the tracing drift
/// gate (tracing is observation-only, so rows must be identical with it
/// on or off) and by the tiered/speculative harnesses.
///
/// # Errors
/// Propagates the first kernel failure.
pub fn run_all_with(scale: Scale, options: EngineOptions) -> Result<Vec<KernelResult>, Error> {
    table2_workloads(scale)
        .iter()
        .map(|w| w.measure(&Compiler::new(), options.clone()))
        .collect()
}

/// Render every row as the machine-readable `BENCH_table2.json` document
/// (a top-level array, one object per Table 2 row).
pub fn render_table2_json(rows: &[KernelResult]) -> String {
    let rows: Vec<Row> = rows.iter().map(KernelResult::row).collect();
    row::render_json_array(&rows)
}

/// The Table 2 header line.
pub fn table2_header() -> String {
    format!(
        "{:<42} | {:<46} | {:<16} | {:<26} | {:<19} | {}",
        "Benchmark",
        "Run-time Constant Configurations",
        "Speedup (st/dyn)",
        "Breakeven Point",
        "Overhead setup/stitch",
        "Cycles/Instr Stitched (count)",
    )
}

/// The Table 3 header line.
pub fn table3_header() -> String {
    format!(
        "{:<42} |{}|{}|{}|{}|{}|{}|",
        "Benchmark", "ConstF", "BrElim", "LdElim", " DCE ", "Unroll", "StrRed",
    )
}
