//! # dyncomp-bench
//!
//! The evaluation of the PLDI'96 reproduction: the paper's five kernels
//! (§5, Tables 2 and 3), the register-actions experiment, and the
//! ablations DESIGN.md calls out.
//!
//! Each kernel module provides the annotated MiniC source, reproducible
//! workload generators, host-side reference implementations for
//! cross-checking, and a `measure` function producing a [`KernelResult`]
//! with the Table 2 quantities. The binaries (`table2`, `table3`,
//! `regactions`, `ablation`) print the regenerated tables.

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

pub mod warmup;

/// Escape a string for a JSON literal (shared by the bench binaries —
/// the workspace takes no external JSON dependency).
pub use dyncomp::server::escape as json_str;
pub use dyncomp::KernelMeasurement;

use dyncomp::server::Json;
use dyncomp::{EngineOptions, Error, KernelSetup};

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

    /// Render as one `BENCH_table2.json` object (hand-rolled JSON — the
    /// workspace takes no external dependencies).
    pub fn json_object(&self) -> String {
        let m = &self.measurement;
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".to_string()
            }
        };
        let breakeven = match m.breakeven {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        let breakeven_units = match m.breakeven {
            Some(b) => (b * self.unit_scale.max(1)).to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"name\": {}, \"config\": {}, \"unit\": {}, \"iterations\": {}, ",
                "\"static_cycles\": {}, \"dynamic_cycles\": {}, \"speedup\": {}, ",
                "\"breakeven\": {}, \"breakeven_units\": {}, ",
                "\"setup_cycles\": {}, \"stitch_cycles\": {}, ",
                "\"instructions_stitched\": {}, ",
                "\"cycles_per_stitched_instruction\": {}, \"checksum\": {}}}"
            ),
            json_str(self.name),
            json_str(&self.config),
            json_str(self.unit),
            m.iterations,
            f(m.static_cycles),
            f(m.dynamic_cycles),
            f(m.speedup),
            breakeven,
            breakeven_units,
            m.setup_cycles,
            m.stitch_cycles,
            m.instructions_stitched,
            f(m.cycles_per_stitched_instruction),
            m.checksum,
        )
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
    /// Measure the workload the Table 2 way (static vs dynamic), the
    /// dynamic version under `options`.
    ///
    /// # Errors
    /// Compilation or execution failure in either version.
    pub fn measure_with(&self, options: EngineOptions) -> Result<KernelResult, Error> {
        Ok(KernelResult {
            name: self.name,
            config: self.table2_config.clone(),
            unit: self.unit,
            unit_scale: self.unit_scale,
            measurement: dyncomp::measure_kernel_with(&self.setup, options)?,
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
        .map(|w| w.measure_with(options.clone()))
        .collect()
}

/// Render every row as the machine-readable `BENCH_table2.json` document
/// (a top-level array, one object per Table 2 row).
pub fn render_table2_json(rows: &[KernelResult]) -> String {
    let objects: Vec<String> = rows.iter().map(KernelResult::json_object).collect();
    render_json_array(&objects)
}

/// Render pre-rendered JSON values as the `[\n  row,\n …]\n` array every
/// committed `BENCH_*.json` uses: one row per line, so drift diffs by row.
pub fn render_json_array<S: AsRef<str>>(rows: &[S]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(row.as_ref());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The value following `flag` on a harness command line (`None` when
/// the flag is absent). A flag without its value is a usage error: the
/// process exits with status 2.
pub fn flag_value(bin: &str, args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).cloned().unwrap_or_else(|| {
        eprintln!("{bin}: {flag} needs a value");
        std::process::exit(2);
    }))
}

/// Where a drift-gated harness writes its `BENCH_*.json` (`--json
/// <path>`) and which committed reference it is checked against
/// (`--check <path>`). Parsed before the run, so a usage error costs
/// nothing.
pub struct Artifact {
    bin: &'static str,
    json_path: String,
    check_path: Option<String>,
}

impl Artifact {
    /// Read `--json` (falling back to `default_json`) and `--check` from
    /// `args`; a flag without its path exits with status 2.
    pub fn from_args(bin: &'static str, args: &[String], default_json: &str) -> Self {
        Artifact {
            bin,
            json_path: flag_value(bin, args, "--json").unwrap_or_else(|| default_json.to_string()),
            check_path: flag_value(bin, args, "--check"),
        }
    }

    /// Validate `rendered` as JSON and write it; then, under `--check`,
    /// compare it with the reference and exit 1 on any drift, printing
    /// the differing rows. Without `deterministic` the comparison is
    /// byte-for-byte (every field is simulated-deterministic); harnesses
    /// that also report host wall-clock pass the function extracting each
    /// row's deterministic fields, applied to both documents. An
    /// unreadable reference exits with status 2.
    pub fn write_and_check(&self, rendered: &str, deterministic: Option<fn(&str) -> Vec<String>>) {
        let bin = self.bin;
        if let Err(e) = Json::parse(rendered) {
            eprintln!("{bin}: rendered document is not valid JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&self.json_path, rendered) {
            eprintln!("{bin}: cannot write {}: {e}", self.json_path);
            std::process::exit(1);
        }
        println!("wrote {}", self.json_path);
        let Some(reference_path) = &self.check_path else {
            return;
        };
        let reference = std::fs::read_to_string(reference_path).unwrap_or_else(|e| {
            eprintln!("{bin}: cannot read reference {reference_path}: {e}");
            std::process::exit(2);
        });
        let lines = |doc: &str| doc.lines().map(str::to_string).collect::<Vec<_>>();
        let (matches, drifted, want, got) = match deterministic {
            Some(fields) => (
                "deterministic fields match",
                "deterministic fields drifted",
                fields(&reference),
                fields(rendered),
            ),
            None => (
                "matches",
                "results drifted",
                lines(&reference),
                lines(rendered),
            ),
        };
        let same = match deterministic {
            Some(_) => want == got,
            None => rendered == reference,
        };
        if same {
            println!("check: {matches} {reference_path}");
            return;
        }
        eprintln!("{bin}: {drifted} from {reference_path}:");
        for (w, g) in want.iter().zip(&got) {
            if w != g {
                eprintln!("  - {w}");
                eprintln!("  + {g}");
            }
        }
        if want.len() != got.len() {
            eprintln!("  ({} rows vs reference {})", got.len(), want.len());
        }
        std::process::exit(1);
    }
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
