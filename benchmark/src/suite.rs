//! `all` and `--smoke`: the four workloads, each run in a fresh child process
//! of this binary so that `VmHWM`, allocator state and JIT-arena layout do
//! not leak from one workload into the next.

use crate::harness::{out_dir, RunArgs};
use crate::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use crate::stats::{median, sorted};
use dyncomp::server::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Untraced repetitions per workload in `all`: the reported end-to-end value
/// is their median, printed with the minimum and maximum.
const REPETITIONS: usize = 3;

/// A JSON number, integer or not.
pub fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    inputs_fnv: String,
    metrics: BTreeMap<String, f64>,
    derived: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let doc = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_int).unwrap_or(0) as u64;
    let mut run = ChildRun {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        inputs_fnv: String::new(),
        metrics: BTreeMap::new(),
        derived: Vec::new(),
    };
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            if let Some(v) = m.get("value").and_then(number) {
                run.metrics.insert(name.clone(), v);
            }
        }
    }
    for line in lines {
        if let Some(rest) = line.strip_prefix("derived ") {
            // "derived <name> = <value> <unit>"
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some("="), Some(value), Some(unit)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                if let Ok(v) = value.parse::<f64>() {
                    run.derived.push((name.to_string(), v, unit.to_string()));
                }
            }
        } else if let Some(at) = line.find("inputs_fnv=") {
            run.inputs_fnv = line[at + "inputs_fnv=".len()..].trim().to_string();
        }
    }
    Ok(run)
}

/// One workload's part of the ledger and of the results file: the
/// end-to-end metrics as median, minimum and maximum over the untraced
/// repetitions, the traced run's per-layer values, and the derived rows of
/// the last untraced run and the traced one.
struct Section {
    name: &'static str,
    inputs_fnv: String,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(MetricDef, [f64; 3])>,
    per_layer: Vec<(MetricDef, f64)>,
    derived: Vec<(String, f64, String)>,
}

impl Section {
    fn new(name: &'static str, mut untraced: Vec<ChildRun>, traced: ChildRun) -> Section {
        let runs = || untraced.iter().chain(std::iter::once(&traced));
        let end_to_end = end_to_end()
            .into_iter()
            .map(|d| {
                let values = sorted(
                    untraced
                        .iter()
                        .filter_map(|r| r.metrics.get(&d.name).copied())
                        .collect(),
                );
                let stats = [
                    median(&values),
                    values.first().copied().unwrap_or(0.0),
                    values.last().copied().unwrap_or(0.0),
                ];
                (d, stats)
            })
            .collect();
        let per_layer = per_layer()
            .into_iter()
            .map(|d| {
                let v = traced.metrics.get(&d.name).copied().unwrap_or(0.0);
                (d, v)
            })
            .collect();
        Section {
            name,
            attempted: runs().map(|r| r.attempted).sum(),
            failed: runs().map(|r| r.failed).sum(),
            end_to_end,
            per_layer,
            derived: untraced
                .pop()
                .into_iter()
                .flat_map(|r| r.derived)
                .chain(traced.derived)
                .collect(),
            inputs_fnv: traced.inputs_fnv,
        }
    }

    fn print(&self, seed: u64) {
        println!(
            "== {}  (seed {seed}, inputs_fnv {})",
            self.name, self.inputs_fnv
        );
        println!("   attempted {}  failed {}", self.attempted, self.failed);
        println!("   end to end, tracing off (median of {REPETITIONS} runs [min .. max], bound):");
        for (d, [mid, min, max]) in &self.end_to_end {
            println!(
                "     {:<44} {mid:>16.4} {:<6} [{min:.4} .. {max:.4}]  {} is better, bound {:.0} %",
                d.name,
                d.unit,
                d.better.name(),
                d.bound.unwrap_or(0.0) * 100.0
            );
        }
        println!("   per layer, traced pass (layers this workload never enters are left out):");
        for (d, v) in self.per_layer.iter().filter(|(_, v)| *v != 0.0) {
            println!(
                "     {:<44} {v:>16.4} {:<6}{}",
                d.name,
                d.unit,
                if d.exact { " exact" } else { "" }
            );
        }
        println!("   derived rows (not gated):");
        for (n, v, u) in &self.derived {
            println!("     {n:<52} {v:>16.4} {u}");
        }
    }

    fn json(&self) -> String {
        let rows = |rows: Vec<String>| rows.join(",\n      ");
        let end_to_end = rows(
            self.end_to_end
                .iter()
                .map(|(d, [mid, min, max])| {
                    format!(
                        "\"{}\": {{\"value\": {mid}, \"min\": {min}, \"max\": {max}, \"unit\": \"{}\"}}",
                        d.name, d.unit
                    )
                })
                .collect(),
        );
        let per_layer = rows(
            self.per_layer
                .iter()
                .map(|(d, v)| {
                    format!(
                        "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                        d.name, d.unit
                    )
                })
                .collect(),
        );
        let derived = rows(
            self.derived
                .iter()
                .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect(),
        );
        format!(
            "  \"{}\": {{\n    \"inputs_fnv\": \"{}\",\n    \"attempted\": {},\n    \
             \"failed\": {},\n    \"end_to_end\": {{\n      {end_to_end}\n    }},\n    \
             \"per_layer\": {{\n      {per_layer}\n    }},\n    \"derived\": {{\n      {derived}\n    }}\n  }}",
            self.name, self.inputs_fnv, self.attempted, self.failed
        )
    }
}

/// Run the four workloads untraced ([`REPETITIONS`] times each) and then
/// traced, print the ledger, and write the results file `compare` reads.
pub fn run_all(args: &RunArgs, out: Option<&str>) -> ExitCode {
    let mut sections = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..=REPETITIONS {
            let trace = rep == REPETITIONS;
            if trace {
                eprintln!("[{workload}] traced run");
            } else {
                eprintln!("[{workload}] untraced run {}/{REPETITIONS}", rep + 1);
            }
            match run_child(workload, args, trace) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("dyncomp-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        all_correct &= runs.iter().all(|r| r.correct);
        let traced = runs.pop().expect("the traced run is the last");
        let section = Section::new(workload, runs, traced);
        section.print(args.seed);
        sections.push(section.json());
    }
    let doc = format!(
        "{{\n\"seed\": {},\n\"seconds\": {},\n\"repetitions\": {REPETITIONS},\n\"workloads\": {{\n{}\n}}\n}}\n",
        args.seed,
        args.seconds,
        sections.join(",\n")
    );
    let path = out.map_or_else(|| out_dir().join("results.json"), std::path::PathBuf::from);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("dyncomp-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("dyncomp-benchmark: at least one operation failed its check");
        ExitCode::FAILURE
    }
}

/// All four workloads, untraced and traced, on short windows and small
/// resident populations: correctness checks on, no bounds.
pub fn smoke(args: &RunArgs) -> ExitCode {
    let args = RunArgs {
        seconds: 0.3,
        smoke: true,
        ..args.clone()
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            match run_child(workload, &args, trace) {
                Ok(r) => {
                    println!(
                        "smoke {workload:<13} trace={} correct={} attempted={} failed={}",
                        u8::from(trace),
                        r.correct,
                        r.attempted,
                        r.failed
                    );
                    ok &= r.correct;
                }
                Err(e) => {
                    eprintln!("dyncomp-benchmark: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
