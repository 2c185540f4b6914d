//! The repository's host-time benchmark.
//!
//! ```text
//! dyncomp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! dyncomp-benchmark all [--seed N] [--seconds S] [--out FILE]
//! dyncomp-benchmark compare A.json B.json
//! dyncomp-benchmark --smoke
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload, one
//! fresh process, the result as one JSON object on the last line of standard
//! output. `all` runs the four workloads untraced and then traced, each in
//! its own child process, prints the ledger and writes a results file that
//! `compare` reads. See `README.md` beside this package.

mod cold_start;
mod compare;
mod compile;
mod harness;
mod inputs;
mod metrics;
mod serve_tcp;
mod stats;
mod steady_state;
mod suite;
mod trace;

use harness::RunArgs;
use metrics::{end_to_end, per_layer, render_metrics, Outcome, WORKLOADS};
use std::process::ExitCode;

/// Default workload seed (the paper's year).
const DEFAULT_SEED: u64 = 1996;
/// Default length of one measured window, as `BENCHMARK.json` sets it.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dyncomp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      dyncomp-benchmark all [--seed N] [--seconds S] [--out FILE]\n\
         \x20      dyncomp-benchmark compare A.json B.json\n\
         \x20      dyncomp-benchmark --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The flags shared by the run forms.
struct Cli {
    workload: Option<String>,
    out: Option<String>,
    run: RunArgs,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        out: None,
        run: RunArgs {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--out" => cli.out = Some(value()?),
            "--seed" => {
                cli.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                cli.run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| "--seconds needs a positive number".to_string())?;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--smoke" => cli.run.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Run one workload in this process.
fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "compile" => compile::run(args),
        "cold-start" => cold_start::run(args),
        "steady-state" => steady_state::run(args),
        "serve-tcp" => serve_tcp::run(args),
        _ => return None,
    })
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let defs = if trace { per_layer() } else { end_to_end() };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        render_metrics(&defs, &outcome.values)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2), args.len()) {
            (Some(a), Some(b), 3) => compare::main(a, b),
            _ => usage(),
        },
        Some("all") => match parse(&args[1..]) {
            Ok(cli) if cli.workload.is_none() => suite::run_all(&cli.run, cli.out.as_deref()),
            Ok(_) => usage(),
            Err(e) => {
                eprintln!("dyncomp-benchmark: {e}");
                usage()
            }
        },
        _ => match parse(&args) {
            Ok(cli) if cli.run.smoke && cli.workload.is_none() => suite::smoke(&cli.run),
            Ok(Cli {
                workload: Some(name),
                run,
                ..
            }) => {
                let Some(outcome) = run_workload(&name, &run) else {
                    eprintln!("dyncomp-benchmark: unknown workload `{name}`");
                    return usage();
                };
                // Everything but the result object goes first: the
                // contract reads the last line of standard output.
                println!(
                    "workload={name} seed={} seconds={} trace={} inputs_fnv={:016x}",
                    run.seed,
                    run.seconds,
                    u8::from(run.trace),
                    outcome.inputs_fnv
                );
                for (row, value, unit) in &outcome.derived {
                    println!("derived {row} = {value} {unit}");
                }
                println!("{}", result_line(&outcome, run.trace));
                ExitCode::SUCCESS
            }
            Ok(_) => usage(),
            Err(e) => {
                eprintln!("dyncomp-benchmark: {e}");
                usage()
            }
        },
    }
}
