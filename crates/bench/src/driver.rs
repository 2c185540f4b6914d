//! The one bench driver: `bench <suite> [--smoke] [--json P] [--check P]
//! [suite flags]` and `bench --list`, over the [`SUITES`] registry.
//!
//! The driver owns everything the thirteen binaries used to repeat: the
//! command line (checked whole before the run, so a usage error costs
//! nothing and exits 2; a flag that neither the driver nor the suite
//! declares is one), the artifact name, the write, and the drift gate.
//! A suite is its measurement loop and its invariant checks; it returns
//! its rows and how many invariants it saw violated.
//!
//! A suite with an artifact stem `S` writes `BENCH_S.json`, or
//! `BENCH_S_smoke.json` under `--smoke`, unless `--json` names another
//! path — a smoke run never lands on a paper-scale file. `--check P`
//! compares the exact fields of the fresh rows with the document at `P`
//! ([`crate::row::drift`]) and exits 1 on any difference. CI runs every
//! suite that has an artifact through it: against the committed smoke
//! file, and run-twice against `/tmp`.

use crate::row::{drift, render_json_array, Row};
use crate::{suites, Scale};
use dyncomp::server::Json;
use std::str::FromStr;

/// One registered suite.
pub struct Suite {
    /// The name on the command line.
    pub name: &'static str,
    /// Artifact stem (`BENCH_<stem>.json`); `None` when the suite only
    /// prints a report.
    pub artifact: Option<&'static str>,
    /// The flags the suite takes beyond the driver's, and whether each
    /// is followed by a value.
    pub flags: &'static [(&'static str, bool)],
    /// Measure, print the report, return the rows.
    pub run: fn(&Args) -> Report,
}

/// What a suite hands back to the driver.
#[derive(Default)]
pub struct Report {
    /// The artifact rows (empty for a suite without an artifact).
    pub rows: Vec<Row>,
    /// Invariant violations the suite saw and reported on stderr; the
    /// driver still writes the artifact, then exits 1.
    pub violations: u32,
}

/// Each `module: artifact stem, flags;` row is one [`Suite`], named after
/// the `suites` module whose `run` it calls.
macro_rules! suites {
    ($($name:ident: $artifact:expr, $flags:expr;)*) => {
        &[$(Suite {
            name: stringify!($name),
            artifact: $artifact,
            flags: &$flags,
            run: suites::$name::run,
        }),*]
    };
}

/// Every suite, in the order `bench --list` prints them.
pub static SUITES: &[Suite] = suites! {
    table2: Some("table2"), [("--trace", false), ("--faults-idle", false)];
    table3: None, [];
    regactions: None, [];
    ablation: None, [];
    concurrent_throughput: None, [];
    warmup: Some("warmup"), [];
    region_profile: Some("region_profile"), [];
    fault_sweep: Some("fault_sweep"), [];
    inline_bench: Some("inline"), [];
    persist_bench: Some("persist"), [("--dir", true)];
    native_comparison: Some("native"), [("--repeat", true)];
    load_gen: Some("server"), [("--workers", true)];
};

impl Suite {
    /// The artifact this suite writes at `scale` when `--json` is absent.
    pub fn default_artifact(&self, scale: Scale) -> Option<String> {
        self.artifact.map(|stem| match scale {
            Scale::Paper => format!("BENCH_{stem}.json"),
            Scale::Smoke => format!("BENCH_{stem}_smoke.json"),
        })
    }
}

/// A suite's parsed command line.
pub struct Args {
    /// `--smoke` or not.
    pub scale: Scale,
    suite: &'static str,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value given with `flag`, or `default` without it. A value
    /// that does not parse as `T` is a usage error (exit 2).
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> T {
        match self.flags.iter().find(|(f, _)| *f == flag) {
            Some((_, Some(v))) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("{}: {flag} cannot take {v:?}", self.suite))),
            _ => default,
        }
    }
}

fn usage(message: &str) -> ! {
    eprintln!("bench: {message}");
    eprintln!("usage: bench <suite> [--smoke] [--json P] [--check P] [suite flags] | bench --list");
    std::process::exit(2);
}

/// `bench --list`: every suite with the artifacts it writes (paper and
/// smoke scale) and the flags it takes beyond the driver's.
fn list() {
    for s in SUITES {
        let artifacts = [Scale::Paper, Scale::Smoke].map(|scale| s.default_artifact(scale));
        let flags = s.flags.iter().map(|&(f, value)| match value {
            true => format!(" [{f} V]"),
            false => format!(" [{f}]"),
        });
        println!(
            "{:<22} {}{}",
            s.name,
            artifacts.map(|a| a.unwrap_or("-".into())).join(" "),
            flags.collect::<String>()
        );
    }
}

/// Run the command line `argv` (without the program name). Exits the
/// process with status 2 on a usage error and 1 on drift, an unwritable
/// artifact or a violated invariant.
pub fn main(argv: &[String]) {
    let Some((first, rest)) = argv.split_first() else {
        usage("no suite named");
    };
    if first == "--list" {
        return list();
    }
    let Some(suite) = SUITES.iter().find(|s| s.name == first) else {
        usage(&format!("unknown suite {first:?} (see bench --list)"));
    };
    let mut args = Args {
        scale: Scale::Paper,
        suite: suite.name,
        flags: Vec::new(),
    };
    let (mut json_path, mut check_path) = (None, None);
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{}: {flag} needs a value", suite.name)))
        };
        match flag.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--json" | "--check" if suite.artifact.is_none() => {
                usage(&format!("{} writes no artifact", suite.name))
            }
            "--json" => json_path = Some(value()),
            "--check" => check_path = Some(value()),
            _ => match suite.flags.iter().find(|(f, _)| f == flag) {
                Some(&(f, takes_value)) => args.flags.push((f, takes_value.then(&mut value))),
                None => usage(&format!("{}: unknown flag {flag}", suite.name)),
            },
        }
    }

    let report = (suite.run)(&args);
    if let Some(default_path) = suite.default_artifact(args.scale) {
        let json_path = json_path.unwrap_or(default_path);
        write_and_check(suite.name, &report.rows, &json_path, check_path.as_deref());
    }
    if report.violations > 0 {
        eprintln!(
            "{}: {} violation(s) of the suite's invariants",
            suite.name, report.violations
        );
        std::process::exit(1);
    }
}

/// Validate the rendered rows as JSON and write them; then, under
/// `--check`, exit 1 on any drift from the reference, printing the
/// differing rows. An unreadable reference exits with status 2.
fn write_and_check(suite: &str, rows: &[Row], json_path: &str, check_path: Option<&str>) {
    let rendered = render_json_array(rows);
    if let Err(e) = Json::parse(&rendered) {
        eprintln!("{suite}: rendered document is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(json_path, &rendered) {
        eprintln!("{suite}: cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {json_path}");
    let Some(reference_path) = check_path else {
        return;
    };
    let reference = std::fs::read_to_string(reference_path).unwrap_or_else(|e| {
        eprintln!("{suite}: cannot read reference {reference_path}: {e}");
        std::process::exit(2);
    });
    let report = drift(rows, &reference);
    if report.is_empty() {
        println!("check: exact fields match {reference_path}");
        return;
    }
    eprintln!("{suite}: exact fields drifted from {reference_path}:");
    for line in report {
        eprintln!("{line}");
    }
    std::process::exit(1);
}
