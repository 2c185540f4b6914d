//! What the four workloads share: the run arguments, per-case sample
//! bookkeeping, repeated set-up timing and the end-to-end metric assembly.

use crate::metrics::Outcome;
use crate::stats::{gmean, median, percentile, sorted};
use std::path::PathBuf;
use std::time::Instant;

/// One workload run, as the command line asked for it.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Short correctness run: one set-up, small resident populations.
    pub smoke: bool,
}

impl RunArgs {
    /// How often the set-up runs for the `setup_s` median: three times, or
    /// once in a smoke run. Not more: contexts kept alive (see
    /// [`repeat_setup`]) add their touched input pages to the peak resident
    /// set, and a `serve-tcp` set-up takes two seconds.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Where the benchmark writes: `benchmark/out` under the current directory
/// when run from the repository root (as `BENCHMARK.json`'s command is),
/// otherwise `out` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Peak resident set (`VmHWM`) of this process, or of `pid`, in MiB.
/// 0 when `/proc` does not offer it.
pub fn vm_hwm_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checksum fold over call results (the same mul-add the server's
/// close-time checksum uses, re-stated here so the reference side shares
/// no code with the program under test).
pub fn fold(checksum: u64, result: u64) -> u64 {
    checksum
        .wrapping_mul(1_099_511_628_211)
        .wrapping_add(result)
}

/// Latency samples per case of a rotation, in microseconds.
pub struct CaseSamples {
    pub names: Vec<String>,
    pub us: Vec<Vec<f64>>,
}

impl CaseSamples {
    pub fn new(names: Vec<String>) -> Self {
        let us = vec![Vec::new(); names.len()];
        CaseSamples { names, us }
    }

    pub fn push(&mut self, case: usize, us: f64) {
        self.us[case].push(us);
    }

    pub fn total(&self) -> usize {
        self.us.iter().map(Vec::len).sum()
    }

    /// Per-case value at percentile `p`; 0 for a case with no sample (which
    /// [`end_to_end`] refuses: see [`CaseSamples::complete`]).
    pub fn percentiles(&self, p: f64) -> Vec<f64> {
        self.us
            .iter()
            .map(|v| {
                if v.is_empty() {
                    0.0
                } else {
                    percentile(&sorted(v.clone()), p)
                }
            })
            .collect()
    }

    pub fn medians(&self) -> Vec<f64> {
        self.us.iter().map(|v| median(v)).collect()
    }

    /// Whether every case was measured at least once.
    pub fn complete(&self) -> bool {
        self.us.iter().all(|v| !v.is_empty())
    }
}

/// Run `setup` `n` times and return every context, last one last, with the
/// median set-up time in seconds.
///
/// With `keep` the earlier contexts stay alive beside the later ones (the
/// caller drops them all after measuring): freeing a context's 16 MiB session
/// memories would change how the allocator serves the next set-up's, and with
/// it the measured process's footprint, from one run to the next. Without it
/// each context is dropped before the next set-up starts, for contexts that
/// own something there can be only one of.
pub fn repeat_setup<C>(n: usize, keep: bool, mut setup: impl FnMut() -> C) -> (Vec<C>, f64) {
    let mut times = Vec::with_capacity(n);
    let mut contexts = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        if !keep {
            contexts.clear();
        }
        let t0 = Instant::now();
        contexts.push(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (contexts, median(&times))
}

/// Call `round(i)` for `i = 0, 1, …` until `seconds` have passed (at least
/// once) and return each round's wall time in seconds. A round is one pass
/// over a workload's rotation, so every case gets the same number of
/// operations.
pub fn rounds(seconds: f64, mut round: impl FnMut(u64)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    for i in 0.. {
        let t0 = Instant::now();
        round(i);
        walls.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    walls
}

/// Operations per second of a rotation: the operations of one round over
/// the *median* round time. A burst of interference from outside the process
/// lengthens a few rounds, and must not read as a slower program.
pub fn round_rate(ops_per_round: usize, round_walls: &[f64]) -> f64 {
    ops_per_round as f64 / median(round_walls)
}

/// Fill the five end-to-end metrics from one untraced measurement.
/// `op_us_p50` / `op_us_p90` are geometric means over the cases of each
/// case's median / 90th percentile (the highest percentile with ten samples
/// beyond it in every case of every workload at the default window).
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    ops_per_s: f64,
    samples: &CaseSamples,
    peak_rss_mib: f64,
) {
    assert!(
        samples.complete(),
        "the window was too short to run every case once"
    );
    out.set("setup_s", setup_s);
    out.set("ops_per_s", ops_per_s);
    out.set("op_us_p50", gmean(&samples.medians()));
    out.set("op_us_p90", gmean(&samples.percentiles(0.90)));
    out.set("peak_rss_mib", peak_rss_mib);
    let fewest = samples.us.iter().map(Vec::len).min().unwrap_or(0);
    out.derive("samples_total", samples.total() as f64, "count");
    out.derive("samples_fewest_case", fewest as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_uses_geometric_means_of_per_case_order_statistics() {
        let mut s = CaseSamples::new(vec!["a".into(), "b".into()]);
        for v in [1.0, 2.0, 3.0] {
            s.push(0, v);
        }
        for v in [10.0, 50.0, 30.0] {
            s.push(1, v);
        }
        let mut out = Outcome::default();
        // Three rounds of two operations; the slow round does not count.
        end_to_end(&mut out, 0.5, round_rate(2, &[1.0, 1.0, 9.0]), &s, 12.0);
        assert_eq!(out.values["ops_per_s"], 2.0);
        assert!((out.values["op_us_p50"] - (2.0f64 * 30.0).sqrt()).abs() < 1e-9);
        assert!((out.values["op_us_p90"] - (3.0f64 * 50.0).sqrt()).abs() < 1e-9);
        assert_eq!(out.values["setup_s"], 0.5);
    }

    #[test]
    fn repeat_setup_keeps_every_context_or_only_the_last() {
        let mut n = 0;
        let mut next = || {
            n += 1;
            n
        };
        assert_eq!(repeat_setup(3, true, &mut next).0, vec![1, 2, 3]);
        assert_eq!(repeat_setup(3, false, &mut next).0, vec![6]);
    }

    #[test]
    fn rounds_run_at_least_once_and_time_each_round() {
        let mut calls = Vec::new();
        let walls = rounds(0.0, |i| calls.push(i));
        assert_eq!((walls.len(), calls), (1, vec![0]));
    }

    #[test]
    fn hwm_reads_this_process() {
        assert!(vm_hwm_mib(None) > 0.0);
        assert_eq!(vm_hwm_mib(Some(u32::MAX)), 0.0);
    }
}
