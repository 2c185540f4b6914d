//! Per-region observability profiles for the paper's five kernels.
//!
//! Runs every kernel with tracing enabled under three engine
//! configurations — synchronous, tiered, and tiered + speculation — and
//! writes `BENCH_region_profile.json` with the per-region
//! [`dyncomp::RegionProfile`] aggregates. Every run also exercises the
//! observability layer end to end: the trace self-check must pass (event
//! sums equal the `RegionReport` counters exactly), the Chrome export
//! must be well-formed JSON, and every JSONL line must parse.
//!
//! Usage: `bench region_profile [--smoke] [--json <path>] [--check <path>]`

use crate::driver::{Args, Report};
use crate::kernel_workloads;
use crate::row::{f4, Row, Value};
use dyncomp::server::Json;
use dyncomp::{
    run_session_profiled, Compiler, EngineOptions, ProfiledSession, RegionProfile, TieredOptions,
};

/// The three engine configurations profiled per kernel.
fn modes() -> [(&'static str, EngineOptions); 3] {
    let tiered = |speculate| EngineOptions {
        tiered: Some(TieredOptions {
            workers: 2,
            speculate,
        }),
        ..EngineOptions::default()
    };
    [
        ("sync", EngineOptions::default()),
        ("tiered", tiered(false)),
        ("tiered+spec", tiered(true)),
    ]
}

/// Non-empty histogram buckets as `[[bucket, count], ...]` (bucket `b`
/// holds cycle costs in `[2^(b-1), 2^b)`; bucket 0 holds zero-cost runs).
fn hist(buckets: &[u64]) -> Vec<Value> {
    let nonempty = buckets.iter().enumerate().filter(|(_, &c)| c > 0);
    nonempty
        .map(|(b, &c)| Value::Array(vec![b.into(), c.into()]))
        .collect()
}

fn profile_row(p: &RegionProfile) -> Row {
    Row::new()
        .field("region", p.region)
        .field("invocations", p.invocations)
        .field("keyed_lookups", p.keyed_lookups)
        .field("keyed_hits", p.keyed_hits)
        .field("keyed_evictions", p.keyed_evictions)
        .field("keyed_hit_ratio", f4(p.keyed_hit_ratio()))
        .field("setup_runs", p.setup_runs)
        .field("setup_cycles", p.setup_cycles)
        .field("setup_hist", hist(&p.setup_hist.buckets))
        .field("stitches", p.stitches)
        .field("stitch_cycles", p.stitch_cycles)
        .field("instructions_stitched", p.instructions_stitched)
        .field("stitch_hist", hist(&p.stitch_hist.buckets))
        .field("plan_patches", p.plan_patches)
        .field("shared_lookups", p.shared_lookups)
        .field("shared_cache_hits", p.shared_cache_hits)
        .field("shared_installs", p.shared_installs)
        .field("shared_evictions", p.shared_evictions)
        .field("shared_hit_ratio", f4(p.shared_hit_ratio()))
        .field("dispatches", p.dispatches)
        .field("fallback_runs", p.fallback_runs)
        .field("bg_ready", p.bg_ready)
        .field("bg_failed", p.bg_failed)
        .field("bg_installs", p.bg_installs)
        .field("bg_setup_cycles", p.bg_setup_cycles)
        .field("bg_stitch_cycles", p.bg_stitch_cycles)
        .field("spec_issued", p.spec_issued)
        .field("spec_installs", p.spec_installs)
        .field("speculation_accuracy", f4(p.speculation_accuracy()))
        .field("first_stitched_at", p.first_stitched_at)
}

fn run_row(kernel: &str, mode: &str, s: &ProfiledSession) -> Row {
    let regions: Vec<Value> = s.profiles.iter().map(|p| profile_row(p).into()).collect();
    Row::new()
        .field("kernel", kernel)
        .field("mode", mode)
        .field("checksum", s.outcome.checksum)
        .field("call_cycles", s.outcome.call_cycles)
        .field("total_cycles", s.outcome.total_cycles)
        .field("events", s.jsonl.lines().count())
        .field("dropped", s.dropped)
        .field("regions", regions)
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    println!("Per-region profiles ({scale:?} scale), five kernels x {{sync, tiered, tiered+spec}}");
    println!(
        "{:<12} {:<12} {:>4} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "kernel",
        "mode",
        "rgn",
        "invoc",
        "stitches",
        "setup cy",
        "stitch cy",
        "instrs",
        "keyhit%",
        "bg",
        "spec"
    );
    println!("{}", "-".repeat(104));

    let mut rows = Vec::new();
    for w in kernel_workloads(scale) {
        let sync_prog = w.compile(&Compiler::new());
        // Tiered mode needs the fallback copies `Compiler::tiered` lowers.
        let tiered_prog = w.compile(&Compiler::tiered());
        let mut checksums: Vec<u64> = Vec::new();
        for (mode, options) in modes() {
            let program = if options.tiered.is_some() {
                &tiered_prog
            } else {
                &sync_prog
            };
            let s = run_session_profiled(program, &w.setup, options).unwrap_or_else(|e| {
                eprintln!("region_profile: {} [{mode}]: {e}", w.kernel);
                std::process::exit(1);
            });
            // Tracing and tiering are observation/latency layers: results
            // must be identical across modes.
            checksums.push(s.outcome.checksum);
            if let Err(e) = Json::parse(&s.chrome) {
                eprintln!(
                    "region_profile: {} [{mode}]: Chrome export is not valid JSON: {e}",
                    w.kernel
                );
                std::process::exit(1);
            }
            let lines = s.jsonl.lines().enumerate();
            for (n, line) in lines.filter(|(_, l)| !l.trim().is_empty()) {
                if let Err(e) = Json::parse(line) {
                    eprintln!(
                        "region_profile: {} [{mode}]: JSONL export has a bad line: line {}: {e}",
                        w.kernel,
                        n + 1
                    );
                    std::process::exit(1);
                }
            }
            for p in &s.profiles {
                let keyhit = if p.keyed_lookups > 0 {
                    format!("{:.1}", 100.0 * p.keyed_hit_ratio())
                } else {
                    "-".to_string()
                };
                println!(
                    "{:<12} {:<12} {:>4} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
                    w.kernel,
                    mode,
                    p.region,
                    p.invocations,
                    p.stitches,
                    p.setup_cycles,
                    p.stitch_cycles,
                    p.instructions_stitched,
                    keyhit,
                    p.bg_installs,
                    p.spec_installs,
                );
            }
            rows.push(run_row(w.kernel, mode, &s));
        }
        if checksums.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "region_profile: {}: checksums diverge across modes: {checksums:?}",
                w.kernel
            );
            std::process::exit(1);
        }
    }

    Report {
        rows,
        violations: 0,
    }
}
