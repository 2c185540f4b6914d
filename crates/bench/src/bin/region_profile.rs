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
//! Usage: `cargo run --release -p dyncomp-bench --bin region_profile
//! [--smoke] [--json <path>] [--check <path>]`

use dyncomp::server::Json;
use dyncomp::{
    run_session_profiled, Compiler, EngineOptions, ProfiledSession, RegionProfile, TieredOptions,
};
use dyncomp_bench::{kernel_workloads, render_json_array, Artifact, Scale};
use std::sync::Arc;

/// The three engine configurations profiled per kernel.
fn modes() -> Vec<(&'static str, EngineOptions)> {
    let sync = EngineOptions::default();
    let tiered = EngineOptions {
        tiered: Some(TieredOptions {
            workers: 2,
            ..TieredOptions::default()
        }),
        ..EngineOptions::default()
    };
    let spec = EngineOptions {
        tiered: Some(TieredOptions {
            workers: 2,
            speculate: true,
        }),
        ..EngineOptions::default()
    };
    vec![("sync", sync), ("tiered", tiered), ("tiered+spec", spec)]
}

fn ratio_str(r: f64) -> String {
    format!("{r:.4}")
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Non-empty histogram buckets as `[[bucket, count], ...]` (bucket `b`
/// holds cycle costs in `[2^(b-1), 2^b)`; bucket 0 holds zero-cost runs).
fn hist_json(buckets: &[u64]) -> String {
    let pairs: Vec<String> = buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(b, &c)| format!("[{b}, {c}]"))
        .collect();
    format!("[{}]", pairs.join(", "))
}

fn profile_json(p: &RegionProfile) -> String {
    format!(
        concat!(
            "{{\"region\": {}, \"invocations\": {}, ",
            "\"keyed_lookups\": {}, \"keyed_hits\": {}, \"keyed_evictions\": {}, ",
            "\"keyed_hit_ratio\": {}, ",
            "\"setup_runs\": {}, \"setup_cycles\": {}, \"setup_hist\": {}, ",
            "\"stitches\": {}, \"stitch_cycles\": {}, \"instructions_stitched\": {}, ",
            "\"stitch_hist\": {}, \"plan_patches\": {}, ",
            "\"shared_lookups\": {}, \"shared_cache_hits\": {}, \"shared_installs\": {}, ",
            "\"shared_evictions\": {}, \"shared_hit_ratio\": {}, ",
            "\"dispatches\": {}, \"fallback_runs\": {}, ",
            "\"bg_ready\": {}, \"bg_failed\": {}, \"bg_installs\": {}, ",
            "\"bg_setup_cycles\": {}, \"bg_stitch_cycles\": {}, ",
            "\"spec_issued\": {}, \"spec_installs\": {}, ",
            "\"speculation_accuracy\": {}, \"first_stitched_at\": {}}}"
        ),
        p.region,
        p.invocations,
        p.keyed_lookups,
        p.keyed_hits,
        p.keyed_evictions,
        ratio_str(p.keyed_hit_ratio()),
        p.setup_runs,
        p.setup_cycles,
        hist_json(&p.setup_hist.buckets),
        p.stitches,
        p.stitch_cycles,
        p.instructions_stitched,
        hist_json(&p.stitch_hist.buckets),
        p.plan_patches,
        p.shared_lookups,
        p.shared_cache_hits,
        p.shared_installs,
        p.shared_evictions,
        ratio_str(p.shared_hit_ratio()),
        p.dispatches,
        p.fallback_runs,
        p.bg_ready,
        p.bg_failed,
        p.bg_installs,
        p.bg_setup_cycles,
        p.bg_stitch_cycles,
        p.spec_issued,
        p.spec_installs,
        ratio_str(p.speculation_accuracy()),
        opt_u64(p.first_stitched_at),
    )
}

fn run_json(kernel: &str, mode: &str, s: &ProfiledSession) -> String {
    let regions: Vec<String> = s.profiles.iter().map(profile_json).collect();
    format!(
        concat!(
            "{{\"kernel\": \"{}\", \"mode\": \"{}\", \"checksum\": {}, ",
            "\"call_cycles\": {}, \"total_cycles\": {}, \"events\": {}, ",
            "\"dropped\": {}, \"regions\": [{}]}}"
        ),
        kernel,
        mode,
        s.outcome.checksum,
        s.outcome.call_cycles,
        s.outcome.total_cycles,
        s.jsonl.lines().count(),
        s.dropped,
        regions.join(", "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let artifact = Artifact::from_args("region_profile", &args, "BENCH_region_profile.json");
    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
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

    let mut objects: Vec<String> = Vec::new();
    for w in kernel_workloads(scale) {
        let sync_prog = Arc::new(
            Compiler::new()
                .compile(w.setup.src)
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.kernel)),
        );
        // Tiered mode needs the fallback copies `Compiler::tiered` lowers.
        let tiered_prog = Arc::new(
            Compiler::tiered()
                .compile(w.setup.src)
                .unwrap_or_else(|e| panic!("{}: tiered compile failed: {e}", w.kernel)),
        );
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
            objects.push(run_json(w.kernel, mode, &s));
        }
        if checksums.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "region_profile: {}: checksums diverge across modes: {checksums:?}",
                w.kernel
            );
            std::process::exit(1);
        }
    }

    artifact.write_and_check(&render_json_array(&objects), None);
}
