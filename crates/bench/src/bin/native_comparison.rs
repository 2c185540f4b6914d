//! Host wall-clock comparison of the execution backends over the
//! Table 2 kernels: the statically compiled baseline on the VM
//! (`interp`), dynamic compilation executed on the VM (`vm_stitched`),
//! and dynamic compilation executed through the host-native
//! copy-and-patch backend both with direct-threaded chaining (the
//! default, `native_chained`) and with chaining disabled (the ablation,
//! `native_unchained`), plus the native translation cost per SimAlpha
//! instruction.
//!
//! Everything *simulated* is asserted bit-identical across all runs —
//! checksums must agree, and each dynamic run must agree with the VM
//! oracle on simulated cycles ([`dyncomp::run_session_differential`]
//! enforces both, once per chain mode). Only host nanoseconds differ;
//! each configuration is run `--repeat` times (default 3) and the
//! minimum wall-clock is reported, the standard way to suppress
//! scheduler noise in a determinism-pinned workload.
//!
//! Usage: `cargo run --release -p dyncomp-bench --bin native_comparison
//! [--smoke] [--repeat N] [--json <path>] [--check <path>]`
//!
//! The rendered document is validated with the in-tree JSON checker
//! before it is written. `--check <path>` compares the *deterministic*
//! fields (kernel, config, iterations, checksum, checksums_match, and
//! the simulated dispatch split `native_entries` / `native_chained` /
//! `unchained_entries`) against a reference — wall-clock fields are
//! host noise and are exempt from the drift gate. On hosts without the
//! native backend the native halves run on the VM, `native_active` is
//! false, and the wall-clock columns simply coincide; checksums still
//! gate (the dispatch-split counters are host-dependent, so `--check`
//! is meaningful against a same-host reference — CI runs the bench
//! twice and diffs).

use dyncomp::{run_session_differential, run_session_timed, Compiler, EngineOptions};
use dyncomp_bench::{json_str, render_json_array, table2_workloads, Artifact, Scale};
use std::sync::Arc;

struct Row {
    kernel: &'static str,
    config: String,
    iterations: u64,
    checksum: u64,
    checksums_match: bool,
    native_entries: u64,
    native_chained: u64,
    unchained_entries: u64,
    interp_ns: u64,
    vm_stitched_ns: u64,
    native_chained_ns: u64,
    native_unchained_ns: u64,
    native_speedup_vs_vm: f64,
    chain_speedup: f64,
    translate_ns: u64,
    translated_instructions: u64,
    covered_instructions: u64,
    translate_ns_per_instruction: f64,
    native_installs: u64,
    native_declined: u64,
    native_bytes: u64,
    native_active: bool,
}

impl Row {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"kernel\": {}, \"config\": {}, \"iterations\": {}, ",
                "\"checksum\": {}, \"checksums_match\": {}, ",
                "\"native_entries\": {}, \"native_chained\": {}, ",
                "\"unchained_entries\": {}, ",
                "\"interp_ns\": {}, \"vm_stitched_ns\": {}, ",
                "\"native_chained_ns\": {}, \"native_unchained_ns\": {}, ",
                "\"native_speedup_vs_vm\": {:.4}, \"chain_speedup\": {:.4}, ",
                "\"translate_ns\": {}, \"translated_instructions\": {}, ",
                "\"covered_instructions\": {}, ",
                "\"translate_ns_per_instruction\": {:.4}, ",
                "\"native_installs\": {}, ",
                "\"native_declined\": {}, \"native_bytes\": {}, ",
                "\"native_active\": {}}}"
            ),
            json_str(self.kernel),
            json_str(&self.config),
            self.iterations,
            self.checksum,
            self.checksums_match,
            self.native_entries,
            self.native_chained,
            self.unchained_entries,
            self.interp_ns,
            self.vm_stitched_ns,
            self.native_chained_ns,
            self.native_unchained_ns,
            self.native_speedup_vs_vm,
            self.chain_speedup,
            self.translate_ns,
            self.translated_instructions,
            self.covered_instructions,
            self.translate_ns_per_instruction,
            self.native_installs,
            self.native_declined,
            self.native_bytes,
            self.native_active,
        )
    }
}

/// Extract each row's drift-gated prefix (everything before the first
/// wall-clock field, `interp_ns`) from a rendered document, in row
/// order. Wall-clock fields are host noise; the dispatch-split counters
/// are simulated and repeat-stable on a given host.
fn deterministic_keys(doc: &str) -> Vec<String> {
    doc.split("{\"kernel\"")
        .skip(1)
        .map(|part| {
            let obj = format!("{{\"kernel\"{part}");
            let end = obj
                .find(", \"interp_ns\"")
                .expect("row carries the wall-clock fields");
            obj[..end].to_string()
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let repeat: u32 = match args.iter().position(|a| a == "--repeat") {
        Some(p) => args
            .get(p + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("native_comparison: --repeat needs a positive integer");
                std::process::exit(2);
            }),
        None => 3,
    };
    let repeat = repeat.max(1);
    let artifact = Artifact::from_args("native_comparison", &args, "BENCH_native.json");

    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    println!("Backend wall-clock comparison ({scale:?} scale, best of {repeat})");
    println!(
        "{:<12} | {:<28} | {:>12} | {:>12} | {:>12} | {:>12} | {:>7} | {:>7} | match",
        "kernel", "config", "interp ns", "vm ns", "chained ns", "unchain ns", "nat/vm", "chain x",
    );
    println!("{}", "-".repeat(128));

    let mut rows = Vec::new();
    let mut bad = 0u32;
    for w in table2_workloads(scale) {
        let static_prog = Arc::new(
            Compiler::static_baseline()
                .compile(w.setup.src)
                .unwrap_or_else(|e| panic!("{} compiles statically: {e}", w.kernel)),
        );
        let dynamic_prog = Arc::new(
            Compiler::new()
                .compile(w.setup.src)
                .unwrap_or_else(|e| panic!("{} compiles: {e}", w.kernel)),
        );

        let mut interp_ns = u64::MAX;
        let mut vm_ns = u64::MAX;
        let mut chained_ns = u64::MAX;
        let mut unchained_ns = u64::MAX;
        let mut checksum = 0u64;
        let mut matches = true;
        let mut chained = dyncomp::NativeReport::default();
        let mut unchained = dyncomp::NativeReport::default();
        let ablation = EngineOptions {
            native_chain: false,
            ..EngineOptions::default()
        };
        for _ in 0..repeat {
            let interp = run_session_timed(&static_prog, &w.setup, EngineOptions::default())
                .unwrap_or_else(|e| panic!("{} interp run: {e}", w.kernel));
            // Each differential asserts vm/native checksum and simulated-
            // cycle equality internally; a divergence aborts the bench.
            // The chain modes are exercised separately: direct-threaded
            // chaining (the default) and the VM-dispatch ablation.
            let d = run_session_differential(&dynamic_prog, &w.setup, EngineOptions::default())
                .unwrap_or_else(|e| panic!("{} differential (chained): {e}", w.kernel));
            let u = run_session_differential(&dynamic_prog, &w.setup, ablation.clone())
                .unwrap_or_else(|e| panic!("{} differential (unchained): {e}", w.kernel));
            assert_eq!(
                d.native.outcome.checksum, u.native.outcome.checksum,
                "{}: chain modes disagree",
                w.kernel
            );
            interp_ns = interp_ns.min(interp.wall_ns);
            vm_ns = vm_ns.min(d.vm.wall_ns.min(u.vm.wall_ns));
            chained_ns = chained_ns.min(d.native.wall_ns);
            unchained_ns = unchained_ns.min(u.native.wall_ns);
            checksum = d.native.outcome.checksum;
            matches &= interp.outcome.checksum == d.native.outcome.checksum;
            chained = d.native.native;
            unchained = u.native.native;
        }
        if !matches {
            bad += 1;
            eprintln!(
                "native_comparison: {} checksum diverged between backends",
                w.kernel
            );
        }
        let per_instr = if chained.translated_instructions > 0 {
            chained.translate_ns as f64 / chained.translated_instructions as f64
        } else {
            0.0
        };
        let speedup = if chained_ns > 0 {
            vm_ns as f64 / chained_ns as f64
        } else {
            0.0
        };
        let chain_speedup = if chained_ns > 0 {
            unchained_ns as f64 / chained_ns as f64
        } else {
            0.0
        };
        println!(
            "{:<12} | {:<28} | {:>12} | {:>12} | {:>12} | {:>12} | {:>6.2}x | {:>6.2}x | {}",
            w.kernel,
            w.config,
            interp_ns,
            vm_ns,
            chained_ns,
            unchained_ns,
            speedup,
            chain_speedup,
            if matches { "ok" } else { "DRIFT" },
        );
        rows.push(Row {
            kernel: w.kernel,
            config: w.config,
            iterations: w.setup.iterations,
            checksum,
            checksums_match: matches,
            native_entries: chained.entries,
            native_chained: chained.chained,
            unchained_entries: unchained.entries,
            interp_ns,
            vm_stitched_ns: vm_ns,
            native_chained_ns: chained_ns,
            native_unchained_ns: unchained_ns,
            native_speedup_vs_vm: speedup,
            chain_speedup,
            translate_ns: chained.translate_ns,
            translated_instructions: chained.translated_instructions,
            covered_instructions: chained.covered_instructions,
            translate_ns_per_instruction: per_instr,
            native_installs: chained.installs,
            native_declined: chained.declined,
            native_bytes: chained.bytes,
            native_active: chained.active,
        });
    }

    let objects: Vec<String> = rows.iter().map(Row::json).collect();
    artifact.write_and_check(&render_json_array(&objects), Some(deterministic_keys));

    if bad > 0 {
        std::process::exit(1);
    }
}
