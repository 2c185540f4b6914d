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
//! Usage: `bench native_comparison [--smoke] [--repeat N] [--json <path>]
//! [--check <path>]`
//!
//! `--check <path>` gates the *deterministic* fields (kernel, config,
//! iterations, checksum, checksums_match, and the simulated dispatch
//! split `native_entries` / `native_chained` / `unchained_entries`) —
//! wall-clock fields are host noise and sit after the row's
//! [`Row::host`] mark. On hosts without the native backend the native
//! halves run on the VM, `native_active` is false, and the wall-clock
//! columns simply coincide; checksums still gate (the dispatch-split
//! counters are host-dependent, so `--check` is meaningful against a
//! same-host reference — CI runs the bench twice and diffs).

use crate::driver::{Args, Report};
use crate::row::{f4, Row};
use crate::table2_workloads;
use dyncomp::{run_session_differential, run_session_timed, Compiler, EngineOptions};

pub fn run(args: &Args) -> Report {
    let repeat = args.value::<u32>("--repeat", 3).max(1);
    let scale = args.scale;
    println!("Backend wall-clock comparison ({scale:?} scale, best of {repeat})");
    println!(
        "{:<12} | {:<28} | {:>12} | {:>12} | {:>12} | {:>12} | {:>7} | {:>7} | match",
        "kernel", "config", "interp ns", "vm ns", "chained ns", "unchain ns", "nat/vm", "chain x",
    );
    println!("{}", "-".repeat(128));

    let mut rows = Vec::new();
    let mut bad = 0u32;
    for w in table2_workloads(scale) {
        let static_prog = w.compile(&Compiler::static_baseline());
        let dynamic_prog = w.compile(&Compiler::new());

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
        let ratio = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
        let per_instr = ratio(chained.translate_ns, chained.translated_instructions);
        let speedup = ratio(vm_ns, chained_ns);
        let chain_speedup = ratio(unchained_ns, chained_ns);
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
        rows.push(
            Row::new()
                .field("kernel", w.kernel)
                .field("config", w.config)
                .field("iterations", w.setup.iterations)
                .field("checksum", checksum)
                .field("checksums_match", matches)
                .field("native_entries", chained.entries)
                .field("native_chained", chained.chained)
                .field("unchained_entries", unchained.entries)
                .host()
                .field("interp_ns", interp_ns)
                .field("vm_stitched_ns", vm_ns)
                .field("native_chained_ns", chained_ns)
                .field("native_unchained_ns", unchained_ns)
                .field("native_speedup_vs_vm", f4(speedup))
                .field("chain_speedup", f4(chain_speedup))
                .field("translate_ns", chained.translate_ns)
                .field("translated_instructions", chained.translated_instructions)
                .field("covered_instructions", chained.covered_instructions)
                .field("translate_ns_per_instruction", f4(per_instr))
                .field("native_installs", chained.installs)
                .field("native_declined", chained.declined)
                .field("native_bytes", chained.bytes)
                .field("native_active", chained.active),
        );
    }

    Report {
        rows,
        violations: bad,
    }
}
