//! The demand-driven-inlining evaluation: the two cross-function
//! workloads (protocol message decoder, query-compiler row filter)
//! measured with inlining off and on, against the same static baseline.
//! Writes the machine-readable `BENCH_inline.json`.
//!
//! Usage: `cargo run --release -p dyncomp-bench --bin inline_bench
//!         [--smoke] [--json <path>] [--check <path>]`
//!
//! Every workload row records the checksum of both dynamic modes — they
//! must be identical (the pass is semantics-preserving) — and the
//! dynamic cycles of both, which must show that the Table-2-style
//! speedup *requires* inlining: with the pass off the region still
//! unrolls and folds addresses, but every predicate/field evaluation
//! pays a template call plus a runtime `switch`.
//!
//! `--check <path>` compares the rendered JSON byte-for-byte against a
//! committed reference and exits non-zero on drift (all quantities are
//! simulated-deterministic); CI runs the smoke scale twice through this
//! gate.

use dyncomp::{Compiler, EngineOptions};
use dyncomp_bench::kernels::{protomsg, queryexec};
use dyncomp_bench::{json_str, render_json_array, Artifact, KernelResult};

/// Inline depth used for the "on" mode (2 covers helper-in-helper
/// nesting; both workloads converge at 1 round).
const DEPTH: u32 = 2;

struct Row {
    plain: KernelResult,
    inlined: KernelResult,
    inline_sites: usize,
}

fn mode_json(r: &KernelResult) -> String {
    let m = &r.measurement;
    format!(
        concat!(
            "{{\"dynamic_cycles\": {:.4}, \"speedup\": {:.4}, ",
            "\"setup_cycles\": {}, \"stitch_cycles\": {}, ",
            "\"instructions_stitched\": {}, \"checksum\": {}}}"
        ),
        m.dynamic_cycles,
        m.speedup,
        m.setup_cycles,
        m.stitch_cycles,
        m.instructions_stitched,
        m.checksum,
    )
}

fn row_json(r: &Row) -> String {
    let (p, i) = (&r.plain.measurement, &r.inlined.measurement);
    format!(
        concat!(
            "{{\"name\": {}, \"config\": {}, \"iterations\": {}, ",
            "\"inline_depth\": {}, \"inline_sites\": {}, ",
            "\"static_cycles\": {:.4}, ",
            "\"noinline\": {}, \"inline\": {}, ",
            "\"checksums_equal\": {}, \"inline_gain\": {:.4}}}"
        ),
        json_str(r.plain.name),
        json_str(&r.plain.config),
        p.iterations,
        DEPTH,
        r.inline_sites,
        p.static_cycles,
        mode_json(&r.plain),
        mode_json(&r.inlined),
        p.checksum == i.checksum,
        p.dynamic_cycles / i.dynamic_cycles,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Scale-dependent default so a bare `--smoke` run can't clobber the
    // committed paper-scale artifact.
    let default_json = if smoke {
        "BENCH_inline_smoke.json"
    } else {
        "BENCH_inline.json"
    };
    let artifact = Artifact::from_args("inline_bench", &args, default_json);

    let opts = EngineOptions::default;
    let on = Compiler::with_inline_depth(DEPTH);
    let fail = |e: dyncomp::Error| -> ! {
        eprintln!("inline_bench: {e}");
        std::process::exit(1);
    };
    let sites = |src: &str| {
        Compiler::with_inline_depth(DEPTH)
            .compile(src)
            .unwrap_or_else(|e| fail(e))
            .inline_sites
            .len()
    };

    // Workload sizes: smoke keeps CI debug builds fast; the default is
    // the committed paper-style configuration.
    let (pm, qe) = if smoke {
        ((8, 40), (6, 30, 5))
    } else {
        ((16, 2000), (12, 200, 50))
    };
    let rows = vec![
        Row {
            plain: protomsg::measure_with(pm.0, pm.1, opts()).unwrap_or_else(|e| fail(e)),
            inlined: protomsg::measure_full(pm.0, pm.1, &on, opts()).unwrap_or_else(|e| fail(e)),
            inline_sites: sites(protomsg::SRC),
        },
        Row {
            plain: queryexec::measure_with(qe.0, qe.1, qe.2, opts()).unwrap_or_else(|e| fail(e)),
            inlined: queryexec::measure_full(qe.0, qe.1, qe.2, &on, opts())
                .unwrap_or_else(|e| fail(e)),
            inline_sites: sites(queryexec::SRC),
        },
    ];

    println!(
        "Demand-driven inlining: speedup with the pass off vs on (depth {DEPTH}, {} scale)",
        if smoke { "smoke" } else { "paper" }
    );
    println!(
        "{:<36} | {:>14} | {:>22} | {:>22} | {:>6}",
        "Workload", "static cy", "no-inline cy (spdup)", "inline cy (spdup)", "gain"
    );
    println!("{}", "-".repeat(115));
    let mut ok = true;
    for r in &rows {
        let (p, i) = (&r.plain.measurement, &r.inlined.measurement);
        println!(
            "{:<36} | {:>14.1} | {:>14.1} ({:>4.1}x) | {:>14.1} ({:>4.1}x) | {:>5.2}x",
            r.plain.name,
            p.static_cycles,
            p.dynamic_cycles,
            p.speedup,
            i.dynamic_cycles,
            i.speedup,
            p.dynamic_cycles / i.dynamic_cycles,
        );
        if p.checksum != i.checksum {
            eprintln!("inline_bench: CHECKSUM MISMATCH on {}", r.plain.name);
            ok = false;
        }
        if i.dynamic_cycles >= p.dynamic_cycles {
            eprintln!(
                "inline_bench: {} shows no inlining win ({} vs {})",
                r.plain.name, i.dynamic_cycles, p.dynamic_cycles
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }

    let objects: Vec<String> = rows.iter().map(row_json).collect();
    artifact.write_and_check(&render_json_array(&objects), None);
}
