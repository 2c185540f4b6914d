//! The demand-driven-inlining evaluation: the two cross-function
//! workloads (protocol message decoder, query-compiler row filter)
//! measured with inlining off and on, against the same static baseline.
//! Writes the machine-readable `BENCH_inline.json`.
//!
//! Usage: `bench inline_bench [--smoke] [--json <path>] [--check <path>]`
//!
//! Every workload row records the checksum of both dynamic modes — they
//! must be identical (the pass is semantics-preserving) — and the
//! dynamic cycles of both, which must show that the Table-2-style
//! speedup *requires* inlining: with the pass off the region still
//! unrolls and folds addresses, but every predicate/field evaluation
//! pays a template call plus a runtime `switch`.
//!
//! All quantities are simulated-deterministic, so `--check` gates every
//! field; CI runs the smoke scale twice through it.

use crate::driver::{Args, Report};
use crate::kernels::{protomsg, queryexec};
use crate::row::{f4, Row};
use crate::{KernelResult, Scale, Workload};
use dyncomp::{Compiler, EngineOptions};

/// Inline depth used for the "on" mode (2 covers helper-in-helper
/// nesting; both workloads converge at 1 round).
const DEPTH: u32 = 2;

struct InlineRow {
    plain: KernelResult,
    inlined: KernelResult,
    inline_sites: usize,
}

fn mode_row(r: &KernelResult) -> Row {
    let m = &r.measurement;
    Row::new()
        .field("dynamic_cycles", f4(m.dynamic_cycles))
        .field("speedup", f4(m.speedup))
        .field("setup_cycles", m.setup_cycles)
        .field("stitch_cycles", m.stitch_cycles)
        .field("instructions_stitched", m.instructions_stitched)
        .field("checksum", m.checksum)
}

fn row(r: &InlineRow) -> Row {
    let (p, i) = (&r.plain.measurement, &r.inlined.measurement);
    Row::new()
        .field("name", r.plain.name)
        .field("config", r.plain.config.as_str())
        .field("iterations", p.iterations)
        .field("inline_depth", DEPTH)
        .field("inline_sites", r.inline_sites)
        .field("static_cycles", f4(p.static_cycles))
        .field("noinline", mode_row(&r.plain))
        .field("inline", mode_row(&r.inlined))
        .field("checksums_equal", p.checksum == i.checksum)
        .field("inline_gain", f4(p.dynamic_cycles / i.dynamic_cycles))
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    let opts = EngineOptions::default;
    let on = Compiler::with_inline_depth(DEPTH);
    let fail = |e: dyncomp::Error| -> ! {
        eprintln!("inline_bench: {e}");
        std::process::exit(1);
    };
    let sites = |src: &str| {
        on.compile(src)
            .unwrap_or_else(|e| fail(e))
            .inline_sites
            .len()
    };

    // Workload sizes: smoke keeps CI debug builds fast; the default is
    // the committed paper-style configuration.
    let (pm, qe) = match scale {
        Scale::Smoke => ((8, 40), (6, 30, 5)),
        Scale::Paper => ((16, 2000), (12, 200, 50)),
    };
    let measure = |w: Workload| InlineRow {
        plain: w
            .measure(&Compiler::new(), opts())
            .unwrap_or_else(|e| fail(e)),
        inlined: w.measure(&on, opts()).unwrap_or_else(|e| fail(e)),
        inline_sites: sites(w.setup.src),
    };
    let rows = vec![
        measure(protomsg::workload(pm.0, pm.1)),
        measure(queryexec::workload(qe.0, qe.1, qe.2)),
    ];

    println!(
        "Demand-driven inlining: speedup with the pass off vs on (depth {DEPTH}, {scale:?} scale)"
    );
    println!(
        "{:<36} | {:>14} | {:>22} | {:>22} | {:>6}",
        "Workload", "static cy", "no-inline cy (spdup)", "inline cy (spdup)", "gain"
    );
    println!("{}", "-".repeat(115));
    let mut violations = 0;
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
            violations += 1;
        }
        if i.dynamic_cycles >= p.dynamic_cycles {
            eprintln!(
                "inline_bench: {} shows no inlining win ({} vs {})",
                r.plain.name, i.dynamic_cycles, p.dynamic_cycles
            );
            violations += 1;
        }
    }
    Report {
        rows: rows.iter().map(row).collect(),
        violations,
    }
}
