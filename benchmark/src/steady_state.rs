//! Workload `steady-state`: warm calls on long-lived sessions.
//!
//! One operation is one timed batch of warm calls (a fixed count per kernel,
//! chosen so a batch takes a few milliseconds) on a session whose stitched
//! code is already installed. The rotation is the 7 kernels at Table 2 scale
//! x 3 modes: `static` (the baseline program on the VM), `vm` (stitched code
//! on the VM) and `native` (stitched code through the chained native
//! backend). `machine::vm` and `native` execution do all the work; compile
//! and stitch do none.
//!
//! `sorter` lives on chained native-to-native transfers; `calculator` and
//! `dispatch` enter native code once per call; `smatmul` rotates four
//! already-stitched scalars, so every call takes the keyed-hit path through
//! the trap. `protomsg` and `queryexec` run their inline-depth-2 artifacts in
//! the two dynamic modes, as in `cold-start`.

use crate::harness::{
    end_to_end, fold, out_dir, repeat_setup, round_rate, rounds, vm_hwm_mib, CaseSamples, RunArgs,
};
use crate::inputs::{sub_seeds, KernelCase, Sizes};
use crate::metrics::{Outcome, Tally, KERNELS, STEADY_MODES};
use crate::stats::{gmean, median, Fnv64};
use crate::trace::{write_chrome, Tracer};
use dyncomp::{Compiler, EngineOptions, NativeReport, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table 2 sizes.
const STEADY_SIZES: Sizes = Sizes {
    calls: 64,
    spmv: (96, 5),
    smatmul: (100 * 800, 4),
    sorter_records: 500,
    query_rows: 200,
};

/// Warm calls per batch, by mode ([`STEADY_MODES`] order) and kernel
/// ([`KERNELS`] order): a batch takes roughly 3 ms on the machine the
/// benchmark was written on, except where one call is already longer.
/// Fixed, not calibrated at run time, so per-batch counts repeat exactly.
/// smatmul batches are whole rotations of its four scalars.
const CALLS_PER_BATCH: [[usize; 7]; 3] = [
    [512, 4, 24, 1024, 1, 512, 8],
    [2048, 4, 96, 2048, 1, 2048, 24],
    [8192, 4, 512, 8192, 8, 8192, 384],
];

/// Instructions a session may run between two fuel top-ups: the VM's own
/// per-session allowance, restored before every batch so that a long window
/// cannot exhaust a long-lived session.
const FUEL: u64 = 2_000_000_000;

struct Cell {
    session: Session,
    func: &'static str,
    args: Vec<Vec<u64>>,
    calls: usize,
    /// Fold of the host-expected results of one batch, in call order.
    expected: u64,
    /// Wall time of the first (cold) pass over the distinct calls.
    cold_ns: f64,
}

pub struct Ctx {
    /// Mode-major: `cells[mode * 7 + kernel]`.
    cells: Vec<Cell>,
    inputs_fnv: u64,
    tally: Tally,
}

fn cell_names() -> Vec<String> {
    STEADY_MODES
        .iter()
        .flat_map(|m| KERNELS.iter().map(move |k| format!("{m}.{k}")))
        .collect()
}

/// One batch: `calls` warm calls cycling over the distinct argument tuples.
/// Returns wall time, simulated cycles and whether the folded results equal
/// the host reference.
fn batch(cell: &mut Cell) -> (Duration, u64, bool) {
    cell.session.vm.fuel = FUEL;
    let cycles = cell.session.cycles();
    let n = cell.args.len();
    let mut checksum = 0u64;
    let mut ok = true;
    let t0 = Instant::now();
    for j in 0..cell.calls {
        match cell.session.call(cell.func, &cell.args[j % n]) {
            Ok(r) => checksum = fold(checksum, r),
            Err(_) => ok = false,
        }
    }
    let dt = t0.elapsed();
    (
        dt,
        cell.session.cycles() - cycles,
        ok && checksum == cell.expected,
    )
}

fn setup(seed: u64, smoke: bool) -> Ctx {
    let mut fnv = Fnv64::default();
    let seeds = sub_seeds(seed, KERNELS.len());
    let kernels: Vec<KernelCase> = KERNELS
        .iter()
        .zip(&seeds)
        .map(|(&k, &s)| KernelCase::generate(k, &STEADY_SIZES, s, &mut fnv))
        .collect();
    let compile = |c: Compiler, k: &KernelCase| {
        Arc::new(
            c.compile(k.src)
                .expect("kernel sources compile (checked by the compile workload)"),
        )
    };
    let mut ctx = Ctx {
        cells: Vec::new(),
        inputs_fnv: fnv.finish(),
        tally: Tally::default(),
    };
    let statics: Vec<_> = kernels
        .iter()
        .map(|k| compile(Compiler::static_baseline(), k))
        .collect();
    let dynamics: Vec<_> = kernels
        .iter()
        .map(|k| {
            let inline = matches!(k.kernel, "protomsg" | "queryexec");
            compile(
                if inline {
                    Compiler::with_inline_depth(2)
                } else {
                    Compiler::new()
                },
                k,
            )
        })
        .collect();
    for (m, mode) in STEADY_MODES.into_iter().enumerate() {
        for (k, kernel) in kernels.iter().enumerate() {
            let program = Arc::clone(if mode == "static" {
                &statics[k]
            } else {
                &dynamics[k]
            });
            let options = EngineOptions {
                native: mode == "native",
                ..EngineOptions::default()
            };
            let mut session = Session::with_options(program, options);
            let args = kernel.prepare(&mut session);
            // The cold pass: every distinct call once, each result checked
            // (for smatmul, the whole product in memory as well).
            let t0 = Instant::now();
            let mut ok = true;
            for (a, &want) in args.iter().zip(&kernel.expected) {
                ok &= matches!(session.call(kernel.func, a), Ok(got) if got == want);
            }
            let cold_ns = t0.elapsed().as_nanos() as f64;
            ok &= args
                .last()
                .is_none_or(|a| kernel.memory_matches(&mut session, a));
            // Smoke batches are an eighth as long, but still cover every
            // distinct call once.
            let calls = if smoke {
                (CALLS_PER_BATCH[m][k] / 8).max(args.len())
            } else {
                CALLS_PER_BATCH[m][k]
            };
            let expected = (0..calls).fold(0u64, |c, j| fold(c, kernel.expected[j % args.len()]));
            let mut cell = Cell {
                session,
                func: kernel.func,
                args,
                calls,
                expected,
                cold_ns,
            };
            // One warm-up batch: lets the native backend's install
            // heuristics settle before anything is timed.
            ok &= batch(&mut cell).2;
            ctx.tally.record(ok);
            ctx.cells.push(cell);
        }
    }
    ctx
}

/// Round-robin over the 21 cells until `seconds` have passed; returns the
/// wall time of every round.
fn rotate(
    ctx: &mut Ctx,
    seconds: f64,
    mut op: impl FnMut(u64, usize, &mut Cell) -> bool,
) -> Vec<f64> {
    rounds(seconds, |round| {
        for (i, cell) in ctx.cells.iter_mut().enumerate() {
            ctx.tally.record(op(round, i, cell));
        }
    })
}

pub fn run(args: &RunArgs) -> Outcome {
    let (mut contexts, setup_s) =
        repeat_setup(args.setup_repeats(), true, || setup(args.seed, args.smoke));
    let mut ctx = contexts.pop().expect("at least one set-up ran");
    let mut out = Outcome {
        inputs_fnv: ctx.inputs_fnv,
        ..Outcome::default()
    };
    if !args.trace {
        let mut samples = CaseSamples::new(cell_names());
        let walls = rotate(&mut ctx, args.seconds, |_, i, cell| {
            let (dt, _, ok) = batch(cell);
            samples.push(i, dt.as_secs_f64() * 1e6);
            ok
        });
        let rate = round_rate(ctx.cells.len(), &walls);
        end_to_end(&mut out, setup_s, rate, &samples, vm_hwm_mib(None));
    } else {
        traced(&mut ctx, args, &mut out);
    }
    out.tally = ctx.tally;
    out
}

/// Native dispatch counts of one batch.
fn dispatch_delta(before: &NativeReport, after: &NativeReport) -> (u64, u64) {
    (
        after.entries - before.entries,
        after.chained - before.chained,
    )
}

fn traced(ctx: &mut Ctx, args: &RunArgs, out: &mut Outcome) {
    let n = ctx.cells.len();
    let nk = KERNELS.len();
    let mut whole = CaseSamples::new(cell_names());
    let mut traced = CaseSamples::new(cell_names());
    let mut tr = Tracer::new(Instant::now());
    let mut cycles: Vec<Option<u64>> = vec![None; n];
    let mut dispatch: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut counts_repeat = true;
    rotate(ctx, args.seconds, |round, i, cell| {
        if round % 2 == 0 {
            let (dt, _, ok) = batch(cell);
            whole.push(i, dt.as_secs_f64() * 1e6);
            return ok;
        }
        tr.next_op(Some(i));
        let before = cell.session.native_report();
        let span = tr.begin(match i / nk {
            0 => "machine.vm.static",
            1 => "machine.vm.stitched",
            _ => "native.run",
        });
        let (dt, cyc, ok) = batch(cell);
        tr.end(span);
        let d = dispatch_delta(&before, &cell.session.native_report());
        counts_repeat &= *cycles[i].get_or_insert(cyc) == cyc;
        counts_repeat &= *dispatch[i].get_or_insert(d) == d;
        traced.push(i, dt.as_secs_f64() * 1e6);
        ok
    });
    if !counts_repeat {
        eprintln!("steady-state: an exact count changed between batches");
    }
    ctx.tally.record(counts_repeat);

    let us = whole.medians();
    let per_call: Vec<f64> = (0..n)
        .map(|i| us[i] * 1e3 / ctx.cells[i].calls as f64)
        .collect();
    let kcycles: Vec<f64> = cycles.iter().map(|c| c.unwrap_or(0) as f64 / 1e3).collect();
    for (m, mode) in STEADY_MODES.iter().enumerate() {
        let cells = m * nk..(m + 1) * nk;
        out.set(
            format!("steady_ns_per_call.{mode}"),
            gmean(&per_call[cells.clone()]),
        );
        for (k, kernel) in KERNELS.iter().enumerate() {
            out.set(
                format!("steady_ns_per_call.{mode}.{kernel}"),
                per_call[m * nk + k],
            );
        }
        let ns: f64 = us[cells.clone()].iter().map(|u| u * 1e3).sum();
        let kc: f64 = kcycles[cells].iter().sum();
        out.set(
            match m {
                0 => "machine.vm_ns_per_kcycle.static",
                1 => "machine.vm_ns_per_kcycle.stitched",
                _ => "native.ns_per_kcycle",
            },
            if kc > 0.0 { ns / kc } else { 0.0 },
        );
    }
    let native = 2 * nk..3 * nk;
    let entries: u64 = dispatch[native.clone()].iter().flatten().map(|d| d.0).sum();
    let chained: u64 = dispatch[native.clone()].iter().flatten().map(|d| d.1).sum();
    let declined: u64 = ctx.cells[native]
        .iter()
        .map(|c| c.session.native_report().declined)
        .sum();
    out.set("native.entries", entries as f64);
    out.set("native.chained", chained as f64);
    out.set("native.declined", declined as f64);
    out.set(
        "trace_overhead_pct.steady-state",
        (gmean(&traced.medians()) / gmean(&us) - 1.0) * 100.0,
    );

    // Host ratios beside their simulated-cycle twins (Table 2's quantities),
    // per kernel. Not gated: each moves whenever either operand moves.
    let cycles_per_call: Vec<f64> = (0..n)
        .map(|i| kcycles[i] * 1e3 / ctx.cells[i].calls as f64)
        .collect();
    // Calls after which the dynamic version has paid for its one-time cost;
    // -1 when it never does on that clock.
    let breakeven = |overhead: f64, gain: f64| {
        if gain > 0.0 {
            overhead.max(0.0) / gain
        } else {
            -1.0
        }
    };
    for (k, kernel) in KERNELS.iter().enumerate() {
        let (st, vm, nat) = (per_call[k], per_call[nk + k], per_call[2 * nk + k]);
        let (st_cyc, dyn_cyc) = (cycles_per_call[k], cycles_per_call[nk + k]);
        out.derive(format!("host_speedup.vm.{kernel}"), st / vm, "ratio");
        out.derive(format!("host_speedup.native.{kernel}"), st / nat, "ratio");
        out.derive(format!("sim_speedup.{kernel}"), st_cyc / dyn_cyc, "ratio");
        // Host: (cold pass - the same calls warm) / (static - warm).
        // Simulated: (set-up + stitch cycles) / (static - dynamic cycles).
        let cell = &ctx.cells[nk + k];
        let overhead_ns = cell.cold_ns - cell.args.len() as f64 * vm;
        let s = &cell.session;
        let overhead_cyc: u64 = (0..s.program().region_count())
            .map(|r| s.region_report(r))
            .map(|r| r.setup_cycles + r.stitch_cycles)
            .sum();
        out.derive(
            format!("host_breakeven_calls.{kernel}"),
            breakeven(overhead_ns, st - vm),
            "calls",
        );
        out.derive(
            format!("sim_breakeven_calls.{kernel}"),
            breakeven(overhead_cyc as f64, st_cyc - dyn_cyc),
            "calls",
        );
    }
    out.derive(
        "cold_pass_ns.median_over_cells",
        median(&ctx.cells.iter().map(|c| c.cold_ns).collect::<Vec<_>>()),
        "ns",
    );
    if let Err(e) = write_chrome(&out_dir().join("trace-steady-state.json"), &[&tr.spans]) {
        eprintln!("steady-state: cannot write the trace file: {e}");
    }
}
