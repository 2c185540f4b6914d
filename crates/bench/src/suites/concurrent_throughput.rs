//! Host-side session-throughput scaling over one shared `Arc<Program>`.
//!
//! The artifact/session split makes the compile artifact immutable and
//! `Send + Sync`; this bench measures what that buys: how many complete
//! kernel sessions per second the host sustains when 1/2/4/8 threads run
//! independent [`Session`]s over the *same* program, with no per-thread
//! recompilation. Every session is bit-identical (same checksum, same
//! simulated cycles) — the scaling is pure host wall-clock.
//!
//! A second pass repeats the ladder with the process-wide shared
//! stitched-code cache enabled, where sessions reuse each other's
//! stitched code instead of re-running set-up + stitching; a third pass
//! runs in tiered mode (statically compiled fallback + background stitch
//! jobs on virtual worker clocks), where each session additionally runs
//! its stitch jobs on forks of its machine, on its own thread.
//!
//! Usage: `bench concurrent_throughput [--smoke]`

use crate::driver::{Args, Report};
use crate::kernels::{calculator, dispatch, smatmul, sorter, spmv};
use crate::Scale;
use dyncomp::{
    run_session, Compiler, EngineOptions, KernelSetup, Program, SharedCodeCache, TieredOptions,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sessions each thread-count configuration runs in total.
const SESSIONS: usize = 24;

pub fn run(args: &Args) -> Report {
    // Not `dyncomp_bench::table2_workloads`: every size here is run as
    // SESSIONS whole sessions per thread count per pass (hundreds of
    // replicas), so the sizes sit below the Table 2 rows of the same
    // scale — the unit measured is sessions per second, not a Table 2 row.
    let workloads: Vec<(&str, KernelSetup<'static>)> = match args.scale {
        Scale::Smoke => vec![
            ("calculator", calculator::setup(40)),
            ("smatmul", smatmul::setup(8, 16, 8)),
            ("spmv", spmv::setup(12, 3, 10)),
            ("dispatch", dispatch::setup(10, 30)),
            ("sorter", sorter::setup(40, 4, 3)),
        ],
        Scale::Paper => vec![
            ("calculator", calculator::setup(400)),
            ("smatmul", smatmul::setup(32, 64, 32)),
            ("spmv", spmv::setup(64, 5, 60)),
            ("dispatch", dispatch::setup(10, 400)),
            ("sorter", sorter::setup(200, 4, 8)),
        ],
    };

    println!(
        "Session-throughput scaling: {SESSIONS} sessions per configuration, \
         one shared Arc<Program> per kernel"
    );
    println!(
        "Host parallelism: {} (speedups above this thread count are \
         scheduler-bound, not cache-bound)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, setup) in &workloads {
        let program = Arc::new(Compiler::new().compile(setup.src).expect("kernel compiles"));
        let tiered_program = Arc::new(
            Compiler::tiered()
                .compile(setup.src)
                .expect("kernel compiles tiered"),
        );
        println!("\n== {name} ==");
        for mode in [Mode::PerSession, Mode::SharedCache, Mode::Tiered] {
            let (label, prog) = match mode {
                Mode::PerSession => ("per-session cache", &program),
                Mode::SharedCache => ("shared stitched-code cache", &program),
                Mode::Tiered => ("tiered (1 bg worker, speculative)", &tiered_program),
            };
            let base = run_ladder(prog, setup, 1, mode);
            println!("  {label}:");
            println!("    1 thread : {:>8.1} sessions/s", base.sessions_per_sec);
            for threads in [2usize, 4, 8] {
                let r = run_ladder(prog, setup, threads, mode);
                assert_eq!(
                    r.checksum, base.checksum,
                    "{name}: results must not depend on thread count"
                );
                println!(
                    "    {threads} threads: {:>8.1} sessions/s ({:.2}x)",
                    r.sessions_per_sec,
                    r.sessions_per_sec / base.sessions_per_sec
                );
            }
        }
    }
    Report::default()
}

/// How each ladder configures its sessions.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    PerSession,
    SharedCache,
    Tiered,
}

struct LadderResult {
    sessions_per_sec: f64,
    /// Checksum of session 0 (all sessions are asserted identical inside
    /// the ladder in per-session mode; in shared mode results still must
    /// be identical, only cycle accounting differs).
    checksum: u64,
}

/// Run [`SESSIONS`] complete sessions over `threads` worker threads
/// pulling from a shared work counter; returns wall-clock throughput.
fn run_ladder(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    threads: usize,
    mode: Mode,
) -> LadderResult {
    let cache = (mode == Mode::SharedCache).then(|| Arc::new(SharedCodeCache::default()));
    let tiered = (mode == Mode::Tiered).then(|| TieredOptions {
        speculate: true,
        ..TieredOptions::default()
    });
    let next = AtomicUsize::new(0);
    let checksums: Vec<std::sync::Mutex<Option<u64>>> =
        (0..SESSIONS).map(|_| std::sync::Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= SESSIONS {
                    break;
                }
                let options = EngineOptions {
                    shared_cache: cache.clone(),
                    tiered: tiered.clone(),
                    ..EngineOptions::default()
                };
                let outcome = run_session(program, setup, options).expect("session runs");
                *checksums[i].lock().unwrap() = Some(outcome.checksum);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let first = checksums[0].lock().unwrap().expect("session 0 ran");
    for (i, c) in checksums.iter().enumerate() {
        assert_eq!(
            c.lock().unwrap().expect("session ran"),
            first,
            "session {i} produced a different result"
        );
    }
    LadderResult {
        sessions_per_sec: SESSIONS as f64 / elapsed,
        checksum: first,
    }
}
