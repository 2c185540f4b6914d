//! `load_gen` — the `dynccd` server load generator.
//!
//! Drives an **in-process** [`ServerEngine`] under a [`WorkPool`] the
//! way the TCP transport does since PR 21: each of `--workers` threads
//! stands for a connection thread, and every request is
//! `pool.run(|| engine.handle(bytes))` on the thread that issues it, so
//! the numbers measure what the server does per request minus socket
//! I/O. The workload is a keyed polynomial kernel with 8 key classes:
//! sessions in one class share a stitched instance through their
//! tenant's shared code cache; classes never collide, and tenants never
//! share caches.
//!
//! Three rows, two modes:
//!
//! * `open` (1k and 10k sessions): open **all** sessions, then serve
//!   every session's call burst (the threads pull session indices from
//!   one atomic cursor), then close all — so the stated number of
//!   sessions is concurrently open. Time-to-first-result (TTFR) is
//!   measured per session from the start of its wave's serving phase to
//!   when its first call's response is rendered — the wait behind the
//!   sessions served before it included, which is the latency a tenant
//!   actually sees under that much load.
//! * `churn` (100k sessions): the same, in waves of 10k, so the row
//!   measures sustained open→serve→close throughput at a bounded
//!   resident-session count.
//!
//! Every session's close-time checksum (the server folds call results
//! with the same FNV fold `run_session` uses) is asserted bit-identical
//! to a single-session reference run on a plain [`Session`] — serving
//! through the pool must not change a single bit.
//!
//! Usage: `bench load_gen [--smoke] [--workers N] [--json PATH] [--check PATH]`
//!
//! `--check PATH` gates the deterministic fields (mode, session and
//! call counts, checksum agreement, per-class checksums) against a
//! previously written document — the CI run-twice drift gate. Wall-clock
//! fields (sessions/sec, TTFR percentiles) are host noise and sit after
//! the row's [`Row::host`] mark.

use crate::driver::{Args, Report};
use crate::row::{f1, Row, Value};
use crate::Scale;
use dyncomp::server::{escape, Json, ServerEngine, WorkPool};
use dyncomp::{Compiler, Session};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Distinct key classes (distinct run-time constants, so distinct
/// stitched instances per tenant cache).
const KEY_CLASSES: usize = 8;
/// Calls per session (the first one is the TTFR probe).
const CALLS_PER_SESSION: usize = 4;
/// Tenants the sessions are spread over.
const TENANTS: usize = 4;

// Keyed on `c`, so sessions of the same key class share one stitched
// instance through their tenant's cache while distinct classes stay
// distinct. (An unkeyed region would still be correct — unkeyed shared
// entries are validated against the consumer's set-up constants before
// installing — but each class publish would evict the previous one under
// the single empty key, defeating the cache under this access pattern.)
const KERNEL: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}";

fn class_of(session: usize) -> usize {
    session % KEY_CLASSES
}

fn call_args(class: usize, call: usize) -> (u64, u64) {
    (3 + class as u64, 10 + call as u64)
}

/// The single-session reference: one plain [`Session`] per key class,
/// running the identical call burst. Returns the per-class checksums
/// every served session must reproduce bit-identically.
fn reference_checksums(program: &Arc<dyncomp::Program>) -> Vec<u64> {
    (0..KEY_CLASSES)
        .map(|class| {
            let mut session = Session::new(Arc::clone(program));
            let mut checksum = 0u64;
            for call in 0..CALLS_PER_SESSION {
                let (c, x) = call_args(class, call);
                let r = session
                    .call("poly", &[c, x])
                    .expect("reference session runs");
                checksum = dyncomp::server::fold_checksum(checksum, r);
            }
            checksum
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let workers = args.value::<usize>("--workers", 4).max(1);
    let scale = args.scale;

    // (sessions, mode, wave size). `open` keeps every session of the row
    // concurrently open; `churn` bounds residency at the wave size.
    let scales: [(usize, &str, usize); 3] = match scale {
        Scale::Smoke => [
            (100, "open", 100),
            (300, "open", 300),
            (1_000, "churn", 200),
        ],
        Scale::Paper => [
            (1_000, "open", 1_000),
            (10_000, "open", 10_000),
            (100_000, "churn", 10_000),
        ],
    };

    let program = Arc::new(Compiler::new().compile(KERNEL).expect("kernel compiles"));
    let reference = reference_checksums(&program);

    println!(
        "dynccd load generator ({scale:?} scale): {KEY_CLASSES} key classes, \
         {CALLS_PER_SESSION} calls/session, {TENANTS} tenants, {workers} pool workers"
    );
    println!(
        "{:<6} | {:>8} | {:>12} | {:>12} | {:>12} | {:>9} | match",
        "mode", "sessions", "sessions/s", "p50 TTFR us", "p99 TTFR us", "wall ms"
    );
    println!("{}", "-".repeat(78));

    let mut report = Report::default();
    for (sessions, mode, wave) in scales {
        let m = measure(sessions, wave, workers, &reference);
        println!(
            "{mode:<6} | {sessions:>8} | {:>12.1} | {:>12.1} | {:>12.1} | {:>9.1} | {}",
            m.sessions_per_sec, m.p50_ttfr_us, m.p99_ttfr_us, m.wall_ms, m.checksums_match
        );
        if !m.checksums_match {
            report.violations += 1;
            eprintln!(
                "load_gen: {mode}/{sessions}: a served session's checksum diverged \
                 from the single-session reference"
            );
        }
        let checksums = reference.iter().map(|c| Value::from(format!("{c:016x}")));
        report.rows.push(
            Row::new()
                .field("mode", mode)
                .field("sessions", sessions)
                .field("tenants", TENANTS)
                .field("key_classes", KEY_CLASSES)
                .field("calls", sessions * CALLS_PER_SESSION)
                .field("checksums_match", m.checksums_match)
                .field("class_checksums", checksums.collect::<Vec<_>>())
                .host()
                .field("sessions_per_sec", f1(m.sessions_per_sec))
                .field("p50_ttfr_us", f1(m.p50_ttfr_us))
                .field("p99_ttfr_us", f1(m.p99_ttfr_us))
                .field("wall_ms", f1(m.wall_ms)),
        );
    }
    report
}

/// What serving one row's sessions measured.
struct Measured {
    checksums_match: bool,
    sessions_per_sec: f64,
    p50_ttfr_us: f64,
    p99_ttfr_us: f64,
    wall_ms: f64,
}

/// Run `job(i)` for every session index in `range` on `workers` scoped
/// threads pulling indices from one atomic cursor.
fn on_workers(workers: usize, range: std::ops::Range<usize>, job: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= range.end {
                    break;
                }
                job(i);
            });
        }
    });
}

/// Serve one row's worth of sessions and measure it.
fn measure(sessions: usize, wave: usize, workers: usize, reference: &[u64]) -> Measured {
    let engine = ServerEngine::new();
    let pool = WorkPool::new(workers);
    let request = |body: &str| expect_ok(&engine, &pool, body);

    // One upload, shared by every tenant and session.
    request(&format!(
        "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
        escape(KERNEL)
    ));
    // Small per-session VM memories: 10k concurrently open sessions must
    // fit on a CI host. The kernel needs well under 8 KiB of data.
    for t in 0..TENANTS {
        request(&format!(
            "{{\"op\":\"tenant\",\"tenant\":\"t{t}\",\"max_sessions\":{sessions},\
             \"memory_bytes\":8192,\"cache_shards\":4,\"cache_capacity\":16}}"
        ));
    }

    let ttfr_ns: Vec<AtomicU64> = (0..sessions).map(|_| AtomicU64::new(0)).collect();
    let mismatches = AtomicUsize::new(0);

    let start = Instant::now();
    let mut served = 0usize;
    while served < sessions {
        let batch = served..served + wave.min(sessions - served);
        // Open the whole wave first: `batch` sessions concurrently open.
        on_workers(workers, batch.clone(), |i| {
            request(&format!(
                "{{\"op\":\"open\",\"tenant\":\"t{}\",\"program\":\"poly\",\
                 \"session\":\"s{i}\"}}",
                i % TENANTS
            ));
        });
        // Serve every open session's call burst, then close it.
        let serving = Instant::now();
        on_workers(workers, batch.clone(), |i| {
            for call in 0..CALLS_PER_SESSION {
                let (c, x) = call_args(class_of(i), call);
                request(&format!(
                    "{{\"op\":\"call\",\"session\":\"s{i}\",\"func\":\"poly\",\
                     \"args\":[{c},{x}]}}"
                ));
                if call == 0 {
                    ttfr_ns[i].store(serving.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
            let closed = request(&format!("{{\"op\":\"close\",\"session\":\"s{i}\"}}"));
            let checksum = closed
                .get("checksum")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let expected = reference[class_of(i)];
            if checksum != Some(expected) && mismatches.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "load_gen: session s{i} checksum {checksum:?} != \
                     reference {expected:016x}"
                );
            }
        });
        served = batch.end;
    }
    let wall = start.elapsed();

    let mut sorted: Vec<u64> = ttfr_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx] as f64 / 1_000.0
    };
    Measured {
        checksums_match: mismatches.load(Ordering::Relaxed) == 0,
        sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
        p50_ttfr_us: pct(0.50),
        p99_ttfr_us: pct(0.99),
        wall_ms: wall.as_secs_f64() * 1_000.0,
    }
}

/// Issue one request under a pool slot, as a `dynccd` connection thread
/// does, and require an `"ok":true` response.
fn expect_ok(engine: &ServerEngine, pool: &WorkPool, request: &str) -> Json {
    let response = pool.run(|| engine.handle(request.as_bytes()));
    let v = Json::parse(&response).expect("server responses are valid JSON");
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        panic!("request failed: {request} -> {response}");
    }
    v
}
