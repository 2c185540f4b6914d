//! `load_gen` — the `dynccd` server load generator.
//!
//! Drives an **in-process** [`ServerEngine`] + work-stealing pool through
//! the exact request path the TCP transport uses (`handle(bytes)` on
//! JSON request bodies), so the numbers measure what the server does per
//! request minus socket I/O. The workload is a keyed polynomial kernel
//! with 8 key classes: sessions in one class share a stitched instance
//! through their tenant's shared code cache; classes never collide, and
//! tenants never share caches.
//!
//! Three rows, two modes:
//!
//! * `open` (1k and 10k sessions): open **all** sessions, then serve
//!   every session's call burst concurrently over the pool (so the
//!   stated number of sessions is concurrently open and in flight),
//!   then close all. Time-to-first-result (TTFR) is measured per
//!   session from when its call burst is enqueued to when its first
//!   call's response is rendered — queue wait included, which is the
//!   latency a tenant actually sees under that much load.
//! * `churn` (100k sessions): the same, in waves of 10k, so the row
//!   measures sustained open→serve→close throughput at a bounded
//!   resident-session count.
//!
//! Every session's close-time checksum (the server folds call results
//! with the same FNV fold `run_session` uses) is asserted bit-identical
//! to a single-session reference run on a plain [`Session`] — serving
//! through the pool must not change a single bit.
//!
//! Usage: `load_gen [--smoke] [--workers N] [--json PATH] [--check PATH]`
//!
//! `--check PATH` compares the deterministic fields (mode, session and
//! call counts, checksum agreement, per-class checksums) against a
//! previously written document — the CI run-twice drift gate. Wall-clock
//! fields (sessions/sec, TTFR percentiles) are host noise and excluded.

use dyncomp::server::{Json, ServerEngine, WorkPool};
use dyncomp::{Compiler, Session};
use dyncomp_bench::{flag_value, json_str, render_json_array, Artifact};
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

struct Row {
    mode: &'static str,
    sessions: usize,
    calls: u64,
    checksums_match: bool,
    class_checksums: Vec<u64>,
    sessions_per_sec: f64,
    p50_ttfr_us: f64,
    p99_ttfr_us: f64,
    wall_ms: f64,
}

impl Row {
    fn json(&self) -> String {
        let checksums: Vec<String> = self
            .class_checksums
            .iter()
            .map(|c| format!("\"{c:016x}\""))
            .collect();
        format!(
            concat!(
                "{{\"mode\": {}, \"sessions\": {}, \"tenants\": {}, ",
                "\"key_classes\": {}, \"calls\": {}, \"checksums_match\": {}, ",
                "\"class_checksums\": [{}], ",
                "\"sessions_per_sec\": {:.1}, \"p50_ttfr_us\": {:.1}, ",
                "\"p99_ttfr_us\": {:.1}, \"wall_ms\": {:.1}}}"
            ),
            json_str(self.mode),
            self.sessions,
            TENANTS,
            KEY_CLASSES,
            self.calls,
            self.checksums_match,
            checksums.join(", "),
            self.sessions_per_sec,
            self.p50_ttfr_us,
            self.p99_ttfr_us,
            self.wall_ms,
        )
    }
}

/// Extract each row's drift-gated prefix from a rendered document.
fn deterministic_keys(doc: &str) -> Vec<String> {
    doc.split("{\"mode\"")
        .skip(1)
        .map(|part| {
            let obj = format!("{{\"mode\"{part}");
            let end = obj
                .find(", \"sessions_per_sec\"")
                .expect("row carries the wall-clock fields");
            obj[..end].to_string()
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let workers: usize = flag_value("load_gen", &args, "--workers")
        .map_or(Ok(4), |v| v.parse())
        .unwrap_or_else(|_| {
            eprintln!("load_gen: --workers needs a positive integer");
            std::process::exit(2);
        });
    let workers = workers.max(1);
    let default_json = if smoke {
        "BENCH_server_smoke.json"
    } else {
        "BENCH_server.json"
    };
    let artifact = Artifact::from_args("load_gen", &args, default_json);

    // (sessions, mode, wave size). `open` keeps every session of the row
    // concurrently open; `churn` bounds residency at the wave size.
    let scales: Vec<(usize, &str, usize)> = if smoke {
        vec![
            (100, "open", 100),
            (300, "open", 300),
            (1_000, "churn", 200),
        ]
    } else {
        vec![
            (1_000, "open", 1_000),
            (10_000, "open", 10_000),
            (100_000, "churn", 10_000),
        ]
    };

    let program = Arc::new(Compiler::new().compile(KERNEL).expect("kernel compiles"));
    let reference = reference_checksums(&program);

    println!(
        "dynccd load generator ({} scale): {KEY_CLASSES} key classes, \
         {CALLS_PER_SESSION} calls/session, {TENANTS} tenants, {workers} pool workers",
        if smoke { "smoke" } else { "paper" }
    );
    println!(
        "{:<6} | {:>8} | {:>12} | {:>12} | {:>12} | {:>9} | match",
        "mode", "sessions", "sessions/s", "p50 TTFR us", "p99 TTFR us", "wall ms"
    );
    println!("{}", "-".repeat(78));

    let mut rows = Vec::new();
    for (sessions, mode, wave) in scales {
        let row = run_row(sessions, mode, wave, workers, &reference);
        println!(
            "{:<6} | {:>8} | {:>12.1} | {:>12.1} | {:>12.1} | {:>9.1} | {}",
            row.mode,
            row.sessions,
            row.sessions_per_sec,
            row.p50_ttfr_us,
            row.p99_ttfr_us,
            row.wall_ms,
            row.checksums_match
        );
        if !row.checksums_match {
            eprintln!(
                "load_gen: {mode}/{sessions}: a served session's checksum diverged \
                 from the single-session reference"
            );
            std::process::exit(1);
        }
        rows.push(row);
    }

    let objects: Vec<String> = rows.iter().map(Row::json).collect();
    artifact.write_and_check(&render_json_array(&objects), Some(deterministic_keys));
}

/// Serve one row's worth of sessions and measure it.
fn run_row(
    sessions: usize,
    mode: &'static str,
    wave: usize,
    workers: usize,
    reference: &[u64],
) -> Row {
    let engine = Arc::new(ServerEngine::new());
    let pool = Arc::new(WorkPool::new(workers));

    // One upload, shared by every tenant and session.
    expect_ok(
        &engine,
        &format!(
            "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
            json_str(KERNEL)
        ),
    );
    // Small per-session VM memories: 10k concurrently open sessions must
    // fit on a CI host. The kernel needs well under 8 KiB of data.
    for t in 0..TENANTS {
        expect_ok(
            &engine,
            &format!(
                "{{\"op\":\"tenant\",\"tenant\":\"t{t}\",\"max_sessions\":{sessions},\
                 \"memory_bytes\":8192,\"cache_shards\":4,\"cache_capacity\":16}}"
            ),
        );
    }

    let ttfr_ns: Arc<Vec<AtomicU64>> = Arc::new((0..sessions).map(|_| AtomicU64::new(0)).collect());
    let mismatches = Arc::new(AtomicUsize::new(0));
    let outstanding = Arc::new(AtomicUsize::new(0));

    let start = Instant::now();
    let mut served = 0usize;
    while served < sessions {
        let batch = wave.min(sessions - served);
        // Open the whole wave first: `batch` sessions concurrently open.
        for i in served..served + batch {
            let engine = Arc::clone(&engine);
            let outstanding = Arc::clone(&outstanding);
            outstanding.fetch_add(1, Ordering::SeqCst);
            pool.spawn(move || {
                expect_ok(
                    &engine,
                    &format!(
                        "{{\"op\":\"open\",\"tenant\":\"t{}\",\"program\":\"poly\",\
                         \"session\":\"s{i}\"}}",
                        i % TENANTS
                    ),
                );
                outstanding.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drain(&outstanding);
        // Serve every open session's call burst concurrently, then close.
        for i in served..served + batch {
            let engine = Arc::clone(&engine);
            let outstanding = Arc::clone(&outstanding);
            let ttfr_ns = Arc::clone(&ttfr_ns);
            let mismatches = Arc::clone(&mismatches);
            let expected = reference[class_of(i)];
            outstanding.fetch_add(1, Ordering::SeqCst);
            let enqueued = Instant::now();
            pool.spawn(move || {
                for call in 0..CALLS_PER_SESSION {
                    let (c, x) = call_args(class_of(i), call);
                    expect_ok(
                        &engine,
                        &format!(
                            "{{\"op\":\"call\",\"session\":\"s{i}\",\"func\":\"poly\",\
                             \"args\":[{c},{x}]}}"
                        ),
                    );
                    if call == 0 {
                        ttfr_ns[i].store(enqueued.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                }
                let closed = expect_ok(
                    &engine,
                    &format!("{{\"op\":\"close\",\"session\":\"s{i}\"}}"),
                );
                let checksum = closed
                    .get("checksum")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok());
                if checksum != Some(expected) && mismatches.fetch_add(1, Ordering::Relaxed) == 0 {
                    eprintln!(
                        "load_gen: session s{i} checksum {checksum:?} != \
                         reference {expected:016x}"
                    );
                }
                outstanding.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drain(&outstanding);
        served += batch;
    }
    let wall = start.elapsed();

    let mut sorted: Vec<u64> = ttfr_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx] as f64 / 1_000.0
    };
    Row {
        mode,
        sessions,
        calls: (sessions * CALLS_PER_SESSION) as u64,
        checksums_match: mismatches.load(Ordering::Relaxed) == 0,
        class_checksums: reference.to_vec(),
        sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
        p50_ttfr_us: pct(0.50),
        p99_ttfr_us: pct(0.99),
        wall_ms: wall.as_secs_f64() * 1_000.0,
    }
}

/// Issue one request and require an `"ok":true` response.
fn expect_ok(engine: &ServerEngine, request: &str) -> Json {
    let response = engine.handle(request.as_bytes());
    let v = Json::parse(&response).expect("server responses are valid JSON");
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        panic!("request failed: {request} -> {response}");
    }
    v
}

/// Spin-wait (with a sleep) until every outstanding job finished.
fn drain(outstanding: &AtomicUsize) {
    while outstanding.load(Ordering::SeqCst) != 0 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}
