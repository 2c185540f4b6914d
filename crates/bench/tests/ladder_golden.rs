//! Golden for the probe ladder: the FNV-1a-64 of every session's
//! `trace_jsonl()`, of its `health()` failure records (`at`, region,
//! kind, injected, message) and of its `native_report()` (every count but
//! the host-time `translate_ns` and the host-dependent `active`), over the five paper kernels in each mode the
//! ladder distinguishes and under every fault point, plus three small
//! programs for the declines no kernel provokes: stale table reads, a
//! refused relocation and a genuine stitcher error.
//!
//! The constants were taken before the ladder became a rung list, so a
//! mismatch means an event, a record or their order moved. The same
//! matrix must reach every rung and every decline of DESIGN.md § "Engine:
//! one miss path…" at least once; the evidence for each is what the rung
//! or the decline sink leaves in a trace or the health ring.

use dyncomp::{Compiler, EngineOptions, Session};
use dyncomp_bench::lattice::{self, Caches, Mode};
use dyncomp_ir::fnv::Fnv;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `(case, FNV of the traces, FNV of the failure records, FNV of the
/// native reports)`. The native column is compared only on hosts with
/// the backend.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("default", 0x10746a8c0175c9cc, 0xcbf29ce484222325, 0x64b93b7504ac92ca),
    ("shared", 0xf1853603b3cc54a0, 0xcbf29ce484222325, 0xb8a56c74b820526d),
    ("persist", 0x1938206d83759a6b, 0xcbf29ce484222325, 0xb8a56c74b820526d),
    ("tiered-speculate", 0xbf35d7910e961bae, 0xcbf29ce484222325, 0x64b93b7504ac92ca),
    ("native-chained", 0xdad3d47929835f01, 0xcbf29ce484222325, 0x9b03ba1d02a40504),
    ("capacity-1", 0x8e1bf7112a72dc0f, 0xcbf29ce484222325, 0x64b93b7504ac92ca),
    ("code-budget", 0xc10fb0044aa1ad6e, 0xcbf29ce484222325, 0x64b93b7504ac92ca),
    ("SetupVmTrap x3", 0x8a0c9186bdc55c9e, 0x00849fa0b32c1557, 0x64b93b7504ac92ca),
    ("CodeArenaExhausted x3", 0x8cfd276375a0e3a5, 0x12c986837e32d91d, 0x64b93b7504ac92ca),
    ("StitchBadTemplate", 0x24ac57b8b5be7558, 0x9c24f1bae7ba07d0, 0x64b93b7504ac92ca),
    ("CodeArenaExhausted", 0x59c1a4b587e88fb6, 0xf02fc258cd250086, 0x64b93b7504ac92ca),
    ("CodeCorruption", 0x2911979133b03013, 0x0bc424e1f0dd976e, 0x64b93b7504ac92ca),
    ("SharedCacheInstall", 0xbd7f0f2fa6560358, 0x88ac4484522cadae, 0xb8a56c74b820526d),
    ("SharedCachePoisonedShard", 0x49696eb75c89bb68, 0x84b65904d2774e4d, 0xb8a56c74b820526d),
    ("WorkerPanic", 0xf051670b5f0f816d, 0x7836bd32348cc378, 0x64b93b7504ac92ca),
    ("WorkerSlow", 0xea5d9f182490a746, 0xcbf29ce484222325, 0x64b93b7504ac92ca),
    ("SetupVmTrap", 0x41ae122f84dbb447, 0xa8ad455016befec2, 0x64b93b7504ac92ca),
    ("NativeArenaExhausted", 0x79d7884d20a553ce, 0xa3d080f339b983d6, 0x792c4af95a180456),
    ("NativeChainPatch", 0x492ce2f2fe50c0d8, 0xc0191348a898e8fc, 0x073efe4a347dd640),
    ("PersistWriteTorn", 0xc58402823beeed52, 0xb7262c181557a614, 0xb8a56c74b820526d),
    ("PersistLoadCorrupt", 0x1f0ee931195dc64b, 0xfd46d7b323bd383e, 0x60b1e9081fb257a2),
    ("PersistLockContended", 0x14debbab0c6084f4, 0x59b790ee52618e2c, 0xb8a56c74b820526d),
    ("stale-reads", 0x305bc9e5749205f8, 0x37474d2640afa577, 0x003e82573308d3cd),
    ("refused-relocation", 0xca71bc4b5f3ca3fe, 0x3742ba646223b796, 0x813baf406446c81a),
    ("runaway-unroll", 0xc34e4a97bcfccfae, 0xc102a9a87a69402b, 0x813baf406446c81a),
];

/// One case's fingerprint, folded over every session it observed, plus a
/// count of each event (`name`, `name:hit`, `name:miss`) and each failure
/// (`kind|injected|message`) for the reach check.
#[derive(Default)]
struct Cell {
    trace: Fnv,
    health: Fnv,
    native: Fnv,
    seen: BTreeMap<String, usize>,
}

impl Cell {
    fn observe(&mut self, session: &mut Session) {
        let jsonl = session.trace_jsonl().expect("every case traces");
        self.trace.bytes(jsonl.as_bytes());
        for line in jsonl.lines() {
            let event = line
                .split("\"event\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or("");
            let hit = if line.contains("\"hit\":true") {
                ":hit"
            } else if line.contains("\"hit\":false") {
                ":miss"
            } else {
                ""
            };
            *self.seen.entry(format!("{event}{hit}")).or_default() += 1;
        }
        for f in session.health().failures {
            let record = format!(
                "{}|{}|{}|{}|{}\n",
                f.at,
                f.region,
                f.kind.name(),
                f.injected,
                f.message
            );
            self.health.bytes(record.as_bytes());
            let sig = format!("{}|{}|{}", f.kind.name(), f.injected, f.message);
            *self.seen.entry(sig).or_default() += 1;
        }
        let n = session.native_report();
        let report = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}\n",
            n.enabled,
            n.installs,
            n.declined,
            n.entries,
            n.chained,
            n.bytes,
            n.translated_instructions,
            n.covered_instructions
        );
        self.native.bytes(report.as_bytes());
    }

    fn count(&self, sig: &str) -> usize {
        self.seen.get(sig).copied().unwrap_or(0)
    }

    fn any(&self, needle: &str) -> bool {
        self.seen.keys().any(|k| k.contains(needle))
    }
}

/// The golden's name for a cell of the ladder plan.
fn case_name(modes: &[Mode]) -> String {
    match modes[0] {
        Mode::Fault(point, 2) => point.name().to_string(),
        Mode::Fault(point, fires) => format!("{} x{fires}", point.name()),
        Mode::PersistWarm => "persist".to_string(),
        Mode::Tiered(..) => "tiered-speculate".to_string(),
        mode => mode.to_string(),
    }
}

/// Every session of one cell on every paper kernel, traced, observed
/// into `cell`: the prelude its mode needs, its own session and, after a
/// faulted persist session, a clean one (torn files are refused).
fn kernel_case(cell: &mut Cell, c: &lattice::Cell, plan: &lattice::Plan) {
    let modes = [&c.modes[..], &[Mode::Traced]].concat();
    for k in &plan.programs {
        let (setup, program) = (k.setup(plan.size), k.compiled(c.comp));
        let caches = lattice::sessions(&program, &setup, &modes, |run, _| {
            cell.observe(&mut run.session)
        });
        if caches.persist.is_some() && matches!(modes[0], Mode::Fault(..)) {
            let mut clean = caches.twice(&program, &setup, &[Mode::Traced]);
            cell.observe(&mut clean.session);
        }
    }
}

/// An unkeyed region whose instance bakes in a value read through its
/// constant pointer: a second session with a different value there must
/// not take the first one's instance from either cache.
fn stale_reads(cell: &mut Cell) {
    let src = "int f(int *p, int x) {
        dynamicRegion (p) { return p[0] * x + p[1]; }
    }";
    let program = Arc::new(Compiler::new().compile(src).expect("compiles"));
    let modes = [Mode::Shared, Mode::PersistCold, Mode::Traced];
    let caches = Caches::new(&modes);
    for value in [3u64, 5] {
        let mut s = Session::with_options(Arc::clone(&program), caches.options(&modes));
        let p = s.heap().alloc(16).expect("fits");
        s.heap().put_u64(p, value).expect("fits");
        s.heap().put_u64(p + 8, 7).expect("fits");
        for x in 1..=3u64 {
            assert_eq!(s.call("f", &[p, x]).expect("answers"), value * x + 7);
        }
        cell.observe(&mut s);
    }
}

/// A background instance with a linearized constants table, finished
/// while the session's data memory is full: its relocation is refused and
/// the fallback copy serves the entry.
fn refused_relocation(cell: &mut Cell) {
    let src = "int g(int k, int x) {
        dynamicRegion key(k) (k) { return x * k + k; }
    }";
    let program = Arc::new(Compiler::tiered().compile(src).expect("compiles"));
    let mut s = Session::with_options(
        program,
        EngineOptions {
            memory_bytes: 1 << 16,
            ..lattice::options(&[Mode::Tiered(1, false), Mode::Traced])
        },
    );
    let k = 0x1234_5678_9abc_u64;
    let want = |x: u64| x.wrapping_mul(k).wrapping_add(k);
    assert_eq!(s.call("g", &[k, 1]).expect("fallback answers"), want(1));
    while s.heap().alloc(4096).is_ok() {}
    while s.heap().alloc(8).is_ok() {}
    for x in 2..8u64 {
        match s.call("g", &[k, x]) {
            Ok(r) => assert_eq!(r, want(x)),
            Err(_) => break,
        }
    }
    cell.observe(&mut s);
}

/// A run-time-constant trip count past the stitcher's block budget
/// (`MAX_BLOCKS`): a genuine `StitchError`, recorded and propagated,
/// never retried.
fn runaway_unroll(cell: &mut Cell) {
    let src = "int h(int k, int x) {
        dynamicRegion key(k) (k) {
            int i; int acc = 0;
            unrolled for (i = 0; i < k; i++) { acc = acc + x; }
            return acc;
        }
    }";
    let program = Arc::new(Compiler::new().compile(src).expect("compiles"));
    let mut s = Session::with_options(program, lattice::options(&[Mode::Traced]));
    assert_eq!(s.call("h", &[3, 5]).expect("small trip count"), 15);
    let err = s
        .call("h", &[210_000, 5])
        .expect_err("runaway unroll fails");
    assert!(err.to_string().contains("unroll budget"), "{err}");
    cell.observe(&mut s);
}

fn run_matrix() -> Vec<(String, Cell)> {
    let plan = lattice::plan("ladder_golden::matrix");
    let mut matrix: Vec<(String, Cell)> = plan
        .cells
        .iter()
        .map(|c| {
            let mut cell = Cell::default();
            kernel_case(&mut cell, c, &plan);
            (case_name(&c.modes), cell)
        })
        .collect();
    let crafted = [
        ("stale-reads", stale_reads as fn(&mut Cell)),
        ("refused-relocation", refused_relocation),
        ("runaway-unroll", runaway_unroll),
    ];
    for (case, run) in crafted {
        let mut cell = Cell::default();
        run(&mut cell);
        matrix.push((case.to_string(), cell));
    }
    matrix
}

/// Where each rung and each decline leaves its mark. The names are the
/// ones DESIGN.md's two tables use (checked below).
#[allow(clippy::type_complexity)]
const REACHED: &[(&str, fn(&str, &Cell) -> bool)] = &[
    ("session", |_, c| c.count("KeyedLookup:hit") > 0),
    ("shared", |_, c| c.count("CacheInstall") > 0),
    ("persist", |_, c| c.count("PersistInstall") > 0),
    ("background", |_, c| c.count("BgInstall") > 0),
    ("setup", |_, c| c.count("SetupStart") > 0),
    ("stitch", |_, c| c.count("StitchEnd") > 0),
    ("fallback", |_, c| c.count("FallbackRun") > 0),
    ("Miss", |_, c| c.count("PersistLookup:miss") > 0),
    ("ReadsMismatch", |_, c| {
        c.any("stale: recorded table reads do not replay")
    }),
    ("PersistReject", |_, c| {
        c.any("persistent instance refused: ")
    }),
    ("Injected", |_, c| c.count("FaultInjected") > 0),
    ("Relocate", |_, c| c.any("instance failed to relocate")),
    ("Verify", |_, c| c.count("VerifyReject") > 0),
    ("Degraded", |case, c| {
        case == "code-budget" && c.count("FallbackRun") > 0
    }),
    ("Exhausted", |case, c| {
        case == "SetupVmTrap x3" && c.count("FaultInjected") > c.count("RecoveryRetry")
    }),
    ("Stitch", |_, c| c.any("stitch|false|")),
];

/// The rung names of DESIGN.md's ladder table and the decline names of
/// its decline table, each sorted.
fn design_names() -> (Vec<String>, Vec<String>) {
    let design = include_str!("../../../DESIGN.md");
    let rows = |header: &str| -> Vec<String> {
        let start = design.find(header).expect("DESIGN.md has the table");
        design[start..]
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(String::from)
            .collect()
    };
    let mut rungs: Vec<String> = rows("| entry | rungs, in walk order |")
        .iter()
        .flat_map(|row| row.split('|').nth(2).unwrap_or("").split('→'))
        .map(|r| r.trim().to_string())
        .collect();
    rungs.sort();
    rungs.dedup();
    let mut declines: Vec<String> = rows("| decline | raised by |")
        .iter()
        .map(|row| row.split('`').nth(1).unwrap_or("").to_string())
        .collect();
    declines.sort();
    (rungs, declines)
}

#[test]
fn reach_check_names_every_rung_and_decline_of_design() {
    let (rungs, declines) = design_names();
    let mut design: Vec<String> = rungs.into_iter().chain(declines).collect();
    design.sort();
    let mut checked: Vec<String> = REACHED.iter().map(|(n, _)| n.to_string()).collect();
    checked.sort();
    assert_eq!(checked, design);
}

#[test]
fn ladder_traces_and_health_match_the_golden() {
    let native = dyncomp_native::available();
    let matrix = run_matrix();
    let mut drift = Vec::new();
    for (case, cell) in &matrix {
        if case == "native-chained" && !native {
            continue; // no backend here: a different, equally valid trace
        }
        let golden = GOLDEN.iter().find(|(name, ..)| name == case);
        let mask = |n: u64| if native { n } else { 0 };
        let (t, h, n) = (
            cell.trace.finish(),
            cell.health.finish(),
            cell.native.finish(),
        );
        let want = golden.map(|&(_, t, h, n)| (t, h, mask(n)));
        if want != Some((t, h, mask(n))) {
            drift.push(format!(
                "    (\"{case}\", 0x{t:016x}, 0x{h:016x}, 0x{n:016x}),"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "traces or health records moved:\n{}",
        drift.join("\n")
    );

    for (variant, evidence) in REACHED {
        assert!(
            matrix.iter().any(|(case, cell)| evidence(case, cell)),
            "{variant} is reached by no case of the matrix"
        );
    }
}
