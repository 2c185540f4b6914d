//! Cross-process warm start: a second OS process pointed at the same
//! persist directory must produce bit-identical results, skip set-up
//! and the stitcher entirely for keyed regions, and — with the cache
//! absent — cost exactly the same simulated cycles as a no-persist run
//! (probes and stores are free in the cost model).
//!
//! The parent test re-executes its own test binary
//! (`std::env::current_exe()`) to get genuinely separate processes;
//! the child test is gated on an environment variable and writes its
//! measurements to a results file.

use dyncomp::fold_checksum;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

const SRC: &str = r#"
    int keyed(int k, int x) {
        dynamicRegion key(k) (k) {
            int i; int acc = 0;
            unrolled for (i = 0; i < k; i++) { acc = acc + x; }
            return acc + k * 7;
        }
    }
"#;

const MODE_ENV: &str = "DYNCOMP_PERSIST_WARMSTART_MODE";
const DIR_ENV: &str = "DYNCOMP_PERSIST_WARMSTART_DIR";
const OUT_ENV: &str = "DYNCOMP_PERSIST_WARMSTART_OUT";

/// One child-process measurement, serialized as `key=value` lines.
#[derive(Debug, PartialEq, Eq)]
struct Measurement {
    checksum: u64,
    cycles: u64,
    setup_cycles: u64,
    stitch_cycles: u64,
    stitches: u64,
    persist_hits: u64,
    persist_rejects: u64,
    artifact_cached: bool,
}

impl Measurement {
    fn render(&self) -> String {
        format!(
            "checksum={}\ncycles={}\nsetup_cycles={}\nstitch_cycles={}\n\
             stitches={}\npersist_hits={}\npersist_rejects={}\nartifact_cached={}\n",
            self.checksum,
            self.cycles,
            self.setup_cycles,
            self.stitch_cycles,
            self.stitches,
            self.persist_hits,
            self.persist_rejects,
            self.artifact_cached,
        )
    }

    fn parse(text: &str) -> Measurement {
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("child output is missing `{name}`: {text:?}"))
                .parse()
                .unwrap_or_else(|_| panic!("child output field `{name}` is not numeric"))
        };
        Measurement {
            checksum: field("checksum"),
            cycles: field("cycles"),
            setup_cycles: field("setup_cycles"),
            stitch_cycles: field("stitch_cycles"),
            stitches: field("stitches"),
            persist_hits: field("persist_hits"),
            persist_rejects: field("persist_rejects"),
            artifact_cached: text.contains("artifact_cached=true"),
        }
    }
}

/// The workload run inside each child process. `persist_dir` is `None`
/// for the no-persist baseline.
fn measure(persist_dir: Option<&Path>) -> Measurement {
    use dyncomp::{Compiler, Engine, EngineOptions, PersistentCache};
    let compiler = Compiler::new();
    let cache =
        persist_dir.map(|dir| Arc::new(PersistentCache::open(dir).expect("child opens the cache")));
    let (program, artifact_cached) = match &cache {
        Some(c) => c
            .load_or_compile(&compiler, SRC)
            .expect("child compiles through the cache"),
        None => (compiler.compile(SRC).expect("child compiles"), false),
    };
    let program = Arc::new(program);
    let mut engine = Engine::with_options(
        &program,
        EngineOptions {
            persist: cache.clone(),
            ..EngineOptions::default()
        },
    );
    let mut checksum = 0u64;
    for k in 1..=5u64 {
        for x in [2u64, 9] {
            let r = engine.call("keyed", &[k, x]).expect("keyed call runs");
            checksum = fold_checksum(checksum, r);
        }
    }
    let mut setup_cycles = 0;
    let mut stitch_cycles = 0;
    let mut stitches = 0;
    let mut persist_hits = 0;
    let mut persist_rejects = 0;
    for i in 0..program.region_count() {
        let r = engine.region_report(i);
        setup_cycles += r.setup_cycles;
        stitch_cycles += r.stitch_cycles;
        stitches += u64::from(r.stitches);
        persist_hits += r.persist_hits;
        persist_rejects += r.persist_rejects;
    }
    Measurement {
        checksum,
        cycles: engine.cycles(),
        setup_cycles,
        stitch_cycles,
        stitches,
        persist_hits,
        persist_rejects,
        artifact_cached,
    }
}

/// The child half: runs only when spawned by the parent test below
/// (gated on [`MODE_ENV`]), measures the workload, writes the results
/// file and exits.
#[test]
fn child_persist_session() {
    let Ok(mode) = std::env::var(MODE_ENV) else {
        return; // not a child invocation: nothing to do
    };
    let out = std::env::var(OUT_ENV).expect("child needs the output path");
    let m = match mode.as_str() {
        "baseline" => measure(None),
        "persist" => {
            let dir = std::env::var(DIR_ENV).expect("child needs the cache directory");
            measure(Some(Path::new(&dir)))
        }
        other => panic!("unknown child mode `{other}`"),
    };
    std::fs::write(&out, m.render()).expect("child writes its measurement");
}

/// Spawn this test binary again as a true child process running
/// [`child_persist_session`] in `mode`, and parse its measurement.
fn spawn_child(mode: &str, cache_dir: &Path, out: &Path) -> Measurement {
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(exe)
        .args(["child_persist_session", "--exact", "--nocapture"])
        .env(MODE_ENV, mode)
        .env(DIR_ENV, cache_dir)
        .env(OUT_ENV, out)
        .status()
        .expect("child process spawns");
    assert!(status.success(), "child process ({mode}) failed: {status}");
    let text = std::fs::read_to_string(out).expect("child wrote its measurement");
    Measurement::parse(&text)
}

#[test]
fn warm_start_is_bit_identical_and_skips_compilation_across_processes() {
    let root = std::env::temp_dir().join(format!("dyncomp-warmstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch root");
    let cache_dir = root.join("cache");

    let baseline = spawn_child("baseline", &cache_dir, &root.join("baseline.txt"));
    let cold = spawn_child("persist", &cache_dir, &root.join("cold.txt"));
    let warm = spawn_child("persist", &cache_dir, &root.join("warm.txt"));

    // Cold with an empty cache is bit-identical to no cache at all:
    // probes and stores are free in the simulated cost model.
    assert_eq!(cold.checksum, baseline.checksum);
    assert_eq!(cold.cycles, baseline.cycles, "persist probes must be free");
    assert!(!cold.artifact_cached);
    assert_eq!(cold.persist_hits, 0);

    // Warm (a separate OS process): same results, artifact loaded
    // without the front end, and every keyed instance reloaded without
    // running set-up or the stitcher.
    assert_eq!(warm.checksum, baseline.checksum);
    assert!(warm.artifact_cached, "warm process must reuse the artifact");
    assert_eq!(warm.stitches, 0, "warm process must not stitch");
    assert_eq!(warm.setup_cycles, 0, "keyed warm hits skip set-up");
    assert_eq!(warm.stitch_cycles, 0, "keyed warm hits skip the stitcher");
    assert!(warm.persist_hits > 0);
    assert_eq!(warm.persist_rejects, 0);
    assert!(
        warm.cycles < cold.cycles,
        "warm start must be cheaper: {} vs {}",
        warm.cycles,
        cold.cycles
    );

    let _ = std::fs::remove_dir_all(&root);
}
