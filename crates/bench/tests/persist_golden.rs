//! Golden bytes of the persistent cache: the FNV-1a-64 of the files the
//! public API leaves in an empty directory, pinned as constants taken
//! before the on-disk formats were restated as `codec!` declarations
//! (PR 24). A changed constant means a persisted byte moved, which needs
//! a `FORMAT_VERSION` (or `NATIVE_CODE_VERSION`) bump, not a new constant.
//! Every constant was re-taken at format v2, when artifacts stopped
//! carrying stitch plans; the `.dyns` files differ from v1's only in the
//! header's version field.

use dyncomp::{Compiler, EngineOptions, Session};
use dyncomp_bench::lattice::{self, Comp, ScratchDir};
use dyncomp_ir::fnv::fnv1a;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The two-region program of `tests/persist_corruption.rs`.
const INSTANCE_SRC: &str = r#"
    int keyed(int k, int x) {
        dynamicRegion key(k) (k) {
            int i; int acc = 0;
            unrolled for (i = 0; i < k; i++) { acc = acc + x; }
            return acc + k * 7;
        }
    }
    int unkeyed(int x) {
        dynamicRegion (x) {
            int acc = x * 3 + 1;
            return acc * acc;
        }
    }
"#;

/// The host tag the native-section constants were taken under. Re-taken
/// at `v2`, when a native section began to record the chain mode it was
/// translated under (`Artifact::indirect`): one more byte per section,
/// and the tag itself. At a stale tag the native assertion is skipped.
const GOLDEN_HOST_TAG: &str = "x86_64-linux-v2";

const ARTIFACTS: [(&str, u64); 9] = [
    ("calculator", 0x0678_ecdb_e7d4_239d),
    ("smatmul", 0xaf90_0103_225b_9dcc),
    ("spmv", 0x3852_b0c8_acb1_5976),
    ("dispatch", 0x161d_c557_83a4_084e),
    ("sorter", 0xde66_343e_4a62_0c4c),
    ("protomsg", 0xc53b_a0ca_91e7_bb80),
    ("queryexec", 0x4763_aade_db70_727b),
    ("calculator-tiered", 0xdb97_822c_6e1a_9c0b),
    ("queryexec-inline2", 0x0169_e7a9_c492_c03b),
];

/// `(keyed r0, unkeyed r1)` without a native section.
const INSTANCES_VM: [u64; 2] = [0xb95f_b2fa_0bc5_f916, 0xcfb3_33de_8303_f97c];
/// The same two files when the session translated natively.
const INSTANCES_NATIVE: [u64; 2] = [0xf0e9_d105_000a_6483, 0xf6fd_6ea5_f063_cc6b];

/// Hashes of every file with extension `ext` under `dir`, in path order.
fn file_hashes(dir: &Path, ext: &str) -> Vec<u64> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.retain(|p| p.extension().is_some_and(|e| e == ext));
    files.sort();
    files
        .iter()
        .map(|p| fnv1a(&std::fs::read(p).expect("cache file reads")))
        .collect()
}

#[test]
fn artifact_files_match_the_pinned_hashes() {
    let mut got = Vec::new();
    for group in ["dynamic", "tiered", "inline2"] {
        let plan = lattice::plan(&format!("persist_golden::{group}"));
        for k in &plan.programs {
            let comp = plan.cells[0].comp;
            let name = match comp {
                Comp::Dynamic => k.name().to_string(),
                _ => format!("{}-{}", k.name(), comp.name()),
            };
            let dir = ScratchDir::new("persist-golden");
            let cache = dir.persistent_cache();
            let (_, cached) = cache
                .load_or_compile(&comp.compiler(), k.src())
                .expect("compiles");
            assert!(!cached);
            let hashes = file_hashes(dir.path(), "dyna");
            assert_eq!(hashes.len(), 1, "{name}: one artifact file");
            got.push((name, hashes[0]));
        }
    }
    assert_eq!(
        got,
        ARTIFACTS.map(|(n, h)| (n.to_string(), h)),
        "got {got:#x?}"
    );
}

/// One cold session over [`INSTANCE_SRC`]; the `.dyns` hashes it leaves.
fn instance_hashes(native: bool) -> Vec<u64> {
    let dir = ScratchDir::new("persist-golden");
    let cache = dir.persistent_cache();
    let (program, _) = cache
        .load_or_compile(&Compiler::new(), INSTANCE_SRC)
        .expect("compiles");
    let mut engine = Session::with_options(
        Arc::new(program),
        EngineOptions {
            persist: Some(cache),
            native,
            ..EngineOptions::default()
        },
    );
    assert_eq!(engine.call("keyed", &[3, 5]).expect("keyed runs"), 36);
    assert_eq!(engine.call("unkeyed", &[9]).expect("unkeyed runs"), 784);
    file_hashes(dir.path(), "dyns")
}

#[test]
fn instance_files_match_the_pinned_hashes() {
    let vm = instance_hashes(false);
    assert_eq!(vm, INSTANCES_VM, "got {vm:#x?}");
    if dyncomp_native::codec::host_tag() == GOLDEN_HOST_TAG {
        let native = instance_hashes(true);
        assert_eq!(native, INSTANCES_NATIVE, "got {native:#x?}");
        assert_ne!(native, vm, "a native session persists a native section");
    }
}
