//! Golden bytes of the persistent cache: the FNV-1a-64 of the files the
//! public API leaves in an empty directory, pinned as constants taken
//! before the on-disk formats were restated as `codec!` declarations
//! (PR 24). A changed constant means a persisted byte moved, which needs
//! a `FORMAT_VERSION` (or `NATIVE_CODE_VERSION`) bump, not a new constant.
//! Every constant was re-taken at format v2, when artifacts stopped
//! carrying stitch plans, at v3, when a hole stopped carrying the field
//! its instruction names (a tag byte per hole, and a float byte per
//! table-load hole), and at v4, when a block stopped carrying a list of
//! branch fixups (a count per block); at each, the `.dyns` files differ
//! from the previous version's only in the header's version field.

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
    ("calculator", 0x934f_966a_58cd_0c62),
    ("smatmul", 0x0149_3a13_804d_8015),
    ("spmv", 0x0685_3be9_76dc_3a64),
    ("dispatch", 0x13ce_b0a4_6cac_eb57),
    ("sorter", 0x6669_2ebc_9e67_85d1),
    ("protomsg", 0x5003_dba6_00ff_6694),
    ("queryexec", 0x2b3f_d36f_e77c_20aa),
    ("calculator-tiered", 0x0094_fb52_e974_61b0),
    ("queryexec-inline2", 0x5965_2458_544c_dd43),
];

/// `(keyed r0, unkeyed r1)` without a native section.
const INSTANCES_VM: [u64; 2] = [0x2fd7_4b6f_cff5_52f0, 0xcf2c_40b4_84f7_3dea];
/// The same two files when the session translated natively.
const INSTANCES_NATIVE: [u64; 2] = [0xc326_d085_e424_f775, 0x6834_bc8a_0239_8ff1];

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
