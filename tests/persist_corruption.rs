//! Seeded corruption fuzz over the persistent on-disk cache: every
//! mutated file must degrade to recompilation with a typed health or
//! incident entry — never a panic, never a wrong result — and the
//! reject path must heal the cache (recompile-and-overwrite) so the
//! next warm run is reject-free.
//!
//! The fuzzer populates a cache directory from a cold run, snapshots
//! every file, then repeatedly (from a seeded [`SplitMix64`]) restores
//! the pristine snapshot and applies one mutation — a bit flip, a
//! truncation, or a header transplanted from another cache file — and
//! replays the workload in a fresh session against a reopened cache.
//!
//! A second walk re-seals what it mutates: one payload byte changes and
//! the header's length and checksum are recomputed, so the file verifies
//! and only the decoder (layout, then cross-references) stands between
//! the mutation and the engine. There the oracle is weaker — a re-sealed
//! word that still decodes is outside what any load-time check can see —
//! but it never includes a panic.

use dyncomp::{fold_checksum, Compiler, EngineOptions, PersistentCache, Session};
use dyncomp_codegen::CompiledModule;
use dyncomp_ir::prng::SplitMix64;
use dyncomp_machine::codec::{Codec, Reader, Writer};
use dyncomp_machine::isa::{encode, walk, Format, Inst, Op, Operand, LIN, ZERO};
use dyncomp_machine::template::Template;
use dyncomp_native::translate::GuardArea;
use dyncomp_native::Artifact;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SRC: &str = r#"
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

/// On-disk file format header length (magic + version + kind +
/// payload length + checksum) — kept in sync with `persist::format`.
const HEADER_LEN: usize = 25;

struct Outcome {
    checksum: u64,
    artifact_rejects: u64,
    instance_rejects: u64,
    /// Each incident's reason.
    incidents: Vec<String>,
    /// Uninjected `persist` entries in the engine health report.
    health_persist_entries: usize,
}

/// Compile (through the cache) and run the workload in a fresh session
/// against a freshly opened cache on `root`.
fn run_once(root: &Path) -> Outcome {
    run_with(root, false)
}

/// [`run_once`], on the native backend when `native` is set (its
/// instances then carry their native sections to disk).
fn run_with(root: &Path, native: bool) -> Outcome {
    let cache = Arc::new(PersistentCache::open(root).expect("cache opens"));
    let compiler = Compiler::new();
    let (program, _cached) = cache
        .load_or_compile(&compiler, SRC)
        .expect("source compiles");
    let program = Arc::new(program);
    let mut engine = Session::with_options(
        program,
        EngineOptions {
            persist: Some(Arc::clone(&cache)),
            native,
            ..EngineOptions::default()
        },
    );
    let mut checksum = 0u64;
    let mut fold = |r: u64| checksum = fold_checksum(checksum, r);
    for k in 1..=4u64 {
        for x in [3u64, 5] {
            fold(engine.call("keyed", &[k, x]).expect("keyed call survives"));
        }
    }
    for _ in 0..3 {
        fold(engine.call("unkeyed", &[9]).expect("unkeyed call survives"));
    }
    let stats = cache.stats();
    let health = engine.health();
    Outcome {
        checksum,
        artifact_rejects: stats.artifact_rejects,
        instance_rejects: stats.instance_rejects,
        incidents: cache.incidents().into_iter().map(|i| i.reason).collect(),
        health_persist_entries: health
            .failures
            .iter()
            .filter(|f| f.kind.name() == "persist" && !f.injected)
            .count(),
    }
}

/// Every regular file under the cache root, sorted for determinism.
fn cache_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

#[test]
fn every_mutation_degrades_to_recompilation_with_typed_entries() {
    let root = std::env::temp_dir().join(format!("dyncomp-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Cold run: populates the cache and fixes the reference checksum.
    let cold = run_once(&root);
    assert_eq!(cold.artifact_rejects + cold.instance_rejects, 0);

    let files = cache_files(&root);
    let pristine: Vec<(PathBuf, Vec<u8>)> = files
        .iter()
        .map(|p| (p.clone(), std::fs::read(p).expect("snapshot cache file")))
        .collect();
    assert!(
        pristine.len() >= 3,
        "expected an artifact and several instances, got {} file(s)",
        pristine.len()
    );

    let mut rng = SplitMix64::new(0x5eed_cafe_f00d_0001);
    for round in 0..24 {
        // Restore the pristine snapshot, then apply one mutation.
        for (path, bytes) in &pristine {
            std::fs::write(path, bytes).expect("restore pristine file");
        }
        let victim = rng.next_u64() as usize % pristine.len();
        let (path, bytes) = &pristine[victim];
        let mut mutated = bytes.clone();
        let what = match rng.next_u64() % 3 {
            0 => {
                let at = rng.next_u64() as usize % mutated.len();
                mutated[at] ^= 1 << (rng.next_u64() % 8);
                "bit flip"
            }
            1 => {
                mutated.truncate(rng.next_u64() as usize % mutated.len());
                "truncation"
            }
            _ => {
                // Transplant another file's header (or scramble the
                // magic when the donated header would be identical).
                let donor = &pristine[rng.next_u64() as usize % pristine.len()].1;
                let head = HEADER_LEN.min(donor.len()).min(mutated.len());
                mutated[..head].copy_from_slice(&donor[..head]);
                if mutated == *bytes {
                    mutated[0] ^= 0xFF;
                }
                "header swap"
            }
        };
        std::fs::write(path, &mutated).expect("write mutated file");

        let outcome = run_once(&root);
        assert_eq!(
            outcome.checksum,
            cold.checksum,
            "round {round} ({what} on {}): corruption changed a result",
            path.display()
        );
        let rejects = outcome.artifact_rejects + outcome.instance_rejects;
        assert!(
            rejects >= 1 && !outcome.incidents.is_empty(),
            "round {round} ({what} on {}): corruption went undetected",
            path.display()
        );
        if path.starts_with(root.join("stitched")) {
            assert!(
                outcome.health_persist_entries >= 1,
                "round {round} ({what} on {}): no typed `persist` health entry",
                path.display()
            );
        } else {
            assert!(
                outcome.artifact_rejects >= 1,
                "round {round} ({what} on {}): artifact corruption not rejected",
                path.display()
            );
        }

        // The reject path removed the corrupt file and the run re-stored
        // it: the cache must be healed — the next warm run is clean.
        let healed = run_once(&root);
        assert_eq!(healed.checksum, cold.checksum);
        assert_eq!(
            healed.artifact_rejects + healed.instance_rejects,
            0,
            "round {round} ({what} on {}): cache did not heal after the reject",
            path.display()
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// Frame `payload` the way `persist::format` documents it: `file`'s
/// magic, version and kind, then the payload's length and FNV-1a-64.
fn reseal(file: &[u8], payload: &[u8]) -> Vec<u8> {
    let fnv = dyncomp_ir::fnv::fnv1a(payload);
    let mut out = file[..9].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What one tolerant replay saw: every call's result (a typed error is
/// an acceptable outcome for a file that verifies but lies) and the
/// cache's reject counters.
struct Replay {
    checksum: Option<u64>,
    artifact_rejects: u64,
    instance_rejects: u64,
}

/// [`run_once`] without the `expect`s, on a short fuel leash: a mutated
/// branch may loop, and must run out of fuel rather than out of patience.
fn replay(root: &Path) -> Replay {
    let cache = Arc::new(PersistentCache::open(root).expect("cache opens"));
    let (program, _cached) = cache
        .load_or_compile(&Compiler::new(), SRC)
        .expect("source compiles");
    let mut engine = Session::with_options(
        Arc::new(program),
        EngineOptions {
            persist: Some(Arc::clone(&cache)),
            ..EngineOptions::default()
        },
    );
    let mut calls: Vec<(&str, Vec<u64>)> = Vec::new();
    for k in 1..=4u64 {
        for x in [3u64, 5] {
            calls.push(("keyed", vec![k, x]));
        }
    }
    calls.extend((0..3).map(|_| ("unkeyed", vec![9])));
    let mut checksum = Some(0u64);
    for (func, args) in calls {
        engine.vm.fuel = 1_000_000;
        checksum = match (checksum, engine.call(func, &args)) {
            (Some(c), Ok(r)) => Some(fold_checksum(c, r)),
            _ => None,
        };
    }
    let stats = cache.stats();
    Replay {
        checksum,
        artifact_rejects: stats.artifact_rejects,
        instance_rejects: stats.instance_rejects,
    }
}

#[test]
fn resealed_mutations_never_panic_and_never_poison_the_cache() {
    let root = std::env::temp_dir().join(format!("dyncomp-reseal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_once(&root);
    let pristine: Vec<(PathBuf, Vec<u8>)> = cache_files(&root)
        .into_iter()
        .map(|p| (p.clone(), std::fs::read(&p).expect("snapshot cache file")))
        .collect();
    let artifact = pristine
        .iter()
        .position(|(p, _)| p.extension().is_some_and(|e| e == "dyna"))
        .expect("the cold run stored an artifact");
    let restore = || {
        for path in cache_files(&root) {
            std::fs::remove_file(path).expect("clear cache file");
        }
        for (path, bytes) in &pristine {
            std::fs::write(path, bytes).expect("restore pristine file");
        }
    };

    // Fixed cases first: the static `EnterRegion` of each region, its
    // operand (the low bits of a little-endian code word) rewritten past
    // the region table. The payload is the artifact hash, then the code
    // words behind their `u32` count.
    let program = Compiler::new().compile(SRC).expect("source compiles");
    let mut mutations: Vec<(usize, usize, u8)> = (0..program.region_count())
        .map(|r| program.compiled.regions[r].enter_pc as usize)
        .map(|pc| (artifact, 8 + 4 + 4 * pc, 0x80))
        .collect();
    // Then seeded ones, uniform over every payload byte in the directory.
    let payload_bytes: usize = pristine.iter().map(|(_, b)| b.len() - HEADER_LEN).sum();
    let mut rng = SplitMix64::new(0x5eed_cafe_f00d_0002);
    while mutations.len() < 600 {
        let mut at = rng.next_u64() as usize % payload_bytes;
        let mut victim = 0;
        while at >= pristine[victim].1.len() - HEADER_LEN {
            at -= pristine[victim].1.len() - HEADER_LEN;
            victim += 1;
        }
        mutations.push((victim, at, [0x01, 0x80, 0xFF][rng.next_u64() as usize % 3]));
    }

    for (round, &(victim, at, xor)) in mutations.iter().enumerate() {
        restore();
        let (path, bytes) = &pristine[victim];
        let what = format!(
            "round {round}: payload byte {at} ^ {xor:#04x} of {}",
            path.display()
        );
        let mut payload = bytes[HEADER_LEN..].to_vec();
        payload[at] ^= xor;
        std::fs::write(path, reseal(bytes, &payload)).expect("write mutated file");

        let Ok(mutated) = std::panic::catch_unwind(|| replay(&root)) else {
            panic!("{what}: panicked");
        };
        if victim == artifact {
            // Refused, recompiled and healed — or loaded, and then every
            // call came back `Ok` or a typed `Error` (it did not panic).
            if mutated.artifact_rejects > 0 {
                assert_eq!(mutated.checksum, Some(cold.checksum), "{what}");
                let healed = replay(&root);
                assert_eq!(healed.checksum, Some(cold.checksum), "{what}");
                assert_eq!(
                    healed.artifact_rejects + healed.instance_rejects,
                    0,
                    "{what}"
                );
            }
            assert!(
                round >= program.region_count() || mutated.artifact_rejects > 0,
                "{what}"
            );
        } else {
            // Whatever the mutated instance did to its own run, it wrote
            // nothing the next run over the pristine file trips on.
            std::fs::write(path, bytes).expect("restore the victim");
            let clean = replay(&root);
            assert_eq!(clean.checksum, Some(cold.checksum), "{what}");
            assert_eq!(clean.artifact_rejects + clean.instance_rejects, 0, "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The native section of a stored instance, re-sealed with one field out
/// of place per check of [`Artifact::check_layout`]: install would grow
/// the dispatch marks to that pc, jump to that offset or patch there.
/// Each is a typed instance reject, no result moves, and the next run
/// finds the cache healed.
#[test]
fn resealed_native_sections_out_of_their_instance_are_rejected() {
    if !dyncomp_native::available() {
        return;
    }
    let root = std::env::temp_dir().join(format!("dyncomp-native-reseal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_with(&root, true);
    let pristine: Vec<(PathBuf, Vec<u8>)> = cache_files(&root)
        .into_iter()
        .map(|p| (p.clone(), std::fs::read(&p).expect("snapshot cache file")))
        .collect();
    // The native section is the tagged artifact that ends the payload.
    let tag = dyncomp_native::codec::host_tag();
    let native_at = |payload: &[u8]| {
        let at = payload
            .windows(tag.len())
            .position(|w| w == tag.as_bytes())?;
        Some(at + tag.len())
    };
    let (path, bytes, at, artifact) = pristine
        .iter()
        .filter(|(p, _)| p.starts_with(root.join("stitched")))
        .find_map(|(p, b)| {
            let at = HEADER_LEN + native_at(&b[HEADER_LEN..])?;
            let a = Artifact::decode(&mut Reader::new(&b[at..])).expect("native section decodes");
            Some((p, b, at, a))
        })
        .expect("a native session stored a native section");

    let n = artifact.bytes.len() as u32;
    type Breaker = fn(&mut Artifact, u32);
    let breakers: [(&str, Breaker); 9] = [
        ("base", |a, _| a.base += 1),
        ("end", |a, _| a.end += 1),
        ("entry pc past the end", |a, _| a.entries[0].0 = a.end),
        ("entry offset past the code", |a, n| a.entries[0].1 = n),
        ("block pc past the end", |a, _| a.block_offsets[0].0 = a.end),
        ("block offset past the code", |a, n| {
            a.block_offsets[0].1 = n
        }),
        ("exit pc inside", |a, _| a.exit_sites.push((a.base, 0))),
        ("exit patch past the code", |a, n| {
            a.exit_sites.push((a.end, n - 19))
        }),
        ("guard sled past the code", |a, n| {
            let pc = a.base;
            a.guard_areas.push(GuardArea {
                pc,
                offset: n - 3,
                len: 4,
            });
        }),
    ];
    for (what, breaker) in breakers {
        for (p, b) in &pristine {
            std::fs::write(p, b).expect("restore pristine file");
        }
        let mut a = artifact.clone();
        breaker(&mut a, n);
        let mut w = Writer::new();
        a.encode(&mut w);
        let mut payload = bytes[HEADER_LEN..at].to_vec();
        payload.extend_from_slice(&w.into_bytes());
        std::fs::write(path, reseal(bytes, &payload)).expect("write mutated file");

        let mutated = run_with(&root, true);
        assert_eq!(mutated.checksum, cold.checksum, "{what}: a result moved");
        assert!(mutated.instance_rejects >= 1, "{what}: loaded");
        assert!(
            mutated.health_persist_entries >= 1,
            "{what}: no typed entry"
        );
        let healed = run_with(&root, true);
        assert_eq!(healed.checksum, cold.checksum, "{what}");
        assert_eq!(
            healed.artifact_rejects + healed.instance_rejects,
            0,
            "{what}: the cache did not heal"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The stored artifact with `edit` applied to its compiled module, re-sealed
/// (the payload is the artifact hash, the module, then the rest).
fn reseal_module(bytes: &[u8], edit: impl FnOnce(&mut CompiledModule)) -> Vec<u8> {
    let payload = &bytes[HEADER_LEN..];
    let mut r = Reader::new(payload);
    u64::decode(&mut r).expect("artifact hash");
    let mut module = CompiledModule::decode(&mut r).expect("the module decodes");
    let tail = &payload[r.offset()..];
    edit(&mut module);
    let mut w = Writer::new();
    module.encode(&mut w);
    let mut out = payload[..8].to_vec();
    out.extend_from_slice(&w.into_bytes());
    out.extend_from_slice(tail);
    reseal(bytes, &out)
}

/// The cold run's stored artifact: its path and bytes.
fn stored_artifact(root: &Path) -> (PathBuf, Vec<u8>) {
    cache_files(root)
        .into_iter()
        .find(|p| p.extension().is_some_and(|e| e == "dyna"))
        .map(|p| {
            let b = std::fs::read(&p).expect("read the artifact");
            (p, b)
        })
        .expect("the cold run stored an artifact")
}

/// Move the hole of the first one-hole block with an instruction `onto`
/// accepts onto that instruction.
fn move_hole(m: &mut CompiledModule, onto: fn(&Inst) -> bool) {
    for rc in &mut m.regions {
        let Template { code, blocks, .. } = &mut rc.template;
        for b in blocks.iter_mut().filter(|b| b.holes.len() == 1) {
            let code = &code[b.start as usize..b.end as usize];
            if let Some(step) = walk(code).find(|s| s.inst.as_ref().is_ok_and(onto)) {
                b.holes[0].at = b.start + step.at as u32;
                return;
            }
        }
    }
    panic!("no block has a hole and such an instruction");
}

/// A hole re-sealed onto an instruction it cannot patch, in an artifact
/// stored without its instances (so every region is stitched), is a typed
/// artifact reject with an incident, no result moves, and the next run
/// finds the cache healed.
#[test]
fn resealed_holes_on_the_wrong_instruction_are_rejected() {
    let root = std::env::temp_dir().join(format!("dyncomp-hole-reseal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_once(&root);
    let (path, bytes) = stored_artifact(&root);

    type Onto = fn(&Inst) -> bool;
    let breakers: [(&str, Onto); 2] = [
        ("a hole moved onto a load whose base is not r27", |i| {
            i.op == Op::Ldq && i.rb != Operand::Reg(LIN)
        }),
        ("a hole moved onto a jump", |i| {
            i.op.format() == Format::Jump
        }),
    ];
    for (what, breaker) in breakers {
        // Only the artifact stays, so the run stitches every region.
        for p in cache_files(&root) {
            std::fs::remove_file(p).expect("clear cache file");
        }
        let mutated = reseal_module(&bytes, |m| move_hole(m, breaker));
        std::fs::write(&path, mutated).expect("write mutated file");
        let mutated = run_once(&root);
        assert_eq!(mutated.checksum, cold.checksum, "{what}: a result moved");
        assert!(mutated.artifact_rejects >= 1, "{what}: loaded");
        assert!(!mutated.incidents.is_empty(), "{what}: no incident");
        let healed = run_once(&root);
        assert_eq!(healed.checksum, cold.checksum, "{what}");
        assert_eq!(
            healed.artifact_rejects + healed.instance_rejects,
            0,
            "{what}: the cache did not heal"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A block's one branch is its exit: a re-sealed artifact with a plain
/// template instruction rewritten to a `br` (a branch the stitcher would
/// copy with its template displacement) is a typed artifact reject with
/// an incident, no result moves, and the next run finds the cache healed.
#[test]
fn a_resealed_branch_that_is_not_a_block_exit_is_rejected() {
    let root = std::env::temp_dir().join(format!("dyncomp-branch-reseal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_once(&root);
    let (path, bytes) = stored_artifact(&root);
    // Only the artifact stays, so the run stitches every region.
    for p in cache_files(&root) {
        std::fs::remove_file(p).expect("clear cache file");
    }
    let mutated = reseal_module(&bytes, |m| {
        let br = encode(&Inst::branch(Op::Br, ZERO, 1)).expect("encodes").0;
        for rc in &mut m.regions {
            let Template { code, blocks, .. } = &mut rc.template;
            for b in blocks.iter() {
                let plain = walk(&code[b.start as usize..b.end as usize]).find(|s| {
                    let at = b.start + s.at as u32;
                    s.end() - s.at == 1
                        && !b.holes.iter().any(|h| h.at == at)
                        && s.inst
                            .as_ref()
                            .is_ok_and(|i| i.op.format() != Format::Branch)
                });
                if let Some(s) = plain {
                    code[b.start as usize + s.at] = br;
                    return;
                }
            }
        }
        panic!("no block has a plain instruction");
    });
    std::fs::write(&path, mutated).expect("write mutated file");
    let mutated = run_once(&root);
    assert_eq!(mutated.checksum, cold.checksum, "a result moved");
    assert_eq!(mutated.artifact_rejects, 1, "the artifact loaded");
    assert!(
        mutated
            .incidents
            .iter()
            .any(|r| r.contains("last-instruction exit")),
        "{:?}",
        mutated.incidents
    );
    let healed = run_once(&root);
    assert_eq!(healed.checksum, cold.checksum);
    assert_eq!(
        healed.artifact_rejects + healed.instance_rejects,
        0,
        "the cache did not heal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A file of the previous format version is a header reject, artifact
/// and instances alike, and the next run finds the cache healed.
#[test]
fn a_version_3_file_is_a_header_reject_that_heals() {
    let root = std::env::temp_dir().join(format!("dyncomp-v3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_once(&root);
    let files = cache_files(&root);
    assert!(files.len() >= 2, "an artifact and its instances");
    for p in &files {
        let mut b = std::fs::read(p).expect("read cache file");
        b[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(p, b).expect("write cache file");
    }
    let stale = run_once(&root);
    assert_eq!(stale.checksum, cold.checksum, "a result moved");
    assert_eq!(stale.artifact_rejects, 1);
    assert!(!stale.incidents.is_empty());
    assert!(
        stale
            .incidents
            .iter()
            .all(|r| r.contains("unknown format version 3")),
        "{:?}",
        stale.incidents
    );
    let healed = run_once(&root);
    assert_eq!(healed.checksum, cold.checksum);
    assert_eq!(
        healed.artifact_rejects + healed.instance_rejects,
        0,
        "the cache did not heal"
    );
    let _ = std::fs::remove_dir_all(&root);
}
