//! Invariants of the executable arena: dropped mappings are recycled,
//! recycled slack is `int3`, the free list stays within its byte bound
//! under concurrent churn, and every mapping the backend holds reads
//! `r-xp` in `/proc/self/maps` between operations — no page of the
//! process is ever writable and executable at once.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use dyncomp_ir::prng::SplitMix64;
use dyncomp_machine::isa::{encode, Inst, Op, Operand};
use dyncomp_machine::CycleModel;
use dyncomp_native::{translate_with, Backend, ChainSpec, ExecMap, POOL_BYTES, SLACK_FILL};
use std::sync::Mutex;

/// The free list is process-wide: tests that read it take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The permission string of every mapping, as `(start, end, perms)`.
fn maps() -> Vec<(usize, usize, String)> {
    let text = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps reads");
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let perms = fields.next()?.to_string();
            Some((
                usize::from_str_radix(start, 16).ok()?,
                usize::from_str_radix(end, 16).ok()?,
                perms,
            ))
        })
        .collect()
}

/// The permissions covering `addr..addr + len` (one line: the kernel
/// merges neighbours with equal permissions).
fn perms_of(addr: usize, len: usize) -> String {
    maps()
        .into_iter()
        .find(|&(s, e, _)| s <= addr && addr + len <= e)
        .map_or_else(|| "unmapped".to_string(), |(_, _, p)| p)
}

fn assert_no_writable_executable_page() {
    for (s, e, p) in maps() {
        assert!(
            !(p.contains('w') && p.contains('x')),
            "{s:x}-{e:x} is {p}: writable and executable at once"
        );
    }
}

#[test]
fn a_dropped_mapping_is_reused_for_the_same_size() {
    let _turn = serial();
    let code = vec![0xC3u8; 3 * 4096 + 100];
    let first = ExecMap::new(&code).expect("maps");
    let (addr, cap) = (first.entry() as usize, first.capacity());
    assert!(cap >= 4 * 4096);
    drop(first);
    assert_eq!(perms_of(addr, cap), "r-xp", "idle pages stay sealed");
    let again = ExecMap::new(&code).expect("maps");
    assert_eq!(
        again.entry() as usize,
        addr,
        "install → drop → install reuses"
    );
    assert_eq!(again.capacity(), cap);
    assert_eq!(perms_of(addr, cap), "r-xp");
}

#[test]
fn reused_slack_is_int3() {
    let _turn = serial();
    let long = vec![0x90u8; 2 * 4096 + 4000];
    let map = ExecMap::new(&long).expect("maps");
    let (addr, cap) = (map.entry() as usize, map.capacity());
    drop(map);
    // Shorter code on the same pages (the fill may have recycled a
    // larger idle mapping, up to twice the pages it needs).
    let short: Vec<u8> = (0..cap - 4096 + 17).map(|i| i as u8).collect();
    let map = ExecMap::new(&short).expect("maps");
    assert_eq!(map.entry() as usize, addr, "the same pages");
    let mapped = map.mapped();
    assert_eq!(mapped.len(), cap);
    assert_eq!(&mapped[..short.len()], &short[..]);
    assert!(
        mapped[short.len()..].iter().all(|&b| b == SLACK_FILL),
        "every byte past the code is int3, none of the old code"
    );
}

#[test]
fn the_free_list_stays_within_its_bound_under_a_two_thread_storm() {
    let _turn = serial();
    std::thread::scope(|s| {
        for seed in [1u64, 2] {
            s.spawn(move || {
                let mut rng = SplitMix64::new(seed);
                let mut live: Vec<ExecMap> = Vec::new();
                for _ in 0..400 {
                    if live.len() < 8 && rng.chance(2, 3) {
                        let pages = 1 + rng.below(48) as usize;
                        let len = pages * 4096 - rng.below(4000) as usize;
                        live.push(ExecMap::new(&vec![0xC3; len]).expect("maps"));
                    } else if !live.is_empty() {
                        live.swap_remove(rng.below(live.len() as u64) as usize);
                    }
                    assert!(ExecMap::pooled_bytes() <= POOL_BYTES);
                }
            });
        }
    });
    assert!(ExecMap::pooled_bytes() <= POOL_BYTES);
    assert_no_writable_executable_page();
}

fn words(insts: &[Inst]) -> Vec<u32> {
    let mut out = Vec::new();
    for i in insts {
        let (w, extra) = encode(i).expect("test instruction encodes");
        out.push(w);
        out.extend(extra);
    }
    out
}

#[test]
fn every_backend_mapping_is_sealed_between_operations() {
    let _turn = serial();
    let model = CycleModel::default();
    let spec = ChainSpec {
        indirect: true,
        ..ChainSpec::default()
    };
    // Instance A at 0 leaves for pc 100 (its exit site); B at 100 and C
    // at 200 each count and leave for the next; so chaining B patches
    // A's exit and chaining C patches B's.
    let leave = |from: u32, to: u32| {
        words(&[
            Inst::op3(Op::Addq, 1, Operand::Lit(1), 1),
            Inst::branch(Op::Br, 31, to as i32 - (from as i32 + 2)),
        ])
    };
    let mut backend = Backend::new();
    let check = |backend: &Backend| {
        for (addr, len) in backend.mappings() {
            assert_eq!(perms_of(addr, len), "r-xp");
        }
        assert_no_writable_executable_page();
    };
    let mut links = 0;
    for (base, next) in [(0, 100), (100, 200), (200, 300)] {
        let artifact = translate_with(&leave(base, next), base, &model, &spec);
        backend.install(base, &artifact).expect("installs");
        check(&backend);
        links += backend.chain(base).0;
        check(&backend);
    }
    assert_eq!(links, 2, "A → B and B → C are patched");
    assert_eq!(backend.instance_count(), 3);
    assert!(backend.remove(100).is_some(), "B is installed");
    check(&backend);
    assert_eq!(backend.instance_count(), 2, "A's restore succeeded");
    drop(backend);
    assert_no_writable_executable_page();
}
