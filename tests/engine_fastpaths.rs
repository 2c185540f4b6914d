//! Edge cases of the engine's fast paths: the VM's predecode cache across
//! `EnterRegion` patching, and the keyed-region cache's O(1) LRU eviction.

use dyncomp::{Compiler, EngineOptions, Session};
use dyncomp_machine::isa::{decode, Op};
use std::sync::Arc;

const UNKEYED_SRC: &str = r#"
    int f(int x) {
        dynamicRegion (x) {
            int acc = x * 3 + 1;
            return acc;
        }
    }
"#;

const KEYED_SRC: &str = r#"
    int f(int k, int x) {
        dynamicRegion key(k) (k) {
            int i; int acc = 0;
            unrolled for (i = 0; i < k; i++) { acc = acc + x; }
            return acc + k * 7;
        }
    }
"#;

/// The first entry of an unkeyed region executes (and predecodes) the
/// `EnterRegion` trap word, then the engine patches that word into a
/// direct branch. The second call must execute the *patched* word — a
/// stale predecode entry would re-trap forever (or crash). Also checks
/// the patch really landed via the VM's own fetch path.
#[test]
fn predecode_invalidated_when_enter_region_is_patched() {
    let p = Arc::new(Compiler::new().compile(UNKEYED_SRC).unwrap());
    let mut e = Session::new(Arc::clone(&p));

    let first = e.call("f", &[10]).unwrap();
    let enter_pc = p.compiled.regions[0].enter_pc;
    let inst = decode(e.vm.code[enter_pc as usize], None).expect("patched word decodes");
    assert_eq!(inst.op, Op::Br, "EnterRegion was patched to a branch");

    let t0 = e.cycles();
    let second = e.call("f", &[10]).unwrap();
    let warm = e.cycles() - t0;
    assert_eq!(first, second);

    // A third call through the same patched word costs exactly the same:
    // the predecoded branch is cached and correct.
    let t1 = e.cycles();
    let third = e.call("f", &[10]).unwrap();
    assert_eq!(third, second);
    assert_eq!(e.cycles() - t1, warm, "steady-state cost is stable");

    let report = e.region_report(0);
    assert_eq!(report.stitches, 1, "no re-stitch after patching");
}

/// Bounded keyed cache: filling past capacity evicts the least-recently
/// used key; re-entering the evicted key re-stitches to *bit-identical*
/// code and returns the same result, and cached entries keep a stable
/// per-call cycle cost.
#[test]
fn keyed_lru_eviction_then_restitch_is_identical_and_stable() {
    let p = Arc::new(Compiler::new().compile(KEYED_SRC).unwrap());
    let mut e = Session::with_options(
        p,
        EngineOptions {
            keyed_cache_capacity: Some(2),
            ..EngineOptions::default()
        },
    );

    let r1 = e.call("f", &[1, 100]).unwrap(); // stitch k=1
    let r2 = e.call("f", &[2, 100]).unwrap(); // stitch k=2
    assert_eq!(e.region_report(0).evictions, 0);
    let r3 = e.call("f", &[3, 100]).unwrap(); // stitch k=3, evicts k=1
    assert_eq!(e.region_report(0).evictions, 1);
    assert_eq!(e.region_report(0).stitches, 3);

    // k=1 was evicted: this entry re-stitches...
    let r1b = e.call("f", &[1, 100]).unwrap();
    assert_eq!(r1, r1b, "re-stitched instance computes the same result");
    assert_eq!(e.region_report(0).stitches, 4);
    assert_eq!(e.region_report(0).evictions, 2, "k=2 evicted in turn");

    // ...to code bit-identical to the first k=1 instance, except word 1:
    // the address operand of the prologue's `Ldiw LIN` points at a fresh
    // linearized-table allocation per stitch.
    let instances = e.stitched_instances(0);
    assert_eq!(instances.len(), 4, "all instances survive in code space");
    assert_eq!(instances[0].0, &[1u64][..]);
    assert_eq!(instances[3].0, &[1u64][..]);
    assert_eq!(instances[0].1[0], instances[3].1[0]);
    assert_eq!(
        instances[0].1[2..],
        instances[3].1[2..],
        "re-stitch after eviction reproduces the same code words"
    );

    // Cached re-entries of the same key cost identical cycles.
    let t0 = e.cycles();
    let a = e.call("f", &[1, 100]).unwrap();
    let c1 = e.cycles() - t0;
    let t1 = e.cycles();
    let b = e.call("f", &[1, 100]).unwrap();
    let c2 = e.cycles() - t1;
    assert_eq!(a, b);
    assert_eq!(a, r1);
    assert_eq!(c1, c2, "cached keyed entry has a stable cycle cost");

    assert_eq!(r2, 100 * 2 + 2 * 7);
    assert_eq!(r3, 100 * 3 + 3 * 7);
}

/// A cache *hit* must refresh recency: with capacity 2, hitting the older
/// key before inserting a third must evict the other key, not the hit one.
#[test]
fn lru_touch_on_hit_protects_recently_used_keys() {
    let p = Arc::new(Compiler::new().compile(KEYED_SRC).unwrap());
    let mut e = Session::with_options(
        p,
        EngineOptions {
            keyed_cache_capacity: Some(2),
            ..EngineOptions::default()
        },
    );

    e.call("f", &[1, 5]).unwrap(); // stitch k=1 (LRU order: 1)
    e.call("f", &[2, 5]).unwrap(); // stitch k=2 (order: 1, 2)
    e.call("f", &[1, 5]).unwrap(); // hit k=1 (order: 2, 1)
    assert_eq!(e.region_report(0).stitches, 2);

    e.call("f", &[3, 5]).unwrap(); // stitch k=3, must evict k=2
    assert_eq!(e.region_report(0).stitches, 3);

    e.call("f", &[1, 5]).unwrap(); // still cached: no new stitch
    assert_eq!(
        e.region_report(0).stitches,
        3,
        "k=1 was touched on hit and must not have been evicted"
    );

    e.call("f", &[2, 5]).unwrap(); // evicted: re-stitches
    assert_eq!(e.region_report(0).stitches, 4);
}
