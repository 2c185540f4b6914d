//! Golden test for the paper's running example (§2–§4): `cacheLookup`.
//!
//! Checks the artifacts the paper shows in Figure 1 and §4:
//!
//! * the derived run-time constants (blockSize, numLines, their product,
//!   the lines array, assoc, the unrolled induction variable);
//! * the set-up/template split with per-iteration record chains;
//! * the Table 1 directives (HOLE, CONST_BRANCH with a per-iteration
//!   slot, ENTER_LOOP/RESTART_LOOP);
//! * the §4 final stitched code: for a 512-line, 32-byte-block, 4-way
//!   cache, the divisions and modulus become shifts and masks, the loop
//!   unrolls into 4 compare sequences, and the lookup behaves like a real
//!   cache.

use dyncomp::{Compiler, Session};
use dyncomp_machine::isa::{Format, Op};
use dyncomp_machine::template::{LoopMarker, TmplExit};
use std::sync::Arc;

const SRC: &str = r#"
    struct setStructure { unsigned tag; };
    struct cacheLine { struct setStructure **sets; };
    struct Cache {
        unsigned blockSize;
        unsigned numLines;
        struct cacheLine **lines;
        int associativity;
    };
    int cacheLookup(unsigned addr, struct Cache *cache) {
        dynamicRegion (cache) {
            unsigned blockSize = cache->blockSize;
            unsigned numLines = cache->numLines;
            unsigned tag = addr / (blockSize * numLines);
            unsigned line = (addr / blockSize) % numLines;
            struct setStructure **setArray = cache->lines[line]->sets;
            int assoc = cache->associativity;
            int set;
            unrolled for (set = 0; set < assoc; set++) {
                if (setArray[set] dynamic-> tag == tag)
                    return 1;
            }
            return 0;
        }
    }
"#;

struct CacheImage {
    cache: u64,
    sets: Vec<Vec<u64>>, // [line][way] -> setStructure address
    block_size: u64,
    num_lines: u64,
}

fn build_cache(e: &mut Session, block_size: u64, num_lines: u64, assoc: u64) -> CacheImage {
    let mut h = e.heap();
    let mut line_recs = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..num_lines {
        let mut ways = Vec::new();
        for _ in 0..assoc {
            ways.push(h.record(&[u64::MAX]).unwrap());
        }
        let arr = h.array_u64(&ways).unwrap();
        line_recs.push(h.record(&[arr]).unwrap());
        sets.push(ways);
    }
    let lines = h.array_u64(&line_recs).unwrap();
    let cache = h.record(&[block_size, num_lines, lines, assoc]).unwrap();
    CacheImage {
        cache,
        sets,
        block_size,
        num_lines,
    }
}

#[test]
fn figure1_template_structure() {
    let p = Compiler::new().compile(SRC).unwrap();
    assert_eq!(p.region_count(), 1);
    let rc = &p.compiled.regions[0];
    let t = &rc.template;

    // Loop markers: exactly one ENTER_LOOP and one RESTART_LOOP (the
    // paper's L5/L10 directives).
    let enters = t
        .blocks
        .iter()
        .filter(|b| matches!(b.marker, Some(LoopMarker::Enter { .. })))
        .count();
    let restarts = t
        .blocks
        .iter()
        .filter(|b| matches!(b.marker, Some(LoopMarker::Restart { .. })))
        .count();
    assert_eq!(enters, 1);
    assert_eq!(restarts, 1);

    // The loop-governing branch is a CONST_BRANCH on a per-iteration slot
    // (the paper's `CONST_BRANCH(L6, 4:0)`).
    let per_iter_branch = t
        .blocks
        .iter()
        .any(|b| matches!(&b.exit, TmplExit::ConstBranch { slot, .. } if !slot.is_static()));
    assert!(
        per_iter_branch,
        "loop branch reads a per-iteration predicate"
    );

    // Holes exist, and at least one reads a per-iteration slot (the
    // paper's `HOLE(L7, 2, 4:1)` for setArray[set]).
    let holes: Vec<_> = t.blocks.iter().flat_map(|b| b.holes.iter()).collect();
    assert!(!holes.is_empty());
    assert!(
        holes.iter().any(|h| !h.slot.is_static()),
        "per-iteration hole"
    );
    assert!(
        holes.iter().any(|h| h.slot.is_static()),
        "static holes (tag divisor, …)"
    );
    // The paper's integer holes become operate literals; address-sized
    // constants (setArray) use the statically inserted table load.
    let op = |at: u32| Op::of_word(t.code[at as usize]).expect("a hole's opcode");
    assert!(holes.iter().any(|h| op(h.at).format() == Format::Operate));
    assert!(holes.iter().any(|h| op(h.at) == Op::Ldq));

    // The planned optimizations include the ones §3.1 underlines.
    let (_, stats) = p.spec_stats[0];
    assert!(
        stats.loads_eliminated >= 4,
        "blockSize/numLines/lines/assoc: {stats:?}"
    );
    assert!(stats.const_insts_eliminated >= 6, "{stats:?}");
    assert_eq!(stats.unrolled_loops, 1);
    assert!(stats.const_branches >= 1);
}

#[test]
fn section4_final_code_for_512_line_cache() {
    // "512 lines, 32-byte blocks, and 4-way set associativity": the §4
    // stitched code uses >> 14, >> 5, & 511, and four unrolled compares.
    let p = Arc::new(Compiler::new().compile(SRC).unwrap());
    let mut e = Session::new(p);
    let img = build_cache(&mut e, 32, 512, 4);

    let addr = 0x123456u64;
    assert_eq!(
        e.call("cacheLookup", &[addr, img.cache]).unwrap(),
        0,
        "cold miss"
    );

    let report = e.region_report(0);
    // Divisions/modulus by powers of two became shifts/masks.
    assert!(
        report.stitch_stats.strength_reductions >= 2,
        "addr/32, addr/(32*512), %512 reduced: {:?}",
        report.stitch_stats
    );
    // The loop unrolled into 4 copies.
    assert_eq!(report.stitch_stats.loop_iterations, 4);
    // Dead-code elimination happened at every constant branch.
    assert!(
        report.stitch_stats.const_branches_resolved >= 5,
        "4 continues + final exit"
    );

    // Behaves like a cache: install the tag in the right line, any way.
    let tag = addr / (img.block_size * img.num_lines);
    let line = (addr / img.block_size) % img.num_lines;
    for way in 0..4 {
        // Reset all ways, set only `way`.
        for w in 0..4 {
            e.heap()
                .put_u64(img.sets[line as usize][w], u64::MAX)
                .unwrap();
        }
        e.heap().put_u64(img.sets[line as usize][way], tag).unwrap();
        assert_eq!(
            e.call("cacheLookup", &[addr, img.cache]).unwrap(),
            1,
            "hit way {way}"
        );
    }
    // Same line, different tag: miss. Different line: miss.
    assert_eq!(
        e.call("cacheLookup", &[addr + 0x100000, img.cache])
            .unwrap(),
        0
    );
    assert_eq!(e.call("cacheLookup", &[addr + 32, img.cache]).unwrap(), 0);
}

#[test]
fn lookup_agrees_with_reference_model_across_configs() {
    // Sweep cache geometries; compare against a host-side model.
    for (bs, nl, assoc) in [(16u64, 8u64, 1u64), (32, 16, 2), (64, 4, 4), (8, 32, 3)] {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::new(p);
        let img = build_cache(&mut e, bs, nl, assoc);
        // Install some tags.
        let mut model: Vec<Vec<u64>> = vec![vec![u64::MAX; assoc as usize]; nl as usize];
        let mut lcg = 12345u64;
        for _ in 0..(nl * assoc / 2).max(1) {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = (lcg >> 8) % nl;
            let way = (lcg >> 24) % assoc;
            let tag = (lcg >> 32) % 64;
            model[line as usize][way as usize] = tag;
            e.heap()
                .put_u64(img.sets[line as usize][way as usize], tag)
                .unwrap();
        }
        for probe in 0..200u64 {
            let addr = probe * 13 % (bs * nl * 64);
            let tag = addr / (bs * nl);
            let line = (addr / bs) % nl;
            let want = u64::from(model[line as usize].contains(&tag));
            let got = e.call("cacheLookup", &[addr, img.cache]).unwrap();
            assert_eq!(got, want, "bs={bs} nl={nl} assoc={assoc} addr={addr}");
        }
    }
}

#[test]
fn static_and_dynamic_agree_and_dynamic_wins() {
    let ps = Arc::new(Compiler::static_baseline().compile(SRC).unwrap());
    let pd = Arc::new(Compiler::new().compile(SRC).unwrap());
    let mut es = Session::new(ps);
    let mut ed = Session::new(pd);
    let is_ = build_cache(&mut es, 32, 64, 2);
    let id = build_cache(&mut ed, 32, 64, 2);
    let tag = 7u64;
    es.heap().put_u64(is_.sets[3][1], tag).unwrap();
    ed.heap().put_u64(id.sets[3][1], tag).unwrap();
    for addr in (0..4096u64).step_by(37) {
        let a = es.call("cacheLookup", &[addr, is_.cache]).unwrap();
        let b = ed.call("cacheLookup", &[addr, id.cache]).unwrap();
        assert_eq!(a, b, "addr={addr}");
    }
    // And the dynamic version is faster per call once stitched.
    let t0 = ed.cycles();
    ed.call("cacheLookup", &[64, id.cache]).unwrap();
    let dyn_cost = ed.cycles() - t0;
    let t1 = es.cycles();
    es.call("cacheLookup", &[64, is_.cache]).unwrap();
    let static_cost = es.cycles() - t1;
    assert!(
        dyn_cost < static_cost,
        "specialized lookup ({dyn_cost}) beats static ({static_cost})"
    );
}
