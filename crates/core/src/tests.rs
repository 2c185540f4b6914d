//! End-to-end tests: full static pipeline + VM + stitcher, with
//! differential checks against the static baseline and speedup sanity.

use crate::{measure_kernel_full, Compiler, EngineOptions, KernelSetup, Session};
use std::sync::Arc;

/// Run the same calls on static and dynamic builds; results must agree.
/// Each argument set gets a fresh dynamic engine: an unkeyed region's
/// annotated constants must not change across executions (§2), and the
/// argument sets here vary them.
fn differential(src: &str, func: &str, argsets: &[Vec<u64>]) {
    let stat = Arc::new(
        Compiler::static_baseline()
            .compile(src)
            .expect("static compiles"),
    );
    let dynp = Arc::new(Compiler::new().compile(src).expect("dynamic compiles"));
    let mut se = Session::new(stat);
    for args in argsets {
        let a = se.call(func, args).expect("static runs");
        let mut de = Session::new(Arc::clone(&dynp));
        let b = de.call(func, args).expect("dynamic runs");
        assert_eq!(a, b, "{func}({args:?})");
        // And again on the stitched fast path.
        let b2 = de.call(func, args).expect("dynamic reruns");
        assert_eq!(b2, b, "{func}({args:?}) cached");
    }
}

#[test]
fn quickstart_region_runs_and_caches() {
    let src = "int poly(int c, int x) { dynamicRegion (c) { return c * x * x + c * x + c; } }";
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    assert_eq!(p.region_count(), 1);
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("poly", &[3, 10]).unwrap(), 330 + 3);
    assert_eq!(e.call("poly", &[3, 1]).unwrap(), 9);
    assert_eq!(e.call("poly", &[3, 0]).unwrap(), 3);
    let r = e.region_report(0);
    assert_eq!(r.stitches, 1, "stitched once, reused");
    assert!(r.setup_cycles > 0);
    assert!(r.stitch_cycles > 0);
    assert!(r.instructions_stitched > 0);
}

#[test]
fn patched_entry_skips_trap_for_unkeyed_regions() {
    let src = "int f(int k, int x) { dynamicRegion (k) { return k * 3 + x; } }";
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    e.call("f", &[5, 1]).unwrap();
    // Second call: the EnterRegion trap was patched to a branch, so the
    // engine never sees another trap — invocations stays at 1.
    e.call("f", &[5, 2]).unwrap();
    e.call("f", &[5, 3]).unwrap();
    assert_eq!(e.region_report(0).invocations, 1);
}

#[test]
fn second_call_is_cheaper_than_first() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                int i; int acc = 0;
                unrolled for (i = 0; i < k; i++) { acc += x * k + i; }
                return acc;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let c0 = e.cycles();
    e.call("f", &[10, 3]).unwrap();
    let first = e.cycles() - c0;
    let c1 = e.cycles();
    e.call("f", &[10, 4]).unwrap();
    let second = e.cycles() - c1;
    assert!(
        second * 3 < first,
        "first call pays set-up ({first}), later calls do not ({second})"
    );
}

#[test]
fn dynamic_beats_static_on_unrolled_kernel() {
    // A kernel shaped like the paper's winners: constant-bound loop over
    // constant coefficients (loads + loop control melt away).
    let src = r#"
        struct Cfg { int n; int *coef; };
        int eval(struct Cfg *cfg, int x) {
            dynamicRegion (cfg) {
                int acc = 0;
                int i;
                unrolled for (i = 0; i < cfg->n; i++) {
                    acc = acc * x + cfg->coef[i];
                }
                return acc;
            }
        }
    "#;
    let setup = KernelSetup {
        src,
        func: "eval",
        iterations: 300,
        prepare: Box::new(|e: &mut Session| {
            let mut h = e.heap();
            let coef = h.array_i64(&[3, 1, 4, 1, 5, 9, 2, 6]).unwrap();
            let cfg = h.record(&[8, coef]).unwrap();
            vec![cfg]
        }),
        args: Box::new(|i, prepared| vec![prepared[0], i % 17]),
    };
    let m = measure_kernel_full(&setup, &Compiler::new(), EngineOptions::default()).unwrap();
    assert!(
        m.speedup > 1.05,
        "expected speedup, got {:.3} (static {:.0}, dynamic {:.0})",
        m.speedup,
        m.static_cycles,
        m.dynamic_cycles
    );
    assert!(m.breakeven.is_some());
    let opts = m.optimizations();
    assert!(opts.constant_folding);
    assert!(opts.load_elimination, "coef loads moved to set-up");
    assert!(opts.complete_loop_unrolling);
    assert!(opts.static_branch_elimination, "loop branch eliminated");
}

#[test]
fn keyed_region_stitches_per_key() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) { return k * x + k; }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    assert_eq!(e.call("f", &[2, 10]).unwrap(), 22);
    assert_eq!(e.call("f", &[3, 10]).unwrap(), 33);
    assert_eq!(e.call("f", &[2, 20]).unwrap(), 42);
    assert_eq!(e.call("f", &[3, 20]).unwrap(), 63);
    let r = e.region_report(0);
    assert_eq!(r.stitches, 2, "one stitched instance per key");
    assert_eq!(r.invocations, 4, "keyed regions keep the trap");
}

#[test]
fn differential_cache_lookup() {
    // The paper's running example, end to end on the simulated machine.
    let src = r#"
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
    for dynamic in [false, true] {
        let compiler = if dynamic {
            Compiler::new()
        } else {
            Compiler::static_baseline()
        };
        let p = Arc::new(compiler.compile(src).unwrap());
        let mut e = Session::new(p);
        // Build a 4-line, 32B-block, 2-way cache.
        let (lines, bs, assoc) = (4u64, 32u64, 2u64);
        let mut set_ptrs = Vec::new();
        let mut line_recs = Vec::new();
        {
            let mut h = e.heap();
            for _ in 0..lines {
                let mut sets = Vec::new();
                for _ in 0..assoc {
                    let s = h.record(&[u64::MAX]).unwrap();
                    sets.push(s);
                }
                let arr = h.array_u64(&sets).unwrap();
                line_recs.push(h.record(&[arr]).unwrap());
                set_ptrs.push(sets);
            }
        }
        let lines_arr = e.heap().array_u64(&line_recs).unwrap();
        let cache = e.heap().record(&[bs, lines, lines_arr, assoc]).unwrap();

        let addr = 0x1260u64;
        assert_eq!(
            e.call("cacheLookup", &[addr, cache]).unwrap(),
            0,
            "miss (dyn={dynamic})"
        );
        let tag = addr / (bs * lines);
        let line = (addr / bs) % lines;
        e.heap().put_u64(set_ptrs[line as usize][1], tag).unwrap();
        assert_eq!(
            e.call("cacheLookup", &[addr, cache]).unwrap(),
            1,
            "hit (dyn={dynamic})"
        );
        // A different line misses.
        assert_eq!(e.call("cacheLookup", &[addr + bs, cache]).unwrap(), 0);
    }
}

#[test]
fn differential_suite() {
    differential(
        "int f(int k, int x) { dynamicRegion (k) { if (k > 4) return x + k; return x - k; } }",
        "f",
        &[vec![9, 100], vec![1, 100]],
    );
    differential(
        r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                switch (k & 3) {
                    case 0: return x;
                    case 1: return x * 2;
                    case 2: x += 5;       /* fall through */
                    default: return x * 3;
                }
            }
        }
        "#,
        "f",
        &[vec![0, 7], vec![1, 7], vec![2, 7], vec![3, 7]],
    );
    differential(
        r#"
        int f(int k, int n) {
            int total = 0;
            dynamicRegion (k) {
                int j;
                for (j = 0; j < n; j++) {   /* dynamic loop stays */
                    total += k * 2;
                }
            }
            return total;
        }
        "#,
        "f",
        &[vec![3, 4], vec![3, 0]],
    );
}

#[test]
fn per_iteration_values_through_vm() {
    // Per-iteration constant escaping through the extended-membership
    // return path — now through real stitched machine code.
    let src = r#"
        int find(int k, int needle) {
            dynamicRegion (k) {
                int i;
                unrolled for (i = 0; i < k; i++) {
                    if (i * i == needle) return i;
                }
                return 0 - 1;
            }
        }
    "#;
    differential(
        src,
        "find",
        &[vec![6, 25], vec![6, 16], vec![6, 17], vec![6, 0]],
    );
}

#[test]
fn nested_unrolled_loops_through_vm() {
    let src = r#"
        struct Mat { int rows; int *rowlen; };
        int f(struct Mat *m, int x) {
            dynamicRegion (m) {
                int acc = 0;
                int i;
                int j;
                unrolled for (i = 0; i < m->rows; i++) {
                    unrolled for (j = 0; j < m->rowlen[i]; j++) {
                        acc += x + i * 100 + j;
                    }
                }
                return acc;
            }
        }
    "#;
    for dynamic in [false, true] {
        let compiler = if dynamic {
            Compiler::new()
        } else {
            Compiler::static_baseline()
        };
        let p = Arc::new(compiler.compile(src).unwrap());
        let mut e = Session::new(p);
        let rowlen = e.heap().array_i64(&[2, 0, 3]).unwrap();
        let mat = e.heap().record(&[3, rowlen]).unwrap();
        let want = (7) + (7 + 1) + (7 + 200) + (7 + 201) + (7 + 202);
        assert_eq!(e.call("f", &[mat, 7]).unwrap(), want, "dyn={dynamic}");
        // Run again through the cached code.
        assert_eq!(e.call("f", &[mat, 7]).unwrap(), want);
    }
}

#[test]
fn float_region() {
    let src = r#"
        double scale(double s, double x) {
            dynamicRegion (s) {
                double t = s * 2.0 + 0.5;
                return t * x;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let r = e
        .call_f("scale", &[3.0f64.to_bits(), 2.0f64.to_bits()])
        .unwrap();
    assert_eq!(r, 13.0);
    let r = e
        .call_f("scale", &[3.0f64.to_bits(), 4.0f64.to_bits()])
        .unwrap();
    assert_eq!(r, 26.0);
}

#[test]
fn strength_reduction_fires_on_multiply_kernel() {
    let src = r#"
        int smul(int s, int x) {
            dynamicRegion (s) { return x * s; }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    assert_eq!(e.call("smul", &[8, 13]).unwrap(), 104);
    let r = e.region_report(0);
    assert!(
        r.stitch_stats.strength_reductions > 0,
        "multiply by 8 becomes a shift: {:?}",
        r.stitch_stats
    );
}

#[test]
fn measurement_checksums_agree_and_report_is_consistent() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                int i; int acc = 0;
                unrolled for (i = 0; i < k; i++) { acc += (x + i) * k; }
                return acc;
            }
        }
    "#;
    let setup = KernelSetup {
        src,
        func: "f",
        iterations: 100,
        prepare: Box::new(|_| vec![12]),
        args: Box::new(|i, p| vec![p[0], i]),
    };
    let m = measure_kernel_full(&setup, &Compiler::new(), EngineOptions::default()).unwrap();
    assert!(m.static_cycles > 0.0);
    assert!(m.dynamic_cycles > 0.0);
    assert!(m.setup_cycles > 0);
    assert!(m.stitch_cycles > 0);
    assert!(m.instructions_stitched > 0);
    assert!(m.cycles_per_stitched_instruction > 0.0);
    if let Some(b) = m.breakeven {
        assert!(b > 0);
    }
}

mod option_ablations {
    //! Every stitcher configuration must preserve semantics.
    use crate::{Compiler, EngineOptions, Session};
    use dyncomp_stitcher::StitchCost;
    use std::sync::Arc;

    const SRC: &str = r#"
        struct Cfg { int n; int *w; };
        int f(struct Cfg *c, int x) {
            dynamicRegion (c) {
                int acc = 0;
                int i;
                unrolled for (i = 0; i < c->n; i++) {
                    acc += x * c->w[i] + (x / 1) + (x % 8);
                }
                return acc * c->n;
            }
        }
    "#;

    fn run_with(opts: EngineOptions) -> Vec<u64> {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::with_options(p, opts);
        let w = e.heap().array_i64(&[2, 8, 16, 5, 256, 65536]).unwrap();
        let cfg = e.heap().record(&[6, w]).unwrap();
        (0..8).map(|x| e.call("f", &[cfg, x]).unwrap()).collect()
    }

    #[test]
    fn all_stitcher_configurations_agree() {
        let base = run_with(EngineOptions::default());
        let mut no_peep = EngineOptions::default();
        no_peep.stitch.peephole = false;
        assert_eq!(run_with(no_peep), base, "peephole off");
        let mut no_table = EngineOptions::default();
        no_table.stitch.linearized_table = false;
        assert_eq!(run_with(no_table), base, "linearized table off");
        let mut fused = EngineOptions::default();
        fused.stitch.cost = StitchCost::fused();
        assert_eq!(run_with(fused), base, "fused cost model");
        let mut ra = EngineOptions::default();
        ra.stitch.register_actions = Some(4);
        assert_eq!(run_with(ra), base, "register actions");
    }
}

mod degenerate_regions {
    use crate::{Compiler, Session};
    use std::sync::Arc;

    #[test]
    fn region_with_unused_constant() {
        // The annotated constant feeds nothing: the region still splits,
        // stitches and runs.
        let src = "int f(int k, int x) { dynamicRegion (k) { return x + 1; } }";
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        let mut e = Session::new(p);
        assert_eq!(e.call("f", &[99, 5]).unwrap(), 6);
        assert_eq!(e.call("f", &[99, 7]).unwrap(), 8);
    }

    #[test]
    fn region_with_only_constant_computation() {
        // The whole region result is a run-time constant.
        let src = "int f(int k) { dynamicRegion (k) { return k * 3 + 1; } }";
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        let mut e = Session::new(p);
        assert_eq!(e.call("f", &[5]).unwrap(), 16);
        assert_eq!(e.call("f", &[5]).unwrap(), 16);
        let r = e.region_report(0);
        assert!(r.stitch_stats.holes_inline + r.stitch_stats.holes_big >= 1);
    }

    #[test]
    fn empty_region_body() {
        let src = "int f(int k, int x) { dynamicRegion (k) { } return x; }";
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        let mut e = Session::new(p);
        assert_eq!(e.call("f", &[1, 42]).unwrap(), 42);
    }

    #[test]
    fn region_is_entire_function_with_early_returns_only() {
        let src = r#"
            int sign(int k) {
                dynamicRegion (k) {
                    if (k > 0) return 1;
                    if (k < 0) return 0 - 1;
                    return 0;
                }
            }
        "#;
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        for (k, want) in [(5u64, 1i64), (0u64.wrapping_sub(3), -1), (0, 0)] {
            let mut e = Session::new(Arc::clone(&p));
            assert_eq!(e.call("sign", &[k]).unwrap() as i64, want, "k={k}");
        }
    }

    #[test]
    fn zero_trip_unrolled_loop_via_engine() {
        let src = r#"
            int f(int k) {
                dynamicRegion (k) {
                    int s = 100;
                    int i;
                    unrolled for (i = 0; i < k; i++) s += 1;
                    return s;
                }
            }
        "#;
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        let mut e = Session::new(p);
        assert_eq!(e.call("f", &[0]).unwrap(), 100);
        assert_eq!(e.region_report(0).stitch_stats.loop_iterations, 0);
    }
}

mod keyed_cache_policy {
    use super::*;
    use crate::EngineOptions;

    const SRC: &str = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) { return k * x + k; }
        }
    "#;

    #[test]
    fn bounded_cache_evicts_lru_and_restitches() {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::with_options(
            p,
            EngineOptions {
                keyed_cache_capacity: Some(2),
                ..EngineOptions::default()
            },
        );
        // Fill: keys 1, 2 (two stitches).
        assert_eq!(e.call("f", &[1, 10]).unwrap(), 11);
        assert_eq!(e.call("f", &[2, 10]).unwrap(), 22);
        assert_eq!(e.region_report(0).stitches, 2);
        // Touch key 1 so key 2 becomes least-recently-entered.
        assert_eq!(e.call("f", &[1, 20]).unwrap(), 21);
        // Key 3 evicts key 2.
        assert_eq!(e.call("f", &[3, 10]).unwrap(), 33);
        let r = e.region_report(0);
        assert_eq!(r.stitches, 3);
        assert_eq!(r.evictions, 1);
        // Key 1 is still cached (no new stitch)...
        assert_eq!(e.call("f", &[1, 30]).unwrap(), 31);
        assert_eq!(e.region_report(0).stitches, 3);
        // ...but key 2 was dropped and re-stitches, still correct.
        assert_eq!(e.call("f", &[2, 30]).unwrap(), 62);
        let r = e.region_report(0);
        assert_eq!(r.stitches, 4);
        assert_eq!(r.evictions, 2, "re-adding key 2 evicted key 3");
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::with_options(
            p,
            EngineOptions {
                keyed_cache_capacity: Some(1),
                ..EngineOptions::default()
            },
        );
        for round in 0..3u64 {
            for k in 1..=3u64 {
                assert_eq!(e.call("f", &[k, round]).unwrap(), k * round + k);
            }
        }
        let r = e.region_report(0);
        assert_eq!(
            r.stitches, 9,
            "every entry alternates keys, so every entry stitches"
        );
        assert_eq!(r.evictions, 8);
        assert_eq!(r.invocations, 9);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::new(p);
        for k in 1..=20u64 {
            assert_eq!(e.call("f", &[k, 1]).unwrap(), 2 * k);
        }
        for k in 1..=20u64 {
            assert_eq!(e.call("f", &[k, 2]).unwrap(), 3 * k);
        }
        let r = e.region_report(0);
        assert_eq!(r.stitches, 20);
        assert_eq!(r.evictions, 0);
    }

    #[test]
    fn capacity_does_not_affect_unkeyed_regions() {
        let src = r#"
            int g(int k, int x) {
                dynamicRegion (k) { return k + x; }
            }
        "#;
        let p = Arc::new(Compiler::new().compile(src).unwrap());
        let mut e = Session::with_options(
            p,
            EngineOptions {
                keyed_cache_capacity: Some(1),
                ..EngineOptions::default()
            },
        );
        for x in 0..5u64 {
            assert_eq!(e.call("g", &[7, x]).unwrap(), 7 + x);
        }
        let r = e.region_report(0);
        assert_eq!(r.stitches, 1, "unkeyed entry is patched to a direct branch");
        assert_eq!(r.evictions, 0);
    }
}

#[test]
fn stitched_instances_expose_final_code() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) { return k + x; }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    assert!(e.stitched_instances(0).is_empty(), "nothing stitched yet");
    e.call("f", &[5, 1]).unwrap();
    e.call("f", &[9, 1]).unwrap();
    e.call("f", &[5, 2]).unwrap(); // cache hit, no new instance
    let insts = e.stitched_instances(0);
    assert_eq!(insts.len(), 2);
    assert_eq!(insts[0].0, &[5]);
    assert_eq!(insts[1].0, &[9]);
    for (_, code) in &insts {
        assert!(!code.is_empty());
        // Every instance must disassemble cleanly.
        let lines = dyncomp_machine::disasm::disassemble(code, 0);
        assert!(!lines.is_empty());
        assert!(
            lines.iter().all(|l| !l.text.contains("??")),
            "undecodable word"
        );
    }
}

#[test]
fn bounded_cache_is_semantically_transparent() {
    // Any capacity must produce the same results as the unbounded cache on
    // any key sequence — eviction only costs time, never correctness.
    let src = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) {
                return k * k * x - 7 * k + x;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut rng = 0x2545F4914F6CDD1Du64;
    let mut step = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let seq: Vec<(u64, u64)> = (0..120).map(|_| (step() % 6 + 1, step() % 50)).collect();
    let expect: Vec<u64> = {
        let mut e = Session::new(Arc::clone(&p));
        seq.iter()
            .map(|&(k, x)| e.call("f", &[k, x]).unwrap())
            .collect()
    };
    for cap in [1usize, 2, 3, 5, 64] {
        let mut e = Session::with_options(
            Arc::clone(&p),
            crate::EngineOptions {
                keyed_cache_capacity: Some(cap),
                ..crate::EngineOptions::default()
            },
        );
        let got: Vec<u64> = seq
            .iter()
            .map(|&(k, x)| e.call("f", &[k, x]).unwrap())
            .collect();
        assert_eq!(got, expect, "capacity {cap} diverged");
        let r = e.region_report(0);
        assert!(r.stitches as u64 <= r.invocations);
        if cap >= 6 {
            assert_eq!(r.evictions, 0, "working set fits, capacity {cap}");
            assert_eq!(r.stitches, 6);
        }
    }
}

// ---- artifact/session split -------------------------------------------

/// The compile artifact and sessions are thread-shareable.
#[test]
fn program_and_session_are_thread_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::Program>();
    assert_send_sync::<crate::Session>();
}

/// Regression: a faulting frame-slot read during key extraction used to be
/// silently mapped to key 0 (`unwrap_or(0)`), aliasing distinct cache
/// entries on bad stack state. It must propagate as an error.
#[test]
fn faulting_frame_key_read_is_an_error_not_key_zero() {
    use dyncomp_machine::isa::SP;
    use dyncomp_machine::template::ValueLoc;

    let p = Arc::new(
        Compiler::new()
            .compile("int f(int x) { return x; }")
            .unwrap(),
    );
    let mut e = Session::new(p);
    e.vm.set_reg(SP, u64::MAX - 1024); // wild stack pointer
    let err = e.read_key(&[ValueLoc::Frame(0)]);
    assert!(err.is_err(), "fault must not alias to key 0");
    assert!(
        matches!(err, Err(crate::Error::Vm(_))),
        "fault surfaces as a VM error"
    );
    // A healthy stack still reads fine.
    e.vm.set_reg(SP, 1024);
    assert!(e.read_key(&[ValueLoc::Frame(0)]).is_ok());
}

/// Keyed cross-session reuse: a second session over the same program and
/// shared cache installs the first session's instances — zero stitches,
/// one shared hit per distinct key, identical results.
#[test]
fn shared_cache_reuses_keyed_instances_across_sessions() {
    use std::sync::Arc;

    let src = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) {
                return k * x * x + k;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let cache = Arc::new(crate::SharedCodeCache::default());
    let opts = || crate::EngineOptions {
        shared_cache: Some(Arc::clone(&cache)),
        ..crate::EngineOptions::default()
    };

    let mut a = crate::Session::with_options(Arc::clone(&p), opts());
    let want: Vec<u64> = [(3u64, 10u64), (5, 10), (3, 2), (5, 2)]
        .iter()
        .map(|&(k, x)| a.call("f", &[k, x]).unwrap())
        .collect();
    let ra = a.region_report(0);
    assert_eq!(ra.stitches, 2, "one stitch per distinct key");
    assert_eq!(ra.shared_hits, 0, "first session populated the cache");
    assert_eq!(cache.stats().insertions, 2);

    let mut b = crate::Session::with_options(Arc::clone(&p), opts());
    let got: Vec<u64> = [(3u64, 10u64), (5, 10), (3, 2), (5, 2)]
        .iter()
        .map(|&(k, x)| b.call("f", &[k, x]).unwrap())
        .collect();
    assert_eq!(got, want, "reused code computes identical results");
    let rb = b.region_report(0);
    assert_eq!(rb.stitches, 0, "second session never stitches");
    assert_eq!(rb.shared_hits, 2, "one install per distinct key");

    // The installed instances are identical up to relocation: same
    // program and install addresses, so only linearized-table address
    // words may differ (session B's table lives at a different brk —
    // it never ran set-up code).
    for idx in 0..2 {
        let ca = a.stitched_instances(0)[idx].1;
        let cb = b.stitched_instances(0)[idx].1;
        assert_eq!(ca.len(), cb.len(), "instance {idx} length differs");
        let diffs = ca.iter().zip(cb).filter(|(x, y)| x != y).count();
        assert!(
            diffs <= 1,
            "instance {idx}: {diffs} words differ (only the table address may)"
        );
    }
}

/// Unkeyed regions also reuse across sessions, and the installing session
/// still retires its EnterRegion trap (later calls bypass the runtime).
#[test]
fn shared_cache_reuses_unkeyed_instances_and_patches_trap() {
    use std::sync::Arc;

    let src = r#"
        int poly(int c, int x) {
            dynamicRegion (c) {
                return c * x * x + c * x + c;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let cache = Arc::new(crate::SharedCodeCache::default());
    let opts = || crate::EngineOptions {
        shared_cache: Some(Arc::clone(&cache)),
        ..crate::EngineOptions::default()
    };

    let mut a = crate::Session::with_options(Arc::clone(&p), opts());
    assert_eq!(a.call("poly", &[3, 10]).unwrap(), 333);

    let mut b = crate::Session::with_options(Arc::clone(&p), opts());
    assert_eq!(b.call("poly", &[3, 10]).unwrap(), 333);
    assert_eq!(b.call("poly", &[3, 1]).unwrap(), 9);
    let rb = b.region_report(0);
    assert_eq!(rb.stitches, 0);
    assert_eq!(rb.shared_hits, 1);
    // The trap was patched after the install: only the first call trapped.
    assert_eq!(rb.invocations, 1);
}

/// Regression test: two sessions specializing the same *unkeyed* region
/// to different run-time constants must never serve each other's code.
/// The shared cache files unkeyed instances under the empty key, so
/// before the read-validated install existed, session B would receive
/// session A's instance (stitched for c=4) and silently compute A's
/// polynomial — the bug the multi-tenant server's checksum gate caught.
#[test]
fn shared_cache_never_aliases_unkeyed_instances_with_different_constants() {
    use std::sync::Arc;

    let src = r#"
        int poly(int c, int x) {
            dynamicRegion (c) {
                return c * x * x + c * x + c;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let cache = Arc::new(crate::SharedCodeCache::default());
    let opts = || crate::EngineOptions {
        shared_cache: Some(Arc::clone(&cache)),
        ..crate::EngineOptions::default()
    };

    let mut a = crate::Session::with_options(Arc::clone(&p), opts());
    assert_eq!(a.call("poly", &[4, 10]).unwrap(), 444);
    assert_eq!(cache.len(), 1, "A published its instance");

    // B's set-up produces c=8; replaying A's recorded table reads against
    // B's memory sees 8 where A stitched 4, so the probe must miss and B
    // must stitch its own (correct) instance.
    let mut b = crate::Session::with_options(Arc::clone(&p), opts());
    assert_eq!(b.call("poly", &[8, 10]).unwrap(), 888);
    let rb = b.region_report(0);
    assert_eq!(rb.shared_hits, 0, "A's instance must not be reused");
    assert_eq!(rb.stitches, 1, "B stitched for itself");

    // B's publish replaced A's entry under the empty key; a third session
    // matching B's constants validates successfully and reuses it.
    let mut c = crate::Session::with_options(Arc::clone(&p), opts());
    assert_eq!(c.call("poly", &[8, 10]).unwrap(), 888);
    let rc = c.region_report(0);
    assert_eq!(rc.stitches, 0, "C validated and reused B's instance");
    assert_eq!(rc.shared_hits, 1);
}

/// With the shared cache the cheaper install path shows up in the cycle
/// accounting: the reusing session is strictly faster than the stitching
/// one, and default-mode accounting is untouched. Keyed region: the key
/// is the instance's identity, so the reusing session skips set-up *and*
/// stitching. (Unkeyed regions still pay set-up plus the read-replay
/// validation before installing, so for a region this small their reuse
/// path is not guaranteed cheaper — sharing pays off there with region
/// size, not unconditionally.)
#[test]
fn shared_install_is_cheaper_than_stitching() {
    use std::sync::Arc;

    let src = r#"
        int poly(int c, int x) {
            dynamicRegion key(c) (c) {
                return c * x * x + c * x + c;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());

    // Default mode: two sessions over one program account identically.
    let mut plain = crate::Session::new(Arc::clone(&p));
    plain.call("poly", &[3, 10]).unwrap();
    let mut again = Session::new(Arc::clone(&p));
    again.call("poly", &[3, 10]).unwrap();
    assert_eq!(plain.cycles(), again.cycles());

    let cache = Arc::new(crate::SharedCodeCache::default());
    let opts = || crate::EngineOptions {
        shared_cache: Some(Arc::clone(&cache)),
        ..crate::EngineOptions::default()
    };
    let mut first = crate::Session::with_options(Arc::clone(&p), opts());
    first.call("poly", &[3, 10]).unwrap();
    let mut second = crate::Session::with_options(Arc::clone(&p), opts());
    second.call("poly", &[3, 10]).unwrap();
    assert!(
        second.cycles() < first.cycles(),
        "install ({}) should be cheaper than set-up + stitch ({})",
        second.cycles(),
        first.cycles()
    );
}

/// The copy-install core's two refusals, driven through every caller
/// that probes a cache: a corrupted instance (one instruction-start word
/// flipped to a value nothing decodes) and an unrelocatable one (a
/// linearized table that cannot fit in the session's memory) are planted
/// in the shared and in the persistent cache, for a keyed region (probed
/// at the trap) and an unkeyed one (probed after set-up). Every cell must
/// record exactly one typed health entry, install nothing from the cache,
/// stitch locally, and return the fault-free result.
#[test]
fn refused_cached_instances_degrade_to_a_local_stitch() {
    use crate::{
        EngineOptions, EventKind, FailureKind, PersistentCache, SharedCodeCache, SharedKey,
    };
    use std::sync::Arc;

    const MEMORY: usize = 1 << 16;
    let root = std::env::temp_dir().join(format!("dyncomp-refused-{}", std::process::id()));
    for keyed in [true, false] {
        let annotation = if keyed { "key(c) (c)" } else { "(c)" };
        let src = format!(
            "int f(int c, int x) {{ dynamicRegion {annotation} {{ return c * x * x + c * x + c; }} }}"
        );
        let p = Arc::new(Compiler::new().compile(&src).unwrap());
        let key: Vec<u64> = if keyed { vec![3] } else { Vec::new() };
        let shared_key = SharedKey {
            program: p.id(),
            region: 0,
            key: key.clone(),
        };
        let options = || EngineOptions {
            memory_bytes: MEMORY,
            trace: true,
            ..EngineOptions::default()
        };

        // A fault-free donor publishes the instance the cells doctor.
        let donor_cache = Arc::new(SharedCodeCache::default());
        let mut donor = Session::with_options(
            Arc::clone(&p),
            EngineOptions {
                shared_cache: Some(Arc::clone(&donor_cache)),
                ..options()
            },
        );
        let want = donor.call("f", &[3, 10]).unwrap();
        let good = donor_cache.lookup(&shared_key).expect("donor published");

        for corrupt in [true, false] {
            let mut bad = (*good).clone();
            if corrupt {
                bad.code[0] = 0xFF00_0000;
            } else {
                bad.lin_words = vec![0; MEMORY];
            }
            for shared in [true, false] {
                let cell = format!("keyed={keyed} corrupt={corrupt} shared={shared}");
                let mut opts = options();
                let dir = root.join(cell.replace(' ', "-"));
                let expect = if shared {
                    let cache = Arc::new(SharedCodeCache::default());
                    cache.insert(shared_key.clone(), Arc::new(bad.clone()));
                    opts.shared_cache = Some(cache);
                    if corrupt {
                        FailureKind::Verify
                    } else {
                        FailureKind::SharedCache
                    }
                } else {
                    let cache = Arc::new(PersistentCache::open(&dir).unwrap());
                    cache.store_instance(p.artifact_hash(), 0, &key, &bad, 0, None, false);
                    opts.persist = Some(cache);
                    FailureKind::Persist
                };

                let mut s = Session::with_options(Arc::clone(&p), opts);
                assert_eq!(s.call("f", &[3, 10]).unwrap(), want, "{cell}");
                assert_eq!(s.call("f", &[3, 7]).unwrap(), 3 * 49 + 3 * 7 + 3, "{cell}");

                let r = s.region_report(0);
                assert_eq!(
                    (r.stitches, r.shared_hits, r.persist_hits),
                    (1, 0, 0),
                    "{cell}"
                );
                assert_eq!(r.persist_rejects, u64::from(!shared), "{cell}");
                assert_eq!(
                    s.stitched_instances(0).len(),
                    1,
                    "{cell}: one local instance"
                );
                let health = s.health();
                assert_eq!(health.failures.len(), 1, "{cell}: {:?}", health.failures);
                let rec = &health.failures[0];
                assert_eq!((rec.kind, rec.injected), (expect, false), "{cell}");
                let what = if corrupt {
                    "rejected by pre-install verification"
                } else {
                    "failed to relocate"
                };
                assert!(rec.message.contains(what), "{cell}: {}", rec.message);
                let t = s.trace().expect("tracing on");
                let rejects = t
                    .events()
                    .filter(|e| matches!(e.kind, EventKind::VerifyReject { region: 0 }))
                    .count();
                assert_eq!(rejects, usize::from(corrupt), "{cell}");
                s.trace_self_check().expect("attribution exact");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
