//! Cross-crate integration: multi-function / multi-region programs, keyed
//! code caches under churn, error reporting, and engine behaviors that the
//! per-crate unit tests don't reach.

use dyncomp::{Compiler, Error, Session};
use std::sync::Arc;

#[test]
fn regions_in_several_functions() {
    let src = r#"
        int scale(int s, int x) {
            dynamicRegion (s) { return x * s; }
        }
        int shift(int k, int x) {
            dynamicRegion (k) { return x << k; }
        }
        int both(int s, int k, int x) {
            return scale(s, x) + shift(k, x);
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    assert_eq!(p.region_count(), 2);
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("both", &[3, 2, 10]).unwrap(), 30 + 40);
    assert_eq!(e.call("both", &[3, 2, 5]).unwrap(), 15 + 20);
    assert_eq!(e.region_report(0).stitches, 1);
    assert_eq!(e.region_report(1).stitches, 1);
}

#[test]
fn keyed_cache_under_key_churn() {
    let src = "int f(int k, int x) { dynamicRegion key(k) (k) { return x * k + (k << 2); } }";
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    // Cycle through 6 keys, three passes each; 6 stitches total.
    for pass in 0..3u64 {
        for k in 1..=6u64 {
            let x = 10 + pass;
            assert_eq!(
                e.call("f", &[k, x]).unwrap(),
                x * k + (k << 2),
                "k={k} pass={pass}"
            );
        }
    }
    let r = e.region_report(0);
    assert_eq!(r.stitches, 6);
    assert_eq!(r.invocations, 18);
}

#[test]
fn region_inside_called_function_reused_across_callers() {
    let src = r#"
        int inner(int k, int x) {
            dynamicRegion (k) { return k * x + 1; }
        }
        int caller_a(int k) { return inner(k, 10); }
        int caller_b(int k) { return inner(k, 20); }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    assert_eq!(e.call("caller_a", &[3]).unwrap(), 31);
    assert_eq!(e.call("caller_b", &[3]).unwrap(), 61);
    assert_eq!(
        e.region_report(0).stitches,
        1,
        "one stitch shared by both callers"
    );
}

#[test]
fn dynamic_loop_inside_region_stays_a_loop() {
    // A loop whose bound is dynamic remains in the template; the region
    // still specializes the constant multiplier.
    let src = r#"
        int f(int k, int n) {
            dynamicRegion (k) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) s += i * k;
                return s;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    for n in [0u64, 1, 5, 17] {
        let want: u64 = (0..n).map(|i| i * 4).sum();
        assert_eq!(e.call("f", &[4, n]).unwrap(), want, "n={n}");
    }
    // One stitch despite varying n (n is not a region constant).
    assert_eq!(e.region_report(0).stitches, 1);
}

#[test]
fn error_messages_are_actionable() {
    // Parse error.
    let e = Compiler::new().compile("int f( { }").unwrap_err();
    assert!(matches!(e, Error::Frontend(_)));
    assert!(e.to_string().contains("parse error"), "{e}");

    // Illegal unroll.
    let e = Compiler::new()
        .compile(
            "int f(int k, int n) { dynamicRegion (k) { int i; int s = 0;
              unrolled for (i = 0; i < n; i++) s += k; return s; } }",
        )
        .unwrap_err();
    assert!(matches!(e, Error::Specialize(_)));
    assert!(e.to_string().contains("run-time constant"), "{e}");

    // Unknown function at run time.
    let p = Arc::new(
        Compiler::new()
            .compile("int f(int x) { return x; }")
            .unwrap(),
    );
    let mut engine = Session::new(p);
    let e = engine.call("nope", &[]).unwrap_err();
    assert!(matches!(e, Error::NoSuchFunction(_)));
}

#[test]
fn vm_faults_surface_as_errors() {
    // Null dereference inside a region.
    let src = "int f(int k, int *p) { dynamicRegion (k) { return p dynamic[ 0 ] + k; } }";
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let err = e.call("f", &[1, 0]).unwrap_err();
    assert!(matches!(err, Error::Vm(_)), "{err}");

    // Division by zero in plain code.
    let p2 = Arc::new(
        Compiler::new()
            .compile("int g(int a, int b) { return a / b; }")
            .unwrap(),
    );
    let mut e2 = Session::new(p2);
    assert!(matches!(e2.call("g", &[1, 0]).unwrap_err(), Error::Vm(_)));
}

#[test]
fn program_introspection() {
    let src = "int f(int k, int x) { dynamicRegion key(k) (k) { return k + x; } }";
    let p = Compiler::new().compile(src).unwrap();
    assert!(p.entry_of("f").is_some());
    assert!(p.entry_of("missing").is_none());
    assert_eq!(p.region_count(), 1);
    let rc = &p.compiled.regions[0];
    assert_eq!(rc.key_locs.len(), 1);
    assert!(rc.table_static_len >= 1);
    assert!(!rc.template.code.is_empty() || !rc.template.blocks.is_empty());
    // Spec stats recorded per region.
    assert_eq!(p.spec_stats.len(), 1);
}

#[test]
fn engine_memory_is_usable_before_and_between_calls() {
    let src = r#"
        int sum3(int k, int *p) {
            dynamicRegion (k) {
                return (p dynamic[ 0 ] + p dynamic[ 1 ] + p dynamic[ 2 ]) * k;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let arr = e.heap().array_i64(&[1, 2, 3]).unwrap();
    assert_eq!(e.call("sum3", &[10, arr]).unwrap(), 60);
    // Mutate between calls: dynamic loads see the new values.
    e.heap().put_i64(arr, 100).unwrap();
    assert_eq!(e.call("sum3", &[10, arr]).unwrap(), 1050);
}

#[test]
fn deeply_nested_control_flow_in_region() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                int r = 0;
                if (k > 10) {
                    if (k > 20) {
                        switch (k & 3) {
                            case 0: r = x + 1; break;
                            case 1: r = x + 2; break;
                            default: r = x + 3;
                        }
                    } else {
                        r = x + 4;
                    }
                } else {
                    int i;
                    unrolled for (i = 0; i < k; i++) r += x;
                }
                return r;
            }
        }
    "#;
    let ps = Arc::new(Compiler::static_baseline().compile(src).unwrap());
    let pd = Arc::new(Compiler::new().compile(src).unwrap());
    for k in [0u64, 3, 11, 21, 22, 23, 24] {
        let mut es = Session::new(Arc::clone(&ps));
        let mut ed = Session::new(Arc::clone(&pd));
        for x in [0u64, 9] {
            assert_eq!(
                es.call("f", &[k, x]).unwrap(),
                ed.call("f", &[k, x]).unwrap(),
                "k={k} x={x}"
            );
        }
    }
}

#[test]
fn hundred_iteration_unroll() {
    // Stress complete unrolling: 100 stitched copies.
    let src = r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                int s = 0;
                int i;
                unrolled for (i = 0; i < k; i++) { s += x ^ i; }
                return s;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let want: u64 = (0..100u64).map(|i| 7 ^ i).sum();
    assert_eq!(e.call("f", &[100, 7]).unwrap(), want);
    let r = e.region_report(0);
    assert_eq!(r.stitch_stats.loop_iterations, 100);
    assert!(r.instructions_stitched > 300, "100 unrolled bodies");
    // Re-run uses the cached 100-copy code.
    assert_eq!(
        e.call("f", &[100, 9]).unwrap(),
        (0..100u64).map(|i| 9 ^ i).sum()
    );
}

#[test]
fn nested_unrolled_loops_stitch_fully() {
    // A constant "multiplication table" walked by two nested unrolled
    // loops: both trip counts and every table entry fold into the
    // stitched code; only `x` stays live.
    let src = r#"
        int weigh(int *w, int rows, int cols, int x) {
            dynamicRegion (w, rows, cols) {
                int acc = 0;
                int i;
                int j;
                unrolled for (i = 0; i < rows; i++) {
                    unrolled for (j = 0; j < cols; j++) {
                        acc += w[i * cols + j] * x;
                    }
                }
                return acc;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let w: Vec<i64> = (1..=12).collect(); // 3x4
    let sum: i64 = w.iter().sum();
    let addr = e.heap().array_i64(&w).unwrap();
    assert_eq!(e.call("weigh", &[addr, 3, 4, 2]).unwrap() as i64, 2 * sum);
    assert_eq!(e.call("weigh", &[addr, 3, 4, 5]).unwrap() as i64, 5 * sum);
    let r = e.region_report(0);
    assert_eq!(
        r.stitch_stats.loop_iterations,
        3 + 12,
        "3 outer + 3*4 inner iterations unrolled"
    );
}

#[test]
fn unrolled_loop_with_continue_and_break() {
    // `continue` on a per-iteration constant predicate; `break` on a
    // dynamic one. The stitcher resolves the former, the latter remains a
    // real branch in every unrolled copy.
    let src = r#"
        int pick(int *tab, int n, int limit) {
            dynamicRegion (tab, n) {
                int sum = 0;
                int i;
                unrolled for (i = 0; i < n; i++) {
                    if (tab[i] == 0) continue;      /* constant per copy */
                    if (sum > limit) break;         /* dynamic */
                    sum += tab[i];
                }
                return sum;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let tab = e.heap().array_i64(&[5, 0, 7, 0, 11, 13]).unwrap();
    // Host reference.
    let host = |limit: i64| {
        let t = [5i64, 0, 7, 0, 11, 13];
        let mut sum = 0;
        for &v in &t {
            if v == 0 {
                continue;
            }
            if sum > limit {
                break;
            }
            sum += v;
        }
        sum
    };
    for limit in [0i64, 4, 11, 22, 100] {
        assert_eq!(
            e.call("pick", &[tab, 6, limit as u64]).unwrap() as i64,
            host(limit),
            "limit={limit}"
        );
    }
}

#[test]
fn switch_on_per_iteration_constant_inside_unrolled_loop() {
    // The dispatcher pattern in miniature: a constant opcode stream where
    // each unrolled copy keeps exactly one switch arm.
    let src = r#"
        int run(int *ops, int n, int x) {
            dynamicRegion (ops, n) {
                int acc = x;
                int i;
                unrolled for (i = 0; i < n; i++) {
                    switch (ops[i]) {
                        case 0: acc += 3; break;
                        case 1: acc *= 2; break;
                        case 2: acc -= 1; break;
                        default: acc = acc ^ 255; break;
                    }
                }
                return acc;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let ops = e.heap().array_i64(&[0, 1, 2, 9, 1]).unwrap();
    let host = |x: i64| {
        let mut acc = x;
        for op in [0i64, 1, 2, 9, 1] {
            match op {
                0 => acc += 3,
                1 => acc *= 2,
                2 => acc -= 1,
                _ => acc ^= 255,
            }
        }
        acc
    };
    for x in [0i64, 1, 7, -4, 1000] {
        assert_eq!(
            e.call("run", &[ops, 5, x as u64]).unwrap() as i64,
            host(x),
            "x={x}"
        );
    }
    // All five switches resolved at stitch time.
    let r = e.region_report(0);
    assert!(
        r.stitch_stats.const_branches_resolved >= 5,
        "{:?}",
        r.stitch_stats
    );
}

#[test]
fn float_region_end_to_end() {
    let src = r#"
        double axpy(double *a, int n, double *x, double *y) {
            dynamicRegion (a, n) {
                double acc = 0.0;
                int i;
                unrolled for (i = 0; i < n; i++) {
                    acc += a[i] * x[i] + y[i];
                }
                return acc;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    let a = e.heap().array_f64(&[0.5, -1.25, 2.0]).unwrap();
    let x = e.heap().array_f64(&[4.0, 2.0, 1.5]).unwrap();
    let y = e.heap().array_f64(&[1.0, 1.0, 1.0]).unwrap();
    let expect = 0.5 * 4.0 + 1.0 + (-1.25) * 2.0 + 1.0 + 2.0 * 1.5 + 1.0;
    assert_eq!(e.call_f("axpy", &[a, 3, x, y]).unwrap(), expect);
    // Warm call, same instance.
    assert_eq!(e.call_f("axpy", &[a, 3, x, y]).unwrap(), expect);
    assert_eq!(e.region_report(0).stitches, 1);
}

#[test]
fn goto_based_state_machine_in_region() {
    // Unstructured control flow through a region — the reason the paper
    // works on CFGs. A constant mode selects among goto-connected states.
    let src = r#"
        int machine(int mode, int x) {
            dynamicRegion (mode) {
                int acc = 0;
                if (mode == 0) goto fast;
                if (mode == 1) goto slow;
                goto out;
              fast:
                acc = x * 2;
                goto out;
              slow:
                acc = x + 1;
                if (x > 10) goto fast;
              out:
                return acc;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    for mode in 0..3u64 {
        let mut e = Session::new(Arc::clone(&p));
        for x in [0u64, 5, 20] {
            let expect = match mode {
                0 => x * 2,
                1 => {
                    if x > 10 {
                        x * 2
                    } else {
                        x + 1
                    }
                }
                _ => 0,
            };
            assert_eq!(
                e.call("machine", &[mode, x]).unwrap(),
                expect,
                "mode={mode} x={x}"
            );
        }
        // The mode tests are constant: the stitched code starts past them.
        let r = e.region_report(0);
        assert!(
            r.stitch_stats.const_branches_resolved >= 1,
            "mode {mode}: {:?}",
            r.stitch_stats
        );
    }
}

#[test]
fn dynamic_switch_in_region_compiles_to_machine_code() {
    // A switch whose selector is NOT a run-time constant has no template
    // directive form; the compiler lowers it to a compare chain inside the
    // template (constant switches keep their CONST_SWITCH directive).
    let src = r#"
        int tariff(int rate, int class) {
            dynamicRegion (rate) {
                int fee;
                switch (class) {
                    case 0: fee = rate; break;
                    case 1: fee = rate * 2; break;
                    case 2: fee = rate * 5; break;
                    default: fee = rate * 10; break;
                }
                return fee + class;
            }
        }
    "#;
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    let mut e = Session::new(p);
    for class in 0..5u64 {
        let expect = match class {
            0 => 7,
            1 => 14,
            2 => 35,
            _ => 70,
        } + class;
        assert_eq!(
            e.call("tariff", &[7, class]).unwrap(),
            expect,
            "class={class}"
        );
    }
    assert_eq!(e.region_report(0).stitches, 1);
}

/// Compile `src` with annotations honored and call `f(args)`.
fn run_f(src: &str, args: &[u64]) -> u64 {
    let p = Arc::new(Compiler::new().compile(src).unwrap());
    Session::new(p).call("f", args).unwrap()
}

// A declaration with several declarators declares every name in the
// enclosing scope, like one declaration per name.

#[test]
fn several_declarators_in_a_function_body() {
    let src = "int f(int x) { int a = 1, b = 2; return a + b + x; }";
    assert_eq!(run_f(src, &[3]), 6);
}

#[test]
fn several_declarators_in_a_nested_block() {
    let src = "int f(int x) { int r = 0; if (x) { int a = x, b = a * 2; r = a + b; } return r; }";
    assert_eq!(run_f(src, &[5]), 15);
    assert_eq!(run_f(src, &[0]), 0);
}

#[test]
fn several_declarators_in_a_for_initializer() {
    let src = "int f(int x) { int s = 0; \
               for (int i = 0, j = x; i < j; i = i + 1) { s = s + i + j; } return s; }";
    // i = 0..3, j = 4: (0 + 1 + 2 + 3) + 4 * 4.
    assert_eq!(run_f(src, &[4]), 22);
    assert_eq!(run_f(src, &[0]), 0);
}
