//! End-to-end front-end tests: compile MiniC, run in the reference
//! interpreter, check results; verify SSA-converted output.

use crate::{compile, LowerOptions};
use dyncomp_ir::eval::{EvalOutcome, Evaluator};
use dyncomp_ir::{FuncId, Module};

fn build(src: &str) -> Module {
    compile(src, &LowerOptions::default())
        .expect("compiles")
        .module
}

fn build_ssa(src: &str) -> Module {
    let mut m = build(src);
    for f in m.funcs.iter_mut() {
        dyncomp_ir::ssa::construct_ssa(f);
        dyncomp_ir::verify::verify(f).expect("verifies");
    }
    m
}

fn run(m: &Module, func: &str, args: &[u64]) -> u64 {
    let fid = m.func_by_name(func).expect("function exists");
    let mut ev = Evaluator::new(m);
    match ev.call(fid, args).expect("runs") {
        EvalOutcome::Return(v) => v.unwrap_or(0),
    }
}

#[test]
fn factorial_iterative() {
    let m =
        build("int fact(int n) { int r = 1; while (n > 1) { r = r * n; n = n - 1; } return r; }");
    assert_eq!(run(&m, "fact", &[6]), 720);
    assert_eq!(run(&m, "fact", &[1]), 1);
    assert_eq!(run(&m, "fact", &[0]), 1);
}

#[test]
fn factorial_recursive() {
    let m = build("int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }");
    assert_eq!(run(&m, "fact", &[10]), 3628800);
}

#[test]
fn for_loop_and_compound_assign() {
    let m =
        build("int tri(int n) { int s = 0; int i; for (i = 1; i <= n; i++) s += i; return s; }");
    assert_eq!(run(&m, "tri", &[10]), 55);
}

#[test]
fn do_while_runs_at_least_once() {
    let m = build("int f(int n) { int c = 0; do { c++; } while (n-- > 5); return c; }");
    assert_eq!(run(&m, "f", &[0]), 1);
    assert_eq!(run(&m, "f", &[7]), 3);
}

#[test]
fn switch_fallthrough_semantics() {
    let src = r#"
        int classify(int b) {
            int a = 0;
            switch (b) {
                case 1: a = a + 1;
                case 2: a = a + 10; break;
                case 3: a = a + 100; goto out;
                default: a = a + 1000;
            }
            a = a + 10000;
            out: return a;
        }
    "#;
    let m = build(src);
    assert_eq!(run(&m, "classify", &[1]), 10011, "case 1 falls into case 2");
    assert_eq!(run(&m, "classify", &[2]), 10010);
    assert_eq!(run(&m, "classify", &[3]), 100, "goto skips the tail");
    assert_eq!(run(&m, "classify", &[9]), 11000);
}

#[test]
fn goto_loop() {
    let src = r#"
        int f(int n) {
            int s = 0;
            top:
            if (n <= 0) return s;
            s += n;
            n -= 1;
            goto top;
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[4]), 10);
}

#[test]
fn pointers_and_structs() {
    let src = r#"
        struct Node { int val; struct Node *next; };
        int sum(struct Node *head) {
            int s = 0;
            while (head) { s += head->val; head = head->next; }
            return s;
        }
    "#;
    let m = build_ssa(src);
    let fid = m.func_by_name("sum").unwrap();
    let mut ev = Evaluator::new(&m);
    // Build 3 -> 4 -> 5 in memory.
    let n3 = ev.mem.alloc(16).unwrap();
    let n4 = ev.mem.alloc(16).unwrap();
    let n5 = ev.mem.alloc(16).unwrap();
    ev.mem.write_u64(n3, 3).unwrap();
    ev.mem.write_u64(n3 + 8, n4).unwrap();
    ev.mem.write_u64(n4, 4).unwrap();
    ev.mem.write_u64(n4 + 8, n5).unwrap();
    ev.mem.write_u64(n5, 5).unwrap();
    ev.mem.write_u64(n5 + 8, 0).unwrap();
    assert_eq!(ev.call(fid, &[n3]).unwrap(), EvalOutcome::Return(Some(12)));
}

#[test]
fn global_arrays_and_indexing() {
    let src = r#"
        int tbl[5] = {2, 3, 5, 7, 11};
        int nth(int i) { return tbl[i]; }
        int total() {
            int s = 0;
            int i;
            for (i = 0; i < 5; i++) s += tbl[i];
            return s;
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "nth", &[3]), 7);
    assert_eq!(run(&m, "total", &[]), 28);
}

#[test]
fn local_array_is_frame_allocated() {
    let src = r#"
        int f(int n) {
            int buf[8];
            int i;
            for (i = 0; i < 8; i++) buf[i] = i * n;
            return buf[3] + buf[7];
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[2]), 6 + 14);
}

#[test]
fn address_of_local() {
    let src = r#"
        void bump(int *p) { *p = *p + 1; }
        int f(int x) { int v = x; bump(&v); bump(&v); return v; }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[5]), 7);
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    let src = r#"
        int hits = 0;
        int touch() { hits = hits + 1; return 1; }
        int f(int a) {
            int r = a && touch();
            return hits * 10 + r;
        }
        int g(int a) {
            int r = a || touch();
            return hits * 10 + r;
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[0]), 0, "&& short-circuits");
    assert_eq!(
        run(&m, "f", &[3]),
        11,
        "&& evaluates rhs and normalizes to 1"
    );
    assert_eq!(run(&m, "g", &[5]), 1, "|| short-circuits");
    assert_eq!(run(&m, "g", &[0]), 11);
}

#[test]
fn ternary_and_unary_ops() {
    let m = build_ssa("int f(int a, int b) { return (a > b ? a : b) + !a + ~0 + -b; }");
    // a=3,b=5: max=5, !3=0, ~0=-1, -5 => 5+0-1-5 = -1
    assert_eq!(run(&m, "f", &[3, 5]) as i64, -1);
}

#[test]
fn unsigned_semantics() {
    let src = r#"
        unsigned du(unsigned a, unsigned b) { return a / b; }
        int lt(unsigned a, unsigned b) { return a < b; }
        unsigned sh(unsigned a) { return a >> 1; }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "du", &[u64::MAX, 2]), u64::MAX / 2);
    assert_eq!(run(&m, "lt", &[u64::MAX, 1]), 0, "unsigned compare");
    assert_eq!(run(&m, "sh", &[u64::MAX]), u64::MAX >> 1, "logical shift");
}

#[test]
fn signed_semantics() {
    let src = "int ds(int a, int b) { return a / b; } int sh(int a) { return a >> 1; }";
    let m = build_ssa(src);
    assert_eq!(run(&m, "ds", &[(-7i64) as u64, 2]) as i64, -3);
    assert_eq!(
        run(&m, "sh", &[(-8i64) as u64]) as i64,
        -4,
        "arithmetic shift"
    );
}

#[test]
fn doubles_and_conversions() {
    let src = r#"
        double scale(double x, int k) { return x * k + 0.5; }
        int trunc_it(double x) { return (int) x; }
        double mean(double a, double b) { return (a + b) / 2.0; }
    "#;
    let m = build_ssa(src);
    let out = run(&m, "scale", &[2.5f64.to_bits(), 4]);
    assert_eq!(f64::from_bits(out), 10.5);
    assert_eq!(run(&m, "trunc_it", &[9.75f64.to_bits()]), 9);
    let out = run(&m, "mean", &[1.0f64.to_bits(), 2.0f64.to_bits()]);
    assert_eq!(f64::from_bits(out), 1.5);
}

#[test]
fn narrow_types_truncate() {
    let src = r#"
        struct B { char c; short s; };
        int f() {
            struct B b;
            b.c = 300;       // truncates to 44
            b.s = 70000;     // truncates to 4464
            return b.c * 100000 + b.s;
        }
        int g(char c) { c = c + 1; return c; }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[]), 44 * 100000 + 4464);
    assert_eq!(run(&m, "g", &[127]) as i64, -128, "char wraps at 127");
}

#[test]
fn pointer_arithmetic_scales() {
    let src = r#"
        int second(int *p) { return *(p + 1); }
        int diff(int *a, int *b) { return b - a; }
    "#;
    let m = build_ssa(src);
    let fid = m.func_by_name("second").unwrap();
    let mut ev = Evaluator::new(&m);
    let arr = ev.mem.alloc(24).unwrap();
    ev.mem.write_u64(arr, 10).unwrap();
    ev.mem.write_u64(arr + 8, 20).unwrap();
    assert_eq!(ev.call(fid, &[arr]).unwrap(), EvalOutcome::Return(Some(20)));
    let fid2 = m.func_by_name("diff").unwrap();
    assert_eq!(
        ev.call(fid2, &[arr, arr + 24]).unwrap(),
        EvalOutcome::Return(Some(3))
    );
}

#[test]
fn intrinsics() {
    let src = r#"
        int f(int a, int b) { return max(a, b) * 100 + min(a, b) + abs(0 - a); }
        double r(double x) { return sqrt(x); }
        int use_alloc(int n) {
            int *p = (int*) alloc(n * 8);
            p[0] = 42; p[1] = 58;
            return p[0] + p[1];
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[3, 9]), 906);
    assert_eq!(f64::from_bits(run(&m, "r", &[16.0f64.to_bits()])), 4.0);
    assert_eq!(run(&m, "use_alloc", &[4]), 100);
}

#[test]
fn region_metadata_recorded() {
    let src = r#"
        int f(int k, int x) {
            int pre = x + 1;
            dynamicRegion key(k) (k) {
                int set;
                int acc = 0;
                unrolled for (set = 0; set < k; set++) { acc += x; }
                return acc + pre;
            }
        }
    "#;
    let lowered = compile(src, &LowerOptions::default()).unwrap();
    let f = &lowered.module.funcs[FuncId(0)];
    assert_eq!(f.regions.len(), 1);
    let r = &f.regions[dyncomp_ir::RegionId(0)];
    assert_eq!(r.const_roots.len(), 1);
    assert_eq!(r.key_roots, r.const_roots);
    assert!(r.blocks.len() >= 4, "region covers loop blocks");
    assert!(r.blocks.contains(r.entry));
    // Exactly one unrolled header, inside the region.
    let headers: Vec<_> = f
        .iter_blocks()
        .filter(|(_, b)| b.unrolled_header)
        .map(|(id, _)| id)
        .collect();
    assert_eq!(headers.len(), 1);
    assert!(r.blocks.contains(headers[0]));
}

#[test]
fn static_mode_ignores_annotations() {
    let src = r#"
        int f(int k, int x) {
            int v = x;
            dynamicRegion (k) {
                int i; int acc = 0;
                unrolled for (i = 0; i < k; i++) acc += dynamic* (&v);
                return acc;
            }
        }
    "#;
    let lowered = compile(
        src,
        &LowerOptions {
            honor_annotations: false,
            tiered_fallback: false,
        },
    )
    .unwrap();
    let f = &lowered.module.funcs[FuncId(0)];
    assert!(f.regions.is_empty());
    assert!(f.iter_blocks().all(|(_, b)| !b.unrolled_header));
    // And it still computes the right thing.
    assert_eq!(run(&lowered.module, "f", &[3, 7]), 21);
}

#[test]
fn dynamic_region_runs_in_reference_interpreter() {
    // Regions without specialization are just code; the evaluator executes
    // them transparently.
    let src = r#"
        int f(int k, int x) {
            dynamicRegion (k) {
                return k * x + k;
            }
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[3, 10]), 33);
}

#[test]
fn annotation_errors() {
    let e = compile(
        "int f(int x) { dynamicRegion (nope) { return x; } }",
        &LowerOptions::default(),
    );
    assert!(e.is_err(), "unknown annotated variable");

    let e = compile(
        "int f() { int a[4]; dynamicRegion (a) { return a[0]; } }",
        &LowerOptions::default(),
    );
    assert!(e.is_err(), "frame-allocated annotated variable");

    let e = compile(
        "int f(int k) { dynamicRegion (k) { dynamicRegion (k) { return k; } } }",
        &LowerOptions::default(),
    );
    assert!(e.is_err(), "nested regions rejected");

    let e = compile(
        "int f(int k) { unrolled for (;;) {} return 0; }",
        &LowerOptions::default(),
    );
    assert!(e.is_err(), "unrolled outside region / without condition");

    let e = compile(
        "int f(int k) { if (k) goto in; dynamicRegion (k) { in: return 1; } return 0; }",
        &LowerOptions::default(),
    );
    assert!(e.is_err(), "goto into a region rejected");
}

#[test]
fn semantic_errors() {
    for (src, what) in [
        ("int f() { return g(); }", "undefined function"),
        ("int f(int x) { return *x; }", "deref of non-pointer"),
        ("int f() { return y; }", "unknown identifier"),
        ("int f() { break; }", "break outside loop"),
        ("int f() { goto nowhere; }", "undefined label"),
        (
            "struct S { int a; }; int f(struct S s) { return s.a; }",
            "struct by value",
        ),
        ("int f(int a) { return max(a); }", "intrinsic arity"),
        ("int f(int a, int b) { return f(a); }", "call arity"),
    ] {
        assert!(
            compile(src, &LowerOptions::default()).is_err(),
            "expected error for: {what}"
        );
    }
}

#[test]
fn call_error_paths_are_typed() {
    use crate::lower::LowerError;
    use crate::FrontendError;

    // Undefined callee: a typed error naming both ends of the edge.
    let e = compile("int f() { return g(7); }", &LowerOptions::default()).unwrap_err();
    match e {
        FrontendError::Lower(LowerError::UndefinedFunction { func, name }) => {
            assert_eq!(func, "f");
            assert_eq!(name, "g");
        }
        other => panic!("expected UndefinedFunction, got {other:?}"),
    }
    // Display keeps the historical message shape.
    let e = compile("int f() { return g(7); }", &LowerOptions::default()).unwrap_err();
    assert!(
        e.to_string().contains("call to undefined function `g`"),
        "{e}"
    );

    // Arity mismatch (forward reference, so the signature comes from the
    // pre-pass that `retype_calls()` later relies on).
    let e = compile(
        "int f(int a) { return h(a, a, a); } int h(int x, int y) { return x + y; }",
        &LowerOptions::default(),
    )
    .unwrap_err();
    match e {
        FrontendError::Lower(LowerError::ArityMismatch {
            func,
            name,
            expected,
            got,
        }) => {
            assert_eq!((func.as_str(), name.as_str()), ("f", "h"));
            assert_eq!((expected, got), (2, 3));
        }
        other => panic!("expected ArityMismatch, got {other:?}"),
    }
}

#[test]
fn retype_calls_is_consistent_after_lowering() {
    // Forward references force the lowerer to retype calls after all
    // functions exist; `verify_module` checks exactly that consistency.
    let src = r#"
        double f(int n) { return half(n) + 1.0; }
        double half(int d) { return d / 2.0; }
        int g() { return count(3); }
        int count(int n) { return n; }
    "#;
    let lowered = compile(src, &LowerOptions::default()).unwrap();
    dyncomp_ir::verify::verify_module(&lowered.module).unwrap();
    // A deliberately staled call type must be rejected.
    let mut m = lowered.module;
    let fid = m.func_by_name("f").unwrap();
    let f = &mut m.funcs[fid];
    for i in f.insts.ids().collect::<Vec<_>>() {
        if matches!(f.kind(i), dyncomp_ir::InstKind::Call { .. }) {
            f.insts[i].ty = dyncomp_ir::Ty::Int; // stale: callee returns Float
        }
    }
    assert!(dyncomp_ir::verify::verify_module(&m).is_err());
}

#[test]
fn all_lowered_functions_pass_ssa_verification() {
    // A grab-bag program exercising most constructs at once.
    let src = r#"
        struct P { int x; int y; double w; };
        int g1 = 7;
        double half(double d) { return d / 2.0; }
        int busy(struct P *p, int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i++) {
                switch (i % 3) {
                    case 0: acc += p->x; break;
                    case 1: acc += p->y;
                    default: acc += g1;
                }
                if (acc > 100 && i < n - 1) continue;
                acc ^= i << 2;
            }
            return acc + (int) half((double) acc);
        }
    "#;
    let _ = build_ssa(src);
}

#[test]
fn cache_lookup_example_compiles_and_runs() {
    // §2's running example, end to end in the reference interpreter
    // (unspecialized semantics).
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
    let m = build_ssa(src);
    let fid = m.func_by_name("cacheLookup").unwrap();
    let mut ev = Evaluator::new(&m);

    // Cache: 4 lines, 16-byte blocks, 2-way.
    let (num_lines, block_size, assoc) = (4u64, 16u64, 2u64);
    let mut set_ptrs = Vec::new();
    for _ in 0..num_lines {
        let mut sets = Vec::new();
        for _ in 0..assoc {
            let s = ev.mem.alloc(8).unwrap();
            ev.mem.write_u64(s, u64::MAX).unwrap(); // empty tag
            sets.push(s);
        }
        let sets_arr = ev.mem.alloc(8 * assoc).unwrap();
        for (i, s) in sets.iter().enumerate() {
            ev.mem.write_u64(sets_arr + 8 * i as u64, *s).unwrap();
        }
        let linerec = ev.mem.alloc(8).unwrap();
        ev.mem.write_u64(linerec, sets_arr).unwrap();
        set_ptrs.push((linerec, sets));
    }
    let lines_arr = ev.mem.alloc(8 * num_lines).unwrap();
    for (i, (l, _)) in set_ptrs.iter().enumerate() {
        ev.mem.write_u64(lines_arr + 8 * i as u64, *l).unwrap();
    }
    let cache = ev.mem.alloc(32).unwrap();
    ev.mem.write_u64(cache, block_size).unwrap();
    ev.mem.write_u64(cache + 8, num_lines).unwrap();
    ev.mem.write_u64(cache + 16, lines_arr).unwrap();
    ev.mem.write_u64(cache + 24, assoc).unwrap();

    let addr = 0x1234u64;
    // Miss first.
    assert_eq!(
        ev.call(fid, &[addr, cache]).unwrap(),
        EvalOutcome::Return(Some(0))
    );
    // Install the tag in the right line's set 1, then hit.
    let tag = addr / (block_size * num_lines);
    let line = (addr / block_size) % num_lines;
    let set1 = set_ptrs[line as usize].1[1];
    ev.mem.write_u64(set1, tag).unwrap();
    assert_eq!(
        ev.call(fid, &[addr, cache]).unwrap(),
        EvalOutcome::Return(Some(1))
    );
}

#[test]
fn do_while_and_continue_inside_region() {
    let src = r#"
        int f(int k, int n) {
            int total = 0;
            dynamicRegion (k) {
                int i = 0;
                do {
                    i++;
                    if (i % 2 == 0) continue;
                    total += k;
                } while (i < n);
            }
            return total;
        }
    "#;
    let m = build_ssa(src);
    // n=5: odd i in 1..=5 -> 3 times k
    assert_eq!(run(&m, "f", &[7, 5]), 21);
    assert_eq!(run(&m, "f", &[7, 0]), 7, "do-while body runs once");
}

#[test]
fn pointer_to_pointer_and_mixed_chains() {
    let src = r#"
        struct Inner { int v; };
        struct Outer { struct Inner *in; struct Outer *next; };
        int chase(struct Outer **start) {
            struct Outer *p = *start;
            int s = 0;
            while (p) {
                s += p->in->v;
                p = p->next;
            }
            return s;
        }
    "#;
    let m = build_ssa(src);
    let fid = m.func_by_name("chase").unwrap();
    let mut ev = Evaluator::new(&m);
    let i1 = ev.mem.alloc(8).unwrap();
    ev.mem.write_u64(i1, 5).unwrap();
    let i2 = ev.mem.alloc(8).unwrap();
    ev.mem.write_u64(i2, 9).unwrap();
    let o2 = ev.mem.alloc(16).unwrap();
    ev.mem.write_u64(o2, i2).unwrap();
    ev.mem.write_u64(o2 + 8, 0).unwrap();
    let o1 = ev.mem.alloc(16).unwrap();
    ev.mem.write_u64(o1, i1).unwrap();
    ev.mem.write_u64(o1 + 8, o2).unwrap();
    let cell = ev.mem.alloc(8).unwrap();
    ev.mem.write_u64(cell, o1).unwrap();
    assert_eq!(
        ev.call(fid, &[cell]).unwrap(),
        EvalOutcome::Return(Some(14))
    );
}

#[test]
fn struct_with_inline_array_field() {
    let src = r#"
        struct Buf { int len; int data[4]; };
        int f(int a, int b) {
            struct Buf buf;
            buf.len = 2;
            buf.data[0] = a;
            buf.data[1] = b;
            int s = 0;
            int i;
            for (i = 0; i < buf.len; i++) s += buf.data[i];
            return s;
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[30, 12]), 42);
}

#[test]
fn nested_struct_member_chain() {
    let src = r#"
        struct P { int x; int y; };
        struct R { struct P lo; struct P hi; };
        int area(int x0, int y0, int x1, int y1) {
            struct R r;
            r.lo.x = x0; r.lo.y = y0;
            r.hi.x = x1; r.hi.y = y1;
            return (r.hi.x - r.lo.x) * (r.hi.y - r.lo.y);
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "area", &[1, 2, 5, 7]), 20);
}

#[test]
fn compound_assignment_on_memory_lvalues() {
    let src = r#"
        struct C { int n; };
        int f(struct C *c, int *arr) {
            c->n += 5;
            arr[1] *= 3;
            arr[c->n % 2] -= 1;
            return c->n + arr[0] + arr[1];
        }
    "#;
    let m = build_ssa(src);
    let fid = m.func_by_name("f").unwrap();
    let mut ev = Evaluator::new(&m);
    let c = ev.mem.alloc(8).unwrap();
    ev.mem.write_u64(c, 2).unwrap();
    let arr = ev.mem.alloc(16).unwrap();
    ev.mem.write_u64(arr, 10).unwrap();
    ev.mem.write_u64(arr + 8, 4).unwrap();
    // c->n = 7; arr[1] = 12; arr[7%2=1] = 11; total = 7 + 10 + 11
    assert_eq!(
        ev.call(fid, &[c, arr]).unwrap(),
        EvalOutcome::Return(Some(28))
    );
}

#[test]
fn hex_literals_and_bit_tricks() {
    let src = r#"
        unsigned popcount8(unsigned v) {
            v = v - ((v >> 1) & 0x55);
            v = (v & 0x33) + ((v >> 2) & 0x33);
            return (v + (v >> 4)) & 0x0F;
        }
    "#;
    let m = build_ssa(src);
    for v in 0..=255u64 {
        assert_eq!(run(&m, "popcount8", &[v]), v.count_ones() as u64, "v={v}");
    }
}

#[test]
fn deeply_nested_switch_in_switch() {
    let src = r#"
        int f(int a, int b) {
            switch (a) {
                case 0:
                    switch (b) {
                        case 0: return 1;
                        default: return 2;
                    }
                case 1: return 3;
                default:
                    switch (b) {
                        case 5: return 4;
                    }
                    return 5;
            }
        }
    "#;
    let m = build_ssa(src);
    assert_eq!(run(&m, "f", &[0, 0]), 1);
    assert_eq!(run(&m, "f", &[0, 9]), 2);
    assert_eq!(run(&m, "f", &[1, 0]), 3);
    assert_eq!(run(&m, "f", &[7, 5]), 4);
    assert_eq!(run(&m, "f", &[7, 6]), 5);
}

#[test]
fn multiple_regions_lower_with_distinct_metadata() {
    let src = r#"
        int f(int a, int b, int x) {
            int r1 = 0;
            int r2 = 0;
            dynamicRegion (a) { r1 = a * x; }
            dynamicRegion key(b) (b) { r2 = b + x; }
            return r1 + r2;
        }
    "#;
    let lowered = compile(src, &LowerOptions::default()).unwrap();
    let f = &lowered.module.funcs[FuncId(0)];
    assert_eq!(f.regions.len(), 2);
    let r0 = &f.regions[dyncomp_ir::RegionId(0)];
    let r1 = &f.regions[dyncomp_ir::RegionId(1)];
    assert!(r0.key_roots.is_empty());
    assert_eq!(r1.key_roots.len(), 1);
    // Region block sets are disjoint.
    for b in r0.blocks.iter() {
        assert!(!r1.blocks.contains(b), "{b} in both regions");
    }
    assert_eq!(run(&lowered.module, "f", &[3, 4, 10]), 30 + 14);
}

#[test]
fn parse_errors_carry_accurate_positions() {
    use crate::FrontendError;
    let src = "int f(int x) {\n    return x +;\n}";
    match compile(src, &LowerOptions::default()) {
        Err(FrontendError::Parse(e)) => {
            assert_eq!(e.line, 2, "{e}");
            assert!(e.col >= 14, "{e}");
        }
        other => panic!("expected parse error, got {other:?}"),
    }

    let src = "int f() {\n  int x = 1;\n  @\n}";
    let e = compile(src, &LowerOptions::default()).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("3:"), "lex error names line 3: {msg}");
}

#[test]
fn error_messages_name_the_problem() {
    let cases = [
        ("int f() { return g(); }", "g"),
        ("int f() { return y; }", "y"),
        ("int f() { goto nowhere; return 0; }", "nowhere"),
        (
            "int f(int x) { dynamicRegion (nope) { return x; } }",
            "nope",
        ),
    ];
    for (src, needle) in cases {
        let msg = compile(src, &LowerOptions::default())
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains(needle),
            "message {msg:?} should mention {needle:?}"
        );
    }
}

/// The four shapes of deep source, each `n` levels deep: parentheses,
/// a chain of prefix operators, a left-deep chain of binary operators
/// (which the parser builds without recursing), and statements nested
/// in one another (blocks, `if`s and `while`s in turn).
fn deep_programs(n: usize) -> [(&'static str, String); 4] {
    let parens = format!(
        "int f(int x) {{ return {}x{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let unary = format!("int f(int x) {{ return {}x; }}", "- ".repeat(n));
    let chain = format!("int f(int x) {{ return x{}; }}", "+x".repeat(n));
    let (mut open, mut close) = (String::new(), String::new());
    for level in (1..n).rev() {
        match level % 3 {
            0 => {
                open.push_str("{ ");
                close.insert_str(0, " }");
            }
            1 => open.push_str("if (x) "),
            _ => open.push_str("while (x < 9) "),
        }
    }
    let stmt = format!("{open}x = x + 1;{close}");
    let stmts = format!("int f(int x) {{ {stmt} return x; }}");
    [
        ("parentheses", parens),
        ("prefix operators", unary),
        ("operator chain", chain),
        ("nested statements", stmts),
    ]
}

/// Run `f` on a thread with a 2 MiB stack: the depth bound must keep
/// every walk of the tree within it, in debug builds too.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no stack overflow")
    })
}

#[test]
fn programs_at_the_nesting_bound_compile_on_a_small_stack() {
    use crate::parser::MAX_NESTING;
    on_small_stack(|| {
        for (shape, src) in deep_programs(MAX_NESTING) {
            let m = compile(&src, &LowerOptions::default())
                .unwrap_or_else(|e| panic!("{shape}: {e}"))
                .module;
            let mut f = m.funcs[FuncId(0)].clone();
            dyncomp_ir::ssa::construct_ssa(&mut f);
            dyncomp_ir::verify::verify(&f).unwrap_or_else(|e| panic!("{shape}: {e}"));
        }
    });
    let chain = on_small_stack(|| build(&deep_programs(MAX_NESTING)[2].1));
    assert_eq!(run(&chain, "f", &[3]), 3 * (MAX_NESTING as u64 + 1));
}

#[test]
fn programs_past_the_nesting_bound_are_positioned_errors() {
    use crate::parser::MAX_NESTING;
    use crate::FrontendError;
    on_small_stack(|| {
        for n in [MAX_NESTING + 1, 100_000] {
            for (shape, src) in deep_programs(n) {
                match compile(&src, &LowerOptions::default()) {
                    Err(FrontendError::Parse(e)) => {
                        assert!(
                            e.msg
                                .contains(&format!("nested more than {MAX_NESTING} levels deep")),
                            "{shape} at {n}: {e}"
                        );
                        assert_eq!(e.line, 1, "{shape} at {n}: {e}");
                        assert!(e.col > MAX_NESTING as u32, "{shape} at {n}: {e}");
                    }
                    other => panic!("{shape} at {n}: expected a parse error, got {other:?}"),
                }
            }
        }
    });
}
