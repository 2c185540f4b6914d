//! Cross-function dynamic regions: template calls and demand-driven
//! inlining, end to end through the VM.

use dyncomp::{Compiler, Session};
use std::sync::Arc;

const SRC: &str = r#"
    int helper(int a, int b) { return a * b + 3; }
    int poly(int c, int x) {
        dynamicRegion (c) {
            return helper(c, x) + c;
        }
    }
"#;

/// Without inlining, a call inside a dynamic region compiles as a
/// template call to the (region-free) callee.
#[test]
fn template_call_in_region() {
    let p = Arc::new(Compiler::new().compile(SRC).unwrap());
    assert!(p.inline_sites.is_empty());
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("poly", &[3, 10]).unwrap(), 36);
    assert_eq!(e.call("poly", &[3, 4]).unwrap(), 18);
}

/// With inlining enabled, the demand (a run-time-constant argument `c`)
/// pulls the callee body into the region; no call survives and the
/// answers are unchanged.
#[test]
fn demand_driven_inline_in_region() {
    let p = Arc::new(Compiler::with_inline_depth(2).compile(SRC).unwrap());
    assert_eq!(p.inline_sites.len(), 1, "one demanded site");
    let site = &p.inline_sites[0];
    assert_eq!(site.callee_name, "helper");
    assert_eq!(site.depth, 1);
    // The inlined artifact must agree with the non-inlined one.
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("poly", &[3, 10]).unwrap(), 36);
    assert_eq!(e.call("poly", &[3, 4]).unwrap(), 18);
    // And the call really is gone from the region's function.
    let fid = p.module.func_by_name("poly").unwrap();
    let f = &p.module.funcs[fid];
    for (_, blk) in f.iter_blocks() {
        for &i in &blk.insts {
            assert!(
                !matches!(f.kind(i), dyncomp_ir::InstKind::Call { .. }),
                "inlined function still contains a call"
            );
        }
    }
}

/// Nested helpers: round 1 exposes the inner call, round 2 inlines it.
#[test]
fn inline_depth_bounds_nesting() {
    let src = r#"
        int inner(int a) { return a + 1; }
        int outer(int a, int b) { return inner(a) * b; }
        int poly(int c, int x) {
            dynamicRegion (c) {
                return outer(c, x) + c;
            }
        }
    "#;
    // reference: ((c+1)*x) + c, c=3, x=10 -> 43
    let d1 = Arc::new(Compiler::with_inline_depth(1).compile(src).unwrap());
    assert_eq!(d1.inline_sites.len(), 1, "depth 1 stops at `outer`");
    let d2 = Arc::new(Compiler::with_inline_depth(2).compile(src).unwrap());
    assert_eq!(d2.inline_sites.len(), 2, "depth 2 reaches `inner`");
    assert_eq!(d2.inline_sites[1].callee_name, "inner");
    assert_eq!(d2.inline_sites[1].depth, 2);
    for p in [&d1, &d2] {
        let mut e = Session::new(Arc::clone(p));
        assert_eq!(e.call("poly", &[3, 10]).unwrap(), 43);
    }
}

/// A call with no run-time-constant argument creates no demand: it stays
/// a template call even with inlining enabled.
#[test]
fn no_demand_no_inline() {
    let src = r#"
        int helper(int a) { return a + 7; }
        int poly(int c, int x) {
            dynamicRegion (c) {
                return helper(x) * c;
            }
        }
    "#;
    let p = Arc::new(Compiler::with_inline_depth(3).compile(src).unwrap());
    assert!(p.inline_sites.is_empty(), "no constant argument, no demand");
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("poly", &[3, 10]).unwrap(), 51);
}

/// Calls outside any region are never touched by the pass.
#[test]
fn calls_outside_regions_untouched() {
    let src = r#"
        int helper(int a) { return a * 2; }
        int main(int c) {
            int y = helper(c);
            dynamicRegion (c) {
                return y + c;
            }
        }
    "#;
    let p = Arc::new(Compiler::with_inline_depth(3).compile(src).unwrap());
    assert!(p.inline_sites.is_empty());
    let mut e = Session::new(Arc::clone(&p));
    assert_eq!(e.call("main", &[5]).unwrap(), 15);
}
