//! Tests reproducing the worked examples of §3.1 and Appendix A.

use crate::cond::Literal;
use crate::rtc::{analyze_region, AnalysisConfig};
use crate::unroll::{check_unrollable, UnrollError};
use dyncomp_ir::dom::DomTree;
use dyncomp_ir::loops::find_loops;
use dyncomp_ir::{
    BinOp, BlockId, DynRegion, Function, IdSet, InstId, InstKind, MemSize, RegionId, Signedness,
    Terminator, Ty,
};

fn cfg() -> AnalysisConfig {
    AnalysisConfig::default()
}

/// Make all current blocks (except the entry) a region with the given
/// roots; the region entry is `entry`.
fn region_over(
    f: &mut Function,
    entry: BlockId,
    blocks: &[BlockId],
    roots: Vec<InstId>,
) -> RegionIdWrap {
    let region = f.regions.push(DynRegion {
        entry,
        blocks: blocks.iter().copied().collect::<IdSet<_>>(),
        const_roots: roots,
        key_roots: vec![],
    });
    f.is_ssa = true;
    RegionIdWrap(region)
}

struct RegionIdWrap(RegionId);

/// §3.1, first diagram: `if (test) x=1 else x=2` with **non-constant**
/// test — the φ after the merge is not a run-time constant even though
/// both reaching definitions are.
#[test]
fn nonconstant_test_kills_merge() {
    let mut f = Function::new("m1", vec![Ty::Int], Ty::Int);
    let e = f.entry;
    let body = f.add_block();
    let t = f.add_block();
    let el = f.add_block();
    let j = f.add_block();
    let test = f.append(e, InstKind::Param(0));
    f.blocks[e].term = Terminator::Jump(body);
    f.blocks[body].term = Terminator::Branch {
        cond: test,
        then_b: t,
        else_b: el,
    };
    let x1 = f.const_int(t, 1);
    f.blocks[t].term = Terminator::Jump(j);
    let x2 = f.const_int(el, 2);
    f.blocks[el].term = Terminator::Jump(j);
    let x3 = f.append(j, InstKind::Phi(vec![(t, x1), (el, x2)]));
    f.blocks[j].term = Terminator::Return(Some(x3));

    // test is NOT a root: it is a dynamic value.
    let r = region_over(&mut f, body, &[body, t, el, j], vec![]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(a.is_const(x1), "x1 := 1 is a compile-time constant");
    assert!(a.is_const(x2));
    assert!(!a.is_const(x3), "φ at a non-constant merge is not constant");
    assert!(!a.const_merges.contains(j));
    assert!(!a.const_branches.contains(body));
}

/// §3.1, second diagram: same graph but `test` **is** a constant — the
/// merge is constant (mutually exclusive reachability) and x3 is constant.
#[test]
fn constant_test_makes_merge_constant() {
    let mut f = Function::new("m2", vec![Ty::Int], Ty::Int);
    let e = f.entry;
    let body = f.add_block();
    let t = f.add_block();
    let el = f.add_block();
    let j = f.add_block();
    let test = f.append(e, InstKind::Param(0));
    f.blocks[e].term = Terminator::Jump(body);
    let t1 = f.append(body, InstKind::Copy(test));
    f.blocks[body].term = Terminator::Branch {
        cond: t1,
        then_b: t,
        else_b: el,
    };
    let x1 = f.const_int(t, 1);
    f.blocks[t].term = Terminator::Jump(j);
    let x2 = f.const_int(el, 2);
    f.blocks[el].term = Terminator::Jump(j);
    let x3 = f.append(j, InstKind::Phi(vec![(t, x1), (el, x2)]));
    f.blocks[j].term = Terminator::Return(Some(x3));

    let r = region_over(&mut f, body, &[body, t, el, j], vec![test]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(a.is_const(t1));
    assert!(a.const_branches.contains(body));
    assert!(a.const_merges.contains(j));
    assert!(
        a.is_const(x3),
        "idempotent-φ rule applies at constant merges"
    );
    // Reachability conditions on the arms are the branch literals.
    assert_eq!(
        a.reach[t],
        crate::cond::Cond::literal(Literal {
            branch: body,
            succ: 0
        })
    );
    assert_eq!(
        a.reach[el],
        crate::cond::Cond::literal(Literal {
            branch: body,
            succ: 1
        })
    );
    // After the (covering) merge, the join is plainly reachable again.
    assert!(a.reach[j].is_true());
}

/// Builds the paper's unstructured example:
///
/// ```c
/// if (a) { M }
/// else {
///   switch (b) {
///     case 1: N; /* fall through */
///     case 2: O; break;
///     case 3: P; goto L;
///   }
///   Q;
/// }
/// R;
/// L: ...
/// ```
///
/// Returns (function, region, blocks, φs at the merges O, Q, R, L).
#[allow(clippy::type_complexity)]
fn unstructured_example() -> (
    Function,
    RegionId,
    [BlockId; 8],
    [InstId; 4],
    InstId,
    InstId,
) {
    let mut f = Function::new("unstructured", vec![Ty::Int, Ty::Int], Ty::Int);
    let e = f.entry;
    let top = f.add_block(); // branch on a
    let bm = f.add_block(); // M
    let bsw = f.add_block(); // switch(b)
    let bn = f.add_block(); // N (falls through to O)
    let bo = f.add_block(); // O (merge: from sw case2 and N)
    let bq = f.add_block(); // Q (merge: from O break and sw default)
    let br = f.add_block(); // R (merge: from M and Q)
    let bl = f.add_block(); // L (merge: from R and P-goto)
    let bp = f.add_block(); // P; goto L

    let a = f.append(e, InstKind::Param(0));
    let b = f.append(e, InstKind::Param(1));
    f.blocks[e].term = Terminator::Jump(top);

    let ac = f.append(top, InstKind::Copy(a));
    // A constant available on every path (defined inside the region so the
    // analysis may classify it).
    let zero = f.const_int(top, 0);
    f.blocks[top].term = Terminator::Branch {
        cond: ac,
        then_b: bm,
        else_b: bsw,
    };

    // M: m = 10
    let m = f.const_int(bm, 10);
    f.blocks[bm].term = Terminator::Jump(br);

    // switch(b): 1 -> N, 2 -> O, 3 -> P, default -> Q
    let bc = f.append(bsw, InstKind::Copy(b));
    let swdefault = bq;
    f.blocks[bsw].term = Terminator::Switch {
        val: bc,
        cases: vec![(1, bn), (2, bo), (3, bp)],
        default: swdefault,
    };

    // N: n = 20, falls into O.
    let n = f.const_int(bn, 20);
    f.blocks[bn].term = Terminator::Jump(bo);

    // O merge: phi(from sw: zero, from N: n)
    let phi_o = f.append(bo, InstKind::Phi(vec![(bsw, zero), (bn, n)]));
    f.blocks[bo].term = Terminator::Jump(bq);

    // Q merge: phi(from O: phi_o, from sw default: zero)
    let phi_q = f.append(bq, InstKind::Phi(vec![(bo, phi_o), (bsw, zero)]));
    f.blocks[bq].term = Terminator::Jump(br);

    // R merge: phi(from M: m, from Q: phi_q)
    let phi_r = f.append(br, InstKind::Phi(vec![(bm, m), (bq, phi_q)]));
    f.blocks[br].term = Terminator::Jump(bl);

    // P: p = 30; goto L
    let p = f.const_int(bp, 30);
    f.blocks[bp].term = Terminator::Jump(bl);

    // L merge: phi(from R: phi_r, from P: p)
    let phi_l = f.append(bl, InstKind::Phi(vec![(br, phi_r), (bp, p)]));
    f.blocks[bl].term = Terminator::Return(Some(phi_l));

    let blocks = [top, bm, bsw, bn, bo, bq, br, bl];
    let region = f.regions.push(DynRegion {
        entry: top,
        blocks: blocks.iter().copied().chain([bp]).collect::<IdSet<_>>(),
        const_roots: vec![],
        key_roots: vec![],
    });
    f.is_ssa = true;
    (f, region, blocks, [phi_o, phi_q, phi_r, phi_l], a, b)
}

/// Upper graph of the §3.1 figure: both `a` and `b` constant — every merge
/// is a constant merge and all φs are constants.
#[test]
fn unstructured_all_merges_constant_when_a_and_b_constant() {
    let (mut f, region, blocks, phis, a, b) = unstructured_example();
    f.regions[region].const_roots = vec![a, b];
    let an = analyze_region(&f, region, &cfg());
    let [_top, _bm, _bsw, _bn, bo, bq, br, bl] = blocks;
    assert!(an.const_merges.contains(bo), "O is a constant merge");
    assert!(an.const_merges.contains(bq), "Q is a constant merge");
    assert!(an.const_merges.contains(br), "R is a constant merge");
    assert!(an.const_merges.contains(bl), "L is a constant merge");
    for phi in phis {
        assert!(an.is_const(phi), "{phi} should be constant");
    }
}

/// Lower graph: only `a` constant — exactly the R merge is constant.
#[test]
fn unstructured_only_r_constant_when_only_a_constant() {
    let (mut f, region, blocks, phis, a, _b) = unstructured_example();
    f.regions[region].const_roots = vec![a];
    let an = analyze_region(&f, region, &cfg());
    let [_top, _bm, bsw, _bn, bo, bq, br, bl] = blocks;
    assert!(
        !an.const_branches.contains(bsw),
        "switch on b is not constant"
    );
    assert!(!an.const_merges.contains(bo));
    assert!(!an.const_merges.contains(bq));
    assert!(
        an.const_merges.contains(br),
        "R is still constant: a→T vs a→F"
    );
    assert!(!an.const_merges.contains(bl));
    let [phi_o, phi_q, phi_r, phi_l] = phis;
    assert!(!an.is_const(phi_o));
    assert!(!an.is_const(phi_q));
    // φ_r's operands: m (const) and φ_q (not const) — so φ_r is NOT
    // constant despite the constant merge. The merge classification is
    // what the figure demonstrates.
    assert!(!an.is_const(phi_r));
    assert!(!an.is_const(phi_l));
}

/// Without the reachability analysis (the ablation), the unstructured
/// example finds NO constant merges even with both roots constant.
#[test]
fn ablation_no_reachability_loses_unstructured_merges() {
    let (mut f, region, blocks, phis, a, b) = unstructured_example();
    f.regions[region].const_roots = vec![a, b];
    let an = analyze_region(
        &f,
        region,
        &AnalysisConfig {
            use_reachability: false,
        },
    );
    let [_top, _bm, _bsw, _bn, bo, bq, br, bl] = blocks;
    for m in [bo, bq, br, bl] {
        assert!(!an.const_merges.contains(m));
    }
    for phi in phis {
        assert!(!an.is_const(phi));
    }
}

/// §3.1 unrolled-loop example: `for (p = lst; p != NULL; p = p->next)` —
/// with the header marked `unrolled`, the induction variable φ is constant
/// (each unrolled copy sees a distinct fixed value).
fn pointer_chase(unrolled: bool) -> (Function, RegionId, InstId, InstId, InstId, BlockId) {
    let mut f = Function::new("chase", vec![Ty::Int], Ty::None);
    let e = f.entry;
    let pre = f.add_block();
    let h = f.add_block();
    let body = f.add_block();
    let exit = f.add_block();
    let lst = f.append(e, InstKind::Param(0));
    f.blocks[e].term = Terminator::Jump(pre);
    let p1 = f.append(pre, InstKind::Copy(lst));
    f.blocks[pre].term = Terminator::Jump(h);
    // h: p2 = φ(p1 from pre, p3 from body); t = p2 != 0
    let p2 = f.append(h, InstKind::Phi(vec![(pre, p1)])); // body op patched below
    let null = f.const_int(h, 0);
    let t = f.bin(h, BinOp::CmpNe, p2, null);
    f.blocks[h].term = Terminator::Branch {
        cond: t,
        then_b: body,
        else_b: exit,
    };
    // body: p3 = load [p2 + 8] (the ->next field)
    let eight = f.const_int(body, 8);
    let addr = f.bin(body, BinOp::Add, p2, eight);
    let p3 = f.append(
        body,
        InstKind::Load {
            size: MemSize::B8,
            sign: Signedness::Unsigned,
            addr,
            dynamic: false,
            float: false,
        },
    );
    f.blocks[body].term = Terminator::Jump(h);
    if let InstKind::Phi(ins) = &mut f.insts[p2].kind {
        ins.push((body, p3));
    }
    f.blocks[exit].term = Terminator::Return(None);
    f.blocks[h].unrolled_header = unrolled;

    let region = f.regions.push(DynRegion {
        entry: pre,
        blocks: [pre, h, body, exit].into_iter().collect::<IdSet<_>>(),
        const_roots: vec![lst],
        key_roots: vec![],
    });
    f.is_ssa = true;
    (f, region, p2, p3, t, h)
}

#[test]
fn unrolled_loop_induction_variable_is_constant() {
    let (f, region, p2, p3, t, h) = pointer_chase(true);
    let a = analyze_region(&f, region, &cfg());
    assert!(
        a.const_merges.contains(h),
        "unrolled header is a constant merge by fiat"
    );
    assert!(a.is_const(p2), "φ through the unrolled header is constant");
    assert!(a.is_const(p3), "load through constant pointer is constant");
    assert!(a.is_const(t), "loop-governing test is constant");
    assert!(a.const_branches.contains(h));
}

#[test]
fn non_unrolled_loop_induction_variable_is_not_constant() {
    let (f, region, p2, p3, t, _h) = pointer_chase(false);
    let a = analyze_region(&f, region, &cfg());
    assert!(!a.is_const(p2));
    assert!(!a.is_const(p3));
    assert!(!a.is_const(t));
}

#[test]
fn unrolled_pointer_chase_is_legal_to_unroll() {
    let (f, region, _, _, _, h) = pointer_chase(true);
    let a = analyze_region(&f, region, &cfg());
    let dom = DomTree::compute(&f);
    let forest = find_loops(&f, &dom);
    let l = check_unrollable(&f, region, &a, &forest, h).expect("legal");
    assert_eq!(l.header, h);
    assert_eq!(l.latches.len(), 1);
}

#[test]
fn dynamic_loop_is_illegal_to_unroll() {
    // Same loop but lst is NOT a root: the governing branch is dynamic.
    let (mut f, region, _, _, _, h) = pointer_chase(true);
    f.regions[region].const_roots = vec![];
    let a = analyze_region(&f, region, &cfg());
    let dom = DomTree::compute(&f);
    let forest = find_loops(&f, &dom);
    assert_eq!(
        check_unrollable(&f, region, &a, &forest, h).err(),
        Some(UnrollError::NoConstantGate(h))
    );
}

#[test]
fn unroll_check_rejects_non_loop_header() {
    let (f, region, _, _, _, _) = pointer_chase(true);
    let a = analyze_region(&f, region, &cfg());
    let dom = DomTree::compute(&f);
    let forest = find_loops(&f, &dom);
    let bogus = f.entry;
    assert_eq!(
        check_unrollable(&f, region, &a, &forest, bogus).err(),
        Some(UnrollError::NotALoop(bogus))
    );
}

/// §3.1 operation rules: division may trap, so it never produces a
/// run-time constant; `dynamic*` loads never do; stores change nothing.
#[test]
fn operation_rules() {
    let mut f = Function::new("rules", vec![Ty::Int, Ty::Int], Ty::Int);
    let e = f.entry;
    let body = f.add_block();
    let k = f.append(e, InstKind::Param(0));
    f.blocks[e].term = Terminator::Jump(body);
    let two = f.const_int(body, 2);
    let quot = f.bin(body, BinOp::DivS, k, two); // may trap: not constant
    let shift = f.bin(body, BinOp::ShrS, k, two); // pure: constant
    let ld = f.append(
        body,
        InstKind::Load {
            size: MemSize::B8,
            sign: Signedness::Signed,
            addr: k,
            dynamic: false,
            float: false,
        },
    );
    let dynld = f.append(
        body,
        InstKind::Load {
            size: MemSize::B8,
            sign: Signedness::Signed,
            addr: k,
            dynamic: true,
            float: false,
        },
    );
    // A store through the constant pointer: no effect on the analysis.
    f.append(
        body,
        InstKind::Store {
            size: MemSize::B8,
            addr: k,
            val: two,
            float: false,
        },
    );
    let ld2 = f.append(
        body,
        InstKind::Load {
            size: MemSize::B8,
            sign: Signedness::Signed,
            addr: k,
            dynamic: false,
            float: false,
        },
    );
    let alloc = f.append(
        body,
        InstKind::CallIntrinsic {
            which: dyncomp_ir::Intrinsic::Alloc,
            args: vec![two],
        },
    );
    let mx = f.append(
        body,
        InstKind::CallIntrinsic {
            which: dyncomp_ir::Intrinsic::Max,
            args: vec![k, two],
        },
    );
    f.blocks[body].term = Terminator::Return(Some(shift));

    let r = region_over(&mut f, body, &[body], vec![k]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(!a.is_const(quot), "division may trap");
    assert!(a.is_const(shift));
    assert!(a.is_const(ld), "load through constant pointer");
    assert!(!a.is_const(dynld), "dynamic* load");
    assert!(a.is_const(ld2), "stores have no effect on the constant set");
    assert!(!a.is_const(alloc), "alloc is not idempotent");
    assert!(a.is_const(mx), "max is idempotent and side-effect free");
}

/// Constants feed forward through chains and die at the first dynamic
/// input.
#[test]
fn derived_constant_chains() {
    let mut f = Function::new("chain", vec![Ty::Int, Ty::Int], Ty::Int);
    let e = f.entry;
    let body = f.add_block();
    let k = f.append(e, InstKind::Param(0));
    let d = f.append(e, InstKind::Param(1));
    f.blocks[e].term = Terminator::Jump(body);
    let c1 = f.const_int(body, 3);
    let t1 = f.bin(body, BinOp::Mul, k, c1);
    let t2 = f.bin(body, BinOp::Add, t1, k);
    let t3 = f.bin(body, BinOp::Add, t2, d); // dynamic from here on
    let t4 = f.bin(body, BinOp::Mul, t3, c1);
    f.blocks[body].term = Terminator::Return(Some(t4));
    let r = region_over(&mut f, body, &[body], vec![k]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(a.is_const(t1));
    assert!(a.is_const(t2));
    assert!(!a.is_const(t3));
    assert!(!a.is_const(t4));
}

/// Nested constant diamonds: inner and outer merges both constant.
#[test]
fn nested_constant_diamonds() {
    let mut f = Function::new("nest", vec![Ty::Int, Ty::Int], Ty::Int);
    let e = f.entry;
    let top = f.add_block();
    let l = f.add_block();
    let li = f.add_block(); // inner branch inside left arm
    let lt = f.add_block();
    let lf = f.add_block();
    let lj = f.add_block(); // inner join
    let rr = f.add_block();
    let j = f.add_block(); // outer join
    let k1 = f.append(e, InstKind::Param(0));
    let k2 = f.append(e, InstKind::Param(1));
    f.blocks[e].term = Terminator::Jump(top);
    f.blocks[top].term = Terminator::Branch {
        cond: k1,
        then_b: l,
        else_b: rr,
    };
    f.blocks[l].term = Terminator::Jump(li);
    f.blocks[li].term = Terminator::Branch {
        cond: k2,
        then_b: lt,
        else_b: lf,
    };
    let a1 = f.const_int(lt, 1);
    f.blocks[lt].term = Terminator::Jump(lj);
    let a2 = f.const_int(lf, 2);
    f.blocks[lf].term = Terminator::Jump(lj);
    let phi_inner = f.append(lj, InstKind::Phi(vec![(lt, a1), (lf, a2)]));
    f.blocks[lj].term = Terminator::Jump(j);
    let a3 = f.const_int(rr, 3);
    f.blocks[rr].term = Terminator::Jump(j);
    let phi_outer = f.append(j, InstKind::Phi(vec![(lj, phi_inner), (rr, a3)]));
    f.blocks[j].term = Terminator::Return(Some(phi_outer));

    let r = region_over(&mut f, top, &[top, l, li, lt, lf, lj, rr, j], vec![k1, k2]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(a.const_merges.contains(lj));
    assert!(a.const_merges.contains(j));
    assert!(a.is_const(phi_inner));
    assert!(a.is_const(phi_outer));
}

/// A value defined outside the region that is not a root is not constant,
/// even if it is the result of a "pure" op.
#[test]
fn non_root_live_ins_are_dynamic() {
    let mut f = Function::new("livein", vec![Ty::Int], Ty::Int);
    let e = f.entry;
    let body = f.add_block();
    let p = f.append(e, InstKind::Param(0));
    let two = f.const_int(e, 2);
    let outside = f.bin(e, BinOp::Mul, p, two); // defined before region
    f.blocks[e].term = Terminator::Jump(body);
    let one = f.const_int(body, 1);
    let use1 = f.bin(body, BinOp::Add, outside, one);
    f.blocks[body].term = Terminator::Return(Some(use1));
    let r = region_over(&mut f, body, &[body], vec![]);
    let a = analyze_region(&f, r.0, &cfg());
    assert!(!a.is_const(use1));
    assert!(a.is_const(one), "in-region literal constants are constant");
}
