//! The IR verifier: structural well-formedness checks run between passes.

use crate::dom::DomTree;
use crate::func::{Function, Module};
use crate::ids::{BlockId, IdSet, IndexVec, InstId};
use crate::inst::{InstKind, Terminator};
use std::fmt;

/// A verification failure, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(pub String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Check structural invariants of `f`:
///
/// * every placed instruction appears in exactly one block;
/// * terminator targets are valid blocks;
/// * operands refer to placed instructions;
/// * in SSA functions: no `GetVar`/`SetVar` (for renameable variables),
///   φ-operand predecessor lists match actual predecessors, and
///   definitions dominate uses (φ uses checked at the predecessor);
/// * φ-instructions appear only at the start of their block.
///
/// # Errors
/// Returns the first violation found.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    let err = |m: String| Err(VerifyError(format!("{}: {m}", f.name)));

    // Each placed instruction's block and position in it.
    let mut place: IndexVec<InstId, Option<(BlockId, usize)>> =
        (0..f.insts.len()).map(|_| None).collect();
    for (b, blk) in f.iter_blocks() {
        let mut seen_non_phi = false;
        for (p, &i) in blk.insts.iter().enumerate() {
            if i.index() >= f.insts.len() {
                return err(format!("block {b} references nonexistent inst {i}"));
            }
            if let Some((prev, _)) = place[i] {
                return err(format!("inst {i} placed in both {prev} and {b}"));
            }
            place[i] = Some((b, p));
            if matches!(f.kind(i), InstKind::Phi(_)) {
                if seen_non_phi {
                    return err(format!("φ {i} not at start of block {b}"));
                }
            } else {
                seen_non_phi = true;
            }
        }
        for s in blk.term.successors() {
            if s.index() >= f.blocks.len() {
                return err(format!("block {b} targets nonexistent block {s}"));
            }
        }
    }

    if f.entry.index() >= f.blocks.len() {
        return err("entry block out of range".into());
    }

    // Dynamic-region metadata. Transforms that add blocks inside a region
    // (edge splitting, inlining) must keep the membership set and roots
    // coherent; a dangling block or an un-renamed root value here would
    // otherwise only surface at stitch time.
    for (rid, r) in f.regions.iter_enumerated() {
        if r.entry.index() >= f.blocks.len() {
            return err(format!("region {rid} entry {} out of range", r.entry));
        }
        for b in r.blocks.iter() {
            if b.index() >= f.blocks.len() {
                return err(format!("region {rid} contains nonexistent block {b}"));
            }
        }
        // Roots must be real values; before specialization rewrites the
        // region they must also be placed (specialized regions start with
        // an `EnterRegion` terminator at their entry).
        let specialized = matches!(
            f.blocks[r.entry].term,
            Terminator::EnterRegion { .. } | Terminator::EndSetup { .. }
        );
        for &v in r.const_roots.iter().chain(r.key_roots.iter()) {
            if v.index() >= f.insts.len() {
                return err(format!("region {rid} root {v} does not exist"));
            }
            if !specialized && place[v].is_none() {
                return err(format!("region {rid} root {v} is not placed"));
            }
        }
    }

    // Operands must be placed instructions (in reachable code).
    let live = crate::cfg::reachable(f);
    let check_op = |user: User, v: InstId| -> Result<(), VerifyError> {
        let what = if v.index() >= f.insts.len() {
            "uses nonexistent value"
        } else if place[v].is_none() {
            "uses unplaced value"
        } else if !f.kind(v).has_result() {
            "uses value of result-less inst"
        } else {
            return Ok(());
        };
        err(format!("{user} {what} {v}"))
    };
    for (b, blk) in f.iter_blocks() {
        if !live.contains(b) {
            continue;
        }
        for &i in &blk.insts {
            for v in f.kind(i).operands() {
                check_op(User::Inst(i, b), v)?;
            }
        }
        for v in blk.term.operands() {
            check_op(User::Term(b), v)?;
        }
    }

    if f.is_ssa {
        verify_ssa(f, &place, &live)?;
    }

    Ok(())
}

/// Who uses an operand, named in an error message only when the check
/// fails.
#[derive(Clone, Copy)]
enum User {
    Inst(InstId, BlockId),
    Term(BlockId),
}

impl fmt::Display for User {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            User::Inst(i, b) => write!(f, "inst {i} in {b}"),
            User::Term(b) => write!(f, "terminator of {b}"),
        }
    }
}

/// Check cross-function invariants of `m`, then [`verify`] each function:
///
/// * every `Call` names an existing function;
/// * argument count matches the callee's parameter count;
/// * the call's result kind matches the callee's return kind (i.e.
///   [`Module::retype_calls`] has been run and later transforms — inlining
///   in particular — kept it consistent).
///
/// # Errors
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for (fid, f) in m.funcs.iter_enumerated() {
        for (b, blk) in f.iter_blocks() {
            for &i in &blk.insts {
                let InstKind::Call { callee, args } = f.kind(i) else {
                    continue;
                };
                let err =
                    |msg: String| Err(VerifyError(format!("{}: call {i} in {b}: {msg}", f.name)));
                let Some(target) = m.funcs.get(*callee) else {
                    return err(format!("callee {callee:?} does not exist"));
                };
                if args.len() != target.params.len() {
                    return err(format!(
                        "`{}` expects {} arguments, got {}",
                        target.name,
                        target.params.len(),
                        args.len()
                    ));
                }
                if f.ty(i) != target.ret_ty {
                    return err(format!(
                        "result kind {:?} disagrees with `{}` returning {:?} \
                         (missing `retype_calls`?)",
                        f.ty(i),
                        target.name,
                        target.ret_ty
                    ));
                }
            }
        }
        verify(f).map_err(|e| VerifyError(format!("fn {fid}: {}", e.0)))?;
    }
    Ok(())
}

fn verify_ssa(
    f: &Function,
    place: &IndexVec<InstId, Option<(BlockId, usize)>>,
    live: &IdSet<BlockId>,
) -> Result<(), VerifyError> {
    let err = |m: String| Err(VerifyError(format!("{}: {m}", f.name)));
    let block_of = |v: InstId| place[v].expect("checked placed").0;
    let dom = DomTree::compute(f);
    let preds = dom.preds();
    let (mut ps, mut got): (Vec<BlockId>, Vec<BlockId>) = (Vec::new(), Vec::new());
    let mut vals: Vec<i64> = Vec::new();

    for (b, blk) in f.iter_blocks() {
        if !live.contains(b) {
            continue;
        }
        for (at, &i) in blk.insts.iter().enumerate() {
            match f.kind(i) {
                InstKind::GetVar(v) | InstKind::SetVar(v, _) => {
                    if f.vars[*v].frame_size.is_none() {
                        return err(format!("SSA function contains variable access {i}"));
                    }
                }
                InstKind::Phi(ins) => {
                    ps.clear();
                    ps.extend_from_slice(preds.of(b));
                    ps.sort_unstable();
                    got.clear();
                    got.extend(ins.iter().map(|(p, _)| *p));
                    got.sort_unstable();
                    got.dedup();
                    if got.len() != ins.len() {
                        return err(format!("φ {i} has duplicate predecessor operands"));
                    }
                    // Every operand must name an actual predecessor; every
                    // reachable predecessor must be covered.
                    for (p, _) in ins {
                        if !ps.contains(p) {
                            return err(format!("φ {i} names non-predecessor {p}"));
                        }
                    }
                    for p in &ps {
                        if live.contains(*p) && !got.contains(p) {
                            return err(format!("φ {i} missing operand for predecessor {p}"));
                        }
                    }
                    // φ uses must dominate the predecessor end.
                    for (p, v) in ins {
                        if !live.contains(*p) {
                            continue;
                        }
                        let db = block_of(*v);
                        if !dom.dominates(db, *p) {
                            return err(format!(
                                "φ {i} operand {v} (defined in {db}) does not dominate pred {p}"
                            ));
                        }
                    }
                }
                _ => {
                    // Non-φ uses: definition must dominate the use point.
                    for v in f.kind(i).operands() {
                        let (db, pos) = place[v].expect("checked placed");
                        let ok = if db == b {
                            // Same block: definition must come earlier.
                            pos < at
                        } else {
                            dom.dominates(db, b)
                        };
                        if !ok {
                            return err(format!(
                                "inst {i} in {b} uses {v} (defined in {db}) that does not dominate it"
                            ));
                        }
                    }
                }
            }
        }
        // Terminator uses.
        for v in blk.term.operands() {
            let db = block_of(v);
            if db != b && !dom.dominates(db, b) {
                return err(format!("terminator of {b} uses non-dominating value {v}"));
            }
        }
        // Terminator-specific checks.
        if let Terminator::Switch { cases, .. } | Terminator::ConstSwitch { cases, .. } = &blk.term
        {
            vals.clear();
            vals.extend(cases.iter().map(|(c, _)| *c));
            vals.sort_unstable();
            vals.dedup();
            if vals.len() != cases.len() {
                return err(format!("switch in {b} has duplicate case values"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{DynRegion, VarInfo};
    use crate::ids::RegionId;
    use crate::inst::Ty;
    use crate::ops::{BinOp, Const, MemSize, UnOp};
    use crate::ssa::construct_ssa;

    /// The verifier's message for `f`, which must fail.
    fn rejection(f: &Function) -> String {
        verify(f).expect_err("the verifier rejects the function").0
    }

    /// `entry → (then, else) → join`, branching on parameter 0; `then`
    /// and `else` each define a constant. Returns the function and the
    /// blocks and constants.
    fn diamond(name: &str) -> (Function, [BlockId; 4], [InstId; 3]) {
        let mut f = Function::new(name, vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let p = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Branch {
            cond: p,
            then_b: t,
            else_b: el,
        };
        let c1 = f.const_int(t, 1);
        f.blocks[t].term = Terminator::Jump(j);
        let c2 = f.const_int(el, 2);
        f.blocks[el].term = Terminator::Jump(j);
        f.is_ssa = true;
        (f, [e, t, el, j], [p, c1, c2])
    }

    fn region(entry: BlockId, blocks: &[BlockId], const_roots: Vec<InstId>) -> DynRegion {
        DynRegion {
            entry,
            blocks: blocks.iter().copied().collect(),
            const_roots,
            key_roots: vec![],
        }
    }

    #[test]
    fn accepts_well_formed() {
        let mut f = Function::new("ok", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let p = f.append(e, InstKind::Param(0));
        let c = f.const_int(e, 1);
        let s = f.bin(e, BinOp::Add, p, c);
        f.blocks[e].term = Terminator::Return(Some(s));
        construct_ssa(&mut f);
        verify(&f).unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut f = Function::new("bad", vec![], Ty::Int);
        let e = f.entry;
        // Create an add whose operand is defined *after* it.
        let c = f.create_inst(InstKind::Const(Const::Int(1)));
        let s = f.create_inst(InstKind::Bin(BinOp::Add, c, c));
        f.blocks[e].insts.push(s);
        f.blocks[e].insts.push(c);
        f.blocks[e].term = Terminator::Return(Some(s));
        f.is_ssa = true;
        assert_eq!(
            rejection(&f),
            "bad: inst v1 in b0 uses v0 (defined in b0) that does not dominate it"
        );
        assert_eq!(
            verify(&f).unwrap_err().to_string(),
            "IR verification failed: bad: inst v1 in b0 uses v0 (defined in b0) that does not \
             dominate it"
        );
    }

    #[test]
    fn rejects_double_placement() {
        let mut f = Function::new("dup", vec![], Ty::None);
        let e = f.entry;
        let c = f.const_int(e, 1);
        f.blocks[e].insts.push(c);
        f.blocks[e].term = Terminator::Return(None);
        assert_eq!(rejection(&f), "dup: inst v0 placed in both b0 and b0");
    }

    #[test]
    fn rejects_phi_missing_pred() {
        let (mut f, [_, t, _, j], [_, c1, _]) = diamond("phi");
        // φ only lists one of the two predecessors.
        let phi = f.append(j, InstKind::Phi(vec![(t, c1)]));
        f.blocks[j].term = Terminator::Return(Some(phi));
        assert_eq!(
            rejection(&f),
            "phi: φ v3 missing operand for predecessor b2"
        );
    }

    #[test]
    fn rejects_unplaced_operand() {
        let mut f = Function::new("unp", vec![], Ty::Int);
        let e = f.entry;
        let ghost = f.create_inst(InstKind::Const(Const::Int(7)));
        let s = f.append(e, InstKind::Copy(ghost));
        f.blocks[e].term = Terminator::Return(Some(s));
        assert_eq!(rejection(&f), "unp: inst v1 in b0 uses unplaced value v0");
    }

    #[test]
    fn rejects_region_with_dangling_block() {
        // Hand-corrupted: a region membership set naming a block that was
        // never created — the shape a buggy inline would leave behind.
        let mut f = Function::new("dangle", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let p = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Return(Some(p));
        f.regions
            .push(region(e, &[e, BlockId::from_index(17)], vec![p]));
        f.is_ssa = true;
        assert_eq!(
            rejection(&f),
            "dangle: region dr0 contains nonexistent block b17"
        );
    }

    #[test]
    fn rejects_region_with_unrenamed_root() {
        // Hand-corrupted: a const root naming an unplaced value — an
        // un-renamed id from another function's instruction pool.
        let mut f = Function::new("unrooted", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let p = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Return(Some(p));
        let ghost = f.create_inst(InstKind::Const(Const::Int(9)));
        f.regions.push(region(e, &[e], vec![ghost]));
        f.is_ssa = true;
        assert_eq!(rejection(&f), "unrooted: region dr0 root v1 is not placed");
    }

    #[test]
    fn module_verify_rejects_arity_and_type_mismatch() {
        use crate::func::Module;
        use crate::ids::FuncId;

        let mk_caller = |nargs: usize| {
            let mut caller = Function::new("caller", vec![Ty::Int], Ty::Int);
            let e = caller.entry;
            let p = caller.append(e, InstKind::Param(0));
            let call = caller.append(
                e,
                InstKind::Call {
                    callee: FuncId::from_index(1),
                    args: vec![p; nargs],
                },
            );
            caller.blocks[e].term = Terminator::Return(Some(call));
            caller.is_ssa = true;
            caller
        };
        let callee = |ret| {
            let mut h = Function::new("helper", vec![Ty::Int], ret);
            let e = h.entry;
            let p = h.append(e, InstKind::Param(0));
            h.blocks[e].term = Terminator::Return(Some(p));
            h.is_ssa = true;
            h
        };
        let rejection = |m: &Module| verify_module(m).expect_err("the module is rejected").0;

        // Arity mismatch.
        let mut m = Module::new();
        m.funcs.push(mk_caller(2));
        m.funcs.push(callee(Ty::Int));
        m.retype_calls();
        assert_eq!(
            rejection(&m),
            "caller: call v1 in b0: `helper` expects 1 arguments, got 2"
        );

        // Stale call type (retype_calls not re-run).
        let mut m = Module::new();
        m.funcs.push(mk_caller(1)); // call ty defaults to Int
        m.funcs.push(callee(Ty::Float));
        assert_eq!(
            rejection(&m),
            "caller: call v1 in b0: result kind Int disagrees with `helper` returning Float \
             (missing `retype_calls`?)"
        );
        m.retype_calls();
        verify_module(&m).unwrap();

        // Nonexistent callee.
        let mut m = Module::new();
        m.funcs.push(mk_caller(1));
        assert_eq!(
            rejection(&m),
            "caller: call v1 in b0: callee f1 does not exist"
        );

        // A function-level failure names the function.
        let mut m = Module::new();
        let mut bad = callee(Ty::Int);
        bad.blocks[bad.entry].term = Terminator::Jump(BlockId(3));
        m.funcs.push(bad);
        assert_eq!(
            rejection(&m),
            "fn f0: helper: block b0 targets nonexistent block b3"
        );
    }

    #[test]
    fn rejects_duplicate_switch_cases() {
        let mut f = Function::new("sw", vec![Ty::Int], Ty::None);
        let e = f.entry;
        let d = f.add_block();
        let p = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Switch {
            val: p,
            cases: vec![(1, d), (1, d)],
            default: d,
        };
        f.blocks[d].term = Terminator::Return(None);
        f.is_ssa = true;
        assert_eq!(rejection(&f), "sw: switch in b0 has duplicate case values");
    }

    #[test]
    fn rejects_malformed_placement_and_cfg() {
        // A block naming an instruction that does not exist.
        let mut f = Function::new("ghost", vec![], Ty::None);
        let e = f.entry;
        f.blocks[e].insts.push(InstId(99));
        f.blocks[e].term = Terminator::Return(None);
        assert_eq!(
            rejection(&f),
            "ghost: block b0 references nonexistent inst v99"
        );

        // A φ after a non-φ.
        let (mut f, [_, t, el, j], [_, c1, c2]) = diamond("order");
        let k = f.const_int(j, 3);
        let phi = f.append(j, InstKind::Phi(vec![(t, c1), (el, c2)]));
        f.blocks[j].term = Terminator::Return(Some(k));
        assert_eq!(
            rejection(&f),
            format!("order: φ {phi} not at start of block b3")
        );

        // A jump to a block that does not exist.
        let mut f = Function::new("jump", vec![], Ty::None);
        let e = f.entry;
        f.blocks[e].term = Terminator::Jump(BlockId(7));
        assert_eq!(rejection(&f), "jump: block b0 targets nonexistent block b7");

        // An entry past the block list.
        let mut f = Function::new("entry", vec![], Ty::None);
        f.blocks[f.entry].term = Terminator::Return(None);
        f.entry = BlockId(5);
        assert_eq!(rejection(&f), "entry: entry block out of range");
    }

    #[test]
    fn rejects_bad_operands() {
        // An operand that does not exist.
        let mut f = Function::new("nonex", vec![], Ty::Int);
        let e = f.entry;
        let s = f.append(e, InstKind::Un(UnOp::Neg, InstId(99)));
        f.blocks[e].term = Terminator::Return(Some(s));
        assert_eq!(
            rejection(&f),
            "nonex: inst v0 in b0 uses nonexistent value v99"
        );

        // An operand that produces no value.
        let mut f = Function::new("noval", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let p = f.append(e, InstKind::Param(0));
        let st = f.append(
            e,
            InstKind::Store {
                size: MemSize::B8,
                addr: p,
                val: p,
                float: false,
            },
        );
        let s = f.append(e, InstKind::Copy(st));
        f.blocks[e].term = Terminator::Return(Some(s));
        assert_eq!(
            rejection(&f),
            "noval: inst v2 in b0 uses value of result-less inst v1"
        );

        // A terminator reading an unplaced value.
        let mut f = Function::new("term", vec![], Ty::Int);
        let ghost = f.create_inst(InstKind::Const(Const::Int(1)));
        f.blocks[f.entry].term = Terminator::Return(Some(ghost));
        assert_eq!(
            rejection(&f),
            "term: terminator of b0 uses unplaced value v0"
        );
    }

    #[test]
    fn rejects_phi_predecessor_mismatch() {
        // The same predecessor twice.
        let (mut f, [_, t, _, j], [_, c1, _]) = diamond("twice");
        let phi = f.append(j, InstKind::Phi(vec![(t, c1), (t, c1)]));
        f.blocks[j].term = Terminator::Return(Some(phi));
        assert_eq!(
            rejection(&f),
            "twice: φ v3 has duplicate predecessor operands"
        );

        // A block that is no predecessor.
        let (mut f, [e, t, el, j], [_, c1, c2]) = diamond("stranger");
        let phi = f.append(j, InstKind::Phi(vec![(t, c1), (el, c2), (e, c1)]));
        f.blocks[j].term = Terminator::Return(Some(phi));
        assert_eq!(rejection(&f), "stranger: φ v3 names non-predecessor b0");

        // An operand whose definition does not dominate its predecessor.
        let (mut f, [_, t, el, j], [_, c1, _]) = diamond("reach");
        let phi = f.append(j, InstKind::Phi(vec![(t, c1), (el, c1)]));
        f.blocks[j].term = Terminator::Return(Some(phi));
        assert_eq!(
            rejection(&f),
            "reach: φ v3 operand v1 (defined in b1) does not dominate pred b2"
        );
    }

    #[test]
    fn rejects_non_dominating_uses() {
        // An instruction of the join reading a value of one arm.
        let (mut f, [_, _, _, j], [_, c1, _]) = diamond("arm");
        let s = f.append(j, InstKind::Copy(c1));
        f.blocks[j].term = Terminator::Return(Some(s));
        assert_eq!(
            rejection(&f),
            "arm: inst v3 in b3 uses v1 (defined in b1) that does not dominate it"
        );

        // The join's terminator reading it.
        let (mut f, [_, _, _, j], [_, c1, _]) = diamond("tail");
        f.blocks[j].term = Terminator::Return(Some(c1));
        assert_eq!(
            rejection(&f),
            "tail: terminator of b3 uses non-dominating value v1"
        );
    }

    #[test]
    fn rejects_variable_access_in_ssa() {
        let mut f = Function::new("vars", vec![], Ty::Int);
        let x = f.vars.push(VarInfo {
            name: "x".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let e = f.entry;
        let g = f.append(e, InstKind::GetVar(x));
        f.blocks[e].term = Terminator::Return(Some(g));
        f.is_ssa = true;
        assert_eq!(
            rejection(&f),
            "vars: SSA function contains variable access v0"
        );
    }

    #[test]
    fn rejects_bad_region_metadata() {
        let mut f = Function::new("far", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let p = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Return(Some(p));
        f.regions.push(region(BlockId(9), &[e], vec![p]));
        assert_eq!(rejection(&f), "far: region dr0 entry b9 out of range");

        f.regions[RegionId(0)] = region(e, &[e], vec![InstId(40)]);
        assert_eq!(rejection(&f), "far: region dr0 root v40 does not exist");
    }
}
