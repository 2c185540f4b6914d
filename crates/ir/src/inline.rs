//! SSA-preserving call inlining: the clone/rename transform behind
//! demand-driven cross-function dynamic regions.
//!
//! The paper's dynamic regions stop at call boundaries: `InstKind::Call`
//! is opaque to the run-time-constants analysis, so helpers invoked from
//! inside a region defeat specialization. Following Way & Pollock
//! ("Demand-driven Inlining in a Region-based Optimizer"), the optimizer
//! pulls a callee body *into* the caller only where region analysis
//! demands it. This module provides the mechanical half of that pass: a
//! verified, SSA-preserving [`inline_call`] transform that clones and
//! renames a callee body at one call site. Policy (which sites, budgets,
//! fixpoint iteration) lives in the driver (`dyncomp::Compiler`).

use crate::cfg;
use crate::func::{Function, InstData};
use crate::ids::{BlockId, InstId, VarId};
use crate::inst::{InstKind, Terminator, Ty};
use crate::ops::Const;
use std::fmt;

/// Why a call site could not be inlined.
///
/// These are *refusals*, not corruption: when `inline_call` returns an
/// error before touching the caller the function is unchanged, and the
/// driver simply leaves the call in place. (Errors raised after cloning
/// begins indicate a malformed callee and poison the caller; the driver
/// must treat them as fatal. All such cases are unreachable for callees
/// that pass [`crate::verify::verify`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineError(pub String);

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inline failed: {}", self.0)
    }
}

impl std::error::Error for InlineError {}

/// What [`inline_call`] did, for logging, budgets and region bookkeeping.
#[derive(Debug, Clone)]
pub struct InlinedCall {
    /// The cloned copy of the callee's entry block (the call block now
    /// jumps here).
    pub entry: BlockId,
    /// The continuation block holding the rewritten call result and the
    /// call block's original suffix + terminator.
    pub cont: BlockId,
    /// Every block added to the caller (cloned callee blocks + `cont`).
    pub new_blocks: Vec<BlockId>,
    /// Number of instructions cloned from the callee.
    pub cloned_insts: usize,
}

/// Inline `callee`'s body at `call_inst` (which must be a
/// [`InstKind::Call`] placed in `call_block` of `f`), preserving SSA form.
///
/// The transform:
/// 1. splits `call_block` at the call site — the suffix and original
///    terminator move to a fresh continuation block, with φ-operands in
///    the old successors retargeted;
/// 2. clones every reachable callee block into `f` (instructions, frame
///    variables, terminators), renaming all ids; `Param(i)` becomes a
///    `Copy` of the i-th argument; `Return` becomes a jump to the
///    continuation;
/// 3. rewrites `call_inst` *in place* (keeping its `InstId`, so existing
///    uses stay valid) into a `Copy`/`Phi` of the returned value(s), and
///    moves it to the head of the continuation block;
/// 4. adds every new block to each [`crate::DynRegion`] containing
///    `call_block`, mirroring what `split_critical_edges` does for split
///    blocks.
///
/// The caller's region roots, `unrolled` annotations and the callee's own
/// `unrolled` headers all survive, so run-time-constants analysis re-run
/// after inlining flows straight through the cloned body.
///
/// # Errors
/// Refuses (leaving `f` untouched): non-SSA caller or callee, a callee
/// with dynamic regions or template pseudo-ops, a callee whose entry has
/// predecessors, argument/parameter count mismatch, or a `call_inst` that
/// is not a call placed in `call_block`.
pub fn inline_call(
    f: &mut Function,
    call_block: BlockId,
    call_inst: InstId,
    callee: &Function,
) -> Result<InlinedCall, InlineError> {
    let refuse = |m: String| Err(InlineError(m));

    if !f.is_ssa || !callee.is_ssa {
        return refuse(format!(
            "`{}` <- `{}`: both functions must be in SSA form",
            f.name, callee.name
        ));
    }
    if !callee.regions.is_empty() {
        return refuse(format!(
            "`{}` contains dynamic regions and cannot be inlined",
            callee.name
        ));
    }
    let args: Vec<InstId> = match f.kind(call_inst) {
        InstKind::Call { args, .. } => args.clone(),
        other => {
            return refuse(format!(
                "`{}`: {call_inst} is not a call (found {other:?})",
                f.name
            ))
        }
    };
    if args.len() != callee.params.len() {
        return refuse(format!(
            "`{}` <- `{}`: {} arguments for {} parameters",
            f.name,
            callee.name,
            args.len(),
            callee.params.len()
        ));
    }
    let Some(pos) = f.blocks[call_block]
        .insts
        .iter()
        .position(|&i| i == call_inst)
    else {
        return refuse(format!(
            "`{}`: {call_inst} is not placed in {call_block}",
            f.name
        ));
    };
    // A callee entry with predecessors (a loop straight back to function
    // entry) would need a φ-aware pre-header; the front end never emits
    // this shape, so refuse rather than complicate the clone.
    for blk in callee.blocks.iter() {
        if blk.term.successors().contains(callee.entry) {
            return refuse(format!("`{}`: entry block has predecessors", callee.name));
        }
    }
    let order = cfg::reverse_postorder(callee);
    for &b in &order {
        for &i in &callee.blocks[b].insts {
            if matches!(callee.kind(i), InstKind::Hole { .. }) {
                return refuse(format!("`{}` contains template holes", callee.name));
            }
        }
        if matches!(
            callee.blocks[b].term,
            Terminator::ConstBranch { .. }
                | Terminator::ConstSwitch { .. }
                | Terminator::EnterRegion { .. }
                | Terminator::EndSetup { .. }
        ) {
            return refuse(format!(
                "`{}` contains template pseudo-terminators",
                callee.name
            ));
        }
    }

    // --- Point of no return: all checks passed, start mutating `f`. ---

    // 1. Split the call block. Everything after the call (all non-φ, by
    // the φ-prefix invariant) plus the original terminator moves to a
    // fresh continuation block.
    let cont = f.add_block();
    let suffix = f.blocks[call_block].insts.split_off(pos + 1);
    f.blocks[call_block].insts.pop(); // the call itself; re-placed below
    f.blocks[cont].insts = suffix;
    f.blocks[cont].term =
        std::mem::replace(&mut f.blocks[call_block].term, Terminator::Unreachable);
    // φ-operands in the original successors now flow in via `cont`.
    for s in f.blocks[cont].term.successors() {
        for ii in 0..f.blocks[s].insts.len() {
            let i = f.blocks[s].insts[ii];
            if let InstKind::Phi(ins) = &mut f.insts[i].kind {
                for (p, _) in ins.iter_mut() {
                    if *p == call_block {
                        *p = cont;
                    }
                }
            } else {
                break;
            }
        }
    }

    // 2a. Clone blocks (flags now; contents in the passes below).
    let mut block_map: Vec<Option<BlockId>> = vec![None; callee.blocks.len()];
    let mut new_blocks = Vec::with_capacity(order.len() + 1);
    for &b in &order {
        let nb = f.add_block();
        f.blocks[nb].unrolled_header = callee.blocks[b].unrolled_header;
        f.blocks[nb].marker = callee.blocks[b].marker.clone();
        block_map[b.index()] = Some(nb);
        new_blocks.push(nb);
    }
    let entry = block_map[callee.entry.index()].expect("entry is reachable");

    // 2b. First instruction pass: allocate caller ids for every cloned
    // instruction (operands still name callee ids — fixed in pass 2c, so
    // back-edge φ operands resolve).
    let mut inst_map: Vec<Option<InstId>> = vec![None; callee.insts.len()];
    let mut cloned_insts = 0usize;
    for &b in &order {
        let nb = block_map[b.index()].unwrap();
        for &i in &callee.blocks[b].insts {
            let ni = f.insts.push(InstData {
                kind: callee.insts[i].kind.clone(),
                ty: callee.insts[i].ty,
            });
            f.blocks[nb].insts.push(ni);
            inst_map[i.index()] = Some(ni);
            cloned_insts += 1;
        }
    }

    // 2c. Second pass: rename. The callee is verified, so every operand
    // of a reachable instruction is defined in a reachable block.
    let mut var_map: Vec<Option<VarId>> = vec![None; callee.vars.len()];
    let mut rets: Vec<(BlockId, Option<InstId>)> = Vec::new();
    for &b in &order {
        let nb = block_map[b.index()].unwrap();
        for ii in 0..f.blocks[nb].insts.len() {
            let ni = f.blocks[nb].insts[ii];
            let mut kind = f.insts[ni].kind.clone();
            match &mut kind {
                InstKind::Param(i) => {
                    // Arguments were computed in the caller before the
                    // call block, so they dominate every cloned block.
                    kind = InstKind::Copy(args[*i as usize]);
                }
                InstKind::Phi(ins) => {
                    for (p, v) in ins.iter_mut() {
                        *p = block_map[p.index()].expect("φ pred reachable in callee");
                        *v = inst_map[v.index()].expect("φ operand defined in callee");
                    }
                }
                InstKind::GetVar(v) | InstKind::SetVar(v, _) | InstKind::FrameAddr(v) => {
                    let nv = *var_map[v.index()]
                        .get_or_insert_with(|| f.vars.push(callee.vars[*v].clone()));
                    match &mut kind {
                        InstKind::GetVar(v) | InstKind::SetVar(v, _) | InstKind::FrameAddr(v) => {
                            *v = nv
                        }
                        _ => unreachable!(),
                    }
                    kind.map_operands(|v| inst_map[v.index()].expect("operand defined in callee"));
                }
                _ => {
                    kind.map_operands(|v| inst_map[v.index()].expect("operand defined in callee"));
                }
            }
            f.insts[ni].kind = kind;
        }
        // Terminator: returns become jumps to the continuation.
        let mut term = callee.blocks[b].term.clone();
        match term {
            Terminator::Return(v) => {
                rets.push((
                    nb,
                    v.map(|v| inst_map[v.index()].expect("return value defined in callee")),
                ));
                term = Terminator::Jump(cont);
            }
            _ => {
                term.map_successors(|s| block_map[s.index()].expect("successor reachable"));
                term.map_operands(|v| inst_map[v.index()].expect("operand defined in callee"));
            }
        }
        f.blocks[nb].term = term;
    }

    // 3. Rewrite the call instruction in place as the join of the
    // returned values, keeping its InstId so existing uses stay valid.
    let call_ty = f.ty(call_inst);
    let mut incoming: Vec<(BlockId, InstId)> = Vec::with_capacity(rets.len());
    for (rb, v) in &rets {
        let v = match v {
            Some(v) => *v,
            None => {
                if call_ty == Ty::None {
                    continue;
                }
                // A bare `return;` reaching a value-typed call: feed a
                // typed zero so the φ stays well-formed.
                let zero = if call_ty == Ty::Float {
                    Const::Float(0.0)
                } else {
                    Const::Int(0)
                };
                f.append(*rb, InstKind::Const(zero))
            }
        };
        incoming.push((*rb, v));
    }
    let joined = match incoming.len() {
        0 => InstKind::Const(Const::Int(0)), // void or no-return callee
        1 => InstKind::Copy(incoming[0].1),
        _ => InstKind::Phi(incoming),
    };
    f.insts[call_inst].kind = joined; // ty intentionally preserved
    f.blocks[cont].insts.insert(0, call_inst);

    // 4. Wire the call block into the clone and extend region membership,
    // the same way `split_critical_edges` adopts its split blocks.
    f.blocks[call_block].term = Terminator::Jump(entry);
    new_blocks.push(cont);
    for r in f.regions.iter_mut() {
        if r.blocks.contains(call_block) {
            for &nb in &new_blocks {
                r.blocks.insert(nb);
            }
        }
    }

    Ok(InlinedCall {
        entry,
        cont,
        new_blocks,
        cloned_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::ops::BinOp;
    use crate::ssa::construct_ssa;
    use crate::verify::verify;
    use crate::FuncId;

    fn callee_mul_add() -> Function {
        // fn helper(a, b) { return a * b + 3 }
        let mut h = Function::new("helper", vec![Ty::Int, Ty::Int], Ty::Int);
        let e = h.entry;
        let a = h.append(e, InstKind::Param(0));
        let b = h.append(e, InstKind::Param(1));
        let c3 = h.const_int(e, 3);
        let m = h.bin(e, BinOp::Mul, a, b);
        let s = h.bin(e, BinOp::Add, m, c3);
        h.blocks[e].term = Terminator::Return(Some(s));
        construct_ssa(&mut h);
        verify(&h).unwrap();
        h
    }

    fn caller_of(callee_id: FuncId) -> (Function, BlockId, InstId) {
        // fn main(x) { return helper(x, 7) + 1 }
        let mut f = Function::new("main", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let x = f.append(e, InstKind::Param(0));
        let c7 = f.const_int(e, 7);
        let call = f.append(
            e,
            InstKind::Call {
                callee: callee_id,
                args: vec![x, c7],
            },
        );
        let one = f.const_int(e, 1);
        let r = f.bin(e, BinOp::Add, call, one);
        f.blocks[e].term = Terminator::Return(Some(r));
        construct_ssa(&mut f);
        verify(&f).unwrap();
        (f, e, call)
    }

    #[test]
    fn straight_line_inline_verifies_and_evaluates() {
        let h = callee_mul_add();
        let (mut f, e, call) = caller_of(FuncId::from_index(1));
        let done = inline_call(&mut f, e, call, &h).unwrap();
        assert!(done.cloned_insts >= 5);
        verify(&f).unwrap();
        // No calls remain.
        for (_, blk) in f.iter_blocks() {
            for &i in &blk.insts {
                assert!(!matches!(f.kind(i), InstKind::Call { .. }));
            }
        }
        let mut m = Module::new();
        let fid = m.funcs.push(f);
        m.funcs.push(h);
        let mut ev = crate::eval::Evaluator::new(&m);
        // helper(5, 7) + 1 = 5*7+3+1 = 39
        let out = ev.call(fid, &[5]).unwrap();
        assert_eq!(out, crate::eval::EvalOutcome::Return(Some(39)));
    }

    #[test]
    fn branchy_callee_produces_phi_join() {
        // fn pick(c) { if (c) return 10; else return 20; }
        let mut h = Function::new("pick", vec![Ty::Int], Ty::Int);
        let e = h.entry;
        let t = h.add_block();
        let el = h.add_block();
        let c = h.append(e, InstKind::Param(0));
        h.blocks[e].term = Terminator::Branch {
            cond: c,
            then_b: t,
            else_b: el,
        };
        let v10 = h.const_int(t, 10);
        h.blocks[t].term = Terminator::Return(Some(v10));
        let v20 = h.const_int(el, 20);
        h.blocks[el].term = Terminator::Return(Some(v20));
        construct_ssa(&mut h);
        verify(&h).unwrap();

        let mut f = Function::new("main", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let x = f.append(e, InstKind::Param(0));
        let call = f.append(
            e,
            InstKind::Call {
                callee: FuncId::from_index(1),
                args: vec![x],
            },
        );
        f.blocks[e].term = Terminator::Return(Some(call));
        construct_ssa(&mut f);

        let done = inline_call(&mut f, e, call, &h).unwrap();
        verify(&f).unwrap();
        assert!(matches!(f.kind(call), InstKind::Phi(ins) if ins.len() == 2));
        assert_eq!(f.blocks[done.cont].insts[0], call);

        let mut m = Module::new();
        let fid = m.funcs.push(f);
        m.funcs.push(h);
        let mut ev = crate::eval::Evaluator::new(&m);
        assert_eq!(
            ev.call(fid, &[1]).unwrap(),
            crate::eval::EvalOutcome::Return(Some(10))
        );
        let mut ev = crate::eval::Evaluator::new(&m);
        assert_eq!(
            ev.call(fid, &[0]).unwrap(),
            crate::eval::EvalOutcome::Return(Some(20))
        );
    }

    #[test]
    fn inline_inside_region_extends_membership() {
        let h = callee_mul_add();
        let (mut f, e, call) = caller_of(FuncId::from_index(1));
        // Pretend the whole entry block is a region body.
        let mut blocks = crate::IdSet::new();
        blocks.insert(e);
        let root = f.blocks[e].insts[0];
        f.regions.push(crate::DynRegion {
            entry: e,
            blocks,
            const_roots: vec![root],
            key_roots: vec![],
        });
        let done = inline_call(&mut f, e, call, &h).unwrap();
        verify(&f).unwrap();
        let r = &f.regions[crate::RegionId::from_index(0)];
        for nb in &done.new_blocks {
            assert!(r.blocks.contains(*nb), "region must adopt {nb}");
        }
    }

    #[test]
    fn refuses_arity_mismatch_and_regions() {
        let mut h = callee_mul_add();
        let (mut f, e, call) = caller_of(FuncId::from_index(1));
        // Wrong arity.
        let mut h1 = h.clone();
        h1.params.push(Ty::Int);
        let err = inline_call(&mut f, e, call, &h1).unwrap_err();
        assert!(err.0.contains("parameters"), "{err}");
        // Callee with a region.
        h.regions.push(crate::DynRegion {
            entry: h.entry,
            blocks: crate::IdSet::new(),
            const_roots: vec![],
            key_roots: vec![],
        });
        let err = inline_call(&mut f, e, call, &h).unwrap_err();
        assert!(err.0.contains("dynamic regions"), "{err}");
        verify(&f).unwrap(); // caller untouched by refusals
    }
}
