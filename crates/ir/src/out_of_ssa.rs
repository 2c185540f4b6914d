//! SSA destruction: replace φ-instructions with copies through fresh
//! variables, sequentializing each edge's parallel copy safely (handles the
//! classic *lost-copy* and *swap* problems).
//!
//! Requires critical edges to be split first
//! ([`crate::cfg::split_critical_edges`]); the pass asserts this.

use crate::cfg::Preds;
use crate::func::{Function, VarInfo};
use crate::ids::{BlockId, InstId, VarId};
use crate::inst::InstKind;

/// Source of a pending copy during sequentialization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Src {
    /// An ordinary SSA value.
    Val(InstId),
    /// The current value of a φ-variable (possibly overwritten by this same
    /// parallel copy, hence the ordering discipline).
    Var(VarId),
}

/// Replace every φ with variable traffic: each predecessor writes the φ's
/// fresh variable, and the φ instruction itself becomes a read of it.
///
/// After this pass `f.is_ssa` is false and the function contains
/// `GetVar`/`SetVar` again (for φ-variables only), ready for code
/// generation.
///
/// # Panics
/// Panics if a φ lives at a block with an unsplit critical in-edge.
pub fn destruct_ssa(f: &mut Function) {
    let preds = Preds::compute(f);

    // Fresh variable per φ, block by block: the φs of one block are
    // neighbours in `phis`.
    let mut phis: Vec<(BlockId, InstId, VarId)> = Vec::new();
    for (b, blk) in f.iter_blocks() {
        for &i in &blk.insts {
            if matches!(f.kind(i), InstKind::Phi(_)) {
                phis.push((b, i, VarId(0)));
            }
        }
    }
    for (_, i, v) in phis.iter_mut() {
        *v = f.vars.push(VarInfo {
            name: format!("phi{}", i.0),
            ty: f.ty(*i),
            frame_size: None,
        });
    }

    // For each block with φs, plan one parallel copy per predecessor, in
    // block order: copy instructions and swap temporaries must be created
    // in a deterministic order so repeated compiles emit identical
    // artifacts.
    let mut copies: Vec<(VarId, Src)> = Vec::new();
    for group in phis.chunk_by(|x, y| x.0 == y.0) {
        let b = group[0].0;
        for &p in preds.of(b) {
            assert!(
                f.blocks[p].term.successors().len() == 1,
                "critical edge {p} -> {b} must be split before SSA destruction"
            );
            // Gather this edge's copies: dst var <- src.
            copies.clear();
            for &(_, phi, dst) in group {
                let InstKind::Phi(ins) = f.kind(phi) else {
                    unreachable!()
                };
                let Some(&(_, src_val)) = ins.iter().find(|(pp, _)| *pp == p) else {
                    continue; // operand pruned (unreachable pred)
                };
                // If the source is itself a φ of this same block, its value
                // at the end of `p` is the *current* value of that φ's
                // variable (set when the block was last entered).
                let src = match group.iter().find(|(_, other, _)| *other == src_val) {
                    Some(&(_, _, var)) => Src::Var(var),
                    None => Src::Val(src_val),
                };
                copies.push((dst, src));
            }
            emit_parallel_copy(f, p, &mut copies);
        }
    }

    // Turn each φ into a read of its variable.
    for &(_, i, var) in &phis {
        f.insts[i].kind = InstKind::GetVar(var);
    }

    f.is_ssa = false;
}

/// Append a sequentialization of the parallel copy `copies` to the end of
/// block `p` (before its terminator), draining `copies`.
fn emit_parallel_copy(f: &mut Function, p: BlockId, copies: &mut Vec<(VarId, Src)>) {
    // Drop no-op copies (x <- x).
    copies.retain(|&(d, s)| s != Src::Var(d));
    while !copies.is_empty() {
        // A copy is safe when no other pending copy still reads its
        // destination.
        let safe = copies
            .iter()
            .position(|&(d, _)| !copies.iter().any(|&(d2, s)| d2 != d && s == Src::Var(d)));
        match safe {
            Some(idx) => {
                let (d, s) = copies.remove(idx);
                let val = match s {
                    Src::Val(v) => v,
                    Src::Var(v) => {
                        let g = f.create_inst(InstKind::GetVar(v));
                        f.blocks[p].insts.push(g);
                        g
                    }
                };
                let st = f.create_inst(InstKind::SetVar(d, val));
                f.blocks[p].insts.push(st);
            }
            None => {
                // Every pending destination is still read: a cycle. Save one
                // destination's current value in a temp and redirect its
                // readers there.
                let (d0, _) = copies[0];
                let ty = f.vars[d0].ty;
                let tmp = f.vars.push(VarInfo {
                    name: format!("swap{}", d0.0),
                    ty,
                    frame_size: None,
                });
                let g = f.create_inst(InstKind::GetVar(d0));
                let st = f.create_inst(InstKind::SetVar(tmp, g));
                f.blocks[p].insts.push(g);
                f.blocks[p].insts.push(st);
                for (_, s) in copies.iter_mut() {
                    if *s == Src::Var(d0) {
                        *s = Src::Var(tmp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::split_critical_edges;
    use crate::eval::{EvalOutcome, Evaluator};
    use crate::func::Module;
    use crate::inst::Terminator;
    use crate::inst::Ty;
    use crate::ops::{BinOp, Const};
    use crate::ssa::construct_ssa;

    /// Build, SSA-convert, destruct, then run both in the evaluator and
    /// compare results: swap loop exercising the parallel-copy cycle case.
    #[test]
    fn swap_cycle_preserved() {
        // a = 1; b = 2; for (i = 0; i < 5; i++) { t = a; a = b; b = t; }
        // return a*10 + b  => after 5 swaps: a=2,b=1 -> 21
        let mut f = Function::new("swap", vec![], Ty::Int);
        let a = f.vars.push(VarInfo {
            name: "a".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let b = f.vars.push(VarInfo {
            name: "b".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let i = f.vars.push(VarInfo {
            name: "i".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let e = f.entry;
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let one = f.const_int(e, 1);
        let two = f.const_int(e, 2);
        let zero = f.const_int(e, 0);
        f.append(e, InstKind::SetVar(a, one));
        f.append(e, InstKind::SetVar(b, two));
        f.append(e, InstKind::SetVar(i, zero));
        f.blocks[e].term = Terminator::Jump(h);
        let iv = f.append(h, InstKind::GetVar(i));
        let five = f.const_int(h, 5);
        let c = f.bin(h, BinOp::CmpLtS, iv, five);
        f.blocks[h].term = Terminator::Branch {
            cond: c,
            then_b: body,
            else_b: exit,
        };
        let av = f.append(body, InstKind::GetVar(a));
        let bv = f.append(body, InstKind::GetVar(b));
        f.append(body, InstKind::SetVar(a, bv));
        f.append(body, InstKind::SetVar(b, av));
        let iv2 = f.append(body, InstKind::GetVar(i));
        let one2 = f.const_int(body, 1);
        let inc = f.bin(body, BinOp::Add, iv2, one2);
        f.append(body, InstKind::SetVar(i, inc));
        f.blocks[body].term = Terminator::Jump(h);
        let af = f.append(exit, InstKind::GetVar(a));
        let bf = f.append(exit, InstKind::GetVar(b));
        let ten = f.const_int(exit, 10);
        let m = f.bin(exit, BinOp::Mul, af, ten);
        let r = f.bin(exit, BinOp::Add, m, bf);
        f.blocks[exit].term = Terminator::Return(Some(r));

        construct_ssa(&mut f);
        split_critical_edges(&mut f);
        destruct_ssa(&mut f);
        assert!(!f.is_ssa);
        assert!(!f.insts.iter().any(|i| matches!(i.kind, InstKind::Phi(_))));

        let mut m = Module::new();
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        match ev.call(fid, &[]).unwrap() {
            EvalOutcome::Return(Some(v)) => assert_eq!(v as i64, 21),
            o => panic!("unexpected outcome {o:?}"),
        }
    }

    #[test]
    fn simple_merge_preserved() {
        // return p ? 3 : 4
        let mut f = Function::new("sel", vec![Ty::Int], Ty::Int);
        let x = f.vars.push(VarInfo {
            name: "x".into(),
            ty: Ty::Int,
            frame_size: None,
        });
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
        let c3 = f.const_int(t, 3);
        f.append(t, InstKind::SetVar(x, c3));
        f.blocks[t].term = Terminator::Jump(j);
        let c4 = f.const_int(el, 4);
        f.append(el, InstKind::SetVar(x, c4));
        f.blocks[el].term = Terminator::Jump(j);
        let g = f.append(j, InstKind::GetVar(x));
        f.blocks[j].term = Terminator::Return(Some(g));

        construct_ssa(&mut f);
        split_critical_edges(&mut f);
        destruct_ssa(&mut f);

        let mut m = Module::new();
        let fid = m.funcs.push(f);
        for (arg, want) in [(1u64, 3i64), (0, 4)] {
            let mut ev = Evaluator::new(&m);
            match ev.call(fid, &[arg]).unwrap() {
                EvalOutcome::Return(Some(v)) => assert_eq!(v as i64, want),
                o => panic!("unexpected outcome {o:?}"),
            }
        }
    }

    #[test]
    fn const_folding_of_phi_sources_is_not_required() {
        // φ with identical constant sources still lowers correctly.
        let mut f = Function::new("same", vec![Ty::Int], Ty::Int);
        let x = f.vars.push(VarInfo {
            name: "x".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let e = f.entry;
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let p = f.append(e, InstKind::Param(0));
        let c9 = f.const_int(e, 9);
        f.blocks[e].term = Terminator::Branch {
            cond: p,
            then_b: t,
            else_b: el,
        };
        f.append(t, InstKind::SetVar(x, c9));
        f.blocks[t].term = Terminator::Jump(j);
        f.append(el, InstKind::SetVar(x, c9));
        f.blocks[el].term = Terminator::Jump(j);
        let g = f.append(j, InstKind::GetVar(x));
        f.blocks[j].term = Terminator::Return(Some(g));
        construct_ssa(&mut f);
        split_critical_edges(&mut f);
        destruct_ssa(&mut f);
        let mut m = Module::new();
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        match ev.call(fid, &[7]).unwrap() {
            EvalOutcome::Return(Some(v)) => assert_eq!(v, 9),
            o => panic!("unexpected outcome {o:?}"),
        }
        let _ = Const::Int(0);
    }
}
