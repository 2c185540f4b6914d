//! SSA construction: variable accesses to value flow plus φ-instructions.
//!
//! Classic Cytron et al. construction: φs are placed at the iterated
//! dominance frontier of each variable's definition blocks, then a renaming
//! walk over the dominator tree replaces [`InstKind::GetVar`] with copies of
//! the reaching definition and deletes [`InstKind::SetVar`].
//!
//! The paper's analyses (§3.1, Appendix A) assume the dynamic region is in
//! SSA form, so this pass runs before them. Frame-allocated variables
//! (arrays, address-taken locals) are not renamed; they stay in memory and
//! are accessed through [`InstKind::FrameAddr`].

use crate::dom::DomTree;
use crate::func::Function;
use crate::ids::{BlockId, IndexVec, InstId, VarId};
use crate::inst::{InstKind, Ty};
use crate::ops::Const;

/// Convert `f` to SSA form in place.
///
/// # Panics
/// Panics if the function is already in SSA form.
pub fn construct_ssa(f: &mut Function) {
    assert!(!f.is_ssa, "function {} is already in SSA form", f.name);
    let dom = DomTree::compute(f);
    let df = dom.frontiers(f);

    // 1. Definition sites per renameable variable.
    let renameable: Vec<bool> = f.vars.iter().map(|v| v.frame_size.is_none()).collect();
    let mut def_blocks: IndexVec<VarId, Vec<BlockId>> =
        (0..f.vars.len()).map(|_| Vec::new()).collect();
    for &b in dom.rpo() {
        for &i in &f.blocks[b].insts {
            if let InstKind::SetVar(x, _) = f.kind(i) {
                if renameable[x.index()] && !def_blocks[*x].contains(&b) {
                    def_blocks[*x].push(b);
                }
            }
        }
    }

    // 2. φ placement at iterated dominance frontiers. The φs are created
    // back to back, so φ `phi_base + k` stands for variable `phi_var[k]`.
    let phi_base = f.insts.len();
    let mut phi_var: Vec<VarId> = Vec::new();
    // `placed[b]` is one past the last variable given a φ in `b`.
    let mut placed: IndexVec<BlockId, u32> = (0..f.blocks.len()).map(|_| 0).collect();
    let mut work: Vec<BlockId> = Vec::new();
    for x in (0..f.vars.len()).map(VarId::from_index) {
        if !renameable[x.index()] || def_blocks[x].is_empty() {
            continue;
        }
        let var_ty = f.vars[x].ty;
        work.clear();
        work.extend_from_slice(&def_blocks[x]);
        while let Some(b) = work.pop() {
            for &fr in &df[b] {
                if placed[fr] == x.0 + 1 {
                    continue;
                }
                placed[fr] = x.0 + 1;
                let phi = f.insts.push(crate::func::InstData {
                    kind: InstKind::Phi(Vec::new()),
                    ty: var_ty,
                });
                f.blocks[fr].insts.insert(0, phi);
                phi_var.push(x);
                if !def_blocks[x].contains(&fr) {
                    work.push(fr);
                }
            }
        }
    }
    let phi_of = |i: InstId| {
        i.index()
            .checked_sub(phi_base)
            .and_then(|k| phi_var.get(k).copied())
    };

    // 3. Renaming walk over the dominator tree: `children[b]` is
    // `kids[first_kid[b]..first_kid[b + 1]]`, in RPO.
    let mut first_kid = vec![0usize; f.blocks.len() + 1];
    for &b in dom.rpo() {
        if let Some(d) = dom.idom(b) {
            first_kid[d.index() + 1] += 1;
        }
    }
    for i in 1..first_kid.len() {
        first_kid[i] += first_kid[i - 1];
    }
    let mut fill = first_kid.clone();
    let mut kids = vec![f.entry; first_kid[f.blocks.len()]];
    for &b in dom.rpo() {
        if let Some(d) = dom.idom(b) {
            kids[fill[d.index()]] = b;
            fill[d.index()] += 1;
        }
    }

    let mut stacks: IndexVec<VarId, Vec<InstId>> = (0..f.vars.len()).map(|_| Vec::new()).collect();
    // Lazily created "undefined" value (reads before any write).
    let mut undef_int: Option<InstId> = None;
    let mut undef_float: Option<InstId> = None;

    enum Step {
        Enter(BlockId),
        /// Pop the variables `pushed[from..]` pushed since the block's
        /// entry.
        Leave(usize),
    }
    let mut pushed: Vec<VarId> = Vec::new();
    let mut walk = vec![Step::Enter(f.entry)];
    while let Some(step) = walk.pop() {
        match step {
            Step::Enter(b) => {
                let from = pushed.len();
                let mut insts = std::mem::take(&mut f.blocks[b].insts);
                // φs define first.
                for &i in &insts {
                    if let Some(x) = phi_of(i) {
                        stacks[x].push(i);
                        pushed.push(x);
                    }
                }
                // Body: rewrite reads, record writes, delete SetVar.
                insts.retain(|&i| {
                    if phi_of(i).is_some() {
                        return true;
                    }
                    match *f.kind(i) {
                        InstKind::GetVar(x) if renameable[x.index()] => {
                            let cur = match stacks[x].last() {
                                Some(&d) => d,
                                None => {
                                    undef_value(f, &mut undef_int, &mut undef_float, f.vars[x].ty)
                                }
                            };
                            f.insts[i].kind = InstKind::Copy(cur);
                            f.insts[i].ty = f.insts[cur].ty;
                            true
                        }
                        InstKind::SetVar(x, v) if renameable[x.index()] => {
                            stacks[x].push(v);
                            pushed.push(x);
                            // The SetVar instruction is dropped entirely.
                            false
                        }
                        _ => true,
                    }
                });
                f.blocks[b].insts = insts;
                // Fill φ-operands of successors. Should an undefined value
                // land at the front of a successor (the entry block), the
                // walk meets the φ it was at again and finds its operand
                // already there.
                for k in 0..f.blocks[b].term.successors().len() {
                    let s = f.blocks[b].term.successors().nth(k).expect("k < len");
                    let mut at = 0;
                    while let Some(&i) = f.blocks[s].insts.get(at) {
                        at += 1;
                        let Some(x) = phi_of(i) else { continue };
                        let cur = match stacks[x].last() {
                            Some(&d) => d,
                            None => undef_value(f, &mut undef_int, &mut undef_float, f.vars[x].ty),
                        };
                        if let InstKind::Phi(ins) = &mut f.insts[i].kind {
                            if !ins.iter().any(|(p, _)| *p == b) {
                                ins.push((b, cur));
                            }
                        }
                    }
                }
                walk.push(Step::Leave(from));
                for &c in kids[first_kid[b.index()]..first_kid[b.index() + 1]]
                    .iter()
                    .rev()
                {
                    walk.push(Step::Enter(c));
                }
            }
            Step::Leave(from) => {
                for x in pushed.drain(from..) {
                    stacks[x].pop();
                }
            }
        }
    }

    f.is_ssa = true;
}

fn undef_value(
    f: &mut Function,
    undef_int: &mut Option<InstId>,
    undef_float: &mut Option<InstId>,
    ty: Ty,
) -> InstId {
    let slot = if ty == Ty::Float {
        undef_float
    } else {
        undef_int
    };
    if let Some(v) = *slot {
        return v;
    }
    let kind = if ty == Ty::Float {
        InstKind::Const(Const::Float(0.0))
    } else {
        InstKind::Const(Const::Int(0))
    };
    let id = f.create_inst(kind);
    let entry = f.entry;
    f.blocks[entry].insts.insert(0, id);
    *slot = Some(id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::VarInfo;
    use crate::inst::Terminator;
    use crate::ops::BinOp;

    fn var(f: &mut Function, name: &str) -> VarId {
        f.vars.push(VarInfo {
            name: name.into(),
            ty: Ty::Int,
            frame_size: None,
        })
    }

    /// The paper's §3.1 merge example:
    ///   if (test) x = 1; else x = 2;  use(x)
    #[test]
    fn phi_inserted_at_merge() {
        let mut f = Function::new("m", vec![Ty::Int], Ty::Int);
        let x = var(&mut f, "x");
        let e = f.entry;
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let test = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Branch {
            cond: test,
            then_b: t,
            else_b: el,
        };
        let c1 = f.const_int(t, 1);
        f.append(t, InstKind::SetVar(x, c1));
        f.blocks[t].term = Terminator::Jump(j);
        let c2 = f.const_int(el, 2);
        f.append(el, InstKind::SetVar(x, c2));
        f.blocks[el].term = Terminator::Jump(j);
        let u = f.append(j, InstKind::GetVar(x));
        f.blocks[j].term = Terminator::Return(Some(u));

        construct_ssa(&mut f);
        assert!(f.is_ssa);
        // Join block now begins with a φ merging c1 and c2.
        let first = f.blocks[j].insts[0];
        match f.kind(first) {
            InstKind::Phi(ins) => {
                let mut vals: Vec<InstId> = ins.iter().map(|(_, v)| *v).collect();
                vals.sort();
                assert_eq!(vals, vec![c1, c2]);
            }
            k => panic!("expected phi, got {k:?}"),
        }
        // The read became a copy of the φ.
        assert_eq!(*f.kind(u), InstKind::Copy(first));
        // No variable accesses remain in placed code (dropped SetVars stay
        // in the pool but are detached from every block).
        for (_, blk) in f.iter_blocks() {
            for &i in &blk.insts {
                assert!(!matches!(
                    f.kind(i),
                    InstKind::GetVar(_) | InstKind::SetVar(..)
                ));
            }
        }
    }

    #[test]
    fn straightline_needs_no_phi() {
        let mut f = Function::new("s", vec![], Ty::Int);
        let x = var(&mut f, "x");
        let e = f.entry;
        let c1 = f.const_int(e, 7);
        f.append(e, InstKind::SetVar(x, c1));
        let g = f.append(e, InstKind::GetVar(x));
        let c2 = f.const_int(e, 1);
        let s = f.bin(e, BinOp::Add, g, c2);
        f.append(e, InstKind::SetVar(x, s));
        let g2 = f.append(e, InstKind::GetVar(x));
        f.blocks[e].term = Terminator::Return(Some(g2));

        construct_ssa(&mut f);
        assert_eq!(*f.kind(g), InstKind::Copy(c1));
        assert_eq!(*f.kind(g2), InstKind::Copy(s));
        assert!(!f.insts.iter().any(|i| matches!(i.kind, InstKind::Phi(_))));
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        // i = 0; while (i < 10) i = i + 1; return i
        let mut f = Function::new("l", vec![], Ty::Int);
        let i_var = var(&mut f, "i");
        let e = f.entry;
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let z = f.const_int(e, 0);
        f.append(e, InstKind::SetVar(i_var, z));
        f.blocks[e].term = Terminator::Jump(h);
        let iv = f.append(h, InstKind::GetVar(i_var));
        let ten = f.const_int(h, 10);
        let c = f.bin(h, BinOp::CmpLtS, iv, ten);
        f.blocks[h].term = Terminator::Branch {
            cond: c,
            then_b: body,
            else_b: exit,
        };
        let iv2 = f.append(body, InstKind::GetVar(i_var));
        let one = f.const_int(body, 1);
        let inc = f.bin(body, BinOp::Add, iv2, one);
        f.append(body, InstKind::SetVar(i_var, inc));
        f.blocks[body].term = Terminator::Jump(h);
        let ret = f.append(exit, InstKind::GetVar(i_var));
        f.blocks[exit].term = Terminator::Return(Some(ret));

        construct_ssa(&mut f);
        let phi = f.blocks[h].insts[0];
        match f.kind(phi) {
            InstKind::Phi(ins) => {
                assert_eq!(ins.len(), 2);
                let from_entry = ins.iter().find(|(p, _)| *p == e).unwrap().1;
                let from_body = ins.iter().find(|(p, _)| *p == body).unwrap().1;
                assert_eq!(from_entry, z);
                assert_eq!(from_body, inc);
            }
            k => panic!("expected phi, got {k:?}"),
        }
        assert_eq!(*f.kind(iv), InstKind::Copy(phi));
        assert_eq!(*f.kind(iv2), InstKind::Copy(phi));
    }

    #[test]
    fn read_before_write_yields_zero_undef() {
        let mut f = Function::new("u", vec![], Ty::Int);
        let x = var(&mut f, "x");
        let e = f.entry;
        let g = f.append(e, InstKind::GetVar(x));
        f.blocks[e].term = Terminator::Return(Some(g));
        construct_ssa(&mut f);
        match f.kind(g) {
            InstKind::Copy(v) => assert_eq!(f.as_const(*v), Some(Const::Int(0))),
            k => panic!("expected copy of undef, got {k:?}"),
        }
    }

    #[test]
    fn frame_vars_left_alone() {
        let mut f = Function::new("fr", vec![], Ty::None);
        let arr = f.vars.push(VarInfo {
            name: "a".into(),
            ty: Ty::Int,
            frame_size: Some(64),
        });
        let e = f.entry;
        let addr = f.append(e, InstKind::FrameAddr(arr));
        f.blocks[e].term = Terminator::Return(Some(addr));
        construct_ssa(&mut f);
        assert_eq!(*f.kind(addr), InstKind::FrameAddr(arr));
    }

    #[test]
    #[should_panic(expected = "already in SSA form")]
    fn double_construction_panics() {
        let mut f = Function::new("d", vec![], Ty::None);
        f.blocks[f.entry].term = Terminator::Return(None);
        construct_ssa(&mut f);
        construct_ssa(&mut f);
    }
}
