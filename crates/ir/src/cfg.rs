//! CFG utilities: predecessor maps, traversal orders, edge splitting.

use crate::func::{Block, Function};
use crate::ids::{BlockId, IdSet, IndexVec, InstId};
use crate::inst::{InstKind, Terminator};

/// Predecessor lists for every block, with duplicate edges preserved
/// (a switch may target the same block from several cases).
#[derive(Clone, Debug)]
pub struct Preds {
    preds: IndexVec<BlockId, Vec<BlockId>>,
}

impl Preds {
    /// Compute predecessors of every block in `f`.
    pub fn compute(f: &Function) -> Self {
        let mut preds: IndexVec<BlockId, Vec<BlockId>> =
            (0..f.blocks.len()).map(|_| Vec::new()).collect();
        for (b, blk) in f.iter_blocks() {
            for s in blk.term.successors() {
                // Record each predecessor block once per distinct successor,
                // not once per edge: φ-operands are keyed by block id.
                if !preds[s].contains(&b) {
                    preds[s].push(b);
                }
            }
        }
        Preds { preds }
    }

    /// Predecessors of `b` (each predecessor block listed once).
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b]
    }
}

/// Blocks reachable from the entry.
pub fn reachable(f: &Function) -> IdSet<BlockId> {
    let mut seen = IdSet::with_domain(f.blocks.len());
    let mut stack = vec![f.entry];
    seen.insert(f.entry);
    while let Some(b) = stack.pop() {
        f.blocks[b].term.for_each_successor(|s| {
            if seen.insert(s) {
                stack.push(s);
            }
        });
    }
    seen
}

/// Reverse post-order over reachable blocks, starting at the entry.
///
/// In an RPO every block appears before its successors except along
/// retreating (loop back) edges, which makes it the canonical iteration
/// order for forward dataflow.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut po = Vec::with_capacity(f.blocks.len());
    let mut state: IndexVec<BlockId, u8> = (0..f.blocks.len()).map(|_| 0u8).collect();
    // Iterative DFS computing post-order.
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    state[f.entry] = 1;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = f.blocks[b].term.successors();
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
            }
        } else {
            po.push(b);
            state[b] = 2;
            stack.pop();
        }
    }
    po.reverse();
    po
}

/// Positions of blocks within an RPO sequence.
pub fn rpo_positions(f: &Function, rpo: &[BlockId]) -> IndexVec<BlockId, usize> {
    let mut pos: IndexVec<BlockId, usize> = (0..f.blocks.len()).map(|_| usize::MAX).collect();
    for (i, &b) in rpo.iter().enumerate() {
        pos[b] = i;
    }
    pos
}

/// Split every critical edge (an edge from a block with multiple successors
/// to a block with multiple predecessors) by inserting an empty block.
///
/// Needed before out-of-SSA copy insertion: copies for a φ must run on the
/// edge, and a critical edge has no block that executes exactly on it.
/// Returns the number of edges split.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let preds = Preds::compute(f);
    let mut nsplit = 0;
    let block_ids: Vec<BlockId> = f.blocks.ids().collect();
    for b in block_ids {
        let succs = f.blocks[b].term.successors();
        if succs.len() < 2 {
            continue;
        }
        // Deduplicate: a switch can branch to the same target through
        // several cases; they all must route through ONE new block so that
        // φ-operands (keyed by pred block) stay unambiguous.
        let mut handled: Vec<(BlockId, BlockId)> = Vec::new();
        for s in succs {
            if preds.of(s).len() < 2 {
                continue;
            }
            if let Some(&(_, n)) = handled.iter().find(|(orig, _)| *orig == s) {
                // Reuse the split block made for an earlier duplicate edge.
                f.blocks[b]
                    .term
                    .map_successors(|t| if t == s { n } else { t });
                continue;
            }
            let n = f.blocks.push(Block {
                insts: vec![],
                term: Terminator::Jump(s),
                unrolled_header: false,
                marker: None,
            });
            // A block split onto a region-internal edge belongs to the
            // region; edges crossing the region boundary split outside it.
            for r in f.regions.iter_mut() {
                if r.blocks.contains(b) && r.blocks.contains(s) {
                    r.blocks.insert(n);
                }
            }
            f.blocks[b]
                .term
                .map_successors(|t| if t == s { n } else { t });
            // Retarget φ-operands in s from b to n.
            let insts = f.blocks[s].insts.clone();
            for id in insts {
                if let InstKind::Phi(ins) = &mut f.insts[id].kind {
                    for (p, _) in ins.iter_mut() {
                        if *p == b {
                            *p = n;
                        }
                    }
                }
            }
            handled.push((s, n));
            nsplit += 1;
        }
    }
    nsplit
}

/// What [`prune_unreachable`] removed, in order.
#[derive(Clone, Debug, Default)]
pub struct Pruned {
    /// Each block it detached, with the instructions and terminator it held.
    pub cleared: Vec<(BlockId, Vec<InstId>, Terminator)>,
    /// Each φ-operand it dropped: the φ's block and the operand's value.
    pub cut: Vec<(BlockId, InstId)>,
}

/// Remove blocks unreachable from the entry, fixing φ-operand lists.
/// Detached blocks keep their storage but are emptied and end in
/// [`Terminator::Unreachable`]; the return value lists what went.
pub fn prune_unreachable(f: &mut Function) -> Pruned {
    let live = reachable(f);
    let mut pruned = Pruned::default();
    for b in f.blocks.ids() {
        let blk = &mut f.blocks[b];
        if !live.contains(b) && (!blk.insts.is_empty() || blk.term != Terminator::Unreachable) {
            let insts = std::mem::take(&mut blk.insts);
            let term = std::mem::replace(&mut blk.term, Terminator::Unreachable);
            pruned.cleared.push((b, insts, term));
        }
    }
    // Drop φ-operands that name now-unreachable predecessors. φs form a
    // prefix of their block (`verify` checks it).
    let Function { blocks, insts, .. } = &mut *f;
    for b in live.iter() {
        for &i in &blocks[b].insts {
            let InstKind::Phi(ins) = &mut insts[i].kind else {
                break;
            };
            ins.retain(|&(p, v)| {
                let keep = live.contains(p);
                if !keep {
                    pruned.cut.push((b, v));
                }
                keep
            });
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Function;
    use crate::inst::Ty;

    fn diamond() -> Function {
        // entry -> (l, r) -> join
        let mut f = Function::new("d", vec![], Ty::None);
        let e = f.entry;
        let l = f.add_block();
        let r = f.add_block();
        let j = f.add_block();
        let c = f.const_int(e, 1);
        f.blocks[e].term = Terminator::Branch {
            cond: c,
            then_b: l,
            else_b: r,
        };
        f.blocks[l].term = Terminator::Jump(j);
        f.blocks[r].term = Terminator::Jump(j);
        f.blocks[j].term = Terminator::Return(None);
        f
    }

    #[test]
    fn preds_of_diamond() {
        let f = diamond();
        let p = Preds::compute(&f);
        assert_eq!(p.of(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(p.of(BlockId(0)), &[] as &[BlockId]);
    }

    #[test]
    fn rpo_entry_first_join_last() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn reachable_excludes_orphans() {
        let mut f = diamond();
        let orphan = f.add_block();
        f.blocks[orphan].term = Terminator::Return(None);
        let live = reachable(&f);
        assert!(!live.contains(orphan));
        assert_eq!(live.len(), 4);
    }

    #[test]
    fn critical_edge_split() {
        // entry branches to (a, join); a jumps to join => edge entry->join is critical.
        let mut f = Function::new("c", vec![], Ty::None);
        let e = f.entry;
        let a = f.add_block();
        let j = f.add_block();
        let c = f.const_int(e, 1);
        f.blocks[e].term = Terminator::Branch {
            cond: c,
            then_b: a,
            else_b: j,
        };
        f.blocks[a].term = Terminator::Jump(j);
        f.blocks[j].term = Terminator::Return(None);
        let n = split_critical_edges(&mut f);
        assert_eq!(n, 1);
        // entry's else successor is now a fresh block that jumps to j.
        let succs = f.blocks[e].term.successors();
        assert_eq!(succs[0], a);
        let fresh = succs[1];
        assert_ne!(fresh, j);
        assert_eq!(f.blocks[fresh].term, Terminator::Jump(j));
    }

    #[test]
    fn switch_same_target_splits_once() {
        let mut f = Function::new("s", vec![], Ty::None);
        let e = f.entry;
        let t = f.add_block();
        let d = f.add_block();
        let v = f.const_int(e, 1);
        f.blocks[e].term = Terminator::Switch {
            val: v,
            cases: vec![(1, t), (2, t)],
            default: d,
        };
        f.blocks[t].term = Terminator::Jump(d);
        f.blocks[d].term = Terminator::Return(None);
        // d has preds {e, t} -> both switch->d (via default) edges critical;
        // t has preds {e} only, so not split.
        let n = split_critical_edges(&mut f);
        assert_eq!(n, 1);
    }

    #[test]
    fn prune_unreachable_clears_blocks() {
        let mut f = diamond();
        let orphan = f.add_block();
        f.blocks[orphan].term = Terminator::Jump(f.entry);
        let pruned = prune_unreachable(&mut f);
        assert_eq!(pruned.cleared.len(), 1);
        assert_eq!(pruned.cleared[0].0, orphan);
        assert!(pruned.cut.is_empty());
        assert_eq!(f.blocks[orphan].term, Terminator::Unreachable);
    }
}
