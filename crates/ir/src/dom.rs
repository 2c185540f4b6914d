//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).
//!
//! Used by SSA construction (φ placement at iterated dominance frontiers)
//! and by the loop finder.

use crate::cfg::{reverse_postorder_into, Preds};
use crate::func::Function;
use crate::ids::{BlockId, IdSet, IndexVec};

/// Immediate-dominator tree over the reachable blocks of a function.
///
/// A tree can be recomputed for another function in place
/// ([`DomTree::recompute`]), reusing its tables: a pass that keeps one
/// across the functions of a compile allocates for the largest only.
#[derive(Clone, Debug, Default)]
pub struct DomTree {
    idom: IndexVec<BlockId, Option<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_pos: IndexVec<BlockId, usize>,
    preds: Preds,
    /// Scratch for the RPO walk.
    seen: IdSet<BlockId>,
    stack: Vec<(BlockId, u32)>,
}

/// Dominance frontiers of every block, as one flat list with per-block
/// offsets.
#[derive(Clone, Debug, Default)]
pub struct Frontiers {
    /// `list[start[b]..start[b + 1]]` is the frontier of `b`.
    start: Vec<u32>,
    list: Vec<BlockId>,
    /// Scratch: `(block, frontier member)` in discovery order, and the
    /// last member each block was given.
    pairs: Vec<(BlockId, BlockId)>,
    last: Vec<u32>,
}

impl Frontiers {
    /// The dominance frontier of `b`, in discovery order.
    #[inline]
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.list[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

impl DomTree {
    /// Compute the dominator tree with the Cooper–Harvey–Kennedy iterative
    /// algorithm ("A Simple, Fast Dominance Algorithm").
    pub fn compute(f: &Function) -> Self {
        let mut dom = DomTree::default();
        dom.recompute(f);
        dom
    }

    /// Compute the dominator tree of `f` into this one, reusing its
    /// tables.
    pub fn recompute(&mut self, f: &Function) {
        let DomTree {
            idom,
            rpo,
            rpo_pos,
            preds,
            seen,
            stack,
        } = self;
        preds.recompute(f);
        reverse_postorder_into(f, rpo, seen, stack);
        rpo_pos.reset(f.blocks.len(), usize::MAX);
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        idom.reset(f.blocks.len(), None);
        idom[f.entry] = Some(f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.of(b) {
                    if idom[p].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(idom, rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni) {
                        idom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
    }

    fn intersect(
        idom: &IndexVec<BlockId, Option<BlockId>>,
        pos: &IndexVec<BlockId, usize>,
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while pos[a] > pos[b] {
                a = idom[a].expect("reachable block has idom");
            }
            while pos[b] > pos[a] {
                b = idom[b].expect("reachable block has idom");
            }
        }
        a
    }

    /// Immediate dominator of `b`; `None` for the entry or unreachable
    /// blocks.
    #[inline]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b] {
            Some(d) if d != b || self.rpo_pos[b] != 0 => Some(d),
            Some(_) => None, // entry dominates itself; report no parent
            None => None,
        }
    }

    /// Whether `b` is reachable (has a dominator entry).
    #[inline]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b].is_some()
    }

    /// Whether `a` dominates `b` (reflexively).
    #[inline]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// The blocks in reverse post-order (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the RPO (`usize::MAX` when unreachable).
    pub fn rpo_pos(&self, b: BlockId) -> usize {
        self.rpo_pos[b]
    }

    /// The predecessors of every block, as the tree was computed from
    /// them.
    pub fn preds(&self) -> &Preds {
        &self.preds
    }

    /// Dominance frontiers of every block.
    pub fn frontiers(&self, f: &Function) -> Frontiers {
        let mut df = Frontiers::default();
        self.frontiers_into(f, &mut df);
        df
    }

    /// Dominance frontiers of every block into `df`, reusing its tables.
    /// Each frontier lists its members in the order the walk meets them
    /// (blocks in RPO, then their predecessors in order).
    pub fn frontiers_into(&self, f: &Function, df: &mut Frontiers) {
        let n = f.blocks.len();
        let Frontiers {
            start,
            list,
            pairs,
            last,
        } = df;
        pairs.clear();
        // `last[r]` is one past the block `r` was last given: a block's
        // members all arrive while that block is walked, so this is the
        // duplicate check.
        last.clear();
        last.resize(n, 0);
        let preds = &self.preds;
        for &b in &self.rpo {
            let ps = preds.of(b);
            if ps.len() < 2 {
                continue;
            }
            let Some(idom_b) = self.idom(b) else { continue };
            for &p in ps {
                if !self.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != idom_b {
                    if last[runner.index()] != b.0 + 1 {
                        last[runner.index()] = b.0 + 1;
                        pairs.push((runner, b));
                    }
                    match self.idom(runner) {
                        Some(d) => runner = d,
                        None => break,
                    }
                }
            }
        }
        // Group by block, keeping discovery order within each frontier.
        start.clear();
        start.resize(n + 1, 0);
        for &(r, _) in pairs.iter() {
            start[r.index() + 1] += 1;
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        list.clear();
        list.resize(pairs.len(), BlockId(0));
        last.clear();
        last.extend_from_slice(&start[..n]);
        for &(r, b) in pairs.iter() {
            list[last[r.index()] as usize] = b;
            last[r.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Function;
    use crate::inst::{Terminator, Ty};

    /// entry -> a -> c; entry -> b -> c; c -> d
    fn diamond_tail() -> Function {
        let mut f = Function::new("t", vec![], Ty::None);
        let e = f.entry;
        let a = f.add_block();
        let b = f.add_block();
        let c = f.add_block();
        let d = f.add_block();
        let cond = f.const_int(e, 1);
        f.blocks[e].term = Terminator::Branch {
            cond,
            then_b: a,
            else_b: b,
        };
        f.blocks[a].term = Terminator::Jump(c);
        f.blocks[b].term = Terminator::Jump(c);
        f.blocks[c].term = Terminator::Jump(d);
        f.blocks[d].term = Terminator::Return(None);
        f
    }

    #[test]
    fn idoms_of_diamond() {
        let f = diamond_tail();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(0)), None);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(4)), Some(BlockId(3)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let f = diamond_tail();
        let dt = DomTree::compute(&f);
        assert!(dt.dominates(BlockId(0), BlockId(4)));
        assert!(dt.dominates(BlockId(3), BlockId(4)));
        assert!(dt.dominates(BlockId(2), BlockId(2)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(!dt.dominates(BlockId(4), BlockId(0)));
    }

    #[test]
    fn frontier_of_branch_arms_is_join() {
        let f = diamond_tail();
        let dt = DomTree::compute(&f);
        let df = dt.frontiers(&f);
        assert_eq!(df.of(BlockId(1)), [BlockId(3)]);
        assert_eq!(df.of(BlockId(2)), [BlockId(3)]);
        assert!(df.of(BlockId(0)).is_empty());
        assert!(df.of(BlockId(3)).is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        // entry -> h; h -> body -> h; h -> exit
        let mut f = Function::new("l", vec![], Ty::None);
        let e = f.entry;
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let c = f.const_int(h, 1);
        f.blocks[e].term = Terminator::Jump(h);
        f.blocks[h].term = Terminator::Branch {
            cond: c,
            then_b: body,
            else_b: exit,
        };
        f.blocks[body].term = Terminator::Jump(h);
        f.blocks[exit].term = Terminator::Return(None);
        let dt = DomTree::compute(&f);
        let df = dt.frontiers(&f);
        assert!(df.of(h).contains(&h));
        assert!(df.of(body).contains(&h));
        assert_eq!(dt.idom(body), Some(h));
        assert_eq!(dt.idom(exit), Some(h));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut f = diamond_tail();
        let orphan = f.add_block();
        f.blocks[orphan].term = Terminator::Return(None);
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(orphan));
        assert_eq!(dt.idom(orphan), None);
    }
}
