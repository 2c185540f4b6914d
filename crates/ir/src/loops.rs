//! Natural-loop discovery and reducibility checking.
//!
//! The specializer needs to know, for each `unrolled`-annotated loop
//! header, the set of body blocks, the back edges, and the exit arcs. The
//! set-up code generator additionally requires the region CFG to be
//! *reducible* (every retreating edge targets a block that dominates its
//! source); MiniC's structured loops plus forward `goto` always satisfy
//! this, and [`find_loops`] reports irreducibility so callers can reject
//! the rare `goto`-into-loop graphs the scheme cannot handle.

use crate::dom::DomTree;
use crate::func::Function;
use crate::ids::{BlockId, IdSet};

/// A natural loop: the smallest block set containing the header and all
/// back-edge sources, closed under predecessors up to the header.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: IdSet<BlockId>,
    /// Sources of back edges (`latch -> header`).
    pub latches: Vec<BlockId>,
    /// Arcs leaving the loop: `(from inside, to outside)`.
    pub exits: Vec<(BlockId, BlockId)>,
    /// Loop nesting depth (1 = outermost).
    pub depth: u32,
    /// Index of the innermost enclosing loop in the forest, if any.
    pub parent: Option<usize>,
}

/// The loop forest of a function.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// All natural loops, outermost-first within each nest.
    pub loops: Vec<NaturalLoop>,
    /// Whether any retreating edge failed the natural-loop test.
    pub irreducible: bool,
}

impl LoopForest {
    /// The innermost loop whose header is `h`, if any.
    pub fn loop_with_header(&self, h: BlockId) -> Option<&NaturalLoop> {
        self.loops.iter().find(|l| l.header == h)
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.blocks.contains(b))
            .max_by_key(|(_, l)| l.depth)
            .map(|(i, _)| i)
    }
}

/// Find all natural loops of `f`.
pub fn find_loops(f: &Function, dom: &DomTree) -> LoopForest {
    let preds = dom.preds();
    let mut headers: Vec<BlockId> = Vec::new();
    let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
    let mut irreducible = false;

    // A back edge is an edge b -> h where h dominates b.
    for &b in dom.rpo() {
        for s in f.blocks[b].term.successors() {
            let retreating = dom.rpo_pos(s) <= dom.rpo_pos(b);
            if !retreating {
                continue;
            }
            if dom.dominates(s, b) {
                match headers.iter().position(|&h| h == s) {
                    Some(i) => latches_of[i].push(b),
                    None => {
                        headers.push(s);
                        latches_of.push(vec![b]);
                    }
                }
            } else {
                irreducible = true;
            }
        }
    }

    let mut loops: Vec<NaturalLoop> = Vec::new();
    for (i, &header) in headers.iter().enumerate() {
        let mut blocks = IdSet::with_domain(f.blocks.len());
        blocks.insert(header);
        let mut stack = latches_of[i].clone();
        for &l in &latches_of[i] {
            blocks.insert(l);
        }
        while let Some(b) = stack.pop() {
            if b == header {
                continue;
            }
            for &p in preds.of(b) {
                if dom.is_reachable(p) && blocks.insert(p) {
                    stack.push(p);
                }
            }
        }
        let mut exits = Vec::new();
        for b in blocks.iter() {
            for s in f.blocks[b].term.successors() {
                if !blocks.contains(s) {
                    exits.push((b, s));
                }
            }
        }
        loops.push(NaturalLoop {
            header,
            blocks,
            latches: latches_of[i].clone(),
            exits,
            depth: 0,
            parent: None,
        });
    }

    // Nesting: loop A is nested in B iff B's blocks contain A's header and
    // A != B. Depth = number of enclosing loops + 1.
    for i in 0..loops.len() {
        let mut parent: Option<usize> = None;
        let mut best = usize::MAX;
        for j in 0..loops.len() {
            if i != j
                && loops[j].blocks.contains(loops[i].header)
                && loops[j].header != loops[i].header
            {
                let sz = loops[j].blocks.len();
                if sz < best {
                    best = sz;
                    parent = Some(j);
                }
            }
        }
        loops[i].parent = parent;
    }
    for i in 0..loops.len() {
        let mut d = 1;
        let mut p = loops[i].parent;
        while let Some(j) = p {
            d += 1;
            p = loops[j].parent;
        }
        loops[i].depth = d;
    }

    LoopForest { loops, irreducible }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Terminator, Ty};

    /// entry -> h; h -> (body, exit); body -> h
    fn simple_loop() -> Function {
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
        f
    }

    #[test]
    fn finds_single_loop() {
        let f = simple_loop();
        let dom = DomTree::compute(&f);
        let forest = find_loops(&f, &dom);
        assert!(!forest.irreducible);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.blocks.len(), 2);
        assert_eq!(l.exits, vec![(BlockId(1), BlockId(3))]);
        assert_eq!(l.depth, 1);
        assert_eq!(l.parent, None);
    }

    #[test]
    fn nested_loops_have_depth() {
        // e -> h1; h1 -> (h2, exit); h2 -> (b2, h1latch); b2 -> h2; h1latch -> h1
        let mut f = Function::new("n", vec![], Ty::None);
        let e = f.entry;
        let h1 = f.add_block();
        let h2 = f.add_block();
        let b2 = f.add_block();
        let l1 = f.add_block();
        let exit = f.add_block();
        let c1 = f.const_int(h1, 1);
        let c2 = f.const_int(h2, 1);
        f.blocks[e].term = Terminator::Jump(h1);
        f.blocks[h1].term = Terminator::Branch {
            cond: c1,
            then_b: h2,
            else_b: exit,
        };
        f.blocks[h2].term = Terminator::Branch {
            cond: c2,
            then_b: b2,
            else_b: l1,
        };
        f.blocks[b2].term = Terminator::Jump(h2);
        f.blocks[l1].term = Terminator::Jump(h1);
        f.blocks[exit].term = Terminator::Return(None);
        let dom = DomTree::compute(&f);
        let forest = find_loops(&f, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loop_with_header(h1).unwrap();
        let inner = forest.loop_with_header(h2).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.blocks.contains(h2));
        assert!(outer.blocks.contains(b2));
        assert!(!inner.blocks.contains(l1));
        assert_eq!(
            forest.innermost_containing(b2),
            forest.loops.iter().position(|l| l.header == h2)
        );
    }

    #[test]
    fn irreducible_graph_detected() {
        // e -> (a, b); a -> b; b -> a  (two-entry cycle)
        let mut f = Function::new("ir", vec![], Ty::None);
        let e = f.entry;
        let a = f.add_block();
        let b = f.add_block();
        let c = f.const_int(e, 1);
        f.blocks[e].term = Terminator::Branch {
            cond: c,
            then_b: a,
            else_b: b,
        };
        f.blocks[a].term = Terminator::Jump(b);
        f.blocks[b].term = Terminator::Jump(a);
        let dom = DomTree::compute(&f);
        let forest = find_loops(&f, &dom);
        assert!(forest.irreducible);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut f = Function::new("s", vec![], Ty::None);
        f.blocks[f.entry].term = Terminator::Return(None);
        let dom = DomTree::compute(&f);
        let forest = find_loops(&f, &dom);
        assert!(forest.loops.is_empty());
        assert!(!forest.irreducible);
    }
}
