//! The run-time-constants analysis, interleaved with the reachability
//! analysis (§3.1 and Appendix A of the paper).
//!
//! Given the programmer-annotated constant roots of a dynamic region, the
//! analysis computes the *greatest* fixed point — the largest set of values
//! that are invariant across every execution of the region:
//!
//! * `x := y op z` is constant iff `y`, `z` are and `op` is idempotent,
//!   side-effect-free and non-trapping (so `/` is out; see
//!   [`dyncomp_ir::BinOp::is_specializable`]);
//! * `x := f(…)` likewise, for pure intrinsics only (`malloc`-like
//!   allocation is not idempotent);
//! * `x := *p` is constant iff `p` is and the load is not annotated
//!   `dynamic*`; stores have no effect on the constant set;
//! * a φ at a merge is constant iff all its operands are **and** the merge
//!   is a *constant merge*: either the header of an `unrolled` loop, or a
//!   merge whose predecessors' reachability conditions are pairwise
//!   mutually exclusive.
//!
//! The reachability analysis supplies that last test. It runs forward over
//! the region, conjoining a branch literal `B→S` along each successor arc
//! of a *constant* branch and disjoining at merges (see [`crate::cond`]).
//! The two analyses are interdependent — reachability needs to know which
//! branches are constant, constants need to know which merges are constant
//! — so they are iterated together to a combined (greatest) fixed point, in
//! the style of Click & Cooper's combined analyses. The optimistic start
//! (everything constant) is what lets values circulate through unrolled
//! loop headers (the paper's `p := p->next` pointer-chase example).

use crate::cond::{Cond, Literal};
use dyncomp_ir::{
    BlockId, DynRegion, Function, IdSet, IndexVec, InstId, InstKind, RegionId, Terminator,
};
use std::collections::HashMap;

/// Block sets and headers of `unrolled` loops, used to weaken conditions at
/// loop boundaries (per-iteration branch outcomes must not escape).
type LoopScopes = Vec<(IdSet<BlockId>, BlockId)>;

/// Weaken `cond` when the arc `p → s` exits an unrolled loop or crosses
/// its back edge: forget the literals of branches inside that loop.
fn forget_at_boundary(scopes: &LoopScopes, cond: Cond, p: BlockId, s: BlockId) -> Cond {
    let mut c = cond;
    for (blocks, header) in scopes {
        if blocks.contains(p) && (!blocks.contains(s) || s == *header) {
            c = c.forget(|b| blocks.contains(b));
        }
    }
    c
}

/// Analysis configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Run the reachability analysis interleaved with the constants
    /// analysis (the paper's approach). When `false`, only unrolled loop
    /// headers are constant merges — the ablation showing what is lost on
    /// unstructured graphs without reachability conditions.
    pub use_reachability: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            use_reachability: true,
        }
    }
}

/// Results of analyzing one dynamic region.
#[derive(Clone, Debug)]
pub struct RegionAnalysis {
    /// Which region was analyzed.
    pub region: RegionId,
    /// Values (including the annotated roots) that are run-time constants.
    pub const_values: IdSet<InstId>,
    /// Region blocks whose multi-way terminator tests a run-time constant.
    pub const_branches: IdSet<BlockId>,
    /// Region merge blocks classified as constant merges.
    pub const_merges: IdSet<BlockId>,
    /// Reachability condition of each region block.
    pub reach: HashMap<BlockId, Cond>,
}

impl RegionAnalysis {
    /// Whether value `v` is a run-time constant.
    pub fn is_const(&self, v: InstId) -> bool {
        self.const_values.contains(v)
    }
}

/// Arity oracle for [`Cond`] simplification: successor count of each
/// constant branch.
struct Arity<'a> {
    f: &'a Function,
}

impl crate::cond::BranchArity for Arity<'_> {
    fn arity(&self, b: BlockId) -> u32 {
        self.f.blocks[b].term.successors().len() as u32
    }
}

/// Analyze one dynamic region of `f` (which must be in SSA form).
///
/// # Panics
/// Panics if `f` is not in SSA form.
pub fn analyze_region(f: &Function, region: RegionId, config: &AnalysisConfig) -> RegionAnalysis {
    assert!(f.is_ssa, "analysis requires SSA form");
    let r = &f.regions[region];

    // Optimistic start: every value defined in the region, plus the roots.
    let mut konst = IdSet::with_domain(f.insts.len());
    for &root in &r.const_roots {
        konst.insert(root);
    }
    for b in r.blocks.iter() {
        for &i in &f.blocks[b].insts {
            if f.kind(i).has_result() {
                konst.insert(i);
            }
        }
    }

    // Unrolled-loop scopes for boundary weakening.
    let scopes: LoopScopes = {
        let dom = dyncomp_ir::dom::DomTree::compute(f);
        let forest = dyncomp_ir::loops::find_loops(f, &dom);
        forest
            .loops
            .iter()
            .filter(|l| f.blocks[l.header].unrolled_header && r.blocks.contains(l.header))
            .map(|l| (l.blocks.clone(), l.header))
            .collect()
    };

    loop {
        let const_branches = find_const_branches(f, r, &konst);
        let reach = if config.use_reachability {
            compute_reach(f, r, &const_branches, &scopes)
        } else {
            // Without reachability every block is treated as plainly
            // reachable; no merge can prove exclusivity.
            r.blocks.iter().map(|b| (b, Cond::t())).collect()
        };
        let const_merges = classify_merges(f, r, &const_branches, &reach, &scopes, config);
        let new_konst = constants_fixpoint(f, r, &const_merges);
        if new_konst == konst {
            return RegionAnalysis {
                region,
                const_values: konst,
                const_branches,
                const_merges,
                reach,
            };
        }
        konst = new_konst;
    }
}

/// Region blocks whose terminator is a multi-way branch on a constant.
fn find_const_branches(f: &Function, r: &DynRegion, konst: &IdSet<InstId>) -> IdSet<BlockId> {
    let mut out = IdSet::with_domain(f.blocks.len());
    for b in r.blocks.iter() {
        let term = &f.blocks[b].term;
        let test = match term {
            Terminator::Branch { cond, .. } => Some(*cond),
            Terminator::Switch { val, .. } => Some(*val),
            _ => None,
        };
        if let Some(v) = test {
            if konst.contains(v) && term.successors().len() > 1 {
                out.insert(b);
            }
        }
    }
    out
}

/// Forward reachability fixpoint over the region subgraph.
fn compute_reach(
    f: &Function,
    r: &DynRegion,
    const_branches: &IdSet<BlockId>,
    scopes: &LoopScopes,
) -> HashMap<BlockId, Cond> {
    let arity = Arity { f };
    let rpo: Vec<BlockId> = dyncomp_ir::cfg::reverse_postorder(f)
        .into_iter()
        .filter(|&b| r.blocks.contains(b))
        .collect();
    let mut reach: IndexVec<BlockId, Cond> = f.blocks.iter().map(|_| Cond::f()).collect();
    reach[r.entry] = Cond::t();
    // The arcs into each region block, as `(source, successor index)` in
    // the order the meet consumes them: sources in RPO, then by index.
    let mut arcs_into: IndexVec<BlockId, Vec<(BlockId, u32)>> =
        f.blocks.iter().map(|_| Vec::new()).collect();
    for &p in &rpo {
        for (idx, s) in f.blocks[p].term.successors().into_iter().enumerate() {
            arcs_into[s].push((p, idx as u32));
        }
    }
    // Blocks with an arc from a block whose condition changed since they
    // were last met. The meet is a function of those conditions alone, so
    // re-meeting any other block would reproduce its condition.
    let mut stale: IdSet<BlockId> = rpo.iter().copied().collect();

    // Iterate to a fixpoint; the widening in `Cond::or` bounds growth, and
    // the round cap guards against pathological ping-ponging by widening
    // whatever is still unstable.
    let max_rounds = rpo.len() * 4 + 8;
    for round in 0..max_rounds {
        let mut changed = false;
        for &b in &rpo {
            if b == r.entry || !stale.remove(b) {
                continue;
            }
            let mut acc = Cond::f();
            for &(p, idx) in &arcs_into[b] {
                let base = &reach[p];
                let contrib = if const_branches.contains(p) {
                    base.and_literal(Literal {
                        branch: p,
                        succ: idx,
                    })
                } else {
                    base.clone()
                };
                let contrib = forget_at_boundary(scopes, contrib, p, b);
                acc = acc.or(&contrib, &arity);
            }
            if acc != reach[b] {
                if round + 1 == max_rounds {
                    acc = Cond::t();
                }
                reach[b] = acc;
                changed = true;
                for s in f.blocks[b].term.successors() {
                    stale.insert(s);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut out: HashMap<BlockId, Cond> = rpo
        .iter()
        .map(|&b| (b, std::mem::replace(&mut reach[b], Cond::f())))
        .collect();
    out.insert(r.entry, Cond::t());
    out
}

/// Per-predecessor arc condition into `b` (OR over parallel arcs).
fn pred_condition(
    f: &Function,
    const_branches: &IdSet<BlockId>,
    reach: &HashMap<BlockId, Cond>,
    scopes: &LoopScopes,
    p: BlockId,
    b: BlockId,
) -> Cond {
    let arity = Arity { f };
    let mut acc = Cond::f();
    let base = reach.get(&p).cloned().unwrap_or_else(Cond::f);
    for (idx, &s) in f.blocks[p].term.successors().iter().enumerate() {
        if s != b {
            continue;
        }
        let contrib = if const_branches.contains(p) {
            base.and_literal(Literal {
                branch: p,
                succ: idx as u32,
            })
        } else {
            base.clone()
        };
        let contrib = forget_at_boundary(scopes, contrib, p, b);
        acc = acc.or(&contrib, &arity);
    }
    acc
}

/// Classify each region merge as constant or not.
fn classify_merges(
    f: &Function,
    r: &DynRegion,
    const_branches: &IdSet<BlockId>,
    reach: &HashMap<BlockId, Cond>,
    scopes: &LoopScopes,
    config: &AnalysisConfig,
) -> IdSet<BlockId> {
    let mut merges = IdSet::with_domain(f.blocks.len());
    let preds = dyncomp_ir::cfg::Preds::compute(f);
    for b in r.blocks.iter() {
        // Unrolled loop headers are constant merges by fiat (§3.1): at run
        // time exactly one predecessor arc enters each unrolled copy.
        if f.blocks[b].unrolled_header {
            merges.insert(b);
            continue;
        }
        let ps: Vec<BlockId> = preds.of(b).to_vec();
        if ps.len() <= 1 {
            merges.insert(b); // trivially constant (no real merge)
            continue;
        }
        if !config.use_reachability {
            continue;
        }
        // A merge with predecessors outside the region (the region entry)
        // cannot be proven constant from in-region branch outcomes.
        if ps.iter().any(|p| !r.blocks.contains(*p)) {
            continue;
        }
        let conds: Vec<Cond> = ps
            .iter()
            .map(|&p| pred_condition(f, const_branches, reach, scopes, p, b))
            .collect();
        let all_exclusive = conds
            .iter()
            .enumerate()
            .all(|(i, a)| conds.iter().skip(i + 1).all(|c| a.exclusive(c)));
        if all_exclusive {
            merges.insert(b);
        }
    }
    merges
}

/// Greatest-fixpoint constants computation given a merge classification:
/// start from "everything constant" and delete violators until stable.
fn constants_fixpoint(f: &Function, r: &DynRegion, const_merges: &IdSet<BlockId>) -> IdSet<InstId> {
    let mut konst = IdSet::with_domain(f.insts.len());
    for &root in &r.const_roots {
        konst.insert(root);
    }
    let mut region_insts: Vec<(BlockId, InstId)> = Vec::new();
    for b in r.blocks.iter() {
        for &i in &f.blocks[b].insts {
            if f.kind(i).has_result() {
                konst.insert(i);
                region_insts.push((b, i));
            }
        }
    }
    let roots: IdSet<InstId> = r.const_roots.iter().copied().collect();

    loop {
        let mut changed = false;
        for &(b, i) in &region_insts {
            if !konst.contains(i) || roots.contains(i) {
                continue;
            }
            let ok = match f.kind(i) {
                InstKind::Phi(ins) => {
                    const_merges.contains(b) && ins.iter().all(|(_, v)| konst.contains(*v))
                }
                InstKind::Load { addr, dynamic, .. } => !*dynamic && konst.contains(*addr),
                k => k.is_specializable_op() && k.operands().all(|v| konst.contains(v)),
            };
            if !ok {
                konst.remove(i);
                changed = true;
            }
        }
        if !changed {
            return konst;
        }
    }
}
