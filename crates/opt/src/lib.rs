//! # dyncomp-opt
//!
//! Standard global optimizations over `dyncomp-ir` SSA, applied by the
//! static compiler both before and after dynamic-region splitting (§3.3 of
//! *"Fast, Effective Dynamic Compilation"*, PLDI 1996).
//!
//! Post-split runs must respect the paper's three hole rules:
//!
//! 1. instructions containing holes never move out of template code — we
//!    guarantee this structurally by doing no cross-block code motion
//!    after splitting (CFG simplification is pre-split only);
//! 2. hole values never propagate outside the dynamic region —
//!    [`copy_propagate`] takes the template block set as a barrier;
//! 3. holes for unrolled-loop induction variables are not loop-invariant —
//!    we perform no loop-invariant code motion, so this holds trivially.
//!
//! Passes: [`fold_constants`] (constant folding + algebraic
//! simplification + static branch folding), [`copy_propagate`],
//! [`eliminate_dead_code`], [`local_cse`], and pre-split
//! [`simplify_cfg`]. [`optimize`] runs them to a fixpoint and reports
//! [`OptStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_ir::{
    BinOp, BlockId, Const, Function, GlobalId, IdSet, IndexVec, InstId, InstKind, Terminator, UnOp,
    VarId,
};
use std::collections::hash_map::Entry;

/// Counters of what the optimizer did (one `optimize` call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions folded to constants or simplified algebraically.
    pub folded: usize,
    /// Branches/switches on compile-time constants rewritten to jumps.
    pub branches_folded: usize,
    /// Uses rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Redundant computations unified by local CSE.
    pub cse_hits: usize,
    /// Blocks merged / jumps threaded by CFG simplification.
    pub cfg_simplified: usize,
}

impl OptStats {
    fn add(&mut self, o: &OptStats) {
        self.folded += o.folded;
        self.branches_folded += o.branches_folded;
        self.copies_propagated += o.copies_propagated;
        self.dead_removed += o.dead_removed;
        self.cse_hits += o.cse_hits;
        self.cfg_simplified += o.cfg_simplified;
    }

    fn any(&self) -> bool {
        *self != OptStats::default()
    }
}

/// Optimization options.
#[derive(Clone, Default)]
pub struct OptOptions {
    /// Allow CFG restructuring (block merging, jump threading). Must be
    /// `false` after region splitting, where block identity is load-bearing
    /// (template blocks, markers, section boundaries).
    pub cfg_simplify: bool,
    /// Hole-propagation barrier: when set, values defined by
    /// [`InstKind::Hole`] instructions never replace uses outside this
    /// block set (the template blocks).
    pub hole_scope: Option<IdSet<BlockId>>,
}

/// Run all passes to a fixpoint.
///
/// The passes run in a fixed order, in rounds, until a round changes
/// nothing. The reachable block list they walk is computed once and reused
/// until a pass can have changed it: only folding a branch or simplifying
/// the CFG rewrites a terminator's successors.
pub fn optimize(f: &mut Function, opts: &OptOptions) -> OptStats {
    let mut total = OptStats::default();
    let mut placed = placed_blocks(f);
    let mut cse = FxHashMap::default();
    for _ in 0..50 {
        let mut round = OptStats::default();
        round.add(&fold_constants_in(f, &placed));
        if round.branches_folded > 0 {
            placed = placed_blocks(f);
        }
        round.add(&copy_propagate_in(f, &placed, opts.hole_scope.as_ref()));
        round.add(&local_cse_in(f, &placed, &mut cse));
        round.add(&eliminate_dead_code_in(f, &placed));
        if opts.cfg_simplify {
            round.add(&simplify_cfg(f));
            placed = placed_blocks(f);
        }
        let progressed = round.any();
        total.add(&round);
        if !progressed {
            break;
        }
    }
    total
}

fn placed_blocks(f: &Function) -> Vec<BlockId> {
    dyncomp_ir::cfg::reachable(f).iter().collect()
}

/// Constant folding, algebraic identities, and static branch folding.
pub fn fold_constants(f: &mut Function) -> OptStats {
    let placed = placed_blocks(f);
    fold_constants_in(f, &placed)
}

fn fold_constants_in(f: &mut Function, placed: &[BlockId]) -> OptStats {
    let mut stats = OptStats::default();
    for &b in placed {
        let mut phi_folded = false;
        for at in 0..f.blocks[b].insts.len() {
            let i = f.blocks[b].insts[at];
            let kind = f.kind(i);
            let new = match kind {
                InstKind::Un(op, a) => f.as_const(*a).and_then(|c| op.eval(c)).map(InstKind::Const),
                InstKind::Bin(op, a, b2) => fold_bin(f, *op, *a, *b2),
                InstKind::CallIntrinsic { which, args } => {
                    let consts: Option<Vec<Const>> = args.iter().map(|&a| f.as_const(a)).collect();
                    consts.and_then(|cs| which.eval(&cs)).map(InstKind::Const)
                }
                InstKind::Phi(ins) => {
                    // All operands identical (or the φ itself): forward.
                    let mut srcs: Vec<InstId> =
                        ins.iter().map(|(_, v)| *v).filter(|v| *v != i).collect();
                    srcs.dedup();
                    if srcs.len() == 1 {
                        Some(InstKind::Copy(srcs[0]))
                    } else {
                        // All operands the same literal constant: the φ is
                        // that constant (a fresh materialization; copying
                        // one operand would break dominance).
                        let consts: Option<Vec<Const>> =
                            srcs.iter().map(|&v| f.as_const(v)).collect();
                        match consts.as_deref() {
                            Some([first, rest @ ..]) if rest.iter().all(|c| c == first) => {
                                Some(InstKind::Const(*first))
                            }
                            _ => None,
                        }
                    }
                }
                _ => None,
            };
            if let Some(nk) = new {
                phi_folded |= matches!(kind, InstKind::Phi(_));
                let ty = f.infer_ty(&nk);
                f.insts[i].kind = nk;
                f.insts[i].ty = ty;
                stats.folded += 1;
            }
        }
        if phi_folded {
            // A φ became a Copy/Const in place; restore the invariant that
            // φs form a prefix of the block. Stable, so the folded value
            // still precedes every non-φ instruction that uses it (and the
            // remaining φs read predecessor-end values, which a same-block
            // definition satisfies even on self-loops).
            let list = &mut f.blocks[b].insts;
            list.sort_by_key(|&i| !matches!(f.insts[i].kind, InstKind::Phi(_)));
        }
        // Fold terminators on constants.
        let folded = match &f.blocks[b].term {
            Terminator::Branch {
                cond,
                then_b,
                else_b,
            } => match f.as_const(*cond) {
                Some(c) => Some(if c.is_truthy() { *then_b } else { *else_b }),
                None => (then_b == else_b).then_some(*then_b),
            },
            Terminator::Switch {
                val,
                cases,
                default,
            } => match f.as_const(*val) {
                Some(Const::Int(v)) => Some(
                    cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map_or(*default, |(_, t)| *t),
                ),
                _ => None,
            },
            _ => None,
        };
        if let Some(target) = folded {
            f.blocks[b].term = Terminator::Jump(target);
            stats.branches_folded += 1;
        }
    }
    stats
}

fn fold_bin(f: &Function, op: BinOp, a: InstId, b: InstId) -> Option<InstKind> {
    let ca = f.as_const(a);
    let cb = f.as_const(b);
    if let (Some(x), Some(y)) = (ca, cb) {
        if let Some(r) = op.eval(x, y) {
            return Some(InstKind::Const(r));
        }
    }
    // Algebraic identities (integer only; float identities are unsound
    // under NaN/-0.0).
    let int0 = |c: Option<Const>| matches!(c, Some(Const::Int(0)));
    let int1 = |c: Option<Const>| matches!(c, Some(Const::Int(1)));
    match op {
        BinOp::Add => {
            if int0(ca) {
                return Some(InstKind::Copy(b));
            }
            if int0(cb) {
                return Some(InstKind::Copy(a));
            }
        }
        BinOp::Sub => {
            if int0(cb) {
                return Some(InstKind::Copy(a));
            }
            if a == b {
                return Some(InstKind::Const(Const::Int(0)));
            }
        }
        BinOp::Mul => {
            if int1(ca) {
                return Some(InstKind::Copy(b));
            }
            if int1(cb) {
                return Some(InstKind::Copy(a));
            }
            if int0(ca) || int0(cb) {
                return Some(InstKind::Const(Const::Int(0)));
            }
        }
        BinOp::And => {
            if int0(ca) || int0(cb) {
                return Some(InstKind::Const(Const::Int(0)));
            }
            if a == b {
                return Some(InstKind::Copy(a));
            }
        }
        BinOp::Or => {
            if int0(ca) {
                return Some(InstKind::Copy(b));
            }
            if int0(cb) {
                return Some(InstKind::Copy(a));
            }
            if a == b {
                return Some(InstKind::Copy(a));
            }
        }
        BinOp::Xor => {
            if int0(cb) {
                return Some(InstKind::Copy(a));
            }
            if int0(ca) {
                return Some(InstKind::Copy(b));
            }
            if a == b {
                return Some(InstKind::Const(Const::Int(0)));
            }
        }
        BinOp::Shl | BinOp::ShrS | BinOp::ShrU if int0(cb) => {
            return Some(InstKind::Copy(a));
        }
        BinOp::DivS | BinOp::DivU if int1(cb) => {
            return Some(InstKind::Copy(a));
        }
        _ => {}
    }
    None
}

/// Replace uses of `Copy(x)` with `x` directly, respecting the hole
/// barrier: a chain ending at a [`InstKind::Hole`] is only forwarded to
/// uses inside `hole_scope`.
pub fn copy_propagate(f: &mut Function, hole_scope: Option<&IdSet<BlockId>>) -> OptStats {
    let placed = placed_blocks(f);
    copy_propagate_in(f, &placed, hole_scope)
}

fn copy_propagate_in(
    f: &mut Function,
    placed: &[BlockId],
    hole_scope: Option<&IdSet<BlockId>>,
) -> OptStats {
    let mut stats = OptStats::default();
    // Each copy's source and each hole, by instruction.
    let mut target: IndexVec<InstId, Option<InstId>> = f.insts.iter().map(|_| None).collect();
    let mut holes: IdSet<InstId> = IdSet::with_domain(f.insts.len());
    let mut copies = 0;
    for (i, inst) in f.insts.iter_enumerated() {
        match inst.kind {
            InstKind::Copy(src) => {
                target[i] = Some(src);
                copies += 1;
            }
            InstKind::Hole { .. } => {
                holes.insert(i);
            }
            _ => {}
        }
    }
    if copies == 0 {
        return stats;
    }
    // Resolve copy chains.
    let resolve = |mut v: InstId| {
        let mut seen = 0;
        while let Some(t) = target[v] {
            v = t;
            seen += 1;
            if seen > copies {
                break; // cycle safety (malformed input)
            }
        }
        v
    };
    for &b in placed {
        // Hole barrier: never forward a hole value to a use outside the
        // template blocks.
        let barred = hole_scope.is_some_and(|s| !s.contains(b));
        let forward = |v: InstId, changed: &mut bool| {
            let r = resolve(v);
            if r == v || (barred && holes.contains(r)) {
                return v;
            }
            *changed = true;
            r
        };
        let Function { blocks, insts, .. } = &mut *f;
        for &i in &blocks[b].insts {
            let mut changed = false;
            insts[i].kind.map_operands(|v| forward(v, &mut changed));
            if changed {
                stats.copies_propagated += 1;
            }
        }
        let mut changed = false;
        blocks[b].term.map_operands(|v| forward(v, &mut changed));
        if changed {
            stats.copies_propagated += 1;
        }
    }
    stats
}

/// Remove pure instructions whose results are unused.
pub fn eliminate_dead_code(f: &mut Function) -> OptStats {
    let placed = placed_blocks(f);
    eliminate_dead_code_in(f, &placed)
}

fn eliminate_dead_code_in(f: &mut Function, placed: &[BlockId]) -> OptStats {
    // Uses of each value by the instructions and terminators of reachable
    // blocks; region roots are observed by the specializer and the
    // runtime, so they count as used.
    let mut uses: IndexVec<InstId, u32> = f.insts.iter().map(|_| 0).collect();
    let mut reachable: IdSet<InstId> = IdSet::with_domain(f.insts.len());
    for &b in placed {
        for &i in &f.blocks[b].insts {
            reachable.insert(i);
            for v in f.kind(i).operands() {
                uses[v] += 1;
            }
        }
        for v in f.blocks[b].term.operands() {
            uses[v] += 1;
        }
    }
    for r in f.regions.iter() {
        for &v in r.const_roots.iter().chain(r.key_roots.iter()) {
            uses[v] += 1;
        }
    }
    // Remove every pure, unused instruction, then whatever that leaves
    // unused. Removing one never makes another used again, so this ends
    // with the same set as repeated sweeps would.
    let removable = |k: &InstKind| !k.has_side_effect() && k.has_result();
    let mut dead: Vec<InstId> = reachable
        .iter()
        .filter(|&i| uses[i] == 0 && removable(f.kind(i)))
        .collect();
    let mut removed: IdSet<InstId> = IdSet::with_domain(f.insts.len());
    while let Some(i) = dead.pop() {
        removed.insert(i);
        for v in f.kind(i).operands() {
            uses[v] -= 1;
            if uses[v] == 0 && reachable.contains(v) && removable(f.kind(v)) {
                dead.push(v);
            }
        }
    }
    let mut stats = OptStats::default();
    if removed.is_empty() {
        return stats;
    }
    for &b in placed {
        let list = &mut f.blocks[b].insts;
        let before = list.len();
        list.retain(|&i| !removed.contains(i));
        stats.dead_removed += before - list.len();
    }
    stats
}

/// What local CSE unifies: two instructions with the same key compute the
/// same value.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    /// Commutative operands normalized to ascending order.
    Bin(BinOp, InstId, InstId),
    Un(UnOp, InstId),
    Int(i64),
    /// By bit pattern, so `0.0` and `-0.0` stay apart.
    Float(u64),
    Global(GlobalId),
    Frame(VarId),
}

/// Local common-subexpression elimination (within each block).
pub fn local_cse(f: &mut Function) -> OptStats {
    let placed = placed_blocks(f);
    local_cse_in(f, &placed, &mut FxHashMap::default())
}

fn local_cse_in(
    f: &mut Function,
    placed: &[BlockId],
    seen: &mut FxHashMap<CseKey, InstId>,
) -> OptStats {
    let mut stats = OptStats::default();
    for &b in placed {
        seen.clear();
        let Function { blocks, insts, .. } = &mut *f;
        for &i in &blocks[b].insts {
            let key = match insts[i].kind {
                InstKind::Bin(op, a, b2) => {
                    let (x, y) = if op.is_commutative() && b2 < a {
                        (b2, a)
                    } else {
                        (a, b2)
                    };
                    CseKey::Bin(op, x, y)
                }
                InstKind::Un(op, a) => CseKey::Un(op, a),
                InstKind::Const(Const::Int(v)) => CseKey::Int(v),
                InstKind::Const(Const::Float(v)) => CseKey::Float(v.to_bits()),
                InstKind::GlobalAddr(g) => CseKey::Global(g),
                InstKind::FrameAddr(v) => CseKey::Frame(v),
                _ => continue,
            };
            match seen.entry(key) {
                Entry::Occupied(prev) => {
                    insts[i].kind = InstKind::Copy(*prev.get());
                    stats.cse_hits += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(i);
                }
            }
        }
    }
    stats
}

/// CFG simplification: forward empty blocks, merge single-pred/single-succ
/// chains. Pre-split only (block identity is significant afterwards).
pub fn simplify_cfg(f: &mut Function) -> OptStats {
    let mut stats = OptStats::default();

    // Protected blocks: entry, region entries/bodies' special roles.
    let mut protected = IdSet::with_domain(f.blocks.len());
    protected.insert(f.entry);
    for r in f.regions.iter() {
        protected.insert(r.entry);
    }
    for (b, blk) in f.iter_blocks() {
        if blk.unrolled_header || blk.marker.is_some() {
            protected.insert(b);
        }
        if matches!(
            blk.term,
            Terminator::EnterRegion { .. } | Terminator::EndSetup { .. }
        ) {
            protected.insert(b);
        }
    }

    // 1. Thread jumps through empty forwarding blocks.
    let mut forward: IndexVec<BlockId, Option<BlockId>> = f.blocks.iter().map(|_| None).collect();
    let mut forwards = 0;
    for (b, blk) in f.iter_blocks() {
        if protected.contains(b) || !blk.insts.is_empty() {
            continue;
        }
        if let Terminator::Jump(t) = blk.term {
            if t != b {
                forward[b] = Some(t);
                forwards += 1;
            }
        }
    }
    let resolve = |mut b: BlockId| {
        let mut n = 0;
        while let Some(t) = forward[b] {
            b = t;
            n += 1;
            if n > forwards {
                break;
            }
        }
        b
    };
    // A forwarding block whose target holds φs cannot be bypassed blindly
    // (φ operands are keyed by predecessor). Only bypass when the target
    // has no φs.
    let has_phi: Vec<bool> = f
        .blocks
        .iter()
        .map(|blk| {
            blk.insts
                .first()
                .is_some_and(|&i| matches!(f.kind(i), InstKind::Phi(_)))
        })
        .collect();
    for blk in f.blocks.iter_mut() {
        let mut changed = false;
        blk.term.map_successors(|s| {
            let r = resolve(s);
            if r != s && !has_phi[r.index()] {
                changed = true;
                r
            } else {
                s
            }
        });
        if changed {
            stats.cfg_simplified += 1;
        }
    }

    // 2. Merge b -> t when b's only successor is t and t's only
    //    (reachable) predecessor is b.
    let live = dyncomp_ir::cfg::reachable(f);
    let preds = dyncomp_ir::cfg::Preds::compute(f);
    for b in f.blocks.ids() {
        if !live.contains(b) {
            continue;
        }
        let Terminator::Jump(t) = f.blocks[b].term else {
            continue;
        };
        if t == b || protected.contains(t) {
            continue;
        }
        let mut tpreds = preds.of(t).iter().filter(|p| live.contains(**p));
        if tpreds.next() != Some(&b) || tpreds.next().is_some() {
            continue;
        }
        if has_phi[t.index()] {
            continue;
        }
        // Splice t into b.
        let t_insts = std::mem::take(&mut f.blocks[t].insts);
        let t_term = std::mem::replace(&mut f.blocks[t].term, Terminator::Unreachable);
        f.blocks[b].insts.extend(t_insts);
        f.blocks[b].term = t_term;
        // Retarget φ operands naming t as predecessor.
        let Function { blocks, insts, .. } = &mut *f;
        for blk in blocks.iter() {
            for &i in &blk.insts {
                if let InstKind::Phi(ins) = &mut insts[i].kind {
                    for (p, _) in ins.iter_mut() {
                        if *p == t {
                            *p = b;
                        }
                    }
                }
            }
        }
        // Region block sets: replace t by b where present.
        for r in f.regions.iter_mut() {
            if r.blocks.remove(t) {
                r.blocks.insert(b);
            }
        }
        stats.cfg_simplified += 1;
    }
    dyncomp_ir::cfg::prune_unreachable(f);
    stats
}

#[cfg(test)]
mod tests;
