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
//! [`simplify_cfg`]. [`optimize`] runs them to a fixpoint, after the first
//! round revisiting only what the last rewrites marked, and reports
//! [`OptStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dyncomp_ir::cfg::{prune_unreachable_into, reachable_into, Pruned};
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_ir::inst::Operands;
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
/// nothing. The first round visits every reachable block; later rounds
/// visit, in the same order, only the blocks a rewrite marked since the
/// pass last looked at them (the dirty-block rule, DESIGN.md design point
/// 10). A block no rewrite touched would be visited to no effect, so the
/// rewrites, their order and every [`OptStats`] count are those of full
/// rounds.
pub fn optimize(f: &mut Function, opts: &OptOptions) -> OptStats {
    optimize_with(f, opts, &mut OptScratch::default())
}

/// The tables of [`optimize`], kept across calls: a compile makes one
/// and optimizes every function through it, so the tables are allocated
/// for the largest function only.
#[derive(Default)]
pub struct OptScratch {
    work: Work,
    cse: FxHashMap<CseKey, InstId>,
}

/// [`optimize`] with the tables in `s`.
pub fn optimize_with(f: &mut Function, opts: &OptOptions, s: &mut OptScratch) -> OptStats {
    let mut total = OptStats::default();
    let OptScratch { work: w, cse } = s;
    w.reset(f);
    for _ in 0..50 {
        let mut round = OptStats::default();
        round.add(&w.fold_constants(f));
        round.add(&w.copy_propagate(f, opts.hole_scope.as_ref()));
        round.add(&w.local_cse(f, cse));
        round.add(&w.eliminate_dead_code(f));
        if opts.cfg_simplify && w.cfg_stale {
            round.add(&w.simplify_cfg(f));
        }
        let progressed = round.any();
        total.add(&round);
        if !progressed {
            break;
        }
    }
    total
}

/// The passes that walk blocks, as indices into [`Work::dirty`].
const FOLD: usize = 0;
const COPY: usize = 1;
const CSE: usize = 2;
const ALL: [usize; 3] = [FOLD, COPY, CSE];

/// End of a user list; an instruction in no placed block.
const NONE: u32 = u32::MAX;

/// A user that is a terminator: this bit over its block's index. Other
/// users are instructions, by index.
const TERM: u32 = 1 << 31;

/// What the passes of one [`optimize`] call share: the blocks they walk,
/// which of those each pass must revisit, and use counts and user lists
/// kept current at every rewrite.
///
/// A rewrite marks the blocks whose next visit it may have given work:
/// its own block, the blocks using a value whose kind it changed, and (on
/// a CFG change) the blocks around the change. Marking too much is exact,
/// since a visit that finds nothing changes nothing; marking too little is
/// not, so the user lists only ever grow. Folding and copy propagation
/// judge one instruction (or terminator) at a time from its own operands,
/// so for them a mark also names the instructions to look at again, and a
/// visit skips the rest of its block. [`Work::reset`] marks everything,
/// so the first round visits every placed block.
#[derive(Default)]
struct Work {
    /// Reachable blocks in id order: what every pass walks.
    placed: Vec<BlockId>,
    /// Per block-walking pass: the blocks its next visit may change.
    dirty: [IdSet<BlockId>; 3],
    /// For folding and copy propagation: the instructions, and the blocks
    /// whose terminator, a visit must look at again.
    marked: [IdSet<InstId>; 2],
    term_marked: [IdSet<BlockId>; 2],
    /// Uses of each value by placed instructions and terminators, plus
    /// one per region root (observed by the specializer and run time).
    uses: Vec<u32>,
    /// The placed block holding each instruction; [`NONE`] once removed.
    home: Vec<u32>,
    /// Per value: the head of its user list in `links`.
    users: Vec<u32>,
    /// User list cells: `(user, next)`, the user an instruction or a
    /// [`TERM`].
    links: Vec<(u32, u32)>,
    /// Values dead-code elimination must look at: their use count reached
    /// zero or their kind changed.
    maybe_dead: Vec<InstId>,
    /// Some instruction is, or was, a copy.
    has_copies: bool,
    /// A [`simplify_cfg`] input may have changed: a block emptied or lost
    /// its leading φ, a terminator changed, or its last call changed
    /// something.
    cfg_stale: bool,
    /// Scratch: the reachable set and its walk, the blocks a dead-code
    /// sweep emptied, and CFG simplification's tables and edits.
    live: IdSet<BlockId>,
    stack: Vec<BlockId>,
    emptied: Vec<BlockId>,
    cfg: CfgScratch,
    edits: CfgEdits,
}

impl Work {
    /// Tables for `f` alone, kept by the pass functions that run once.
    fn new(f: &Function) -> Work {
        let mut w = Work::default();
        w.reset(f);
        w
    }

    /// Counts, user lists and marks for a first round over `f` that
    /// visits every placed block, in this scratch's storage.
    fn reset(&mut self, f: &Function) {
        let (n, nb) = (f.insts.len(), f.blocks.len());
        reachable_into(f, &mut self.live, &mut self.stack);
        self.placed.clear();
        self.placed.extend(self.live.iter());
        for set in self.dirty.iter_mut().chain(self.term_marked.iter_mut()) {
            set.reset(nb);
        }
        for set in &mut self.marked {
            set.reset(n);
        }
        for table in [&mut self.uses, &mut self.home, &mut self.users] {
            table.clear();
        }
        self.uses.resize(n, 0);
        self.home.resize(n, NONE);
        self.users.resize(n, NONE);
        self.links.clear();
        self.links.reserve(2 * n);
        self.maybe_dead.clear();
        self.has_copies = f.insts.iter().any(|i| matches!(i.kind, InstKind::Copy(_)));
        self.cfg_stale = true;
        let w = self;
        for k in 0..w.placed.len() {
            let b = w.placed[k];
            w.mark_block(f, b);
            let blk = &f.blocks[b];
            for &i in &blk.insts {
                w.home[i.index()] = b.index() as u32;
                for v in f.kind(i).operands() {
                    w.use_from(v, i.index() as u32);
                }
            }
            for v in blk.term.operands() {
                w.use_from(v, TERM | b.index() as u32);
            }
        }
        for r in f.regions.iter() {
            for &v in r.const_roots.iter().chain(r.key_roots.iter()) {
                w.uses[v.index()] += 1;
            }
        }
        for &b in &w.placed {
            let insts = f.blocks[b].insts.iter();
            w.maybe_dead
                .extend(insts.filter(|i| w.uses[i.index()] == 0));
        }
    }

    /// Take the placed blocks anew after the CFG changed. A block that is
    /// no longer reachable takes the uses of its instructions and
    /// terminator with it. Marks stay as they are.
    fn replace(&mut self, f: &Function) {
        reachable_into(f, &mut self.live, &mut self.stack);
        for k in 0..self.placed.len() {
            let b = self.placed[k];
            if !self.live.contains(b) {
                self.unplace(f, &f.blocks[b].insts, &f.blocks[b].term);
            }
        }
        self.placed.clear();
        self.placed.extend(self.live.iter());
    }

    /// Drop the uses of a block that left the placed set.
    fn unplace(&mut self, f: &Function, insts: &[InstId], term: &Terminator) {
        for &i in insts {
            if self.home[i.index()] != NONE {
                self.home[i.index()] = NONE;
                for v in f.kind(i).operands() {
                    self.unuse(v);
                }
            }
        }
        for v in term.operands() {
            self.unuse(v);
        }
    }

    /// Count a new use of `v` by `user` (an instruction or a [`TERM`]).
    fn use_from(&mut self, v: InstId, user: u32) {
        self.uses[v.index()] += 1;
        self.list_user(v, user);
    }

    /// List `user` among the users of `v`, unless it heads the list already.
    fn list_user(&mut self, v: InstId, user: u32) {
        let head = self.users[v.index()];
        if head == NONE || self.links[head as usize].0 != user {
            self.links.push((user, head));
            self.users[v.index()] = self.links.len() as u32 - 1;
        }
    }

    /// Count a dropped use of `v`.
    fn unuse(&mut self, v: InstId) {
        self.uses[v.index()] -= 1;
        if self.uses[v.index()] == 0 {
            self.maybe_dead.push(v);
        }
    }

    /// Mark all of block `b` for every pass.
    fn mark_block(&mut self, f: &Function, b: BlockId) {
        for p in ALL {
            self.dirty[p].insert(b);
        }
        for p in [FOLD, COPY] {
            for &i in &f.blocks[b].insts {
                self.marked[p].insert(i);
            }
            self.term_marked[p].insert(b);
        }
    }

    /// Mark instruction `i` of block `b` for `pass` (folding or copy
    /// propagation).
    fn mark_inst(&mut self, b: BlockId, i: InstId, pass: usize) {
        self.dirty[pass].insert(b);
        self.marked[pass].insert(i);
    }

    /// Mark the terminator of block `b` for `pass`.
    fn mark_term(&mut self, b: BlockId, pass: usize) {
        self.dirty[pass].insert(b);
        self.term_marked[pass].insert(b);
    }

    /// Value `v` changed kind: mark every use of it for `pass`, folding if
    /// it became a constant, copy propagation if a copy. (A value losing
    /// its constant kind never lets a user fold.)
    fn mark_users(&mut self, v: InstId, pass: usize) {
        let mut at = self.users[v.index()];
        while at != NONE {
            let (user, next) = self.links[at as usize];
            if user & TERM != 0 {
                self.mark_term(BlockId::from_index((user & !TERM) as usize), pass);
            } else if self.home[user as usize] != NONE {
                let b = BlockId::from_index(self.home[user as usize] as usize);
                self.mark_inst(b, InstId::from_index(user as usize), pass);
            }
            at = next;
        }
    }

    /// Mark `b` and its successors for every pass.
    fn mark_around(&mut self, f: &Function, b: BlockId) {
        self.mark_block(f, b);
        f.blocks[b]
            .term
            .for_each_successor(|s| self.mark_block(f, s));
    }

    /// The operands of `user` (an instruction or a [`TERM`]) went from
    /// `old` to `new`: keep the counts current.
    fn rewrote(&mut self, user: u32, old: Operands<'_>, new: Operands<'_>) {
        for (o, n) in old.zip(new) {
            if o != n {
                self.unuse(o);
                self.use_from(n, user);
            }
        }
    }

    /// Give instruction `i` a new kind, keeping the counts current.
    fn set_kind(&mut self, f: &mut Function, i: InstId, kind: InstKind) {
        self.has_copies |= matches!(kind, InstKind::Copy(_));
        let old = std::mem::replace(&mut f.insts[i].kind, kind);
        let user = i.index() as u32;
        self.rewrote(user, old.operands(), f.insts[i].kind.operands());
        // Operands the new kind adds or drops beyond the zipped ones.
        for v in old.operands().skip(f.insts[i].kind.operands().len()) {
            self.unuse(v);
        }
        for v in f.insts[i].kind.operands().skip(old.operands().len()) {
            self.use_from(v, user);
        }
        self.maybe_dead.push(i);
    }

    /// Pop the next block of `pass` to visit at or after position `*at`.
    fn next_dirty(&mut self, pass: usize, at: &mut usize) -> Option<BlockId> {
        while *at < self.placed.len() {
            let b = self.placed[*at];
            *at += 1;
            if self.dirty[pass].remove(b) {
                return Some(b);
            }
        }
        None
    }

    fn fold_constants(&mut self, f: &mut Function) -> OptStats {
        let mut stats = OptStats::default();
        let mut at = 0;
        while let Some(b) = self.next_dirty(FOLD, &mut at) {
            let mut phi_folded = false;
            for k in 0..f.blocks[b].insts.len() {
                let i = f.blocks[b].insts[k];
                if !self.marked[FOLD].remove(i) {
                    continue;
                }
                let Some(nk) = fold_inst(f, i) else {
                    continue;
                };
                phi_folded |= matches!(f.kind(i), InstKind::Phi(_));
                f.insts[i].ty = f.infer_ty(&nk);
                let to_copy = matches!(nk, InstKind::Copy(_));
                self.set_kind(f, i, nk);
                if to_copy {
                    self.mark_users(i, COPY);
                } else {
                    self.dirty[CSE].insert(b);
                    self.mark_users(i, FOLD);
                }
                stats.folded += 1;
            }
            if phi_folded {
                // A φ became a Copy/Const in place; restore the invariant
                // that φs form a prefix of the block. Stable, so the folded
                // value still precedes every non-φ instruction that uses it
                // (and the remaining φs read predecessor-end values, which a
                // same-block definition satisfies even on self-loops).
                let list = &mut f.blocks[b].insts;
                list.sort_by_key(|&i| !matches!(f.insts[i].kind, InstKind::Phi(_)));
                self.cfg_stale |= !leads_with_phi(f, b);
            }
            if !self.term_marked[FOLD].remove(b) {
                continue;
            }
            if let Some(target) = fold_terminator(f, b) {
                self.mark_around(f, b);
                for v in f.blocks[b].term.operands() {
                    self.unuse(v);
                }
                f.blocks[b].term = Terminator::Jump(target);
                self.mark_around(f, b);
                stats.branches_folded += 1;
            }
        }
        if stats.branches_folded > 0 {
            self.cfg_stale = true;
            self.replace(f);
        }
        stats
    }

    fn copy_propagate(
        &mut self,
        f: &mut Function,
        hole_scope: Option<&IdSet<BlockId>>,
    ) -> OptStats {
        let mut stats = OptStats::default();
        if !self.has_copies {
            // Nothing to forward anywhere; a copy made later marks its users.
            self.dirty[COPY].clear();
            self.marked[COPY].clear();
            self.term_marked[COPY].clear();
            return stats;
        }
        let mut at = 0;
        while let Some(b) = self.next_dirty(COPY, &mut at) {
            // Hole barrier: never forward a hole value to a use outside the
            // template blocks.
            let barred = hole_scope.is_some_and(|s| !s.contains(b));
            for k in 0..f.blocks[b].insts.len() {
                let i = f.blocks[b].insts[k];
                if !self.marked[COPY].remove(i) {
                    continue;
                }
                let kind = f.kind(i);
                let Some(kind) =
                    forwarded(f, kind, kind.operands(), barred, |k, m| k.map_operands(m))
                else {
                    continue;
                };
                self.rewrote(
                    i.index() as u32,
                    f.insts[i].kind.operands(),
                    kind.operands(),
                );
                f.insts[i].kind = kind;
                self.mark_inst(b, i, FOLD);
                self.dirty[CSE].insert(b);
                stats.copies_propagated += 1;
            }
            if !self.term_marked[COPY].remove(b) {
                continue;
            }
            let term = &f.blocks[b].term;
            if let Some(term) =
                forwarded(f, term, term.operands(), barred, |t, m| t.map_operands(m))
            {
                let user = TERM | b.index() as u32;
                self.rewrote(user, f.blocks[b].term.operands(), term.operands());
                f.blocks[b].term = term;
                self.mark_term(b, FOLD);
                stats.copies_propagated += 1;
            }
        }
        stats
    }

    fn local_cse(&mut self, f: &mut Function, seen: &mut FxHashMap<CseKey, InstId>) -> OptStats {
        let mut stats = OptStats::default();
        let mut at = 0;
        while let Some(b) = self.next_dirty(CSE, &mut at) {
            seen.clear();
            for k in 0..f.blocks[b].insts.len() {
                let i = f.blocks[b].insts[k];
                let Some(key) = cse_key(f.kind(i)) else {
                    continue;
                };
                match seen.entry(key) {
                    Entry::Occupied(prev) => {
                        self.set_kind(f, i, InstKind::Copy(*prev.get()));
                        self.mark_users(i, COPY);
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

    fn eliminate_dead_code(&mut self, f: &mut Function) -> OptStats {
        // Remove every pure, unused instruction, then whatever that leaves
        // unused. Removing one never makes another used again, so this ends
        // with the same set as repeated sweeps would.
        let removable = |k: &InstKind| !k.has_side_effect() && k.has_result();
        let mut dead = std::mem::take(&mut self.maybe_dead);
        let mut emptied = std::mem::take(&mut self.emptied);
        emptied.clear();
        while let Some(i) = dead.pop() {
            let home = self.home[i.index()];
            if home == NONE || self.uses[i.index()] != 0 || !removable(f.kind(i)) {
                continue; // not placed, already removed, used or impure
            }
            self.home[i.index()] = NONE;
            let b = BlockId::from_index(home as usize);
            if emptied.last() != Some(&b) {
                emptied.push(b);
            }
            for v in f.kind(i).operands() {
                self.uses[v.index()] -= 1;
                if self.uses[v.index()] == 0 {
                    dead.push(v);
                }
            }
        }
        self.maybe_dead = dead;
        emptied.sort_unstable();
        emptied.dedup();
        let mut stats = OptStats::default();
        for &b in &emptied {
            let had_phi = leads_with_phi(f, b);
            let list = &mut f.blocks[b].insts;
            let before = list.len();
            list.retain(|&i| self.home[i.index()] != NONE);
            stats.dead_removed += before - list.len();
            self.cfg_stale |= list.is_empty() || (had_phi && !leads_with_phi(f, b));
        }
        self.emptied = emptied;
        stats
    }

    fn simplify_cfg(&mut self, f: &mut Function) -> OptStats {
        let mut edits = std::mem::take(&mut self.edits);
        edits.clear();
        let stats = simplify_cfg_in(f, &mut edits, &mut self.cfg);
        let stats = self.apply_cfg_edits(f, &edits, stats);
        self.edits = edits;
        stats
    }

    /// Bring the tables up to date with what one CFG simplification did.
    fn apply_cfg_edits(&mut self, f: &Function, edits: &CfgEdits, stats: OptStats) -> OptStats {
        let Pruned { cleared, cut } = &edits.pruned;
        self.cfg_stale = stats.cfg_simplified > 0 || !cleared.is_empty() || !cut.is_empty();
        if !self.cfg_stale {
            return stats;
        }
        for &(i, b) in &edits.moved {
            self.home[i.index()] = b.index() as u32;
        }
        for &b in &edits.moved_terms {
            for v in f.blocks[b].term.operands() {
                self.list_user(v, TERM | b.index() as u32);
            }
        }
        for (b, insts, term) in cleared {
            if self.placed.binary_search(b).is_ok() {
                self.unplace(f, insts, term);
            }
        }
        for &(_, v) in cut {
            self.unuse(v);
        }
        self.replace(f);
        for &b in &edits.changed {
            self.mark_around(f, b);
        }
        for &(b, _) in cut {
            self.mark_block(f, b);
        }
        stats
    }
}

/// Whether `b`'s first instruction is a φ.
fn leads_with_phi(f: &Function, b: BlockId) -> bool {
    f.blocks[b]
        .insts
        .first()
        .is_some_and(|&i| matches!(f.kind(i), InstKind::Phi(_)))
}

/// `x` with every operand forwarded through its copy chain, or `None` when
/// no operand is a copy it may forward. A chain ending at a
/// [`InstKind::Hole`] is not forwarded where `barred`.
fn forwarded<T: Clone>(
    f: &Function,
    x: &T,
    mut operands: impl Iterator<Item = InstId>,
    barred: bool,
    map: impl Fn(&mut T, &mut dyn FnMut(InstId) -> InstId),
) -> Option<T> {
    if !operands.any(|v| matches!(f.insts[v].kind, InstKind::Copy(_))) {
        return None;
    }
    let mut out = x.clone();
    let mut changed = false;
    map(&mut out, &mut |v| {
        let mut r = v;
        let mut steps = 0;
        while let InstKind::Copy(t) = f.insts[r].kind {
            r = t;
            steps += 1;
            if steps > f.insts.len() {
                break; // cycle safety (malformed input)
            }
        }
        if r == v || (barred && matches!(f.insts[r].kind, InstKind::Hole { .. })) {
            return v;
        }
        changed = true;
        r
    });
    changed.then_some(out)
}

/// Constant folding, algebraic identities, and static branch folding.
pub fn fold_constants(f: &mut Function) -> OptStats {
    Work::new(f).fold_constants(f)
}

/// What instruction `i` folds to, if anything.
fn fold_inst(f: &Function, i: InstId) -> Option<InstKind> {
    match f.kind(i) {
        InstKind::Un(op, a) => f.as_const(*a).and_then(|c| op.eval(c)).map(InstKind::Const),
        InstKind::Bin(op, a, b2) => fold_bin(f, *op, *a, *b2),
        InstKind::CallIntrinsic { which, args } => {
            let consts: Option<Vec<Const>> = args.iter().map(|&a| f.as_const(a)).collect();
            consts.and_then(|cs| which.eval(&cs)).map(InstKind::Const)
        }
        InstKind::Phi(ins) => {
            // The operands other than the φ itself, consecutive repeats
            // dropped: one left means all are that value, so forward it.
            let mut srcs = ins.iter().map(|(_, v)| *v).filter(|v| *v != i);
            let first = srcs.next()?;
            let first_const = f.as_const(first);
            let (mut prev, mut single, mut same_const) = (first, true, first_const.is_some());
            for v in srcs {
                if v != prev {
                    prev = v;
                    single = false;
                    same_const &= f.as_const(v) == first_const;
                }
            }
            if single {
                Some(InstKind::Copy(first))
            } else {
                // All operands the same literal constant: the φ is that
                // constant (a fresh materialization; copying one operand
                // would break dominance).
                first_const.filter(|_| same_const).map(InstKind::Const)
            }
        }
        _ => None,
    }
}

/// The jump `b`'s branch or switch folds to, if its condition is a
/// compile-time constant or both arms agree.
fn fold_terminator(f: &Function, b: BlockId) -> Option<BlockId> {
    match &f.blocks[b].term {
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
    }
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
    Work::new(f).copy_propagate(f, hole_scope)
}

/// Remove pure instructions whose results are unused.
pub fn eliminate_dead_code(f: &mut Function) -> OptStats {
    Work::new(f).eliminate_dead_code(f)
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
    Work::new(f).local_cse(f, &mut FxHashMap::default())
}

/// The key local CSE files an instruction under, if it computes a value
/// CSE may unify.
fn cse_key(kind: &InstKind) -> Option<CseKey> {
    Some(match *kind {
        InstKind::Bin(op, a, b) => {
            let (x, y) = if op.is_commutative() && b < a {
                (b, a)
            } else {
                (a, b)
            };
            CseKey::Bin(op, x, y)
        }
        InstKind::Un(op, a) => CseKey::Un(op, a),
        InstKind::Const(Const::Int(v)) => CseKey::Int(v),
        InstKind::Const(Const::Float(v)) => CseKey::Float(v.to_bits()),
        InstKind::GlobalAddr(g) => CseKey::Global(g),
        InstKind::FrameAddr(v) => CseKey::Frame(v),
        _ => return None,
    })
}

/// CFG simplification: forward empty blocks, merge single-pred/single-succ
/// chains. Pre-split only (block identity is significant afterwards).
pub fn simplify_cfg(f: &mut Function) -> OptStats {
    simplify_cfg_in(f, &mut CfgEdits::default(), &mut CfgScratch::default())
}

/// What one [`simplify_cfg`] call changed, in order.
#[derive(Default)]
struct CfgEdits {
    /// Blocks whose terminator it rewrote.
    changed: Vec<BlockId>,
    /// Instructions it moved, with the block they moved to.
    moved: Vec<(InstId, BlockId)>,
    /// Blocks that took over a merged block's terminator.
    moved_terms: Vec<BlockId>,
    /// Unreachable blocks it cleared and φ operands it dropped.
    pruned: Pruned,
}

impl CfgEdits {
    fn clear(&mut self) {
        self.changed.clear();
        self.moved.clear();
        self.moved_terms.clear();
        self.pruned.cleared.clear();
        self.pruned.cut.clear();
    }
}

/// The tables of one [`simplify_cfg`] call, kept across calls.
#[derive(Default)]
struct CfgScratch {
    protected: IdSet<BlockId>,
    forward: IndexVec<BlockId, Option<BlockId>>,
    phi_blocks: Vec<BlockId>,
    has_phi: IdSet<BlockId>,
    live: IdSet<BlockId>,
    stack: Vec<BlockId>,
    npreds: Vec<u32>,
    last_pred: Vec<u32>,
}

/// [`simplify_cfg`], recording its changes in `edits`, with the tables
/// in `s`.
fn simplify_cfg_in(f: &mut Function, edits: &mut CfgEdits, s: &mut CfgScratch) -> OptStats {
    let mut stats = OptStats::default();
    let CfgScratch {
        protected,
        forward,
        phi_blocks,
        has_phi,
        live,
        stack,
        npreds,
        last_pred,
    } = s;

    // Protected blocks: entry, region entries/bodies' special roles.
    protected.reset(f.blocks.len());
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
    forward.reset(f.blocks.len(), None);
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
    // has no φs. φs form a prefix of their block, so the blocks that lead
    // with one are all the blocks that hold one.
    phi_blocks.clear();
    phi_blocks.extend(f.blocks.ids().filter(|&b| leads_with_phi(f, b)));
    has_phi.reset(f.blocks.len());
    for &b in phi_blocks.iter() {
        has_phi.insert(b);
    }
    if forwards > 0 {
        for b in f.blocks.ids() {
            let mut threaded = false;
            f.blocks[b].term.map_successors(|s| {
                let r = resolve(s);
                if r != s && !has_phi.contains(r) {
                    threaded = true;
                    r
                } else {
                    s
                }
            });
            if threaded {
                edits.changed.push(b);
                stats.cfg_simplified += 1;
            }
        }
    }

    // 2. Merge b -> t when b's only successor is t and t's only
    //    (reachable) predecessor is b. Predecessors are counted once per
    //    distinct edge source, before any merge.
    reachable_into(f, live, stack);
    let nb = f.blocks.len();
    npreds.clear();
    npreds.resize(nb, 0);
    last_pred.clear();
    last_pred.resize(nb, NONE);
    for p in live.iter() {
        f.blocks[p].term.for_each_successor(|s| {
            if last_pred[s.index()] != p.index() as u32 {
                last_pred[s.index()] = p.index() as u32;
                npreds[s.index()] += 1;
            }
        });
    }
    for b in live.iter() {
        let Terminator::Jump(t) = f.blocks[b].term else {
            continue;
        };
        if t == b || protected.contains(t) || has_phi.contains(t) {
            continue;
        }
        if npreds[t.index()] != 1 || last_pred[t.index()] != b.index() as u32 {
            continue;
        }
        // Splice t into b.
        let t_insts = std::mem::take(&mut f.blocks[t].insts);
        let t_term = std::mem::replace(&mut f.blocks[t].term, Terminator::Unreachable);
        edits.moved.extend(t_insts.iter().map(|&i| (i, b)));
        edits.moved_terms.push(b);
        f.blocks[b].insts.extend(t_insts);
        f.blocks[b].term = t_term;
        // Retarget φ operands naming t as predecessor.
        let Function { blocks, insts, .. } = &mut *f;
        for &pb in phi_blocks.iter() {
            for &i in &blocks[pb].insts {
                let InstKind::Phi(ins) = &mut insts[i].kind else {
                    break;
                };
                for (p, _) in ins.iter_mut() {
                    if *p == t {
                        *p = b;
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
        edits.changed.push(b);
        stats.cfg_simplified += 1;
    }

    // 3. Clear unreachable blocks and drop φ operands naming them.
    prune_unreachable_into(f, &mut edits.pruned, live, stack);
    stats
}

#[cfg(test)]
mod tests;
