//! # dyncomp-specialize
//!
//! Region splitting (§3.2 of *"Fast, Effective Dynamic Compilation"*,
//! PLDI 1996): divide each dynamic region into
//!
//! * **set-up code** — all computations that define run-time constants,
//!   executed once at run time; it allocates the constants table, stores
//!   every template-referenced constant into its slot, and for each
//!   `unrolled` loop runs a *real* loop that allocates one linked record
//!   per iteration (the paper's Figure 1 structure); and
//! * **template code** — the residual computation, with [`InstKind::Hole`]
//!   pseudo-instructions where run-time-constant operands will be patched,
//!   [`Terminator::ConstBranch`]/[`Terminator::ConstSwitch`] markers where
//!   the stitcher performs dead-code elimination, and marker blocks
//!   ([`TemplateMarker`]) on unrolled-loop entry/back-edge/exit arcs.
//!
//! The two subgraphs replace the original region body in the enclosing
//! function: the region entry becomes a [`Terminator::EnterRegion`] trap
//! whose successor is the set-up code, and set-up ends in
//! [`Terminator::EndSetup`] whose successor is the template — exactly the
//! first-time/afterwards diamond of the paper's §3.2 figure, expressed so
//! that liveness and register allocation see the whole flow.
//!
//! ## Set-up code generation
//!
//! Set-up must compute constants that are defined under *dynamic* control
//! flow (it cannot resolve dynamic branches). This is safe precisely
//! because the constants analysis only admits idempotent, side-effect-free,
//! non-trapping operations: set-up *speculatively* executes every constant
//! instruction, in reverse post-order, tracking per-block reachability
//! under constant branches as run-time booleans. φs at constant merges
//! become [`InstKind::Select`] chains over mutually exclusive arc
//! conditions; loads are guarded by blending their address with the (always
//! valid) table pointer when the block is constant-unreachable. Only
//! `unrolled` loops introduce real control flow: a self-loop that mirrors
//! the original loop's constant part, allocating and linking one record per
//! iteration.
//!
//! For non-`unrolled` loops inside a region, back-edge reachability is
//! over-approximated by loop entry ("the loop ran at least once"), which
//! may execute a few extra constant instructions — harmless, again by
//! idempotence.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dyncomp_analysis::unroll::check_unrollable;
use dyncomp_analysis::{RegionAnalysis, UnrollError};
use dyncomp_ir::cfg::Preds;
use dyncomp_ir::dom::DomTree;
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_ir::loops::{find_loops, LoopForest};
use dyncomp_ir::{
    BinOp, Block, BlockId, Const, Function, IdSet, IndexVec, InstId, InstKind, Intrinsic, MemSize,
    RegionId, SlotPath, TemplateMarker, Terminator, Ty, UnOp,
};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Counters of the dynamic optimizations the split *plans* (Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Constant computations moved to set-up (planned constant
    /// folding/propagation).
    pub const_insts_eliminated: usize,
    /// Loads of run-time constants eliminated from the fast path.
    pub loads_eliminated: usize,
    /// Run-time constant branches (stitcher performs static branch
    /// elimination + dead-code elimination on these).
    pub const_branches: usize,
    /// Completely unrolled loops.
    pub unrolled_loops: usize,
    /// Hole operands in the template.
    pub holes: usize,
}

dyncomp_ir::codec! {
    struct SpecStats {
        const_insts_eliminated: usize,
        loads_eliminated: usize,
        const_branches: usize,
        unrolled_loops: usize,
        holes: usize,
    }
}

impl std::ops::AddAssign for SpecStats {
    fn add_assign(&mut self, s: SpecStats) {
        self.const_insts_eliminated += s.const_insts_eliminated;
        self.loads_eliminated += s.loads_eliminated;
        self.const_branches += s.const_branches;
        self.unrolled_loops += s.unrolled_loops;
        self.holes += s.holes;
    }
}

/// Everything the back end needs about one specialized region.
#[derive(Clone, Debug)]
pub struct RegionSpec {
    /// Which region.
    pub region: RegionId,
    /// The block ending in [`Terminator::EnterRegion`].
    pub enter_block: BlockId,
    /// Set-up subgraph entry.
    pub setup_entry: BlockId,
    /// All set-up blocks.
    pub setup_blocks: Vec<BlockId>,
    /// Template subgraph entry.
    pub template_entry: BlockId,
    /// Template blocks in layout (reverse post-) order.
    pub template_blocks: Vec<BlockId>,
    /// Post-region join blocks, indexed by region-exit number.
    pub exit_targets: Vec<BlockId>,
    /// Number of static slots in the constants table.
    pub table_static_len: u32,
    /// Planned-optimization counters.
    pub stats: SpecStats,
}

/// Specialization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// An `unrolled` annotation failed its legality check (§2).
    Unroll(UnrollError),
    /// The function's CFG is irreducible.
    Irreducible,
    /// The function is not in SSA form.
    NotSsa,
    /// The region entry has predecessors inside the region (the region is
    /// not single-entry).
    MultipleEntries(BlockId),
    /// A run-time constant defined inside an unrolled loop is used directly
    /// outside the loop, but the loop has dynamic (non-constant-branch)
    /// exits: the shared post-exit code cannot hold a per-iteration value.
    /// Route the value through a variable assigned on the exiting path
    /// instead.
    ConstantEscapesDynamicExit {
        /// The escaping value.
        value: InstId,
        /// Header of the loop it escapes from.
        header: BlockId,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Unroll(e) => write!(f, "cannot unroll: {e}"),
            SpecError::Irreducible => write!(f, "irreducible control flow in dynamic region"),
            SpecError::NotSsa => write!(f, "specialization requires SSA form"),
            SpecError::MultipleEntries(b) => {
                write!(
                    f,
                    "dynamic region entry {b} is re-entered from inside the region"
                )
            }
            SpecError::ConstantEscapesDynamicExit { value, header } => write!(
                f,
                "run-time constant {value} defined in the unrolled loop at {header} is used \
                 outside the loop, which has dynamic exits; assign it to a variable on the \
                 exiting path instead"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<UnrollError> for SpecError {
    fn from(e: UnrollError) -> Self {
        SpecError::Unroll(e)
    }
}

/// A context: the chain of unrolled loops (outer → inner) containing a
/// program point. Loops are identified by their index in the loop forest.
/// Shared, so that handing one out copies no loops; ordered as the
/// sequence is.
type Ctx = Rc<[usize]>;

/// The longest common prefix of `a` and `b`: one of them when it is the
/// other's prefix (the usual case), else a new context.
fn common_prefix(a: &Ctx, b: &Ctx) -> Ctx {
    let k = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    if k == a.len() {
        a.clone()
    } else if k == b.len() {
        b.clone()
    } else {
        a[..k].into()
    }
}

/// Split `region` of `f` into set-up and template code.
///
/// Lower dynamic (non-constant) `switch` terminators inside `region` to
/// chains of compare-and-branch blocks.
///
/// Templates represent multi-way branches only as `CONST_SWITCH`
/// directives, which the stitcher resolves at dynamic-compile time; a
/// switch on a *dynamic* selector has no directive form and must become
/// ordinary two-way branches before region splitting (constant switches
/// are left alone and keep their directive). Returns `true` if anything
/// changed — the caller must then re-split critical edges and re-run the
/// analysis, since new blocks exist.
pub fn legalize_dynamic_switches(
    f: &mut Function,
    region: RegionId,
    analysis: &RegionAnalysis,
) -> bool {
    let region_blocks: Vec<BlockId> = f.regions[region].blocks.iter().collect();
    let mut changed = false;
    for b in region_blocks {
        let Terminator::Switch {
            val,
            cases,
            default,
        } = f.blocks[b].term.clone()
        else {
            continue;
        };
        if analysis.const_branches.contains(b) {
            continue; // stays a CONST_SWITCH template directive
        }
        changed = true;

        // Original φ operand for predecessor `b` in every switch target.
        let targets: Vec<BlockId> = {
            let mut ts: Vec<BlockId> = cases.iter().map(|&(_, t)| t).collect();
            ts.push(default);
            ts.sort_unstable();
            ts.dedup();
            ts
        };
        let mut phi_val_for_b: Vec<(BlockId, InstId, InstId)> = Vec::new();
        for &t in &targets {
            for &i in &f.blocks[t].insts {
                if let InstKind::Phi(ins) = f.kind(i) {
                    if let Some(&(_, v)) = ins.iter().find(|(p, _)| *p == b) {
                        phi_val_for_b.push((t, i, v));
                    }
                }
            }
        }

        // Build the chain. Block `b` keeps the first compare; each further
        // case gets a fresh block; the final else-edge goes to `default`.
        let n = cases.len();
        let chain: Vec<BlockId> = (1..n).map(|_| f.add_block()).collect();
        let mut new_pred: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
        if n == 0 {
            f.blocks[b].term = Terminator::Jump(default);
            new_pred.entry(default).or_default().push(b);
        } else {
            for (idx, &(c, t)) in cases.iter().enumerate() {
                let cur = if idx == 0 { b } else { chain[idx - 1] };
                let next = if idx + 1 < n { chain[idx] } else { default };
                let cv = f.const_int(cur, c);
                let cmp = f.bin(cur, BinOp::CmpEq, val, cv);
                f.blocks[cur].term = Terminator::Branch {
                    cond: cmp,
                    then_b: t,
                    else_b: next,
                };
                new_pred.entry(t).or_default().push(cur);
                if idx + 1 == n {
                    new_pred.entry(default).or_default().push(cur);
                }
            }
            for &cb in &chain {
                f.regions[region].blocks.insert(cb);
            }
        }

        // Re-key φ entries: the edge from `b` is now one or more edges
        // from chain blocks (the first may still be `b` itself).
        for preds in new_pred.values_mut() {
            preds.sort_unstable();
            preds.dedup();
        }
        for (t, phi, v) in phi_val_for_b {
            let preds = new_pred.get(&t).map_or(&[][..], Vec::as_slice);
            if let InstKind::Phi(ins) = &mut f.insts[phi].kind {
                ins.retain(|(p, _)| *p != b);
                for &p in preds {
                    ins.push((p, v));
                }
            }
        }
    }
    changed
}

/// `f` must be in SSA form with critical edges split
/// ([`dyncomp_ir::cfg::split_critical_edges`]); run the analysis first and
/// pass its result.
///
/// # Errors
/// Returns [`SpecError`] for illegal `unrolled` annotations, irreducible
/// regions or multi-entry regions.
pub fn specialize_region(
    f: &mut Function,
    region: RegionId,
    analysis: &RegionAnalysis,
) -> Result<RegionSpec, SpecError> {
    if !f.is_ssa {
        return Err(SpecError::NotSsa);
    }
    let dom = DomTree::compute(f);
    let forest = find_loops(f, &dom);
    let r = f.regions[region].clone();

    // Region entry must only be entered from outside.
    let preds = dom.preds().clone();
    for &p in preds.of(r.entry) {
        if r.blocks.contains(p) {
            return Err(SpecError::MultipleEntries(r.entry));
        }
    }

    // Unrolled loops: legality-checked, then described by forest index.
    let mut uloops: Vec<usize> = Vec::new();
    for (li, l) in forest.loops.iter().enumerate() {
        if f.blocks[l.header].unrolled_header && r.blocks.contains(l.header) {
            check_unrollable(f, region, analysis, &forest, l.header)?;
            uloops.push(li);
        }
    }
    if forest.irreducible {
        return Err(SpecError::Irreducible);
    }

    let mut spec = Spec {
        f,
        region,
        r,
        analysis,
        forest: &forest,
        uloops,
        preds,
        rpo: Vec::new(),
        rpo_pos: IndexVec::new(),
        def_block: IndexVec::new(),
        ext_blocks: forest.loops.iter().map(|_| IdSet::new()).collect(),
        ctx_cache: IndexVec::new(),
        top: Rc::new([]),
        requirements: BTreeMap::new(),
        loop_layout: forest.loops.iter().map(|_| None).collect(),
        static_len: 0,
        stats: SpecStats::default(),
    };
    spec.init_order();
    spec.compute_extended_membership();
    spec.collect_requirements();
    spec.check_escapes()?;
    spec.assign_slots();
    let (template_entry, template_blocks, val_map, stub_for, exit_targets) = spec.build_template();
    let setup = spec.build_setup(template_entry);
    let enter_block = spec.rewire(
        template_entry,
        &template_blocks,
        &val_map,
        &stub_for,
        &setup,
    );

    Ok(RegionSpec {
        region,
        enter_block,
        setup_entry: setup.entry,
        setup_blocks: setup.blocks,
        template_entry,
        template_blocks,
        exit_targets,
        table_static_len: spec.static_len,
        stats: spec.stats,
    })
}

/// Layout of one unrolled loop's per-iteration record.
#[derive(Clone, Debug)]
struct LoopLayout {
    /// Slot path of the chain-head slot.
    root_path: SlotPath,
    /// Index of the chain-head slot within its parent record / static area.
    root_slot: u32,
    /// Index of the `next` pointer within the record.
    next_slot: u32,
    /// Total record length in slots.
    record_len: u32,
}

/// Result of set-up generation.
struct SetupOut {
    entry: BlockId,
    blocks: Vec<BlockId>,
    table_val: InstId,
    last_block: BlockId,
    /// Final setup value of every constant (for post-region use rewrites).
    setup_val: IndexVec<InstId, Option<InstId>>,
}

struct Spec<'a> {
    f: &'a mut Function,
    region: RegionId,
    r: dyncomp_ir::DynRegion,
    analysis: &'a RegionAnalysis,
    forest: &'a LoopForest,
    uloops: Vec<usize>,
    /// Predecessors of the region's blocks. Every block specialization
    /// adds (template copies, markers, exit stubs, set-up code) jumps only
    /// to blocks it adds or to the region's exit targets, so these lists
    /// hold until the region is rewired.
    preds: Preds,
    rpo: Vec<BlockId>,
    /// Position of each region block in `rpo`; `usize::MAX` for other
    /// blocks.
    rpo_pos: IndexVec<BlockId, usize>,
    /// The region block defining each value that existed before
    /// specialization.
    def_block: IndexVec<InstId, Option<BlockId>>,
    /// Extended membership per unrolled loop: natural blocks plus region
    /// blocks unreachable without the loop (per-iteration exit tails).
    /// Indexed by loop-forest index; empty for loops not unrolled.
    ext_blocks: Vec<IdSet<BlockId>>,
    ctx_cache: IndexVec<BlockId, Option<Ctx>>,
    /// The empty context: outside every unrolled loop.
    top: Ctx,
    /// (value, context) → leaf slot index.
    requirements: BTreeMap<(InstId, Ctx), u32>,
    /// Indexed by loop-forest index; `None` for loops not unrolled.
    loop_layout: Vec<Option<LoopLayout>>,
    static_len: u32,
    stats: SpecStats,
}

impl Spec<'_> {
    fn init_order(&mut self) {
        let rpo: Vec<BlockId> = dyncomp_ir::cfg::reverse_postorder(self.f)
            .into_iter()
            .filter(|b| self.r.blocks.contains(*b))
            .collect();
        self.def_block = self.f.insts.iter().map(|_| None).collect();
        self.rpo_pos = self.f.blocks.iter().map(|_| usize::MAX).collect();
        self.ctx_cache = self.f.blocks.iter().map(|_| None).collect();
        for (i, &b) in rpo.iter().enumerate() {
            self.rpo_pos[b] = i;
            for &v in &self.f.blocks[b].insts {
                self.def_block[v].get_or_insert(b);
            }
        }
        self.rpo = rpo;
    }

    fn is_const(&self, v: InstId) -> bool {
        self.analysis.is_const(v)
    }

    /// The record layout of unrolled loop `li`, once assigned.
    fn layout(&self, li: usize) -> &LoopLayout {
        self.loop_layout[li].as_ref().expect("layout assigned")
    }

    /// Extended membership of each unrolled loop: its natural blocks plus
    /// every region block that is *unreachable from the region entry
    /// without passing through the loop*. Such blocks (per-iteration exit
    /// tails, the code after complete unrolling finishes) are stitched in
    /// the loop's iteration context, so per-iteration constants remain
    /// addressable there — this is what makes the paper's
    /// "`return handler[i](…)` from inside the loop" dispatch pattern work.
    /// Extended sets must be laminar (nested or disjoint); offending loops
    /// fall back to natural membership.
    fn compute_extended_membership(&mut self) {
        for &li in &self.uloops.clone() {
            let natural = self.forest.loops[li].blocks.clone();
            // Region blocks reachable from the entry avoiding the loop.
            let mut reach_without = IdSet::with_domain(self.f.blocks.len());
            if !natural.contains(self.r.entry) {
                let mut stack = vec![self.r.entry];
                reach_without.insert(self.r.entry);
                while let Some(b) = stack.pop() {
                    for s in self.f.blocks[b].term.successors() {
                        if self.r.blocks.contains(s)
                            && !natural.contains(s)
                            && reach_without.insert(s)
                        {
                            stack.push(s);
                        }
                    }
                }
            }
            let mut ext = natural.clone();
            for b in self.r.blocks.clone().iter() {
                if !reach_without.contains(b) {
                    ext.insert(b);
                }
            }
            self.ext_blocks[li] = ext;
        }
        // Laminarity: for each pair, extended sets must be nested or
        // disjoint; otherwise strip both back to natural membership.
        let ids: Vec<usize> = self.uloops.clone();
        loop {
            let mut violated: Option<(usize, usize)> = None;
            'scan: for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    let ea = &self.ext_blocks[a];
                    let eb = &self.ext_blocks[b];
                    let mut inter = ea.clone();
                    inter.intersect_with(eb);
                    if inter.is_empty() {
                        continue;
                    }
                    let a_in_b = ea.iter().all(|x| eb.contains(x));
                    let b_in_a = eb.iter().all(|x| ea.contains(x));
                    if !a_in_b && !b_in_a {
                        violated = Some((a, b));
                        break 'scan;
                    }
                }
            }
            match violated {
                Some((a, b)) => {
                    self.ext_blocks[a] = self.forest.loops[a].blocks.clone();
                    self.ext_blocks[b] = self.forest.loops[b].blocks.clone();
                }
                None => break,
            }
        }
    }

    /// The unrolled-loop context of a block (outer → inner), by extended
    /// membership, ordered outer-first (larger extended set first).
    fn ctx_of(&mut self, b: BlockId) -> Ctx {
        if let Some(Some(c)) = self.ctx_cache.get(b) {
            return c.clone();
        }
        let mut loops: Vec<usize> = self
            .uloops
            .iter()
            .copied()
            .filter(|&li| self.ext_blocks[li].contains(b))
            .collect();
        // Outer first: larger extended set; ties broken by header order.
        loops.sort_by_key(|&li| {
            (
                usize::MAX - self.ext_blocks[li].len(),
                self.forest.loops[li].header.index(),
            )
        });
        let chain: Ctx = if loops.is_empty() {
            self.top.clone()
        } else {
            loops.into()
        };
        if let Some(slot) = self.ctx_cache.get_mut(b) {
            *slot = Some(chain.clone());
        }
        chain
    }

    /// The context in which a value is defined (empty for region roots and
    /// other out-of-region values).
    fn def_ctx(&mut self, v: InstId) -> Ctx {
        match self.def_block.get(v).copied().flatten() {
            Some(b) => self.ctx_of(b),
            None => self.top.clone(),
        }
    }

    /// Record that constant `v` must be available at `use_ctx`; returns the
    /// context the slot lives in.
    fn require(&mut self, v: InstId, use_ctx: &Ctx) -> Ctx {
        let d = self.def_ctx(v);
        let ctx = common_prefix(&d, use_ctx);
        self.requirements
            .entry((v, ctx.clone()))
            .or_insert(u32::MAX);
        ctx
    }

    /// Reject constants that escape an unrolled loop with dynamic exits
    /// through a direct (non-φ) use: the stitcher shares one copy of the
    /// post-exit code across iterations, so a per-iteration value cannot be
    /// patched there. (Escapes routed through φs are fine: their copies run
    /// in the per-iteration exit-marker blocks.)
    fn check_escapes(&mut self) -> Result<(), SpecError> {
        // Loops with any exit arc not controlled by a constant branch.
        let mut dyn_exit = vec![false; self.forest.loops.len()];
        for &li in &self.uloops.clone() {
            let ext = self.ext_blocks[li].clone();
            let mut has_dyn = false;
            for b in ext.iter() {
                for s in self.f.blocks[b].term.successors() {
                    if !ext.contains(s) && !self.analysis.const_branches.contains(b) {
                        has_dyn = true;
                    }
                }
            }
            dyn_exit[li] = has_dyn;
        }
        for (v, ctx) in self.requirements.keys().cloned().collect::<Vec<_>>() {
            let d = self.def_ctx(v);
            if ctx.len() >= d.len() {
                continue;
            }
            for &li in &d[ctx.len()..] {
                if dyn_exit[li] {
                    return Err(SpecError::ConstantEscapesDynamicExit {
                        value: v,
                        header: self.forest.loops[li].header,
                    });
                }
            }
        }
        Ok(())
    }

    fn collect_requirements(&mut self) {
        for k in 0..self.rpo.len() {
            let b = self.rpo[k];
            let b_ctx = self.ctx_of(b);
            for at in 0..self.f.blocks[b].insts.len() {
                let i = self.f.blocks[b].insts[at];
                if self.is_const(i) {
                    continue;
                }
                // Operand `n` of `i` (for a φ, with its predecessor); the
                // requirements do not touch the IR, so the walk re-borrows.
                let operand = |f: &Function, n: usize| match f.kind(i) {
                    InstKind::Phi(ins) => ins.get(n).map(|&(p, v)| (Some(p), v)),
                    kind => kind.operands().nth(n).map(|v| (None, v)),
                };
                let mut n = 0;
                while let Some((p, v)) = operand(self.f, n) {
                    n += 1;
                    if !self.is_const(v) {
                        continue;
                    }
                    match p {
                        Some(p) => {
                            let p_ctx = self.ctx_of(p);
                            self.require(v, &p_ctx);
                        }
                        None => {
                            self.require(v, &b_ctx);
                        }
                    }
                }
            }
            if self.analysis.const_branches.contains(b) {
                let test = match self.f.blocks[b].term {
                    Terminator::Branch { cond, .. } => cond,
                    Terminator::Switch { val, .. } => val,
                    _ => unreachable!("const branch has a branch terminator"),
                };
                self.require(test, &b_ctx);
            } else {
                for n in 0..self.f.blocks[b].term.operands().len() {
                    let v = self.f.blocks[b].term.operands().nth(n).expect("n < len");
                    if self.is_const(v) {
                        self.require(v, &b_ctx);
                    }
                }
            }
        }
    }

    /// Number the slots: static area first (values then top-level loop
    /// roots), then recursively each loop's record.
    fn assign_slots(&mut self) {
        // Parent = the smallest extended set strictly containing ours.
        let parent_of = |spec: &Spec, li: usize| -> Option<usize> {
            let mine = &spec.ext_blocks[li];
            spec.uloops
                .iter()
                .copied()
                .filter(|&o| o != li)
                .filter(|&o| {
                    let other = &spec.ext_blocks[o];
                    other.len() > mine.len() && mine.iter().all(|x| other.contains(x))
                })
                .min_by_key(|&o| spec.ext_blocks[o].len())
        };
        let top_loops: Vec<usize> = self
            .uloops
            .clone()
            .into_iter()
            .filter(|&li| parent_of(self, li).is_none())
            .collect();

        let reqs: Vec<(InstId, Ctx)> = self.requirements.keys().cloned().collect();

        // Static area.
        let mut idx: u32 = 0;
        for (v, ctx) in reqs.iter().filter(|(_, c)| c.is_empty()) {
            self.requirements.insert((*v, ctx.clone()), idx);
            idx += 1;
        }
        let mut pending: Vec<(usize, SlotPath)> = Vec::new(); // (loop, parent path prefix)
        for &li in &top_loops {
            self.loop_layout[li] = Some(LoopLayout {
                root_path: SlotPath::stat(idx),
                root_slot: idx,
                next_slot: 0,
                record_len: 0,
            });
            pending.push((li, SlotPath::stat(idx)));
            idx += 1;
        }
        self.static_len = idx.max(1);

        // Records, outer before inner.
        while let Some((li, root_path)) = pending.pop() {
            let my_ctx_sorted: Vec<usize> = {
                // The loop's context is its ancestors (in uloops) + itself.
                let mut c: Vec<usize> = Vec::new();
                let mut cur = Some(li);
                while let Some(x) = cur {
                    c.push(x);
                    cur = parent_of(self, x);
                }
                c.reverse();
                c
            };
            let mut slot: u32 = 0;
            for (v, ctx) in reqs.iter() {
                if ctx[..] == my_ctx_sorted[..] {
                    self.requirements.insert((*v, ctx.clone()), slot);
                    slot += 1;
                }
            }
            // Child loop roots.
            let children: Vec<usize> = self
                .uloops
                .clone()
                .into_iter()
                .filter(|&c| parent_of(self, c) == Some(li))
                .collect();
            for c in children {
                let child_root = root_path.child(slot);
                self.loop_layout[c] = Some(LoopLayout {
                    root_path: child_root.clone(),
                    root_slot: slot,
                    next_slot: 0,
                    record_len: 0,
                });
                pending.push((c, child_root));
                slot += 1;
            }
            let layout = self.loop_layout[li].as_mut().expect("layout inserted");
            layout.next_slot = slot;
            layout.record_len = slot + 1;
            layout.root_path = root_path;
        }
    }

    /// Slot path for using constant `v` at context `use_ctx`.
    fn slot_for_use(&mut self, v: InstId, use_ctx: &Ctx) -> SlotPath {
        let d = self.def_ctx(v);
        let ctx = common_prefix(&d, use_ctx);
        let leaf = *self
            .requirements
            .get(&(v, ctx.clone()))
            .unwrap_or_else(|| panic!("slot requirement missing for {v} at {ctx:?}"));
        debug_assert_ne!(leaf, u32::MAX, "slot index assigned");
        match ctx.last() {
            None => SlotPath::stat(leaf),
            Some(&li) => self.layout(li).root_path.child(leaf),
        }
    }

    /// The hole standing for constant `v` in a template block at `b_ctx`,
    /// created and appended to `list` at its first use there. Within one
    /// block a constant's slot is a function of the constant, so `cache`
    /// is keyed by it.
    fn hole_for(
        &mut self,
        v: InstId,
        b_ctx: &Ctx,
        cache: &mut FxHashMap<InstId, InstId>,
        list: &mut Vec<InstId>,
    ) -> InstId {
        if let Some(&h) = cache.get(&v) {
            return h;
        }
        let slot = self.slot_for_use(v, b_ctx);
        let h = self.f.create_inst(InstKind::Hole {
            slot,
            float: self.f.ty(v) == Ty::Float,
        });
        self.stats.holes += 1;
        list.push(h);
        cache.insert(v, h);
        h
    }

    // ================= template construction =================

    #[allow(clippy::type_complexity)]
    fn build_template(
        &mut self,
    ) -> (
        BlockId,
        Vec<BlockId>,
        IndexVec<InstId, Option<InstId>>,
        FxHashMap<(BlockId, BlockId), BlockId>,
        Vec<BlockId>,
    ) {
        // Clone blocks: `clone_of[b]` for each region block `b`.
        let mut clone_of: IndexVec<BlockId, BlockId> = self.f.blocks.ids().collect();
        for b in self.rpo.clone() {
            clone_of[b] = self.f.add_block();
        }
        // The template copy of each value that existed before the split.
        let mut val_map: IndexVec<InstId, Option<InstId>> =
            self.f.insts.iter().map(|_| None).collect();
        // The hole of each constant the block being cloned uses.
        let mut hole_cache: FxHashMap<InstId, InstId> = FxHashMap::default();
        let mut phis_to_fix: Vec<(InstId, BlockId)> = Vec::new(); // (cloned φ, orig block)

        for b in self.rpo.clone() {
            let b_ctx = self.ctx_of(b);
            let cb = clone_of[b];
            let mut list: Vec<InstId> = Vec::with_capacity(self.f.blocks[b].insts.len());
            hole_cache.clear();
            for at in 0..self.f.blocks[b].insts.len() {
                let i = self.f.blocks[b].insts[at];
                if self.is_const(i) {
                    self.stats.const_insts_eliminated += 1;
                    if matches!(self.f.kind(i), InstKind::Load { .. }) {
                        self.stats.loads_eliminated += 1;
                    }
                    continue;
                }
                let mut kind = self.f.kind(i).clone();
                if let InstKind::Phi(ins) = &mut kind {
                    // Operands mapped per-arc later isn't needed: constant
                    // operands become holes resolved at the predecessor's
                    // context; SSA destruction will place the copies there.
                    for (p, v) in ins.iter_mut() {
                        if self.is_const(*v) {
                            let p_ctx = self.ctx_of(*p);
                            let slot = self.slot_for_use(*v, &p_ctx);
                            // The hole lives in the (to-be-created) arc
                            // block; for simplicity place it in the cloned
                            // predecessor when in-region. Since copies are
                            // inserted at the end of predecessors (or arc
                            // markers) by SSA destruction, a hole placed at
                            // the predecessor end dominates the copy.
                            let hp = self.f.create_inst(InstKind::Hole {
                                slot,
                                float: self.f.ty(*v) == Ty::Float,
                            });
                            self.stats.holes += 1;
                            // Defer placement: collect per-pred placement.
                            phis_to_fix.push((hp, *p));
                            *v = hp;
                        } else if let Some(&Some(m)) = val_map.get(*v) {
                            *v = m;
                        }
                        // Predecessor rewrite happens after arc insertion.
                    }
                    let ni = self.f.create_inst(kind);
                    self.f.insts[ni].ty = self.f.ty(i);
                    val_map[i] = Some(ni);
                    list.push(ni);
                    continue;
                }
                kind.map_operands(|v| {
                    if self.is_const(v) {
                        self.hole_for(v, &b_ctx, &mut hole_cache, &mut list)
                    } else {
                        mapped(&val_map, v)
                    }
                });
                let ni = self.f.create_inst(kind);
                self.f.insts[ni].ty = self.f.ty(i);
                val_map[i] = Some(ni);
                list.push(ni);
            }
            // Terminator.
            let b_is_cb = self.analysis.const_branches.contains(b);
            let term = self.f.blocks[b].term.clone();
            let new_term = match term {
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } if b_is_cb => {
                    self.stats.const_branches += 1;
                    let slot = self.slot_for_use(cond, &b_ctx);
                    Terminator::ConstBranch {
                        slot,
                        then_b,
                        else_b,
                    }
                }
                Terminator::Switch {
                    val,
                    cases,
                    default,
                } if b_is_cb => {
                    self.stats.const_branches += 1;
                    let slot = self.slot_for_use(val, &b_ctx);
                    Terminator::ConstSwitch {
                        slot,
                        cases,
                        default,
                    }
                }
                mut other => {
                    other.map_operands(|v| {
                        if self.is_const(v) {
                            self.hole_for(v, &b_ctx, &mut hole_cache, &mut list)
                        } else {
                            mapped(&val_map, v)
                        }
                    });
                    other
                }
            };
            self.f.blocks[cb].insts = list;
            self.f.blocks[cb].term = new_term;
        }

        // Place deferred φ-operand holes at the end of the cloned
        // predecessor's instruction list (before its terminator).
        for (hole, orig_pred) in phis_to_fix {
            let cp = clone_of[orig_pred];
            self.f.blocks[cp].insts.push(hole);
        }

        // Arc transformation: markers, exit stubs, successor remapping.
        let mut stub_for: FxHashMap<(BlockId, BlockId), BlockId> = FxHashMap::default();
        let mut exit_targets: Vec<BlockId> = Vec::new();
        let mut arc_final: FxHashMap<(BlockId, BlockId), BlockId> = FxHashMap::default(); // (orig src, orig tgt) -> new pred of tgt's clone

        let mut succs: Vec<BlockId> = Vec::new();
        // `(original target, first block of its arc chain)`.
        let mut done: Vec<(BlockId, BlockId)> = Vec::new();
        for b in self.rpo.clone() {
            let cb = clone_of[b];
            let src_ctx = self.ctx_of(b);
            // Original successors (the cloned terminator still names
            // original blocks at this point).
            succs.clear();
            succs.extend(self.f.blocks[cb].term.successors());
            done.clear();
            for &tgt in &succs {
                if done.iter().any(|&(t, _)| t == tgt) {
                    continue;
                }
                let in_region = self.r.blocks.contains(tgt);
                let tgt_ctx = if in_region {
                    self.ctx_of(tgt)
                } else {
                    self.top.clone()
                };
                let common = common_prefix(&src_ctx, &tgt_ctx);

                // Build the marker chain.
                let mut markers: Vec<TemplateMarker> = Vec::new();
                // Exits, innermost first.
                for _ in common.len()..src_ctx.len() {
                    markers.push(TemplateMarker::ExitLoop);
                }
                // Back edge: the target is the header of the innermost
                // loop of its own context and the source lies inside that
                // loop's extended set (possibly deeper; the pops above
                // bring us to its level first).
                if in_region {
                    let is_backedge = !tgt_ctx.is_empty()
                        && src_ctx.len() >= tgt_ctx.len()
                        && src_ctx[..tgt_ctx.len()] == tgt_ctx[..]
                        && self.forest.loops[*tgt_ctx.last().unwrap()].header == tgt;
                    if is_backedge {
                        let li = *tgt_ctx.last().unwrap();
                        markers.push(TemplateMarker::RestartLoop {
                            next_slot: self.layout(li).next_slot,
                        });
                    } else if tgt_ctx.len() == common.len() + 1 {
                        // Entering one loop level through its header.
                        let li = *tgt_ctx.last().unwrap();
                        debug_assert_eq!(self.forest.loops[li].header, tgt);
                        markers.push(TemplateMarker::EnterLoop {
                            root: self.layout(li).root_path.clone(),
                        });
                    } else {
                        debug_assert_eq!(
                            tgt_ctx.len(),
                            common.len(),
                            "reducible CFG cannot enter two loops at once"
                        );
                    }
                }

                // Final destination.
                let final_tgt = if in_region {
                    clone_of[tgt]
                } else {
                    // Exit stub (also records the exit target).
                    if !exit_targets.contains(&tgt) {
                        exit_targets.push(tgt);
                    }
                    let stub = self.f.add_block();
                    self.f.blocks[stub].term = Terminator::Jump(tgt);
                    stub_for.insert((b, tgt), stub);
                    stub
                };

                // Chain: cb -> m1 -> m2 -> ... -> final_tgt.
                let mut first = final_tgt;
                for m in markers.into_iter().rev() {
                    let mb = self.f.blocks.push(Block {
                        insts: vec![],
                        term: Terminator::Jump(first),
                        unrolled_header: false,
                        marker: Some(m),
                    });
                    first = mb;
                }
                done.push((tgt, first));
                arc_final.insert(
                    (b, tgt),
                    if first == final_tgt {
                        cb
                    } else {
                        last_in_chain(self.f, first, final_tgt)
                    },
                );
            }
            // Retarget the terminator.
            self.f.blocks[cb].term.map_successors(|s| {
                done.iter()
                    .find(|&&(t, _)| t == s)
                    .map_or(s, |&(_, first)| first)
            });
        }

        // Fix φ predecessor labels in cloned blocks: each original pred p
        // becomes the last block on the (p → b) arc chain (or p's clone).
        for &b in &self.rpo {
            let cb = clone_of[b];
            let dyncomp_ir::Function { blocks, insts, .. } = &mut *self.f;
            for &i in &blocks[cb].insts {
                if let InstKind::Phi(ins) = &mut insts[i].kind {
                    for (p, _) in ins.iter_mut() {
                        // arc_final maps to the last chain block when a
                        // chain exists, otherwise the cloned predecessor.
                        *p = arc_final.get(&(*p, b)).copied().unwrap_or(clone_of[*p]);
                    }
                }
            }
        }

        self.stats.unrolled_loops = self.uloops.len();

        // If the template entry is a loop header, its EnterLoop marker is
        // on the (enter → entry) arc; give the template a dedicated entry.
        let mut template_entry = clone_of[self.r.entry];
        let entry_ctx = self.ctx_of(self.r.entry);
        if !entry_ctx.is_empty() {
            let mut first = template_entry;
            for (depth, &li) in entry_ctx.iter().enumerate().rev() {
                let _ = depth;
                let mb = self.f.blocks.push(Block {
                    insts: vec![],
                    term: Terminator::Jump(first),
                    unrolled_header: false,
                    marker: Some(TemplateMarker::EnterLoop {
                        root: self.layout(li).root_path.clone(),
                    }),
                });
                first = mb;
            }
            template_entry = first;
        }

        // Template block list in RPO from the entry.
        let mut seen: IdSet<BlockId> = IdSet::with_domain(self.f.blocks.len());
        let mut stack = vec![template_entry];
        let mut order: Vec<BlockId> = Vec::new();
        let region_clone_ids: IdSet<BlockId> = self.rpo.iter().map(|&b| clone_of[b]).collect();
        let stub_ids: IdSet<BlockId> = stub_for.values().copied().collect();
        seen.insert(template_entry);
        while let Some(x) = stack.pop() {
            order.push(x);
            for s in self.f.blocks[x].term.successors() {
                let is_template = region_clone_ids.contains(s)
                    || stub_ids.contains(s)
                    || self.f.blocks[s].marker.is_some();
                if is_template && seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        let template_blocks = order;

        (
            template_entry,
            template_blocks,
            val_map,
            stub_for,
            exit_targets,
        )
    }

    // ================= set-up construction =================

    fn build_setup(&mut self, template_entry: BlockId) -> SetupOut {
        let mut g = SetupGen {
            blocks: Vec::new(),
            cur: BlockId(0),
            setup_val: self.f.insts.iter().map(|_| None).collect(),
            rb: self.f.blocks.iter().map(|_| None).collect(),
            arcbool: FxHashMap::default(),
            cur_rec: self.forest.loops.iter().map(|_| None).collect(),
            table_val: InstId(0),
            one: InstId(0),
            zero: InstId(0),
        };
        let entry = self.f.add_block();
        g.blocks.push(entry);
        g.cur = entry;

        // Table allocation and universal constants.
        let size = self.f.append(
            g.cur,
            InstKind::Const(Const::Int(8 * i64::from(self.static_len))),
        );
        g.table_val = self.f.append(
            g.cur,
            InstKind::CallIntrinsic {
                which: Intrinsic::Alloc,
                args: vec![size],
            },
        );
        g.one = self.f.append(g.cur, InstKind::Const(Const::Int(1)));
        g.zero = self.f.append(g.cur, InstKind::Const(Const::Int(0)));

        // Roots are available directly.
        for &root in &self.r.const_roots {
            g.setup_val[root] = Some(root);
        }
        // Store root slots (static requirements on roots).
        for &root in self.r.const_roots.clone().iter() {
            let top = self.top.clone();
            self.store_slots(&mut g, root, &top);
        }

        g.rb[self.r.entry] = Some(g.one);

        let top = self.top.clone();
        let items = self.schedule(&top);
        self.gen_level(&mut g, &top, &items);

        let last = g.cur;
        self.f.blocks[last].term = Terminator::EndSetup {
            region: self.region,
            table: g.table_val,
            template: template_entry,
        };

        SetupOut {
            entry,
            blocks: g.blocks,
            table_val: g.table_val,
            last_block: last,
            setup_val: g.setup_val,
        }
    }

    /// Items at one nesting level: plain blocks at exactly this context,
    /// plus nested unrolled loops (by forest index) where they first occur.
    fn schedule(&mut self, level: &Ctx) -> Vec<ScheduleItem> {
        let mut items = Vec::new();
        let mut seen_loops: Vec<usize> = Vec::new();
        for k in 0..self.rpo.len() {
            let b = self.rpo[k];
            let c = self.ctx_of(b);
            if c == *level {
                items.push(ScheduleItem::Block(b));
            } else if c.len() > level.len() && c[..level.len()] == level[..] {
                let li = c[level.len()];
                if !seen_loops.contains(&li) {
                    seen_loops.push(li);
                    items.push(ScheduleItem::Loop(li));
                }
            }
        }
        items
    }

    fn gen_level(&mut self, g: &mut SetupGen, level: &Ctx, items: &[ScheduleItem]) {
        for item in items {
            match *item {
                ScheduleItem::Block(b) => self.gen_block(g, level, b, None),
                ScheduleItem::Loop(li) => self.gen_loop(g, level, li),
            }
        }
    }

    /// Contribution of arc (p → b, successor index `idx`) to b's
    /// reachability, as a setup 0/1 value.
    fn contribution(&mut self, g: &mut SetupGen, p: BlockId, idx: usize) -> Option<InstId> {
        if let Some(&ab) = g.arcbool.get(&(p, idx)) {
            return Some(ab);
        }
        g.rb.get(p).copied().flatten()
    }

    /// All-arc condition from p into b (OR over parallel arcs).
    fn pred_condition(&mut self, g: &mut SetupGen, p: BlockId, b: BlockId) -> Option<InstId> {
        let mut acc: Option<InstId> = None;
        for idx in 0..self.f.blocks[p].term.successors().len() {
            if self.f.blocks[p].term.successors().nth(idx) != Some(b) {
                continue;
            }
            let c = self.contribution(g, p, idx)?;
            acc = Some(match acc {
                None => c,
                Some(a) => self.f.append(g.cur, InstKind::Bin(BinOp::Or, a, c)),
            });
        }
        acc
    }

    fn gen_block(
        &mut self,
        g: &mut SetupGen,
        level: &Ctx,
        b: BlockId,
        rb_override: Option<InstId>,
    ) {
        // Reachability boolean.
        let rb_b = if let Some(v) = rb_override {
            v
        } else if b == self.r.entry {
            g.one
        } else {
            let my_pos = self.rpo_pos[b];
            let mut acc: Option<InstId> = None;
            for k in 0..self.preds.of(b).len() {
                let p = self.preds.of(b)[k];
                if !self.r.blocks.contains(p) {
                    continue;
                }
                // Skip retreating arcs (non-unrolled loop back edges): the
                // documented over-approximation.
                if self.rpo_pos[p] >= my_pos {
                    continue;
                }
                if let Some(c) = self.pred_condition(g, p, b) {
                    acc = Some(match acc {
                        None => c,
                        Some(a) => self.f.append(g.cur, InstKind::Bin(BinOp::Or, a, c)),
                    });
                }
            }
            acc.unwrap_or(g.zero)
        };
        g.rb[b] = Some(rb_b);
        let is_header = rb_override.is_some();

        // Constant instructions.
        for at in 0..self.f.blocks[b].insts.len() {
            let i = self.f.blocks[b].insts[at];
            if !self.is_const(i) {
                continue;
            }
            match *self.f.kind(i) {
                InstKind::Phi(ref ins) => {
                    if is_header {
                        continue; // handled by gen_loop
                    }
                    // Select chain over mutually exclusive arc conditions.
                    let mut acc: Option<InstId> = None;
                    for k in (0..ins.len()).rev() {
                        let (p, v) = phi_operand(self.f, i, k);
                        let val = g.val(v);
                        acc = Some(match acc {
                            None => val,
                            Some(rest) => {
                                let cond = self.pred_condition(g, p, b).unwrap_or(g.zero);
                                self.f.append(
                                    g.cur,
                                    InstKind::Select {
                                        cond,
                                        if_true: val,
                                        if_false: rest,
                                    },
                                )
                            }
                        });
                    }
                    let nv = acc.unwrap_or(g.zero);
                    g.setup_val[i] = Some(nv);
                }
                InstKind::Load {
                    size,
                    sign,
                    addr,
                    dynamic,
                    float,
                } => {
                    debug_assert!(!dynamic);
                    let a = g.val(addr);
                    // Guard: blend the address with the (always valid)
                    // table pointer when the block is const-unreachable.
                    let safe = if rb_b == g.one {
                        a
                    } else {
                        let d = self
                            .f
                            .append(g.cur, InstKind::Bin(BinOp::Sub, a, g.table_val));
                        let m = self.f.append(g.cur, InstKind::Bin(BinOp::Mul, d, rb_b));
                        self.f
                            .append(g.cur, InstKind::Bin(BinOp::Add, g.table_val, m))
                    };
                    let nv = self.f.append(
                        g.cur,
                        InstKind::Load {
                            size,
                            sign,
                            addr: safe,
                            dynamic: false,
                            float,
                        },
                    );
                    g.setup_val[i] = Some(nv);
                }
                ref k => {
                    let mut k = k.clone();
                    k.map_operands(|v| g.val(v));
                    let nv = self.f.append(g.cur, k);
                    g.setup_val[i] = Some(nv);
                }
            }
            self.store_slots(g, i, level);
        }

        // Arc booleans for constant branches.
        if self.analysis.const_branches.contains(b) {
            match self.f.blocks[b].term {
                Terminator::Branch { cond, .. } => {
                    let cv = g.val(cond);
                    let nb = self
                        .f
                        .append(g.cur, InstKind::Bin(BinOp::CmpNe, cv, g.zero));
                    let not_nb = self.f.append(g.cur, InstKind::Un(UnOp::LogNot, nb));
                    let a0 = self.f.append(g.cur, InstKind::Bin(BinOp::And, rb_b, nb));
                    let a1 = self
                        .f
                        .append(g.cur, InstKind::Bin(BinOp::And, rb_b, not_nb));
                    g.arcbool.insert((b, 0), a0);
                    g.arcbool.insert((b, 1), a1);
                }
                Terminator::Switch { val, ref cases, .. } => {
                    let sv = g.val(val);
                    let mut any: Option<InstId> = None;
                    let ncases = cases.len();
                    for idx in 0..ncases {
                        let Terminator::Switch { ref cases, .. } = self.f.blocks[b].term else {
                            unreachable!("the terminator is a switch")
                        };
                        let c = cases[idx].0;
                        let cc = self.f.append(g.cur, InstKind::Const(Const::Int(c)));
                        let eq = self.f.append(g.cur, InstKind::Bin(BinOp::CmpEq, sv, cc));
                        let ab = self.f.append(g.cur, InstKind::Bin(BinOp::And, rb_b, eq));
                        g.arcbool.insert((b, idx), ab);
                        any = Some(match any {
                            None => eq,
                            Some(a) => self.f.append(g.cur, InstKind::Bin(BinOp::Or, a, eq)),
                        });
                    }
                    let none = match any {
                        None => g.one,
                        Some(a) => self.f.append(g.cur, InstKind::Un(UnOp::LogNot, a)),
                    };
                    let dab = self.f.append(g.cur, InstKind::Bin(BinOp::And, rb_b, none));
                    g.arcbool.insert((b, ncases), dab);
                }
                _ => {}
            }
        }
    }

    /// Store `v`'s setup value into every slot it requires at contexts
    /// visible from `level`.
    fn store_slots(&mut self, g: &mut SetupGen, v: InstId, level: &Ctx) {
        let reqs = self
            .requirements
            .range((v, self.top.clone())..)
            .take_while(|((rv, _), _)| *rv == v);
        for ((_, ctx), &leaf) in reqs {
            // Only store requirements whose context is a prefix of the
            // current level (records of deeper contexts don't exist here).
            if ctx.len() > level.len() || ctx[..] != level[..ctx.len()] {
                continue;
            }
            let base = match ctx.last() {
                None => g.table_val,
                Some(&li) => g.cur_rec[li].expect("record allocated"),
            };
            let off = self
                .f
                .append(g.cur, InstKind::Const(Const::Int(8 * i64::from(leaf))));
            let addr = self.f.append(g.cur, InstKind::Bin(BinOp::Add, base, off));
            let val = g.val(v);
            let float = self.f.ty(val) == Ty::Float;
            self.f.append(
                g.cur,
                InstKind::Store {
                    size: MemSize::B8,
                    addr,
                    val,
                    float,
                },
            );
        }
    }

    fn gen_loop(&mut self, g: &mut SetupGen, outer: &Ctx, li: usize) {
        let forest = self.forest;
        let l = &forest.loops[li];
        let ext = self.ext_blocks[li].clone();
        let h = l.header;
        let level: Ctx = outer.iter().copied().chain([li]).collect();
        let layout = self.layout(li).clone();

        // Entry condition and entry φ-values (computed in the pre block).
        let entry_preds: Vec<BlockId> = self
            .preds
            .of(h)
            .iter()
            .copied()
            .filter(|p| !ext.contains(*p))
            .collect();
        let mut entry_g: Option<InstId> = None;
        for &p in &entry_preds {
            let c = if self.r.blocks.contains(p) {
                self.pred_condition(g, p, h)
            } else {
                Some(g.one) // entered from outside the region
            };
            if let Some(c) = c {
                entry_g = Some(match entry_g {
                    None => c,
                    Some(a) => self.f.append(g.cur, InstKind::Bin(BinOp::Or, a, c)),
                });
            }
        }
        let entry_g = entry_g.unwrap_or(g.zero);

        // Entry values for the header's constant φs.
        let phis: Vec<InstId> = self.f.blocks[h]
            .insts
            .iter()
            .copied()
            .filter(|&i| matches!(self.f.kind(i), InstKind::Phi(_)) && self.is_const(i))
            .collect();
        // Parallel to `phis`.
        let mut entry_vals: Vec<InstId> = Vec::with_capacity(phis.len());
        for &phi in &phis {
            let mut acc: Option<InstId> = None;
            for k in (0..phi_len(self.f, phi)).rev() {
                let (p, v) = phi_operand(self.f, phi, k);
                if l.blocks.contains(p) {
                    continue; // latch operand, handled per iteration
                }
                let val = g.val(v);
                acc = Some(match acc {
                    None => val,
                    Some(rest) => {
                        let cond = if self.r.blocks.contains(p) {
                            self.pred_condition(g, p, h).unwrap_or(g.zero)
                        } else {
                            g.one
                        };
                        self.f.append(
                            g.cur,
                            InstKind::Select {
                                cond,
                                if_true: val,
                                if_false: rest,
                            },
                        )
                    }
                });
            }
            entry_vals.push(acc.unwrap_or(g.zero));
        }

        // Root link address.
        let root_addr = {
            let base = match outer.last() {
                None => g.table_val,
                Some(&pl) => g.cur_rec[pl].expect("record allocated"),
            };
            let off = self.f.append(
                g.cur,
                InstKind::Const(Const::Int(8 * i64::from(layout.root_slot))),
            );
            self.f.append(g.cur, InstKind::Bin(BinOp::Add, base, off))
        };

        // Control skeleton.
        let b_pre = g.cur;
        let b_preh = self.f.add_block();
        let b_joinf = self.f.add_block();
        let b_head = self.f.add_block();
        let b_back = self.f.add_block();
        let b_exitf = self.f.add_block();
        let b_join = self.f.add_block();
        for nb in [b_preh, b_joinf, b_head, b_back, b_exitf, b_join] {
            g.blocks.push(nb);
        }
        self.f.blocks[b_pre].term = Terminator::Branch {
            cond: entry_g,
            then_b: b_preh,
            else_b: b_joinf,
        };
        self.f.blocks[b_preh].term = Terminator::Jump(b_head);
        self.f.blocks[b_joinf].term = Terminator::Jump(b_join);
        self.f.blocks[b_back].term = Terminator::Jump(b_head);
        self.f.blocks[b_exitf].term = Terminator::Jump(b_join);

        // Header block: φs, record allocation, linking.
        g.cur = b_head;
        let link_phi = self
            .f
            .append(g.cur, InstKind::Phi(vec![(b_preh, root_addr)]));
        let mut val_phis: Vec<(InstId, InstId)> = Vec::new(); // (orig φ, setup φ)
        for (&phi, &entry_val) in phis.iter().zip(&entry_vals) {
            let sp = self
                .f
                .append(g.cur, InstKind::Phi(vec![(b_preh, entry_val)]));
            self.f.insts[sp].ty = self.f.ty(phi);
            g.setup_val[phi] = Some(sp);
            val_phis.push((phi, sp));
        }
        let rec_size = self.f.append(
            g.cur,
            InstKind::Const(Const::Int(8 * i64::from(layout.record_len))),
        );
        let rec = self.f.append(
            g.cur,
            InstKind::CallIntrinsic {
                which: Intrinsic::Alloc,
                args: vec![rec_size],
            },
        );
        self.f.append(
            g.cur,
            InstKind::Store {
                size: MemSize::B8,
                addr: link_phi,
                val: rec,
                float: false,
            },
        );
        g.cur_rec[li] = Some(rec);

        // Store per-iteration slots of the φs themselves.
        for &(phi, _) in &val_phis {
            self.store_slots(g, phi, &level);
        }

        // Body schedule (includes the header's non-φ constants).
        let items = self.schedule(&level);
        for item in &items {
            match *item {
                ScheduleItem::Block(b2) if b2 == h => {
                    self.gen_block(g, &level, b2, Some(g.one));
                }
                ScheduleItem::Block(b2) => self.gen_block(g, &level, b2, None),
                ScheduleItem::Loop(inner) => self.gen_loop(g, &level, inner),
            }
        }

        // Continue condition: OR of back-edge arc contributions.
        let mut cont: Option<InstId> = None;
        for &latch in &l.latches {
            if let Some(c) = self.pred_condition(g, latch, h) {
                cont = Some(match cont {
                    None => c,
                    Some(a) => self.f.append(g.cur, InstKind::Bin(BinOp::Or, a, c)),
                });
            }
        }
        let cont = cont.unwrap_or(g.zero);
        let next_off = self.f.append(
            g.cur,
            InstKind::Const(Const::Int(8 * i64::from(layout.next_slot))),
        );
        let next_link = self
            .f
            .append(g.cur, InstKind::Bin(BinOp::Add, rec, next_off));

        // Latch values for the header φs.
        for &(phi, sp) in &val_phis {
            let mut acc: Option<InstId> = None;
            for k in (0..phi_len(self.f, phi)).rev() {
                let (p, v) = phi_operand(self.f, phi, k);
                if !l.blocks.contains(p) {
                    continue;
                }
                let val = g.val(v);
                acc = Some(match acc {
                    None => val,
                    Some(rest) => {
                        let cond = self.pred_condition(g, p, h).unwrap_or(g.zero);
                        self.f.append(
                            g.cur,
                            InstKind::Select {
                                cond,
                                if_true: val,
                                if_false: rest,
                            },
                        )
                    }
                });
            }
            let latch_val = acc.unwrap_or(g.zero);
            if let InstKind::Phi(ins) = &mut self.f.insts[sp].kind {
                ins.push((b_back, latch_val));
            }
        }
        if let InstKind::Phi(ins) = &mut self.f.insts[link_phi].kind {
            ins.push((b_back, next_link));
        }

        let b_tail = g.cur;
        self.f.blocks[b_tail].term = Terminator::Branch {
            cond: cont,
            then_b: b_back,
            else_b: b_exitf,
        };

        // Join block: export loop-defined setup values and exit-arc bools
        // through φs (value on the never-entered path is a dead zero).
        g.cur = b_join;
        let loop_block_list: Vec<BlockId> = self
            .rpo
            .clone()
            .into_iter()
            .filter(|b2| ext.contains(*b2))
            .collect();
        // Export every constant defined in the loop (unused exports die in
        // DCE), including the header φs.
        let mut exports: Vec<InstId> = Vec::new();
        for b2 in &loop_block_list {
            for i in self.f.blocks[*b2].insts.clone() {
                if self.is_const(i) && g.setup_val[i].is_some() {
                    exports.push(i);
                }
            }
        }
        for v in exports {
            let inner = g.val(v);
            let ty = self.f.ty(inner);
            let dead = if ty == Ty::Float {
                let z = self.f.create_inst(InstKind::Const(Const::Float(0.0)));
                self.f.blocks[b_pre].insts.push(z);
                z
            } else {
                g.zero
            };
            let ex = self.f.append(
                g.cur,
                InstKind::Phi(vec![(b_joinf, dead), (b_exitf, inner)]),
            );
            self.f.insts[ex].ty = ty;
            g.setup_val[v] = Some(ex);
        }
        // Exit arc bools: every arc leaving the loop into the region.
        for b2 in &loop_block_list {
            for idx in 0..self.f.blocks[*b2].term.successors().len() {
                let s = self.f.blocks[*b2]
                    .term
                    .successors()
                    .nth(idx)
                    .expect("idx < len");
                if ext.contains(s) || !self.r.blocks.contains(s) {
                    continue;
                }
                let inner = self.contribution(g, *b2, idx).unwrap_or(g.zero);
                let ex = self.f.append(
                    g.cur,
                    InstKind::Phi(vec![(b_joinf, g.zero), (b_exitf, inner)]),
                );
                g.arcbool.insert((*b2, idx), ex);
            }
        }
        g.cur_rec[li] = None;
    }

    // ================= rewiring =================

    fn rewire(
        &mut self,
        template_entry: BlockId,
        template_blocks: &[BlockId],
        val_map: &IndexVec<InstId, Option<InstId>>,
        stub_for: &FxHashMap<(BlockId, BlockId), BlockId>,
        setup: &SetupOut,
    ) -> BlockId {
        let _ = template_entry;
        let _ = template_blocks;
        // New enter block.
        let enter_block = self.f.add_block();
        self.f.blocks[enter_block].term = Terminator::EnterRegion {
            region: self.region,
            setup: setup.entry,
        };

        // Values defined inside the original region.
        let mut defined_in_region: IdSet<InstId> = IdSet::with_domain(self.f.insts.len());
        for b in self.rpo.clone() {
            for &i in &self.f.blocks[b].insts {
                defined_in_region.insert(i);
            }
        }

        // Retarget predecessors of the region entry and rewrite all
        // out-of-region uses of region-defined values.
        let region_blocks = &self.r.blocks;
        let setup_block_set: IdSet<BlockId> = setup.blocks.iter().copied().collect();
        let entry = self.r.entry;
        let remap = |v| {
            remap_out(
                v,
                &defined_in_region,
                self.analysis,
                val_map,
                &setup.setup_val,
            )
        };
        let dyncomp_ir::Function { blocks, insts, .. } = &mut *self.f;
        for b in blocks.ids() {
            if region_blocks.contains(b) || setup_block_set.contains(b) || b == enter_block {
                continue;
            }
            // Skip template blocks: their references are already correct.
            // (They were created after the original block range; we detect
            // them via val_map usage instead: any block created during
            // build_template references only new ids or out-of-region ids.)
            let blk = &mut blocks[b];
            blk.term
                .map_successors(|s| if s == entry { enter_block } else { s });
            for &i in &blk.insts {
                if let InstKind::Phi(ins) = &mut insts[i].kind {
                    for (p, v) in ins.iter_mut() {
                        if region_blocks.contains(*p) {
                            if let Some(&stub) = stub_for.get(&(*p, b)) {
                                *p = stub;
                            }
                        }
                        *v = remap(*v);
                    }
                } else {
                    insts[i].kind.map_operands(remap);
                }
            }
            blk.term.map_operands(remap);
        }

        // Detach the original region body.
        for b in self.rpo.clone() {
            self.f.blocks[b].insts.clear();
            self.f.blocks[b].term = Terminator::Unreachable;
            self.f.blocks[b].unrolled_header = false;
        }

        let _ = setup.last_block;
        let _ = setup.table_val;
        enter_block
    }
}

fn remap_out(
    v: InstId,
    defined_in_region: &IdSet<InstId>,
    analysis: &RegionAnalysis,
    val_map: &IndexVec<InstId, Option<InstId>>,
    setup_val: &IndexVec<InstId, Option<InstId>>,
) -> InstId {
    if !defined_in_region.contains(v) {
        return v;
    }
    if analysis.is_const(v) {
        mapped(setup_val, v)
    } else {
        mapped(val_map, v)
    }
}

/// `v`'s entry in a value table, or `v` itself when it has none.
fn mapped(table: &IndexVec<InstId, Option<InstId>>, v: InstId) -> InstId {
    table.get(v).copied().flatten().unwrap_or(v)
}

/// The number of operands of φ `phi`.
fn phi_len(f: &Function, phi: InstId) -> usize {
    match f.kind(phi) {
        InstKind::Phi(ins) => ins.len(),
        _ => unreachable!("{phi} is a φ"),
    }
}

/// Operand `k` of φ `phi`: its predecessor and value.
fn phi_operand(f: &Function, phi: InstId, k: usize) -> (BlockId, InstId) {
    match f.kind(phi) {
        InstKind::Phi(ins) => ins[k],
        _ => unreachable!("{phi} is a φ"),
    }
}

/// Follow a Jump chain from `first` until the block jumping to `final_tgt`.
fn last_in_chain(f: &Function, first: BlockId, final_tgt: BlockId) -> BlockId {
    let mut cur = first;
    loop {
        match f.blocks[cur].term {
            Terminator::Jump(t) if t == final_tgt => return cur,
            Terminator::Jump(t) => cur = t,
            _ => return cur,
        }
    }
}

enum ScheduleItem {
    Block(BlockId),
    Loop(usize),
}

/// Mutable state of set-up generation.
struct SetupGen {
    blocks: Vec<BlockId>,
    cur: BlockId,
    /// Set-up value of each value that existed before the split.
    setup_val: IndexVec<InstId, Option<InstId>>,
    /// Reachability boolean of each region block.
    rb: IndexVec<BlockId, Option<InstId>>,
    arcbool: FxHashMap<(BlockId, usize), InstId>,
    /// Current record of each unrolled loop being generated, by
    /// loop-forest index.
    cur_rec: Vec<Option<InstId>>,
    table_val: InstId,
    one: InstId,
    zero: InstId,
}

impl SetupGen {
    fn val(&self, v: InstId) -> InstId {
        self.setup_val
            .get(v)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("setup value for {v} not yet generated"))
    }
}

#[cfg(test)]
mod tests;
