//! # dyncomp-stitcher
//!
//! The **stitcher** (§4 of *"Fast, Effective Dynamic Compilation"*, PLDI
//! 1996): the tiny dynamic compiler that instantiates pre-compiled
//! machine-code templates at run time.
//!
//! Given a region's [`RegionCode`] (template + directives, produced by the
//! static compiler) and the run-time constants table (filled by the
//! region's set-up code, in VM data memory), the stitcher:
//!
//! * copies template code blocks into fresh executable code, aiming each
//!   block's exit branch once every block has its place;
//! * patches **holes** with constant values — inline when an integer fits
//!   the 8-bit operate literal, otherwise by constructing the value or
//!   loading it from a **linearized constants table** it builds (floats
//!   and pointers always go through the table, §4);
//! * resolves **constant branches**, stitching only the reachable side
//!   (run-time dead-code elimination);
//! * **fully unrolls** annotated loops by walking the per-iteration record
//!   chains, stitching one copy of the loop body per record;
//! * applies **value-based peephole optimizations**: multiplication by a
//!   constant becomes shifts/adds/subtracts, unsigned division and
//!   remainder by powers of two become shifts and masks.
//!
//! Because the stitcher is host code standing in for the paper's
//! Alpha-resident run time, its work is charged against the deterministic
//! [`StitchCost`] model rather than measured with a hardware counter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod regactions;

pub use cost::StitchCost;

use dyncomp_ir::eval::{EvalError, Memory};
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_ir::SlotPath;
use dyncomp_machine::isa::{
    branch_word, decode, encode, width, EncodeError, Format, Inst, Op, Operand, LIN, SCRATCH0, ZERO,
};
use dyncomp_machine::template::{Hole, LoopMarker, RegionCode, TmplExit};
use std::fmt;

/// Upper bound on stitched blocks per instance: runaway-unrolling
/// protection ([`StitchError::UnrollBudget`]).
pub const MAX_BLOCKS: usize = 200_000;

/// Stitching options (ablations).
#[derive(Clone, Debug)]
pub struct StitchOptions {
    /// Apply value-based peephole optimizations (§4).
    pub peephole: bool,
    /// Build the linearized large-constants table; when off, large integer
    /// constants are constructed inline from immediates (more stitched
    /// instructions, no dedicated table loads).
    pub linearized_table: bool,
    /// Cost model.
    pub cost: StitchCost,
    /// Apply the §5 *register actions* extension, promoting up to this
    /// many constant-address memory locations into a register bank.
    /// **Only sound when the promoted memory is scratch** (dead outside
    /// the region): stores are rewritten without write-back.
    pub register_actions: Option<usize>,
    /// Price the blocks the plan rule admits as copy-and-patch plans (a
    /// bulk copy plus in-place patches) instead of as directive walks.
    /// The stitched code is the same either way: this moves only the
    /// simulated cycles and the `plan_*` counters, so turning it off is
    /// an ablation; the engine stitches every region, trusted or
    /// quarantined, with the session's setting. Ignored (treated as off)
    /// when `register_actions` is active, whose bookkeeping is the walk's.
    pub plans: bool,
}

impl Default for StitchOptions {
    fn default() -> Self {
        StitchOptions {
            peephole: true,
            linearized_table: true,
            cost: StitchCost::default(),
            register_actions: None,
            plans: true,
        }
    }
}

/// One hole a plan hit patched in place (feeds the engine's `PlanPatch`
/// trace events). Recording is host-side bookkeeping only: it never
/// changes stats or cycle charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanPatchRecord {
    /// Output word position patched, relative to the instance base.
    pub at: u32,
    /// The constant value patched in.
    pub value: u64,
}

/// What the stitcher did (feeds Table 2 and Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StitchStats {
    /// Instructions emitted into the stitched code.
    pub instructions_stitched: u32,
    /// Code words emitted (`Ldiw` counts two).
    pub words_emitted: u32,
    /// Holes patched inline into literal fields.
    pub holes_inline: u32,
    /// Holes satisfied via the linearized table or inline construction.
    pub holes_big: u32,
    /// Constant branches resolved (static branch elimination).
    pub const_branches_resolved: u32,
    /// Template blocks skipped as unreachable (dead-code elimination).
    pub blocks_skipped: u32,
    /// Loop iterations stitched (complete unrolling).
    pub loop_iterations: u32,
    /// Peephole strength reductions applied.
    pub strength_reductions: u32,
    /// Register-actions: constant-address loads removed.
    pub regaction_loads_removed: u32,
    /// Register-actions: constant-address stores rewritten to moves.
    pub regaction_stores_rewritten: u32,
    /// Register-actions: addresses promoted to the register bank.
    pub regaction_promoted: u32,
    /// Blocks the plan rule admits whose every hole the walk patched in
    /// place, charged the copy-and-patch price.
    pub plan_hits: u32,
    /// Blocks the plan rule admits that the walk had to expand (an
    /// oversized literal, a far table entry, or a peephole-candidate
    /// hole), charged the walk plus the plan dispatch.
    pub plan_misses: u32,
    /// Simulated stitcher cycles.
    pub cycles: u64,
}

dyncomp_ir::codec! {
    struct StitchStats {
        instructions_stitched: u32,
        words_emitted: u32,
        holes_inline: u32,
        holes_big: u32,
        const_branches_resolved: u32,
        blocks_skipped: u32,
        loop_iterations: u32,
        strength_reductions: u32,
        regaction_loads_removed: u32,
        regaction_stores_rewritten: u32,
        regaction_promoted: u32,
        plan_hits: u32,
        plan_misses: u32,
        cycles: u64,
    }
}

impl std::ops::AddAssign for StitchStats {
    fn add_assign(&mut self, s: StitchStats) {
        self.instructions_stitched += s.instructions_stitched;
        self.words_emitted += s.words_emitted;
        self.holes_inline += s.holes_inline;
        self.holes_big += s.holes_big;
        self.const_branches_resolved += s.const_branches_resolved;
        self.blocks_skipped += s.blocks_skipped;
        self.loop_iterations += s.loop_iterations;
        self.strength_reductions += s.strength_reductions;
        self.regaction_loads_removed += s.regaction_loads_removed;
        self.regaction_stores_rewritten += s.regaction_stores_rewritten;
        self.regaction_promoted += s.regaction_promoted;
        self.plan_hits += s.plan_hits;
        self.plan_misses += s.plan_misses;
        self.cycles += s.cycles;
    }
}

/// The stitched, executable code for one region instance.
///
/// Besides the installable code words, this records everything needed to
/// re-install the instance elsewhere (another code address, another
/// session's memory) via [`Stitched::relocate`]: the linearized-table
/// contents and the positions of every base-dependent word. Stitched code
/// is position-independent except for (a) the `Ldiw` words holding the
/// linearized-table address and (b) the region-exit branches, whose
/// targets are absolute addresses in the enclosing function.
#[derive(Clone, Debug)]
pub struct Stitched {
    /// Code words, to be installed at the `base` passed to [`stitch`].
    pub code: Vec<u32>,
    /// Address of the linearized constants table in data memory (0 when
    /// unused).
    pub lin_table_addr: u64,
    /// The linearized constants table's contents, in slot order (empty
    /// when the instance needed no table).
    pub lin_words: Vec<u64>,
    /// Word positions of `Ldiw` instructions whose second word holds the
    /// linearized-table base address.
    pub lin_addr_patches: Vec<u32>,
    /// Word positions of far-entry `Ldiw`s whose second word holds the
    /// table base plus the recorded byte offset.
    pub lin_far_addr_patches: Vec<(u32, u32)>,
    /// Region-exit branches as `(word position, absolute target)`; their
    /// displacements depend on the installation base.
    pub exit_patches: Vec<(u32, u32)>,
    /// Counters.
    pub stats: StitchStats,
    /// Plan patches applied, in application order.
    pub plan_patches: Vec<PlanPatchRecord>,
    /// Host-native machine-code bytes translated from this instance
    /// (0 when no native backend translated it). Set by the engine so
    /// byte-budgeted caches govern both backends with one number.
    pub native_bytes: u64,
    /// Every data-memory read the stitch performed, as `(address, value)`
    /// pairs in read order: hole values, constant-branch conditions, loop
    /// record-chain traversals. The stitched code is a deterministic
    /// function of the template and this read sequence, so a replica
    /// session can validate that reusing this instance is sound by
    /// replaying the reads against its own memory ([`Stitched::reads_match`])
    /// — the validation the shared code cache relies on for unkeyed
    /// regions, whose identity is unknowable before set-up runs.
    pub reads: Vec<(u64, u64)>,
}

// Plan patches are a debugging record of one stitch, not part of the
// instance: they are not persisted.
dyncomp_ir::codec! {
    struct Stitched {
        code: Vec<u32>,
        lin_table_addr: u64,
        lin_words: Vec<u64>,
        lin_addr_patches: Vec<u32>,
        lin_far_addr_patches: Vec<(u32, u32)>,
        exit_patches: Vec<(u32, u32)>,
        stats: StitchStats,
        native_bytes: u64,
        reads: Vec<(u64, u64)>;
        skip plan_patches
    }
}

impl Stitched {
    /// Whether replaying this instance's recorded table reads against
    /// `mem` reproduces the values the publishing stitch saw. A match
    /// means a stitch in this session would traverse the same template
    /// paths and bake in the same constants, so installing the cached
    /// code is sound; any divergence (different value, unreadable
    /// address) must be treated as a cache miss.
    pub fn reads_match(&self, mem: &Memory) -> bool {
        self.reads
            .iter()
            .all(|&(addr, v)| matches!(mem.read_u64(addr), Ok(x) if x == v))
    }

    /// Bytes this instance occupies when installed: code words, the
    /// linearized large-constants table it rebuilds at relocation, and
    /// any host-native translation of the instance. The unit
    /// byte-budgeted caches account in.
    pub fn footprint_bytes(&self) -> u64 {
        4 * self.code.len() as u64 + 8 * self.lin_words.len() as u64 + self.native_bytes
    }

    /// Whether every patch names words of [`Stitched::code`]: a `Ldiw`
    /// and its payload word for the table-address patches, one branch
    /// word for an exit patch. [`stitch`] returns nothing else, and
    /// [`Stitched::relocate`] indexes by it, so what decodes an instance
    /// from disk checks it first.
    pub fn patches_in_range(&self) -> bool {
        let words = self.code.len();
        let wide = |p: u32| (p as usize) + 1 < words;
        self.lin_addr_patches.iter().all(|&p| wide(p))
            && self.lin_far_addr_patches.iter().all(|&(p, _)| wide(p))
            && self.exit_patches.iter().all(|&(p, _)| (p as usize) < words)
    }

    /// Re-create this instance for installation at `new_base`, with a
    /// fresh linearized constants table allocated and filled in `mem`:
    /// returns the patched code words and the new table address. This is
    /// how a process-wide code cache installs one session's stitched code
    /// into another session — a bulk copy plus O(patches) fix-ups, never
    /// a re-stitch.
    ///
    /// Cross-session reuse assumes the sessions are *replicas*: same
    /// program installed at the same addresses, and any pointer-typed
    /// run-time constants (table entries, promoted register-action
    /// addresses) referring to identically laid-out session memory. The
    /// keyed cache already assumes keys determine the stitched code; this
    /// extends that assumption across sessions.
    ///
    /// # Errors
    /// An exit branch whose displacement no longer encodes from
    /// `new_base` (checked first, so `mem` is left untouched), or table
    /// allocation failure.
    pub fn relocate(
        &self,
        new_base: u32,
        mem: &mut Memory,
    ) -> Result<(Vec<u32>, u64), StitchError> {
        let mut code = self.code.clone();
        for &(p, target) in &self.exit_patches {
            let at = i64::from(new_base) + i64::from(p);
            code[p as usize] = branch_word(Op::Br, ZERO, at, target.into()).map_err(|e| {
                StitchError::BadTemplate(format!("relocated exit branch does not encode: {e}"))
            })?;
        }
        let lin_addr = place_lin_table(
            mem,
            &self.lin_words,
            &mut code,
            &self.lin_addr_patches,
            &self.lin_far_addr_patches,
        )?;
        Ok((code, lin_addr))
    }
}

/// Allocate the linearized constants table `words` in `mem` and patch its
/// address into the payload word of each near `Ldiw` at `near` and, plus
/// the recorded byte offset, of each far-entry `Ldiw` at `far`. Returns
/// the table address (0, allocating nothing, when `words` is empty).
fn place_lin_table(
    mem: &mut Memory,
    words: &[u64],
    code: &mut [u32],
    near: &[u32],
    far: &[(u32, u32)],
) -> Result<u64, StitchError> {
    let addr = if words.is_empty() {
        0
    } else {
        let table_err = |e: EvalError| StitchError::Table(e.to_string());
        let addr = mem.alloc(8 * words.len() as u64).map_err(table_err)?;
        for (i, &v) in words.iter().enumerate() {
            mem.write_u64(addr + 8 * i as u64, v).map_err(table_err)?;
        }
        addr
    };
    for (p, off) in near.iter().map(|&p| (p, 0)).chain(far.iter().copied()) {
        code[p as usize + 1] = (addr as u32).wrapping_add(off);
    }
    Ok(addr)
}

/// A stitched instruction whose fields do not fit their encoding.
fn does_not_encode(e: EncodeError) -> StitchError {
    StitchError::BadTemplate(format!("stitched instruction does not encode: {e}"))
}

/// Stitching failure.
#[derive(Debug, Clone, PartialEq)]
pub enum StitchError {
    /// Constants-table read failed.
    Table(String),
    /// The block budget was exhausted (runaway unrolling).
    UnrollBudget,
    /// The linearized table outgrew its displacement range.
    LinTableOverflow,
    /// A malformed template (decode failure, bad label).
    BadTemplate(String),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::Table(m) => write!(f, "constants table access failed: {m}"),
            StitchError::UnrollBudget => write!(f, "unroll budget exhausted while stitching"),
            StitchError::LinTableOverflow => write!(f, "linearized constants table overflow"),
            StitchError::BadTemplate(m) => write!(f, "malformed template: {m}"),
        }
    }
}

impl std::error::Error for StitchError {}

/// Stitch `rc`'s template into executable code.
///
/// `table` is the constants-table base address the set-up code produced;
/// `mem` is VM data memory (slot reads, linearized-table allocation);
/// `base` is the code address where the caller will install the result
/// (needed for pc-relative branches to the region's exit points).
///
/// # Errors
/// See [`StitchError`].
pub fn stitch(
    rc: &RegionCode,
    table: u64,
    mem: &mut Memory,
    base: u32,
    opts: &StitchOptions,
) -> Result<Stitched, StitchError> {
    let mut st = Stitcher {
        rc,
        table,
        mem,
        base,
        opts,
        out: Vec::with_capacity(rc.template.code.len() + 1),
        lin: Vec::new(),
        lin_dedup: FxHashMap::default(),
        stats: StitchStats::default(),
        done: FxHashMap::with_capacity_and_hasher(rc.template.blocks.len(), Default::default()),
        ctx_words: Vec::new(),
        ctx_spans: vec![(0, 0)],
        ctx_ids: FxHashMap::default(),
        ctx_next: Vec::new(),
        fixups: Vec::new(),
        lin_ldiw_patches: Vec::new(),
        lin_far_patches: Vec::new(),
        exit_patches: Vec::new(),
        queue: Vec::new(),
        accesses: Vec::new(),
        reg_known: FxHashMap::default(),
        known_load_at: FxHashMap::default(),
        plan_patch_log: Vec::new(),
        reads: Vec::new(),
    };

    // Prologue: establish the linearized-table base register. The address
    // is unknown until stitching completes; patch afterwards.
    st.charge(st.opts.cost.directive);
    st.lin_ldiw_patches.push(st.out.len() as u32);
    st.emit(Inst::ldiw(LIN, 0))?;

    // Reserve the register-actions preamble (3 words per promoted
    // address; unneeded slots remain harmless moves).
    let nop = encode(&Inst::op3(Op::Bis, ZERO, Operand::Reg(ZERO), ZERO))
        .expect("nop")
        .0;
    let ra_slots = opts.register_actions.map(|k| {
        let at = st.out.len();
        for _ in 0..3 * k {
            st.out.push(nop);
            st.stats.words_emitted += 1;
            st.stats.instructions_stitched += 1;
        }
        at
    });

    st.queue.push((rc.template.entry, EMPTY_CTX));
    while let Some(key) = st.queue.pop() {
        if st.done.contains_key(&key) {
            continue; // already stitched; fixups resolve to it
        }
        st.stitch_chain(key)?;
    }
    st.resolve_fixups()?;

    let lin_addr = place_lin_table(
        st.mem,
        &st.lin,
        &mut st.out,
        &st.lin_ldiw_patches,
        &st.lin_far_patches,
    )?;

    // §5 register actions: promote hot constant addresses.
    if let (Some(k), Some(slot_base)) = (opts.register_actions, ra_slots) {
        let accesses = std::mem::take(&mut st.accesses);
        let (preamble, _rewritten, ra_stats) =
            crate::regactions::apply_register_actions(&mut st.out, &accesses, k);
        let mut at = slot_base;
        for i in &preamble {
            let (w, extra) = encode(i).map_err(|e| {
                StitchError::BadTemplate(format!("register-actions preamble does not encode: {e}"))
            })?;
            st.out[at] = w;
            at += 1;
            if let Some(x) = extra {
                st.out[at] = x;
                at += 1;
            }
        }
        st.stats.regaction_loads_removed = ra_stats.loads_removed + ra_stats.addr_loads_removed;
        st.stats.regaction_stores_rewritten = ra_stats.stores_rewritten;
        st.stats.regaction_promoted = ra_stats.promoted;
        st.charge(
            st.opts.cost.peephole_try * accesses.len() as u64
                + st.opts.cost.peephole_emit
                    * (ra_stats.loads_removed + ra_stats.stores_rewritten) as u64,
        );
    }

    // The paper deallocates the structured table after stitching; our
    // bump allocator has no free, but the semantics match: the stitched
    // code only references the linearized table.

    Ok(Stitched {
        code: st.out,
        lin_table_addr: lin_addr,
        lin_words: st.lin,
        lin_addr_patches: st.lin_ldiw_patches,
        lin_far_addr_patches: st.lin_far_patches,
        exit_patches: st.exit_patches,
        stats: st.stats,
        plan_patches: st.plan_patch_log,
        native_bytes: 0,
        reads: st.reads,
    })
}

/// Rewrite `word`'s memory displacement to the linearized-table offset
/// `off`, refusing offsets beyond the 14-bit displacement range instead
/// of masking them (callers that can reach far offsets must take the
/// far-entry sequence).
pub(crate) fn patch_memdisp_word(word: u32, off: i32) -> Result<u32, StitchError> {
    if off < 0 || !lin_near(off) {
        return Err(StitchError::BadTemplate(format!(
            "linearized-table offset {off} exceeds the 14-bit displacement range"
        )));
    }
    Ok((word & !0x3FFF) | (off as u32 & 0x3FFF))
}

/// Whether a table offset fits the memory-format displacement.
fn lin_near(off: i32) -> bool {
    off <= dyncomp_machine::isa::limits::DISP_MAX
}

/// A stitch point: template block + unrolled-loop record stack, the
/// stack interned as an index into the stitcher's context table
/// ([`EMPTY_CTX`] outside every loop), so a key is two words and copies
/// without allocating.
type Key = (u32, u32);

/// The context id of the empty record stack.
const EMPTY_CTX: u32 = 0;

struct Stitcher<'a> {
    rc: &'a RegionCode,
    table: u64,
    mem: &'a mut Memory,
    base: u32,
    opts: &'a StitchOptions,
    out: Vec<u32>,
    lin: Vec<u64>,
    lin_dedup: FxHashMap<u64, u32>,
    stats: StitchStats,
    /// Output offset of each stitched (block, context).
    done: FxHashMap<Key, u32>,
    /// Interned record stacks: context `id` is
    /// `ctx_words[start..start + len]` for `(start, len) = ctx_spans[id]`.
    ctx_words: Vec<u64>,
    ctx_spans: Vec<(u32, u32)>,
    /// Record stack → context id, for every non-empty stack seen.
    ctx_ids: FxHashMap<Vec<u64>, u32>,
    /// Scratch: the record stack a loop marker is building.
    ctx_next: Vec<u64>,
    /// Pending pc-relative fixups: `(branch word offset, target key)`.
    fixups: Vec<(u32, Key)>,
    lin_ldiw_patches: Vec<u32>,
    /// Far-entry `Ldiw` positions to patch with `lin_addr + offset`.
    lin_far_patches: Vec<(u32, u32)>,
    /// Region-exit branches: `(output word position, absolute target)`.
    exit_patches: Vec<(u32, u32)>,
    /// Branch targets waiting to be stitched.
    queue: Vec<Key>,
    /// Register-actions log: memory accesses with constant addresses.
    accesses: Vec<crate::regactions::ConstAccess>,
    /// Registers currently holding known constants (within one block).
    reg_known: FxHashMap<u8, u64>,
    /// Output position of the hole load that established each known reg.
    known_load_at: FxHashMap<u8, u32>,
    /// Applied plan patches, in order (feeds [`Stitched::plan_patches`]).
    plan_patch_log: Vec<PlanPatchRecord>,
    /// Every data-memory read, in order (feeds [`Stitched::reads`]).
    reads: Vec<(u64, u64)>,
}

impl Stitcher<'_> {
    fn charge(&mut self, c: u64) {
        self.stats.cycles += c;
    }

    fn emit(&mut self, i: Inst) -> Result<(), StitchError> {
        let (w, extra) = encode(&i).map_err(does_not_encode)?;
        self.out.push(w);
        self.stats.words_emitted += 1;
        self.stats.instructions_stitched += 1;
        if let Some(x) = extra {
            self.out.push(x);
            self.stats.words_emitted += 1;
        }
        Ok(())
    }

    /// Emit an unconditional branch to word address `target`.
    fn emit_br(&mut self, target: u32) -> Result<(), StitchError> {
        let at = self.abs_pos().into();
        let w = branch_word(Op::Br, ZERO, at, target.into()).map_err(does_not_encode)?;
        self.out.push(w);
        self.stats.words_emitted += 1;
        self.stats.instructions_stitched += 1;
        Ok(())
    }

    fn abs_pos(&self) -> u32 {
        self.base + self.out.len() as u32
    }

    /// Resolve a slot path against the current record stack and read it,
    /// recording the read for [`Stitched::reads`].
    fn read_slot(&mut self, path: &SlotPath, ctx: u32) -> Result<u64, StitchError> {
        self.charge(self.opts.cost.table_read);
        let addr = self.slot_addr(path, ctx)?;
        let v = self.read_at(addr)?;
        self.reads.push((addr, v));
        Ok(v)
    }

    /// Resolve a slot path to its data-memory address.
    fn slot_addr(&self, path: &SlotPath, ctx: u32) -> Result<u64, StitchError> {
        if path.is_static() {
            Ok(self.table + 8 * u64::from(path.words()[0]))
        } else {
            let ctx = self.ctx(ctx);
            let depth = path.depth();
            if depth > ctx.len() {
                return Err(StitchError::Table(format!(
                    "slot {path} deeper than active loops ({})",
                    ctx.len()
                )));
            }
            Ok(ctx[depth - 1] + 8 * u64::from(path.leaf()))
        }
    }

    fn read_at(&self, addr: u64) -> Result<u64, StitchError> {
        self.mem
            .read_u64(addr)
            .map_err(|e| StitchError::Table(e.to_string()))
    }

    /// Append to the linearized table (deduplicated); returns byte offset.
    /// Offsets beyond the 14-bit displacement range are handled by the
    /// callers with a far-entry sequence.
    fn lin_offset(&mut self, v: u64) -> Result<i32, StitchError> {
        if let Some(&off) = self.lin_dedup.get(&v) {
            return Ok(off as i32);
        }
        let off = 8 * self.lin.len() as u32;
        if self.lin.len() >= 1 << 20 {
            return Err(StitchError::LinTableOverflow);
        }
        self.charge(self.opts.cost.lin_append);
        self.lin.push(v);
        self.lin_dedup.insert(v, off);
        Ok(off as i32)
    }

    /// Emit `Ldiw r25, <lin_addr + off>` (patched once the table address
    /// is known) so a far table entry can be loaded via `0(r25)`.
    fn emit_far_base(&mut self, off: i32) -> Result<(), StitchError> {
        self.lin_far_patches
            .push((self.out.len() as u32, off as u32));
        self.emit(Inst::ldiw(SCRATCH0, 0))
    }

    /// The record stack of context `id`.
    fn ctx(&self, id: u32) -> &[u64] {
        let (start, len) = self.ctx_spans[id as usize];
        &self.ctx_words[start as usize..(start + len) as usize]
    }

    /// The context a loop marker leads to: context `from`'s record stack
    /// after `edit`, interned. Only a stack never seen before allocates.
    fn derive_ctx(&mut self, from: u32, edit: impl FnOnce(&mut Vec<u64>)) -> u32 {
        let mut next = std::mem::take(&mut self.ctx_next);
        next.clear();
        next.extend_from_slice(self.ctx(from));
        edit(&mut next);
        let id = if next.is_empty() {
            EMPTY_CTX
        } else if let Some(&id) = self.ctx_ids.get(next.as_slice()) {
            id
        } else {
            let id = self.ctx_spans.len() as u32;
            self.ctx_spans
                .push((self.ctx_words.len() as u32, next.len() as u32));
            self.ctx_words.extend_from_slice(&next);
            self.ctx_ids.insert(next.clone(), id);
            id
        };
        self.ctx_next = next;
        id
    }

    /// Stitch a fall-through chain starting at `key`, queueing branch
    /// targets for later (iterative — unrolling can produce very long
    /// chains).
    fn stitch_chain(&mut self, key: Key) -> Result<(), StitchError> {
        let mut next = Some(key);
        while let Some(key) = next.take() {
            if let Some(&target) = self.done.get(&key) {
                // Re-joining already stitched code: branch to it.
                self.charge(self.opts.cost.branch_fixup);
                self.emit_br(target)?;
                return Ok(());
            }
            if self.done.len() >= MAX_BLOCKS {
                return Err(StitchError::UnrollBudget);
            }
            next = self.stitch_block(key)?;
        }
        Ok(())
    }

    /// Stitch one block; returns the next (fall-through) key, if any.
    ///
    /// The block, its holes and exit are borrowed from the template (`rc`
    /// outlives the stitcher), and the key is two words: a loop-free block
    /// allocates nothing here.
    ///
    /// Every block takes the one directive walk, instruction by
    /// instruction, trusting [`RegionCode::check_refs`]'s placement of
    /// its directives. A block the plan rule admits is priced as a
    /// copy-and-patch plan: plans on, register actions off (their
    /// bookkeeping is the walk's) and no loop marker (the record chain
    /// decides block identity). Such a block is a *hit* when the walk
    /// patched every hole in place — a literal value that fits 8 bits
    /// and, under peephole optimization, is not on a strength-reduction
    /// candidate; a table-load offset within displacement range. A hit's walk charges are replaced by the
    /// plan price (dispatch, bulk copy, one read and patch per hole, the
    /// table entries it appended) and its patches are recorded in
    /// [`Stitched::plan_patches`]; a miss pays the dispatch on top of the
    /// walk.
    fn stitch_block(&mut self, key: Key) -> Result<Option<Key>, StitchError> {
        let (label, mut ctx) = key;
        self.done.insert(key, self.abs_pos());
        self.reg_known.clear();
        self.known_load_at.clear();

        let rc = self.rc;
        let blk = rc
            .template
            .blocks
            .get(label as usize)
            .ok_or_else(|| StitchError::BadTemplate(format!("label {label}")))?;
        let code = &rc.template.code;
        let plan = self.opts.plans && self.opts.register_actions.is_none() && blk.marker.is_none();
        let (cycles, lin_len, log_len) =
            (self.stats.cycles, self.lin.len(), self.plan_patch_log.len());

        // ---- the walk: copy code, patching holes ----
        let mut branch_at_out: Option<u32> = None; // output pos of the CondBranch word
        self.charge(self.opts.cost.directive);
        let mut w = blk.start as usize;
        let mut holes = blk.holes.iter().peekable();
        while w < blk.end as usize {
            let word = code[w];
            let end = w + width(word);
            if let Some(h) = holes.next_if(|h| h.at == w as u32) {
                self.charge(self.opts.cost.directive);
                let at = self.out.len() as u32;
                if let Some(value) = self.patch_hole(word, h, ctx)? {
                    if plan {
                        self.plan_patch_log.push(PlanPatchRecord { at, value });
                    }
                }
                w = end;
                continue;
            }
            // The CondBranch exit's branch word needs a fixup later.
            if let TmplExit::CondBranch { at, .. } = blk.exit {
                if at == w as u32 {
                    branch_at_out = Some(self.out.len() as u32);
                }
            }
            if self.opts.register_actions.is_some() {
                self.track_access(word);
            }
            self.out.extend_from_slice(&code[w..end]);
            self.charge(self.opts.cost.copy_word * (end - w) as u64);
            self.stats.words_emitted += (end - w) as u32;
            self.stats.instructions_stitched += 1;
            w = end;
        }

        // ---- the plan price ----
        if plan {
            let patched = self.plan_patch_log.len() - log_len;
            if patched == blk.holes.len() {
                let c = &self.opts.cost;
                self.stats.cycles = cycles
                    + c.plan_dispatch
                    + c.plan_copy_word * u64::from(blk.end - blk.start)
                    + (c.table_read + c.plan_patch) * patched as u64
                    + c.lin_append * (self.lin.len() - lin_len) as u64;
                self.stats.plan_hits += 1;
            } else {
                self.charge(self.opts.cost.plan_dispatch);
                self.stats.plan_misses += 1;
                self.plan_patch_log.truncate(log_len);
            }
        }

        // ---- marker (after the block's code) ----
        if let Some(m) = &blk.marker {
            self.charge(self.opts.cost.loop_op);
            match m {
                LoopMarker::Enter { root } => {
                    let head = self.read_slot(root, ctx)?;
                    ctx = self.derive_ctx(ctx, |c| c.push(head));
                }
                LoopMarker::Restart { next_slot } => {
                    let cur = *self
                        .ctx(ctx)
                        .last()
                        .ok_or_else(|| StitchError::BadTemplate("restart outside loop".into()))?;
                    let addr = cur + 8 * u64::from(*next_slot);
                    let next = self.read_at(addr)?;
                    self.reads.push((addr, next));
                    ctx = self.derive_ctx(ctx, |c| {
                        if let Some(last) = c.last_mut() {
                            *last = next;
                        }
                    });
                    self.stats.loop_iterations += 1;
                }
                LoopMarker::Exit => {
                    if self.ctx(ctx).is_empty() {
                        return Err(StitchError::BadTemplate("exit outside loop".into()));
                    }
                    ctx = self.derive_ctx(ctx, |c| {
                        c.pop();
                    });
                }
            }
        }

        // ---- exit ----
        match blk.exit {
            TmplExit::Jump(l) => Ok(Some((l, ctx))),
            TmplExit::CondBranch { taken, fall, .. } => {
                let at = branch_at_out
                    .ok_or_else(|| StitchError::BadTemplate("missing branch word".into()))?;
                self.fixups.push((at, (taken, ctx)));
                // The taken side is stitched later from the queue; fall
                // through into the other side now.
                self.queue.push((taken, ctx));
                Ok(Some((fall, ctx)))
            }
            TmplExit::ConstBranch {
                ref slot,
                then_l,
                else_l,
            } => {
                self.charge(self.opts.cost.const_branch);
                self.stats.const_branches_resolved += 1;
                self.stats.blocks_skipped += 1;
                let v = self.read_slot(slot, ctx)?;
                Ok(Some((if v != 0 { then_l } else { else_l }, ctx)))
            }
            TmplExit::ConstSwitch {
                ref slot,
                ref cases,
                default,
            } => {
                self.charge(self.opts.cost.const_branch);
                self.stats.const_branches_resolved += 1;
                self.stats.blocks_skipped += cases.len() as u32;
                let v = self.read_slot(slot, ctx)? as i64;
                let target = cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map_or(default, |&(_, l)| l);
                Ok(Some((target, ctx)))
            }
            TmplExit::Return => Ok(None),
            TmplExit::ExitRegion { exit } => {
                self.charge(self.opts.cost.branch_fixup);
                let target = *rc
                    .exit_pcs
                    .get(exit as usize)
                    .ok_or_else(|| StitchError::BadTemplate(format!("exit {exit}")))?;
                self.exit_patches.push((self.out.len() as u32, target));
                self.emit_br(target)?;
                Ok(None)
            }
        }
    }

    /// Register-actions bookkeeping while copying a plain word: record
    /// loads/stores whose base register holds a known constant, and kill
    /// known-constant entries for overwritten registers.
    fn track_access(&mut self, word: u32) {
        let Ok(inst) = decode(word, None) else { return };
        let mut matched_base: Option<u8> = None;
        match inst.op {
            Op::Ldq | Op::Stq => {
                if let Operand::Reg(base) = inst.rb {
                    if let Some(&v) = self.reg_known.get(&base) {
                        matched_base = Some(base);
                        self.accesses.push(crate::regactions::ConstAccess {
                            at: self.out.len() as u32,
                            addr: v.wrapping_add(inst.imm as i64 as u64),
                            is_store: inst.op == Op::Stq,
                            via_load: self.known_load_at.get(&base).copied(),
                        });
                    }
                }
            }
            _ => {}
        }
        // Any *other* read of a known register means its address load has
        // consumers beyond promoted accesses: it must stay.
        let mut reads: Vec<u8> = Vec::new();
        match inst.op.format() {
            Format::Operate => {
                reads.push(inst.ra);
                if let Operand::Reg(r) = inst.rb {
                    reads.push(r);
                }
            }
            Format::Memory => {
                if let Operand::Reg(r) = inst.rb {
                    reads.push(r);
                }
                if matches!(inst.op, Op::Stb | Op::Stw | Op::Stl | Op::Stq | Op::Stt) {
                    reads.push(inst.ra);
                }
            }
            Format::Branch => reads.push(inst.ra),
            Format::Jump => {
                if let Operand::Reg(r) = inst.rb {
                    reads.push(r);
                }
            }
            Format::Special => {}
        }
        for r in reads {
            if Some(r) != matched_base && self.reg_known.contains_key(&r) {
                // Pin the load: clearing its record keeps it alive.
                self.known_load_at.remove(&r);
            }
        }
        // Kill overwritten registers.
        match inst.op.format() {
            Format::Operate => {
                self.reg_known.remove(&inst.rc);
                self.known_load_at.remove(&inst.rc);
            }
            Format::Memory => {
                if !matches!(inst.op, Op::Stb | Op::Stw | Op::Stl | Op::Stq | Op::Stt) {
                    self.reg_known.remove(&inst.ra);
                    self.known_load_at.remove(&inst.ra);
                }
            }
            Format::Branch | Format::Jump => {
                self.reg_known.remove(&inst.ra);
                self.known_load_at.remove(&inst.ra);
            }
            Format::Special => {
                self.reg_known.remove(&inst.rc);
                self.known_load_at.remove(&inst.rc);
            }
        }
        // A subroutine call clobbers every caller-saved register the
        // callee may touch; templates with calls (demand-driven inlining
        // leftovers) must not carry constant knowledge across one.
        if matches!(inst.op, Op::Jsr | Op::Jmp) {
            self.reg_known.clear();
            self.known_load_at.clear();
        }
    }

    /// Patch one hole into the instruction `word`, the field its format
    /// names: an operate instruction's literal, or a `ldq`/`ldt`'s table
    /// displacement. Returns the hole's value when the word was patched in
    /// place, as a copy-and-patch plan patches it; `None` when the walk
    /// expanded or rewrote it.
    fn patch_hole(&mut self, word: u32, h: &Hole, ctx: u32) -> Result<Option<u64>, StitchError> {
        let inst = decode(word, None).map_err(|e| StitchError::BadTemplate(e.to_string()))?;
        let v = self.read_slot(&h.slot, ctx)?;
        match (inst.op.format(), inst.op) {
            (_, Op::Ldq | Op::Ldt) => {
                // The template already holds the load from r27; patch disp.
                let off = self.lin_offset(v)?;
                self.charge(self.opts.cost.hole_big);
                self.stats.holes_big += 1;
                let load_at = self.out.len() as u32;
                let near = lin_near(off);
                if near {
                    let patched = patch_memdisp_word(word, off)?;
                    self.out.push(patched);
                    self.stats.words_emitted += 1;
                    self.stats.instructions_stitched += 1;
                } else {
                    // Far entry: materialize the slot address, rebase the
                    // load onto it.
                    self.emit_far_base(off)?;
                    self.emit(Inst {
                        rb: Operand::Reg(SCRATCH0),
                        imm: 0,
                        ..inst
                    })?;
                }
                if inst.op == Op::Ldq && self.opts.register_actions.is_some() {
                    // The destination register now holds a known constant
                    // (often an address) — register-actions fodder.
                    self.reg_known.insert(inst.ra, v);
                    if near {
                        // (Far pairs are never neutralized: the Ldiw spans
                        // two words.)
                        self.known_load_at.insert(inst.ra, load_at);
                    }
                }
                Ok(near.then_some(v))
            }
            (Format::Operate, _) => {
                // Peephole strength reduction first (§4): constant
                // multiplies and unsigned divides/mods rewrite entirely.
                let sr_candidate = matches!(inst.op, Op::Mulq | Op::Divqu | Op::Remqu);
                if self.opts.peephole && self.try_strength_reduce(&inst, v)? {
                    return Ok(None);
                }
                if v <= 255 {
                    self.charge(self.opts.cost.hole_inline);
                    self.stats.holes_inline += 1;
                    self.emit(Inst {
                        rb: Operand::Lit(v as u8),
                        ..inst
                    })?;
                    Ok((!(self.opts.peephole && sr_candidate)).then_some(v))
                } else {
                    self.charge(self.opts.cost.hole_big);
                    self.stats.holes_big += 1;
                    self.materialize_scratch(v)?;
                    self.emit(Inst {
                        rb: Operand::Reg(SCRATCH0),
                        ..inst
                    })?;
                    Ok(None)
                }
            }
            _ => Err(StitchError::BadTemplate(format!(
                "hole on an instruction it cannot patch: {inst}"
            ))),
        }
    }

    /// Bring `v` into the stitcher scratch register `r25`.
    fn materialize_scratch(&mut self, v: u64) -> Result<(), StitchError> {
        let sv = v as i64;
        if (-8192..=8191).contains(&sv) {
            self.emit(Inst::mem(Op::Lda, SCRATCH0, ZERO, sv as i16))?;
        } else if sv >= i32::MIN as i64 && sv <= i32::MAX as i64 {
            self.emit(Inst::ldiw(SCRATCH0, sv as i32))?;
        } else if self.opts.linearized_table {
            let off = self.lin_offset(v)?;
            if lin_near(off) {
                self.emit(Inst::mem(Op::Ldq, SCRATCH0, LIN, off as i16))?;
            } else {
                self.emit_far_base(off)?;
                self.emit(Inst::mem(Op::Ldq, SCRATCH0, SCRATCH0, 0))?;
            }
        } else {
            // Construct from 13-bit chunks (ablation path). The leading
            // chunk keeps its sign (arithmetic shift, no mask).
            let chunks = [
                sv >> 52,
                (sv >> 39) & 0x1FFF,
                (sv >> 26) & 0x1FFF,
                (sv >> 13) & 0x1FFF,
                sv & 0x1FFF,
            ];
            self.emit(Inst::mem(Op::Lda, SCRATCH0, ZERO, chunks[0] as i16))?;
            for &c in &chunks[1..] {
                self.emit(Inst::op3(Op::Sll, SCRATCH0, Operand::Lit(13), SCRATCH0))?;
                if c != 0 {
                    self.emit(Inst::mem(Op::Lda, SCRATCH0, SCRATCH0, c as i16))?;
                }
            }
        }
        Ok(())
    }

    /// §4 peephole: rewrite `mulq/divqu/remqu rX, #const` using the actual
    /// value. Returns true when a rewrite was emitted.
    fn try_strength_reduce(&mut self, inst: &Inst, v: u64) -> Result<bool, StitchError> {
        self.charge(self.opts.cost.peephole_try);
        let ra = inst.ra;
        let rc = inst.rc;
        match inst.op {
            Op::Mulq => {
                if v == 0 {
                    self.emit_sr(Inst::op3(Op::Bis, ZERO, Operand::Reg(ZERO), rc))?;
                    return Ok(true);
                }
                if v == 1 {
                    self.emit_sr(Inst::op3(Op::Bis, ra, Operand::Reg(ra), rc))?;
                    return Ok(true);
                }
                if v.is_power_of_two() {
                    let k = v.trailing_zeros() as u8;
                    self.emit_sr(Inst::op3(Op::Sll, ra, Operand::Lit(k), rc))?;
                    return Ok(true);
                }
                // 2^k - 1: shift and subtract (`u64::MAX`, a multiplier
                // of -1, has no 2^k above it).
                if let Some(p) = v.checked_add(1).filter(|p| p.is_power_of_two()) {
                    let k = p.trailing_zeros() as u8;
                    self.emit_sr(Inst::op3(Op::Sll, ra, Operand::Lit(k), SCRATCH0))?;
                    self.emit_sr(Inst::op3(Op::Subq, SCRATCH0, Operand::Reg(ra), rc))?;
                    return Ok(true);
                }
                // Few set bits: shift/add decomposition. Guard against the
                // destination aliasing the source.
                if v.count_ones() <= 3 && rc != ra {
                    let mut bits: Vec<u32> = (0..64).filter(|b| v & (1 << b) != 0).collect();
                    let first = bits.remove(0);
                    self.emit_sr(Inst::op3(Op::Sll, ra, Operand::Lit(first as u8), rc))?;
                    for b in bits {
                        self.emit_sr(Inst::op3(Op::Sll, ra, Operand::Lit(b as u8), SCRATCH0))?;
                        self.emit_sr(Inst::op3(Op::Addq, rc, Operand::Reg(SCRATCH0), rc))?;
                    }
                    return Ok(true);
                }
                Ok(false)
            }
            Op::Divqu => {
                if v.is_power_of_two() {
                    let k = v.trailing_zeros() as u8;
                    self.emit_sr(Inst::op3(Op::Srl, ra, Operand::Lit(k), rc))?;
                    return Ok(true);
                }
                Ok(false)
            }
            Op::Remqu => {
                if v.is_power_of_two() {
                    let k = v.trailing_zeros();
                    if v - 1 <= 255 {
                        self.emit_sr(Inst::op3(Op::And, ra, Operand::Lit((v - 1) as u8), rc))?;
                    } else {
                        // x << (64-k) >> (64-k)
                        self.emit_sr(Inst::op3(Op::Sll, ra, Operand::Lit((64 - k) as u8), rc))?;
                        self.emit_sr(Inst::op3(Op::Srl, rc, Operand::Lit((64 - k) as u8), rc))?;
                    }
                    return Ok(true);
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    fn emit_sr(&mut self, i: Inst) -> Result<(), StitchError> {
        self.stats.strength_reductions += 1;
        self.charge(self.opts.cost.peephole_emit);
        self.emit(i)
    }

    fn resolve_fixups(&mut self) -> Result<(), StitchError> {
        for i in 0..self.fixups.len() {
            let (at, key) = self.fixups[i];
            let target = *self
                .done
                .get(&key)
                .ok_or_else(|| StitchError::BadTemplate("unresolved branch target".into()))?;
            let pos = self.base + at;
            let word = self.out[at as usize];
            let inst = decode(word, None).map_err(|e| StitchError::BadTemplate(e.to_string()))?;
            self.out[at as usize] = branch_word(inst.op, inst.ra, pos.into(), target.into())
                .map_err(|e| StitchError::BadTemplate(e.to_string()))?;
            self.charge(self.opts.cost.branch_fixup);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
