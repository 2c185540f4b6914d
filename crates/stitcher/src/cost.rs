//! The stitcher's deterministic cost model.
//!
//! The paper measured dynamic-compilation overhead with the Alpha's cycle
//! counter; our stitcher is host Rust, so each action is charged a
//! documented cost instead (see DESIGN.md). The values reflect the paper's
//! characterization of its own overheads: a directive-*interpreting*
//! stitcher with an intermediate constants table — per-directive decode
//! cost dominates, table traversal is pointer chasing, and instruction
//! copying is cheap per word.

/// Per-action stitcher costs, in simulated cycles. The program's own
/// instructions are priced by `dyncomp_machine::CycleModel`; the
/// run-time's work around a stitch (trap, keyed lookup, cache probe and
/// install, tiered dispatch, retry backoff) by the constant block in
/// `crates/core/src/engine.rs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StitchCost {
    /// Decoding one directive (block header, hole, marker, …).
    pub directive: u64,
    /// Copying one code word into the output.
    pub copy_word: u64,
    /// Reading one constants-table slot (a dependent load chain).
    pub table_read: u64,
    /// Patching a hole whose value fits the 8-bit literal.
    pub hole_inline: u64,
    /// Patching a hole by constructing or loading a large constant.
    pub hole_big: u64,
    /// Appending one value to the linearized constants table.
    pub lin_append: u64,
    /// Resolving one constant branch (dead-code elimination decision).
    pub const_branch: u64,
    /// Entering/advancing/exiting an unrolled-loop record chain.
    pub loop_op: u64,
    /// Resolving one pc-relative branch fixup.
    pub branch_fixup: u64,
    /// Attempting a peephole rewrite at a hole.
    pub peephole_try: u64,
    /// Each instruction emitted by a peephole expansion.
    pub peephole_emit: u64,
    /// Dispatching to a precompiled stitch plan (one indirect load plus
    /// the applicability checks, replacing per-directive decode).
    pub plan_dispatch: u64,
    /// Copying one code word via a plan's bulk copy. Cheaper than
    /// [`StitchCost::copy_word`]: a straight `memcpy` with no directive
    /// interleaving.
    pub plan_copy_word: u64,
    /// Applying one plan patch (the table read is charged separately via
    /// [`StitchCost::table_read`]).
    pub plan_patch: u64,
}

impl Default for StitchCost {
    fn default() -> Self {
        StitchCost {
            directive: 40,
            copy_word: 10,
            table_read: 20,
            hole_inline: 30,
            hole_big: 60,
            lin_append: 20,
            const_branch: 45,
            loop_op: 60,
            branch_fixup: 35,
            peephole_try: 25,
            peephole_emit: 10,
            plan_dispatch: 12,
            plan_copy_word: 2,
            plan_patch: 10,
        }
    }
}

impl StitchCost {
    /// A cost model for the "merged set-up/stitcher" fast path the paper's
    /// §7 proposes as future work (used by the ablation bench): directives
    /// are compiled away, so decode and table-traversal costs shrink.
    pub fn fused() -> Self {
        StitchCost {
            directive: 2,
            copy_word: 3,
            table_read: 2,
            hole_inline: 4,
            hole_big: 12,
            lin_append: 6,
            const_branch: 4,
            loop_op: 6,
            branch_fixup: 6,
            peephole_try: 4,
            peephole_emit: 3,
            plan_dispatch: 2,
            plan_copy_word: 1,
            plan_patch: 3,
        }
    }
}
