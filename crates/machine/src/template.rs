//! Machine-code templates and stitcher directives (§3.2, §3.4, Table 1).
//!
//! A [`Template`] is the static compiler's output for one dynamic region:
//! pre-optimized machine code whose instructions contain *holes* for
//! run-time constant operands, organized into directive-delimited blocks.
//! The directives of the paper's Table 1 map onto this structure as
//! follows:
//!
//! | paper directive | here |
//! |---|---|
//! | `START` / `END` | [`Template::entry`] / [`TmplExit::ExitRegion`] |
//! | `HOLE(inst, operand#, index)` | [`Hole`] |
//! | `CONST_BRANCH(inst, index)` | [`TmplExit::ConstBranch`] / [`TmplExit::ConstSwitch`] |
//! | `ENTER_LOOP(inst, header index)` | [`LoopMarker::Enter`] |
//! | `EXIT_LOOP(inst)` | [`LoopMarker::Exit`] |
//! | `RESTART_LOOP(inst, next index)` | [`LoopMarker::Restart`] |
//! | `BRANCH(inst)` / `LABEL(inst)` | [`BranchFixup`] / block boundaries |
//!
//! Table locations are [`SlotPath`]s: a static slot index, or a path through
//! the per-iteration record chains of unrolled loops (the paper's `4:1`
//! notation).

use crate::isa::{width, Reg};
use dyncomp_ir::SlotPath;

/// Label of a template block (index into [`Template::blocks`]).
pub type TmplLabel = u32;

/// Which field of an instruction a hole patches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HoleField {
    /// The 8-bit literal operand of an operate instruction. The stitcher
    /// patches the value inline when it fits, otherwise materializes it
    /// into a scratch register (immediate construction or linearized-table
    /// load) and rewrites the instruction to register form.
    Lit,
    /// The displacement of a load from the linearized constants table
    /// (`r27`-based); the static compiler emitted the load itself (used for
    /// float and pointer-typed constants, §4). The stitcher appends the
    /// value to the linearized table and patches the displacement.
    MemDisp {
        /// Whether the constant is a float (affects only bookkeeping).
        float: bool,
    },
}

/// A hole directive: patch the instruction at word `at` with the run-time
/// constant found at `slot`.
#[derive(Clone, Debug, PartialEq)]
pub struct Hole {
    /// Word offset within [`Template::code`].
    pub at: u32,
    /// The instruction field to patch.
    pub field: HoleField,
    /// Where the set-up code stored the value.
    pub slot: SlotPath,
}

/// A pc-relative branch inside the template that targets another template
/// block; the stitcher recomputes its displacement after layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchFixup {
    /// Word offset of the branch instruction within [`Template::code`].
    pub at: u32,
    /// Target block.
    pub target: TmplLabel,
}

/// Unrolled-loop marker attached to a block. A marker takes effect *after*
/// the block's instructions (φ-copies placed in marker blocks by SSA
/// destruction must read the pre-advance record) and before its exit.
#[derive(Clone, Debug, PartialEq)]
pub enum LoopMarker {
    /// Begin iterating the record chain rooted at `root`.
    Enter {
        /// Table path of the chain head slot.
        root: SlotPath,
    },
    /// Advance to the next record (found at `next_slot` of the current).
    Restart {
        /// Slot index of the `next` pointer within the record.
        next_slot: u32,
    },
    /// Leave the innermost active loop.
    Exit,
}

/// How control leaves a template block.
#[derive(Clone, Debug, PartialEq)]
pub enum TmplExit {
    /// Fall through / jump to another block.
    Jump(TmplLabel),
    /// The block ends with an encoded conditional branch at word `at`:
    /// taken goes to `taken`, fall-through to `fall`. Both sides are
    /// stitched.
    CondBranch {
        /// Word offset of the branch instruction (last in the block).
        at: u32,
        /// Target when taken.
        taken: TmplLabel,
        /// Target on fall-through.
        fall: TmplLabel,
    },
    /// Run-time constant 2-way branch (no code): the stitcher reads the
    /// predicate from `slot` and follows exactly one side.
    ConstBranch {
        /// Table location of the predicate.
        slot: SlotPath,
        /// Side when the predicate is non-zero.
        then_l: TmplLabel,
        /// Side when zero.
        else_l: TmplLabel,
    },
    /// Run-time constant n-way switch (no code).
    ConstSwitch {
        /// Table location of the scrutinee.
        slot: SlotPath,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, TmplLabel)>,
        /// Target when no case matches.
        default: TmplLabel,
    },
    /// The block's code ends in a return (or other register jump); nothing
    /// follows.
    Return,
    /// Leave the dynamic region through exit number `exit`: the stitcher
    /// emits a branch back to the corresponding address in the enclosing
    /// function.
    ExitRegion {
        /// Index into [`RegionCode::exit_pcs`].
        exit: u32,
    },
}

/// One directive-delimited template block.
#[derive(Clone, Debug, PartialEq)]
pub struct TmplBlock {
    /// Word range `[start, end)` of this block's code in
    /// [`Template::code`].
    pub start: u32,
    /// End of the code range (exclusive).
    pub end: u32,
    /// Hole directives within the range, ordered by `at`.
    pub holes: Vec<Hole>,
    /// Branch fixups within the range (excluding the [`TmplExit`] branch).
    pub branches: Vec<BranchFixup>,
    /// Unrolled-loop marker, if this block sits on a loop arc.
    pub marker: Option<LoopMarker>,
    /// How control leaves.
    pub exit: TmplExit,
}

/// A complete machine-code template for one dynamic region.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Template {
    /// The template's code words (never executed in place; the stitcher
    /// copies from here).
    pub code: Vec<u32>,
    /// Directive-delimited blocks over `code`.
    pub blocks: Vec<TmplBlock>,
    /// The entry block.
    pub entry: TmplLabel,
}

impl Template {
    /// Count of instruction words covered by blocks (template size metric).
    pub fn template_words(&self) -> u32 {
        self.blocks.iter().map(|b| b.end - b.start).sum()
    }
}

/// Where the code generator left a value at a trap point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueLoc {
    /// An integer register.
    Reg(Reg),
    /// A float register.
    FReg(Reg),
    /// A frame slot at `sp + offset`.
    Frame(i32),
}

/// Everything the run-time needs to dynamically compile one region:
/// produced by the code generator alongside the enclosing function's code.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionCode {
    /// Global region number (matches the `EnterRegion` immediate).
    pub region_index: u16,
    /// Code address of the `EnterRegion` instruction (patched to a direct
    /// branch for unkeyed regions after first stitch).
    pub enter_pc: u32,
    /// Code address of the set-up subgraph's entry.
    pub setup_pc: u32,
    /// Code address of the statically compiled fallback copy of the region
    /// body (`None` unless the program was lowered with a tiered fallback).
    /// A tiered engine may redirect a cold `EnterRegion` trap here while
    /// set-up + stitching proceed on a background worker.
    pub fallback_pc: Option<u32>,
    /// The machine-code template.
    pub template: Template,
    /// Post-region code addresses, indexed by [`TmplExit::ExitRegion`]
    /// exit number.
    pub exit_pcs: Vec<u32>,
    /// Locations of the region's key values at `EnterRegion` (empty for
    /// unkeyed regions).
    pub key_locs: Vec<ValueLoc>,
    /// Number of static slots in the run-time constants table.
    pub table_static_len: u32,
}

impl RegionCode {
    /// Whether everything this region refers to exists: its code
    /// addresses inside the `code_len`-word static image, its labels
    /// inside its block list, its blocks inside its template code (never
    /// ending inside a two-word `Ldiw`), every directive inside its block,
    /// and its key locations among the 32 registers of a bank. The static compiler guarantees all of it by
    /// construction and the engine and stitcher index by it, so a region
    /// decoded from untrusted bytes is checked before anything runs it.
    ///
    /// # Errors
    /// What is out of range.
    pub fn check_refs(&self, code_len: usize) -> Result<(), &'static str> {
        let pcs = [self.enter_pc, self.setup_pc];
        let mut pcs = pcs.iter().chain(&self.fallback_pc).chain(&self.exit_pcs);
        if pcs.any(|&pc| pc as usize >= code_len) {
            return Err("region code address outside the static image");
        }
        let reg_ok = |l: &ValueLoc| !matches!(*l, ValueLoc::Reg(r) | ValueLoc::FReg(r) if r > 31);
        if !self.key_locs.iter().all(reg_ok) {
            return Err("key location names a register the machine does not have");
        }
        let t = &self.template;
        let label_ok = |l: TmplLabel| (l as usize) < t.blocks.len();
        if !label_ok(t.entry) {
            return Err("template entry label out of range");
        }
        for b in &t.blocks {
            if !(b.start <= b.end && b.end as usize <= t.code.len()) {
                return Err("template block outside the template code");
            }
            let inside = |at: u32| b.start <= at && at < b.end;
            let exit_ok = match &b.exit {
                TmplExit::Jump(to) => label_ok(*to),
                TmplExit::CondBranch { at, taken, fall } => {
                    inside(*at) && label_ok(*taken) && label_ok(*fall)
                }
                TmplExit::ConstBranch { then_l, else_l, .. } => {
                    label_ok(*then_l) && label_ok(*else_l)
                }
                TmplExit::ConstSwitch { cases, default, .. } => {
                    label_ok(*default) && cases.iter().all(|&(_, l)| label_ok(l))
                }
                TmplExit::Return => true,
                TmplExit::ExitRegion { exit } => (*exit as usize) < self.exit_pcs.len(),
            };
            if !exit_ok {
                return Err("template exit out of range");
            }
            if !(b.holes.iter().all(|h| inside(h.at))
                && b.branches
                    .iter()
                    .all(|f| inside(f.at) && label_ok(f.target)))
            {
                return Err("template directive outside its block");
            }
            // The stitcher's walk: a hole word is patched as one word, any
            // other `Ldiw` is copied as two.
            let mut holes = b.holes.iter().peekable();
            let mut w = b.start;
            while w < b.end {
                let hole = holes.next_if(|h| h.at == w).is_some();
                w += if hole { 1 } else { width(t.code[w as usize]) } as u32;
            }
            if w != b.end {
                return Err("template block ends inside a wide instruction");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Op;

    #[test]
    fn dangling_references_are_refused() {
        let valid = || RegionCode {
            region_index: 0,
            enter_pc: 10,
            setup_pc: 12,
            fallback_pc: Some(99),
            template: Template {
                code: vec![1, 2, 3, 4],
                blocks: vec![TmplBlock {
                    start: 0,
                    end: 4,
                    holes: vec![Hole {
                        at: 1,
                        field: HoleField::Lit,
                        slot: SlotPath::stat(2),
                    }],
                    branches: vec![BranchFixup { at: 3, target: 0 }],
                    marker: None,
                    exit: TmplExit::ExitRegion { exit: 1 },
                }],
                entry: 0,
            },
            exit_pcs: vec![40, 41],
            key_locs: vec![ValueLoc::Reg(31), ValueLoc::Frame(-8)],
            table_static_len: 6,
        };
        assert_eq!(valid().check_refs(100), Ok(()));
        assert!(valid().check_refs(99).is_err(), "fallback_pc 99 is outside");
        let breakers: [fn(&mut RegionCode); 10] = [
            |rc| rc.template.entry = 1,
            |rc| rc.template.blocks[0].end = 5,
            |rc| rc.template.blocks[0].start = 5,
            |rc| rc.template.blocks[0].holes[0].at = 4,
            |rc| rc.template.blocks[0].branches[0].at = 9,
            |rc| rc.template.blocks[0].branches[0].target = 1,
            |rc| rc.template.blocks[0].exit = TmplExit::Jump(7),
            |rc| rc.template.blocks[0].exit = TmplExit::ExitRegion { exit: 2 },
            |rc| rc.exit_pcs[1] = 100,
            |rc| rc.key_locs.push(ValueLoc::FReg(32)),
        ];
        for (i, breaker) in breakers.iter().enumerate() {
            let mut rc = valid();
            breaker(&mut rc);
            assert!(rc.check_refs(100).is_err(), "breaker {i} passed");
        }
        // A block whose last word is the first half of a `Ldiw`...
        let mut rc = valid();
        rc.template.code[3] = u32::from(Op::Ldiw as u8) << 24;
        assert!(rc.check_refs(100).is_err());
        rc.template.blocks[0].holes[0].at = 3; // ... unless a hole patches it.
        assert_eq!(rc.check_refs(100), Ok(()));
    }

    #[test]
    fn template_words_sums_block_ranges() {
        let t = Template {
            code: vec![0; 10],
            blocks: vec![
                TmplBlock {
                    start: 0,
                    end: 4,
                    holes: vec![],
                    branches: vec![],
                    marker: None,
                    exit: TmplExit::Jump(1),
                },
                TmplBlock {
                    start: 6,
                    end: 10,
                    holes: vec![],
                    branches: vec![],
                    marker: None,
                    exit: TmplExit::Return,
                },
            ],
            entry: 0,
        };
        assert_eq!(t.template_words(), 8);
    }

    #[test]
    fn slot_path_in_hole_directive() {
        let h = Hole {
            at: 3,
            field: HoleField::Lit,
            slot: SlotPath::stat(4).child(1),
        };
        assert_eq!(h.slot.to_string(), "4:1");
    }
}
