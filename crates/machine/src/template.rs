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
//! | `HOLE(inst, operand#, index)` | [`Hole`] (operand# follows from the instruction's format) |
//! | `CONST_BRANCH(inst, index)` | [`TmplExit::ConstBranch`] / [`TmplExit::ConstSwitch`] |
//! | `ENTER_LOOP(inst, header index)` | [`LoopMarker::Enter`] |
//! | `EXIT_LOOP(inst)` | [`LoopMarker::Exit`] |
//! | `RESTART_LOOP(inst, next index)` | [`LoopMarker::Restart`] |
//! | `BRANCH(inst)` / `LABEL(inst)` | [`TmplExit::CondBranch`] / block boundaries |
//!
//! Table locations are [`SlotPath`]s: a static slot index, or a path through
//! the per-iteration record chains of unrolled loops (the paper's `4:1`
//! notation).

use crate::isa::{walk, Format, Op, Operand, Reg, LIN};
use dyncomp_ir::SlotPath;

/// Label of a template block (index into [`Template::blocks`]).
pub type TmplLabel = u32;

/// A hole directive: patch the instruction at word `at` with the run-time
/// constant found at `slot`. The instruction names the field: an operate
/// instruction's literal, or the displacement of a `ldq`/`ldt` from
/// `0(r27)`, the linearized constants table (§4).
#[derive(Clone, Debug, PartialEq)]
pub struct Hole {
    /// Word offset within [`Template::code`].
    pub at: u32,
    /// Where the set-up code stored the value.
    pub slot: SlotPath,
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
    /// stitched, and the stitcher aims the branch at the taken side. It
    /// is the only branch instruction a block may hold.
    CondBranch {
        /// Word offset of the branch instruction, the block's last.
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
    /// inside its block list, its key locations among the 32 registers of
    /// a bank, each block a run of whole instructions of its template
    /// code; and the one statement of directive placement: a block's holes
    /// in order on instruction starts, each an operate instruction with a
    /// literal operand or a `ldq`/`ldt` from `0(r27)`, and its one branch
    /// instruction, if any, the [`TmplExit::CondBranch`] word, which is the
    /// block's last instruction and no hole's. The stitcher walks a block
    /// trusting it, so a region decoded from untrusted bytes is checked
    /// before anything runs it.
    ///
    /// # Errors
    /// What is out of range or out of place.
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
            let (exit_ok, cond) = match &b.exit {
                TmplExit::Jump(to) => (label_ok(*to), None),
                TmplExit::CondBranch { at, taken, fall } => {
                    (label_ok(*taken) && label_ok(*fall), Some(*at))
                }
                TmplExit::ConstBranch { then_l, else_l, .. } => {
                    (label_ok(*then_l) && label_ok(*else_l), None)
                }
                TmplExit::ConstSwitch { cases, default, .. } => {
                    let ok = label_ok(*default) && cases.iter().all(|&(_, l)| label_ok(l));
                    (ok, None)
                }
                TmplExit::Return => (true, None),
                TmplExit::ExitRegion { exit } => ((*exit as usize) < self.exit_pcs.len(), None),
            };
            if !exit_ok {
                return Err("template exit out of range");
            }
            let mut holes = b.holes.iter().peekable();
            let (mut end, mut exit_met) = (b.start, false);
            for step in walk(&t.code[b.start as usize..b.end as usize]) {
                let at = b.start + step.at as u32;
                end = b.start + step.end() as u32;
                let inst = step.inst.ok();
                if holes.next_if(|h| h.at == at).is_some() {
                    // Only an operate instruction decodes a literal operand.
                    let patchable = inst.is_some_and(|i| {
                        matches!(i.rb, Operand::Lit(_))
                            || matches!(i.op, Op::Ldq | Op::Ldt)
                                && (i.rb, i.imm) == (Operand::Reg(LIN), 0)
                    });
                    if !patchable {
                        return Err("template hole on an instruction it cannot patch");
                    }
                } else if inst.is_some_and(|i| i.op.format() == Format::Branch) {
                    if (cond, end) != (Some(at), b.end) {
                        return Err("template branch other than its block's last-instruction exit");
                    }
                    exit_met = true;
                }
            }
            if end != b.end {
                return Err("template block ends inside a wide instruction");
            }
            if holes.next().is_some() {
                return Err("template hole out of order or off an instruction start");
            }
            if cond.is_some() && !exit_met {
                return Err("template exit branch off a branch instruction");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Inst, Operand, LIN, RA, ZERO};

    fn word(i: Inst) -> u32 {
        encode(&i).unwrap().0
    }

    fn hole(at: u32) -> Hole {
        Hole {
            at,
            slot: SlotPath::stat(2),
        }
    }

    #[test]
    fn dangling_references_are_refused() {
        let valid = || RegionCode {
            region_index: 0,
            enter_pc: 10,
            setup_pc: 12,
            fallback_pc: Some(99),
            template: Template {
                code: vec![
                    word(Inst::op3(Op::Addq, 1, Operand::Reg(2), 3)),
                    word(Inst::op3(Op::Addq, 1, Operand::Lit(0), 3)),
                    word(Inst::mem(Op::Ldq, 1, LIN, 0)),
                    word(Inst::branch(Op::Beq, 1, 0)),
                    word(Inst::op3(Op::Addq, 1, Operand::Reg(2), 3)),
                ],
                blocks: vec![
                    TmplBlock {
                        start: 0,
                        end: 4,
                        holes: vec![hole(1), hole(2)],
                        marker: None,
                        exit: TmplExit::CondBranch {
                            at: 3,
                            taken: 1,
                            fall: 1,
                        },
                    },
                    TmplBlock {
                        start: 4,
                        end: 5,
                        holes: vec![],
                        marker: None,
                        exit: TmplExit::ExitRegion { exit: 1 },
                    },
                ],
                entry: 0,
            },
            exit_pcs: vec![40, 41],
            key_locs: vec![ValueLoc::Reg(31), ValueLoc::Frame(-8)],
            table_static_len: 6,
        };
        assert_eq!(valid().check_refs(100), Ok(()));
        assert!(valid().check_refs(99).is_err(), "fallback_pc 99 is outside");
        fn exit_at(rc: &mut RegionCode, to: u32) {
            if let TmplExit::CondBranch { at, .. } = &mut rc.template.blocks[0].exit {
                *at = to;
            }
        }
        let (outside, hole_order) = (
            "template block outside the template code",
            "template hole out of order or off an instruction start",
        );
        let (exit_range, not_the_exit) = (
            "template exit out of range",
            "template branch other than its block's last-instruction exit",
        );
        type Breaker = (fn(&mut RegionCode), &'static str);
        let breakers: [Breaker; 17] = [
            (
                |rc| rc.template.entry = 2,
                "template entry label out of range",
            ),
            (|rc| rc.template.blocks[0].end = 6, outside),
            (|rc| rc.template.blocks[0].start = 6, outside),
            (|rc| rc.template.blocks[0].holes[1].at = 4, hole_order),
            (|rc| rc.template.blocks[0].holes.swap(0, 1), hole_order),
            (|rc| rc.template.blocks[0].holes.push(hole(2)), hole_order),
            (
                |rc| rc.template.blocks[1].exit = TmplExit::Jump(7),
                exit_range,
            ),
            (
                |rc| rc.template.blocks[1].exit = TmplExit::ExitRegion { exit: 2 },
                exit_range,
            ),
            (
                |rc| {
                    rc.template.blocks[0].exit = TmplExit::CondBranch {
                        at: 3,
                        taken: 2,
                        fall: 1,
                    }
                },
                exit_range,
            ),
            (
                |rc| rc.exit_pcs[1] = 100,
                "region code address outside the static image",
            ),
            (
                |rc| rc.key_locs.push(ValueLoc::FReg(32)),
                "key location names a register the machine does not have",
            ),
            // The exit's word is a load, or no branch at all.
            (|rc| exit_at(rc, 2), not_the_exit),
            (
                |rc| rc.template.code[3] = word(Inst::op3(Op::Addq, 1, Operand::Reg(2), 3)),
                "template exit branch off a branch instruction",
            ),
            // A branch that is not the exit: mid-block, or in a block
            // that leaves another way.
            (
                |rc| rc.template.code[0] = word(Inst::branch(Op::Bne, 2, 0)),
                not_the_exit,
            ),
            (
                |rc| rc.template.blocks[0].exit = TmplExit::Jump(1),
                not_the_exit,
            ),
            // The exit's branch word before the block's last instruction.
            (
                |rc| {
                    rc.template.code.swap(0, 3);
                    exit_at(rc, 0);
                },
                not_the_exit,
            ),
            // A block whose last word is the first half of a `Ldiw`.
            (
                |rc| rc.template.code[3] = u32::from(Op::Ldiw as u8) << 24,
                "template block ends inside a wide instruction",
            ),
        ];
        for (i, (breaker, why)) in breakers.iter().enumerate() {
            let mut rc = valid();
            breaker(&mut rc);
            assert_eq!(rc.check_refs(100), Err(*why), "breaker {i}");
        }
    }

    /// One block of `insts` ending in `ret`, with a hole at each of
    /// `holes`.
    fn one_block(insts: &[Inst], holes: &[u32]) -> RegionCode {
        let mut code = Vec::new();
        for i in insts.iter().chain([&Inst::jump(Op::Jmp, ZERO, RA)]) {
            let (w, extra) = encode(i).unwrap();
            code.push(w);
            code.extend(extra);
        }
        RegionCode {
            region_index: 0,
            enter_pc: 0,
            setup_pc: 0,
            fallback_pc: None,
            template: Template {
                blocks: vec![TmplBlock {
                    start: 0,
                    end: code.len() as u32,
                    holes: holes.iter().copied().map(hole).collect(),
                    marker: None,
                    exit: TmplExit::Return,
                }],
                code,
                entry: 0,
            },
            exit_pcs: vec![],
            key_locs: vec![],
            table_static_len: 3,
        }
    }

    #[test]
    fn a_hole_sits_on_an_instruction_it_can_patch() {
        let addq = Inst::op3(Op::Addq, 1, Operand::Lit(0), 0);
        for site in [
            addq,
            Inst::op3(Op::Mulq, 2, Operand::Lit(0), 2),
            Inst::mem(Op::Ldq, 1, LIN, 0),
            Inst::mem(Op::Ldt, 1, LIN, 0),
        ] {
            assert_eq!(one_block(&[site], &[0]).check_refs(1), Ok(()), "{site}");
        }
        for other in [
            Inst::op3(Op::Addq, 1, Operand::Reg(2), 0),
            Inst::mem(Op::Ldq, 1, 30, 0),
            Inst::mem(Op::Ldq, 1, LIN, 8),
            Inst::mem(Op::Lda, 1, LIN, 0),
            Inst::mem(Op::Stq, 1, LIN, 0),
            Inst::mem(Op::Stt, 1, LIN, 0),
            Inst::branch(Op::Beq, 1, 0),
            Inst::jump(Op::Jmp, ZERO, RA),
            Inst::ldiw(1, 7),
        ] {
            assert!(one_block(&[other], &[0]).check_refs(1).is_err(), "{other}");
        }
        // Holes on an `Ldiw` payload word and on the operate after it: the
        // walk never meets the first.
        let rc = one_block(&[Inst::ldiw(1, 7), addq], &[1, 2]);
        assert!(rc.check_refs(1).is_err());
        assert_eq!(
            one_block(&[Inst::ldiw(1, 7), addq], &[2]).check_refs(1),
            Ok(())
        );
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
                    marker: None,
                    exit: TmplExit::Jump(1),
                },
                TmplBlock {
                    start: 6,
                    end: 10,
                    holes: vec![],
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
            slot: SlotPath::stat(4).child(1),
        };
        assert_eq!(h.slot.to_string(), "4:1");
    }
}
