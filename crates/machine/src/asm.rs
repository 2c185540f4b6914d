//! A two-pass assembler: instruction stream with symbolic labels, resolved
//! to encoded SimAlpha words. Used by the code generator and by tests.

use crate::isa::{branch_word, encode, EncodeError, Inst, Op, Reg};
use std::fmt;

/// A symbolic code label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One assembler item.
#[derive(Clone, Debug, PartialEq)]
enum Item {
    /// A fixed instruction.
    Inst(Inst),
    /// A branch-format instruction targeting a label (displacement filled
    /// at assembly).
    BranchTo(Op, Reg, Label),
    /// Bind a label at the current position.
    Bind(Label),
}

/// Assembly failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmError {
    /// A referenced label was never bound.
    UnboundLabel(Label),
    /// A label was bound twice.
    DuplicateLabel(Label),
    /// Field encoding failure.
    Encode(EncodeError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "unbound label {l}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l}"),
            AsmError::Encode(e) => write!(f, "encoding error: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> Self {
        AsmError::Encode(e)
    }
}

/// The assembler.
#[derive(Default, Debug)]
pub struct Assembler {
    items: Vec<Item>,
    next_label: u32,
    /// Instruction items pushed so far (labels excluded).
    insts: usize,
}

/// Assembled output.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// Encoded code words.
    pub words: Vec<u32>,
    /// Word offset of each label, indexed by label number; `None` for a
    /// label never bound.
    pub label_offsets: Vec<Option<u32>>,
    /// Word offset of each input instruction item (in item order, labels
    /// excluded). Useful for attaching directives to emitted positions.
    pub inst_offsets: Vec<u32>,
}

impl Assembled {
    /// Word offset of `label`, when it was bound.
    pub fn label_offset(&self, label: Label) -> Option<u32> {
        self.label_offsets.get(label.0 as usize).copied().flatten()
    }
}

impl Assembler {
    /// A fresh assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Forget every item and label, keeping the item buffer's storage:
    /// the assembler is as [`Assembler::new`] left it.
    pub fn clear(&mut self) {
        self.items.clear();
        self.next_label = 0;
        self.insts = 0;
    }

    /// Allocate a fresh label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Append an instruction; returns its item index.
    pub fn push(&mut self, inst: Inst) -> usize {
        self.items.push(Item::Inst(inst));
        self.insts += 1;
        self.insts - 1
    }

    /// Append a branch to a label; returns its item index.
    pub fn branch_to(&mut self, op: Op, ra: Reg, target: Label) -> usize {
        debug_assert_eq!(op.format(), crate::isa::Format::Branch);
        self.items.push(Item::BranchTo(op, ra, target));
        self.insts += 1;
        self.insts - 1
    }

    /// Bind `label` at the current position.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Assemble to code words.
    ///
    /// # Errors
    /// Fails on unbound/duplicate labels or out-of-range fields.
    pub fn assemble(&self) -> Result<Assembled, AsmError> {
        // Pass 1: compute word offsets.
        let mut label_offsets: Vec<Option<u32>> = vec![None; self.next_label as usize];
        let mut inst_offsets: Vec<u32> = Vec::with_capacity(self.insts);
        let mut at: u32 = 0;
        for item in &self.items {
            match item {
                Item::Bind(l) => {
                    let slot = label_slot(&mut label_offsets, *l);
                    if slot.replace(at).is_some() {
                        return Err(AsmError::DuplicateLabel(*l));
                    }
                }
                Item::Inst(i) => {
                    inst_offsets.push(at);
                    at += i.op.width() as u32;
                }
                Item::BranchTo(..) => {
                    inst_offsets.push(at);
                    at += 1;
                }
            }
        }
        // Pass 2: encode.
        let mut words = Vec::with_capacity(at as usize);
        for item in &self.items {
            match item {
                Item::Bind(_) => {}
                Item::Inst(i) => {
                    let (w, extra) = encode(i)?;
                    words.push(w);
                    words.extend(extra);
                }
                Item::BranchTo(op, ra, l) => {
                    let target = label_offsets
                        .get(l.0 as usize)
                        .copied()
                        .flatten()
                        .ok_or(AsmError::UnboundLabel(*l))?;
                    let at = words.len() as i64;
                    words.push(branch_word(*op, *ra, at, target.into())?);
                }
            }
        }
        Ok(Assembled {
            words,
            label_offsets,
            inst_offsets,
        })
    }
}

/// `label`'s entry in `offsets`, growing the table for a label the
/// assembler did not hand out.
fn label_slot(offsets: &mut Vec<Option<u32>>, label: Label) -> &mut Option<u32> {
    let ix = label.0 as usize;
    if ix >= offsets.len() {
        offsets.resize(ix + 1, None);
    }
    &mut offsets[ix]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Operand, ZERO};
    use crate::vm::{Stop, Vm};

    #[test]
    fn forward_and_backward_branches() {
        // r1 = 5; loop: r2 += r1; r1 -= 1; bne r1, loop; halt
        let mut a = Assembler::new();
        let l = a.fresh_label();
        a.push(Inst::op3(Op::Addq, ZERO, Operand::Lit(5), 1));
        a.bind(l);
        a.push(Inst::op3(Op::Addq, 2, Operand::Reg(1), 2));
        a.push(Inst::op3(Op::Subq, 1, Operand::Lit(1), 1));
        a.branch_to(Op::Bne, 1, l);
        a.push(Inst {
            op: Op::Halt,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 0,
        });
        let out = a.assemble().unwrap();

        let mut vm = Vm::new(1 << 16);
        let start = vm.append_code(&out.words);
        vm.pc = start;
        assert_eq!(vm.run().unwrap(), Stop::Halted);
        assert_eq!(vm.reg(2), 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn wide_instructions_offset_labels_correctly() {
        let mut a = Assembler::new();
        let skip = a.fresh_label();
        a.branch_to(Op::Br, ZERO, skip);
        a.push(Inst::ldiw(1, 111)); // 2 words, skipped
        a.bind(skip);
        a.push(Inst::op3(Op::Addq, ZERO, Operand::Lit(9), 2));
        a.push(Inst {
            op: Op::Halt,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 0,
        });
        let out = a.assemble().unwrap();
        assert_eq!(out.label_offset(skip), Some(3));

        let mut vm = Vm::new(1 << 16);
        let start = vm.append_code(&out.words);
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(1), 0);
        assert_eq!(vm.reg(2), 9);
    }

    #[test]
    fn unbound_label_errors() {
        let mut a = Assembler::new();
        let l = a.fresh_label();
        a.branch_to(Op::Br, ZERO, l);
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnboundLabel(l));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new();
        let l = a.fresh_label();
        a.bind(l);
        a.bind(l);
        assert_eq!(a.assemble().unwrap_err(), AsmError::DuplicateLabel(l));
    }

    #[test]
    fn inst_offsets_track_positions() {
        let mut a = Assembler::new();
        a.push(Inst::ldiw(1, 5));
        a.push(Inst::op3(Op::Addq, 1, Operand::Lit(1), 1));
        let out = a.assemble().unwrap();
        assert_eq!(out.inst_offsets, vec![0, 2]);
    }
}
