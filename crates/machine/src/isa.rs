//! The SimAlpha instruction set: encoding and decoding.
//!
//! A 64-bit RISC in the style of the DEC Alpha 21064 the paper evaluated
//! on. Fixed 32-bit instruction words (except [`Op::Ldiw`], which carries a
//! 32-bit immediate in a second word), 32 integer registers (`r31` reads as
//! zero), 32 double-precision float registers (`f31` reads as 0.0).
//!
//! Like the real Alpha, *operate* instructions take either a register or an
//! **8-bit zero-extended literal** as their second operand. The narrow
//! literal is load-bearing for the reproduction: integer template holes are
//! patched inline only when the run-time constant fits 8 bits, otherwise
//! the stitcher falls back to constructing the value or loading it from the
//! linearized constants table, exactly the trade-off §4 of the paper
//! describes.
//!
//! ## Encodings (bit fields, msb first)
//!
//! | format  | layout |
//! |---------|--------|
//! | operate | `op[31:24] ra[23:19] rb[18:14]/lit[18:11] fmt[10] rc[4:0]` |
//! | memory  | `op[31:24] ra[23:19] rb[18:14] disp[13:0]` (signed words/bytes per op) |
//! | branch  | `op[31:24] ra[23:19] disp[18:0]` (signed word displacement) |
//! | special | `op[31:24] ra[23:19] rb[18:14] imm[13:0]` |
//!
//! `Ldiw rc, #imm32` occupies two words: the first in special format, the
//! second the raw immediate (sign-extended to 64 bits).

use std::fmt;

/// Integer register name (0–31); `r31` is hardwired zero.
pub type Reg = u8;

/// The zero register.
pub const ZERO: Reg = 31;
/// Stack pointer.
pub const SP: Reg = 30;
/// Global pointer (reserved).
pub const GP: Reg = 29;
/// Constants-table pointer: set-up code leaves the table address here for
/// the stitcher (read at the `EndSetup` trap).
pub const CTP: Reg = 28;
/// Linearized-constants-table base inside stitched code.
pub const LIN: Reg = 27;
/// Return-address register.
pub const RA: Reg = 26;
/// Stitcher scratch registers, reserved by register allocation so the
/// stitcher may materialize large constants without clobbering live state.
pub const SCRATCH0: Reg = 25;
/// Second stitcher scratch register.
pub const SCRATCH1: Reg = 24;
/// First integer argument register (`r16`–`r21` carry arguments).
pub const ARG0: Reg = 16;
/// Integer return-value register.
pub const RET: Reg = 0;
/// First float argument register (`f16`–`f21`).
pub const FARG0: Reg = 16;
/// Float return-value register.
pub const FRET: Reg = 0;

/// Instruction format classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Integer/float operate: `ra op rb/lit -> rc`.
    Operate,
    /// Memory: `ra <-> mem[rb + disp]` (also `Lda`).
    Memory,
    /// Branch: conditional/unconditional pc-relative.
    Branch,
    /// Jump through register.
    Jump,
    /// Specials (`Ldiw`, traps, halt).
    Special,
}

/// Declare the opcode list once: each `Name = Format` row becomes an
/// [`Op`] variant (discriminants count up from 0 in row order), its slot
/// in the decode table behind [`Op::from_u8`], and its arm of
/// [`Op::format`].
macro_rules! opcodes {
    ($($name:ident = $format:ident),* $(,)?) => {
        /// Opcodes.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)] // the rows of `opcodes!` are the ISA reference table
        pub enum Op {
            $($name),*
        }

        const OP_TABLE: [Op; Op::COUNT as usize] = [$(Op::$name),*];

        impl Op {
            /// The format class of this opcode.
            pub fn format(self) -> Format {
                match self {
                    $(Op::$name => Format::$format),*
                }
            }
        }
    };
}

opcodes! {
    // Integer operate (register or 8-bit literal second operand).
    Addq = Operate,
    Subq = Operate,
    Mulq = Operate,
    Divq = Operate,
    Divqu = Operate,
    Remq = Operate,
    Remqu = Operate,
    And = Operate,
    Bis = Operate, // or
    Xor = Operate,
    Ornot = Operate, // rc = ra | !rb  (NOT via ra = zero)
    Sll = Operate,
    Srl = Operate,
    Sra = Operate,
    Cmpeq = Operate,
    Cmpne = Operate,
    Cmplt = Operate,
    Cmple = Operate,
    Cmpult = Operate,
    Cmpule = Operate,
    Sextb = Operate,
    Sextw = Operate,
    Sextl = Operate,
    Zextb = Operate,
    Zextw = Operate,
    Zextl = Operate,
    Cmoveq = Operate, // rc = rb if ra == 0
    Cmovne = Operate, // rc = rb if ra != 0
    // Memory format.
    Lda = Memory,  // ra = rb + disp
    Ldbu = Memory, // zero-extending loads
    Ldwu = Memory,
    Ldlu = Memory,
    Ldb = Memory, // sign-extending loads
    Ldw = Memory,
    Ldl = Memory,
    Ldq = Memory,
    Stb = Memory,
    Stw = Memory,
    Stl = Memory,
    Stq = Memory,
    Ldt = Memory, // float load (fa)
    Stt = Memory, // float store (fa)
    // Branch format (conditional on ra; Br/Bsr write the link into ra).
    Br = Branch,
    Bsr = Branch,
    Beq = Branch,
    Bne = Branch,
    Blt = Branch,
    Ble = Branch,
    Bgt = Branch,
    Bge = Branch,
    // Jump format: ra = link, rb = target address register.
    Jmp = Jump,
    Jsr = Jump,
    // Float operate: fa op fb -> fc (register form only).
    Addt = Operate,
    Subt = Operate,
    Mult = Operate,
    Divt = Operate,
    Cmpteq = Operate, // writes 0/1 to INTEGER rc
    Cmptlt = Operate,
    Cmptle = Operate,
    Sqrtt = Operate,
    Cvtqt = Operate,   // int ra -> float fc
    Cvttq = Operate,   // float fa -> int rc
    Fmov = Operate,    // fc = fb
    Fneg = Operate,    // fc = -fb
    Fcmovne = Operate, // fc = fb if integer ra != 0
    // Specials.
    Ldiw = Special,        // rc = sext(imm32 in next word)
    Alloc = Operate,       // rc = bump-allocate ra bytes (operate form)
    EnterRegion = Special, // trap: dynamic region entry; imm = region number
    EndSetup = Special,    // trap: set-up finished, table address in r28; imm = region number
    Halt = Special,
}

impl Op {
    /// All opcodes, for decode validation.
    pub const COUNT: u8 = Op::Halt as u8 + 1;

    /// Decode an opcode byte.
    pub fn from_u8(v: u8) -> Option<Op> {
        OP_TABLE.get(v as usize).copied()
    }
}

/// The second operand of an operate instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An 8-bit zero-extended literal.
    Lit(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Lit(l) => write!(f, "#{l}"),
        }
    }
}

/// A decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Inst {
    /// Opcode.
    pub op: Op,
    /// First source / branch test / memory data register.
    pub ra: Reg,
    /// Second operand (operate), base register (memory), or target
    /// register (jump).
    pub rb: Operand,
    /// Destination register (operate/jump link).
    pub rc: Reg,
    /// Memory displacement (signed), branch word displacement (signed), or
    /// special immediate.
    pub imm: i32,
}

impl Inst {
    /// An operate instruction `ra op rb -> rc`.
    pub fn op3(op: Op, ra: Reg, rb: Operand, rc: Reg) -> Inst {
        debug_assert_eq!(op.format(), Format::Operate);
        Inst {
            op,
            ra,
            rb,
            rc,
            imm: 0,
        }
    }

    /// A memory instruction `ra <-> mem[rb + disp]`.
    pub fn mem(op: Op, ra: Reg, rb: Reg, disp: i16) -> Inst {
        debug_assert_eq!(op.format(), Format::Memory);
        Inst {
            op,
            ra,
            rb: Operand::Reg(rb),
            rc: 0,
            imm: disp as i32,
        }
    }

    /// A branch instruction with a word displacement.
    pub fn branch(op: Op, ra: Reg, disp: i32) -> Inst {
        debug_assert_eq!(op.format(), Format::Branch);
        Inst {
            op,
            ra,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: disp,
        }
    }

    /// A jump through register `rb`, linking into `ra`.
    pub fn jump(op: Op, ra: Reg, rb: Reg) -> Inst {
        debug_assert_eq!(op.format(), Format::Jump);
        Inst {
            op,
            ra,
            rb: Operand::Reg(rb),
            rc: 0,
            imm: 0,
        }
    }

    /// `Ldiw rc, #imm32` (occupies two code words).
    pub fn ldiw(rc: Reg, imm: i32) -> Inst {
        Inst {
            op: Op::Ldiw,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc,
            imm,
        }
    }

    /// Whether this instruction occupies two code words.
    pub fn is_wide(&self) -> bool {
        self.op == Op::Ldiw
    }
}

/// Limits of the encodable fields.
pub mod limits {
    /// Memory displacement range (14-bit signed).
    pub const DISP_MIN: i32 = -(1 << 13);
    /// Memory displacement max.
    pub const DISP_MAX: i32 = (1 << 13) - 1;
    /// Branch displacement range (19-bit signed words).
    pub const BDISP_MIN: i32 = -(1 << 18);
    /// Branch displacement max.
    pub const BDISP_MAX: i32 = (1 << 18) - 1;
}

/// Encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Memory displacement out of the 14-bit signed range.
    DispRange(i32),
    /// Branch displacement out of the 19-bit signed range.
    BranchRange(i32),
    /// Special immediate out of range.
    ImmRange(i32),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::DispRange(d) => write!(f, "memory displacement {d} out of range"),
            EncodeError::BranchRange(d) => write!(f, "branch displacement {d} out of range"),
            EncodeError::ImmRange(d) => write!(f, "immediate {d} out of range"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode an instruction. Returns one word, plus a second for `Ldiw`.
///
/// # Errors
/// Fails when a displacement or immediate exceeds its field.
pub fn encode(inst: &Inst) -> Result<(u32, Option<u32>), EncodeError> {
    let op = (inst.op as u32) << 24;
    let ra = (inst.ra as u32 & 31) << 19;
    let word = match inst.op.format() {
        Format::Operate => {
            let (mid, fmt) = match inst.rb {
                Operand::Reg(r) => ((r as u32 & 31) << 14, 0u32),
                Operand::Lit(l) => ((l as u32) << 11, 1u32),
            };
            op | ra | mid | (fmt << 10) | (inst.rc as u32 & 31)
        }
        Format::Memory => {
            if inst.imm < limits::DISP_MIN || inst.imm > limits::DISP_MAX {
                return Err(EncodeError::DispRange(inst.imm));
            }
            let rb = match inst.rb {
                Operand::Reg(r) => (r as u32 & 31) << 14,
                Operand::Lit(_) => unreachable!("memory format has register base"),
            };
            op | ra | rb | (inst.imm as u32 & 0x3FFF)
        }
        Format::Branch => {
            if inst.imm < limits::BDISP_MIN || inst.imm > limits::BDISP_MAX {
                return Err(EncodeError::BranchRange(inst.imm));
            }
            op | ra | (inst.imm as u32 & 0x7FFFF)
        }
        Format::Jump => {
            let rb = match inst.rb {
                Operand::Reg(r) => (r as u32 & 31) << 14,
                Operand::Lit(_) => unreachable!("jump format has register target"),
            };
            op | ra | rb
        }
        Format::Special => match inst.op {
            Op::Ldiw => {
                let w = op | ra | (inst.rc as u32 & 31);
                return Ok((w, Some(inst.imm as u32)));
            }
            Op::EnterRegion | Op::EndSetup => {
                if inst.imm < 0 || inst.imm > 0x3FFF {
                    return Err(EncodeError::ImmRange(inst.imm));
                }
                op | ra | (inst.imm as u32 & 0x3FFF)
            }
            Op::Halt => op,
            _ => unreachable!(),
        },
    };
    Ok((word, None))
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub u32);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Decode one instruction word (`extra` supplies the second `Ldiw` word).
///
/// # Errors
/// Fails on an unknown opcode byte.
pub fn decode(word: u32, extra: Option<u32>) -> Result<Inst, DecodeError> {
    let op = Op::from_u8((word >> 24) as u8).ok_or(DecodeError(word))?;
    let ra = ((word >> 19) & 31) as Reg;
    Ok(match op.format() {
        Format::Operate => {
            let fmt = (word >> 10) & 1;
            let rb = if fmt == 1 {
                Operand::Lit(((word >> 11) & 0xFF) as u8)
            } else {
                Operand::Reg(((word >> 14) & 31) as Reg)
            };
            Inst {
                op,
                ra,
                rb,
                rc: (word & 31) as Reg,
                imm: 0,
            }
        }
        Format::Memory => {
            let rb = ((word >> 14) & 31) as Reg;
            let disp = ((word & 0x3FFF) as i32) << 18 >> 18; // sign-extend 14 bits
            Inst {
                op,
                ra,
                rb: Operand::Reg(rb),
                rc: 0,
                imm: disp,
            }
        }
        Format::Branch => {
            let disp = ((word & 0x7FFFF) as i32) << 13 >> 13; // sign-extend 19 bits
            Inst {
                op,
                ra,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: disp,
            }
        }
        Format::Jump => {
            let rb = ((word >> 14) & 31) as Reg;
            Inst {
                op,
                ra,
                rb: Operand::Reg(rb),
                rc: 0,
                imm: 0,
            }
        }
        Format::Special => match op {
            Op::Ldiw => Inst {
                op,
                ra,
                rb: Operand::Reg(ZERO),
                rc: (word & 31) as Reg,
                imm: extra.unwrap_or(0) as i32,
            },
            _ => {
                let imm = (word & 0x3FFF) as i32;
                Inst {
                    op,
                    ra,
                    rb: Operand::Reg(ZERO),
                    rc: 0,
                    imm,
                }
            }
        },
    })
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Inst {
            op,
            ra,
            rb,
            rc,
            imm,
        } = self;
        match op.format() {
            Format::Operate => write!(f, "{op:?} r{ra}, {rb} -> r{rc}"),
            Format::Memory => write!(f, "{op:?} r{ra}, {imm}({rb})"),
            Format::Branch => write!(f, "{op:?} r{ra}, {imm:+}"),
            Format::Jump => write!(f, "{op:?} r{ra}, ({rb})"),
            Format::Special => match op {
                Op::Ldiw => write!(f, "Ldiw r{rc}, #{imm}"),
                _ => write!(f, "{op:?} #{imm}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Inst) {
        let (w, extra) = encode(&i).unwrap();
        let d = decode(w, extra).unwrap();
        assert_eq!(d, i, "roundtrip of {i}");
    }

    #[test]
    fn operate_register_roundtrip() {
        roundtrip(Inst::op3(Op::Addq, 1, Operand::Reg(2), 3));
        roundtrip(Inst::op3(Op::Mulq, 31, Operand::Reg(30), 0));
        roundtrip(Inst::op3(Op::Cmpule, 15, Operand::Reg(16), 17));
    }

    #[test]
    fn operate_literal_roundtrip() {
        roundtrip(Inst::op3(Op::Addq, 1, Operand::Lit(0), 3));
        roundtrip(Inst::op3(Op::Subq, 1, Operand::Lit(255), 3));
        roundtrip(Inst::op3(Op::Sll, 9, Operand::Lit(63), 9));
    }

    #[test]
    fn memory_roundtrip_with_negative_disp() {
        roundtrip(Inst::mem(Op::Ldq, 5, 30, -8));
        roundtrip(Inst::mem(Op::Stq, 5, 30, 8184));
        roundtrip(Inst::mem(Op::Lda, 7, 31, -8192));
        roundtrip(Inst::mem(Op::Ldt, 2, 27, 16));
    }

    #[test]
    fn branch_roundtrip() {
        roundtrip(Inst::branch(Op::Beq, 4, -100));
        roundtrip(Inst::branch(Op::Br, 31, 1000));
        roundtrip(Inst::branch(Op::Bsr, 26, limits::BDISP_MAX));
        roundtrip(Inst::branch(Op::Bge, 0, limits::BDISP_MIN));
    }

    #[test]
    fn jump_and_specials_roundtrip() {
        roundtrip(Inst::jump(Op::Jsr, 26, 25));
        roundtrip(Inst::jump(Op::Jmp, 31, 26));
        roundtrip(Inst::ldiw(7, -123456));
        roundtrip(Inst::ldiw(7, i32::MAX));
        roundtrip(Inst {
            op: Op::EnterRegion,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 42,
        });
        roundtrip(Inst {
            op: Op::Halt,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 0,
        });
    }

    #[test]
    fn out_of_range_displacements_error() {
        assert!(matches!(
            encode(&Inst::mem(Op::Ldq, 0, 0, i16::MAX)),
            Err(EncodeError::DispRange(_))
        ));
        assert!(matches!(
            encode(&Inst::branch(Op::Br, 31, limits::BDISP_MAX + 1)),
            Err(EncodeError::BranchRange(_))
        ));
    }

    #[test]
    fn unknown_opcode_fails_decode() {
        assert!(decode(0xFF00_0000, None).is_err());
        assert!(decode((Op::COUNT as u32) << 24, None).is_err());
    }

    #[test]
    fn ldiw_is_wide() {
        assert!(Inst::ldiw(0, 0).is_wide());
        assert!(!Inst::op3(Op::Addq, 0, Operand::Lit(0), 0).is_wide());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dyncomp_ir::prng::SplitMix64;

    /// A random well-formed instruction (the shapes `encode` accepts).
    fn random_inst(rng: &mut SplitMix64) -> Inst {
        loop {
            let op = match Op::from_u8(rng.below(u64::from(Op::COUNT)) as u8) {
                Some(op) => op,
                None => continue,
            };
            let ra = rng.below(32) as u8;
            let rb = rng.below(32) as u8;
            let rc = rng.below(32) as u8;
            match op.format() {
                Format::Operate => {
                    let operand = if rng.chance(1, 2) {
                        Operand::Reg(rb)
                    } else {
                        Operand::Lit(rng.below(256) as u8)
                    };
                    return Inst::op3(op, ra, operand, rc);
                }
                Format::Memory => {
                    let disp = rng
                        .range_i64(i64::from(limits::DISP_MIN), i64::from(limits::DISP_MAX) + 1)
                        as i16;
                    return Inst::mem(op, ra, rb, disp);
                }
                Format::Branch => {
                    let disp = rng.range_i64(
                        i64::from(limits::BDISP_MIN),
                        i64::from(limits::BDISP_MAX) + 1,
                    ) as i32;
                    return Inst::branch(op, ra, disp);
                }
                _ => {
                    if op == Op::Ldiw {
                        return Inst::ldiw(rc, rng.next_u64() as i32);
                    }
                    continue;
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = SplitMix64::new(0x15a5_0001);
        for _ in 0..4000 {
            let inst = random_inst(&mut rng);
            let (w, extra) = encode(&inst).expect("in-range fields encode");
            let back = decode(w, extra).expect("encoded words decode");
            assert_eq!(back, inst);
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = SplitMix64::new(0x15a5_0002);
        for _ in 0..40_000 {
            let word = rng.next_u64() as u32;
            let extra = rng.next_u64() as u32;
            let _ = decode(word, Some(extra));
            let _ = decode(word, None);
        }
    }
}
