//! Disassembly of SimAlpha code, for inspection tools and debugging.

use crate::isa::{walk, Format, Inst, Op, Operand};

/// One disassembled instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct DisasmLine {
    /// Word address of the instruction.
    pub addr: u32,
    /// The decoded instruction (`None` for undecodable words).
    pub inst: Option<Inst>,
    /// Rendered text.
    pub text: String,
}

/// Disassemble `words`, treating index 0 as address `base`.
///
/// `Ldiw` consumes two words; branch targets are annotated with their
/// absolute word address.
pub fn disassemble(words: &[u32], base: u32) -> Vec<DisasmLine> {
    walk(words)
        .map(|step| {
            let addr = base + step.at as u32;
            let text = match &step.inst {
                Ok(inst) => render(inst, addr),
                Err(e) => format!(".word {:#010x}", e.0),
            };
            DisasmLine {
                addr,
                inst: step.inst.ok(),
                text,
            }
        })
        .collect()
}

/// Render one instruction with target annotations.
pub fn render(inst: &Inst, addr: u32) -> String {
    match inst.op.format() {
        Format::Branch => {
            let len = 1; // branches are single-word
            let target = addr.wrapping_add(len).wrapping_add_signed(inst.imm);
            match inst.op {
                Op::Br | Op::Bsr => format!("{:?} r{}, -> {target}", inst.op, inst.ra),
                _ => format!("{:?} r{}, -> {target}", inst.op, inst.ra),
            }
        }
        Format::Memory => {
            let base = match inst.rb {
                Operand::Reg(r) => r,
                Operand::Lit(_) => unreachable!("memory base is a register"),
            };
            format!("{:?} r{}, {}(r{})", inst.op, inst.ra, inst.imm, base)
        }
        Format::Operate => format!("{:?} r{}, {} -> r{}", inst.op, inst.ra, inst.rb, inst.rc),
        Format::Jump => {
            let Operand::Reg(rb) = inst.rb else {
                unreachable!()
            };
            format!("{:?} r{}, (r{})", inst.op, inst.ra, rb)
        }
        Format::Special => match inst.op {
            Op::Ldiw => format!("Ldiw r{}, #{}", inst.rc, inst.imm),
            Op::EnterRegion => format!("EnterRegion #{}", inst.imm),
            Op::EndSetup => format!("EndSetup #{}", inst.imm),
            Op::Halt => "Halt".into(),
            _ => format!("{:?}", inst.op),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, ZERO};

    fn words(insts: &[Inst]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in insts {
            let (w, extra) = encode(i).unwrap();
            out.push(w);
            if let Some(x) = extra {
                out.push(x);
            }
        }
        out
    }

    #[test]
    fn renders_all_formats() {
        let code = words(&[
            Inst::op3(Op::Addq, 1, Operand::Lit(5), 2),
            Inst::mem(Op::Ldq, 3, 30, -8),
            Inst::branch(Op::Beq, 4, 2),
            Inst::jump(Op::Jmp, ZERO, 26),
            Inst::ldiw(7, 123456),
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        ]);
        let d = disassemble(&code, 100);
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].text, "Addq r1, #5 -> r2");
        assert_eq!(d[1].text, "Ldq r3, -8(r30)");
        assert_eq!(d[2].text, "Beq r4, -> 105", "target = 102+1+2");
        assert_eq!(d[3].text, "Jmp r31, (r26)");
        assert_eq!(d[4].text, "Ldiw r7, #123456");
        assert_eq!(d[4].addr, 104);
        assert_eq!(d[5].text, "Halt");
        assert_eq!(d[5].addr, 106, "Ldiw occupied two words");
    }

    #[test]
    fn bad_words_render_as_data() {
        let d = disassemble(&[0xFF00_0000], 0);
        assert_eq!(d[0].inst, None);
        assert!(d[0].text.starts_with(".word"));
    }
}
