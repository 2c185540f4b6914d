//! Install-time verification of stitched code.
//!
//! The stitcher and the relocation path (`Stitched::relocate`) both build
//! code by patching words — literal fields, memory displacements, branch
//! displacements, `Ldiw` payloads. A bug (or a corrupted artifact) in any
//! of those paths produces a word stream the VM would either refuse to
//! decode mid-run or, worse, execute with a branch into unrelated code.
//! [`verify_code`] is the last line of defense: it decodes **every** word
//! of an instance about to be installed and range-checks what can be
//! checked statically, so nothing undecodable or wild-branching ever
//! enters the code space. It is pure host-side work and charges no
//! simulated cycles.
//!
//! Checked per instance (to be installed at `base`):
//!
//! * every word decodes ([`crate::isa::decode`]), with `Ldiw` consuming
//!   its payload word — a trailing truncated `Ldiw` is rejected;
//! * branch targets (`base + pos + 1 + disp`) land inside
//!   `[0, base + len)`: either the existing code space (region exits) or
//!   the instance itself — never past the end of installed code;
//! * no dynamic-compilation trap (`EnterRegion` / `EndSetup`) appears:
//!   stitched instances are the *output* of servicing those traps and
//!   must never re-enter the runtime.
//!
//! Register-indirect jumps and memory operands cannot be validated
//! statically; the VM's own bounds checks cover them at execution time.

use crate::isa::{walk, DecodeError, Format, Op};
use std::fmt;

/// Why an instance failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeVerifyError {
    /// A word did not decode (unknown opcode byte).
    Undecodable {
        /// Word position within the instance.
        at: u32,
        /// The offending word.
        word: u32,
    },
    /// A wide instruction (`Ldiw`) started on the last word, so its
    /// payload word is missing.
    Truncated {
        /// Word position of the truncated instruction.
        at: u32,
    },
    /// A branch targets an address outside `[0, base + len)`.
    BranchOutOfRange {
        /// Word position of the branch within the instance.
        at: u32,
        /// The computed absolute target.
        target: i64,
        /// One past the last valid target (`base + len`).
        limit: u32,
    },
    /// A dynamic-compilation trap instruction appeared in stitched code.
    TrapInCode {
        /// Word position of the trap within the instance.
        at: u32,
        /// Which trap.
        op: Op,
    },
}

impl fmt::Display for CodeVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodeVerifyError::Undecodable { at, word } => {
                write!(f, "word {at} ({word:#010x}) does not decode")
            }
            CodeVerifyError::Truncated { at } => {
                write!(
                    f,
                    "wide instruction at word {at} is missing its payload word"
                )
            }
            CodeVerifyError::BranchOutOfRange { at, target, limit } => write!(
                f,
                "branch at word {at} targets {target}, outside [0, {limit})"
            ),
            CodeVerifyError::TrapInCode { at, op } => {
                write!(f, "trap instruction {op:?} at word {at} in stitched code")
            }
        }
    }
}

impl std::error::Error for CodeVerifyError {}

/// Verify an instance of `code.len()` words about to be installed at
/// word address `base`. See the module docs for the checks performed.
///
/// # Errors
/// The first failing word, most specific check first.
pub fn verify_code(code: &[u32], base: u32) -> Result<(), CodeVerifyError> {
    let limit = base + code.len() as u32;
    for step in walk(code) {
        let at = step.at as u32;
        let inst = step
            .inst
            .map_err(|DecodeError(word)| CodeVerifyError::Undecodable { at, word })?;
        match inst.op {
            Op::EnterRegion | Op::EndSetup => {
                return Err(CodeVerifyError::TrapInCode { at, op: inst.op });
            }
            _ => {}
        }
        if inst.op.format() == Format::Branch {
            let target = i64::from(base) + i64::from(at) + 1 + i64::from(inst.imm);
            if target < 0 || target >= i64::from(limit) {
                return Err(CodeVerifyError::BranchOutOfRange { at, target, limit });
            }
        }
        if step.end() > code.len() {
            return Err(CodeVerifyError::Truncated { at });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Inst, Op, Operand, ZERO};

    fn word(inst: &Inst) -> u32 {
        encode(inst).expect("encodes").0
    }

    #[test]
    fn accepts_straightline_code() {
        let code = vec![
            word(&Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 1)),
            word(&Inst::op3(Op::Mulq, 1, Operand::Lit(7), 0)),
        ];
        assert_eq!(verify_code(&code, 100), Ok(()));
    }

    #[test]
    fn rejects_undecodable_word() {
        let code = vec![0xFF00_0000];
        assert!(matches!(
            verify_code(&code, 0),
            Err(CodeVerifyError::Undecodable { at: 0, .. })
        ));
    }

    #[test]
    fn rejects_truncated_wide_instruction() {
        let (w, _) = encode(&Inst {
            op: Op::Ldiw,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 1,
            imm: 0x1234,
        })
        .expect("encodes");
        assert!(matches!(
            verify_code(&[w], 0),
            Err(CodeVerifyError::Truncated { at: 0 })
        ));
    }

    #[test]
    fn wide_payload_is_not_decoded_as_an_instruction() {
        // The Ldiw payload is an arbitrary 32-bit value; an opcode-shaped
        // garbage payload must not be rejected.
        let (w, extra) = encode(&Inst {
            op: Op::Ldiw,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 1,
            imm: -1,
        })
        .expect("encodes");
        assert_eq!(verify_code(&[w, extra.unwrap()], 0), Ok(()));
    }

    #[test]
    fn branch_targets_are_range_checked() {
        // Backward branch into existing code: fine.
        let back = word(&Inst::branch(Op::Br, ZERO, -50));
        assert_eq!(verify_code(&[back], 100), Ok(()));
        // Branch past the end of the instance: rejected.
        let fwd = word(&Inst::branch(Op::Br, ZERO, 10));
        assert!(matches!(
            verify_code(&[fwd], 100),
            Err(CodeVerifyError::BranchOutOfRange { at: 0, .. })
        ));
        // Branch before address 0: rejected.
        let neg = word(&Inst::branch(Op::Br, ZERO, -50));
        assert!(matches!(
            verify_code(&[neg], 10),
            Err(CodeVerifyError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_trap_instructions() {
        let trap = word(&Inst {
            op: Op::EnterRegion,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 3,
        });
        assert!(matches!(
            verify_code(&[trap], 0),
            Err(CodeVerifyError::TrapInCode { at: 0, .. })
        ));
    }
}
