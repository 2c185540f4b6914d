//! # dyncomp-machine
//!
//! **SimAlpha**: the simulated compilation target of the `dyncomp`
//! reproduction of *"Fast, Effective Dynamic Compilation"* (PLDI 1996).
//!
//! The paper's experiments ran on a DEC Alpha 21064 and measured with its
//! hardware cycle counter; this crate substitutes a deterministic,
//! cycle-accounted interpreter for an Alpha-like 64-bit RISC:
//!
//! * [`isa`] — the instruction set: 32-bit words, 32 integer + 32 float
//!   registers, and (crucially for the reproduction) **8-bit operate
//!   literals**, so that integer template holes only patch inline when the
//!   run-time constant is small, exercising the paper's
//!   too-large-constant fallbacks;
//! * [`asm`] — a two-pass label assembler;
//! * [`vm`] — the interpreter with a 21064-flavoured [`vm::CycleModel`] and
//!   the two dynamic-compilation traps (`EnterRegion`, `EndSetup`);
//! * [`template`] — the machine-code template and stitcher-directive data
//!   model of the paper's Table 1, shared between the static compiler
//!   (`dyncomp-codegen`) and the run-time stitcher (`dyncomp-stitcher`);
//! * [`verify`] — install-time verification of patched code: every word
//!   of a stitched instance is decoded and range-checked before it may
//!   join the code space;
//! * [`codec`] — the template data model's wire forms, one declaration
//!   per type over [`dyncomp_ir::codec`]'s deterministic, bounds-checked
//!   reader and writer, used by the persistent on-disk artifact cache
//!   (loads are untrusted input: every read is typed-error checked);
//! * [`heap`] — host-side helpers for building C-like data structures in
//!   VM memory;
//! * [`disasm`] — a disassembler for inspection and debugging.
//!
//! ## Example
//!
//! ```
//! use dyncomp_machine::isa::{Inst, Op, Operand, ZERO};
//! use dyncomp_machine::asm::Assembler;
//! use dyncomp_machine::vm::{Stop, Vm};
//!
//! // r0 = 6 * 7, then halt.
//! let mut a = Assembler::new();
//! a.push(Inst::op3(Op::Addq, ZERO, Operand::Lit(6), 1));
//! a.push(Inst::op3(Op::Mulq, 1, Operand::Lit(7), 0));
//! a.push(Inst { op: Op::Halt, ra: 0, rb: Operand::Reg(ZERO), rc: 0, imm: 0 });
//! let out = a.assemble()?;
//!
//! let mut vm = Vm::new(1 << 16);
//! let entry = vm.append_code(&out.words);
//! vm.pc = entry;
//! assert_eq!(vm.run()?, Stop::Halted);
//! assert_eq!(vm.reg(0), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod codec;
pub mod disasm;
pub mod heap;
pub mod isa;
pub mod template;
pub mod verify;
pub mod vm;

pub use asm::{Assembled, Assembler, Label};
pub use heap::HeapBuilder;
pub use isa::{Inst, Op, Operand, Reg};
pub use template::{RegionCode, Template};
pub use verify::{verify_code, CodeVerifyError};
pub use vm::{CycleModel, Stop, Vm, VmError};
