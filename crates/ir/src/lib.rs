//! # dyncomp-ir
//!
//! Three-address-code IR over explicit control-flow graphs, with SSA, for
//! the `dyncomp` dynamic compilation system — a reproduction of
//! *Auslander, Philipose, Chambers, Eggers & Bershad, "Fast, Effective
//! Dynamic Compilation", PLDI 1996*.
//!
//! The paper deliberately works at "the lower but more general level of
//! control flow graphs connecting three-address code" rather than syntax
//! trees (§3), so that unstructured C control flow (`switch` fall-through,
//! `goto`, multi-level exits) is handled uniformly. This crate provides
//! that substrate:
//!
//! * [`Function`] / [`Module`] — CFGs of [`Block`]s over a pool of
//!   [`InstKind`] instructions; instructions double as SSA value names.
//! * [`ssa::construct_ssa`] / [`out_of_ssa::destruct_ssa`] — conversion in
//!   and out of SSA form (the analyses assume SSA, per the paper).
//! * [`dom`] / [`loops`] / [`mod@cfg`] — dominators, natural loops,
//!   reducibility checking and CFG utilities.
//! * [`eval::Evaluator`] — a reference interpreter that also executes
//!   *specialized* IR (set-up code, constants-table holes, constant
//!   branches, unrolled-loop markers), defining the semantics the
//!   run-time stitcher must reproduce.
//! * [`eval::Memory`] — the flat data memory shared with the simulated
//!   machine, backed by [`zeroed::ZeroedBytes`] so a session pays for the
//!   pages it touches, not for its address space.
//! * [`codec`] — the one-wire-form-per-type trait, reader and writer
//!   the persistent cache serializes through, here so that every crate
//!   owning a persisted type can declare its layout.
//! * Dynamic-region metadata ([`DynRegion`]) and the template
//!   pseudo-instructions of §3.2 ([`InstKind::Hole`],
//!   [`Terminator::ConstBranch`], [`TemplateMarker`]).
//!
//! ## Example
//!
//! ```
//! use dyncomp_ir::{Function, InstKind, Terminator, Ty, BinOp};
//!
//! // fn double_plus_one(x) { return x * 2 + 1 }
//! let mut f = Function::new("double_plus_one", vec![Ty::Int], Ty::Int);
//! let entry = f.entry;
//! let x = f.append(entry, InstKind::Param(0));
//! let two = f.const_int(entry, 2);
//! let one = f.const_int(entry, 1);
//! let d = f.bin(entry, BinOp::Mul, x, two);
//! let r = f.bin(entry, BinOp::Add, d, one);
//! f.blocks[entry].term = Terminator::Return(Some(r));
//!
//! dyncomp_ir::ssa::construct_ssa(&mut f);
//! dyncomp_ir::verify::verify(&f).unwrap();
//!
//! let mut m = dyncomp_ir::Module::new();
//! let fid = m.funcs.push(f);
//! let mut ev = dyncomp_ir::eval::Evaluator::new(&m);
//! let out = ev.call(fid, &[20]).unwrap();
//! assert_eq!(out, dyncomp_ir::eval::EvalOutcome::Return(Some(41)));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cfg;
pub mod codec;
pub mod dom;
pub mod eval;
pub mod func;
pub mod fxhash;
pub mod ids;
pub mod inline;
pub mod inst;
pub mod loops;
pub mod ops;
pub mod out_of_ssa;
pub mod print;
pub mod prng;
pub mod ssa;
pub mod verify;
pub mod zeroed;

pub use func::{Block, DynRegion, Function, Global, InstData, Module, VarInfo};
pub use ids::{BlockId, FuncId, GlobalId, IdSet, IndexVec, InstId, RegionId, VarId};
pub use inline::{inline_call, InlineError, InlinedCall};
pub use inst::{InstKind, Intrinsic, Operands, SlotPath, TemplateMarker, Terminator, Ty};
pub use ops::{BinOp, Const, MemSize, Signedness, UnOp};
