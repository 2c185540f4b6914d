//! Instructions and terminators of the three-address code.
//!
//! Instructions double as SSA value names: an instruction that produces a
//! value *is* that value, named by its [`InstId`]. Before SSA construction,
//! source variables are accessed through [`InstKind::GetVar`] /
//! [`InstKind::SetVar`]; SSA construction eliminates both in favour of
//! direct value flow and φ-instructions.
//!
//! The specializer (crate `dyncomp-specialize`) introduces the template
//! pseudo-instructions of §3.2 of the paper: [`InstKind::Hole`] (a run-time
//! constant operand to be patched by the stitcher), the constant-branch
//! terminators, and marker blocks for unrolled loops.

use crate::ids::{BlockId, FuncId, GlobalId, InstId, RegionId, VarId};
use crate::ops::{BinOp, Const, MemSize, Signedness, UnOp};
use std::fmt;

/// The value kind an instruction produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A 64-bit integer (also used for pointers and booleans).
    Int,
    /// An IEEE-754 double.
    Float,
    /// No value (stores, markers, …).
    None,
}

/// A path into the run-time constants table (§3.2, §4).
///
/// The table is a statically sized array of 64-bit slots; slots that root an
/// unrolled loop hold a pointer to a chain of per-iteration records, each of
/// which ends in a `next` pointer. A path `[s]` names static slot `s`;
/// `[s, j]` names slot `j` of the *current* record of the loop chain rooted
/// at static slot `s`; `[s, j, k]` names slot `k` of the current record of
/// an inner loop whose chain is rooted at slot `j` of the outer record, and
/// so on. The paper writes these as `2` or `4:1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SlotPath(pub Vec<u32>);

crate::codec! { struct SlotPath { 0: Vec<u32> } }

impl SlotPath {
    /// A path to static slot `s`.
    pub fn stat(s: u32) -> Self {
        SlotPath(vec![s])
    }

    /// Extend the path by a per-iteration record slot.
    pub fn child(&self, slot: u32) -> Self {
        let mut v = self.0.clone();
        v.push(slot);
        SlotPath(v)
    }

    /// Whether the path names a static (non-loop) slot.
    pub fn is_static(&self) -> bool {
        self.0.len() == 1
    }

    /// Loop nesting depth (0 for static slots).
    pub fn depth(&self) -> usize {
        self.0.len() - 1
    }

    /// The final slot index within its record (or the static array).
    pub fn leaf(&self) -> u32 {
        *self.0.last().expect("slot path never empty")
    }
}

impl fmt::Display for SlotPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.0 {
            if !first {
                write!(f, ":")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

/// Intrinsic functions known to the compiler.
///
/// §3.1 allows calls to "idempotent, side-effect-free, non-trapping"
/// functions to produce run-time constants; the pure intrinsics below
/// qualify. `Alloc` is the bump allocator used by generated set-up code and
/// by programs; it is *not* idempotent (like `malloc` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Bump-allocate `n` bytes in the VM heap; returns the address.
    Alloc,
    /// Integer maximum (pure).
    Max,
    /// Integer minimum (pure).
    Min,
    /// Integer absolute value (pure; wrapping at `i64::MIN`).
    Abs,
    /// Float square root (pure).
    Sqrt,
    /// Tier probe (compiler-internal, not user-callable): emitted before a
    /// dynamic region when the program is lowered with a tiered fallback
    /// copy. Its single argument is the function-local region index (a
    /// compile-time constant); its result selects between the specialized
    /// entry (non-zero) and the static fallback copy (zero). It is opaque
    /// to every optimization — never specializable, never folded — so the
    /// fallback copy survives to code generation, where the probe is
    /// materialized as the constant 1 and the run-time engine redirects
    /// control at the `EnterRegion` trap instead.
    TierProbe,
}

impl Intrinsic {
    /// Whether a call's result may be a run-time constant when its
    /// arguments are (§3.1's idempotent/side-effect-free/non-trapping test).
    pub fn is_specializable(self) -> bool {
        !matches!(self, Intrinsic::Alloc | Intrinsic::TierProbe)
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Alloc | Intrinsic::Abs | Intrinsic::Sqrt | Intrinsic::TierProbe => 1,
            Intrinsic::Max | Intrinsic::Min => 2,
        }
    }

    /// Result kind.
    pub fn result_ty(self) -> Ty {
        match self {
            Intrinsic::Sqrt => Ty::Float,
            _ => Ty::Int,
        }
    }

    /// Evaluate a pure intrinsic on constants. `None` for `Alloc` or on
    /// operand-kind mismatch.
    pub fn eval(self, args: &[Const]) -> Option<Const> {
        match self {
            Intrinsic::Alloc | Intrinsic::TierProbe => None,
            Intrinsic::Max => Some(Const::Int(args[0].as_int()?.max(args[1].as_int()?))),
            Intrinsic::Min => Some(Const::Int(args[0].as_int()?.min(args[1].as_int()?))),
            Intrinsic::Abs => Some(Const::Int(args[0].as_int()?.wrapping_abs())),
            Intrinsic::Sqrt => Some(Const::Float(args[0].as_float()?.sqrt())),
        }
    }

    /// The intrinsic's name in printed IR and in MiniC source.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Alloc => "alloc",
            Intrinsic::Max => "max",
            Intrinsic::Min => "min",
            Intrinsic::Abs => "abs",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::TierProbe => "tier_probe",
        }
    }
}

/// A single three-address instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum InstKind {
    /// Materialize a compile-time constant.
    Const(Const),
    /// Copy a value.
    Copy(InstId),
    /// Unary operation.
    Un(UnOp, InstId),
    /// Binary operation.
    Bin(BinOp, InstId, InstId),
    /// Memory load. `dynamic` marks the paper's `dynamic*` annotation: the
    /// loaded value is never a run-time constant even if `addr` is.
    Load {
        /// Access width.
        size: MemSize,
        /// Extension of narrow loads.
        sign: Signedness,
        /// Address operand.
        addr: InstId,
        /// `dynamic*` annotation (§2).
        dynamic: bool,
        /// Whether the loaded value is a float (requires `size == B8`).
        float: bool,
    },
    /// Memory store.
    Store {
        /// Access width.
        size: MemSize,
        /// Address operand.
        addr: InstId,
        /// Value operand.
        val: InstId,
        /// Whether the stored value is a float.
        float: bool,
    },
    /// Call to another function in the module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument values.
        args: Vec<InstId>,
    },
    /// Call to a compiler-known intrinsic.
    CallIntrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Argument values.
        args: Vec<InstId>,
    },
    /// SSA φ-instruction; one operand per predecessor block.
    Phi(Vec<(BlockId, InstId)>),
    /// Read a source variable (pre-SSA only).
    GetVar(VarId),
    /// Write a source variable (pre-SSA only).
    SetVar(VarId, InstId),
    /// The `n`th incoming function parameter (entry block only).
    Param(u32),
    /// Address of a module global.
    GlobalAddr(GlobalId),
    /// Address of a stack-allocated (frame) variable.
    FrameAddr(VarId),
    /// Template pseudo-instruction (§3.2): a hole to be patched with the
    /// run-time constant stored at `slot`. Produces that constant's value.
    Hole {
        /// Where the stitcher finds the value in the constants table.
        slot: SlotPath,
        /// Whether the patched value is a float (always via the linearized
        /// table, never an immediate).
        float: bool,
    },
    /// `cond != 0 ? if_true : if_false`, evaluated without control flow.
    /// Used by generated set-up code to select φ-values at constant merges
    /// from mutually exclusive arc conditions (§3.2).
    Select {
        /// The (integer, truthy) condition.
        cond: InstId,
        /// Value when non-zero.
        if_true: InstId,
        /// Value when zero.
        if_false: InstId,
    },
}

/// The value operands of an instruction or terminator, in order, walked
/// without allocating: up to three held inline, or a borrowed argument or
/// φ list.
#[derive(Clone, Debug)]
pub struct Operands<'a>(OperandsRepr<'a>);

#[derive(Clone, Debug)]
enum OperandsRepr<'a> {
    Inline {
        vals: [InstId; 3],
        next: u8,
        len: u8,
    },
    Args(std::slice::Iter<'a, InstId>),
    Phi(std::slice::Iter<'a, (BlockId, InstId)>),
}

impl Operands<'_> {
    #[inline]
    fn inline(ops: &[InstId]) -> Self {
        let mut vals = [InstId(0); 3];
        vals[..ops.len()].copy_from_slice(ops);
        Operands(OperandsRepr::Inline {
            vals,
            next: 0,
            len: ops.len() as u8,
        })
    }
}

impl Iterator for Operands<'_> {
    type Item = InstId;

    #[inline]
    fn next(&mut self) -> Option<InstId> {
        match &mut self.0 {
            OperandsRepr::Inline { vals, next, len } => {
                if next == len {
                    return None;
                }
                *next += 1;
                Some(vals[usize::from(*next) - 1])
            }
            OperandsRepr::Args(it) => it.next().copied(),
            OperandsRepr::Phi(it) => it.next().map(|&(_, v)| v),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            OperandsRepr::Inline { next, len, .. } => usize::from(len - next),
            OperandsRepr::Args(it) => it.len(),
            OperandsRepr::Phi(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Operands<'_> {}

impl InstKind {
    /// Operand values of the instruction (not including block refs of φ).
    #[inline]
    pub fn operands(&self) -> Operands<'_> {
        match self {
            InstKind::Const(_)
            | InstKind::GetVar(_)
            | InstKind::Param(_)
            | InstKind::GlobalAddr(_)
            | InstKind::FrameAddr(_)
            | InstKind::Hole { .. } => Operands::inline(&[]),
            InstKind::Copy(a) | InstKind::Un(_, a) | InstKind::SetVar(_, a) => {
                Operands::inline(&[*a])
            }
            InstKind::Bin(_, a, b) => Operands::inline(&[*a, *b]),
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => Operands::inline(&[*cond, *if_true, *if_false]),
            InstKind::Load { addr, .. } => Operands::inline(&[*addr]),
            InstKind::Store { addr, val, .. } => Operands::inline(&[*addr, *val]),
            InstKind::Call { args, .. } | InstKind::CallIntrinsic { args, .. } => {
                Operands(OperandsRepr::Args(args.iter()))
            }
            InstKind::Phi(ins) => Operands(OperandsRepr::Phi(ins.iter())),
        }
    }

    /// Replace every operand `v` by `f(v)`.
    pub fn map_operands(&mut self, mut f: impl FnMut(InstId) -> InstId) {
        match self {
            InstKind::Const(_)
            | InstKind::GetVar(_)
            | InstKind::Param(_)
            | InstKind::GlobalAddr(_)
            | InstKind::FrameAddr(_)
            | InstKind::Hole { .. } => {}
            InstKind::Copy(a) | InstKind::Un(_, a) | InstKind::SetVar(_, a) => *a = f(*a),
            InstKind::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                *cond = f(*cond);
                *if_true = f(*if_true);
                *if_false = f(*if_false);
            }
            InstKind::Load { addr, .. } => *addr = f(*addr),
            InstKind::Store { addr, val, .. } => {
                *addr = f(*addr);
                *val = f(*val);
            }
            InstKind::Call { args, .. } | InstKind::CallIntrinsic { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            InstKind::Phi(ins) => {
                for (_, v) in ins {
                    *v = f(*v);
                }
            }
        }
    }

    /// Whether the instruction produces a value.
    #[inline]
    pub fn has_result(&self) -> bool {
        !matches!(self, InstKind::Store { .. } | InstKind::SetVar(..))
    }

    /// Whether the instruction has a side effect (and so must not be
    /// removed by dead-code elimination even if its result is unused).
    pub fn has_side_effect(&self) -> bool {
        match self {
            InstKind::Store { .. } | InstKind::Call { .. } | InstKind::SetVar(..) => true,
            InstKind::CallIntrinsic { which, .. } => !which.is_specializable(),
            _ => false,
        }
    }

    /// Whether re-executing the instruction yields the same result and no
    /// side effect — the paper's test for run-time-constant candidacy.
    /// Loads are handled separately (constant iff the address is constant
    /// and the load is not annotated `dynamic`).
    ///
    /// `FrameAddr` is *not* specializable: a run-time constant must stay
    /// fixed across all future executions of the region, but a frame
    /// address changes with the stack pointer on every call. `Param` is
    /// likewise non-constant unless the programmer annotates it.
    pub fn is_specializable_op(&self) -> bool {
        match self {
            InstKind::Const(_)
            | InstKind::Copy(_)
            | InstKind::GlobalAddr(_)
            | InstKind::Hole { .. } => true,
            InstKind::Select { .. } => true,
            InstKind::Un(op, _) => op.is_specializable(),
            InstKind::Bin(op, ..) => op.is_specializable(),
            InstKind::CallIntrinsic { which, .. } => which.is_specializable(),
            _ => false,
        }
    }
}

/// Block terminator.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a (truthy) condition value.
    Branch {
        /// Condition value.
        cond: InstId,
        /// Successor when the condition is non-zero.
        then_b: BlockId,
        /// Successor when the condition is zero.
        else_b: BlockId,
    },
    /// N-way switch on an integer value, with fall-back default.
    Switch {
        /// Scrutinee value.
        val: InstId,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// Function return.
    Return(Option<InstId>),
    /// Template pseudo-terminator (§3.2/§4): a branch whose predicate is a
    /// run-time constant stored at `slot`. Emits no code; the stitcher reads
    /// the predicate and follows exactly one successor, performing dead-code
    /// elimination of the other.
    ConstBranch {
        /// Table location of the predicate value.
        slot: SlotPath,
        /// Successor when the stored predicate is non-zero.
        then_b: BlockId,
        /// Successor when zero.
        else_b: BlockId,
    },
    /// Template pseudo-terminator: an n-way switch on a run-time constant.
    ConstSwitch {
        /// Table location of the scrutinee value.
        slot: SlotPath,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// Transfer to the dynamic-compilation runtime at a dynamic region's
    /// entry (replaces the region body in the residual function). The single
    /// successor is the region's set-up code; at run time, control proceeds
    /// to the set-up code on first execution and to stitched code afterward.
    EnterRegion {
        /// Which region.
        region: RegionId,
        /// The set-up subgraph's entry block.
        setup: BlockId,
    },
    /// End of a region's set-up code: hand the filled constants table to the
    /// stitcher. The single successor is the template subgraph's entry
    /// (control proceeds to the freshly stitched copy of it at run time).
    EndSetup {
        /// Which region.
        region: RegionId,
        /// The constants-table base address value.
        table: InstId,
        /// The template subgraph's entry block.
        template: BlockId,
    },
    /// No successors and never executed (placeholder during construction).
    Unreachable,
}

/// The successor blocks of a [`Terminator`], in order, without
/// allocating: up to two targets held inline, or a switch's case slice
/// borrowed and then its default.
#[derive(Clone, Debug)]
pub struct Successors<'a> {
    cases: std::slice::Iter<'a, (i64, BlockId)>,
    tail: [BlockId; 2],
    next: u8,
    len: u8,
}

impl<'a> Successors<'a> {
    #[inline]
    fn new(cases: &'a [(i64, BlockId)], tail: &[BlockId]) -> Self {
        let mut t = [BlockId(0); 2];
        t[..tail.len()].copy_from_slice(tail);
        Successors {
            cases: cases.iter(),
            tail: t,
            next: 0,
            len: tail.len() as u8,
        }
    }

    /// Whether `b` is among the remaining successors.
    pub fn contains(&self, b: BlockId) -> bool {
        self.clone().any(|s| s == b)
    }
}

impl Iterator for Successors<'_> {
    type Item = BlockId;

    #[inline]
    fn next(&mut self) -> Option<BlockId> {
        if let Some(&(_, b)) = self.cases.next() {
            return Some(b);
        }
        if self.next == self.len {
            return None;
        }
        self.next += 1;
        Some(self.tail[usize::from(self.next) - 1])
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cases.len() + usize::from(self.len - self.next);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Successors<'_> {}

impl Terminator {
    /// Successor blocks, in order.
    #[inline]
    pub fn successors(&self) -> Successors<'_> {
        match self {
            Terminator::Jump(b)
            | Terminator::EnterRegion { setup: b, .. }
            | Terminator::EndSetup { template: b, .. } => Successors::new(&[], &[*b]),
            Terminator::Branch { then_b, else_b, .. }
            | Terminator::ConstBranch { then_b, else_b, .. } => {
                Successors::new(&[], &[*then_b, *else_b])
            }
            Terminator::Switch { cases, default, .. }
            | Terminator::ConstSwitch { cases, default, .. } => Successors::new(cases, &[*default]),
            Terminator::Return(_) | Terminator::Unreachable => Successors::new(&[], &[]),
        }
    }

    /// Call `visit` on each successor block, in order, without allocating.
    pub fn for_each_successor(&self, mut visit: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b)
            | Terminator::EnterRegion { setup: b, .. }
            | Terminator::EndSetup { template: b, .. } => visit(*b),
            Terminator::Branch { then_b, else_b, .. }
            | Terminator::ConstBranch { then_b, else_b, .. } => {
                visit(*then_b);
                visit(*else_b);
            }
            Terminator::Switch { cases, default, .. }
            | Terminator::ConstSwitch { cases, default, .. } => {
                for (_, b) in cases {
                    visit(*b);
                }
                visit(*default);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }

    /// Replace every successor `b` with `f(b)`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch { then_b, else_b, .. }
            | Terminator::ConstBranch { then_b, else_b, .. } => {
                *then_b = f(*then_b);
                *else_b = f(*else_b);
            }
            Terminator::Switch { cases, default, .. }
            | Terminator::ConstSwitch { cases, default, .. } => {
                for (_, b) in cases {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
            Terminator::EnterRegion { setup, .. } => *setup = f(*setup),
            Terminator::EndSetup { template, .. } => *template = f(*template),
        }
    }

    /// Value operands of the terminator.
    #[inline]
    pub fn operands(&self) -> Operands<'_> {
        match self {
            Terminator::Branch { cond: v, .. }
            | Terminator::Switch { val: v, .. }
            | Terminator::Return(Some(v))
            | Terminator::EndSetup { table: v, .. } => Operands::inline(&[*v]),
            _ => Operands::inline(&[]),
        }
    }

    /// Replace every value operand `v` with `f(v)`.
    pub fn map_operands(&mut self, mut f: impl FnMut(InstId) -> InstId) {
        match self {
            Terminator::Branch { cond, .. } => *cond = f(*cond),
            Terminator::Switch { val, .. } => *val = f(*val),
            Terminator::Return(Some(v)) => *v = f(*v),
            Terminator::EndSetup { table, .. } => *table = f(*table),
            _ => {}
        }
    }
}

/// Marker attached to blocks the specializer inserts on unrolled-loop arcs
/// (the paper's "marker pseudo-instructions" of §3.2, which become the
/// `ENTER_LOOP` / `RESTART_LOOP` / `EXIT_LOOP` directives of Table 1).
#[derive(Clone, Debug, PartialEq)]
pub enum TemplateMarker {
    /// Entry arc of an unrolled loop: begin reading per-iteration records
    /// from the chain rooted at `root`.
    EnterLoop {
        /// Table path of the chain-head slot.
        root: SlotPath,
    },
    /// Back-edge arc: advance to the next per-iteration record, found at
    /// slot `next_slot` of the current record.
    RestartLoop {
        /// Slot index of the `next` pointer within the record.
        next_slot: u32,
    },
    /// Exit arc: stop unrolling the innermost active loop.
    ExitLoop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_path_display_matches_paper_syntax() {
        assert_eq!(SlotPath::stat(2).to_string(), "2");
        assert_eq!(SlotPath::stat(4).child(1).to_string(), "4:1");
        assert!(SlotPath::stat(4).is_static());
        assert!(!SlotPath::stat(4).child(1).is_static());
        assert_eq!(SlotPath::stat(4).child(1).leaf(), 1);
        assert_eq!(SlotPath::stat(4).child(1).depth(), 1);
    }

    #[test]
    fn operands_roundtrip_through_map() {
        let mut k = InstKind::Bin(BinOp::Add, InstId(1), InstId(2));
        k.map_operands(|v| InstId(v.0 + 10));
        assert_eq!(k.operands().collect::<Vec<_>>(), [InstId(11), InstId(12)]);
        assert_eq!(k.operands().len(), 2);
        let t = Terminator::Return(Some(InstId(4)));
        assert_eq!(t.operands().collect::<Vec<_>>(), [InstId(4)]);
        assert_eq!(Terminator::Return(None).operands().count(), 0);
    }

    #[test]
    fn phi_operands() {
        let k = InstKind::Phi(vec![(BlockId(0), InstId(1)), (BlockId(1), InstId(2))]);
        assert_eq!(k.operands().collect::<Vec<_>>(), [InstId(1), InstId(2)]);
        assert!(k.has_result());
        assert!(!k.has_side_effect());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Switch {
            val: InstId(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2), BlockId(3)]
        );
        let t = Terminator::Return(None);
        assert_eq!(t.successors().len(), 0);
    }

    /// Every terminator kind: `successors()` yields what
    /// `for_each_successor` visits, in the same order and with the same
    /// duplicates, and `len`/`contains` agree with it.
    #[test]
    fn successors_agree_with_for_each_successor() {
        let (b0, b1, b2, b3) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        let terms = [
            Terminator::Jump(b2),
            Terminator::Branch {
                cond: InstId(0),
                then_b: b1,
                else_b: b2,
            },
            Terminator::Branch {
                cond: InstId(0),
                then_b: b3,
                else_b: b3,
            },
            Terminator::Switch {
                val: InstId(0),
                cases: vec![(1, b1), (2, b3), (3, b1)],
                default: b3,
            },
            Terminator::Switch {
                val: InstId(0),
                cases: vec![],
                default: b2,
            },
            Terminator::Return(Some(InstId(1))),
            Terminator::Return(None),
            Terminator::ConstBranch {
                slot: SlotPath::stat(0),
                then_b: b2,
                else_b: b1,
            },
            Terminator::ConstSwitch {
                slot: SlotPath::stat(1),
                cases: vec![(7, b2), (8, b2), (9, b1)],
                default: b2,
            },
            Terminator::EnterRegion {
                region: RegionId(0),
                setup: b1,
            },
            Terminator::EndSetup {
                region: RegionId(0),
                table: InstId(2),
                template: b3,
            },
            Terminator::Unreachable,
        ];
        for t in &terms {
            let mut want = Vec::new();
            t.for_each_successor(|b| want.push(b));
            let mut it = t.successors();
            assert_eq!(it.len(), want.len(), "{t:?}");
            assert_eq!(it.clone().collect::<Vec<_>>(), want, "{t:?}");
            for b in [b0, b1, b2, b3] {
                assert_eq!(it.contains(b), want.contains(&b), "{t:?} {b}");
            }
            // Part-way through, the rest agrees too.
            if it.next().is_some() {
                assert_eq!(it.len(), want.len() - 1, "{t:?}");
                assert_eq!(it.collect::<Vec<_>>(), want[1..], "{t:?}");
            }
        }
        assert_eq!(Terminator::Return(None).successors().next(), None);
        assert_eq!(Terminator::Unreachable.successors().len(), 0);
    }

    #[test]
    fn intrinsic_specializability_matches_paper() {
        // §3.1: "malloc is excluded, since it is not idempotent"; max is in.
        assert!(!Intrinsic::Alloc.is_specializable());
        assert!(Intrinsic::Max.is_specializable());
        assert_eq!(
            Intrinsic::Max.eval(&[Const::Int(3), Const::Int(7)]),
            Some(Const::Int(7))
        );
        assert_eq!(Intrinsic::Alloc.eval(&[Const::Int(8)]), None);
    }

    #[test]
    fn store_has_side_effect_and_no_result() {
        let k = InstKind::Store {
            size: MemSize::B8,
            addr: InstId(0),
            val: InstId(1),
            float: false,
        };
        assert!(k.has_side_effect());
        assert!(!k.has_result());
    }
}
