//! Functions, basic blocks, modules, globals and dynamic-region metadata.

use crate::ids::{BlockId, FuncId, GlobalId, IdSet, IndexVec, InstId, RegionId, VarId};
use crate::inst::{InstKind, TemplateMarker, Terminator, Ty};
use crate::ops::{BinOp, Const, UnOp};

/// A single instruction together with its result kind.
#[derive(Clone, Debug, PartialEq)]
pub struct InstData {
    /// What the instruction does.
    pub kind: InstKind,
    /// The kind of value it produces ([`Ty::None`] for effects-only).
    pub ty: Ty,
}

/// A basic block: a straight-line instruction sequence plus a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Instructions, in execution order.
    pub insts: Vec<InstId>,
    /// The block's terminator.
    pub term: Terminator,
    /// Set on the header block of a loop the programmer annotated
    /// `unrolled` (§2). Makes the header a *constant merge* in the
    /// run-time-constants analysis (§3.1).
    pub unrolled_header: bool,
    /// Set by the specializer on marker blocks for unrolled-loop arcs.
    pub marker: Option<TemplateMarker>,
}

impl Block {
    /// An empty block ending in [`Terminator::Unreachable`].
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
            unrolled_header: false,
            marker: None,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// Information about a source-level variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    /// Source name, for diagnostics and printing.
    pub name: String,
    /// Value kind.
    pub ty: Ty,
    /// For frame-allocated variables (arrays, address-taken locals): the
    /// slot size in bytes. SSA construction leaves frame variables alone;
    /// they are accessed via [`InstKind::FrameAddr`].
    pub frame_size: Option<u64>,
}

/// A dynamic region (§2): a single-entry subgraph the programmer asked to
/// have compiled dynamically, plus its annotated run-time-constant roots.
#[derive(Clone, Debug, PartialEq)]
pub struct DynRegion {
    /// The region's entry block (the block holding the annotated code's
    /// first instruction). Before specialization this is the region body's
    /// first block; after specialization it is the block whose terminator is
    /// [`Terminator::EnterRegion`].
    pub entry: BlockId,
    /// Blocks belonging to the region body (before specialization).
    pub blocks: IdSet<BlockId>,
    /// Values annotated constant at region entry (`dynamicRegion(v1, …)`),
    /// including the key values.
    pub const_roots: Vec<InstId>,
    /// Values used to key the code cache (`key(…)`), a subset of
    /// `const_roots`; empty for unkeyed regions.
    pub key_roots: Vec<InstId>,
}

/// A function: CFG of basic blocks over a shared instruction pool.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter kinds (also gives the parameter count).
    pub params: Vec<Ty>,
    /// Result kind ([`Ty::None`] for void functions).
    pub ret_ty: Ty,
    /// Entry block.
    pub entry: BlockId,
    /// All blocks (some may be unreachable after transformation).
    pub blocks: IndexVec<BlockId, Block>,
    /// All instructions; an instruction may appear in at most one block.
    pub insts: IndexVec<InstId, InstData>,
    /// Source variables (used pre-SSA and for frame allocation).
    pub vars: IndexVec<VarId, VarInfo>,
    /// Dynamic regions contained in this function.
    pub regions: IndexVec<RegionId, DynRegion>,
    /// Whether SSA construction has run (no `GetVar`/`SetVar` remain).
    pub is_ssa: bool,
}

impl Function {
    /// A new function with a single empty entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Ty) -> Self {
        let mut blocks = IndexVec::new();
        let entry = blocks.push(Block::new());
        Function {
            name: name.into(),
            params,
            ret_ty,
            entry,
            blocks,
            insts: IndexVec::new(),
            vars: IndexVec::new(),
            regions: IndexVec::new(),
            is_ssa: false,
        }
    }

    /// The instruction's kind.
    #[inline]
    pub fn kind(&self, id: InstId) -> &InstKind {
        &self.insts[id].kind
    }

    /// The instruction's result kind.
    #[inline]
    pub fn ty(&self, id: InstId) -> Ty {
        self.insts[id].ty
    }

    /// Append a new instruction to `block`, returning its value id.
    pub fn append(&mut self, block: BlockId, kind: InstKind) -> InstId {
        let ty = self.infer_ty(&kind);
        let id = self.insts.push(InstData { kind, ty });
        self.blocks[block].insts.push(id);
        id
    }

    /// Create an instruction without placing it in any block (used by
    /// transformation passes that splice instruction lists themselves).
    pub fn create_inst(&mut self, kind: InstKind) -> InstId {
        let ty = self.infer_ty(&kind);
        self.insts.push(InstData { kind, ty })
    }

    /// Create a new empty block.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new())
    }

    /// Compute the result kind of `kind` from its operator and operands.
    pub fn infer_ty(&self, kind: &InstKind) -> Ty {
        match kind {
            InstKind::Const(Const::Int(_)) => Ty::Int,
            InstKind::Const(Const::Float(_)) => Ty::Float,
            InstKind::Copy(a) => self.ty(*a),
            InstKind::Un(op, _) => match op {
                UnOp::FNeg | UnOp::IntToFloat => Ty::Float,
                _ => Ty::Int,
            },
            InstKind::Bin(op, ..) => {
                if op.is_float() && !op.is_float_cmp() {
                    Ty::Float
                } else {
                    Ty::Int
                }
            }
            InstKind::Load { float, .. } => {
                if *float {
                    Ty::Float
                } else {
                    Ty::Int
                }
            }
            InstKind::Store { .. } | InstKind::SetVar(..) => Ty::None,
            InstKind::Call { callee, .. } => self.callee_ret_ty(*callee),
            InstKind::CallIntrinsic { which, .. } => which.result_ty(),
            InstKind::Phi(ins) => ins.first().map(|(_, v)| self.ty(*v)).unwrap_or(Ty::Int),
            InstKind::Select { if_true, .. } => self.ty(*if_true),
            InstKind::GetVar(v) => self.vars[*v].ty,
            InstKind::Param(i) => self.params.get(*i as usize).copied().unwrap_or(Ty::Int),
            InstKind::GlobalAddr(_) | InstKind::FrameAddr(_) => Ty::Int,
            InstKind::Hole { float, .. } => {
                if *float {
                    Ty::Float
                } else {
                    Ty::Int
                }
            }
        }
    }

    // Result kinds of calls are recorded by the lowerer via a side table on
    // the module; within a lone function we default to Int. The module-level
    // `Module::retype_calls` fixes these up after all functions exist.
    fn callee_ret_ty(&self, _callee: FuncId) -> Ty {
        Ty::Int
    }

    /// Iterate over `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter_enumerated()
    }

    /// If `id` is a constant materialization, its value.
    #[inline]
    pub fn as_const(&self, id: InstId) -> Option<Const> {
        match self.kind(id) {
            InstKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Convenience: append an integer constant.
    pub fn const_int(&mut self, block: BlockId, v: i64) -> InstId {
        self.append(block, InstKind::Const(Const::Int(v)))
    }

    /// Convenience: append a binary operation.
    pub fn bin(&mut self, block: BlockId, op: BinOp, a: InstId, b: InstId) -> InstId {
        self.append(block, InstKind::Bin(op, a, b))
    }

    /// Total number of instructions currently placed in blocks.
    pub fn placed_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Resolve every region's constant/key roots through `Copy` chains.
    ///
    /// The front end records roots as fresh `GetVar` reads, which SSA
    /// construction and copy propagation turn into (possibly bypassed)
    /// copies; analyses must see the *underlying* values the region code
    /// actually uses. Call after optimization, before region analysis.
    pub fn canonicalize_region_roots(&mut self) {
        let resolve = |insts: &IndexVec<InstId, InstData>, mut v: InstId| {
            let mut hops = 0;
            while let InstKind::Copy(src) = insts[v].kind {
                v = src;
                hops += 1;
                if hops > insts.len() {
                    break;
                }
            }
            v
        };
        let insts = &self.insts;
        for r in self.regions.iter_mut() {
            for v in r.const_roots.iter_mut().chain(r.key_roots.iter_mut()) {
                *v = resolve(insts, *v);
            }
            r.const_roots.dedup();
        }
    }
}

/// A module global: named storage with optional initial bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Name (for lookup from host code).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents; zero-filled to `size` if shorter.
    pub init: Vec<u8>,
    /// Required alignment in bytes (power of two).
    pub align: u64,
}

crate::codec! { struct Global { name: String, size: u64, init: Vec<u8>, align: u64 } }

/// A compilation unit: functions plus global data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// All functions.
    pub funcs: IndexVec<FuncId, Function>,
    /// All globals.
    pub globals: IndexVec<GlobalId, Global>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter_enumerated()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }

    /// Re-infer the result kind of every `Call` instruction from its
    /// callee's signature. Run once after all functions are constructed
    /// (calls may reference functions lowered later).
    pub fn retype_calls(&mut self) {
        let ret_tys: Vec<Ty> = self.funcs.iter().map(|f| f.ret_ty).collect();
        for f in self.funcs.iter_mut() {
            for inst in f.insts.iter_mut() {
                if let InstKind::Call { callee, .. } = &inst.kind {
                    inst.ty = ret_tys[callee.index()];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MemSize;
    use crate::ops::Signedness;

    #[test]
    fn append_infers_types() {
        let mut f = Function::new("t", vec![Ty::Int], Ty::Int);
        let b = f.entry;
        let c = f.const_int(b, 5);
        assert_eq!(f.ty(c), Ty::Int);
        let fc = f.append(b, InstKind::Const(Const::Float(1.0)));
        assert_eq!(f.ty(fc), Ty::Float);
        let s = f.append(b, InstKind::Bin(BinOp::FAdd, fc, fc));
        assert_eq!(f.ty(s), Ty::Float);
        let cmp = f.append(b, InstKind::Bin(BinOp::FCmpLt, fc, fc));
        assert_eq!(f.ty(cmp), Ty::Int);
        let ld = f.append(
            b,
            InstKind::Load {
                size: MemSize::B8,
                sign: Signedness::Signed,
                addr: c,
                dynamic: false,
                float: true,
            },
        );
        assert_eq!(f.ty(ld), Ty::Float);
        let st = f.append(
            b,
            InstKind::Store {
                size: MemSize::B8,
                addr: c,
                val: ld,
                float: true,
            },
        );
        assert_eq!(f.ty(st), Ty::None);
    }

    #[test]
    fn module_lookup_by_name() {
        let mut m = Module::new();
        let f1 = m.funcs.push(Function::new("alpha", vec![], Ty::None));
        let f2 = m.funcs.push(Function::new("beta", vec![], Ty::Int));
        assert_eq!(m.func_by_name("alpha"), Some(f1));
        assert_eq!(m.func_by_name("beta"), Some(f2));
        assert_eq!(m.func_by_name("gamma"), None);
    }

    #[test]
    fn retype_calls_uses_callee_signature() {
        let mut m = Module::new();
        let mut caller = Function::new("caller", vec![], Ty::Float);
        let fcallee = Function::new("callee", vec![], Ty::Float);
        let b = caller.entry;
        let call = caller.append(
            b,
            InstKind::Call {
                callee: FuncId(1),
                args: vec![],
            },
        );
        assert_eq!(caller.ty(call), Ty::Int); // default before retype
        m.funcs.push(caller);
        m.funcs.push(fcallee);
        m.retype_calls();
        assert_eq!(m.funcs[FuncId(0)].ty(call), Ty::Float);
    }

    #[test]
    fn blocks_start_unreachable() {
        let f = Function::new("t", vec![], Ty::None);
        assert_eq!(f.blocks[f.entry].term, Terminator::Unreachable);
        assert!(!f.blocks[f.entry].unrolled_header);
    }
}
