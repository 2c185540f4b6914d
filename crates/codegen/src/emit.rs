//! Per-function instruction selection and emission.
//!
//! The whole function — main body, set-up code and templates — is register
//! allocated as one unit, so template code is "optimized in the context of
//! its enclosing procedure" (§3.3): stitched copies execute in the same
//! register state as the surrounding code. Main and set-up blocks emit
//! into the executable stream; template blocks emit into a separate
//! [`Template`] buffer with hole/branch directives, never executed in
//! place.

use crate::regalloc::{self, allocate_in, Allocation, Entity, Loc, FLT_SCRATCH, INT_SCRATCH};
use crate::CodegenError;
use dyncomp_ir::{
    BinOp, BlockId, Const, Function, IdSet, IndexVec, InstId, InstKind, Intrinsic, MemSize,
    RegionId, Signedness, TemplateMarker, Terminator, Ty, UnOp, VarId,
};
use dyncomp_machine::asm::{Assembler, Label};
use dyncomp_machine::isa::{encode, Inst, Op, Operand, Reg, LIN, RA, SP, ZERO};
use dyncomp_machine::template::{
    Hole, LoopMarker, RegionCode, Template, TmplBlock, TmplExit, ValueLoc,
};
use dyncomp_specialize::RegionSpec;
use std::collections::BTreeMap;

/// Result of emitting one function.
pub struct EmittedFunc {
    /// Encoded executable words (function-local addressing).
    pub words: Vec<u32>,
    /// Call relocations: `(word index of the Ldiw immediate, callee)`.
    pub call_relocs: Vec<(u32, dyncomp_ir::FuncId)>,
    /// Template-call relocations: `(region, word index of the Ldiw
    /// immediate *within that region's template code*, callee)`. Patched
    /// by the module driver once every function entry is known; the
    /// immediate is an absolute callee entry, so stitched copies stay
    /// position-independent.
    pub tmpl_relocs: Vec<(dyncomp_ir::RegionId, u32, dyncomp_ir::FuncId)>,
    /// Region metadata with function-local addresses (rebased later).
    pub regions: Vec<(dyncomp_ir::RegionId, RegionCode)>,
    /// Float literals referenced (pool offsets were pre-assigned).
    pub float_pool_used: bool,
}

/// Per-module emission context shared across functions.
pub struct ModuleCtx {
    /// Resolved global addresses.
    pub global_addrs: Vec<u64>,
    /// Float-literal pool: bits → offset within the pool global.
    pub float_pool: BTreeMap<u64, u32>,
    /// Address of the float pool in data memory.
    pub float_pool_addr: u64,
    /// Buffers kept from one function's emission to the next.
    pub(crate) scratch: Scratch,
}

/// The emitter's working buffers, reused across the functions of one
/// [`crate::compile_module`] call: the register allocator's tables, the
/// block order, the label tables and the assembler's item buffer. Each is
/// reset before use.
#[derive(Default)]
pub(crate) struct Scratch {
    alloc: regalloc::Scratch,
    order: Vec<BlockId>,
    /// Label of each block in the order, by block index.
    labels: Vec<Option<Label>>,
    /// Template-local label of each block of the region being emitted, by
    /// block index; `u32::MAX` for other blocks.
    label_of: Vec<u32>,
    asm: Assembler,
}

struct Emitter<'a> {
    f: &'a Function,
    alloc: Allocation,
    asm: Assembler,
    labels: Vec<Option<Label>>,
    mcx: &'a mut ModuleCtx,
    call_relocs: Vec<(usize, dyncomp_ir::FuncId)>, // (inst item index, callee) — resolved later
    frame_size: u32,
    var_frame_off: IndexVec<VarId, Option<i32>>,
    spill_base: i32,
    save_area: Vec<(Reg, bool, i32)>, // (reg, is_float, offset)
    ra_off: Option<i32>,
    ret_float: bool,
    template_callable: &'a [bool],
    // Template state (set while emitting template blocks).
    tmpl: Option<TemplateBuf>,
    lit_uses: IndexVec<InstId, LitUse>,
    float_pool_used: bool,
    // Static fallback entry block per region (tiered lowering): recorded
    // when a branch conditioned on a `TierProbe` intrinsic is emitted.
    fallback_blocks: IndexVec<RegionId, Option<BlockId>>,
}

struct TemplateBuf {
    code: Vec<u32>,
    blocks: Vec<TmplBlock>,
    label_of: Vec<u32>,
    cur_holes: Vec<Hole>,
    call_relocs: Vec<(u32, dyncomp_ir::FuncId)>, // (word of Ldiw immediate, callee)
}

/// How a function uses a value: through an operate instruction's literal
/// field (the second operand of an integer binary op) only, or not.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LitUse {
    Unused,
    /// Every use is a literal-field use; this many of them.
    Literal(u32),
    /// Some use is not (another operand position, another instruction, or
    /// a terminator).
    Other,
}

/// Every value's [`LitUse`], from one walk over the function.
fn literal_uses(f: &Function) -> IndexVec<InstId, LitUse> {
    let mut uses: IndexVec<InstId, LitUse> = f.insts.iter().map(|_| LitUse::Unused).collect();
    for (_, blk) in f.iter_blocks() {
        for &u in &blk.insts {
            let kind = f.kind(u);
            let lit_op = matches!(kind, InstKind::Bin(op, ..) if !op.is_float());
            for (pos, v) in kind.operands().enumerate() {
                uses[v] = match uses[v] {
                    LitUse::Unused if lit_op && pos == 1 => LitUse::Literal(1),
                    LitUse::Literal(n) if lit_op && pos == 1 => LitUse::Literal(n + 1),
                    _ => LitUse::Other,
                };
            }
        }
        for v in blk.term.operands() {
            uses[v] = LitUse::Other;
        }
    }
    uses
}

impl TemplateBuf {
    fn at(&self) -> u32 {
        self.code.len() as u32
    }

    /// The template-local label of `b`, when `b` is one of the region's
    /// template blocks.
    fn label_of(&self, b: BlockId) -> Option<u32> {
        self.label_of
            .get(b.index())
            .copied()
            .filter(|&l| l != u32::MAX)
    }
}

/// Emit one function.
///
/// `template_callable[fid]` says whether a call to that function may be
/// emitted inside template code: only callees that are transitively free
/// of dynamic regions qualify (a callee that re-enters the dynamic
/// compiler would clobber the stitched code's linkage registers).
pub fn emit_function(
    f: &Function,
    specs: &[&RegionSpec],
    region_base_index: u16,
    template_callable: &[bool],
    mcx: &mut ModuleCtx,
) -> Result<EmittedFunc, CodegenError> {
    let mut scratch = std::mem::take(&mut mcx.scratch);
    // ---- block order: main (RPO), then per region setup + template ----
    let mut special: IdSet<BlockId> = IdSet::with_domain(f.blocks.len());
    for s in specs {
        for &b in s.setup_blocks.iter().chain(s.template_blocks.iter()) {
            special.insert(b);
        }
    }
    let mut order = std::mem::take(&mut scratch.order);
    order.clear();
    order.extend(
        dyncomp_ir::cfg::reverse_postorder(f)
            .into_iter()
            .filter(|b| !special.contains(*b)),
    );
    for s in specs {
        order.extend(s.setup_blocks.iter().copied());
    }
    let setup_end = order.len();
    for s in specs {
        order.extend(s.template_blocks.iter().copied());
    }

    let alloc = allocate_in(f, &order, &mut scratch.alloc);

    // ---- frame layout: [spills][frame vars][saves][ra] ----
    let mut off: i32 = alloc.spill_bytes as i32;
    let var_frame_off: IndexVec<VarId, Option<i32>> = f
        .vars
        .iter()
        .map(|info| {
            info.frame_size.map(|sz| {
                let at = off;
                off += ((sz + 7) & !7) as i32;
                at
            })
        })
        .collect();
    let has_calls = f
        .insts
        .iter()
        .any(|i| matches!(i.kind, InstKind::Call { .. }));
    let mut save_area = Vec::new();
    for &r in &alloc.used_int_callee {
        save_area.push((r, false, off));
        off += 8;
    }
    for &r in &alloc.used_flt_callee {
        save_area.push((r, true, off));
        off += 8;
    }
    let ra_off = if has_calls {
        let o = off;
        off += 8;
        Some(o)
    } else {
        None
    };
    let frame_size = ((off + 15) & !15) as u32;

    let mut asm = std::mem::take(&mut scratch.asm);
    asm.clear();
    let mut labels = std::mem::take(&mut scratch.labels);
    labels.clear();
    labels.resize(f.blocks.len(), None);
    let mut em = Emitter {
        f,
        alloc,
        asm,
        labels,
        mcx,
        call_relocs: Vec::new(),
        frame_size,
        var_frame_off,
        spill_base: 0,
        save_area,
        ra_off,
        ret_float: f.ret_ty == Ty::Float,
        template_callable,
        tmpl: None,
        lit_uses: literal_uses(f),
        float_pool_used: false,
        fallback_blocks: f.regions.iter().map(|_| None).collect(),
    };

    for &b in &order {
        em.labels[b.index()] = Some(em.asm.fresh_label());
    }

    // ---- prologue ----
    em.prologue()?;

    // ---- main + setup blocks ----
    // Item index of each region's ENTERREGION.
    let mut enter_pcs: IndexVec<RegionId, Option<usize>> = f.regions.iter().map(|_| None).collect();
    for (idx, &b) in order[..setup_end].iter().enumerate() {
        em.asm.bind(em.label(b));
        for &i in &f.blocks[b].insts {
            em.inst(i)?;
        }
        let next = order[..setup_end].get(idx + 1).copied();
        em.terminator(b, next, region_base_index, &mut enter_pcs)?;
    }

    // ---- template blocks (per region, into separate buffers) ----
    // One template per spec, in `specs` order.
    let mut templates: Vec<Template> = Vec::with_capacity(specs.len());
    let mut tmpl_relocs: Vec<(RegionId, u32, dyncomp_ir::FuncId)> = Vec::new();
    let mut label_of = std::mem::take(&mut scratch.label_of);
    for s in specs {
        label_of.clear();
        label_of.resize(f.blocks.len(), u32::MAX);
        for (li, &b) in s.template_blocks.iter().enumerate() {
            label_of[b.index()] = li as u32;
        }
        em.tmpl = Some(TemplateBuf {
            code: Vec::new(),
            blocks: Vec::new(),
            label_of,
            cur_holes: Vec::new(),
            call_relocs: Vec::new(),
        });
        for &b in &s.template_blocks {
            em.template_block(b, s)?;
        }
        let buf = em.tmpl.take().expect("template buffer present");
        let entry = buf
            .label_of(s.template_entry)
            .ok_or_else(|| CodegenError::Internal("template entry outside the template".into()))?;
        label_of = buf.label_of;
        for (w, callee) in buf.call_relocs {
            tmpl_relocs.push((s.region, w, callee));
        }
        templates.push(Template {
            code: buf.code,
            blocks: buf.blocks,
            entry,
        });
    }

    // ---- assemble ----
    let out = em.asm.assemble().map_err(CodegenError::Asm)?;

    // Resolve instruction-item indices to word offsets.
    let call_relocs: Vec<(u32, dyncomp_ir::FuncId)> = em
        .call_relocs
        .iter()
        .map(|&(item, fid)| (out.inst_offsets[item], fid))
        .collect();

    // ---- region metadata ----
    let offset_of = |b: BlockId| -> Result<u32, CodegenError> {
        out.label_offset(em.label(b))
            .ok_or_else(|| CodegenError::Internal(format!("block {b} was not laid out")))
    };
    let mut regions = Vec::new();
    for (s, template) in specs.iter().zip(templates) {
        let enter_item = enter_pcs[s.region]
            .ok_or_else(|| CodegenError::Internal("region without an ENTERREGION".into()))?;
        let enter_pc = out.inst_offsets[enter_item];
        let setup_pc = offset_of(s.setup_entry)?;
        let exit_pcs: Vec<u32> = s
            .exit_targets
            .iter()
            .map(|&t| offset_of(t))
            .collect::<Result<_, _>>()?;
        let key_locs: Vec<ValueLoc> = f.regions[s.region]
            .key_roots
            .iter()
            .map(|&v| em.value_loc(v))
            .collect();
        let fallback_pc = em.fallback_blocks[s.region].map(offset_of).transpose()?;
        regions.push((
            s.region,
            RegionCode {
                region_index: region_base_index + s.region.index() as u16,
                enter_pc,
                setup_pc,
                fallback_pc,
                template,
                exit_pcs,
                key_locs,
                table_static_len: s.table_static_len,
            },
        ));
    }

    let float_pool_used = em.float_pool_used;
    em.mcx.scratch = Scratch {
        alloc: scratch.alloc,
        order,
        labels: em.labels,
        label_of,
        asm: em.asm,
    };
    Ok(EmittedFunc {
        words: out.words,
        call_relocs,
        tmpl_relocs,
        regions,
        float_pool_used,
    })
}

impl Emitter<'_> {
    /// The label of block `b`, which is in the emission order.
    fn label(&self, b: BlockId) -> Label {
        self.labels[b.index()].expect("block in the emission order")
    }

    fn value_loc(&self, v: InstId) -> ValueLoc {
        match self.alloc.loc(Entity::Val(v)) {
            Some(Loc::Reg(r)) => ValueLoc::Reg(r),
            Some(Loc::FReg(r)) => ValueLoc::FReg(r),
            Some(Loc::Frame(o)) => ValueLoc::Frame(o + self.spill_base),
            None => ValueLoc::Reg(ZERO), // dead value
        }
    }

    /// Whether a hole is patched into its one use's literal field instead
    /// of loaded (§4: "the static compiler has selected an instruction that
    /// admits the hole as an immediate operand"). Float holes never are.
    fn is_folded_hole(&self, v: InstId) -> bool {
        matches!(self.f.kind(v), InstKind::Hole { float: false, .. })
            && self.lit_uses[v] == LitUse::Literal(1)
    }

    // ---- low-level emission (routes to template buffer when active) ----

    fn push(&mut self, i: Inst) -> usize {
        match &mut self.tmpl {
            Some(t) => {
                let (w, extra) = encode(&i).expect("template instruction encodes");
                t.code.push(w);
                if let Some(x) = extra {
                    t.code.push(x);
                }
                usize::MAX // no assembler item index in template mode
            }
            None => self.asm.push(i),
        }
    }

    fn in_template(&self) -> bool {
        self.tmpl.is_some()
    }

    // ---- operand access ----

    fn loc(&self, e: Entity) -> Option<Loc> {
        self.alloc.loc(e)
    }

    /// Materialize entity into an integer register (possibly a scratch).
    fn read_int(&mut self, e: Entity, scratch: usize) -> Result<Reg, CodegenError> {
        match self.loc(e) {
            Some(Loc::Reg(r)) => Ok(r),
            Some(Loc::Frame(o)) => {
                let s = INT_SCRATCH[scratch];
                self.push(Inst::mem(Op::Ldq, s, SP, (o + self.spill_base) as i16));
                Ok(s)
            }
            Some(Loc::FReg(_)) => Err(CodegenError::Internal(format!(
                "entity {e:?} is a float, read as int"
            ))),
            None => Ok(ZERO), // never-defined (dead) value
        }
    }

    /// Materialize entity into a float register.
    fn read_flt(&mut self, e: Entity, scratch: usize) -> Result<Reg, CodegenError> {
        match self.loc(e) {
            Some(Loc::FReg(r)) => Ok(r),
            Some(Loc::Frame(o)) => {
                let s = FLT_SCRATCH[scratch];
                self.push(Inst::mem(Op::Ldt, s, SP, (o + self.spill_base) as i16));
                Ok(s)
            }
            Some(Loc::Reg(_)) => Err(CodegenError::Internal(format!(
                "entity {e:?} is an int, read as float"
            ))),
            None => Ok(31),
        }
    }

    /// Register to compute an integer result into (scratch when spilled).
    fn def_int(&self, e: Entity, scratch: usize) -> Reg {
        match self.loc(e) {
            Some(Loc::Reg(r)) => r,
            Some(Loc::Frame(_)) => INT_SCRATCH[scratch],
            _ => ZERO,
        }
    }

    fn def_flt(&self, e: Entity, scratch: usize) -> Reg {
        match self.loc(e) {
            Some(Loc::FReg(r)) => r,
            Some(Loc::Frame(_)) => FLT_SCRATCH[scratch],
            _ => 31,
        }
    }

    /// Store a computed value back if the entity is spilled.
    fn writeback(&mut self, e: Entity, r: Reg, float: bool) {
        if let Some(Loc::Frame(o)) = self.loc(e) {
            let op = if float { Op::Stt } else { Op::Stq };
            self.push(Inst::mem(op, r, SP, (o + self.spill_base) as i16));
        }
    }

    /// Second operand of an operate instruction: literal when the value is
    /// a small compile-time constant, register otherwise.
    fn operand_rb(&mut self, v: InstId, scratch: usize) -> Result<Operand, CodegenError> {
        if let Some(Const::Int(c)) = self.f.as_const(v) {
            if (0..=255).contains(&c) {
                return Ok(Operand::Lit(c as u8));
            }
        }
        Ok(Operand::Reg(self.read_int(Entity::Val(v), scratch)?))
    }

    /// Materialize an arbitrary integer constant into `rd`.
    fn load_const(&mut self, rd: Reg, v: i64) {
        if (-8192..=8191).contains(&v) {
            self.push(Inst::mem(Op::Lda, rd, ZERO, v as i16));
        } else if v >= i32::MIN as i64 && v <= i32::MAX as i64 {
            self.push(Inst::ldiw(rd, v as i32));
        } else {
            // Full 64-bit: hi32 << 32 | lo32. The helper scratch must not
            // alias the destination.
            let hi = (v >> 32) as i32;
            let lo = v as u32;
            let sc = if rd == INT_SCRATCH[2] {
                INT_SCRATCH[1]
            } else {
                INT_SCRATCH[2]
            };
            self.push(Inst::ldiw(rd, hi));
            self.push(Inst::op3(Op::Sll, rd, Operand::Lit(32), rd));
            self.push(Inst::ldiw(sc, lo as i32));
            self.push(Inst::op3(Op::Zextl, sc, Operand::Lit(0), sc));
            self.push(Inst::op3(Op::Bis, rd, Operand::Reg(sc), rd));
        }
    }

    fn move_int(&mut self, dst: Reg, src: Reg) {
        if dst != src {
            self.push(Inst::op3(Op::Bis, src, Operand::Reg(src), dst));
        }
    }

    fn move_flt(&mut self, dst: Reg, src: Reg) {
        if dst != src {
            self.push(Inst::op3(Op::Fmov, ZERO, Operand::Reg(src), dst));
        }
    }

    // ---- prologue / epilogue ----

    fn prologue(&mut self) -> Result<(), CodegenError> {
        if self.frame_size > 0 {
            self.push(Inst::mem(Op::Lda, SP, SP, -(self.frame_size as i32) as i16));
        }
        for k in 0..self.save_area.len() {
            let (r, float, o) = self.save_area[k];
            let op = if float { Op::Stt } else { Op::Stq };
            self.push(Inst::mem(op, r, SP, o as i16));
        }
        if let Some(o) = self.ra_off {
            self.push(Inst::mem(Op::Stq, RA, SP, o as i16));
        }
        Ok(())
    }

    fn epilogue(&mut self) {
        if let Some(o) = self.ra_off {
            self.push(Inst::mem(Op::Ldq, RA, SP, o as i16));
        }
        for k in 0..self.save_area.len() {
            let (r, float, o) = self.save_area[k];
            let op = if float { Op::Ldt } else { Op::Ldq };
            self.push(Inst::mem(op, r, SP, o as i16));
        }
        if self.frame_size > 0 {
            self.push(Inst::mem(Op::Lda, SP, SP, self.frame_size as i16));
        }
        self.push(Inst::jump(Op::Jmp, ZERO, RA));
    }

    // ---- instruction selection ----

    fn inst(&mut self, i: InstId) -> Result<(), CodegenError> {
        let e = Entity::Val(i);
        match *self.f.kind(i) {
            InstKind::Const(Const::Int(v)) => {
                if self.const_fully_foldable(i) {
                    return Ok(());
                }
                let rd = self.def_int(e, 0);
                if rd != ZERO {
                    self.load_const(rd, v);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::Const(Const::Float(x)) => {
                let fd = self.def_flt(e, 0);
                if fd != 31 {
                    self.load_float_const(fd, x);
                    self.writeback(e, fd, true);
                }
            }
            InstKind::Copy(a) => {
                if self.f.ty(i) == Ty::Float {
                    let src = self.read_flt(Entity::Val(a), 0)?;
                    let fd = self.def_flt(e, 1);
                    self.move_flt(fd, src);
                    self.writeback(e, fd, true);
                } else {
                    let src = self.read_int(Entity::Val(a), 0)?;
                    let rd = self.def_int(e, 1);
                    self.move_int(rd, src);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::Un(op, a) => self.unop(i, op, a)?,
            InstKind::Bin(op, a, b) => self.binop(i, op, a, b)?,
            InstKind::Load {
                size,
                sign,
                addr,
                float,
                ..
            } => {
                let ra = self.read_int(Entity::Val(addr), 0)?;
                if float {
                    let fd = self.def_flt(e, 0);
                    self.push(Inst::mem(Op::Ldt, fd, ra, 0));
                    self.writeback(e, fd, true);
                } else {
                    let op = match (size, sign) {
                        (MemSize::B1, Signedness::Unsigned) => Op::Ldbu,
                        (MemSize::B2, Signedness::Unsigned) => Op::Ldwu,
                        (MemSize::B4, Signedness::Unsigned) => Op::Ldlu,
                        (MemSize::B1, Signedness::Signed) => Op::Ldb,
                        (MemSize::B2, Signedness::Signed) => Op::Ldw,
                        (MemSize::B4, Signedness::Signed) => Op::Ldl,
                        (MemSize::B8, _) => Op::Ldq,
                    };
                    let rd = self.def_int(e, 1);
                    self.push(Inst::mem(op, rd, ra, 0));
                    self.writeback(e, rd, false);
                }
            }
            InstKind::Store {
                size,
                addr,
                val,
                float,
            } => {
                let ra = self.read_int(Entity::Val(addr), 0)?;
                if float {
                    let fv = self.read_flt(Entity::Val(val), 0)?;
                    self.push(Inst::mem(Op::Stt, fv, ra, 0));
                } else {
                    let rv = self.read_int(Entity::Val(val), 1)?;
                    let op = match size {
                        MemSize::B1 => Op::Stb,
                        MemSize::B2 => Op::Stw,
                        MemSize::B4 => Op::Stl,
                        MemSize::B8 => Op::Stq,
                    };
                    self.push(Inst::mem(op, rv, ra, 0));
                }
            }
            InstKind::Call { callee, ref args } => self.call(i, callee, args)?,
            InstKind::CallIntrinsic { which, ref args } => self.intrinsic(i, which, args)?,
            InstKind::GetVar(v) => {
                if self.f.vars[v].frame_size.is_some() {
                    return Err(CodegenError::Internal("GetVar of frame variable".into()));
                }
                if self.f.vars[v].ty == Ty::Float {
                    let src = self.read_flt(Entity::Var(v), 0)?;
                    let fd = self.def_flt(e, 1);
                    self.move_flt(fd, src);
                    self.writeback(e, fd, true);
                } else {
                    let src = self.read_int(Entity::Var(v), 0)?;
                    let rd = self.def_int(e, 1);
                    self.move_int(rd, src);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::SetVar(v, x) => {
                if self.f.vars[v].ty == Ty::Float {
                    let src = self.read_flt(Entity::Val(x), 0)?;
                    let fd = self.def_flt(Entity::Var(v), 1);
                    self.move_flt(fd, src);
                    self.writeback(Entity::Var(v), fd, true);
                } else {
                    let src = self.read_int(Entity::Val(x), 0)?;
                    let rd = self.def_int(Entity::Var(v), 1);
                    self.move_int(rd, src);
                    self.writeback(Entity::Var(v), rd, false);
                }
            }
            InstKind::Param(n) => {
                let float = self.f.params.get(n as usize) == Some(&Ty::Float);
                if float {
                    let fd = self.def_flt(e, 0);
                    self.move_flt(fd, 16 + n as Reg);
                    self.writeback(e, fd, true);
                } else {
                    let rd = self.def_int(e, 0);
                    self.move_int(rd, 16 + n as Reg);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::GlobalAddr(g) => {
                let rd = self.def_int(e, 0);
                if rd != ZERO {
                    let addr = self.mcx.global_addrs[g.index()];
                    self.load_const(rd, addr as i64);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::FrameAddr(v) => {
                let off = self
                    .var_frame_off
                    .get(v)
                    .copied()
                    .flatten()
                    .ok_or_else(|| CodegenError::Internal("FrameAddr of non-frame var".into()))?;
                let rd = self.def_int(e, 0);
                self.push(Inst::mem(Op::Lda, rd, SP, off as i16));
                self.writeback(e, rd, false);
            }
            InstKind::Hole { ref slot, float } => {
                if self.is_folded_hole(i) {
                    return Ok(()); // patched inline at the use
                }
                if !self.in_template() {
                    return Err(CodegenError::Internal("hole outside template".into()));
                }
                // Static load from the linearized constants table (§4).
                let t = self.tmpl.as_mut().expect("in template");
                t.cur_holes.push(Hole {
                    at: t.at(),
                    slot: slot.clone(),
                });
                if float {
                    let fd = self.def_flt(e, 0);
                    self.push(Inst::mem(Op::Ldt, fd, LIN, 0));
                    self.writeback(e, fd, true);
                } else {
                    let rd = self.def_int(e, 0);
                    self.push(Inst::mem(Op::Ldq, rd, LIN, 0));
                    self.writeback(e, rd, false);
                }
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                // Stage the condition in the third scratch so reloading the
                // arms can never clobber it.
                let c0 = self.read_int(Entity::Val(cond), 0)?;
                let rc = INT_SCRATCH[2];
                self.move_int(rc, c0);
                if self.f.ty(i) == Ty::Float {
                    let fv = self.read_flt(Entity::Val(if_false), 1)?;
                    let sc = FLT_SCRATCH[1];
                    self.move_flt(sc, fv);
                    let tv = self.read_flt(Entity::Val(if_true), 0)?;
                    self.push(Inst::op3(Op::Fcmovne, rc, Operand::Reg(tv), sc));
                    let fd = self.def_flt(e, 0);
                    self.move_flt(fd, sc);
                    self.writeback(e, fd, true);
                } else {
                    let fv = self.read_int(Entity::Val(if_false), 1)?;
                    let sc = INT_SCRATCH[1];
                    self.move_int(sc, fv);
                    let tv = self.read_int(Entity::Val(if_true), 0)?;
                    self.push(Inst::op3(Op::Cmovne, rc, Operand::Reg(tv), sc));
                    let rd = self.def_int(e, 0);
                    self.move_int(rd, sc);
                    self.writeback(e, rd, false);
                }
            }
            InstKind::Phi(_) => {
                return Err(CodegenError::Internal("φ reached code generation".into()))
            }
        }
        Ok(())
    }

    /// A constant needs no materialization when every use folds it into a
    /// literal field.
    fn const_fully_foldable(&self, i: InstId) -> bool {
        matches!(self.f.as_const(i), Some(Const::Int(v)) if (0..=255).contains(&v))
            && matches!(self.lit_uses[i], LitUse::Literal(_))
    }

    fn unop(&mut self, i: InstId, op: UnOp, a: InstId) -> Result<(), CodegenError> {
        let e = Entity::Val(i);
        match op {
            UnOp::Neg => {
                let ra = self.read_int(Entity::Val(a), 0)?;
                let rd = self.def_int(e, 1);
                self.push(Inst::op3(Op::Subq, ZERO, Operand::Reg(ra), rd));
                self.writeback(e, rd, false);
            }
            UnOp::Not => {
                let ra = self.read_int(Entity::Val(a), 0)?;
                let rd = self.def_int(e, 1);
                self.push(Inst::op3(Op::Ornot, ZERO, Operand::Reg(ra), rd));
                self.writeback(e, rd, false);
            }
            UnOp::LogNot => {
                let ra = self.read_int(Entity::Val(a), 0)?;
                let rd = self.def_int(e, 1);
                self.push(Inst::op3(Op::Cmpeq, ra, Operand::Lit(0), rd));
                self.writeback(e, rd, false);
            }
            UnOp::Sext(bits) | UnOp::Zext(bits) => {
                let ra = self.read_int(Entity::Val(a), 0)?;
                let rd = self.def_int(e, 1);
                let signed = matches!(op, UnOp::Sext(_));
                let mop = match (bits, signed) {
                    (8, true) => Op::Sextb,
                    (16, true) => Op::Sextw,
                    (32, true) => Op::Sextl,
                    (8, false) => Op::Zextb,
                    (16, false) => Op::Zextw,
                    (32, false) => Op::Zextl,
                    _ => return Err(CodegenError::Internal(format!("ext width {bits}"))),
                };
                self.push(Inst::op3(mop, ra, Operand::Lit(0), rd));
                self.writeback(e, rd, false);
            }
            UnOp::FNeg => {
                let fa = self.read_flt(Entity::Val(a), 0)?;
                let fd = self.def_flt(e, 1);
                self.push(Inst::op3(Op::Fneg, ZERO, Operand::Reg(fa), fd));
                self.writeback(e, fd, true);
            }
            UnOp::IntToFloat => {
                let ra = self.read_int(Entity::Val(a), 0)?;
                let fd = self.def_flt(e, 0);
                self.push(Inst::op3(Op::Cvtqt, ra, Operand::Reg(ZERO), fd));
                self.writeback(e, fd, true);
            }
            UnOp::FloatToInt => {
                let fa = self.read_flt(Entity::Val(a), 0)?;
                let rd = self.def_int(e, 0);
                self.push(Inst::op3(Op::Cvttq, fa, Operand::Reg(ZERO), rd));
                self.writeback(e, rd, false);
            }
        }
        Ok(())
    }

    fn binop(&mut self, i: InstId, op: BinOp, a: InstId, b: InstId) -> Result<(), CodegenError> {
        use BinOp::*;
        let e = Entity::Val(i);
        if op.is_float() {
            let fa = self.read_flt(Entity::Val(a), 0)?;
            let fb = self.read_flt(Entity::Val(b), 1)?;
            let mop = match op {
                FAdd => Op::Addt,
                FSub => Op::Subt,
                FMul => Op::Mult,
                FDiv => Op::Divt,
                FCmpEq => Op::Cmpteq,
                FCmpLt => Op::Cmptlt,
                FCmpLe => Op::Cmptle,
                _ => unreachable!(),
            };
            if op.is_float_cmp() {
                let rd = self.def_int(e, 0);
                self.push(Inst::op3(mop, fa, Operand::Reg(fb), rd));
                self.writeback(e, rd, false);
            } else {
                let fd = self.def_flt(e, 0);
                self.push(Inst::op3(mop, fa, Operand::Reg(fb), fd));
                self.writeback(e, fd, true);
            }
            return Ok(());
        }
        let mop = match op {
            Add => Op::Addq,
            Sub => Op::Subq,
            Mul => Op::Mulq,
            DivS => Op::Divq,
            DivU => Op::Divqu,
            RemS => Op::Remq,
            RemU => Op::Remqu,
            And => Op::And,
            Or => Op::Bis,
            Xor => Op::Xor,
            Shl => Op::Sll,
            ShrU => Op::Srl,
            ShrS => Op::Sra,
            CmpEq => Op::Cmpeq,
            CmpNe => Op::Cmpne,
            CmpLtS => Op::Cmplt,
            CmpLeS => Op::Cmple,
            CmpLtU => Op::Cmpult,
            CmpLeU => Op::Cmpule,
            _ => unreachable!(),
        };
        let ra = self.read_int(Entity::Val(a), 0)?;
        // Folded hole in the literal position?
        let rb = if self.is_folded_hole(b) {
            let InstKind::Hole { slot, .. } = self.f.kind(b) else {
                unreachable!()
            };
            let t = self
                .tmpl
                .as_mut()
                .ok_or_else(|| CodegenError::Internal("folded hole outside template".into()))?;
            t.cur_holes.push(Hole {
                at: t.at(),
                slot: slot.clone(),
            });
            Operand::Lit(0)
        } else {
            self.operand_rb(b, 1)?
        };
        let rd = self.def_int(e, 1);
        self.push(Inst::op3(mop, ra, rb, rd));
        self.writeback(e, rd, false);
        Ok(())
    }

    fn call(
        &mut self,
        i: InstId,
        callee: dyncomp_ir::FuncId,
        args: &[InstId],
    ) -> Result<(), CodegenError> {
        if args.len() > 6 {
            return Err(CodegenError::TooManyArgs(self.f.name.clone()));
        }
        if self.in_template()
            && !self
                .template_callable
                .get(callee.index())
                .copied()
                .unwrap_or(false)
        {
            // A callee that (transitively) contains a dynamic region would
            // re-enter the dynamic compiler mid-template, clobbering the
            // stitched code's linkage registers (LIN/CTP) for good. The
            // demand-driven inliner is expected to have removed every
            // benign call; refuse the rest.
            return Err(CodegenError::CallInTemplate(self.f.name.clone()));
        }
        for (n, &a) in args.iter().enumerate() {
            if self.f.ty(a) == Ty::Float {
                let fa = self.read_flt(Entity::Val(a), 0)?;
                self.move_flt(16 + n as Reg, fa);
            } else {
                let ra = self.read_int(Entity::Val(a), 0)?;
                self.move_int(16 + n as Reg, ra);
            }
        }
        let sc = INT_SCRATCH[1];
        if let Some(t) = self.tmpl.as_mut() {
            // Template call: load the callee's absolute entry (patched at
            // module link time) and jump through it. `Jsr` is position-
            // independent, so stitched copies relocate freely.
            let at = t.at();
            t.call_relocs.push((at + 1, callee)); // immediate = 2nd Ldiw word
            self.push(Inst::ldiw(sc, 0));
        } else {
            let item = self.asm.push(Inst::ldiw(sc, 0));
            // The immediate is the SECOND word of the Ldiw.
            self.call_relocs.push((item, callee));
        }
        self.push(Inst::jump(Op::Jsr, RA, sc));
        let e = Entity::Val(i);
        if self.f.ty(i) == Ty::Float {
            let fd = self.def_flt(e, 0);
            self.move_flt(fd, 0);
            self.writeback(e, fd, true);
        } else if self.f.ty(i) == Ty::Int {
            let rd = self.def_int(e, 0);
            self.move_int(rd, 0);
            self.writeback(e, rd, false);
        }
        Ok(())
    }

    fn intrinsic(
        &mut self,
        i: InstId,
        which: Intrinsic,
        args: &[InstId],
    ) -> Result<(), CodegenError> {
        let e = Entity::Val(i);
        match which {
            Intrinsic::Alloc => {
                let ra = self.read_int(Entity::Val(args[0]), 0)?;
                let rd = self.def_int(e, 1);
                self.push(Inst::op3(Op::Alloc, ra, Operand::Reg(ZERO), rd));
                self.writeback(e, rd, false);
            }
            Intrinsic::Max | Intrinsic::Min => {
                let ra = self.read_int(Entity::Val(args[0]), 0)?;
                let rb = self.read_int(Entity::Val(args[1]), 1)?;
                let sc = INT_SCRATCH[2];
                // sc = (a < b) for max / (b < a) for min; rd = a; cmovne sc, b.
                let (x, y) = if which == Intrinsic::Max {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                self.push(Inst::op3(Op::Cmplt, x, Operand::Reg(y), sc));
                let rd = self.def_int(e, 0);
                self.move_int(rd, ra);
                self.push(Inst::op3(Op::Cmovne, sc, Operand::Reg(rb), rd));
                self.writeback(e, rd, false);
            }
            Intrinsic::Abs => {
                // neg = -a; cond = (a < 0); rd = a; cmovne cond, neg -> rd.
                let ra = self.read_int(Entity::Val(args[0]), 0)?;
                let neg = INT_SCRATCH[1];
                let cond = INT_SCRATCH[2];
                self.push(Inst::op3(Op::Subq, ZERO, Operand::Reg(ra), neg));
                self.push(Inst::op3(Op::Cmplt, ra, Operand::Lit(0), cond));
                let rd = self.def_int(e, 0);
                self.move_int(rd, ra);
                self.push(Inst::op3(Op::Cmovne, cond, Operand::Reg(neg), rd));
                self.writeback(e, rd, false);
            }
            Intrinsic::Sqrt => {
                let fa = self.read_flt(Entity::Val(args[0]), 0)?;
                let fd = self.def_flt(e, 0);
                self.push(Inst::op3(Op::Sqrtt, ZERO, Operand::Reg(fa), fd));
                self.writeback(e, fd, true);
            }
            Intrinsic::TierProbe => {
                // The probe is opaque in the IR but trivial in machine code:
                // the emitted code always takes the specialized path into the
                // `EnterRegion` trap, where the engine may redirect to the
                // fallback copy (recorded via the branch on this probe).
                let rd = self.def_int(e, 0);
                self.load_const(rd, 1);
                self.writeback(e, rd, false);
            }
        }
        Ok(())
    }

    fn load_float_const(&mut self, fd: Reg, x: f64) {
        // Via the module float pool.
        let bits = x.to_bits();
        let next = (self.mcx.float_pool.len() as u32) * 8;
        let off = *self.mcx.float_pool.entry(bits).or_insert(next);
        self.float_pool_used = true;
        let sc = INT_SCRATCH[1];
        self.load_const(sc, (self.mcx.float_pool_addr + u64::from(off)) as i64);
        self.push(Inst::mem(Op::Ldt, fd, sc, 0));
    }

    // ---- terminators (main/setup blocks) ----

    fn terminator(
        &mut self,
        b: BlockId,
        next: Option<BlockId>,
        region_base_index: u16,
        enter_pcs: &mut IndexVec<RegionId, Option<usize>>,
    ) -> Result<(), CodegenError> {
        match self.f.blocks[b].term {
            Terminator::Jump(t) => {
                if next != Some(t) {
                    self.asm.branch_to(Op::Br, ZERO, self.label(t));
                }
            }
            Terminator::Branch {
                cond,
                then_b,
                else_b,
            } => {
                // A branch on a tier probe marks `else_b` as the static
                // fallback entry of the probed region (tiered lowering).
                if let InstKind::CallIntrinsic {
                    which: Intrinsic::TierProbe,
                    args,
                } = self.f.kind(cond)
                {
                    if let Some(Const::Int(r)) = args.first().and_then(|&a| self.f.as_const(a)) {
                        if let Some(slot) = usize::try_from(r)
                            .ok()
                            .and_then(|r| self.fallback_blocks.get_mut(RegionId::from_index(r)))
                        {
                            *slot = Some(else_b);
                        }
                    }
                }
                let rc = self.read_int(Entity::Val(cond), 0)?;
                self.asm.branch_to(Op::Bne, rc, self.label(then_b));
                if next != Some(else_b) {
                    self.asm.branch_to(Op::Br, ZERO, self.label(else_b));
                }
            }
            Terminator::Switch {
                val,
                ref cases,
                default,
            } => {
                for &(c, t) in cases {
                    // Reload per comparison: load_const may clobber both
                    // scratch registers for 64-bit cases.
                    if (0..=255).contains(&c) {
                        let rv = self.read_int(Entity::Val(val), 0)?;
                        let sc = INT_SCRATCH[1];
                        self.push(Inst::op3(Op::Cmpeq, rv, Operand::Lit(c as u8), sc));
                        self.asm.branch_to(Op::Bne, sc, self.label(t));
                    } else {
                        let sc = INT_SCRATCH[1];
                        self.load_const(sc, c);
                        let rv = self.read_int(Entity::Val(val), 0)?;
                        self.push(Inst::op3(Op::Cmpeq, rv, Operand::Reg(sc), sc));
                        self.asm.branch_to(Op::Bne, sc, self.label(t));
                    }
                }
                if next != Some(default) {
                    self.asm.branch_to(Op::Br, ZERO, self.label(default));
                }
            }
            Terminator::Return(v) => {
                if let Some(v) = v {
                    if self.ret_float {
                        let fv = self.read_flt(Entity::Val(v), 0)?;
                        self.move_flt(0, fv);
                    } else {
                        let rv = self.read_int(Entity::Val(v), 0)?;
                        self.move_int(0, rv);
                    }
                }
                self.epilogue();
            }
            Terminator::EnterRegion { region, .. } => {
                let item = self.asm.push(Inst {
                    op: Op::EnterRegion,
                    ra: 0,
                    rb: Operand::Reg(ZERO),
                    rc: 0,
                    imm: i32::from(region_base_index + region.index() as u16),
                });
                enter_pcs[region] = Some(item);
            }
            Terminator::EndSetup { region, table, .. } => {
                let rt = self.read_int(Entity::Val(table), 0)?;
                self.move_int(dyncomp_machine::isa::CTP, rt);
                self.asm.push(Inst {
                    op: Op::EndSetup,
                    ra: 0,
                    rb: Operand::Reg(ZERO),
                    rc: 0,
                    imm: i32::from(region_base_index + region.index() as u16),
                });
            }
            Terminator::Unreachable => {
                self.asm.push(Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: Operand::Reg(ZERO),
                    rc: 0,
                    imm: 0,
                });
            }
            Terminator::ConstBranch { .. } | Terminator::ConstSwitch { .. } => {
                return Err(CodegenError::Internal(
                    "constant branch outside template code".into(),
                ));
            }
        }
        Ok(())
    }

    // ---- template blocks ----

    fn template_block(&mut self, b: BlockId, spec: &RegionSpec) -> Result<(), CodegenError> {
        let start = self.tmpl.as_ref().expect("template mode").at();
        let f = self.f;
        for &i in &f.blocks[b].insts {
            self.inst(i)?;
        }
        let marker = self.f.blocks[b].marker.clone().map(|m| match m {
            TemplateMarker::EnterLoop { root } => LoopMarker::Enter { root },
            TemplateMarker::RestartLoop { next_slot } => LoopMarker::Restart { next_slot },
            TemplateMarker::ExitLoop => LoopMarker::Exit,
        });
        let label_of = |t: &TemplateBuf, b2: BlockId| -> Option<u32> { t.label_of(b2) };
        let exit =
            match f.blocks[b].term {
                Terminator::Jump(t) => {
                    let tb = self.tmpl.as_ref().unwrap();
                    match label_of(tb, t) {
                        Some(l) => TmplExit::Jump(l),
                        None => {
                            // Region exit stub.
                            let idx = spec.exit_targets.iter().position(|&x| x == t).ok_or_else(
                                || CodegenError::Internal("template jump to unknown target".into()),
                            )?;
                            TmplExit::ExitRegion { exit: idx as u32 }
                        }
                    }
                }
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let rc = self.read_int(Entity::Val(cond), 0)?;
                    let at = self.tmpl.as_ref().unwrap().at();
                    self.push(Inst::branch(Op::Bne, rc, 0));
                    let tb = self.tmpl.as_ref().unwrap();
                    let taken = label_of(tb, then_b).ok_or_else(|| {
                        CodegenError::Internal("template branch to non-template".into())
                    })?;
                    let fall = label_of(tb, else_b).ok_or_else(|| {
                        CodegenError::Internal("template branch to non-template".into())
                    })?;
                    TmplExit::CondBranch { at, taken, fall }
                }
                Terminator::ConstBranch {
                    ref slot,
                    then_b,
                    else_b,
                } => {
                    let tb = self.tmpl.as_ref().unwrap();
                    TmplExit::ConstBranch {
                        slot: slot.clone(),
                        then_l: label_of(tb, then_b)
                            .ok_or_else(|| CodegenError::Internal("constbranch target".into()))?,
                        else_l: label_of(tb, else_b)
                            .ok_or_else(|| CodegenError::Internal("constbranch target".into()))?,
                    }
                }
                Terminator::ConstSwitch {
                    ref slot,
                    ref cases,
                    default,
                } => {
                    let tb = self.tmpl.as_ref().unwrap();
                    let cs: Option<Vec<(i64, u32)>> = cases
                        .iter()
                        .map(|(c, t)| label_of(tb, *t).map(|l| (*c, l)))
                        .collect();
                    TmplExit::ConstSwitch {
                        slot: slot.clone(),
                        cases: cs
                            .ok_or_else(|| CodegenError::Internal("constswitch target".into()))?,
                        default: label_of(tb, default)
                            .ok_or_else(|| CodegenError::Internal("constswitch default".into()))?,
                    }
                }
                Terminator::Switch { .. } => {
                    return Err(CodegenError::Internal(
                        "dynamic switch inside template not legalized".into(),
                    ));
                }
                Terminator::Return(v) => {
                    if let Some(v) = v {
                        if self.ret_float {
                            let fv = self.read_flt(Entity::Val(v), 0)?;
                            self.move_flt(0, fv);
                        } else {
                            let rv = self.read_int(Entity::Val(v), 0)?;
                            self.move_int(0, rv);
                        }
                    }
                    self.epilogue();
                    TmplExit::Return
                }
                ref other => {
                    return Err(CodegenError::Internal(format!(
                        "terminator {other:?} inside template"
                    )))
                }
            };
        let t = self.tmpl.as_mut().unwrap();
        let end = t.at();
        let holes = std::mem::take(&mut t.cur_holes);
        t.blocks.push(TmplBlock {
            start,
            end,
            holes,
            marker,
            exit,
        });
        Ok(())
    }
}
