//! Lowering from MiniC AST to the `dyncomp-ir` three-address CFG.
//!
//! Annotations lower as follows (§2 of the paper):
//!
//! * `dynamicRegion (v…) { … }` — the body becomes a single-entry block
//!   range recorded in [`dyncomp_ir::DynRegion`]; the values of the
//!   annotated variables at region entry become the region's constant
//!   roots; `key(…)` variables are additionally recorded as cache keys.
//! * `unrolled for` — the loop's header block is flagged
//!   `unrolled_header`.
//! * `dynamic*p`, `p dynamic-> f`, `a dynamic[i]` — the emitted load
//!   carries `dynamic: true` so the constants analysis never treats the
//!   loaded value as invariant.
//!
//! With [`LowerOptions::honor_annotations`] off, the same source lowers as
//! plain C (the statically compiled baseline of §5's measurements).

use crate::ast::*;
use crate::names::{Names, Sym};
use crate::types::{CType, TypeTable};
use dyncomp_ir::fxhash::{FxHashMap, FxHashSet};
use dyncomp_ir::{
    BinOp, BlockId, DynRegion, FuncId, Function, Global, GlobalId, IdSet, InstData, InstId,
    InstKind, Intrinsic, MemSize, Module, Signedness, Terminator, Ty, UnOp, VarId, VarInfo,
};
use std::fmt;

/// Lowering configuration.
#[derive(Clone, Copy, Debug)]
pub struct LowerOptions {
    /// Honor `dynamicRegion`/`unrolled`/`dynamic` annotations. When false
    /// the program lowers as plain C (the static baseline).
    pub honor_annotations: bool,
    /// Also lower a statically compiled *fallback copy* of every dynamic
    /// region body, guarded by an opaque [`Intrinsic::TierProbe`] branch.
    /// The tiered engine redirects a cold `EnterRegion` trap to the
    /// fallback while set-up + stitching run on a background worker. Only
    /// meaningful with `honor_annotations`; off by default (the default
    /// lowering stays byte-identical to the untiered compiler).
    pub tiered_fallback: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            honor_annotations: true,
            tiered_fallback: false,
        }
    }
}

/// Lowering failure.
///
/// The call-path failures are typed so callers (and tests) can match on
/// them rather than scrape message strings; everything else is collected
/// under [`LowerError::Other`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A call names a function that is defined nowhere in the program
    /// (and is not an intrinsic).
    UndefinedFunction {
        /// Function being lowered when the call was found.
        func: String,
        /// The undefined callee's name.
        name: String,
    },
    /// A call passes the wrong number of arguments for its callee's
    /// declared signature.
    ArityMismatch {
        /// Function being lowered when the call was found.
        func: String,
        /// The callee's name.
        name: String,
        /// Declared parameter count.
        expected: usize,
        /// Argument count at the call site.
        got: usize,
    },
    /// Any other lowering failure (type errors, unknown identifiers,
    /// malformed annotations, unsupported constructs).
    Other(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UndefinedFunction { func, name } => write!(
                f,
                "lowering error: in `{func}`: call to undefined function `{name}`"
            ),
            LowerError::ArityMismatch {
                func,
                name,
                expected,
                got,
            } => write!(
                f,
                "lowering error: in `{func}`: `{name}` expects {expected} arguments, got {got}"
            ),
            LowerError::Other(m) => write!(f, "lowering error: {m}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<crate::types::TypeError> for LowerError {
    fn from(e: crate::types::TypeError) -> Self {
        LowerError::Other(e.0)
    }
}

/// The lowered module together with its type table.
#[derive(Debug)]
pub struct Lowered {
    /// The IR module (not yet in SSA form).
    pub module: Module,
    /// Struct layouts, for host-side data construction.
    pub types: TypeTable,
}

/// A function's signature: its id, return type and the run of
/// parameter types in [`lower`]'s flat list.
#[derive(Clone, Copy)]
struct Sig {
    fid: FuncId,
    ret: CType,
    params: (usize, usize),
}

/// Lower a parsed program.
///
/// # Errors
/// Reports type errors, unknown identifiers, unsupported constructs and
/// malformed annotations.
pub fn lower(prog: &Program<'_>, opts: &LowerOptions) -> Result<Lowered, LowerError> {
    let names = &prog.names;
    let mut types = TypeTable::new();
    let mut module = Module::new();
    // Globals and functions by symbol.
    let mut globals: Vec<Option<(GlobalId, CType)>> = vec![None; names.len()];
    let mut funcs: Vec<Option<Sig>> = vec![None; names.len()];
    let mut param_tys: Vec<CType> = Vec::new();

    // Pass 0: declare struct tags (allows self-referential pointer fields).
    for top in &prog.tops {
        if let Top::Struct { name, .. } = top {
            types.declare_struct(*name, names.name(*name));
        }
    }

    // Pass 1: structs, globals, function signatures.
    for top in &prog.tops {
        match top {
            Top::Struct { name, fields } => {
                let mut fs = Vec::with_capacity(fields.len());
                for (tn, fname, array) in fields {
                    let fty = types.resolve(tn, *array, names)?;
                    fs.push((names.name(*fname).to_string(), fty));
                }
                types.define_struct(*name, names.name(*name), fs)?;
            }
            Top::Global {
                ty,
                name: sym,
                array,
                init,
            } => {
                let name = names.name(*sym);
                let cty = types.resolve(ty, *array, names)?;
                let size = types.size_of(cty)?;
                let align = types.align_of(cty)?;
                let mut bytes = Vec::new();
                let elem = match cty {
                    CType::Array(e, _) => types.get(e),
                    other => other,
                };
                let esize = types.size_of(elem)? as usize;
                for &e in &prog[*init] {
                    let v = const_expr(prog, e, elem)?;
                    bytes.extend_from_slice(&v.to_le_bytes()[..esize]);
                }
                if bytes.len() as u64 > size {
                    return Err(LowerError::Other(format!(
                        "too many initializers for `{name}`"
                    )));
                }
                let gid = module.globals.push(Global {
                    name: name.to_string(),
                    size,
                    init: bytes,
                    align,
                });
                if globals[sym.index()].replace((gid, cty)).is_some() {
                    return Err(LowerError::Other(format!("duplicate global `{name}`")));
                }
            }
            Top::Func {
                ret,
                name: sym,
                params,
                ..
            } => {
                let name = names.name(*sym);
                let rty = types.resolve(ret, None, names)?;
                let first = param_tys.len();
                for (t, _) in params {
                    let p = types.resolve(t, None, names)?;
                    param_tys.push(p);
                }
                let ptys = &param_tys[first..];
                if ptys
                    .iter()
                    .any(|p| matches!(p, CType::Struct(_) | CType::Array(..)))
                {
                    return Err(LowerError::Other(format!(
                        "function `{name}`: struct/array parameters by value are not supported"
                    )));
                }
                let ir_params: Vec<Ty> = ptys.iter().map(|&p| ty_of(p)).collect();
                let fid = module.funcs.push(Function::new(
                    name,
                    ir_params,
                    match rty {
                        CType::Void => Ty::None,
                        t => ty_of(t),
                    },
                ));
                let sig = Sig {
                    fid,
                    ret: rty,
                    params: (first, param_tys.len()),
                };
                if funcs[sym.index()].replace(sig).is_some() {
                    return Err(LowerError::Other(format!("duplicate function `{name}`")));
                }
            }
        }
    }

    // Pass 2: function bodies, through one lowerer whose tables every
    // function reuses.
    let mut lw = FnLowerer {
        prog,
        names,
        types: &mut types,
        globals: &globals,
        funcs: &funcs,
        param_tys: &param_tys,
        opts,
        f: Function::new("", vec![], Ty::None),
        cur: BlockId(0),
        open: Vec::new(),
        bindings: vec![None; names.len()],
        undo: Vec::new(),
        scope_marks: Vec::new(),
        loop_stack: Vec::new(),
        labels: FxHashMap::default(),
        defined_labels: FxHashSet::default(),
        region_depth: 0,
        label_region: FxHashMap::default(),
        frame_names: vec![false; names.len()],
        ret_ty: CType::Void,
        suppress_annotations: false,
        label_ns: None,
    };
    for top in &prog.tops {
        let Top::Func {
            name,
            params,
            body,
            exprs,
            ..
        } = top
        else {
            continue;
        };
        let Some(sig) = funcs[name.index()] else {
            unreachable!("pass 1 declared every function")
        };
        std::mem::swap(&mut lw.f, &mut module.funcs[sig.fid]);
        lw.begin(sig.ret, *exprs);
        lw.lower_params(params, sig.params)?;
        lw.stmt(*body)?;
        lw.finish()?;
        std::mem::swap(&mut lw.f, &mut module.funcs[sig.fid]);
    }
    module.retype_calls();
    Ok(Lowered { module, types })
}

/// Evaluate a constant initializer expression.
fn const_expr(prog: &Program<'_>, e: ExprId, ty: CType) -> Result<u64, LowerError> {
    Ok(match prog[e] {
        Expr::IntLit(v) => {
            if ty == CType::Double {
                (v as f64).to_bits()
            } else {
                v as u64
            }
        }
        Expr::FloatLit(v) => {
            if ty == CType::Double {
                v.to_bits()
            } else {
                v as i64 as u64
            }
        }
        Expr::Un(UnAop::Neg, inner) => {
            let v = const_expr(prog, inner, ty)?;
            if ty == CType::Double {
                (-f64::from_bits(v)).to_bits()
            } else {
                (v as i64).wrapping_neg() as u64
            }
        }
        _ => {
            return Err(LowerError::Other(
                "global initializers must be literal constants".into(),
            ))
        }
    })
}

fn ty_of(t: CType) -> Ty {
    match t {
        CType::Double => Ty::Float,
        CType::Void => Ty::None,
        _ => Ty::Int,
    }
}

fn mem_size(types: &TypeTable, t: CType) -> Result<MemSize, LowerError> {
    Ok(match types.size_of(t).map_err(LowerError::from)? {
        1 => MemSize::B1,
        2 => MemSize::B2,
        4 => MemSize::B4,
        8 => MemSize::B8,
        n => {
            return Err(LowerError::Other(format!(
                "cannot load/store {n}-byte object directly"
            )))
        }
    })
}

#[derive(Clone, Copy)]
struct LocalInfo {
    var: VarId,
    ty: CType,
}

/// An lvalue: either a renameable variable or a memory location.
#[derive(Clone, Copy)]
enum LValue {
    Var(VarId, CType),
    Mem {
        addr: InstId,
        ty: CType,
        dynamic: bool,
    },
}

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

/// A source label in its namespace: `None` for the function body, the
/// region index for a tiered fallback copy of that region's body.
type LabelKey = (Option<usize>, Sym);

struct FnLowerer<'a> {
    prog: &'a Program<'a>,
    names: &'a Names<'a>,
    types: &'a mut TypeTable,
    globals: &'a [Option<(GlobalId, CType)>],
    funcs: &'a [Option<Sig>],
    param_tys: &'a [CType],
    opts: &'a LowerOptions,
    /// The function being lowered (swapped in from the module).
    f: Function,
    cur: BlockId,
    /// Instructions emitted into `cur` since it became current.
    open: Vec<InstId>,
    /// The innermost local each symbol names, by symbol; a declaration
    /// logs what it shadowed in `undo`, and leaving a scope restores the
    /// log back to the scope's mark.
    bindings: Vec<Option<LocalInfo>>,
    undo: Vec<(Sym, Option<LocalInfo>)>,
    scope_marks: Vec<usize>,
    loop_stack: Vec<LoopCtx>,
    labels: FxHashMap<LabelKey, BlockId>,
    defined_labels: FxHashSet<LabelKey>,
    region_depth: u32,
    label_region: FxHashMap<LabelKey, u32>,
    /// Whether the function takes the address of the symbol, by symbol.
    frame_names: Vec<bool>,
    ret_ty: CType,
    /// Set while lowering a tiered fallback copy of a region body: the
    /// copy is plain static code, so `unrolled`/`dynamic` annotations and
    /// nested `dynamicRegion`s inside it are ignored rather than honored.
    suppress_annotations: bool,
    /// Label namespace, set while lowering a fallback copy so the
    /// duplicated body's labels don't collide with the original's.
    label_ns: Option<usize>,
}

impl<'a> FnLowerer<'a> {
    // ---- plumbing ----

    fn emit(&mut self, kind: InstKind) -> InstId {
        let ty = self.f.infer_ty(&kind);
        let id = self.f.insts.push(InstData { kind, ty });
        self.open.push(id);
        id
    }

    fn iconst(&mut self, v: i64) -> InstId {
        self.emit(InstKind::Const(dyncomp_ir::Const::Int(v)))
    }

    /// Whether dynamic-compilation annotations are honored at this point:
    /// globally enabled and not inside a tiered fallback copy.
    fn honor(&self) -> bool {
        self.opts.honor_annotations && !self.suppress_annotations
    }

    /// The label key for source label `l` in the current label namespace.
    fn label_key(&self, l: Sym) -> LabelKey {
        (self.label_ns, l)
    }

    /// The name `sym` stands for.
    fn name(&self, sym: Sym) -> &'a str {
        self.names.name(sym)
    }

    fn new_block(&mut self) -> BlockId {
        self.f.add_block()
    }

    fn terminate(&mut self, t: Terminator) {
        if matches!(self.f.blocks[self.cur].term, Terminator::Unreachable) {
            self.f.blocks[self.cur].term = t;
        }
        // Otherwise the block already ended (e.g. code after return):
        // subsequent code goes to a fresh unreachable block.
    }

    fn start_block(&mut self, b: BlockId) {
        self.close_block();
        self.cur = b;
    }

    fn jump_to_new(&mut self) -> BlockId {
        let b = self.new_block();
        self.terminate(Terminator::Jump(b));
        self.start_block(b);
        b
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError::Other(format!(
            "in `{}`: {}",
            self.f.name,
            msg.into()
        )))
    }

    // ---- setup ----

    /// Start on the function in `self.f`, whose body's expressions are
    /// `exprs`.
    fn begin(&mut self, ret_ty: CType, exprs: List<Expr>) {
        self.cur = self.f.entry;
        self.open.clear();
        // Most expressions lower to one or two instructions: room for two
        // each spares the list most of its regrowths.
        self.f.insts.reserve(2 * exprs.len() + 8);
        self.f.blocks.reserve(exprs.len() / 2 + 4);
        self.ret_ty = ret_ty;
        self.region_depth = 0;
        self.labels.clear();
        self.defined_labels.clear();
        self.label_region.clear();
        self.loop_stack.clear();
        self.push_scope();
        // A local lives in the frame when the body takes its address
        // anywhere: `&x` among the body's expressions.
        self.frame_names.fill(false);
        for e in &self.prog[exprs] {
            if let Expr::AddrOf(inner) = *e {
                if let Expr::Ident(n) = self.prog[inner] {
                    self.frame_names[n.index()] = true;
                }
            }
        }
    }

    /// Move the instructions emitted into the current block to it, so
    /// each block's list is allocated once at its final length.
    fn close_block(&mut self) {
        if !self.open.is_empty() {
            self.f.blocks[self.cur].insts.extend_from_slice(&self.open);
            self.open.clear();
        }
    }

    fn push_scope(&mut self) {
        self.scope_marks.push(self.undo.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().unwrap_or(0);
        for (sym, shadowed) in self.undo.drain(mark..).rev() {
            self.bindings[sym.index()] = shadowed;
        }
    }

    fn declare(&mut self, sym: Sym, info: LocalInfo) {
        let shadowed = self.bindings[sym.index()].replace(info);
        self.undo.push((sym, shadowed));
    }

    fn lower_params(
        &mut self,
        params: &[(TypeName, Sym)],
        (first, end): (usize, usize),
    ) -> Result<(), LowerError> {
        let ptys = &self.param_tys[first..end];
        for (i, (&(_, sym), &cty)) in params.iter().zip(ptys).enumerate() {
            let name = self.name(sym);
            if self.frame_names[sym.index()] {
                return self.err(format!("cannot take the address of parameter `{name}`"));
            }
            let var = self.f.vars.push(VarInfo {
                name: name.to_string(),
                ty: ty_of(cty),
                frame_size: None,
            });
            let p = self.emit(InstKind::Param(i as u32));
            self.emit(InstKind::SetVar(var, p));
            self.declare(sym, LocalInfo { var, ty: cty });
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), LowerError> {
        // Implicit return at the end of the function.
        if matches!(self.f.blocks[self.cur].term, Terminator::Unreachable) {
            let t = match self.ret_ty {
                CType::Void => Terminator::Return(None),
                CType::Double => {
                    let z = self.emit(InstKind::Const(dyncomp_ir::Const::Float(0.0)));
                    Terminator::Return(Some(z))
                }
                _ => {
                    let z = self.iconst(0);
                    Terminator::Return(Some(z))
                }
            };
            self.terminate(t);
        }
        self.close_block();
        self.pop_scope();
        // Report the first undefined label referenced (a label gets its
        // block when first named), a fallback copy's with its `$fb<r>$`
        // prefix.
        let undefined = self
            .labels
            .iter()
            .filter(|(l, _)| !self.defined_labels.contains(*l));
        if let Some(((ns, l), _)) = undefined.min_by_key(|(_, b)| **b) {
            let l = self.name(*l);
            return Err(LowerError::Other(match ns {
                Some(r) => format!("undefined label `$fb{r}${l}`"),
                None => format!("undefined label `{l}`"),
            }));
        }
        Ok(())
    }

    fn lookup(&self, name: Sym) -> Option<LocalInfo> {
        self.bindings[name.index()]
    }

    // ---- statements ----

    /// Lower one statement. Every kind with locals of its own has its own
    /// method, so this frame, repeated once per nesting level, stays
    /// small: `parser::MAX_NESTING` levels fit a 2 MiB stack in a debug
    /// build. `expr` and `lvalue` dispatch the same way.
    fn stmt(&mut self, s: StmtId) -> Result<(), LowerError> {
        match self.prog[s] {
            Stmt::Block(v) => {
                self.push_scope();
                for &s in &self.prog[v] {
                    self.stmt(s)?;
                }
                self.pop_scope();
            }
            Stmt::Decls(v) => {
                for &s in &self.prog[v] {
                    self.stmt(s)?;
                }
            }
            Stmt::Decl {
                ty,
                name: sym,
                array,
                init,
            } => self.decl(ty, sym, array, init)?,
            Stmt::Expr(e) => {
                self.expr(e)?;
            }
            Stmt::If(c, t, e) => self.if_stmt(c, t, e)?,
            Stmt::While(c, body) => self.while_stmt(c, body)?,
            Stmt::DoWhile(body, c) => self.do_while(body, c)?,
            Stmt::For {
                init,
                cond,
                step,
                body,
                unrolled,
            } => self.for_stmt(init, cond, step, body, unrolled)?,
            Stmt::Switch(scrut, items) => self.switch(scrut, items)?,
            Stmt::Break => {
                let Some(l) = self.loop_stack.last() else {
                    return self.err("break outside loop/switch");
                };
                let t = l.break_to;
                self.terminate(Terminator::Jump(t));
                let dead = self.new_block();
                self.start_block(dead);
            }
            Stmt::Continue => {
                let Some(l) = self.loop_stack.last() else {
                    return self.err("continue outside loop");
                };
                let t = l.continue_to;
                self.terminate(Terminator::Jump(t));
                let dead = self.new_block();
                self.start_block(dead);
            }
            Stmt::Return(e) => self.return_stmt(e)?,
            Stmt::Goto(l) => self.goto(l)?,
            Stmt::Label(l, inner) => self.label(l, inner)?,
            Stmt::DynamicRegion { consts, keys, body } => {
                self.dynamic_region(consts, keys, body)?
            }
        }
        Ok(())
    }

    fn decl(
        &mut self,
        ty: TypeName,
        sym: Sym,
        array: Option<u64>,
        init: Option<ExprId>,
    ) -> Result<(), LowerError> {
        let name = self.name(sym);
        let cty = self.types.resolve(&ty, array, self.names)?;
        let is_frame = array.is_some()
            || matches!(cty, CType::Struct(_) | CType::Array(..))
            || self.frame_names[sym.index()];
        let frame_size = if is_frame {
            Some(self.types.size_of(cty)?)
        } else {
            None
        };
        let var = self.f.vars.push(VarInfo {
            name: name.to_string(),
            ty: ty_of(cty),
            frame_size,
        });
        self.declare(sym, LocalInfo { var, ty: cty });
        if let Some(e) = init {
            if matches!(cty, CType::Struct(_) | CType::Array(..)) {
                return self.err(format!(
                    "initializer on aggregate `{name}` is not supported"
                ));
            }
            let (v, vty) = self.expr(e)?;
            let v = self.coerce(v, vty, cty)?;
            if is_frame {
                // Address-taken scalar: initialize through memory.
                let addr = self.emit(InstKind::FrameAddr(var));
                let size = mem_size(self.types, cty)?;
                let float = cty == CType::Double;
                self.emit(InstKind::Store {
                    size,
                    addr,
                    val: v,
                    float,
                });
            } else {
                self.emit(InstKind::SetVar(var, v));
            }
        }
        Ok(())
    }

    fn if_stmt(&mut self, c: ExprId, t: StmtId, e: Option<StmtId>) -> Result<(), LowerError> {
        let cond = self.cond_value(c)?;
        let bt = self.new_block();
        let be = self.new_block();
        let join = self.new_block();
        self.terminate(Terminator::Branch {
            cond,
            then_b: bt,
            else_b: be,
        });
        self.start_block(bt);
        self.stmt(t)?;
        self.terminate(Terminator::Jump(join));
        self.start_block(be);
        if let Some(e) = e {
            self.stmt(e)?;
        }
        self.terminate(Terminator::Jump(join));
        self.start_block(join);
        Ok(())
    }

    fn while_stmt(&mut self, c: ExprId, body: StmtId) -> Result<(), LowerError> {
        let header = self.jump_to_new();
        let bbody = self.new_block();
        let exit = self.new_block();
        let cond = self.cond_value(c)?;
        self.terminate(Terminator::Branch {
            cond,
            then_b: bbody,
            else_b: exit,
        });
        self.loop_stack.push(LoopCtx {
            break_to: exit,
            continue_to: header,
        });
        self.start_block(bbody);
        self.stmt(body)?;
        self.terminate(Terminator::Jump(header));
        self.loop_stack.pop();
        self.start_block(exit);
        Ok(())
    }

    fn do_while(&mut self, body: StmtId, c: ExprId) -> Result<(), LowerError> {
        let bbody = self.jump_to_new();
        let check = self.new_block();
        let exit = self.new_block();
        self.loop_stack.push(LoopCtx {
            break_to: exit,
            continue_to: check,
        });
        self.stmt(body)?;
        self.terminate(Terminator::Jump(check));
        self.loop_stack.pop();
        self.start_block(check);
        let cond = self.cond_value(c)?;
        self.terminate(Terminator::Branch {
            cond,
            then_b: bbody,
            else_b: exit,
        });
        self.start_block(exit);
        Ok(())
    }

    fn for_stmt(
        &mut self,
        init: Option<StmtId>,
        cond: Option<ExprId>,
        step: Option<ExprId>,
        body: StmtId,
        unrolled: bool,
    ) -> Result<(), LowerError> {
        self.push_scope();
        if let Some(i) = init {
            self.stmt(i)?;
        }
        let header = self.jump_to_new();
        if unrolled && self.honor() {
            if cond.is_none() {
                return self.err("unrolled for-loop requires a condition");
            }
            if self.region_depth == 0 {
                return self.err("unrolled loop outside a dynamicRegion");
            }
            self.f.blocks[header].unrolled_header = true;
        }
        let bbody = self.new_block();
        let bstep = self.new_block();
        let exit = self.new_block();
        match cond {
            Some(c) => {
                let cv = self.cond_value(c)?;
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_b: bbody,
                    else_b: exit,
                });
            }
            None => self.terminate(Terminator::Jump(bbody)),
        }
        self.loop_stack.push(LoopCtx {
            break_to: exit,
            continue_to: bstep,
        });
        self.start_block(bbody);
        self.stmt(body)?;
        self.terminate(Terminator::Jump(bstep));
        self.loop_stack.pop();
        self.start_block(bstep);
        if let Some(s) = step {
            self.expr(s)?;
        }
        self.terminate(Terminator::Jump(header));
        self.start_block(exit);
        self.pop_scope();
        Ok(())
    }

    fn switch(&mut self, scrut: ExprId, items: List<SwitchItem>) -> Result<(), LowerError> {
        let (v, vty) = self.expr(scrut)?;
        if !vty.is_integer() {
            return self.err("switch scrutinee must be an integer");
        }
        // One block per label position; statements flow between.
        let exit = self.new_block();
        let mut case_blocks: Vec<(Option<i64>, BlockId)> = Vec::new();
        for item in &self.prog[items] {
            if let SwitchItem::Label(l) = *item {
                case_blocks.push((l, self.f.add_block()));
            }
        }
        let default = case_blocks
            .iter()
            .find(|(l, _)| l.is_none())
            .map(|(_, b)| *b)
            .unwrap_or(exit);
        let cases: Vec<(i64, BlockId)> = case_blocks
            .iter()
            .filter_map(|(l, b)| l.map(|v| (v, *b)))
            .collect();
        self.terminate(Terminator::Switch {
            val: v,
            cases,
            default,
        });
        self.loop_stack.push(LoopCtx {
            break_to: exit,
            continue_to: self
                .loop_stack
                .last()
                .map(|l| l.continue_to)
                .unwrap_or(exit),
        });
        let mut next_case = 0usize;
        // Code before the first label is unreachable; start there
        // anyway in a scratch block.
        let scratch = self.new_block();
        self.start_block(scratch);
        for &item in &self.prog[items] {
            match item {
                SwitchItem::Label(_) => {
                    let b = case_blocks[next_case].1;
                    next_case += 1;
                    self.terminate(Terminator::Jump(b)); // fall-through
                    self.start_block(b);
                }
                SwitchItem::Stmt(s) => self.stmt(s)?,
            }
        }
        self.terminate(Terminator::Jump(exit));
        self.loop_stack.pop();
        self.start_block(exit);
        Ok(())
    }

    fn return_stmt(&mut self, e: Option<ExprId>) -> Result<(), LowerError> {
        let t = match e {
            Some(e) => {
                let (v, vty) = self.expr(e)?;
                let v = self.coerce(v, vty, self.ret_ty)?;
                Terminator::Return(Some(v))
            }
            None => Terminator::Return(None),
        };
        self.terminate(t);
        let dead = self.new_block();
        self.start_block(dead);
        Ok(())
    }

    fn goto(&mut self, l: Sym) -> Result<(), LowerError> {
        let key = self.label_key(l);
        let l = self.name(l);
        let depth = self.region_depth;
        if let Some(&d) = self.label_region.get(&key) {
            if d != depth {
                return self.err(format!("goto `{l}` crosses a dynamicRegion boundary"));
            }
        } else {
            self.label_region.insert(key, depth);
        }
        let b = *self
            .labels
            .entry(key)
            .or_insert_with(|| self.f.blocks.push(dyncomp_ir::Block::new()));
        self.terminate(Terminator::Jump(b));
        let dead = self.new_block();
        self.start_block(dead);
        Ok(())
    }

    fn label(&mut self, l: Sym, inner: StmtId) -> Result<(), LowerError> {
        let key = self.label_key(l);
        let l = self.name(l);
        if self.defined_labels.contains(&key) {
            return self.err(format!("duplicate label `{l}`"));
        }
        let depth = self.region_depth;
        if let Some(&d) = self.label_region.get(&key) {
            if d != depth {
                return self.err(format!(
                    "label `{l}` targeted from across a dynamicRegion boundary"
                ));
            }
        } else {
            self.label_region.insert(key, depth);
        }
        self.defined_labels.insert(key);
        let b = *self
            .labels
            .entry(key)
            .or_insert_with(|| self.f.blocks.push(dyncomp_ir::Block::new()));
        self.terminate(Terminator::Jump(b));
        self.start_block(b);
        self.stmt(inner)?;
        Ok(())
    }

    fn dynamic_region(
        &mut self,
        consts: List<Sym>,
        keys: List<Sym>,
        body: StmtId,
    ) -> Result<(), LowerError> {
        if !self.honor() {
            // Static baseline (or tiered fallback copy): lower as a
            // plain block.
            self.stmt(body)?;
            return Ok(());
        }
        if self.region_depth > 0 {
            return self.err("nested dynamicRegions are not supported");
        }
        // Region roots: values of annotated variables at entry.
        let (consts, keys) = (&self.prog[consts], &self.prog[keys]);
        let mut root_ids = Vec::new();
        for &sym in consts
            .iter()
            .chain(keys.iter().filter(|k| !consts.contains(k)))
        {
            let name = self.name(sym);
            let Some(info) = self.lookup(sym) else {
                return self.err(format!("annotated variable `{name}` is not in scope"));
            };
            if self.f.vars[info.var].frame_size.is_some() {
                return self.err(format!(
                    "annotated variable `{name}` is frame-allocated; only scalar \
                     variables can be run-time constants"
                ));
            }
            root_ids.push((sym, self.emit(InstKind::GetVar(info.var))));
        }
        let key_ids: Vec<InstId> = keys
            .iter()
            .map(|k| {
                root_ids
                    .iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| *v)
                    .unwrap()
            })
            .collect();
        // Tiered lowering guards the region with an opaque probe
        // branching to a statically compiled fallback copy of the
        // body. Fallback and join blocks are created *before* the
        // region's blocks so the region's contiguous block index
        // range excludes them.
        let guard = if self.opts.tiered_fallback {
            let probe_arg = self.iconst(self.f.regions.len() as i64);
            let probe = self.emit(InstKind::CallIntrinsic {
                which: Intrinsic::TierProbe,
                args: vec![probe_arg],
            });
            Some((probe, self.new_block(), self.new_block()))
        } else {
            None
        };
        let entry = self.new_block();
        match guard {
            Some((probe, fallback, _)) => self.terminate(Terminator::Branch {
                cond: probe,
                then_b: entry,
                else_b: fallback,
            }),
            None => self.terminate(Terminator::Jump(entry)),
        }
        self.start_block(entry);
        let first_region_block = entry;
        self.region_depth = 1;
        self.stmt(body)?;
        self.region_depth = 0;
        let exit = self.new_block();
        self.terminate(Terminator::Jump(exit));
        // All blocks created from `entry` up to (not including)
        // `exit` belong to the region. Cross-boundary gotos are
        // rejected above, so the index range is exact.
        let mut blocks = IdSet::with_domain(self.f.blocks.len());
        for i in first_region_block.index()..exit.index() {
            blocks.insert(BlockId::from_index(i));
        }
        self.f.regions.push(DynRegion {
            entry,
            blocks,
            const_roots: root_ids.iter().map(|(_, v)| *v).collect(),
            key_roots: key_ids,
        });
        self.start_block(exit);
        if let Some((_, fallback, join)) = guard {
            // Lower the fallback copy: the same body as plain static
            // code (annotations suppressed), with labels renamed into
            // a per-region namespace so the duplicate body doesn't
            // collide with the original's labels.
            self.terminate(Terminator::Jump(join));
            self.start_block(fallback);
            let ns = Some(self.f.regions.len() - 1);
            let saved_ns = std::mem::replace(&mut self.label_ns, ns);
            self.suppress_annotations = true;
            let r = self.stmt(body);
            self.suppress_annotations = false;
            self.label_ns = saved_ns;
            r?;
            self.terminate(Terminator::Jump(join));
            self.start_block(join);
        }
        Ok(())
    }

    /// Lower an expression used as a branch condition to a truthy value.
    fn cond_value(&mut self, e: ExprId) -> Result<InstId, LowerError> {
        let (v, ty) = self.expr(e)?;
        self.truthy(v, ty)
    }

    // ---- expressions ----

    fn expr(&mut self, e: ExprId) -> Result<(InstId, CType), LowerError> {
        match self.prog[e] {
            Expr::IntLit(v) => Ok((self.iconst(v), CType::int())),
            Expr::FloatLit(v) => Ok((
                self.emit(InstKind::Const(dyncomp_ir::Const::Float(v))),
                CType::Double,
            )),
            Expr::SizeOf(t) => self.size_of(t),
            Expr::Ident(_) | Expr::Deref { .. } | Expr::Index { .. } | Expr::Member { .. } => {
                let lv = self.lvalue(e)?;
                self.load_lvalue(lv)
            }
            Expr::AddrOf(inner) => self.addr_of(inner),
            Expr::Un(op, a) => self.unary(op, a),
            Expr::Cast(tn, inner) => self.cast(tn, inner),
            Expr::Bin(BinAop::LogAnd, a, b) => self.short_circuit(a, b, true),
            Expr::Bin(BinAop::LogOr, a, b) => self.short_circuit(a, b, false),
            Expr::Bin(op, a, b) => self.bin(op, a, b),
            Expr::Assign { op, lhs, rhs } => self.assign(op, lhs, rhs),
            Expr::Call { name, args } => self.call(name, args),
            Expr::Cond(c, t, e) => self.conditional(c, t, e),
            Expr::PostIncDec { lhs, inc } => self.post_inc_dec(lhs, inc),
            Expr::PreIncDec { lhs, inc } => self.pre_inc_dec(lhs, inc),
        }
    }

    fn size_of(&mut self, t: TypeName) -> Result<(InstId, CType), LowerError> {
        let ty = self.types.resolve(&t, None, self.names)?;
        let s = self.types.size_of(ty)?;
        Ok((self.iconst(s as i64), CType::unsigned()))
    }

    fn addr_of(&mut self, inner: ExprId) -> Result<(InstId, CType), LowerError> {
        let lv = self.lvalue(inner)?;
        match lv {
            LValue::Mem { addr, ty, .. } => Ok((addr, self.types.ptr_to(ty))),
            LValue::Var(v, ty) => {
                if self.f.vars[v].frame_size.is_some() {
                    Ok((self.emit(InstKind::FrameAddr(v)), self.types.ptr_to(ty)))
                } else {
                    self.err("cannot take the address of a register variable")
                }
            }
        }
    }

    fn unary(&mut self, op: UnAop, a: ExprId) -> Result<(InstId, CType), LowerError> {
        let (v, ty) = self.expr(a)?;
        match op {
            UnAop::Neg => {
                if ty == CType::Double {
                    Ok((self.emit(InstKind::Un(UnOp::FNeg, v)), CType::Double))
                } else {
                    Ok((self.emit(InstKind::Un(UnOp::Neg, v)), promote(ty)))
                }
            }
            UnAop::BitNot => {
                if !ty.is_integer() {
                    return self.err("~ requires an integer");
                }
                Ok((self.emit(InstKind::Un(UnOp::Not, v)), promote(ty)))
            }
            UnAop::LogNot => {
                let c = self.truthy(v, ty)?;
                Ok((self.emit(InstKind::Un(UnOp::LogNot, c)), CType::int()))
            }
        }
    }

    fn cast(&mut self, tn: TypeName, inner: ExprId) -> Result<(InstId, CType), LowerError> {
        let target = self.types.resolve(&tn, None, self.names)?;
        let (v, ty) = self.expr(inner)?;
        let v = self.coerce(v, ty, target)?;
        Ok((v, target))
    }

    fn bin(&mut self, op: BinAop, a: ExprId, b: ExprId) -> Result<(InstId, CType), LowerError> {
        let (va, ta) = self.expr(a)?;
        let (vb, tb) = self.expr(b)?;
        self.binary(op, va, ta, vb, tb)
    }

    fn assign(
        &mut self,
        op: Option<BinAop>,
        lhs: ExprId,
        rhs: ExprId,
    ) -> Result<(InstId, CType), LowerError> {
        let lv = self.lvalue(lhs)?;
        let lty = lv.ty();
        let (rv, rty) = self.expr(rhs)?;
        let value = match op {
            None => self.coerce(rv, rty, lty)?,
            Some(bop) => {
                let (cur, cty) = self.load_lvalue(lv)?;
                let (res, resty) = self.binary(bop, cur, cty, rv, rty)?;
                self.coerce(res, resty, lty)?
            }
        };
        self.store_lvalue(lv, value)?;
        Ok((value, lty))
    }

    fn conditional(
        &mut self,
        c: ExprId,
        t: ExprId,
        e: ExprId,
    ) -> Result<(InstId, CType), LowerError> {
        let cond = self.cond_value(c)?;
        let bt = self.new_block();
        let be = self.new_block();
        let join = self.new_block();
        let tmp = self.f.vars.push(VarInfo {
            name: "$cond".into(),
            ty: Ty::Int, // fixed up below if float
            frame_size: None,
        });
        self.terminate(Terminator::Branch {
            cond,
            then_b: bt,
            else_b: be,
        });
        self.start_block(bt);
        let (tv, tty) = self.expr(t)?;
        self.emit(InstKind::SetVar(tmp, tv));
        self.terminate(Terminator::Jump(join));
        self.start_block(be);
        let (ev, ety) = self.expr(e)?;
        let ev = self.coerce(ev, ety, tty)?;
        self.emit(InstKind::SetVar(tmp, ev));
        self.terminate(Terminator::Jump(join));
        self.start_block(join);
        if tty == CType::Double {
            self.f.vars[tmp].ty = Ty::Float;
        }
        Ok((self.emit(InstKind::GetVar(tmp)), tty))
    }

    fn post_inc_dec(&mut self, lhs: ExprId, inc: bool) -> Result<(InstId, CType), LowerError> {
        let lv = self.lvalue(lhs)?;
        let (old, ty) = self.load_lvalue(lv)?;
        let updated = self.inc_dec(old, ty, inc)?;
        self.store_lvalue(lv, updated)?;
        Ok((old, ty))
    }

    fn pre_inc_dec(&mut self, lhs: ExprId, inc: bool) -> Result<(InstId, CType), LowerError> {
        let lv = self.lvalue(lhs)?;
        let (old, ty) = self.load_lvalue(lv)?;
        let updated = self.inc_dec(old, ty, inc)?;
        self.store_lvalue(lv, updated)?;
        Ok((updated, ty))
    }

    fn inc_dec(&mut self, v: InstId, ty: CType, inc: bool) -> Result<InstId, LowerError> {
        let step: i64 = match ty {
            CType::Ptr(p) => self.types.size_of(self.types.get(p))? as i64,
            CType::Double => {
                let one = self.emit(InstKind::Const(dyncomp_ir::Const::Float(1.0)));
                let op = if inc { BinOp::FAdd } else { BinOp::FSub };
                return Ok(self.emit(InstKind::Bin(op, v, one)));
            }
            _ => 1,
        };
        let c = self.iconst(step);
        let op = if inc { BinOp::Add } else { BinOp::Sub };
        Ok(self.emit(InstKind::Bin(op, v, c)))
    }

    fn truthy(&mut self, v: InstId, ty: CType) -> Result<InstId, LowerError> {
        if ty == CType::Double {
            let z = self.emit(InstKind::Const(dyncomp_ir::Const::Float(0.0)));
            let eq = self.emit(InstKind::Bin(BinOp::FCmpEq, v, z));
            Ok(self.emit(InstKind::Un(UnOp::LogNot, eq)))
        } else {
            Ok(v)
        }
    }

    fn short_circuit(
        &mut self,
        a: ExprId,
        b: ExprId,
        is_and: bool,
    ) -> Result<(InstId, CType), LowerError> {
        let tmp = self.f.vars.push(VarInfo {
            name: "$sc".into(),
            ty: Ty::Int,
            frame_size: None,
        });
        let (va, ta) = self.expr(a)?;
        let ca = self.truthy(va, ta)?;
        let na = self.emit(InstKind::Un(UnOp::LogNot, ca));
        let nna = self.emit(InstKind::Un(UnOp::LogNot, na)); // normalize to 0/1
        self.emit(InstKind::SetVar(tmp, nna));
        let evalb = self.new_block();
        let join = self.new_block();
        if is_and {
            self.terminate(Terminator::Branch {
                cond: nna,
                then_b: evalb,
                else_b: join,
            });
        } else {
            self.terminate(Terminator::Branch {
                cond: nna,
                then_b: join,
                else_b: evalb,
            });
        }
        self.start_block(evalb);
        let (vb, tb) = self.expr(b)?;
        let cb = self.truthy(vb, tb)?;
        let nb = self.emit(InstKind::Un(UnOp::LogNot, cb));
        let nnb = self.emit(InstKind::Un(UnOp::LogNot, nb));
        self.emit(InstKind::SetVar(tmp, nnb));
        self.terminate(Terminator::Jump(join));
        self.start_block(join);
        Ok((self.emit(InstKind::GetVar(tmp)), CType::int()))
    }

    fn call(&mut self, sym: Sym, args: List<ExprId>) -> Result<(InstId, CType), LowerError> {
        let args = &self.prog[args];
        // Intrinsics first.
        let name = self.name(sym);
        let intrinsic = match name {
            "alloc" => Some(Intrinsic::Alloc),
            "max" => Some(Intrinsic::Max),
            "min" => Some(Intrinsic::Min),
            "abs" => Some(Intrinsic::Abs),
            "sqrt" => Some(Intrinsic::Sqrt),
            _ => None,
        };
        if let Some(which) = intrinsic {
            if args.len() != which.arity() {
                return self.err(format!("`{name}` takes {} arguments", which.arity()));
            }
            let mut vals = Vec::with_capacity(args.len());
            for &a in args {
                let (v, ty) = self.expr(a)?;
                let want = if which == Intrinsic::Sqrt {
                    CType::Double
                } else {
                    CType::int()
                };
                vals.push(self.coerce(v, ty, want)?);
            }
            let ret = match which {
                Intrinsic::Sqrt => CType::Double,
                Intrinsic::Alloc => self.types.ptr_to(CType::Void),
                _ => CType::int(),
            };
            return Ok((
                self.emit(InstKind::CallIntrinsic { which, args: vals }),
                ret,
            ));
        }
        let Some(Sig { fid, ret, params }) = self.funcs[sym.index()] else {
            return Err(LowerError::UndefinedFunction {
                func: self.f.name.clone(),
                name: name.to_string(),
            });
        };
        let ptys = &self.param_tys[params.0..params.1];
        if args.len() != ptys.len() {
            return Err(LowerError::ArityMismatch {
                func: self.f.name.clone(),
                name: name.to_string(),
                expected: ptys.len(),
                got: args.len(),
            });
        }
        let mut vals = Vec::with_capacity(args.len());
        for (&a, &pty) in args.iter().zip(ptys) {
            let (v, ty) = self.expr(a)?;
            vals.push(self.coerce(v, ty, pty)?);
        }
        Ok((
            self.emit(InstKind::Call {
                callee: fid,
                args: vals,
            }),
            ret,
        ))
    }

    fn binary(
        &mut self,
        op: BinAop,
        va: InstId,
        ta: CType,
        vb: InstId,
        tb: CType,
    ) -> Result<(InstId, CType), LowerError> {
        use BinAop::*;
        // Pointer arithmetic.
        let ta = ta.decay();
        let tb = tb.decay();
        if let (Add | Sub, CType::Ptr(p), t) = (op, ta, tb) {
            if t.is_integer() {
                let sz = self.types.size_of(self.types.get(p))?;
                let szc = self.iconst(sz as i64);
                let scaled = self.emit(InstKind::Bin(BinOp::Mul, vb, szc));
                let o = if op == Add { BinOp::Add } else { BinOp::Sub };
                return Ok((self.emit(InstKind::Bin(o, va, scaled)), ta));
            }
        }
        if let (Add, t, CType::Ptr(p)) = (op, ta, tb) {
            if t.is_integer() {
                let sz = self.types.size_of(self.types.get(p))?;
                let szc = self.iconst(sz as i64);
                let scaled = self.emit(InstKind::Bin(BinOp::Mul, va, szc));
                return Ok((self.emit(InstKind::Bin(BinOp::Add, vb, scaled)), tb));
            }
        }
        if let (Sub, CType::Ptr(p), CType::Ptr(_)) = (op, ta, tb) {
            let sz = self.types.size_of(self.types.get(p))?;
            let diff = self.emit(InstKind::Bin(BinOp::Sub, va, vb));
            let szc = self.iconst(sz as i64);
            return Ok((
                self.emit(InstKind::Bin(BinOp::DivS, diff, szc)),
                CType::int(),
            ));
        }

        // Float arithmetic / comparison.
        if ta == CType::Double || tb == CType::Double {
            let fa = self.coerce(va, ta, CType::Double)?;
            let fb = self.coerce(vb, tb, CType::Double)?;
            let (o, swap, is_cmp) = match op {
                Add => (BinOp::FAdd, false, false),
                Sub => (BinOp::FSub, false, false),
                Mul => (BinOp::FMul, false, false),
                Div => (BinOp::FDiv, false, false),
                Eq => (BinOp::FCmpEq, false, true),
                Ne => (BinOp::FCmpEq, false, true), // negated below
                Lt => (BinOp::FCmpLt, false, true),
                Le => (BinOp::FCmpLe, false, true),
                Gt => (BinOp::FCmpLt, true, true),
                Ge => (BinOp::FCmpLe, true, true),
                _ => return self.err("invalid float operation"),
            };
            let (x, y) = if swap { (fb, fa) } else { (fa, fb) };
            let mut r = self.emit(InstKind::Bin(o, x, y));
            if op == Ne {
                r = self.emit(InstKind::Un(UnOp::LogNot, r));
            }
            return Ok((r, if is_cmp { CType::int() } else { CType::Double }));
        }

        // Integer / pointer.
        let unsigned = !ta.is_signed() && ta.is_integer()
            || !tb.is_signed() && tb.is_integer()
            || ta.is_pointer_like()
            || tb.is_pointer_like();
        let (o, swap) = match op {
            Add => (BinOp::Add, false),
            Sub => (BinOp::Sub, false),
            Mul => (BinOp::Mul, false),
            Div => (if unsigned { BinOp::DivU } else { BinOp::DivS }, false),
            Rem => (if unsigned { BinOp::RemU } else { BinOp::RemS }, false),
            BitAnd => (BinOp::And, false),
            BitOr => (BinOp::Or, false),
            BitXor => (BinOp::Xor, false),
            Shl => (BinOp::Shl, false),
            Shr => (
                if ta.is_signed() {
                    BinOp::ShrS
                } else {
                    BinOp::ShrU
                },
                false,
            ),
            Eq => (BinOp::CmpEq, false),
            Ne => (BinOp::CmpNe, false),
            Lt => (
                if unsigned {
                    BinOp::CmpLtU
                } else {
                    BinOp::CmpLtS
                },
                false,
            ),
            Le => (
                if unsigned {
                    BinOp::CmpLeU
                } else {
                    BinOp::CmpLeS
                },
                false,
            ),
            Gt => (
                if unsigned {
                    BinOp::CmpLtU
                } else {
                    BinOp::CmpLtS
                },
                true,
            ),
            Ge => (
                if unsigned {
                    BinOp::CmpLeU
                } else {
                    BinOp::CmpLeS
                },
                true,
            ),
            LogAnd | LogOr => unreachable!("short-circuit handled earlier"),
        };
        let (x, y) = if swap { (vb, va) } else { (va, vb) };
        let is_cmp = matches!(op, Eq | Ne | Lt | Le | Gt | Ge);
        let rty = if is_cmp {
            CType::int()
        } else if ta.is_pointer_like() {
            ta
        } else if unsigned {
            CType::unsigned()
        } else {
            promote(ta)
        };
        Ok((self.emit(InstKind::Bin(o, x, y)), rty))
    }

    /// Coerce `v: from` to type `to`.
    fn coerce(&mut self, v: InstId, from: CType, to: CType) -> Result<InstId, LowerError> {
        match (from.decay(), to) {
            (CType::Double, CType::Double) => Ok(v),
            (CType::Double, t) if t.is_integer() || t.is_pointer_like() => {
                Ok(self.emit(InstKind::Un(UnOp::FloatToInt, v)))
            }
            (f, CType::Double) if f.is_integer() || f.is_pointer_like() => {
                Ok(self.emit(InstKind::Un(UnOp::IntToFloat, v)))
            }
            (_, CType::Int { size, signed }) if size < 8 => {
                let op = if signed {
                    UnOp::Sext(size * 8)
                } else {
                    UnOp::Zext(size * 8)
                };
                Ok(self.emit(InstKind::Un(op, v)))
            }
            _ => Ok(v), // same-width int/pointer conversions are free
        }
    }

    // ---- lvalues ----

    fn lvalue(&mut self, e: ExprId) -> Result<LValue, LowerError> {
        match self.prog[e] {
            Expr::Ident(sym) => self.ident_lvalue(sym),
            Expr::Deref { expr, dynamic } => self.deref_lvalue(expr, dynamic),
            Expr::Index {
                base,
                index,
                dynamic,
            } => self.index_lvalue(base, index, dynamic),
            Expr::Member {
                base,
                field,
                arrow,
                dynamic,
            } => self.member_lvalue(base, field, arrow, dynamic),
            _ => self.err("expression is not an lvalue"),
        }
    }

    fn ident_lvalue(&mut self, sym: Sym) -> Result<LValue, LowerError> {
        if let Some(info) = self.lookup(sym) {
            if self.f.vars[info.var].frame_size.is_some() {
                let addr = self.emit(InstKind::FrameAddr(info.var));
                return Ok(LValue::Mem {
                    addr,
                    ty: info.ty,
                    dynamic: false,
                });
            }
            return Ok(LValue::Var(info.var, info.ty));
        }
        if let Some((gid, gty)) = self.globals[sym.index()] {
            let addr = self.emit(InstKind::GlobalAddr(gid));
            return Ok(LValue::Mem {
                addr,
                ty: gty,
                dynamic: false,
            });
        }
        self.err(format!("unknown identifier `{}`", self.name(sym)))
    }

    fn deref_lvalue(&mut self, expr: ExprId, dynamic: bool) -> Result<LValue, LowerError> {
        let (v, ty) = self.expr(expr)?;
        let Some(p) = self.types.pointee(ty) else {
            return self.err(format!(
                "cannot dereference non-pointer ({})",
                self.types.show(ty)
            ));
        };
        Ok(LValue::Mem {
            addr: v,
            ty: p,
            dynamic: dynamic && self.honor(),
        })
    }

    fn index_lvalue(
        &mut self,
        base: ExprId,
        index: ExprId,
        dynamic: bool,
    ) -> Result<LValue, LowerError> {
        let (bv, bty) = self.expr_or_array_addr(base)?;
        let Some(elem) = self.types.pointee(bty) else {
            return self.err(format!(
                "cannot index non-pointer ({})",
                self.types.show(bty)
            ));
        };
        let (iv, _) = self.expr(index)?;
        let sz = self.types.size_of(elem)?;
        let szc = self.iconst(sz as i64);
        let scaled = self.emit(InstKind::Bin(BinOp::Mul, iv, szc));
        let addr = self.emit(InstKind::Bin(BinOp::Add, bv, scaled));
        Ok(LValue::Mem {
            addr,
            ty: elem,
            dynamic: dynamic && self.honor(),
        })
    }

    fn member_lvalue(
        &mut self,
        base: ExprId,
        field: Sym,
        arrow: bool,
        dynamic: bool,
    ) -> Result<LValue, LowerError> {
        let (base_addr, sty) = if arrow {
            let (v, ty) = self.expr(base)?;
            let Some(p) = self.types.pointee(ty) else {
                return self.err(format!("-> on non-pointer ({})", self.types.show(ty)));
            };
            (v, p)
        } else {
            match self.lvalue(base)? {
                LValue::Mem { addr, ty, .. } => (addr, ty),
                LValue::Var(..) => return self.err("member access on a register variable"),
            }
        };
        let (off, fty) = self.types.field(sty, self.name(field))?;
        let offc = self.iconst(off as i64);
        let addr = self.emit(InstKind::Bin(BinOp::Add, base_addr, offc));
        Ok(LValue::Mem {
            addr,
            ty: fty,
            dynamic: dynamic && self.honor(),
        })
    }

    /// Evaluate an expression, but yield the *address* for array-typed
    /// lvalues (array-to-pointer decay).
    fn expr_or_array_addr(&mut self, e: ExprId) -> Result<(InstId, CType), LowerError> {
        // Only lvalue expressions can have array type.
        if matches!(
            self.prog[e],
            Expr::Ident(_) | Expr::Deref { .. } | Expr::Index { .. } | Expr::Member { .. }
        ) {
            let lv = self.lvalue(e)?;
            if let LValue::Mem {
                addr,
                ty: CType::Array(elem, _),
                ..
            } = lv
            {
                return Ok((addr, CType::Ptr(elem)));
            }
            return self.load_lvalue(lv);
        }
        self.expr(e)
    }

    fn load_lvalue(&mut self, lv: LValue) -> Result<(InstId, CType), LowerError> {
        match lv {
            LValue::Var(v, ty) => Ok((self.emit(InstKind::GetVar(v)), ty)),
            LValue::Mem { addr, ty, dynamic } => match ty {
                CType::Array(elem, _) => {
                    // Decay: the "value" of an array lvalue is its address.
                    Ok((addr, CType::Ptr(elem)))
                }
                CType::Struct(_) => self.err("cannot load a whole struct"),
                _ => {
                    let size = mem_size(self.types, ty)?;
                    let sign = if ty.is_signed() {
                        Signedness::Signed
                    } else {
                        Signedness::Unsigned
                    };
                    let float = ty == CType::Double;
                    let v = self.emit(InstKind::Load {
                        size,
                        sign,
                        addr,
                        dynamic,
                        float,
                    });
                    Ok((v, ty))
                }
            },
        }
    }

    fn store_lvalue(&mut self, lv: LValue, value: InstId) -> Result<(), LowerError> {
        match lv {
            LValue::Var(v, ty) => {
                // Maintain the invariant that narrow variables hold their
                // extended value.
                let value = match ty {
                    CType::Int { size, signed } if size < 8 => {
                        let op = if signed {
                            UnOp::Sext(size * 8)
                        } else {
                            UnOp::Zext(size * 8)
                        };
                        self.emit(InstKind::Un(op, value))
                    }
                    _ => value,
                };
                self.emit(InstKind::SetVar(v, value));
                Ok(())
            }
            LValue::Mem { addr, ty, .. } => {
                if matches!(ty, CType::Struct(_) | CType::Array(..)) {
                    return self.err("cannot assign whole structs/arrays");
                }
                let size = mem_size(self.types, ty)?;
                let float = ty == CType::Double;
                self.emit(InstKind::Store {
                    size,
                    addr,
                    val: value,
                    float,
                });
                Ok(())
            }
        }
    }
}

impl LValue {
    fn ty(self) -> CType {
        match self {
            LValue::Var(_, t) | LValue::Mem { ty: t, .. } => t,
        }
    }
}

/// Integer promotion: narrow integers compute as full-width `int`.
fn promote(t: CType) -> CType {
    match t {
        CType::Int { size, signed } if size < 8 => CType::Int { size: 8, signed },
        other => other,
    }
}
