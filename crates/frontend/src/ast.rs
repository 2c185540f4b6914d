//! MiniC abstract syntax. Names are [`Sym`]s of the [`Program`]'s
//! [`Names`]; expressions and statements are [`ExprId`]s and
//! [`StmtId`]s into the [`Program`]'s arenas, not boxes, so building or
//! dropping a tree of any size grows a few vectors and recurses nowhere.

pub use crate::names::{Names, Sym};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// A named base type plus pointer depth (arrays live in declarators).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TypeName {
    /// The base type.
    pub base: BaseType,
    /// Number of `*`s.
    pub ptrs: u16,
}

impl TypeName {
    /// A plain (non-pointer) base type.
    pub fn plain(base: BaseType) -> Self {
        TypeName { base, ptrs: 0 }
    }
}

/// Base types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BaseType {
    /// `void`
    Void,
    /// Integer with byte width and signedness (`int` = 8 bytes signed in
    /// MiniC's ILP64-style model).
    Int {
        /// Width in bytes (1, 2, 4 or 8).
        size: u8,
        /// Signed?
        signed: bool,
    },
    /// `double`
    Double,
    /// `struct <name>`
    Struct(Sym),
}

/// Binary operators at the source level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinAop {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnAop {
    /// `-`
    Neg,
    /// `~`
    BitNot,
    /// `!`
    LogNot,
}

/// An expression: an index into its [`Program`]'s expression arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// Position in the arena (dense from 0, in parse order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statement: an index into its [`Program`]'s statement arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StmtId(u32);

/// A run of consecutive elements of one of a [`Program`]'s arenas: the
/// arguments of a call, the statements of a block, the items of a
/// `switch`, the names of an annotation, the initializers of a global,
/// or every expression of a function body. `prog[list]` is the slice.
pub struct List<T> {
    start: u32,
    end: u32,
    of: PhantomData<T>,
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> PartialEq for List<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.end) == (other.start, other.end)
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

impl<T> List<T> {
    /// Number of elements.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the run is empty.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// Expressions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Ident(Sym),
    /// Unary operation.
    Un(UnAop, ExprId),
    /// `*e` — pointer dereference; `dynamic` per the §2 annotation.
    Deref {
        /// Pointer expression.
        expr: ExprId,
        /// `dynamic*` annotation.
        dynamic: bool,
    },
    /// `&e` — address of an lvalue.
    AddrOf(ExprId),
    /// Binary operation (including short-circuit `&&`/`||`).
    Bin(BinAop, ExprId, ExprId),
    /// `lhs = rhs` or compound `lhs op= rhs`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinAop>,
        /// Assignment target (an lvalue).
        lhs: ExprId,
        /// Value.
        rhs: ExprId,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee name.
        name: Sym,
        /// Arguments.
        args: List<ExprId>,
    },
    /// `base[index]`; `dynamic` per §2 (`a dynamic[i]`).
    Index {
        /// Array/pointer expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
        /// `dynamic[...]` annotation.
        dynamic: bool,
    },
    /// `base.field` or `base->field`; `dynamic` per §2 (`p dynamic-> f`).
    Member {
        /// Struct or pointer-to-struct expression.
        base: ExprId,
        /// Field name.
        field: Sym,
        /// `->` (true) vs `.` (false).
        arrow: bool,
        /// `dynamic->` annotation.
        dynamic: bool,
    },
    /// `(type) expr`.
    Cast(TypeName, ExprId),
    /// `sizeof(type)`.
    SizeOf(TypeName),
    /// `c ? t : e`.
    Cond(ExprId, ExprId, ExprId),
    /// `e++` / `e--` (value is the pre-increment value).
    PostIncDec {
        /// Target lvalue.
        lhs: ExprId,
        /// `++` (true) or `--` (false).
        inc: bool,
    },
    /// `++e` / `--e` (value is the post-increment value).
    PreIncDec {
        /// Target lvalue.
        lhs: ExprId,
        /// `++` (true) or `--` (false).
        inc: bool,
    },
}

/// One item in a `switch` body (flat, preserving fall-through).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SwitchItem {
    /// `case N:` — `None` is `default:`.
    Label(Option<i64>),
    /// A statement.
    Stmt(StmtId),
}

/// Statements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stmt {
    /// `{ ... }`
    Block(List<StmtId>),
    /// The declarators of one declaration with several (`int a = 1, b;`),
    /// each a [`Stmt::Decl`]. Unlike a block it opens no scope: the names
    /// stay visible after the `;`.
    Decls(List<StmtId>),
    /// Local declaration.
    Decl {
        /// Declared type.
        ty: TypeName,
        /// Name.
        name: Sym,
        /// Array length, if an array declarator.
        array: Option<u64>,
        /// Initializer.
        init: Option<ExprId>,
    },
    /// Expression statement.
    Expr(ExprId),
    /// `if`/`else`.
    If(ExprId, StmtId, Option<StmtId>),
    /// `while`.
    While(ExprId, StmtId),
    /// `do … while`.
    DoWhile(StmtId, ExprId),
    /// `for`, possibly annotated `unrolled` (§2).
    For {
        /// Initializer statement.
        init: Option<StmtId>,
        /// Loop condition (required when `unrolled`).
        cond: Option<ExprId>,
        /// Step expression.
        step: Option<ExprId>,
        /// Body.
        body: StmtId,
        /// `unrolled for` annotation.
        unrolled: bool,
    },
    /// `switch` with flat body (fall-through preserved).
    Switch(ExprId, List<SwitchItem>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `return`.
    Return(Option<ExprId>),
    /// `goto label`.
    Goto(Sym),
    /// `label: stmt`.
    Label(Sym, StmtId),
    /// `dynamicRegion key(kvars) (cvars) { … }` (§2). The key variables
    /// are implicitly constants as well.
    DynamicRegion {
        /// Annotated run-time constant variables.
        consts: List<Sym>,
        /// Cache-key variables.
        keys: List<Sym>,
        /// Region body.
        body: StmtId,
    },
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Top {
    /// `struct S { ... };`
    Struct {
        /// Struct tag.
        name: Sym,
        /// Fields: type, name, optional array length.
        fields: Vec<(TypeName, Sym, Option<u64>)>,
    },
    /// Global variable.
    Global {
        /// Declared type.
        ty: TypeName,
        /// Name.
        name: Sym,
        /// Array length, if any.
        array: Option<u64>,
        /// Scalar or array initializer values.
        init: List<ExprId>,
    },
    /// Function definition.
    Func {
        /// Return type.
        ret: TypeName,
        /// Name.
        name: Sym,
        /// Parameters.
        params: Vec<(TypeName, Sym)>,
        /// Body (a block).
        body: StmtId,
        /// Every expression of the body, in the order parsed.
        exprs: List<Expr>,
    },
}

/// A parsed translation unit. Its expressions, statements and lists
/// live in one arena each, so the tree is a handful of vectors however
/// many nodes it has; `prog[id]` is a node and `prog[list]` a slice.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program<'a> {
    /// Top-level items in source order.
    pub tops: Vec<Top>,
    /// The names its [`Sym`]s stand for.
    pub names: Names<'a>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    expr_lists: Vec<ExprId>,
    stmt_lists: Vec<StmtId>,
    items: Vec<SwitchItem>,
    syms: Vec<Sym>,
}

/// An arena of a [`Program`] that [`List`]s index.
pub trait Arena: Sized {
    /// The arena holding elements of this type.
    fn arena<'p>(prog: &'p Program<'_>) -> &'p Vec<Self>;
    /// The same arena, to append to.
    fn arena_mut<'p>(prog: &'p mut Program<'_>) -> &'p mut Vec<Self>;
}

macro_rules! arenas {
    ($($t:ty => $field:ident),* $(,)?) => {$(
        impl Arena for $t {
            fn arena<'p>(prog: &'p Program<'_>) -> &'p Vec<Self> {
                &prog.$field
            }
            fn arena_mut<'p>(prog: &'p mut Program<'_>) -> &'p mut Vec<Self> {
                &mut prog.$field
            }
        }
    )*};
}

arenas!(
    Expr => exprs,
    ExprId => expr_lists,
    StmtId => stmt_lists,
    SwitchItem => items,
    Sym => syms,
);

impl<'a> Program<'a> {
    /// An empty program whose arenas have room for a parse of `tokens`
    /// tokens without growing (each node takes at least one token).
    pub fn with_capacity(tokens: usize) -> Self {
        Program {
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 4),
            expr_lists: Vec::with_capacity(tokens / 8),
            stmt_lists: Vec::with_capacity(tokens / 4),
            ..Program::default()
        }
    }

    /// Add an expression.
    pub fn push_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Add a statement.
    pub fn push_stmt(&mut self, s: Stmt) -> StmtId {
        self.stmts.push(s);
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// Append `xs` to their arena as one run.
    pub fn push_list<T: Arena>(&mut self, xs: impl IntoIterator<Item = T>) -> List<T> {
        let arena = T::arena_mut(self);
        let start = arena.len() as u32;
        arena.extend(xs);
        List {
            start,
            end: arena.len() as u32,
            of: PhantomData,
        }
    }

    /// The number of expressions so far: with [`Program::exprs_since`],
    /// the run of expressions parsed after this point.
    pub fn expr_mark(&self) -> u32 {
        self.exprs.len() as u32
    }

    /// The expressions added since `mark` (see [`Program::expr_mark`]).
    pub fn exprs_since(&self, mark: u32) -> List<Expr> {
        List {
            start: mark,
            end: self.exprs.len() as u32,
            of: PhantomData,
        }
    }
}

impl Index<ExprId> for Program<'_> {
    type Output = Expr;
    fn index(&self, e: ExprId) -> &Expr {
        &self.exprs[e.0 as usize]
    }
}

impl Index<StmtId> for Program<'_> {
    type Output = Stmt;
    fn index(&self, s: StmtId) -> &Stmt {
        &self.stmts[s.0 as usize]
    }
}

impl<T: Arena> Index<List<T>> for Program<'_> {
    type Output = [T];
    fn index(&self, l: List<T>) -> &[T] {
        &T::arena(self)[l.start as usize..l.end as usize]
    }
}
