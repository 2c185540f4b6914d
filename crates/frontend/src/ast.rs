//! MiniC abstract syntax. Names are [`Sym`]s of the [`Program`]'s
//! [`Names`].

pub use crate::names::{Names, Sym};

/// A named base type plus pointer depth (arrays live in declarators).
#[derive(Clone, Debug, PartialEq)]
pub struct TypeName {
    /// The base type.
    pub base: BaseType,
    /// Number of `*`s.
    pub ptrs: u8,
}

impl TypeName {
    /// A plain (non-pointer) base type.
    pub fn plain(base: BaseType) -> Self {
        TypeName { base, ptrs: 0 }
    }
}

/// Base types.
#[derive(Clone, Debug, PartialEq)]
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

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Ident(Sym),
    /// Unary operation.
    Un(UnAop, Box<Expr>),
    /// `*e` — pointer dereference; `dynamic` per the §2 annotation.
    Deref {
        /// Pointer expression.
        expr: Box<Expr>,
        /// `dynamic*` annotation.
        dynamic: bool,
    },
    /// `&e` — address of an lvalue.
    AddrOf(Box<Expr>),
    /// Binary operation (including short-circuit `&&`/`||`).
    Bin(BinAop, Box<Expr>, Box<Expr>),
    /// `lhs = rhs` or compound `lhs op= rhs`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinAop>,
        /// Assignment target (an lvalue).
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee name.
        name: Sym,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `base[index]`; `dynamic` per §2 (`a dynamic[i]`).
    Index {
        /// Array/pointer expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// `dynamic[...]` annotation.
        dynamic: bool,
    },
    /// `base.field` or `base->field`; `dynamic` per §2 (`p dynamic-> f`).
    Member {
        /// Struct or pointer-to-struct expression.
        base: Box<Expr>,
        /// Field name.
        field: Sym,
        /// `->` (true) vs `.` (false).
        arrow: bool,
        /// `dynamic->` annotation.
        dynamic: bool,
    },
    /// `(type) expr`.
    Cast(TypeName, Box<Expr>),
    /// `sizeof(type)`.
    SizeOf(TypeName),
    /// `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `e++` / `e--` (value is the pre-increment value).
    PostIncDec {
        /// Target lvalue.
        lhs: Box<Expr>,
        /// `++` (true) or `--` (false).
        inc: bool,
    },
    /// `++e` / `--e` (value is the post-increment value).
    PreIncDec {
        /// Target lvalue.
        lhs: Box<Expr>,
        /// `++` (true) or `--` (false).
        inc: bool,
    },
}

/// One item in a `switch` body (flat, preserving fall-through).
#[derive(Clone, Debug, PartialEq)]
pub enum SwitchItem {
    /// `case N:` — `None` is `default:`.
    Label(Option<i64>),
    /// A statement.
    Stmt(Stmt),
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// Local declaration.
    Decl {
        /// Declared type.
        ty: TypeName,
        /// Name.
        name: Sym,
        /// Array length, if an array declarator.
        array: Option<u64>,
        /// Initializer.
        init: Option<Expr>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if`/`else`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while`.
    While(Expr, Box<Stmt>),
    /// `do … while`.
    DoWhile(Box<Stmt>, Expr),
    /// `for`, possibly annotated `unrolled` (§2).
    For {
        /// Initializer statement.
        init: Option<Box<Stmt>>,
        /// Loop condition (required when `unrolled`).
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
        /// `unrolled for` annotation.
        unrolled: bool,
    },
    /// `switch` with flat body (fall-through preserved).
    Switch(Expr, Vec<SwitchItem>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `return`.
    Return(Option<Expr>),
    /// `goto label`.
    Goto(Sym),
    /// `label: stmt`.
    Label(Sym, Box<Stmt>),
    /// `dynamicRegion key(kvars) (cvars) { … }` (§2). The key variables
    /// are implicitly constants as well.
    DynamicRegion {
        /// Annotated run-time constant variables.
        consts: Vec<Sym>,
        /// Cache-key variables.
        keys: Vec<Sym>,
        /// Region body.
        body: Box<Stmt>,
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
        init: Vec<Expr>,
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
        body: Stmt,
    },
}

/// A parsed translation unit.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program<'a> {
    /// Top-level items in source order.
    pub tops: Vec<Top>,
    /// The names its [`Sym`]s stand for.
    pub names: Names<'a>,
}
