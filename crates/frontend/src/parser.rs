//! MiniC recursive-descent parser.
//!
//! The parse is bounded: statements nest at most [`MAX_NESTING`] deep,
//! and so do the parts of an expression (a parenthesized expression, the
//! operand of a prefix operator or cast, an index, the arguments of a
//! call, the right side of an assignment, the branches of `?:`). An
//! expression also holds at most [`MAX_NESTING`] operators along any
//! path from its root to a leaf, which bounds left-deep chains such as
//! `x+x+…+x` that the parser builds without recursing. Every later walk
//! of the tree recurses along that height, so a deeper program is a
//! positioned [`ParseError`], not a stack overflow.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;

/// How deep statements and expression parts may nest, and how many
/// operators an expression may hold along one root-to-leaf path.
pub const MAX_NESTING: usize = 256;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parse a MiniC translation unit.
///
/// # Errors
/// Returns the first syntax error with its position.
pub fn parse(src: &str) -> Result<Program<'_>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        prog: Program::with_capacity(toks.len()),
        heights: Vec::with_capacity(toks.len() / 2),
        toks,
        pos: 0,
        stmt_depth: 0,
        expr_depth: 0,
        stmts: Vec::new(),
        exprs: Vec::new(),
        items: Vec::new(),
        syms: Vec::new(),
    };
    while p.peek() != Tok::Eof {
        let top = p.top()?;
        p.prog.tops.push(top);
    }
    Ok(p.prog)
}

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
    prog: Program<'a>,
    /// Operators on the longest root-to-leaf path of each expression,
    /// by [`ExprId`].
    heights: Vec<u16>,
    stmt_depth: usize,
    expr_depth: usize,
    /// Elements of the lists being parsed, innermost last: a list is
    /// moved into its arena when it closes.
    stmts: Vec<StmtId>,
    exprs: Vec<ExprId>,
    items: Vec<SwitchItem>,
    syms: Vec<Sym>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok<'a> {
        self.toks.get(self.pos + 1).map_or(Tok::Eof, |t| t.tok)
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let t = &self.toks[self.pos];
        Err(ParseError {
            msg: msg.into(),
            line: t.line,
            col: t.col,
        })
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, tok: &Tok<'_>) -> bool {
        if self.peek() == *tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Sym, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(self.prog.names.intern(s))
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    // ---- types ----

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt
                | Tok::KwUnsigned
                | Tok::KwSigned
                | Tok::KwChar
                | Tok::KwShort
                | Tok::KwLong
                | Tok::KwDouble
                | Tok::KwVoid
                | Tok::KwStruct
        )
    }

    fn base_type(&mut self) -> Result<BaseType, ParseError> {
        let mut signed = true;
        let mut saw_sign = false;
        loop {
            match self.peek() {
                Tok::KwUnsigned => {
                    signed = false;
                    saw_sign = true;
                    self.bump();
                }
                Tok::KwSigned => {
                    signed = true;
                    saw_sign = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let b = match self.peek() {
            Tok::KwChar => {
                self.bump();
                BaseType::Int { size: 1, signed }
            }
            Tok::KwShort => {
                self.bump();
                self.eat(&Tok::KwInt);
                BaseType::Int { size: 2, signed }
            }
            Tok::KwLong => {
                self.bump();
                self.eat(&Tok::KwLong);
                self.eat(&Tok::KwInt);
                BaseType::Int { size: 8, signed }
            }
            Tok::KwInt => {
                self.bump();
                BaseType::Int { size: 8, signed }
            }
            Tok::KwDouble => {
                self.bump();
                BaseType::Double
            }
            Tok::KwVoid => {
                self.bump();
                BaseType::Void
            }
            Tok::KwStruct => {
                self.bump();
                BaseType::Struct(self.ident()?)
            }
            _ if saw_sign => BaseType::Int { size: 8, signed },
            other => return self.err(format!("expected type, found {other}")),
        };
        Ok(b)
    }

    fn type_name(&mut self) -> Result<TypeName, ParseError> {
        let base = self.base_type()?;
        let ptrs = self.stars()?;
        Ok(TypeName { base, ptrs })
    }

    /// The `*`s of a declarator, at most [`MAX_NESTING`] of them.
    fn stars(&mut self) -> Result<u16, ParseError> {
        let mut ptrs = 0u16;
        while self.peek() == Tok::Star {
            if usize::from(ptrs) == MAX_NESTING {
                return self.err(format!(
                    "pointer type nested more than {MAX_NESTING} levels deep"
                ));
            }
            self.bump();
            ptrs += 1;
        }
        Ok(ptrs)
    }

    /// Run `f` one statement level deeper.
    fn nested_stmt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.stmt_depth == MAX_NESTING {
            return self.err(format!(
                "statement nested more than {MAX_NESTING} levels deep"
            ));
        }
        self.stmt_depth += 1;
        let r = f(self);
        self.stmt_depth -= 1;
        r
    }

    /// Run `f` one expression level deeper.
    fn nested_expr<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.expr_depth == MAX_NESTING {
            return self.err(format!(
                "expression nested more than {MAX_NESTING} levels deep"
            ));
        }
        self.expr_depth += 1;
        let r = f(self);
        self.expr_depth -= 1;
        r
    }

    /// Add an expression node, refusing one that would put more than
    /// [`MAX_NESTING`] operators on a root-to-leaf path.
    fn node(&mut self, e: Expr) -> Result<ExprId, ParseError> {
        let h = |x: ExprId| self.heights[x.index()];
        let below = match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Ident(_) | Expr::SizeOf(_) => None,
            Expr::Un(_, a)
            | Expr::Deref { expr: a, .. }
            | Expr::AddrOf(a)
            | Expr::Cast(_, a)
            | Expr::Member { base: a, .. }
            | Expr::PostIncDec { lhs: a, .. }
            | Expr::PreIncDec { lhs: a, .. } => Some(h(a)),
            Expr::Bin(_, a, b)
            | Expr::Assign { lhs: a, rhs: b, .. }
            | Expr::Index {
                base: a, index: b, ..
            } => Some(h(a).max(h(b))),
            Expr::Cond(a, b, c) => Some(h(a).max(h(b)).max(h(c))),
            Expr::Call { args, .. } => self.prog[args].iter().map(|&a| h(a)).max(),
        };
        let height = below.map_or(0, |b| b + 1);
        if usize::from(height) > MAX_NESTING {
            return self.err(format!(
                "expression nested more than {MAX_NESTING} levels deep"
            ));
        }
        self.heights.push(height);
        Ok(self.prog.push_expr(e))
    }

    /// The statements pushed on the list stack since `mark`, as a list.
    fn stmt_list(&mut self, mark: usize) -> List<StmtId> {
        self.prog.push_list(self.stmts.drain(mark..))
    }

    /// The expressions pushed on the list stack since `mark`, as a list.
    fn expr_list(&mut self, mark: usize) -> List<ExprId> {
        self.prog.push_list(self.exprs.drain(mark..))
    }

    // ---- top level ----

    fn top(&mut self) -> Result<Top, ParseError> {
        // struct definition?
        if self.peek() == Tok::KwStruct {
            if let Tok::Ident(_) = self.peek2() {
                // Lookahead for '{' after the tag => definition.
                if self.toks.get(self.pos + 2).map(|t| &t.tok) == Some(&Tok::LBrace) {
                    return self.struct_def();
                }
            }
        }
        let ty = self.type_name()?;
        let name = self.ident()?;
        if self.peek() == Tok::LParen {
            self.func_def(ty, name)
        } else {
            self.global_decl(ty, name)
        }
    }

    fn struct_def(&mut self) -> Result<Top, ParseError> {
        self.expect(Tok::KwStruct)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let base = self.base_type()?;
            loop {
                let ptrs = self.stars()?;
                let fname = self.ident()?;
                let array = if self.eat(&Tok::LBracket) {
                    let n = self.int_lit()?;
                    self.expect(Tok::RBracket)?;
                    Some(n as u64)
                } else {
                    None
                };
                fields.push((TypeName { base, ptrs }, fname, array));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Semi)?;
        }
        self.expect(Tok::Semi)?;
        Ok(Top::Struct { name, fields })
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            other => self.err(format!("expected integer literal, found {other}")),
        }
    }

    fn global_decl(&mut self, ty: TypeName, name: Sym) -> Result<Top, ParseError> {
        let array = if self.eat(&Tok::LBracket) {
            let n = self.int_lit()?;
            self.expect(Tok::RBracket)?;
            Some(n as u64)
        } else {
            None
        };
        let mark = self.exprs.len();
        if self.eat(&Tok::Eq) {
            if self.eat(&Tok::LBrace) {
                while !self.eat(&Tok::RBrace) {
                    let e = self.assignment()?;
                    self.exprs.push(e);
                    if !self.eat(&Tok::Comma) {
                        self.expect(Tok::RBrace)?;
                        break;
                    }
                }
            } else {
                let e = self.assignment()?;
                self.exprs.push(e);
            }
        }
        self.expect(Tok::Semi)?;
        let init = self.expr_list(mark);
        Ok(Top::Global {
            ty,
            name,
            array,
            init,
        })
    }

    fn func_def(&mut self, ret: TypeName, name: Sym) -> Result<Top, ParseError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            if self.peek() == Tok::KwVoid && self.peek2() == Tok::RParen {
                self.bump();
                self.expect(Tok::RParen)?;
            } else {
                loop {
                    let pt = self.type_name()?;
                    let pn = self.ident()?;
                    params.push((pt, pn));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
        }
        let mark = self.prog.expr_mark();
        let body = self.block()?;
        Ok(Top::Func {
            ret,
            name,
            params,
            body,
            exprs: self.prog.exprs_since(mark),
        })
    }

    // ---- statements ----

    fn block(&mut self) -> Result<StmtId, ParseError> {
        self.expect(Tok::LBrace)?;
        let mark = self.stmts.len();
        while !self.eat(&Tok::RBrace) {
            let s = self.stmt()?;
            self.stmts.push(s);
        }
        let list = self.stmt_list(mark);
        Ok(self.prog.push_stmt(Stmt::Block(list)))
    }

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        self.nested_stmt(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> Result<StmtId, ParseError> {
        let s = match self.peek() {
            Tok::LBrace => return self.block(),
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                let t = self.stmt()?;
                let e = if self.eat(&Tok::KwElse) {
                    Some(self.stmt()?)
                } else {
                    None
                };
                Stmt::If(c, t, e)
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                Stmt::While(c, self.stmt()?)
            }
            Tok::KwDo => {
                self.bump();
                let body = self.stmt()?;
                self.expect(Tok::KwWhile)?;
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Stmt::DoWhile(body, c)
            }
            Tok::KwUnrolled => {
                self.bump();
                if self.peek() != Tok::KwFor {
                    return self.err("`unrolled` must be followed by `for`");
                }
                return self.for_stmt(true);
            }
            Tok::KwFor => return self.for_stmt(false),
            Tok::KwSwitch => {
                self.bump();
                self.expect(Tok::LParen)?;
                let scrut = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let mark = self.items.len();
                while !self.eat(&Tok::RBrace) {
                    match self.peek() {
                        Tok::KwCase => {
                            self.bump();
                            let neg = self.eat(&Tok::Minus);
                            let mut v = self.int_lit()?;
                            if neg {
                                v = -v;
                            }
                            self.expect(Tok::Colon)?;
                            self.items.push(SwitchItem::Label(Some(v)));
                        }
                        Tok::KwDefault => {
                            self.bump();
                            self.expect(Tok::Colon)?;
                            self.items.push(SwitchItem::Label(None));
                        }
                        _ => {
                            let s = self.stmt()?;
                            self.items.push(SwitchItem::Stmt(s));
                        }
                    }
                }
                let items = self.prog.push_list(self.items.drain(mark..));
                Stmt::Switch(scrut, items)
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Stmt::Break
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Stmt::Continue
            }
            Tok::KwReturn => {
                self.bump();
                if self.eat(&Tok::Semi) {
                    Stmt::Return(None)
                } else {
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Stmt::Return(Some(e))
                }
            }
            Tok::KwGoto => {
                self.bump();
                let l = self.ident()?;
                self.expect(Tok::Semi)?;
                Stmt::Goto(l)
            }
            Tok::KwDynamicRegion => {
                self.bump();
                let mark = self.syms.len();
                if self.eat(&Tok::KwKey) {
                    self.expect(Tok::LParen)?;
                    if !self.eat(&Tok::RParen) {
                        loop {
                            let k = self.ident()?;
                            self.syms.push(k);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                }
                let keys = self.prog.push_list(self.syms.drain(mark..));
                self.expect(Tok::LParen)?;
                if !self.eat(&Tok::RParen) {
                    loop {
                        let c = self.ident()?;
                        self.syms.push(c);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                }
                let consts = self.prog.push_list(self.syms.drain(mark..));
                let body = self.block()?;
                Stmt::DynamicRegion { consts, keys, body }
            }
            Tok::Ident(name) if self.peek2() == Tok::Colon => {
                self.bump();
                self.bump();
                let name = self.prog.names.intern(name);
                Stmt::Label(name, self.stmt()?)
            }
            _ if self.at_type_start() => return self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Stmt::Expr(e)
            }
        };
        Ok(self.prog.push_stmt(s))
    }

    fn decl_stmt(&mut self) -> Result<StmtId, ParseError> {
        let base = self.base_type()?;
        let mark = self.stmts.len();
        loop {
            let ptrs = self.stars()?;
            let name = self.ident()?;
            let array = if self.eat(&Tok::LBracket) {
                let n = self.int_lit()?;
                self.expect(Tok::RBracket)?;
                Some(n as u64)
            } else {
                None
            };
            let init = if self.eat(&Tok::Eq) {
                Some(self.assignment()?)
            } else {
                None
            };
            let decl = self.prog.push_stmt(Stmt::Decl {
                ty: TypeName { base, ptrs },
                name,
                array,
                init,
            });
            self.stmts.push(decl);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        if self.stmts.len() == mark + 1 {
            return Ok(self.stmts.pop().expect("one declarator"));
        }
        let list = self.stmt_list(mark);
        Ok(self.prog.push_stmt(Stmt::Decls(list)))
    }

    fn for_stmt(&mut self, unrolled: bool) -> Result<StmtId, ParseError> {
        self.expect(Tok::KwFor)?;
        self.expect(Tok::LParen)?;
        let init = if self.eat(&Tok::Semi) {
            None
        } else if self.at_type_start() {
            Some(self.decl_stmt()?)
        } else {
            let e = self.expr()?;
            self.expect(Tok::Semi)?;
            Some(self.prog.push_stmt(Stmt::Expr(e)))
        };
        let cond = if self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if self.peek() == Tok::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::RParen)?;
        let body = self.stmt()?;
        Ok(self.prog.push_stmt(Stmt::For {
            init,
            cond,
            step,
            body,
            unrolled,
        }))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<ExprId, ParseError> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::Eq => None,
            Tok::PlusEq => Some(BinAop::Add),
            Tok::MinusEq => Some(BinAop::Sub),
            Tok::StarEq => Some(BinAop::Mul),
            Tok::SlashEq => Some(BinAop::Div),
            Tok::PercentEq => Some(BinAop::Rem),
            Tok::AmpEq => Some(BinAop::BitAnd),
            Tok::PipeEq => Some(BinAop::BitOr),
            Tok::CaretEq => Some(BinAop::BitXor),
            Tok::ShlEq => Some(BinAop::Shl),
            Tok::ShrEq => Some(BinAop::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested_expr(Self::assignment)?;
        self.node(Expr::Assign { op, lhs, rhs })
    }

    fn conditional(&mut self) -> Result<ExprId, ParseError> {
        let c = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let t = self.nested_expr(Self::expr)?;
            self.expect(Tok::Colon)?;
            let e = self.nested_expr(Self::conditional)?;
            self.node(Expr::Cond(c, t, e))
        } else {
            Ok(c)
        }
    }

    fn bin_op_prec(tok: &Tok<'_>) -> Option<(BinAop, u8)> {
        Some(match tok {
            Tok::OrOr => (BinAop::LogOr, 1),
            Tok::AndAnd => (BinAop::LogAnd, 2),
            Tok::Pipe => (BinAop::BitOr, 3),
            Tok::Caret => (BinAop::BitXor, 4),
            Tok::Amp => (BinAop::BitAnd, 5),
            Tok::EqEq => (BinAop::Eq, 6),
            Tok::Ne => (BinAop::Ne, 6),
            Tok::Lt => (BinAop::Lt, 7),
            Tok::Gt => (BinAop::Gt, 7),
            Tok::Le => (BinAop::Le, 7),
            Tok::Ge => (BinAop::Ge, 7),
            Tok::Shl => (BinAop::Shl, 8),
            Tok::Shr => (BinAop::Shr, 8),
            Tok::Plus => (BinAop::Add, 9),
            Tok::Minus => (BinAop::Sub, 9),
            Tok::Star => (BinAop::Mul, 10),
            Tok::Slash => (BinAop::Div, 10),
            Tok::Percent => (BinAop::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(&self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.node(Expr::Bin(op, lhs, rhs))?;
        }
        Ok(lhs)
    }

    fn is_type_cast_ahead(&self) -> bool {
        // '(' followed by a type keyword means a cast.
        self.peek() == Tok::LParen
            && matches!(
                self.peek2(),
                Tok::KwInt
                    | Tok::KwUnsigned
                    | Tok::KwSigned
                    | Tok::KwChar
                    | Tok::KwShort
                    | Tok::KwLong
                    | Tok::KwDouble
                    | Tok::KwVoid
                    | Tok::KwStruct
            )
    }

    /// The operand of a prefix operator or cast.
    fn operand(&mut self) -> Result<ExprId, ParseError> {
        self.nested_expr(Self::unary)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let e = match self.peek() {
            Tok::Minus => {
                self.bump();
                Expr::Un(UnAop::Neg, self.operand()?)
            }
            Tok::Tilde => {
                self.bump();
                Expr::Un(UnAop::BitNot, self.operand()?)
            }
            Tok::Bang => {
                self.bump();
                Expr::Un(UnAop::LogNot, self.operand()?)
            }
            Tok::Star => {
                self.bump();
                Expr::Deref {
                    expr: self.operand()?,
                    dynamic: false,
                }
            }
            Tok::KwDynamic if self.peek2() == Tok::Star => {
                self.bump();
                self.bump();
                Expr::Deref {
                    expr: self.operand()?,
                    dynamic: true,
                }
            }
            Tok::Amp => {
                self.bump();
                Expr::AddrOf(self.operand()?)
            }
            Tok::PlusPlus => {
                self.bump();
                Expr::PreIncDec {
                    lhs: self.operand()?,
                    inc: true,
                }
            }
            Tok::MinusMinus => {
                self.bump();
                Expr::PreIncDec {
                    lhs: self.operand()?,
                    inc: false,
                }
            }
            Tok::KwSizeof => {
                self.bump();
                self.expect(Tok::LParen)?;
                let t = self.type_name()?;
                self.expect(Tok::RParen)?;
                Expr::SizeOf(t)
            }
            Tok::LParen if self.is_type_cast_ahead() => {
                self.bump();
                let t = self.type_name()?;
                self.expect(Tok::RParen)?;
                Expr::Cast(t, self.operand()?)
            }
            _ => return self.postfix(),
        };
        self.node(e)
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        loop {
            let next = match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.nested_expr(Self::expr)?;
                    self.expect(Tok::RBracket)?;
                    Expr::Index {
                        base: e,
                        index: idx,
                        dynamic: false,
                    }
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    Expr::Member {
                        base: e,
                        field: f,
                        arrow: false,
                        dynamic: false,
                    }
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    Expr::Member {
                        base: e,
                        field: f,
                        arrow: true,
                        dynamic: false,
                    }
                }
                Tok::KwDynamic => {
                    // `p dynamic-> f` and `a dynamic[ i ]` (§2).
                    match self.peek2() {
                        Tok::Arrow => {
                            self.bump();
                            self.bump();
                            let f = self.ident()?;
                            Expr::Member {
                                base: e,
                                field: f,
                                arrow: true,
                                dynamic: true,
                            }
                        }
                        Tok::LBracket => {
                            self.bump();
                            self.bump();
                            let idx = self.nested_expr(Self::expr)?;
                            self.expect(Tok::RBracket)?;
                            Expr::Index {
                                base: e,
                                index: idx,
                                dynamic: true,
                            }
                        }
                        _ => break,
                    }
                }
                Tok::PlusPlus => {
                    self.bump();
                    Expr::PostIncDec { lhs: e, inc: true }
                }
                Tok::MinusMinus => {
                    self.bump();
                    Expr::PostIncDec { lhs: e, inc: false }
                }
                _ => break,
            };
            e = self.node(next)?;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let e = match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Expr::IntLit(v)
            }
            Tok::Float(v) => {
                self.bump();
                Expr::FloatLit(v)
            }
            Tok::Ident(name) => {
                self.bump();
                let name = self.prog.names.intern(name);
                if self.eat(&Tok::LParen) {
                    let mark = self.exprs.len();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            let a = self.nested_expr(Self::assignment)?;
                            self.exprs.push(a);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    let args = self.expr_list(mark);
                    Expr::Call { name, args }
                } else {
                    Expr::Ident(name)
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested_expr(Self::expr)?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            other => return self.err(format!("expected expression, found {other}")),
        };
        self.node(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statements of the body of the `i`th top-level function.
    fn body<'p>(prog: &'p Program<'_>, i: usize) -> &'p [StmtId] {
        let Top::Func { body, .. } = &prog.tops[i] else {
            panic!("expected func")
        };
        block(prog, *body)
    }

    fn block<'p>(prog: &'p Program<'_>, s: StmtId) -> &'p [StmtId] {
        let Stmt::Block(stmts) = prog[s] else {
            panic!("expected block, got {:?}", prog[s])
        };
        &prog[stmts]
    }

    /// The expression of `return e;`.
    fn returned(prog: &Program<'_>, s: StmtId) -> Expr {
        let Stmt::Return(Some(e)) = prog[s] else {
            panic!("expected return, got {:?}", prog[s])
        };
        prog[e]
    }

    #[test]
    fn parses_cache_lookup_example() {
        // The paper's §2 running example, verbatim modulo declarations.
        let src = r#"
            struct setStructure { unsigned tag; };
            struct cacheLine { struct setStructure **sets; };
            struct Cache {
                unsigned blockSize;
                unsigned numLines;
                struct cacheLine **lines;
                int associativity;
            };
            int cacheLookup(void *addr, struct Cache *cache) {
                dynamicRegion (cache) {
                    unsigned blockSize = cache->blockSize;
                    unsigned numLines = cache->numLines;
                    unsigned tag = (unsigned) addr / (blockSize * numLines);
                    unsigned line = ((unsigned) addr / blockSize) % numLines;
                    struct setStructure **setArray = cache->lines[line]->sets;
                    int assoc = cache->associativity;
                    int set;
                    unrolled for (set = 0; set < assoc; set++) {
                        if (setArray[set] dynamic-> tag == tag)
                            return 1;
                    }
                    return 0;
                }
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.tops.len(), 4);
        let Top::Func { name, .. } = &prog.tops[3] else {
            panic!("expected func")
        };
        assert_eq!(prog.names.name(*name), "cacheLookup");
        let stmts = body(&prog, 3);
        let Stmt::DynamicRegion { consts, keys, body } = prog[stmts[0]] else {
            panic!("expected dynamicRegion, got {:?}", prog[stmts[0]])
        };
        assert_eq!(&prog[consts], &[prog.names.get("cache").unwrap()]);
        assert!(keys.is_empty());
        // The unrolled loop with the dynamic-> annotation is in there.
        let unrolled = block(&prog, body).iter().find_map(|&s| match prog[s] {
            Stmt::For {
                unrolled: true,
                body,
                ..
            } => Some(body),
            _ => None,
        });
        let lb = block(&prog, unrolled.expect("unrolled for parsed"));
        let Stmt::If(cond, ..) = prog[lb[0]] else {
            panic!()
        };
        let Expr::Bin(BinAop::Eq, lhs, _) = prog[cond] else {
            panic!()
        };
        let Expr::Member {
            arrow: true,
            dynamic: true,
            ..
        } = prog[lhs]
        else {
            panic!("dynamic-> parsed as dynamic member access")
        };
    }

    #[test]
    fn keyed_region() {
        let src = "int f(int c) { dynamicRegion key(c) (c) { return c; } }";
        let prog = parse(src).unwrap();
        let b = body(&prog, 0);
        let Stmt::DynamicRegion { consts, keys, .. } = prog[b[0]] else {
            panic!()
        };
        let c = prog.names.get("c").unwrap();
        assert_eq!(&prog[keys], &[c]);
        assert_eq!(&prog[consts], &[c]);
    }

    #[test]
    fn switch_with_fallthrough_and_goto() {
        let src = r#"
            int f(int a, int b) {
                if (a) { goto L; }
                switch (b) {
                    case 1: a = 1;
                    case 2: a = 2; break;
                    case 3: a = 3; goto L;
                    default: a = 9;
                }
                a = a + 1;
                L: return a;
            }
        "#;
        let prog = parse(src).unwrap();
        let b = body(&prog, 0);
        let Stmt::Switch(_, items) = prog[b[1]] else {
            panic!("switch")
        };
        let labels: Vec<_> = prog[items]
            .iter()
            .filter_map(|i| match i {
                SwitchItem::Label(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec![Some(1), Some(2), Some(3), None]);
        assert!(matches!(prog[b[3]], Stmt::Label(..)));
    }

    #[test]
    fn precedence() {
        let e = parse("int f() { return 1 + 2 * 3 << 1 < 4 == 5 && 6; }").unwrap();
        let Expr::Bin(BinAop::LogAnd, lhs, _) = returned(&e, body(&e, 0)[0]) else {
            panic!("&& binds loosest")
        };
        let Expr::Bin(BinAop::Eq, l2, _) = e[lhs] else {
            panic!("== next")
        };
        let Expr::Bin(BinAop::Lt, l3, _) = e[l2] else {
            panic!("< next")
        };
        let Expr::Bin(BinAop::Shl, l4, _) = e[l3] else {
            panic!("<< next")
        };
        let Expr::Bin(BinAop::Add, _, r5) = e[l4] else {
            panic!("+ next")
        };
        assert!(matches!(e[r5], Expr::Bin(BinAop::Mul, ..)));
    }

    #[test]
    fn casts_and_sizeof() {
        let p = parse("int f(void* p) { return (int) p + sizeof(struct S) + (unsigned) 3; }");
        // struct S undefined is a *type* error caught at lowering, not parse.
        assert!(p.is_ok());
        let p = parse("double g(int x) { return (double) x; }").unwrap();
        assert!(matches!(returned(&p, body(&p, 0)[0]), Expr::Cast(..)));
    }

    #[test]
    fn declarations_with_multiple_declarators() {
        let p = parse("int f() { int a = 1, b = 2; return a + b; }").unwrap();
        let b = body(&p, 0);
        let Stmt::Decls(decls) = p[b[0]] else {
            panic!("expected declarators, got {:?}", p[b[0]])
        };
        assert_eq!(p[decls].len(), 2, "one statement per declarator");
        assert!(p[decls].iter().all(|&d| matches!(p[d], Stmt::Decl { .. })));
    }

    #[test]
    fn global_with_array_initializer() {
        let p = parse("int tbl[4] = {1, 2, 3, 4}; int x = 9;").unwrap();
        let Top::Global { array, init, .. } = &p.tops[0] else {
            panic!()
        };
        assert_eq!(*array, Some(4));
        assert_eq!(init.len(), 4);
        let Top::Global {
            array: None,
            init: i2,
            ..
        } = &p.tops[1]
        else {
            panic!()
        };
        assert_eq!(i2.len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let e = parse("int f() { return ); }").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("expected expression"));
    }

    #[test]
    fn ternary_and_incdec() {
        let p = parse("int f(int x) { x++; --x; return x ? x : 0; }").unwrap();
        let b = body(&p, 0);
        let expr = |s: StmtId| match p[s] {
            Stmt::Expr(e) => p[e],
            other => panic!("expected expression statement, got {other:?}"),
        };
        assert!(matches!(expr(b[0]), Expr::PostIncDec { inc: true, .. }));
        assert!(matches!(expr(b[1]), Expr::PreIncDec { inc: false, .. }));
        assert!(matches!(returned(&p, b[2]), Expr::Cond(..)));
    }

    #[test]
    fn dynamic_star_unary() {
        let p = parse("int f(int* p) { return dynamic* p; }").unwrap();
        assert!(matches!(
            returned(&p, body(&p, 0)[0]),
            Expr::Deref { dynamic: true, .. }
        ));
    }

    #[test]
    fn dynamic_index() {
        let p = parse("int f(int* a, int i) { return a dynamic[ i ]; }").unwrap();
        assert!(matches!(
            returned(&p, body(&p, 0)[0]),
            Expr::Index { dynamic: true, .. }
        ));
    }

    #[test]
    fn function_expressions_are_one_run() {
        let p = parse("int g; int f(int x) { return x + 1; } int h() { return -g; }").unwrap();
        let runs: Vec<usize> = p
            .tops
            .iter()
            .filter_map(|t| match t {
                Top::Func { exprs, .. } => Some(exprs.len()),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [3, 2]);
        let Top::Func { exprs, .. } = &p.tops[2] else {
            panic!()
        };
        assert!(matches!(p[*exprs][1], Expr::Un(UnAop::Neg, _)));
    }

    #[test]
    fn pointer_depth_is_bounded() {
        let ok = format!("int f(int{} p) {{ return 0; }}", "*".repeat(MAX_NESTING));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "int f(int{} p) {{ return 0; }}",
            "*".repeat(MAX_NESTING + 1)
        );
        let e = parse(&deep).unwrap_err();
        assert_eq!((e.line, e.col), (1, 10 + MAX_NESTING as u32));
        assert!(e.msg.contains("nested more than"), "{}", e.msg);
    }
}
