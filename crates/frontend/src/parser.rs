//! MiniC recursive-descent parser.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;

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
        toks,
        pos: 0,
        names: Names::default(),
    };
    let tops = p.program()?;
    Ok(Program {
        tops,
        names: p.names,
    })
}

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
    names: Names<'a>,
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
                Ok(self.names.intern(s))
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
        let mut ptrs = 0u8;
        while self.eat(&Tok::Star) {
            ptrs += 1;
        }
        Ok(TypeName { base, ptrs })
    }

    // ---- top level ----

    fn program(&mut self) -> Result<Vec<Top>, ParseError> {
        let mut tops = Vec::new();
        while self.peek() != Tok::Eof {
            tops.push(self.top()?);
        }
        Ok(tops)
    }

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
                let mut ptrs = 0u8;
                while self.eat(&Tok::Star) {
                    ptrs += 1;
                }
                let fname = self.ident()?;
                let array = if self.eat(&Tok::LBracket) {
                    let n = self.int_lit()?;
                    self.expect(Tok::RBracket)?;
                    Some(n as u64)
                } else {
                    None
                };
                fields.push((
                    TypeName {
                        base: base.clone(),
                        ptrs,
                    },
                    fname,
                    array,
                ));
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
        let mut init = Vec::new();
        if self.eat(&Tok::Eq) {
            if self.eat(&Tok::LBrace) {
                while !self.eat(&Tok::RBrace) {
                    init.push(self.assignment()?);
                    if !self.eat(&Tok::Comma) {
                        self.expect(Tok::RBrace)?;
                        break;
                    }
                }
            } else {
                init.push(self.assignment()?);
            }
        }
        self.expect(Tok::Semi)?;
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
        let body = self.block()?;
        Ok(Top::Func {
            ret,
            name,
            params,
            body,
        })
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::Block(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::LBrace => self.block(),
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                let t = Box::new(self.stmt()?);
                let e = if self.eat(&Tok::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(c, t, e))
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Stmt::While(c, Box::new(self.stmt()?)))
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect(Tok::KwWhile)?;
                self.expect(Tok::LParen)?;
                let c = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::DoWhile(body, c))
            }
            Tok::KwUnrolled => {
                self.bump();
                if self.peek() != Tok::KwFor {
                    return self.err("`unrolled` must be followed by `for`");
                }
                self.for_stmt(true)
            }
            Tok::KwFor => self.for_stmt(false),
            Tok::KwSwitch => {
                self.bump();
                self.expect(Tok::LParen)?;
                let scrut = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let mut items = Vec::new();
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
                            items.push(SwitchItem::Label(Some(v)));
                        }
                        Tok::KwDefault => {
                            self.bump();
                            self.expect(Tok::Colon)?;
                            items.push(SwitchItem::Label(None));
                        }
                        _ => items.push(SwitchItem::Stmt(self.stmt()?)),
                    }
                }
                Ok(Stmt::Switch(scrut, items))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue)
            }
            Tok::KwReturn => {
                self.bump();
                if self.eat(&Tok::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Tok::KwGoto => {
                self.bump();
                let l = self.ident()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Goto(l))
            }
            Tok::KwDynamicRegion => {
                self.bump();
                let mut keys = Vec::new();
                if self.eat(&Tok::KwKey) {
                    self.expect(Tok::LParen)?;
                    if !self.eat(&Tok::RParen) {
                        loop {
                            keys.push(self.ident()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                }
                self.expect(Tok::LParen)?;
                let mut consts = Vec::new();
                if !self.eat(&Tok::RParen) {
                    loop {
                        consts.push(self.ident()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                }
                let body = Box::new(self.block()?);
                Ok(Stmt::DynamicRegion { consts, keys, body })
            }
            Tok::Ident(name) if self.peek2() == Tok::Colon => {
                self.bump();
                self.bump();
                let name = self.names.intern(name);
                Ok(Stmt::Label(name, Box::new(self.stmt()?)))
            }
            _ if self.at_type_start() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let base = self.base_type()?;
        let mut decls = Vec::new();
        loop {
            let mut ptrs = 0u8;
            while self.eat(&Tok::Star) {
                ptrs += 1;
            }
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
            decls.push(Stmt::Decl {
                ty: TypeName {
                    base: base.clone(),
                    ptrs,
                },
                name,
                array,
                init,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(if decls.len() == 1 {
            decls.pop().unwrap()
        } else {
            Stmt::Block(decls)
        })
    }

    fn for_stmt(&mut self, unrolled: bool) -> Result<Stmt, ParseError> {
        self.expect(Tok::KwFor)?;
        self.expect(Tok::LParen)?;
        let init = if self.eat(&Tok::Semi) {
            None
        } else if self.at_type_start() {
            Some(Box::new(self.decl_stmt()?))
        } else {
            let e = self.expr()?;
            self.expect(Tok::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
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
        let body = Box::new(self.stmt()?);
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            unrolled,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
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
        let rhs = self.assignment()?;
        Ok(Expr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let c = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let e = self.conditional()?;
            Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(e)))
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

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(&self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
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

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Un(UnAop::Neg, Box::new(self.unary()?)))
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Un(UnAop::BitNot, Box::new(self.unary()?)))
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Un(UnAop::LogNot, Box::new(self.unary()?)))
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Deref {
                    expr: Box::new(self.unary()?),
                    dynamic: false,
                })
            }
            Tok::KwDynamic if self.peek2() == Tok::Star => {
                self.bump();
                self.bump();
                Ok(Expr::Deref {
                    expr: Box::new(self.unary()?),
                    dynamic: true,
                })
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary()?)))
            }
            Tok::PlusPlus => {
                self.bump();
                Ok(Expr::PreIncDec {
                    lhs: Box::new(self.unary()?),
                    inc: true,
                })
            }
            Tok::MinusMinus => {
                self.bump();
                Ok(Expr::PreIncDec {
                    lhs: Box::new(self.unary()?),
                    inc: false,
                })
            }
            Tok::KwSizeof => {
                self.bump();
                self.expect(Tok::LParen)?;
                let t = self.type_name()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::SizeOf(t))
            }
            Tok::LParen if self.is_type_cast_ahead() => {
                self.bump();
                let t = self.type_name()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Cast(t, Box::new(self.unary()?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(idx),
                        dynamic: false,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Member {
                        base: Box::new(e),
                        field: f,
                        arrow: false,
                        dynamic: false,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Member {
                        base: Box::new(e),
                        field: f,
                        arrow: true,
                        dynamic: false,
                    };
                }
                Tok::KwDynamic => {
                    // `p dynamic-> f` and `a dynamic[ i ]` (§2).
                    match self.peek2() {
                        Tok::Arrow => {
                            self.bump();
                            self.bump();
                            let f = self.ident()?;
                            e = Expr::Member {
                                base: Box::new(e),
                                field: f,
                                arrow: true,
                                dynamic: true,
                            };
                        }
                        Tok::LBracket => {
                            self.bump();
                            self.bump();
                            let idx = self.expr()?;
                            self.expect(Tok::RBracket)?;
                            e = Expr::Index {
                                base: Box::new(e),
                                index: Box::new(idx),
                                dynamic: true,
                            };
                        }
                        _ => break,
                    }
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr::PostIncDec {
                        lhs: Box::new(e),
                        inc: true,
                    };
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr::PostIncDec {
                        lhs: Box::new(e),
                        inc: false,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            Tok::Ident(name) => {
                self.bump();
                let name = self.names.intern(name);
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.assignment()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let Top::Func { name, body, .. } = &prog.tops[3] else {
            panic!("expected func")
        };
        assert_eq!(prog.names.name(*name), "cacheLookup");
        let Stmt::Block(stmts) = body else { panic!() };
        let Stmt::DynamicRegion { consts, keys, body } = &stmts[0] else {
            panic!("expected dynamicRegion, got {:?}", stmts[0])
        };
        assert_eq!(consts, &[prog.names.get("cache").unwrap()]);
        assert!(keys.is_empty());
        // The unrolled loop with the dynamic-> annotation is in there.
        let Stmt::Block(inner) = body.as_ref() else {
            panic!()
        };
        let unrolled = inner.iter().find_map(|s| match s {
            Stmt::For {
                unrolled: true,
                body,
                ..
            } => Some(body),
            _ => None,
        });
        let loop_body = unrolled.expect("unrolled for parsed");
        let Stmt::Block(lb) = loop_body.as_ref() else {
            panic!()
        };
        let Stmt::If(cond, ..) = &lb[0] else { panic!() };
        let Expr::Bin(BinAop::Eq, lhs, _) = cond else {
            panic!()
        };
        let Expr::Member {
            arrow: true,
            dynamic: true,
            ..
        } = lhs.as_ref()
        else {
            panic!("dynamic-> parsed as dynamic member access")
        };
    }

    #[test]
    fn keyed_region() {
        let src = "int f(int c) { dynamicRegion key(c) (c) { return c; } }";
        let prog = parse(src).unwrap();
        let Top::Func { body, .. } = &prog.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        let Stmt::DynamicRegion { consts, keys, .. } = &b[0] else {
            panic!()
        };
        let c = prog.names.get("c").unwrap();
        assert_eq!(keys, &[c]);
        assert_eq!(consts, &[c]);
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
        let Top::Func { body, .. } = &prog.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        let Stmt::Switch(_, items) = &b[1] else {
            panic!("switch")
        };
        let labels: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                SwitchItem::Label(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec![Some(1), Some(2), Some(3), None]);
        assert!(matches!(b[3], Stmt::Label(..)));
    }

    #[test]
    fn precedence() {
        let e = parse("int f() { return 1 + 2 * 3 << 1 < 4 == 5 && 6; }").unwrap();
        let Top::Func { body, .. } = &e.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        let Stmt::Return(Some(Expr::Bin(BinAop::LogAnd, lhs, _))) = &b[0] else {
            panic!("&& binds loosest")
        };
        let Expr::Bin(BinAop::Eq, l2, _) = lhs.as_ref() else {
            panic!("== next")
        };
        let Expr::Bin(BinAop::Lt, l3, _) = l2.as_ref() else {
            panic!("< next")
        };
        let Expr::Bin(BinAop::Shl, l4, _) = l3.as_ref() else {
            panic!("<< next")
        };
        let Expr::Bin(BinAop::Add, _, r5) = l4.as_ref() else {
            panic!("+ next")
        };
        assert!(matches!(r5.as_ref(), Expr::Bin(BinAop::Mul, ..)));
    }

    #[test]
    fn casts_and_sizeof() {
        let p = parse("int f(void* p) { return (int) p + sizeof(struct S) + (unsigned) 3; }");
        // struct S undefined is a *type* error caught at lowering, not parse.
        assert!(p.is_ok());
        let p = parse("double g(int x) { return (double) x; }").unwrap();
        let Top::Func { body, .. } = &p.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        assert!(matches!(&b[0], Stmt::Return(Some(Expr::Cast(..)))));
    }

    #[test]
    fn declarations_with_multiple_declarators() {
        let p = parse("int f() { int a = 1, b = 2; return a + b; }").unwrap();
        let Top::Func { body, .. } = &p.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        let Stmt::Block(decls) = &b[0] else {
            panic!("comma decls split into a block")
        };
        assert_eq!(decls.len(), 2);
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
        let Top::Func { body, .. } = &p.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        assert!(matches!(
            &b[0],
            Stmt::Expr(Expr::PostIncDec { inc: true, .. })
        ));
        assert!(matches!(
            &b[1],
            Stmt::Expr(Expr::PreIncDec { inc: false, .. })
        ));
        assert!(matches!(&b[2], Stmt::Return(Some(Expr::Cond(..)))));
    }

    #[test]
    fn dynamic_star_unary() {
        let p = parse("int f(int* p) { return dynamic* p; }").unwrap();
        let Top::Func { body, .. } = &p.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        assert!(matches!(
            &b[0],
            Stmt::Return(Some(Expr::Deref { dynamic: true, .. }))
        ));
    }

    #[test]
    fn dynamic_index() {
        let p = parse("int f(int* a, int i) { return a dynamic[ i ]; }").unwrap();
        let Top::Func { body, .. } = &p.tops[0] else {
            panic!()
        };
        let Stmt::Block(b) = body else { panic!() };
        assert!(matches!(
            &b[0],
            Stmt::Return(Some(Expr::Index { dynamic: true, .. }))
        ));
    }
}
