//! MiniC lexer.
//!
//! One pass over the source bytes. Identifiers are slices of the source
//! (the parser interns them); numbers are parsed from slices; punctuators
//! come from one `match` on up to three bytes. Identifiers start with an
//! ASCII letter or `_` and continue with any alphanumeric char, and
//! columns count chars, not bytes.

use std::fmt;

/// Token kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Identifier.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    // Keywords.
    /// `int`
    KwInt,
    /// `unsigned`
    KwUnsigned,
    /// `signed`
    KwSigned,
    /// `char`
    KwChar,
    /// `short`
    KwShort,
    /// `long`
    KwLong,
    /// `double`
    KwDouble,
    /// `void`
    KwVoid,
    /// `struct`
    KwStruct,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `for`
    KwFor,
    /// `switch`
    KwSwitch,
    /// `case`
    KwCase,
    /// `default`
    KwDefault,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `return`
    KwReturn,
    /// `goto`
    KwGoto,
    /// `sizeof`
    KwSizeof,
    /// `dynamicRegion` (§2 annotation)
    KwDynamicRegion,
    /// `key` (§2 annotation)
    KwKey,
    /// `unrolled` (§2 annotation)
    KwUnrolled,
    /// `dynamic` (§2 annotation on dereferences)
    KwDynamic,
    // Punctuation / operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `=`
    Eq,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `%=`
    PercentEq,
    /// `&=`
    AmpEq,
    /// `|=`
    PipeEq,
    /// `^=`
    CaretEq,
    /// `<<=`
    ShlEq,
    /// `>>=`
    ShrEq,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Float(v) => write!(f, "float `{v}`"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for LexError {}

/// The keyword `word` spells, if any.
fn keyword(word: &str) -> Option<Tok<'static>> {
    Some(match word {
        "int" => Tok::KwInt,
        "unsigned" => Tok::KwUnsigned,
        "signed" => Tok::KwSigned,
        "char" => Tok::KwChar,
        "short" => Tok::KwShort,
        "long" => Tok::KwLong,
        "double" => Tok::KwDouble,
        "float" => Tok::KwDouble, // MiniC floats are doubles
        "void" => Tok::KwVoid,
        "struct" => Tok::KwStruct,
        "if" => Tok::KwIf,
        "else" => Tok::KwElse,
        "while" => Tok::KwWhile,
        "do" => Tok::KwDo,
        "for" => Tok::KwFor,
        "switch" => Tok::KwSwitch,
        "case" => Tok::KwCase,
        "default" => Tok::KwDefault,
        "break" => Tok::KwBreak,
        "continue" => Tok::KwContinue,
        "return" => Tok::KwReturn,
        "goto" => Tok::KwGoto,
        "sizeof" => Tok::KwSizeof,
        "dynamicRegion" => Tok::KwDynamicRegion,
        "key" => Tok::KwKey,
        "unrolled" => Tok::KwUnrolled,
        "dynamic" => Tok::KwDynamic,
        _ => return None,
    })
}

/// The punctuator `s` starts with, longest first, and its length.
fn punctuator(s: &[u8]) -> Option<(Tok<'static>, usize)> {
    let at = |k: usize| s.get(k).copied().unwrap_or(0);
    Some(match (at(0), at(1), at(2)) {
        (b'<', b'<', b'=') => (Tok::ShlEq, 3),
        (b'>', b'>', b'=') => (Tok::ShrEq, 3),
        (b'-', b'>', _) => (Tok::Arrow, 2),
        (b'+', b'+', _) => (Tok::PlusPlus, 2),
        (b'-', b'-', _) => (Tok::MinusMinus, 2),
        (b'<', b'<', _) => (Tok::Shl, 2),
        (b'>', b'>', _) => (Tok::Shr, 2),
        (b'<', b'=', _) => (Tok::Le, 2),
        (b'>', b'=', _) => (Tok::Ge, 2),
        (b'=', b'=', _) => (Tok::EqEq, 2),
        (b'!', b'=', _) => (Tok::Ne, 2),
        (b'&', b'&', _) => (Tok::AndAnd, 2),
        (b'|', b'|', _) => (Tok::OrOr, 2),
        (b'+', b'=', _) => (Tok::PlusEq, 2),
        (b'-', b'=', _) => (Tok::MinusEq, 2),
        (b'*', b'=', _) => (Tok::StarEq, 2),
        (b'/', b'=', _) => (Tok::SlashEq, 2),
        (b'%', b'=', _) => (Tok::PercentEq, 2),
        (b'&', b'=', _) => (Tok::AmpEq, 2),
        (b'|', b'=', _) => (Tok::PipeEq, 2),
        (b'^', b'=', _) => (Tok::CaretEq, 2),
        (b'(', ..) => (Tok::LParen, 1),
        (b')', ..) => (Tok::RParen, 1),
        (b'{', ..) => (Tok::LBrace, 1),
        (b'}', ..) => (Tok::RBrace, 1),
        (b'[', ..) => (Tok::LBracket, 1),
        (b']', ..) => (Tok::RBracket, 1),
        (b';', ..) => (Tok::Semi, 1),
        (b',', ..) => (Tok::Comma, 1),
        (b':', ..) => (Tok::Colon, 1),
        (b'?', ..) => (Tok::Question, 1),
        (b'.', ..) => (Tok::Dot, 1),
        (b'+', ..) => (Tok::Plus, 1),
        (b'-', ..) => (Tok::Minus, 1),
        (b'*', ..) => (Tok::Star, 1),
        (b'/', ..) => (Tok::Slash, 1),
        (b'%', ..) => (Tok::Percent, 1),
        (b'&', ..) => (Tok::Amp, 1),
        (b'|', ..) => (Tok::Pipe, 1),
        (b'^', ..) => (Tok::Caret, 1),
        (b'~', ..) => (Tok::Tilde, 1),
        (b'!', ..) => (Tok::Bang, 1),
        (b'<', ..) => (Tok::Lt, 1),
        (b'>', ..) => (Tok::Gt, 1),
        (b'=', ..) => (Tok::Eq, 1),
        _ => return None,
    })
}

/// Length in bytes of the UTF-8 char whose first byte is `b`.
fn char_len(b: u8) -> usize {
    match b {
        0..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Tokenize MiniC source.
///
/// # Errors
/// Fails on unterminated comments, malformed numbers or stray characters.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / 3);
    let mut i = 0usize;
    let (mut line, mut col) = (1u32, 1u32);

    macro_rules! err {
        ($($a:tt)*) => { return Err(LexError { msg: format!($($a)*), line, col }) };
    }
    // Advance `i` over ASCII bytes matching `pred`, one column each.
    macro_rules! skip_while {
        ($pred:expr) => {
            while i < bytes.len() && $pred(bytes[i]) {
                i += 1;
                col += 1;
            }
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        let mut push = |tok: Tok<'static>| {
            out.push(Token {
                tok,
                line: tline,
                col: tcol,
            })
        };
        match c {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // The column stays put: the newline resets it.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                col += 2;
                loop {
                    // A comment must close before the source's last char.
                    if i >= bytes.len() || i + char_len(bytes[i]) >= bytes.len() {
                        err!("unterminated block comment");
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += char_len(bytes[i]);
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i];
                    let len = if b.is_ascii_alphanumeric() || b == b'_' {
                        1
                    } else if b >= 0x80
                        && src[i..].chars().next().is_some_and(char::is_alphanumeric)
                    {
                        char_len(b)
                    } else {
                        break;
                    };
                    i += len;
                    col += 1;
                }
                let word = &src[start..i];
                out.push(Token {
                    tok: keyword(word).unwrap_or(Tok::Ident(word)),
                    line: tline,
                    col: tcol,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                if c == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X')) {
                    i += 2;
                    col += 2;
                    let hstart = i;
                    skip_while!(|b: u8| b.is_ascii_hexdigit());
                    let hex = &src[hstart..i];
                    if hex.is_empty() {
                        err!("malformed hex literal");
                    }
                    let v = u64::from_str_radix(hex, 16).map_err(|e| LexError {
                        msg: format!("bad hex literal: {e}"),
                        line,
                        col,
                    })?;
                    push(Tok::Int(v as i64));
                    continue;
                }
                skip_while!(|b: u8| b.is_ascii_digit());
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i += 1;
                    col += 1;
                    skip_while!(|b: u8| b.is_ascii_digit());
                }
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    is_float = true;
                    i += 1;
                    col += 1;
                    if matches!(bytes.get(i), Some(b'+' | b'-')) {
                        i += 1;
                        col += 1;
                    }
                    skip_while!(|b: u8| b.is_ascii_digit());
                }
                let text = &src[start..i];
                if is_float {
                    let v = text.parse::<f64>().map_err(|e| LexError {
                        msg: format!("bad float: {e}"),
                        line,
                        col,
                    })?;
                    push(Tok::Float(v));
                } else {
                    let v = text.parse::<i64>().map_err(|e| LexError {
                        msg: format!("bad integer: {e}"),
                        line,
                        col,
                    })?;
                    push(Tok::Int(v));
                }
            }
            _ => match punctuator(&bytes[i..]) {
                Some((tok, len)) => {
                    push(tok);
                    i += len;
                    col += len as u32;
                }
                None => {
                    let c = src[i..].chars().next().unwrap_or('?');
                    err!("unexpected character `{c}`");
                }
            },
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("int x unrolled dynamicRegion dynamic key"),
            vec![
                Tok::KwInt,
                Tok::Ident("x"),
                Tok::KwUnrolled,
                Tok::KwDynamicRegion,
                Tok::KwDynamic,
                Tok::KwKey,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("0 42 0x1F 3.5 1e3 2.5e-2"),
            vec![
                Tok::Int(0),
                Tok::Int(42),
                Tok::Int(31),
                Tok::Float(3.5),
                Tok::Float(1000.0),
                Tok::Float(0.025),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a->b <<= >> >= = == != ++x"),
            vec![
                Tok::Ident("a"),
                Tok::Arrow,
                Tok::Ident("b"),
                Tok::ShlEq,
                Tok::Shr,
                Tok::Ge,
                Tok::Eq,
                Tok::EqEq,
                Tok::Ne,
                Tok::PlusPlus,
                Tok::Ident("x"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n /* block \n comment */ b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn stray_character_errors() {
        assert!(lex("a @ b").is_err());
    }
}
