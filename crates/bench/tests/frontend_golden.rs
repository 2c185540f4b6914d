//! Golden output of the MiniC front end: the FNV-1a-64 of every token
//! stream `(Tok, line, col)` over a corpus, and the exact text of every
//! lex, parse and lower error path.
//!
//! The corpus is the seven kernel sources, the calculator's global-stack
//! variant and a seeded synthetic unit, plus short sources aimed at the
//! lexer's edges: all 45 punctuators back to back, non-ASCII identifier
//! continuation and comment text (columns count chars, not bytes), and
//! hex, float and exponent literals. It lives beside the kernels it
//! reads.
//!
//! The constants were taken before the lexer walked bytes and the parser
//! interned names. A changed constant means a token, a position or a
//! message moved: fix the front end, do not re-take the constant.

use dyncomp_bench::kernels::calculator;
use dyncomp_bench::lattice;
use dyncomp_bench::synthetic;
use dyncomp_frontend::lexer::lex;
use dyncomp_frontend::{compile, LowerOptions};
use dyncomp_ir::fnv::Fnv;

/// The hash of one source's token stream: each token's `Debug` form and
/// its position, one line per token.
fn stream_hash(src: &str) -> u64 {
    let toks = lex(src).expect("the corpus lexes");
    let mut h = Fnv::new();
    for t in &toks {
        h.bytes(format!("{:?} {}:{}\n", t.tok, t.line, t.col).as_bytes());
    }
    h.finish()
}

/// Every punctuator the lexer knows, longest-match adjacent, separated by
/// identifiers where two would otherwise fuse.
const PUNCTUATORS: &str = "a<<=b>>=c->d++--e<<f>>g<=h>=i==j!=k&&l||m+=n-=o*=p/=q%=r&=s|=t^=\
u(v)w{x}y[z];A,B:C?D.E+F-G*H/I%J&K|L^M~N!O<P>Q=R";

/// An identifier continued by non-ASCII letters and digits, and a block
/// comment holding non-ASCII text and newlines: positions after both
/// count chars.
const NON_ASCII: &str = "int xé_ñ2 = 1; /* héllo\n wörld ∑ \n */ yß = xé_ñ2;\n\tzz";

/// Literal edges: hex in both cases and at the top of its range, leading
/// zeros, fractions, exponents with and without a sign, a dot that does
/// not start a fraction.
const LITERALS: &str = "0 007 0x0 0XaBcD 0xffffffffffffffff 9223372036854775807 1.5 0.25 \
3e5 2E-2 6.02e+23 1.x 1 .5 12.e3";

#[test]
fn token_streams_match_the_pinned_hashes() {
    let mut corpus: Vec<(&str, String)> = lattice::plan("frontend_golden::corpus")
        .programs
        .iter()
        .map(|k| (k.name(), k.src().to_string()))
        .collect();
    let global_stack = calculator::SRC_GLOBAL_STACK.to_string();
    corpus.insert(1, ("calculator_global_stack", global_stack));
    corpus.extend([
        ("synthetic8", synthetic::unit(8, 0x5eed_0008)),
        ("punctuators", PUNCTUATORS.to_string()),
        ("non_ascii", NON_ASCII.to_string()),
        ("literals", LITERALS.to_string()),
        ("empty", String::new()),
    ]);
    let got: Vec<(&str, u64)> = corpus.iter().map(|(n, s)| (*n, stream_hash(s))).collect();
    let want: [(&str, u64); 13] = [
        ("calculator", 0xbda9_9d59_3dc6_6eb1),
        ("calculator_global_stack", 0xd4cd_72e1_3206_c6d7),
        ("smatmul", 0x86b5_4b50_c246_a326),
        ("spmv", 0x5cdc_68d3_e19d_4dab),
        ("dispatch", 0xa52f_9284_a3ac_69f1),
        ("sorter", 0x8c5f_1baa_deaa_be0f),
        ("protomsg", 0x7257_c6b6_0be6_8642),
        ("queryexec", 0x3456_b965_95b9_6bf1),
        ("synthetic8", 0x9771_1cad_103e_50e7),
        ("punctuators", 0x966a_44f6_db6f_3240),
        ("non_ascii", 0xee37_ef11_5a43_37a0),
        ("literals", 0x60a6_81c8_0088_4dfa),
        ("empty", 0x551b_debc_3a63_ee2f),
    ];
    assert_eq!(got, want, "token streams moved: {got:#x?}");
}

#[test]
fn all_45_punctuators_lex_as_one_token_each() {
    let toks = lex(PUNCTUATORS).unwrap();
    let idents = toks
        .iter()
        .filter(|t| format!("{:?}", t.tok).starts_with("Ident"))
        .count();
    // 44 identifiers, the 45 punctuators among them, and `Eof`.
    assert_eq!((idents, toks.len() - idents - 1), (44, 45));
}

#[test]
fn error_messages_and_positions_are_pinned() {
    let cases: [(&str, &str); 13] = [
        (
            "int x; /* oops\n  never closed",
            "parse error at 2:14: unterminated block comment",
        ),
        (
            "int f() { return 1 @ 2; }",
            "parse error at 1:20: unexpected character `@`",
        ),
        (
            "int f() { return 1 é 2; }",
            "parse error at 1:20: unexpected character `é`",
        ),
        ("int x = 0x;", "parse error at 1:11: malformed hex literal"),
        (
            "double d = 1e;",
            "parse error at 1:14: bad float: invalid float literal",
        ),
        (
            "int x = 0x1ffffffffffffffff;",
            "parse error at 1:28: bad hex literal: number too large to fit in target type",
        ),
        (
            "int x = 99999999999999999999;",
            "parse error at 1:29: bad integer: number too large to fit in target type",
        ),
        (
            "int f() { int x y; }",
            "parse error at 1:17: expected Semi, found identifier `y`",
        ),
        (
            "int f() { goto nowhere; return 0; }",
            "lowering error: undefined label `nowhere`",
        ),
        (
            "int f() { return yy; }",
            "lowering error: in `f`: unknown identifier `yy`",
        ),
        (
            "int f() { return 0; } int f() { return 1; }",
            "lowering error: duplicate function `f`",
        ),
        (
            "int f(int k) { dynamicRegion (k) { goto out; } out: return k; }",
            "lowering error: in `f`: label `out` targeted from across a dynamicRegion boundary",
        ),
        (
            "int f(int k) { out: k = k + 1; dynamicRegion (k) { goto out; } return k; }",
            "lowering error: in `f`: goto `out` crosses a dynamicRegion boundary",
        ),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|(src, _)| match compile(src, &LowerOptions::default()) {
            Ok(_) => "accepted".to_string(),
            Err(e) => e.to_string(),
        })
        .collect();
    let want: Vec<&str> = cases.iter().map(|(_, w)| *w).collect();
    assert_eq!(got, want);
}
