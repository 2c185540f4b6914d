//! Seeded random MiniC programs: a few statements of assignments,
//! branches, bounded loops, `unrolled` loops and switches over three
//! variables and two parameters, rendered either as plain C or with the
//! body wrapped in a `dynamicRegion` keyed on `k`.
//!
//! Shared by the test crates that need the corpus (`#[path]`-included).

use dyncomp_ir::prng::SplitMix64;

/// A tiny expression AST we can render as MiniC.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Parameter `k` (the region's run-time constant).
    K,
    /// Parameter `x` (always dynamic).
    X,
    /// A local variable by index.
    Var(u8),
    /// Integer literal.
    Lit(i8),
    /// Binary operation.
    Bin(&'static str, Box<Expr>, Box<Expr>),
}

const BIN_OPS: [&str; 10] = ["+", "-", "*", "&", "|", "^", "<", ">", "==", "!="];

fn random_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.chance(2, 5);
    if leaf {
        match rng.below(4) {
            0 => Expr::K,
            1 => Expr::X,
            2 => Expr::Var(rng.next_u64() as u8),
            _ => Expr::Lit(rng.next_u64() as i8),
        }
    } else {
        let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
        let a = random_expr(rng, depth - 1);
        let b = random_expr(rng, depth - 1);
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
}

fn render(e: &Expr) -> String {
    match e {
        Expr::K => "k".into(),
        Expr::X => "x".into(),
        Expr::Var(v) => format!("v{}", v % 3),
        Expr::Lit(l) => {
            if *l < 0 {
                format!("(0 - {})", -i32::from(*l))
            } else {
                format!("{l}")
            }
        }
        Expr::Bin(op, a, b) => format!("({} {} {})", render(a), op, render(b)),
    }
}

#[derive(Clone, Debug)]
pub enum Stmt {
    Assign(u8, Expr),
    If(Expr, (u8, Expr), Option<(u8, Expr)>),
    /// `if` with full statement blocks in both arms (nesting!).
    IfBlock(Expr, Vec<Stmt>, Vec<Stmt>),
    /// Bounded loop: `for (i = 0; i < n; i++) v += expr;` with n in 0..6.
    Loop(u8, u8, Expr),
    /// `unrolled for` with a constant trip count (renders as a plain loop
    /// in the static variant, where the annotation would be illegal).
    Unrolled(u8, u8, Expr),
    /// `switch (sel) { case 0 / case 1 / default }`, each arm an assignment.
    Switch(Expr, (u8, Expr), (u8, Expr), (u8, Expr)),
}

fn random_stmt(rng: &mut SplitMix64, nest: u32) -> Stmt {
    // `IfBlock` arms nest full statement lists, so loops/switches/unrolled
    // loops appear under dynamic and constant branches alike.
    if nest > 0 && rng.chance(1, 4) {
        let c = random_expr(rng, 2);
        let t = (0..rng.below(3))
            .map(|_| random_stmt(rng, nest - 1))
            .collect();
        let e = (0..rng.below(3))
            .map(|_| random_stmt(rng, nest - 1))
            .collect();
        return Stmt::IfBlock(c, t, e);
    }
    match rng.below(5) {
        0 => Stmt::Assign(rng.next_u64() as u8, random_expr(rng, 3)),
        1 => {
            let c = random_expr(rng, 2);
            let v = rng.next_u64() as u8;
            let t = random_expr(rng, 2);
            let e = if rng.chance(1, 2) {
                Some((rng.next_u64() as u8, random_expr(rng, 2)))
            } else {
                None
            };
            Stmt::If(c, (v, t), e)
        }
        2 => Stmt::Loop(
            rng.next_u64() as u8,
            rng.below(6) as u8,
            random_expr(rng, 2),
        ),
        3 => Stmt::Unrolled(
            rng.next_u64() as u8,
            rng.below(5) as u8,
            random_expr(rng, 2),
        ),
        _ => Stmt::Switch(
            random_expr(rng, 2),
            (rng.next_u64() as u8, random_expr(rng, 2)),
            (rng.next_u64() as u8, random_expr(rng, 2)),
            (rng.next_u64() as u8, random_expr(rng, 2)),
        ),
    }
}

pub fn random_stmts(rng: &mut SplitMix64) -> Vec<Stmt> {
    (0..rng.range_u64(1, 6))
        .map(|_| random_stmt(rng, 2))
        .collect()
}

fn render_stmt(s: &Stmt, dynamic: bool, out: &mut String) {
    match s {
        Stmt::Assign(v, e) => out.push_str(&format!("v{} = {};\n", v % 3, render(e))),
        Stmt::IfBlock(c, t, e) => {
            out.push_str(&format!("if ({}) {{\n", render(c)));
            for st in t {
                render_stmt(st, dynamic, out);
            }
            out.push_str("} else {\n");
            for st in e {
                render_stmt(st, dynamic, out);
            }
            out.push_str("}\n");
        }
        Stmt::If(c, (v, t), e) => {
            out.push_str(&format!(
                "if ({}) {{ v{} = {}; }}",
                render(c),
                v % 3,
                render(t)
            ));
            if let Some((v2, e2)) = e {
                out.push_str(&format!(" else {{ v{} = {}; }}", v2 % 3, render(e2)));
            }
            out.push('\n');
        }
        Stmt::Loop(v, n, e) => {
            out.push_str(&format!(
                "for (li = 0; li < {n}; li++) {{ v{} = v{} + ({}); }}\n",
                v % 3,
                v % 3,
                render(e)
            ));
        }
        Stmt::Unrolled(v, n, e) => {
            // `unrolled` is only legal inside a dynamic region; the static
            // rendering of the same program uses an ordinary loop.
            let kw = if dynamic { "unrolled " } else { "" };
            out.push_str(&format!(
                "{kw}for (li = 0; li < {n}; li++) {{ v{} = v{} + ({}); }}\n",
                v % 3,
                v % 3,
                render(e)
            ));
        }
        Stmt::Switch(sel, (va, ea), (vb, eb), (vd, ed)) => {
            out.push_str(&format!(
                "switch ({}) {{ case 0: v{} = {}; break; case 1: v{} = {}; break; \
                 default: v{} = {}; break; }}\n",
                render(sel),
                va % 3,
                render(ea),
                vb % 3,
                render(eb),
                vd % 3,
                render(ed)
            ));
        }
    }
}

/// Render a full program; `dynamic` wraps the body in a region keyed on k.
pub fn render_program(stmts: &[Stmt], dynamic: bool) -> String {
    let mut body = String::new();
    for s in stmts {
        render_stmt(s, dynamic, &mut body);
    }
    let core = format!(
        "int v0 = k; int v1 = x; int v2 = 7; int li;\n{body}\nreturn v0 * 3 + v1 * 5 + v2;"
    );
    if dynamic {
        format!("int f(int k, int x) {{ dynamicRegion (k) {{ {core} }} }}")
    } else {
        format!("int f(int k, int x) {{ {core} }}")
    }
}
