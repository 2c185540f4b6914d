//! Seeded synthetic compilation units for the static compiler's tests:
//! many functions of a few shapes, each leaving work for every optimizer
//! pass.

use dyncomp_ir::prng::SplitMix64;

/// A seeded `n_funcs`-function unit mixing three shapes: an unrolled
/// `switch` interpreter over a constant table, a keyed region over
/// redundant integer arithmetic, and region-free loops with floats and
/// calls. Every shape leaves work for each optimizer pass.
pub fn unit(n_funcs: usize, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut src = String::from("struct Tab { int n; int *kind; int *val; };\n");
    let mut plain: Vec<usize> = Vec::new();
    for i in 0..n_funcs {
        let (a, b, c) = (
            rng.range_i64(1, 100),
            rng.range_i64(2, 9),
            rng.range_i64(1, 5),
        );
        match rng.below(3) {
            0 => src.push_str(&format!(
                "int f{i}(struct Tab *t, int x) {{
    dynamicRegion (t) {{
        int acc = {a};
        int j;
        unrolled for (j = 0; j < t->n; j++) {{
            switch (t->kind[j]) {{
                case 0: acc = acc + t->val[j] * x; break;
                case 1: acc = acc - (x & t->val[j]); break;
                case 2: acc = acc * {b} + t->val[j]; break;
                default: acc = acc + (x >> {c}) - t->val[j]; break;
            }}
        }}
        return acc;
    }}
}}
"
            )),
            1 => src.push_str(&format!(
                "int f{i}(int k, int x) {{
    int p = x * {b} + x * {b};
    int q = (x + {a}) * (x + {a}) - p;
    dynamicRegion key(k) (k) {{
        int j;
        int acc = q + 0;
        unrolled for (j = 0; j < k; j++) {{
            acc = acc + (x ^ j) * {b} + j * k;
        }}
        return acc + k * {c} - (k + 0) * 1;
    }}
}}
"
            )),
            _ => {
                let call = match plain.last() {
                    Some(&g) => format!("f{g}(n - 1, x)"),
                    None => "0".to_string(),
                };
                src.push_str(&format!(
                    "int f{i}(int n, int x) {{
    double s = 0.0;
    int c = 0;
    int j;
    for (j = 0; j < n; j++) {{
        s = s + (double) (x * j) * 0.5;
        if (j - (j / 3) * 3 == 0) {{ c = c + (x & j) * {b}; }} else {{ c = c - {c}; }}
    }}
    return c + (int) s + {a} * 1 + {call};
}}
"
                ));
                plain.push(i);
            }
        }
    }
    src
}
