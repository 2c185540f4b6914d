//! Inlining workload 1: the protocol/message field decoder.
//!
//! The wire layout — how many fields, each field's decode *kind* and
//! parameter — is the run-time constant (a session negotiates its layout
//! once, then decodes many messages). The per-field decoder lives in a
//! separate `decode` helper, so the hot loop crosses a function boundary
//! inside the dynamic region: without demand-driven inlining the stitched
//! code performs one template call and one runtime `switch` per field;
//! with `--inline-depth` the callee body is pulled into the region, each
//! field's kind `switch` resolves at stitch time, and the decode
//! parameters fold to immediates — the speedup *requires* inlining.

use crate::Workload;
use dyncomp::{KernelSetup, Session};
use dyncomp_ir::prng::SplitMix64;

/// Decode kinds: 0 raw, 1 biased, 2 scaled, 3 byte-extract, 4 masked,
/// 5 threshold flag.
pub const SRC: &str = r#"
    struct Layout { int n; int *kind; int *param; };
    int decode(int kind, int val, int param) {
        int r = 0;
        switch (kind) {
            case 0: r = val; break;
            case 1: r = val + param; break;
            case 2: r = val * param; break;
            case 3: r = (val >> param) & 255; break;
            case 4: r = val & param; break;
            default: r = val < param; break;
        }
        return r;
    }
    int decode_msg(struct Layout *l, int *msg) {
        dynamicRegion (l) {
            int acc = 0;
            int i;
            unrolled for (i = 0; i < l->n; i++) {
                acc = acc + decode(l->kind[i], msg[i], l->param[i]);
            }
            return acc;
        }
    }
"#;

/// Messages rotated through per iteration (prepared once in VM memory).
pub const MSG_ROTATION: u64 = 8;

/// A reproducible wire layout.
pub struct Layout {
    /// Decode kind per field (0..=5).
    pub kind: Vec<i64>,
    /// Decode parameter per field.
    pub param: Vec<i64>,
}

/// Generate an `n`-field layout covering all six decode kinds.
pub fn gen_layout(n: u64, seed: u64) -> Layout {
    let mut rng = SplitMix64::new(seed);
    let mut l = Layout {
        kind: vec![],
        param: vec![],
    };
    for i in 0..n {
        l.kind.push((i % 6) as i64);
        // Shift kinds need a bit count; small positives suit every kind.
        l.param.push(rng.range_i64(1, 16));
    }
    l
}

/// Generate one reproducible `n`-field message (non-negative values keep
/// shift/mask semantics identical on host and VM).
pub fn gen_msg(n: u64, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_i64(0, 1024)).collect()
}

/// Host-side reference decoder.
pub fn reference(l: &Layout, msg: &[i64]) -> i64 {
    let mut acc = 0i64;
    for (i, &v) in msg.iter().enumerate().take(l.kind.len()) {
        let p = l.param[i];
        acc = acc.wrapping_add(match l.kind[i] {
            0 => v,
            1 => v + p,
            2 => v * p,
            3 => (v >> p) & 255,
            4 => v & p,
            _ => i64::from(v < p),
        });
    }
    acc
}

/// Install the layout table; returns the `Layout*`.
pub fn build(engine: &mut Session, l: &Layout) -> u64 {
    let mut h = engine.heap();
    let kind = h.array_i64(&l.kind).unwrap();
    let param = h.array_i64(&l.param).unwrap();
    h.record(&[l.kind.len() as u64, kind, param]).unwrap()
}

/// The decoder workload: `iterations` message decodes against a
/// reproducible `n_fields`-field layout, rotating over [`MSG_ROTATION`]
/// distinct messages.
pub fn setup(n_fields: u64, iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "decode_msg",
        iterations,
        prepare: Box::new(move |e: &mut Session| {
            let l = gen_layout(n_fields, 17);
            let mut p = vec![build(e, &l)];
            for m in 0..MSG_ROTATION {
                let msg = gen_msg(n_fields, 100 + m);
                p.push(e.heap().array_i64(&msg).unwrap());
            }
            p
        }),
        args: Box::new(|i, p| vec![p[0], p[1 + (i % MSG_ROTATION) as usize]]),
    }
}

/// The decoder row for [`setup`]`(n_fields, iterations)`, measured with
/// the inliner off and on by `inline_bench`.
pub fn workload(n_fields: u64, iterations: u64) -> Workload {
    Workload {
        kernel: "protomsg",
        config: format!("{n_fields} fields, {iterations} messages"),
        setup: setup(n_fields, iterations),
        name: "Protocol message field decoder",
        table2_config: format!("6 decode kinds; {n_fields}-field wire layout"),
        unit: "messages decoded",
        unit_scale: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    #[test]
    fn decode_matches_host_reference_in_every_mode() {
        let l = gen_layout(9, 17);
        for compiler in [
            Compiler::static_baseline(),
            Compiler::new(),
            Compiler::with_inline_depth(2),
        ] {
            let p = Arc::new(compiler.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let layout = build(&mut e, &l);
            for seed in 0..4 {
                let msg = gen_msg(9, 200 + seed);
                let m = e.heap().array_i64(&msg).unwrap();
                let got = e.call("decode_msg", &[layout, m]).unwrap() as i64;
                assert_eq!(got, reference(&l, &msg), "seed {seed}");
            }
        }
    }

    #[test]
    fn inlining_creates_exactly_one_site() {
        let p = Compiler::with_inline_depth(2).compile(SRC).unwrap();
        assert_eq!(p.inline_sites.len(), 1);
        assert_eq!(p.inline_sites[0].callee_name, "decode");
    }

    #[test]
    fn inlined_measurement_beats_template_calls() {
        let w = workload(8, 40);
        let plain = w
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let inlined = w
            .measure(&Compiler::with_inline_depth(2), EngineOptions::default())
            .unwrap();
        assert_eq!(plain.measurement.checksum, inlined.measurement.checksum);
        assert!(
            inlined.measurement.dynamic_cycles < plain.measurement.dynamic_cycles,
            "inlined {} vs plain {}",
            inlined.measurement.dynamic_cycles,
            plain.measurement.dynamic_cycles
        );
        let o = inlined.measurement.optimizations();
        assert!(o.static_branch_elimination, "kind switches resolved");
        assert!(o.complete_loop_unrolling);
    }
}
