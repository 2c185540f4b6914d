//! The metric registry: every name the benchmark prints, with its unit,
//! direction, regression bound and whether it is an exact count.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["compile", "cold-start", "steady-state", "serve-tcp"];

/// The seven kernels of `crates/bench/src/kernels`, in Table 2 order.
pub const KERNELS: [&str; 7] = [
    "calculator",
    "smatmul",
    "spmv",
    "dispatch",
    "sorter",
    "protomsg",
    "queryexec",
];

/// The `cold-start` rotation's cases.
pub const COLD_CASES: [&str; 7] = [
    "calculator",
    "dispatch",
    "spmv96",
    "smatmul-sweep",
    "sorter4",
    "protomsg-inl2",
    "queryexec-inl2",
];

/// The `cold-start` rotation's cache tier and execution backend pairs.
pub const COLD_TIERS: [&str; 4] = [
    "stitch.vm",
    "stitch.native",
    "shared.native",
    "persist.native",
];

/// The `steady-state` rotation's execution modes.
pub const STEADY_MODES: [&str; 3] = ["static", "vm", "native"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen.
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
    /// An exact count: it must repeat bit-for-bit at the same seed, and
    /// `compare` fails on any difference.
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn count(name: &str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit: "count",
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// The end-to-end metrics. Every workload reports every one of them, each
/// over that workload's own operation (see README, "Metric glossary").
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("ops_per_s", "1/s", Higher, 0.25),
        e2e("op_us_p50", "us", Lower, 0.25),
        e2e("op_us_p90", "us", Lower, 0.25),
        e2e("peak_rss_mib", "MiB", Lower, 0.10),
    ]
}

/// The per-layer metrics, layer = module name. A traced run reports every
/// one; a layer the workload never enters reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let ns = |n: &str| layer(n, "ns", Lower);
    let mut v = vec![
        // compile: the static compiler, phase by phase.
        ns("frontend.compile_ns"),
        count("frontend.src_bytes"),
        count("frontend.ir_insts"),
        ns("ir.ssa_ns"),
        ns("ir.cfg_verify_ns"),
        ns("opt.optimize_ns"),
        count("opt.ir_insts_after"),
        ns("analysis.analyze_region_ns"),
        count("analysis.regions"),
        ns("specialize.region_ns"),
        count("specialize.holes"),
        count("specialize.const_insts_eliminated"),
        ns("codegen.compile_module_ns"),
        count("codegen.code_words"),
        count("codegen.template_words"),
        ns("core.compile_ns"),
        ns("core.compile_unattributed_ns"),
        count("core.inline_sites"),
        // cold-start: session creation, trap, set-up, stitch, install.
        ns("engine.session_new_ns"),
        ns("engine.cold_calls_ns"),
        ns("engine.cold_unattributed_ns"),
        count("engine.sim_setup_cycles"),
        count("engine.trap_invocations"),
        ns("stitcher.stitch_ns"),
        layer("stitcher.ns_per_instruction", "ns", Lower),
        count("stitcher.instructions_stitched"),
        count("stitcher.words_emitted"),
        count("stitcher.plan_hits"),
        count("stitcher.plan_misses"),
        count("stitcher.sim_cycles"),
        ns("stitcher.relocate_ns"),
        ns("machine.verify_ns"),
        layer("machine.verify_ns_per_word", "ns", Lower),
        // steady-state: the two execution engines.
        layer("machine.vm_ns_per_kcycle.static", "ns", Lower),
        layer("machine.vm_ns_per_kcycle.stitched", "ns", Lower),
        ns("native.translate_ns"),
        layer("native.translate_ns_per_instruction", "ns", Lower),
        ns("native.install_ns"),
        layer("native.bytes_per_instruction", "B", Lower),
        layer("native.ns_per_kcycle", "ns", Lower),
        count("native.entries"),
        count("native.chained"),
        count("native.declined"),
        ns("cache.lookup_ns"),
        ns("cache.insert_ns"),
        layer("cache.hit_share", "share", Higher),
        ns("persist.load_program_ns"),
        ns("persist.store_program_ns"),
        count("persist.instance_hits"),
        count("persist.instance_rejects"),
        count("persist.bytes_on_disk"),
        // serve-tcp: the server's own modules.
        ns("proto.read_frame_ns"),
        ns("proto.write_frame_ns"),
        ns("json.parse_ns"),
        ns("pool.run_handoff_ns"),
        ns("state.handle_call_ns"),
        ns("state.handle_open_ns"),
        ns("state.handle_close_ns"),
        ns("state.handle_metrics_ns_20k"),
        count("state.metrics_bytes_20k"),
        layer("net.ping_rtt_us", "us", Lower),
        layer("net.transport_share", "share", Lower),
        // The sub-aggregates behind the end-to-end values.
        layer("serve_calls_per_s", "1/s", Higher),
        layer("serve_rtt_us_p50", "us", Lower),
        layer("serve_rtt_us_p99", "us", Lower),
        layer("serve_sessions_per_s", "1/s", Higher),
    ];
    for tier in COLD_TIERS {
        v.push(layer(format!("cold_start_us.{tier}"), "us", Lower));
    }
    for mode in STEADY_MODES {
        v.push(layer(format!("steady_ns_per_call.{mode}"), "ns", Lower));
    }
    for tier in COLD_TIERS {
        for case in COLD_CASES {
            v.push(layer(format!("cold_start_us.{tier}.{case}"), "us", Lower));
        }
    }
    for mode in STEADY_MODES {
        for kernel in KERNELS {
            v.push(layer(
                format!("steady_ns_per_call.{mode}.{kernel}"),
                "ns",
                Lower,
            ));
        }
    }
    for w in WORKLOADS {
        v.push(layer(format!("trace_overhead_pct.{w}"), "%", Lower));
    }
    v
}

/// Metric values by name, as a workload produces them.
pub type Values = BTreeMap<String, f64>;

/// Operations attempted and operations that failed their check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// One operation that could not even start (a lost connection, a
    /// set-up that failed).
    pub const LOST: Tally = Tally {
        attempted: 1,
        failed: 1,
    };

    /// Count one operation; `ok` is whether its output was correct.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub inputs_fnv: u64,
    /// The run's metrics: the end-to-end set with tracing off, the
    /// workload's own per-layer set with tracing on.
    pub values: Values,
    /// Rows printed beside the metrics but not gated: host-vs-simulated
    /// ratios, minima and maxima, sample counts.
    pub derived: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn derive(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.derived.push((name.into(), value, unit));
    }
}

/// Fill `defs` from `values` (0 for a per-layer metric the workload does
/// not exercise) and render `name: {value, unit}` pairs as a JSON object.
///
/// # Panics
/// Panics when `values` holds a name outside `defs` or a non-finite value:
/// both are harness bugs that must not reach a results file.
pub fn render_metrics(defs: &[MetricDef], values: &Values) -> String {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| &d.name == name),
            "metric `{name}` is not in the registry"
        );
    }
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric `{}` is not finite", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::server::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let e = end_to_end();
        let l = per_layer();
        assert!((1..=16).contains(&e.len()));
        assert!((1..=128).contains(&l.len()), "{} per-layer names", l.len());
        let mut seen = std::collections::BTreeSet::new();
        for d in e.iter().chain(l.iter()) {
            assert!(seen.insert(d.name.clone()), "duplicate name {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(e.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` (one directory up) must list exactly the registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name.as_str()));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.name())
                );
                let bound = match j.get("bound") {
                    Some(Json::Num(b)) => Some(*b),
                    Some(Json::Int(b)) => Some(*b as f64),
                    _ => None,
                };
                assert_eq!(bound, d.bound, "bound of {}", d.name);
            }
        };
        check("end_to_end", &end_to_end());
        check("per_layer", &per_layer());
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn render_fills_unexercised_layers_with_zero() {
        let defs = vec![count("a.n"), layer("b.ns", "ns", Better::Lower)];
        let mut values = Values::new();
        values.insert("b.ns".to_string(), 1.5);
        let doc = Json::parse(&render_metrics(&defs, &values)).unwrap();
        assert_eq!(
            doc.get("a.n").and_then(|m| m.get("value")),
            Some(&Json::Int(0))
        );
        assert_eq!(
            doc.get("b.ns").and_then(|m| m.get("value")),
            Some(&Json::Num(1.5))
        );
    }
}
