//! `compare A.json B.json`: are two results files the same within bounds?
//!
//! Prints one row per (metric, workload) with both values and the ratio B/A,
//! and exits non-zero if any end-to-end metric differs by more than its
//! bound (in either direction: the verdict says which), any exact count
//! differs at all, the inputs differ at the same seed, or the share of failed
//! operations rose.

use crate::metrics::{end_to_end, per_layer, Better, MetricDef, WORKLOADS};
use crate::suite::number;
use dyncomp::server::Json;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for an exact count, equal).
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// An exact count, the input fingerprint or the failed share differs.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Better => "BETTER",
            Verdict::Differs => "DIFFERS",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub note: String,
    pub verdict: Verdict,
}

/// Judge an end-to-end metric: B against the base A under `def`'s bound.
pub fn judge(def: &MetricDef, a: f64, b: f64) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let change = b / a - 1.0;
    let worse = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn value(section: Option<&Json>, metric: &str) -> Option<f64> {
    section?.get(metric)?.get("value").and_then(number)
}

/// Every row of the comparison of two results documents.
pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    let same_seed = a.get("seed").and_then(Json::as_int) == b.get("seed").and_then(Json::as_int);
    let e2e = end_to_end();
    let layers = per_layer();
    for workload in WORKLOADS {
        let section = |doc: &'_ Json| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (section(a), section(b)) else {
            continue;
        };
        let mut push = |metric: &str, a: f64, b: f64, note: String, verdict: Verdict| {
            out.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a,
                b,
                note,
                verdict,
            });
        };
        for d in &e2e {
            let (va, vb) = (
                value(wa.get("end_to_end"), &d.name),
                value(wb.get("end_to_end"), &d.name),
            );
            if let (Some(va), Some(vb)) = (va, vb) {
                let note = format!(
                    "{} is better, bound {:.0} %",
                    d.better.name(),
                    d.bound.unwrap_or(0.0) * 100.0
                );
                push(&d.name, va, vb, note, judge(d, va, vb));
            }
        }
        if same_seed {
            for d in layers.iter().filter(|d| d.exact) {
                let (va, vb) = (
                    value(wa.get("per_layer"), &d.name).unwrap_or(0.0),
                    value(wb.get("per_layer"), &d.name).unwrap_or(0.0),
                );
                if va != 0.0 || vb != 0.0 {
                    let verdict = if va == vb {
                        Verdict::Same
                    } else {
                        Verdict::Differs
                    };
                    push(&d.name, va, vb, "exact count".to_string(), verdict);
                }
            }
            let fnv = |w: &Json| {
                w.get("inputs_fnv")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            if fnv(&wa) != fnv(&wb) {
                push(
                    "inputs_fnv",
                    0.0,
                    0.0,
                    format!(
                        "inputs differ at the same seed: {:?} vs {:?}",
                        fnv(&wa),
                        fnv(&wb)
                    ),
                    Verdict::Differs,
                );
            }
        }
        let share = |w: &Json| {
            let n = |k: &str| w.get(k).and_then(number).unwrap_or(0.0);
            if n("attempted") > 0.0 {
                n("failed") / n("attempted")
            } else {
                1.0
            }
        };
        let (fa, fb) = (share(&wa), share(&wb));
        let verdict = if fb > fa {
            Verdict::Differs
        } else {
            Verdict::Same
        };
        push(
            "failed/attempted",
            fa,
            fb,
            "must not rise".to_string(),
            verdict,
        );
    }
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dyncomp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = rows(&a, &b);
    if rows.is_empty() {
        eprintln!("dyncomp-benchmark: the two files share no workload");
        return ExitCode::from(2);
    }
    println!(
        "{:<13} {:<36} {:>16} {:>16} {:>9}  {:<8} note",
        "workload", "metric", "A", "B", "B/A", "verdict"
    );
    for r in &rows {
        let ratio = if r.a != 0.0 {
            format!("{:.4}", r.b / r.a)
        } else {
            "-".to_string()
        };
        println!(
            "{:<13} {:<36} {:>16.4} {:>16.4} {:>9}  {:<8} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.label(),
            r.note
        );
    }
    let differing = rows.iter().filter(|r| r.verdict != Verdict::Same).count();
    println!(
        "{} rows, {differing} outside their bound (ratios are B/A, base A = {a_path})",
        rows.len()
    );
    if differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".to_string(),
            unit: "u",
            better,
            bound: Some(bound),
            exact: false,
        }
    }

    #[test]
    fn judge_respects_direction_and_bound() {
        let lower = def(Better::Lower, 0.10);
        assert_eq!(judge(&lower, 100.0, 109.0), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 111.0), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 89.0), Verdict::Better);
        let higher = def(Better::Higher, 0.10);
        assert_eq!(judge(&higher, 100.0, 91.0), Verdict::Same);
        assert_eq!(judge(&higher, 100.0, 89.0), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 111.0), Verdict::Better);
    }

    fn doc(seed: u64, ops: f64, words: u64, failed: u64, fnv: &str) -> Json {
        Json::parse(&format!(
            "{{\"seed\": {seed}, \"workloads\": {{\"compile\": {{\
             \"inputs_fnv\": \"{fnv}\", \"attempted\": 100, \"failed\": {failed}, \
             \"end_to_end\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}, \
             \"per_layer\": {{\"codegen.code_words\": {{\"value\": {words}, \"unit\": \"count\"}}}}\
             }}}}}}"
        ))
        .unwrap()
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_documents_are_the_same() {
        let a = doc(1, 200.0, 17, 0, "ab");
        let r = rows(&a, &a);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn a_throughput_drop_past_the_bound_is_worse() {
        let r = rows(&doc(1, 200.0, 17, 0, "ab"), &doc(1, 140.0, 17, 0, "ab"));
        assert_eq!(verdict_of(&r, "ops_per_s"), Verdict::Worse);
        assert_eq!(verdict_of(&r, "codegen.code_words"), Verdict::Same);
    }

    #[test]
    fn an_exact_count_may_not_move_at_all() {
        let r = rows(&doc(1, 200.0, 17, 0, "ab"), &doc(1, 200.0, 18, 0, "ab"));
        assert_eq!(verdict_of(&r, "codegen.code_words"), Verdict::Differs);
        // ... unless the seeds differ: then counts are not comparable.
        let r = rows(&doc(1, 200.0, 17, 0, "ab"), &doc(2, 200.0, 18, 0, "cd"));
        assert!(r.iter().all(|r| r.metric != "codegen.code_words"));
        assert!(r.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn a_risen_failed_share_or_changed_inputs_differ() {
        let r = rows(&doc(1, 200.0, 17, 0, "ab"), &doc(1, 200.0, 17, 1, "ab"));
        assert_eq!(verdict_of(&r, "failed/attempted"), Verdict::Differs);
        let r = rows(&doc(1, 200.0, 17, 1, "ab"), &doc(1, 200.0, 17, 0, "ab"));
        assert_eq!(verdict_of(&r, "failed/attempted"), Verdict::Same);
        let r = rows(&doc(1, 200.0, 17, 0, "ab"), &doc(1, 200.0, 17, 0, "cd"));
        assert_eq!(verdict_of(&r, "inputs_fnv"), Verdict::Differs);
    }
}
