//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing inside the program under test is
//! instrumented. They are kept in memory and written out once, after the
//! measurement, as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `parent` is the index of the span that caused it,
/// `op` the operation it belongs to: every span of one operation shares it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Each generator thread owns one; they
/// share an epoch so their spans line up in the exported file.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The rotation case of every operation started so far, by operation
    /// id; id 0 is "before the first operation".
    op_case: Vec<Option<usize>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op_case: vec![None],
        }
    }

    /// Start the next operation: spans begun from now on carry its id.
    /// `case` is its case in the workload's rotation, `None` for an
    /// operation outside it.
    pub fn next_op(&mut self, case: Option<usize>) {
        self.op_case.push(case);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: (self.op_case.len() - 1) as u32,
        });
        self.stack.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// [`Tracer::time`], also returning the span's duration in nanoseconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        (r, self.spans[id as usize].dur_ns() as f64)
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per `(operation, span name)`.
pub fn op_totals(spans: &[Span]) -> BTreeMap<(u32, &'static str), u64> {
    let own = self_times(spans);
    let mut out: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry((s.op, s.name)).or_insert(0) += t;
    }
    out
}

/// For every span name, the per-case median of the per-operation self-time
/// total, as one vector indexed by case; operations outside the rotation are
/// left out. A case whose operations never opened the span reads 0: the
/// layer did no work there.
pub fn case_medians(tr: &Tracer, n_cases: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut samples: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
    for ((op, name), ns) in op_totals(&tr.spans) {
        if let Some(case) = tr.op_case[op as usize] {
            samples
                .entry(name)
                .or_insert_with(|| vec![Vec::new(); n_cases])[case]
                .push(ns as f64);
        }
    }
    samples
        .into_iter()
        .map(|(name, per_case)| {
            let medians = per_case.iter().map(|v| crate::stats::median(v)).collect();
            (name, medians)
        })
        .collect()
}

/// Spans written to one trace file at most; the rest are counted in the
/// file's `dropped` field. The aggregates never drop anything.
pub const MAX_EXPORTED_SPANS: usize = 100_000;

/// Write `threads` (one span list per generator thread) as Chrome
/// `trace_event` JSON: complete (`"ph":"X"`) events with microsecond `ts` /
/// `dur`, and the exact nanosecond start and end, the parent span and the
/// operation id under `args`.
pub fn write_chrome(path: &Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let total: usize = threads.iter().map(|t| t.len()).sum();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"dropped\":{},\"traceEvents\":[",
        total.saturating_sub(MAX_EXPORTED_SPANS)
    )?;
    let mut written = 0usize;
    'threads: for (tid, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if written == MAX_EXPORTED_SPANS {
                break 'threads;
            }
            if written > 0 {
                out.write_all(b",")?;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.start_ns,
                s.end_ns
            )?;
            written += 1;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op(0..100) { a(10..40) { b(20..30) }, c(50..90) }
        let spans = vec![
            span("op", 0, 100, NO_PARENT, 1),
            span("a", 10, 40, 0, 1),
            span("b", 20, 30, 1, 1),
            span("c", 50, 90, 0, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn case_medians_take_the_median_over_operations_of_a_case() {
        let mut t = Tracer::new(Instant::now());
        // Three operations of case 0 with layer time 10, 30, 20; one of
        // case 1 with 7; one outside the rotation.
        let ops = [
            (Some(0), 10u64),
            (Some(0), 30),
            (Some(0), 20),
            (Some(1), 7),
            (None, 1000),
        ];
        for (i, (case, ns)) in ops.into_iter().enumerate() {
            t.next_op(case);
            let (op, root) = (i as u32 + 1, t.spans.len() as u32);
            t.spans.push(span("op", 0, 100, NO_PARENT, op));
            t.spans.push(span("layer", 0, ns, root, op));
        }
        let m = case_medians(&t, 2);
        assert_eq!(m["layer"], vec![20.0, 7.0]);
        assert_eq!(m["op"], vec![80.0, 93.0]);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::new(Instant::now());
        t.next_op(Some(0));
        let root = t.begin("root");
        t.time("leaf", || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[1].op, 1);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let dir = crate::harness::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome(&path, &[&t.spans]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = dyncomp::server::Json::parse(&text).expect("trace file is valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("leaf"));
    }
}
