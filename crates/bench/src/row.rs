//! One artifact row: an ordered field list, written once.
//!
//! Every committed `BENCH_*.json` is a top-level array with one object
//! per line. A suite builds each object as a [`Row`] — name and value
//! side by side, in artifact order — and both things that used to be
//! written out separately are rendered from that one list: the JSON
//! object, and the prefix of it the drift gate compares ([`drift`]).
//! Fields added after [`Row::host`] are host wall-clock (noise from run
//! to run) and stay out of the gate; everything before it is simulated
//! and must repeat exactly.

use dyncomp::server::escape;

/// One JSON value of an artifact row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counts, cycles, checksums).
    Int(u64),
    /// A float printed with a fixed number of decimals; non-finite
    /// values render as `null`.
    Float(f64, usize),
    /// A string (escaped on rendering).
    Str(String),
    /// `[a, b, …]`.
    Array(Vec<Value>),
    /// A nested object (its own [`Row::host`] mark, if any, is ignored).
    Object(Row),
}

/// `v` printed with one decimal.
pub fn f1(v: f64) -> Value {
    Value::Float(v, 1)
}

/// `v` printed with four decimals.
pub fn f4(v: f64) -> Value {
    Value::Float(v, 4)
}

macro_rules! value_from {
    ($($ty:ty => |$v:ident| $make:expr),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from($v: $ty) -> Value {
                $make
            }
        })*
    };
}

value_from! {
    bool => |v| Value::Bool(v),
    u16 => |v| Value::Int(u64::from(v)),
    u32 => |v| Value::Int(u64::from(v)),
    u64 => |v| Value::Int(v),
    usize => |v| Value::Int(v as u64),
    &str => |v| Value::Str(v.to_string()),
    String => |v| Value::Str(v),
    Option<u64> => |v| v.map_or(Value::Null, Value::Int),
    Vec<Value> => |v| Value::Array(v),
    Row => |v| Value::Object(v),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Value::Float(..) => "null".to_string(),
            Value::Str(s) => escape(s),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::json).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Object(row) => row.json(),
        }
    }
}

/// One object of a `BENCH_*.json` array.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, Value)>,
    /// Index of the first host-dependent field (`None`: every field is
    /// exact).
    host_from: Option<usize>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Append one field.
    pub fn field(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Every field appended after this call is host wall-clock: written
    /// to the artifact, exempt from the drift gate.
    pub fn host(mut self) -> Self {
        self.host_from.get_or_insert(self.fields.len());
        self
    }

    /// The row as a JSON object.
    pub fn json(&self) -> String {
        self.render(self.fields.len())
    }

    /// The drift-gated part of [`Row::json`]: the whole object when every
    /// field is exact, otherwise the text up to where the first host
    /// field's name starts.
    pub fn exact_prefix(&self) -> String {
        self.render(self.host_from.unwrap_or(self.fields.len()))
    }

    fn render(&self, upto: usize) -> String {
        let fields = self.fields[..upto].iter();
        let fields: Vec<String> = fields
            .map(|(name, value)| format!("{}: {}", escape(name), value.json()))
            .collect();
        let close = match upto {
            n if n == self.fields.len() => "}",
            0 => "",
            _ => ", ",
        };
        format!("{{{}{close}", fields.join(", "))
    }
}

/// Render rows as the `[\n  row,\n …]\n` array every committed
/// `BENCH_*.json` uses: one row per line, so drift diffs by row.
pub fn render_json_array(rows: &[Row]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Compare freshly measured `rows` with a `reference` document written
/// by [`render_json_array`]: row by row, each reference line must start
/// with the new row's [`Row::exact_prefix`] (for an all-exact row, equal
/// it). Returns the report, one line per finding — empty when nothing
/// drifted.
pub fn drift(rows: &[Row], reference: &str) -> Vec<String> {
    let want: Vec<&str> = reference
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(|l| l.strip_suffix(',').unwrap_or(l))
        .collect();
    let mut report = Vec::new();
    for (w, row) in want.iter().zip(rows) {
        let got = row.exact_prefix();
        let same = match row.host_from {
            None => *w == got,
            Some(_) => w.starts_with(&got),
        };
        if !same {
            report.push(format!("  - {w}"));
            report.push(format!("  + {got}"));
        }
    }
    if want.len() != rows.len() {
        report.push(format!(
            "  ({} rows vs reference {})",
            rows.len(),
            want.len()
        ));
    }
    report
}
