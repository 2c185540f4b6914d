//! The bench driver's contract: how a [`Row`] renders, what the drift
//! gate compares, and what the `bench` command line accepts.

use dyncomp_bench::driver::SUITES;
use dyncomp_bench::lattice::ScratchDir;
use dyncomp_bench::row::{drift, f1, f4, render_json_array, Row, Value};
use std::process::Command;

#[test]
fn row_renders_every_value_kind() {
    let nested = Row::new().field("cycles", 7u64).field("ok", true);
    let row = Row::new()
        .field("name", "a \"quoted\"\\ name\n")
        .field("object", nested.clone())
        .field("array", vec![Value::Int(1), nested.into(), Value::Null])
        .field("empty", Vec::<Value>::new())
        .field("never", None::<u64>)
        .field("some", Some(3u64))
        .field("nan", f4(f64::NAN))
        .field("inf", f1(f64::INFINITY))
        .field("one", f1(2.25))
        .field("four", f4(1.0 / 3.0));
    assert_eq!(
        row.json(),
        "{\"name\": \"a \\\"quoted\\\"\\\\ name\\n\", \
         \"object\": {\"cycles\": 7, \"ok\": true}, \
         \"array\": [1, {\"cycles\": 7, \"ok\": true}, null], \
         \"empty\": [], \"never\": null, \"some\": 3, \
         \"nan\": null, \"inf\": null, \"one\": 2.2, \"four\": 0.3333}"
    );
    assert_eq!(row.exact_prefix(), row.json(), "no host mark: all exact");
    assert_eq!(
        render_json_array(&[Row::new().field("a", 1u64), Row::new().field("a", 2u64)]),
        "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n"
    );
}

fn measured(checksum: u64, wall_ns: u64) -> Row {
    Row::new()
        .field("kernel", "k")
        .field("checksum", checksum)
        .host()
        .field("wall_ns", wall_ns)
}

#[test]
fn drift_gates_exact_fields_and_ignores_host_fields() {
    let reference = render_json_array(&[measured(12, 500), measured(34, 600)]);
    assert_eq!(
        measured(12, 500).exact_prefix(),
        "{\"kernel\": \"k\", \"checksum\": 12, "
    );

    // Host fields may move freely.
    assert!(drift(&[measured(12, 9), measured(34, 99_999)], &reference).is_empty());

    // An exact field may not, and the report shows both rows.
    let report = drift(&[measured(12, 500), measured(35, 600)], &reference);
    assert_eq!(report.len(), 2, "{report:?}");
    assert!(report[0].contains("\"checksum\": 34"), "{report:?}");
    assert!(report[1].contains("\"checksum\": 35"), "{report:?}");
    // `1` is a textual prefix of `12`: the prefix ends at the separator.
    assert!(!drift(&[measured(1, 500), measured(34, 600)], &reference).is_empty());

    // A missing or extra row is drift too.
    assert!(!drift(&[measured(12, 500)], &reference).is_empty());

    // Without a host mark the whole row is compared.
    let exact = |v: u64| Row::new().field("v", v);
    let reference = render_json_array(&[exact(1)]);
    assert!(drift(&[exact(1)], &reference).is_empty());
    assert!(!drift(&[exact(10)], &reference).is_empty());
}

fn bench(args: &[&str], dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench runs")
}

#[test]
fn usage_errors_exit_2_before_anything_runs() {
    let scratch = ScratchDir::new("bench-cli");
    let dir = scratch.path();
    for args in [
        &["table2", "--smok"][..],
        &["table2", "--smoke", "--json"],
        &["table2", "--repeat", "3"],
        &["table3", "--json", "x.json"],
        &["native_comparison", "--repeat", "many"],
        &["no_such_suite"],
        &[],
    ] {
        let out = bench(args, dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
    let left: Vec<_> = std::fs::read_dir(dir).expect("readable").collect();
    assert!(left.is_empty(), "a usage error wrote {left:?}");
}

#[test]
fn a_bare_smoke_run_writes_the_smoke_artifact() {
    let scratch = ScratchDir::new("bench-cli");
    let dir = scratch.path();
    let out = bench(&["inline_bench", "--smoke"], dir);
    assert!(out.status.success(), "{out:?}");
    let names: Vec<String> = std::fs::read_dir(dir)
        .expect("readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["BENCH_inline_smoke.json"]);

    // A second run matches a copy of what the first wrote; a copy with
    // one exact field changed fails the gate with status 1.
    let doc = std::fs::read_to_string(dir.join("BENCH_inline_smoke.json")).expect("written");
    let check = |reference: String| {
        std::fs::write(dir.join("reference.json"), reference).expect("reference copy");
        bench(
            &["inline_bench", "--smoke", "--check", "reference.json"],
            dir,
        )
    };
    assert!(check(doc.clone()).status.success());
    let tampered = doc.replacen("\"iterations\": 40", "\"iterations\": 41", 1);
    assert_ne!(tampered, doc);
    assert_eq!(check(tampered).status.code(), Some(1));
}

#[test]
fn list_names_every_suite_and_artifact() {
    let out = bench(&["--list"], std::path::Path::new("."));
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("utf-8");
    for suite in SUITES {
        assert!(listing.contains(suite.name), "{} missing", suite.name);
        for scale in [dyncomp_bench::Scale::Paper, dyncomp_bench::Scale::Smoke] {
            if let Some(artifact) = suite.default_artifact(scale) {
                assert!(listing.contains(&artifact), "{artifact} missing");
            }
        }
    }
    assert_eq!(SUITES.len(), 13);
}
