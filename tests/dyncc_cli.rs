//! End-to-end tests of the `dyncc` command-line tool.

use std::process::Command;

fn dyncc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dyncc"))
        .args(args)
        .output()
        .expect("dyncc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`dyncc`] but returns the exact exit code (usage errors exit 2,
/// everything else 1) alongside stderr.
fn dyncc_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dyncc"))
        .args(args)
        .output()
        .expect("dyncc runs");
    (
        out.status.code().expect("dyncc exited, not signaled"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dyncc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, src).unwrap();
    p
}

const POWER: &str = r#"
    int power(int k, int x) {
        dynamicRegion (k) {
            int r = 1;
            int i;
            unrolled for (i = 0; i < k; i++) { r = r * x; }
            return r;
        }
    }
"#;

#[test]
fn compiles_and_runs() {
    let p = write_temp("power.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--run", "power", "5", "3"]);
    assert!(ok, "{out}");
    assert!(out.contains("1 dynamic region(s)"), "{out}");
    assert!(out.contains("power(5, 3) = 243"), "{out}");
}

#[test]
fn template_dump_shows_directives() {
    let p = write_temp("power2.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--templates", "--regions"]);
    assert!(ok, "{out}");
    assert!(out.contains("ENTER_LOOP"), "{out}");
    assert!(out.contains("RESTART_LOOP"), "{out}");
    assert!(out.contains("CONST_BRANCH"), "{out}");
    assert!(out.contains("static table slot"), "{out}");
}

#[test]
fn report_shows_stitcher_work() {
    let p = write_temp("power3.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--run", "power", "4", "2", "--report"]);
    assert!(ok, "{out}");
    assert!(out.contains("power(4, 2) = 16"), "{out}");
    assert!(out.contains("1 stitch(es)"), "{out}");
    assert!(out.contains("4 loop iteration(s) unrolled"), "{out}");
}

#[test]
fn static_flag_compiles_baseline() {
    let p = write_temp("power4.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--static", "--run", "power", "3", "5"]);
    assert!(ok, "{out}");
    assert!(out.contains("0 dynamic region(s)"), "{out}");
    assert!(out.contains("power(3, 5) = 125"), "{out}");
}

#[test]
fn ir_dump_prints_functions() {
    let p = write_temp("power5.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--ir"]);
    assert!(ok);
    assert!(out.contains("func power"), "{out}");
    assert!(out.contains("enter_region"), "{out}");
}

#[test]
fn disasm_prints_code() {
    let p = write_temp("power6.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--disasm"]);
    assert!(ok);
    assert!(out.contains("EnterRegion"), "{out}");
    assert!(out.contains("EndSetup"), "{out}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let p = write_temp("bad.mc", "int f( {");
    let (_, err, ok) = dyncc(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("parse error"), "{err}");

    let p2 = write_temp("good.mc", "int f(int x) { return x; }");
    let (_, err2, ok2) = dyncc(&[p2.to_str().unwrap(), "--run", "missing"]);
    assert!(!ok2);
    assert!(err2.contains("no function named"), "{err2}");
}

// ---- typed error paths: one case per CliError variant / usage site ----
// Usage errors exit 2; I/O, compile, run and network errors exit 1. Every
// message goes to stderr prefixed `dyncc:`.

#[test]
fn no_arguments_is_a_usage_error() {
    let (code, err) = dyncc_code(&[]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unreadable_file_exits_one() {
    let (code, err) = dyncc_code(&["/nonexistent/definitely-missing.mc"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn compile_error_exits_one() {
    let p = write_temp("bad2.mc", "int f( {");
    let (code, err) = dyncc_code(&[p.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("parse error"), "{err}");
}

/// A data image larger than the session memory is refused before any
/// session is built, on the single- and the multi-session path.
#[test]
fn data_image_beyond_session_memory_is_a_run_error() {
    let src = "long big[3000000]; long g = 7; long f(long x) { return x + g; }";
    let p = write_temp("big_image.mc", src);
    for extra in [&[][..], &["--sessions", "2"][..]] {
        let mut args = vec![p.to_str().unwrap(), "--run", "f", "1"];
        args.extend_from_slice(extra);
        let (code, err) = dyncc_code(&args);
        assert_eq!(code, 1, "{args:?}: {err}");
        assert!(err.contains("data image needs"), "{args:?}: {err}");
        assert!(err.contains("16777216"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn run_without_function_name_is_a_usage_error() {
    let p = write_temp("good2.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "--run"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--run needs a function name"), "{err}");
}

#[test]
fn bad_integer_argument_is_a_usage_error() {
    let p = write_temp("good3.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "--run", "f", "not-a-number"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("bad integer argument"), "{err}");
}

#[test]
fn unknown_function_exits_one() {
    let p = write_temp("good4.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "--run", "missing", "1"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("no function named"), "{err}");
}

#[test]
fn bad_trace_format_is_a_usage_error() {
    let p = write_temp("good5.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[
        p.to_str().unwrap(),
        "--run",
        "f",
        "1",
        "--trace-out",
        "/tmp/t.jsonl",
        "--trace-format",
        "xml",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--trace-format must be"), "{err}");
}

#[test]
fn trace_out_with_sessions_is_a_usage_error() {
    let p = write_temp("good6.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[
        p.to_str().unwrap(),
        "--run",
        "f",
        "1",
        "--trace-out",
        "/tmp/t.jsonl",
        "--sessions",
        "4",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("single session"), "{err}");
}

#[test]
fn bad_inline_depth_is_a_usage_error() {
    let p = write_temp("good7.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[
        p.to_str().unwrap(),
        "--run",
        "f",
        "1",
        "--inline-depth",
        "minus-one",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--inline-depth"), "{err}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // `--nativ` used to be ignored: exit 0, run on the VM.
    let p = write_temp("good10.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "--nativ", "--run", "f", "1"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag `--nativ`"), "{err}");
    // The usage line lists every flag, not a third of them.
    for flag in [
        "--native",
        "--persist-dir DIR",
        "--code-budget B",
        "--speculate",
    ] {
        assert!(err.contains(flag), "usage line lacks {flag}: {err}");
    }
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "stray", "--run", "f", "1"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown argument `stray`"), "{err}");
}

#[test]
fn tiered_modifiers_without_tiered_are_usage_errors() {
    let p = write_temp("good11.mc", "int f(int x) { return x; }");
    let file = p.to_str().unwrap();
    let (code, err) = dyncc_code(&[file, "--run", "f", "1", "--stitch-workers", "4"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--stitch-workers needs --tiered"), "{err}");
    let (code, err) = dyncc_code(&[file, "--speculate", "--run", "f", "1"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--speculate needs --tiered"), "{err}");
    let (out, err, ok) = dyncc(&[
        file,
        "--run",
        "f",
        "1",
        "--tiered",
        "--stitch-workers",
        "2",
        "--speculate",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("f(1) = 1"), "{out}");
}

#[test]
fn no_native_chain_without_native_is_a_usage_error() {
    let p = write_temp("good12.mc", "int f(int x) { return x; }");
    let file = p.to_str().unwrap();
    let (code, err) = dyncc_code(&[file, "--run", "f", "1", "--no-native-chain"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--no-native-chain needs --native"), "{err}");
    let (out, err, ok) = dyncc(&[file, "--run", "f", "-1", "--native", "--no-native-chain"]);
    assert!(ok, "{err}");
    assert!(out.contains("(-1 as signed)"), "{out}");
}

#[test]
fn connect_without_run_is_a_usage_error() {
    let p = write_temp("good8.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[p.to_str().unwrap(), "--connect", "127.0.0.1:1"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--connect needs --run"), "{err}");
}

#[test]
fn connect_to_dead_address_exits_one() {
    // Port 1 is reserved and never listening in the test environment.
    let p = write_temp("good9.mc", "int f(int x) { return x; }");
    let (code, err) = dyncc_code(&[
        p.to_str().unwrap(),
        "--run",
        "f",
        "1",
        "--connect",
        "127.0.0.1:1",
    ]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("connect 127.0.0.1:1"), "{err}");
}

#[test]
fn stitched_dump_disassembles_final_code() {
    let p = write_temp("power7.mc", POWER);
    let (out, _, ok) = dyncc(&[
        p.to_str().unwrap(),
        "--run",
        "power",
        "3",
        "4",
        "--stitched",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("power(3, 4) = 64"), "{out}");
    assert!(out.contains("stitched code for region 0"), "{out}");
    // Fully unrolled: the stitched code has no backward loop branch and no
    // directives, just straight-line multiplies (or their strength-reduced
    // forms) and a return.
    assert!(
        !out.contains("ENTER_LOOP"),
        "directives never reach stitched code:\n{out}"
    );
}

#[test]
fn stitched_dump_shows_keyed_instances() {
    let src = r#"
        int scale(int k, int x) {
            dynamicRegion key(k) (k) { return k * x; }
        }
    "#;
    let p = write_temp("keyed.mc", src);
    // Two calls with distinct keys through one process would need a driver;
    // a single call shows the key annotation in the dump.
    let (out, _, ok) = dyncc(&[
        p.to_str().unwrap(),
        "--run",
        "scale",
        "5",
        "8",
        "--stitched",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("scale(5, 8) = 40"), "{out}");
    assert!(out.contains("key (5)"), "{out}");
}

#[test]
fn advise_ranks_annotation_candidates() {
    let src = r#"
        int power(int k, int x) {
            int r = 1;
            int i;
            for (i = 0; i < k; i++) { r = r * x; }
            return r;
        }
    "#;
    let p = write_temp("advise.mc", src);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--advise"]);
    assert!(ok, "{out}");
    assert!(out.contains("function power:"), "{out}");
    assert!(out.contains("1/1 loop(s) unroll"), "{out}");
    assert!(out.contains("recommendation: annotate arg 0"), "{out}");
}

/// Output into a pipe whose read end is already closed: the first write
/// fails, and `dyncc` reports it as a `dyncc:` error with exit 1 instead
/// of panicking.
#[test]
fn closed_stdout_pipe_is_an_error_not_a_panic() {
    let p = write_temp("advise_closed_pipe.mc", POWER);
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_dyncc"))
        .args([p.to_str().unwrap(), "--advise"])
        .stdout(writer)
        .output()
        .expect("dyncc runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("dyncc: cannot write output:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn native_flag_runs_and_summarizes() {
    let p = write_temp("power_native.mc", POWER);
    let (out, _, ok) = dyncc(&[p.to_str().unwrap(), "--run", "power", "5", "3", "--native"]);
    assert!(ok, "{out}");
    // The result is bit-identical to the VM backend.
    assert!(out.contains("power(5, 3) = 243"), "{out}");
    assert!(out.contains("native backend:"), "{out}");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(out.contains("instance(s) installed"), "{out}");
    } else {
        assert!(out.contains("unavailable on this host"), "{out}");
    }
}

#[test]
fn time_passes_reports_every_phase() {
    let p = write_temp("power_time.mc", POWER);
    let (out, err, ok) = dyncc(&[
        p.to_str().unwrap(),
        "--time-passes",
        "--run",
        "power",
        "5",
        "3",
    ]);
    assert!(ok, "{err}");
    for phase in [
        "frontend.parse",
        "frontend.lower",
        "ir.ssa",
        "opt.optimize",
        "ir.cfg_verify",
        "core.inline",
        "analysis.analyze_region",
        "specialize.region",
        "codegen.compile_module",
        "unattributed",
    ] {
        assert!(
            out.lines().any(|l| l.trim_start().starts_with(phase)),
            "no {phase} row: {out}"
        );
    }
    // The timed compile is the one that runs.
    assert!(out.contains("power(5, 3) = 243"), "{out}");
}

// ---- pinned transcripts: one successful run per option flag ----

/// Replace every run of digits after `marker` in `line` (up to the next
/// space) with `…`.
fn mask_number(line: &str, marker: &str) -> String {
    match line.split_once(marker) {
        Some((head, tail)) => {
            let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            format!("{head}{marker}…{rest}")
        }
        None => line.to_string(),
    }
}

/// The stdout of `dyncc args…` with what varies by host masked: the
/// program and scratch paths, native translation time, whether the host
/// has the native backend at all, and what the interleaving of
/// `--threads` sessions decides (which session stitches and which reuses
/// its code, and so each one's cycles).
fn transcript(args: &[&str], paths: &[(&str, &str)]) -> String {
    let (out, err, ok) = dyncc(args);
    assert!(ok, "dyncc {args:?} failed: {err}");
    let native_host = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    let mut shown: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut text = out;
    for (path, name) in paths {
        text = text.replace(path, name);
        shown = shown.iter().map(|a| a.replace(path, name)).collect();
    }
    let mut masked = format!("$ dyncc {}\n", shown.join(" "));
    for line in text.lines() {
        let line = if line.starts_with("native backend:") && !native_host {
            "native backend: …".to_string()
        } else if line.starts_with("  session ") {
            line.split_once(" in ")
                .map_or(line.to_string(), |(head, _)| format!("{head} in …"))
        } else if line.starts_with("  cache: ") {
            "  cache: …".to_string()
        } else {
            mask_number(line, "translated in ")
        };
        masked.push_str(&line);
        masked.push('\n');
    }
    masked
}

/// Each option flag in one successful run, stdout compared with
/// `tests/dyncc_cli_transcripts.txt`; `--persist-dir` runs twice, and
/// the second run loads the artifact and every instance from disk. On a
/// mismatch the whole transcript is printed.
#[test]
fn option_flag_transcripts_are_pinned() {
    let p = write_temp("pinned.mc", POWER);
    let file = p.to_str().unwrap();
    let dir = std::env::temp_dir()
        .join("dyncc-cli-tests")
        .join("pinned-persist");
    let _ = std::fs::remove_dir_all(&dir);
    let persist = dir.to_str().unwrap();
    let paths = [(persist, "<dir>"), (file, "<file>")];
    let run = ["--run", "power", "5", "3"];
    let with = |flags: &[&'static str]| -> Vec<&str> {
        let mut args = vec![file];
        args.extend(run);
        args.extend(flags);
        args
    };
    let mut got = String::new();
    for flags in [
        &["--sessions", "3", "--threads", "2", "--shared-cache"][..],
        &[
            "--tiered",
            "--stitch-workers",
            "2",
            "--speculate",
            "--report",
        ],
        &["--native", "--no-native-chain"],
        &["--fault-seed", "7"],
        &["--code-budget", "256"],
    ] {
        got.push_str(&transcript(&with(flags), &paths));
    }
    for _ in 0..2 {
        let mut args = with(&[]);
        args.extend(["--persist-dir", persist]);
        got.push_str(&transcript(&args, &paths));
    }
    assert!(
        got.contains("(artifact loaded from the persistent cache)"),
        "{got}"
    );
    let expected = include_str!("dyncc_cli_transcripts.txt");
    if got != expected {
        for (n, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            if g != e {
                eprintln!("line {}:\n  got      {g}\n  expected {e}", n + 1);
            }
        }
        panic!("the transcripts moved; the whole text:\n{got}");
    }
}

/// Every flag that takes a value, given a malformed one, is a usage error
/// naming the flag, with `--run` or without it; so is `0` for the three
/// counts.
#[test]
fn malformed_flag_values_are_usage_errors() {
    let p = write_temp("good13.mc", "int f(int x) { return x; }");
    let file = p.to_str().unwrap();
    for (flag, value) in [
        ("--inline-depth", "-1"),
        ("--sessions", "many"),
        ("--threads", "-2"),
        ("--stitch-workers", "1.5"),
        ("--trace-format", "xml"),
        ("--fault-seed", "seven"),
        ("--code-budget", "-256"),
        ("--sessions", "0"),
        ("--threads", "0"),
        ("--stitch-workers", "0"),
    ] {
        for run in [&["--run", "f", "1"][..], &[]] {
            let mut args = vec![file];
            args.extend(run);
            args.extend(["--tiered", flag, value]);
            if flag == "--trace-format" {
                args.extend(["--trace-out", "/dev/null"]);
            }
            let (code, err) = dyncc_code(&args);
            assert_eq!(code, 2, "{args:?}: {err}");
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }
    // A value flag at the end of the line has no value at all.
    for flag in ["--trace-out", "--persist-dir", "--connect", "--sessions"] {
        let (code, err) = dyncc_code(&[file, "--run", "f", "1", flag]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(
            err.contains(&format!("{flag} needs a value")),
            "{flag}: {err}"
        );
    }
}
