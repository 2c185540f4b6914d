//! `dyncc` — compile, inspect and run annotated MiniC programs.
//!
//! ```text
//! dyncc <file.mc> [--ir] [--templates] [--disasm] [--regions] [--static]
//!                 [--advise] [--inline-depth N] [--run <func> [args…]]
//!                 [--report] [--stitched] [--sessions N] [--threads T]
//!                 [--shared-cache] [--tiered] [--stitch-workers N]
//!                 [--speculate] [--native] [--no-native-chain]
//!                 [--trace-out FILE] [--trace-format {jsonl,chrome}]
//!                 [--fault-seed N] [--code-budget B] [--connect ADDR]
//!                 [--persist-dir DIR] [--time-passes]
//! ```
//!
//! Anything else — an unknown flag, a stray word, `--stitch-workers` or
//! `--speculate` without `--tiered`, `--no-native-chain` without
//! `--native` — is a usage error ([`FLAGS`] is the one list). So is a
//! malformed value of any flag, read whether or not the mode it belongs
//! to runs, and `0` for `--sessions`, `--threads` or `--stitch-workers`.
//!
//! * `--ir`        print the final IR of every function
//! * `--templates` print each region's template blocks and directives
//!   (the paper's Table 1 view)
//! * `--disasm`    disassemble the compiled module
//! * `--regions`   summarize dynamic regions (slots, holes, key)
//! * `--static`    ignore annotations (compile the §5 baseline)
//! * `--run f a b` call `f` with integer arguments and print the result
//! * `--report`    after `--run`, print per-region dynamic-compilation
//!   statistics
//! * `--stitched`  after `--run`, disassemble every stitched instance
//!   (the paper's §4 "final code" view)
//! * `--sessions N` run the call in `N` independent sessions over one
//!   shared `Arc<Program>`, reporting per-session cycle counts
//! * `--threads T` spread the sessions over `T` host threads (default 1)
//! * `--shared-cache` let sessions reuse each other's stitched code via
//!   the process-wide sharded cache
//! * `--advise`    ignore annotations and report, per function, what each
//!   parameter would buy as a run-time constant (the §7 annotation tool)
//! * `--tiered`    lower statically compiled fallback copies for every
//!   region and stitch in the background: cold entries execute the
//!   fallback while a stitch job's set-up and stitch cycles run on a
//!   virtual worker clock (deterministic overlap model; the job itself
//!   runs on the session's thread)
//! * `--stitch-workers N` virtual background workers for `--tiered`
//!   (default 1)
//! * `--inline-depth N` demand-driven inlining: pull region-free callees
//!   whose call sites have at least one run-time-constant argument into
//!   the region, to `N` rounds of nesting (default 0 = off); prints the
//!   inlined sites after compilation
//! * `--speculate` with `--tiered`, pre-stitch keys predicted by the
//!   per-region stride/frequency predictor
//! * `--trace-out FILE` with `--run`, record the deterministic event
//!   trace and write it to `FILE`; also prints a per-region profile
//!   summary and runs the cycle-attribution self-check
//! * `--trace-format {jsonl,chrome}` trace file format (default `jsonl`;
//!   `chrome` loads in `chrome://tracing` / Perfetto)
//! * `--fault-seed N` with `--run`, arm the deterministic chaos plan
//!   (`FaultPlan::seeded(N)`): every fault point fires with probability
//!   1/8 from a seeded PRNG, recovery retries/quarantines per policy,
//!   and results must not change; prints a health summary afterwards
//! * `--code-budget B` with `--run`, cap installed stitched code at `B`
//!   bytes: past the budget regions with a static fallback copy stop
//!   installing code entirely (degradation level 2)
//! * `--native`    with `--run`, execute stitched instances through the
//!   host-native copy-and-patch backend (x86-64 stubs in a W^X arena;
//!   see DESIGN.md). Results and simulated cycles are bit-identical to
//!   the VM backend — the VM remains the cycle oracle — and a backend
//!   summary is printed afterwards. On unsupported hosts the session
//!   degrades to the VM with one `backend-unavailable` health entry.
//!   Direct-threaded chaining is on by default: installed instances
//!   jump straight to each other (and through patched region-entry
//!   guards) without bouncing through the VM dispatch loop.
//! * `--no-native-chain` with `--native`, disable direct-threaded
//!   chaining (the ablation: every native exit returns to the VM loop
//!   and re-dispatches from there)
//! * `--connect ADDR` don't run locally: upload the program to a
//!   running `dynccd` at `ADDR` and serve `--run` through it (prints
//!   the session checksum on close)
//! * `--persist-dir DIR` keep the crash-safe on-disk cache at `DIR`:
//!   compiled artifacts are reused across processes (skipping the
//!   front end entirely on a hit) and stitched instances are reloaded,
//!   re-verified and installed without re-running set-up or the
//!   stitcher. Loads are untrusted — any corruption degrades to
//!   recompilation with a typed `persist` health entry — and a summary
//!   of hits/misses/rejects is printed after `--run`
//! * `--time-passes` print the host time of each phase of one static
//!   compile of the file, under the layer names of the host-time
//!   benchmark, plus `core.inline` for the inliner's own work (with
//!   `--persist-dir`, the file is compiled for the timing even when the
//!   cache holds it)
//!
//! Every failure path exits through a typed [`CliError`]: usage
//! problems exit 2, everything else (I/O, compile, run, network) exits
//! 1 — never a panic.

use dyncomp::server::{escape, Client, Json};
use dyncomp::{
    CompileOptions, Compiler, EngineOptions, FaultPlan, PassTimes, PersistentCache, Phase,
    RecoveryPolicy, Session, SharedCodeCache, TieredOptions,
};
use dyncomp_machine::disasm::disassemble;
use dyncomp_machine::template::{HoleField, LoopMarker, TmplExit};
use std::io::Write;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::sync::Arc;

/// Every way the CLI can fail, with its exit code. Usage errors (bad
/// flags, missing values) exit 2; environment and program failures
/// (unreadable file, compile error, run error, network error) exit 1.
enum CliError {
    /// Bad invocation: unknown/incomplete flags, invalid combinations.
    Usage(String),
    /// The program file could not be read.
    Io { path: String, err: String },
    /// The compiler rejected the source.
    Compile(String),
    /// Execution failed (VM fault, unknown function, session panic).
    Run(String),
    /// The trace self-check or trace output failed.
    Trace(String),
    /// A `--connect` request failed (connection or server error).
    Net(String),
    /// Standard output could not be written (say, a closed pipe).
    Output(std::io::Error),
}

impl CliError {
    fn code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io { path, err } => write!(f, "cannot read {path}: {err}"),
            CliError::Compile(m) => write!(f, "{m}"),
            CliError::Run(m) => write!(f, "{m}"),
            CliError::Trace(m) => write!(f, "{m}"),
            CliError::Net(m) => write!(f, "{m}"),
            CliError::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

/// Every flag `dyncc` accepts, in usage-line order: its name, the
/// placeholder of the value it takes (`""` for a switch) and the flag it
/// means nothing without. [`check_flags`] and the usage line read this
/// table; the module docs above describe each entry.
const FLAGS: &[(&str, &str, Option<&str>)] = &[
    ("--ir", "", None),
    ("--templates", "", None),
    ("--disasm", "", None),
    ("--regions", "", None),
    ("--static", "", None),
    ("--advise", "", None),
    ("--inline-depth", "N", None),
    ("--run", "<func> [args…]", None),
    ("--report", "", None),
    ("--stitched", "", None),
    ("--sessions", "N", None),
    ("--threads", "T", None),
    ("--shared-cache", "", None),
    ("--tiered", "", None),
    ("--stitch-workers", "N", Some("--tiered")),
    ("--speculate", "", Some("--tiered")),
    ("--native", "", None),
    ("--no-native-chain", "", Some("--native")),
    ("--trace-out", "FILE", None),
    ("--trace-format", "{jsonl,chrome}", None),
    ("--fault-seed", "N", None),
    ("--code-budget", "B", None),
    ("--connect", "ADDR", None),
    ("--persist-dir", "DIR", None),
    ("--time-passes", "", None),
];

/// `println!` onto the one stdout writer: a failed write (a closed pipe)
/// becomes a [`CliError::Output`], never a panic.
macro_rules! say {
    ($out:expr) => {
        writeln!($out).map_err(CliError::Output)?
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::Output)?
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let done = run(&args, &mut out).and_then(|()| out.flush().map_err(CliError::Output));
    if let Err(e) = done {
        eprintln!("dyncc: {e}");
        if matches!(e, CliError::Usage(_)) {
            let flags: Vec<String> = FLAGS
                .iter()
                .map(|&(name, value, _)| match value {
                    "" => format!("[{name}]"),
                    _ => format!("[{name} {value}]"),
                })
                .collect();
            eprintln!("usage: dyncc <file.mc> {}", flags.join(" "));
        }
        exit(e.code());
    }
}

/// `--time-passes`: host µs and share of the compile per phase, then the
/// time no phase accounts for.
fn print_pass_times(out: &mut impl Write, path: &str, times: &PassTimes) -> Result<(), CliError> {
    let total = times.total_ns().max(1) as f64;
    say!(
        out,
        "time-passes {path}: host time per phase of one compile"
    );
    let rows = Phase::ALL
        .iter()
        .map(|&p| (p.name(), times.ns(p)))
        .chain([("unattributed", times.unattributed_ns())]);
    for (name, ns) in rows {
        say!(
            out,
            "  {name:<24} {:>10.1} us {:>5.1} %",
            ns as f64 / 1e3,
            ns as f64 * 100.0 / total
        );
    }
    say!(out, "  {:<24} {:>10.1} us", "total", total / 1e3);
    Ok(())
}

/// Refuse what [`FLAGS`] does not list: an unknown flag, a word no flag
/// consumes, or a flag given without the one it modifies. (A missing or
/// malformed *value* is reported where the value is parsed.)
fn check_flags(args: &[String]) -> Result<(), CliError> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let Some(&(name, value, requires)) = FLAGS.iter().find(|f| f.0 == arg) else {
            let what = if arg.starts_with("--") {
                "flag"
            } else {
                "argument"
            };
            return Err(CliError::Usage(format!("unknown {what} `{arg}`")));
        };
        if name == "--run" {
            while rest.next_if(|a| !a.starts_with("--")).is_some() {}
        } else if !value.is_empty() {
            rest.next();
        }
        if let Some(other) = requires.filter(|o| !args.iter().any(|a| a == o)) {
            return Err(CliError::Usage(format!("{name} needs {other}")));
        }
    }
    Ok(())
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    if args.is_empty() || args[0].starts_with("--") {
        return Err(CliError::Usage(
            "the first argument must be a program file".to_string(),
        ));
    }
    check_flags(&args[1..])?;
    // Every value is read, and a malformed one refused, before any branch
    // runs: a flag the chosen mode ignores is still checked.
    let inline_depth = value(args, "--inline-depth")?.unwrap_or(0);
    let sessions = value(args, "--sessions")?.map_or(1, NonZeroUsize::get);
    let threads = value(args, "--threads")?.map_or(1, NonZeroUsize::get);
    let workers = value(args, "--stitch-workers")?.map_or(1, NonZeroUsize::get);
    let trace_out = value::<String>(args, "--trace-out")?;
    let trace_format = value(args, "--trace-format")?.unwrap_or_else(|| "jsonl".to_string());
    if !matches!(trace_format.as_str(), "jsonl" | "chrome") {
        return Err(CliError::Usage(format!(
            "--trace-format must be `jsonl` or `chrome`, got `{trace_format}`"
        )));
    }
    let fault_seed = value(args, "--fault-seed")?;
    let code_budget = value(args, "--code-budget")?;
    let connect = value::<String>(args, "--connect")?;
    let persist_dir = value::<String>(args, "--persist-dir")?;
    let path = &args[0];
    let src = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.clone(),
        err: e.to_string(),
    })?;

    let flag = |name: &str| args.iter().any(|a| a == name);

    if flag("--advise") {
        let advice = dyncomp::advise(&src).map_err(|e| CliError::Compile(e.to_string()))?;
        for fa in &advice {
            say!(out, "function {}:", fa.func);
            for h in &fa.params {
                let p = h.params[0];
                say!(
                    out,
                    "  arg {p} constant: {:>3.0}% of instructions fold \
                     ({}/{}), {}/{} branch(es) resolve, {}/{} loop(s) unroll",
                    h.score() * 100.0,
                    h.const_insts,
                    h.total_insts,
                    h.const_branches,
                    h.total_branches,
                    h.unrollable_loops,
                    h.total_loops
                );
            }
            let a = &fa.all_params;
            say!(
                out,
                "  all args constant: {:>3.0}% of instructions fold ({}/{})",
                a.score() * 100.0,
                a.const_insts,
                a.total_insts
            );
            let rec = fa.recommended(0.3);
            if rec.is_empty() {
                say!(
                    out,
                    "  recommendation: no single argument is worth annotating"
                );
            } else {
                let list: Vec<String> = rec.iter().map(|p| format!("arg {p}")).collect();
                say!(out, "  recommendation: annotate {}", list.join(", "));
            }
        }
        return Ok(());
    }

    if let Some(addr) = connect {
        return run_connected(out, args, path, &src, &addr);
    }

    let tiered = flag("--tiered");
    let compiler = Compiler::with_options(CompileOptions {
        dynamic: !flag("--static"),
        tiered_fallback: tiered,
        inline_depth,
        ..CompileOptions::default()
    });
    let persist = match persist_dir {
        Some(path) => match PersistentCache::open(&path) {
            Ok(cache) => Some(Arc::new(cache)),
            Err(e) => {
                return Err(CliError::Io {
                    path,
                    err: e.to_string(),
                })
            }
        },
        None => None,
    };
    let timed = if flag("--time-passes") {
        let (p, times) = compiler
            .compile_timed(&src)
            .map_err(|e| CliError::Compile(e.to_string()))?;
        print_pass_times(out, path, &times)?;
        Some(p)
    } else {
        None
    };
    let (program, artifact_cached) = match (&persist, timed) {
        (Some(cache), _) => {
            let (p, cached) = cache
                .load_or_compile(&compiler, &src)
                .map_err(|e| CliError::Compile(e.to_string()))?;
            (Arc::new(p), cached)
        }
        (None, Some(p)) => (Arc::new(p), false),
        (None, None) => (
            Arc::new(
                compiler
                    .compile(&src)
                    .map_err(|e| CliError::Compile(e.to_string()))?,
            ),
            false,
        ),
    };

    say!(
        out,
        "compiled {path}: {} function(s), {} dynamic region(s), {} code words{}",
        program.module.funcs.len(),
        program.region_count(),
        program.compiled.code.len(),
        if artifact_cached {
            " (artifact loaded from the persistent cache)"
        } else {
            ""
        }
    );
    if inline_depth > 0 {
        for s in &program.inline_sites {
            say!(
                out,
                "inlined `{}` into region {} of `{}` (round {}, {} instruction(s))",
                s.callee_name,
                s.region_index,
                program.module.funcs[s.func].name,
                s.depth,
                s.cloned_insts
            );
        }
        if program.inline_sites.is_empty() {
            say!(
                out,
                "inlining enabled (depth {inline_depth}): no demanded call sites"
            );
        }
    }

    if flag("--ir") {
        for f in program.module.funcs.iter() {
            say!(out, "\n{f}");
        }
    }

    if flag("--regions") {
        for (i, rc) in program.compiled.regions.iter().enumerate() {
            let holes: usize = rc.template.blocks.iter().map(|b| b.holes.len()).sum();
            say!(
                out,
                "\nregion {i}: enter@{} setup@{} | {} static table slot(s), {} template \
                 block(s), {} hole(s), key: {:?}",
                rc.enter_pc,
                rc.setup_pc,
                rc.table_static_len,
                rc.template.blocks.len(),
                holes,
                rc.key_locs
            );
        }
    }

    if flag("--templates") {
        for (i, rc) in program.compiled.regions.iter().enumerate() {
            say!(
                out,
                "\n=== region {i} template (entry L{}) ===",
                rc.template.entry
            );
            for (li, b) in rc.template.blocks.iter().enumerate() {
                let marker = match &b.marker {
                    Some(LoopMarker::Enter { root }) => format!("  ENTER_LOOP({root})"),
                    Some(LoopMarker::Restart { next_slot }) => {
                        format!("  RESTART_LOOP(next={next_slot})")
                    }
                    Some(LoopMarker::Exit) => "  EXIT_LOOP".into(),
                    None => String::new(),
                };
                say!(out, "L{li}:{marker}");
                let code = &rc.template.code[b.start as usize..b.end as usize];
                let mut hole_iter = b.holes.iter().peekable();
                for line in disassemble(code, b.start) {
                    let mut notes = String::new();
                    while let Some(h) = hole_iter.peek() {
                        if h.at == line.addr {
                            let kind = match h.field {
                                HoleField::Lit => "HOLE(lit",
                                HoleField::MemDisp { float: true } => "HOLE(fload",
                                HoleField::MemDisp { float: false } => "HOLE(load",
                            };
                            notes.push_str(&format!("   ; {kind}, t[{}])", h.slot));
                            hole_iter.next();
                        } else {
                            break;
                        }
                    }
                    say!(out, "    {:>4}: {}{notes}", line.addr, line.text);
                }
                match &b.exit {
                    TmplExit::Jump(l) => say!(out, "    -> L{l}"),
                    TmplExit::CondBranch { taken, fall, .. } => {
                        say!(out, "    branch -> L{taken} | fall L{fall}")
                    }
                    TmplExit::ConstBranch {
                        slot,
                        then_l,
                        else_l,
                    } => {
                        say!(out, "    CONST_BRANCH(t[{slot}]) -> L{then_l} | L{else_l}")
                    }
                    TmplExit::ConstSwitch {
                        slot,
                        cases,
                        default,
                    } => {
                        let cs: Vec<String> =
                            cases.iter().map(|(c, l)| format!("{c}=>L{l}")).collect();
                        say!(
                            out,
                            "    CONST_SWITCH(t[{slot}]) [{}] default L{default}",
                            cs.join(", ")
                        )
                    }
                    TmplExit::Return => say!(out, "    (return)"),
                    TmplExit::ExitRegion { exit } => say!(out, "    EXIT_REGION({exit})"),
                }
            }
        }
    }

    if flag("--disasm") {
        say!(out);
        for line in disassemble(&program.compiled.code, 0) {
            say!(out, "{:>6}: {}", line.addr, line.text);
        }
    }

    if let Some(pos) = args.iter().position(|a| a == "--run") {
        let (func, call_args) = parse_run(args, pos)?;
        let options = EngineOptions {
            shared_cache: flag("--shared-cache").then(|| Arc::new(SharedCodeCache::default())),
            trace: trace_out.is_some(),
            tiered: tiered.then(|| TieredOptions {
                workers,
                speculate: flag("--speculate"),
            }),
            faults: fault_seed.map(FaultPlan::seeded),
            recovery: RecoveryPolicy {
                code_budget_bytes: code_budget,
                ..RecoveryPolicy::default()
            },
            native: flag("--native"),
            native_chain: !flag("--no-native-chain"),
            persist,
            ..EngineOptions::default()
        };
        if sessions > 1 || options.shared_cache.is_some() {
            if trace_out.is_some() {
                return Err(CliError::Usage(
                    "--trace-out traces a single session; drop --sessions/--shared-cache"
                        .to_string(),
                ));
            }
            return run_multi_session(
                out, &program, &func, &call_args, sessions, threads, &options,
            );
        }

        let mut engine = Session::with_options(Arc::clone(&program), options.clone());
        let before = engine.cycles();
        let v = engine
            .call(&func, &call_args)
            .map_err(|e| CliError::Run(format!("run failed: {e}")))?;
        say!(
            out,
            "\n{func}({}) = {v} ({} as signed) in {} cycles",
            listed(&call_args),
            v as i64,
            engine.cycles() - before
        );
        if options.native {
            let n = engine.native_report();
            if n.active {
                say!(
                    out,
                    "\nnative backend: {} instance(s) installed ({} bytes), {} declined, \
                     {} dispatch(es), {} chained transfer(s); {}/{} instruction(s) covered, \
                     translated in {} ns",
                    n.installs,
                    n.bytes,
                    n.declined,
                    n.entries,
                    n.chained,
                    n.covered_instructions,
                    n.translated_instructions,
                    n.translate_ns
                );
            } else {
                say!(
                    out,
                    "\nnative backend: unavailable on this host; the session ran on the VM backend"
                );
            }
        }
        if let Some(cache) = &options.persist {
            let s = cache.stats();
            say!(
                out,
                "\npersistent cache ({}): artifact {}/{} hit(s) ({} reject(s)), \
                 instance {} hit(s), {} miss(es), {} reject(s), {} store(s), \
                 {} lock skip(s)",
                cache.root().display(),
                s.artifact_hits,
                s.artifact_hits + s.artifact_misses,
                s.artifact_rejects,
                s.instance_hits,
                s.instance_misses,
                s.instance_rejects,
                s.instance_stores,
                s.lock_skips
            );
            for incident in cache.incidents() {
                say!(
                    out,
                    "        [{}] {}: {}",
                    incident.kind,
                    incident.path,
                    incident.reason
                );
            }
        }
        if options.faults.is_some() || options.recovery.code_budget_bytes.is_some() {
            let h = engine.health();
            say!(
                out,
                "\nhealth: {} fault(s) injected, {} retr{}, {} failure(s) ({} dropped), \
                 degradation level {}",
                h.faults_injected,
                h.retries,
                if h.retries == 1 { "y" } else { "ies" },
                h.total_failures,
                h.dropped,
                h.degradation_level
            );
            if let Some(b) = h.code_budget_bytes {
                say!(
                    out,
                    "        {} / {b} stitched-code byte(s) installed",
                    h.code_bytes_installed
                );
            }
            if !h.quarantined.is_empty() {
                say!(out, "        quarantined region(s): {:?}", h.quarantined);
            }
            for f in &h.failures {
                say!(
                    out,
                    "        [cycle {}] region {} {} failure{}: {}",
                    f.at,
                    f.region,
                    f.kind.name(),
                    if f.injected { " (injected)" } else { "" },
                    f.message
                );
            }
        }
        if let Some(path) = &trace_out {
            engine
                .trace_self_check()
                .map_err(|e| CliError::Trace(e.to_string()))?;
            let rendered = match trace_format.as_str() {
                "chrome" => engine.trace_chrome(),
                _ => engine.trace_jsonl(),
            }
            .ok_or_else(|| CliError::Trace("tracing produced no output".to_string()))?;
            std::fs::write(path, &rendered)
                .map_err(|e| CliError::Trace(format!("cannot write {path}: {e}")))?;
            let t = engine
                .trace()
                .ok_or_else(|| CliError::Trace("tracing state missing".to_string()))?;
            say!(
                out,
                "\nwrote {path} ({trace_format}, {} event(s) recorded, {} dropped); self-check ok",
                t.events().count(),
                t.dropped()
            );
            say!(
                out,
                "{:<4} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>6} {:>12}",
                "rgn",
                "invoc",
                "stitches",
                "setup cy",
                "stitch cy",
                "instrs",
                "patches",
                "keyhits",
                "shared",
                "bg",
                "1st-stitched"
            );
            for p in t.profiles() {
                say!(
                    out,
                    "{:<4} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>6} {:>12}",
                    p.region,
                    p.invocations,
                    p.stitches,
                    p.setup_cycles,
                    p.stitch_cycles,
                    p.instructions_stitched,
                    p.plan_patches,
                    p.keyed_hits,
                    p.shared_cache_hits,
                    p.bg_installs,
                    p.first_stitched_at
                        .map_or("never".to_string(), |c| c.to_string()),
                );
            }
        }
        if flag("--report") {
            for i in 0..program.region_count() {
                let r = engine.region_report(i);
                say!(
                    out,
                    "region {i}: {} stitch(es), set-up {} cycles, stitcher {} cycles, \
                     {} instruction(s) stitched",
                    r.stitches,
                    r.setup_cycles,
                    r.stitch_cycles,
                    r.instructions_stitched
                );
                if r.fallback_runs > 0 || r.bg_installs > 0 {
                    say!(
                        out,
                        "          tiered: {} fallback run(s), {} background install(s) \
                         ({} speculative), background set-up {} + stitch {} cycles",
                        r.fallback_runs,
                        r.bg_installs,
                        r.spec_installs,
                        r.bg_setup_cycles,
                        r.bg_stitch_cycles
                    );
                }
                let s = r.stitch_stats;
                say!(
                    out,
                    "          {} hole(s) inline, {} via table, {} constant branch(es), \
                     {} loop iteration(s) unrolled, {} strength reduction(s)",
                    s.holes_inline,
                    s.holes_big,
                    s.const_branches_resolved,
                    s.loop_iterations,
                    s.strength_reductions
                );
            }
        }
        if flag("--stitched") {
            for i in 0..program.region_count() {
                for (key, code) in engine.stitched_instances(i) {
                    let key_str = if key.is_empty() {
                        String::new()
                    } else {
                        format!(" key ({})", listed(key))
                    };
                    say!(
                        out,
                        "\nstitched code for region {i}{key_str} ({} words):",
                        code.len()
                    );
                    let base = code_offset_of(&engine, code);
                    for line in disassemble(code, base) {
                        say!(out, "{:>6}: {}", line.addr, line.text);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parse `--run <func> [int args…]`.
fn parse_run(args: &[String], pos: usize) -> Result<(String, Vec<u64>), CliError> {
    let func = args
        .get(pos + 1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("--run needs a function name".to_string()))?;
    let call_args = args[pos + 2..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(|a| {
            a.parse::<i64>()
                .map(|v| v as u64)
                .map_err(|_| CliError::Usage(format!("bad integer argument `{a}`")))
        })
        .collect::<Result<Vec<u64>, CliError>>()?;
    Ok((func.clone(), call_args))
}

/// The value of a `NAME value` flag, if it is given.
fn value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    let Some(p) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let v = args
        .get(p + 1)
        .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?;
    v.parse()
        .map(Some)
        .map_err(|_| CliError::Usage(format!("{name} cannot take `{v}`")))
}

/// `values` as `a, b, c`.
fn listed(values: &[u64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    shown.join(", ")
}

/// Serve `--run` through a running `dynccd`: upload the program, open a
/// session under a CLI tenant, call, close (printing the session
/// checksum the server folded over the call results).
fn run_connected(
    out: &mut impl Write,
    args: &[String],
    path: &str,
    src: &str,
    addr: &str,
) -> Result<(), CliError> {
    let pos = args
        .iter()
        .position(|a| a == "--run")
        .ok_or_else(|| CliError::Usage("--connect needs --run <func> [args…]".to_string()))?;
    let (func, call_args) = parse_run(args, pos)?;
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Net(format!("connect {addr}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");

    let mut request = |body: String| -> Result<Json, CliError> {
        let response = client
            .request(&body)
            .map_err(|e| CliError::Net(e.to_string()))?;
        let v = Json::parse(&response)
            .map_err(|e| CliError::Net(format!("malformed server response: {e}")))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let kind = v.get("error").and_then(Json::as_str).unwrap_or("error");
            let msg = v.get("message").and_then(Json::as_str).unwrap_or("");
            return Err(CliError::Net(format!("server {kind}: {msg}")));
        }
        Ok(v)
    };

    let uploaded = request(format!(
        "{{\"op\":\"upload\",\"name\":{},\"src\":{}}}",
        escape(name),
        escape(src)
    ))?;
    let regions = uploaded.get("regions").and_then(Json::as_int).unwrap_or(0);
    say!(
        out,
        "uploaded {path} to {addr}: {regions} dynamic region(s)"
    );
    request("{\"op\":\"tenant\",\"tenant\":\"cli\"}".to_string())?;
    request(format!(
        "{{\"op\":\"open\",\"tenant\":\"cli\",\"program\":{},\"session\":\"cli\"}}",
        escape(name)
    ))?;
    let rendered_args: Vec<String> = call_args.iter().map(|a| (*a as i64).to_string()).collect();
    let called = request(format!(
        "{{\"op\":\"call\",\"session\":\"cli\",\"func\":{},\"args\":[{}]}}",
        escape(&func),
        rendered_args.join(",")
    ))?;
    let result = called.get("result").and_then(Json::as_int).unwrap_or(0);
    let cycles = called.get("cycles").and_then(Json::as_int).unwrap_or(0);
    say!(
        out,
        "\n{func}({}) = {} ({result} as signed) in {cycles} cycles (served by {addr})",
        listed(&call_args),
        result as u64,
    );
    let closed = request("{\"op\":\"close\",\"session\":\"cli\"}".to_string())?;
    let checksum = closed.get("checksum").and_then(Json::as_str).unwrap_or("");
    say!(out, "session closed: checksum {checksum}");
    Ok(())
}

/// Address of a stitched slice within the engine's code space (the slice
/// is borrowed from `engine.vm.code`, so pointer arithmetic is exact).
fn code_offset_of(engine: &Session, code: &[u32]) -> u32 {
    let base = engine.vm.code.as_ptr() as usize;
    ((code.as_ptr() as usize - base) / 4) as u32
}

/// One session's row in the `--sessions` report.
struct SessionRow {
    result: u64,
    cycles: u64,
    stitches: u32,
    shared_hits: u64,
}

/// Run the same call in `n` independent sessions over one shared program,
/// spread across `threads` host threads, and print per-session cycle
/// counts. With a shared cache in `options`, sessions publish and reuse
/// stitched code through it. A session that fails — or panics; each
/// session body runs under `catch_unwind` — fails the command with exit 1
/// after every session has reported.
fn run_multi_session(
    out: &mut impl Write,
    program: &Arc<dyncomp::Program>,
    func: &str,
    call_args: &[u64],
    n: usize,
    threads: usize,
    options: &EngineOptions,
) -> Result<(), CliError> {
    let mut rows: Vec<Result<SessionRow, String>> = (0..n)
        .map(|_| Err("session never ran".to_string()))
        .collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for slots in rows.chunks_mut(chunk) {
            s.spawn(move || {
                for slot in slots {
                    let ran = catch_unwind(AssertUnwindSafe(|| {
                        let mut session =
                            Session::with_options(Arc::clone(program), options.clone());
                        session.call(func, call_args).map(|result| {
                            let mut stitches = 0;
                            let mut shared_hits = 0;
                            for i in 0..session.program().region_count() {
                                let r = session.region_report(i);
                                stitches += r.stitches;
                                shared_hits += r.shared_hits;
                            }
                            SessionRow {
                                result,
                                cycles: session.cycles(),
                                stitches,
                                shared_hits,
                            }
                        })
                    }));
                    *slot = match ran {
                        Ok(r) => r.map_err(|e| e.to_string()),
                        Err(_) => Err("session panicked".to_string()),
                    };
                }
            });
        }
    });

    say!(
        out,
        "\n{n} session(s) of {func}({}) on {threads} thread(s){}:",
        listed(call_args),
        if options.shared_cache.is_some() {
            ", shared stitched-code cache"
        } else {
            ""
        }
    );
    let mut failed = false;
    for (i, row) in rows.iter().enumerate() {
        match row {
            Ok(r) => say!(
                out,
                "  session {i}: = {} ({} as signed) in {} cycles, {} stitch(es), \
                 {} shared hit(s)",
                r.result,
                r.result as i64,
                r.cycles,
                r.stitches,
                r.shared_hits
            ),
            Err(e) => {
                eprintln!("  session {i}: failed: {e}");
                failed = true;
            }
        }
    }
    if let Some(cache) = &options.shared_cache {
        let st = cache.stats();
        say!(
            out,
            "  cache: {} hit(s), {} miss(es), {} insertion(s), {} eviction(s) \
             across {} shard(s)",
            st.hits,
            st.misses,
            st.insertions,
            st.evictions,
            cache.shard_count()
        );
    }
    if failed {
        return Err(CliError::Run("one or more sessions failed".to_string()));
    }
    Ok(())
}
