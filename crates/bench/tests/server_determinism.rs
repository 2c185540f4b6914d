//! Multi-tenant determinism and isolation for the `dynccd` server
//! engine, driven in-process (no sockets — the wire layer has its own
//! suite): every served session must compute checksums bit-identical to
//! a plain single-session run, tenant quotas must be enforced as typed
//! errors, and one session's failure — a panic, a lost native state —
//! must degrade that session only, never the server.

use dyncomp::server::{fold_checksum, Json, ServerEngine};
use dyncomp::{Compiler, Session};
use std::sync::Arc;

const KERNEL: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}";

fn engine_with_kernel() -> Arc<ServerEngine> {
    let engine = Arc::new(ServerEngine::new());
    ok(&engine.handle(
        format!(
            "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
            dyncomp::server::escape(KERNEL)
        )
        .as_bytes(),
    ));
    engine
}

/// Parse a response, assert `ok:true`, return it.
fn ok(resp: &str) -> Json {
    let v = Json::parse(resp).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok:true, got: {resp}"
    );
    v
}

/// Parse a response, assert `ok:false`, return its error kind.
fn err_kind(resp: &str) -> String {
    let v = Json::parse(resp).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected ok:false, got: {resp}"
    );
    v.get("error")
        .and_then(Json::as_str)
        .expect("error kind present")
        .to_string()
}

fn req(engine: &ServerEngine, body: &str) -> String {
    engine.handle(body.as_bytes())
}

/// Eight threads, four tenants, each session runs a distinct key class:
/// every close-time checksum must equal the fold a plain `Session` (no
/// server, no sharing, no pool) produces for the same call burst.
#[test]
fn served_checksums_bit_identical_to_plain_sessions() {
    let engine = engine_with_kernel();
    for t in 0..4 {
        ok(&req(
            &engine,
            &format!("{{\"op\":\"tenant\",\"tenant\":\"t{t}\",\"memory_bytes\":8192}}"),
        ));
    }

    // Reference: one plain session per class, same calls.
    let program = Arc::new(Compiler::new().compile(KERNEL).unwrap());
    let reference: Vec<u64> = (0..8u64)
        .map(|class| {
            let mut s = Session::new(Arc::clone(&program));
            let mut sum = 0u64;
            for call in 0..4u64 {
                let r = s.call("poly", &[3 + class, 10 + call]).unwrap();
                sum = fold_checksum(sum, r);
            }
            sum
        })
        .collect();

    std::thread::scope(|scope| {
        for i in 0..8usize {
            let engine = Arc::clone(&engine);
            let reference = &reference;
            scope.spawn(move || {
                let class = i as u64 % 8;
                let name = format!("s{i}");
                ok(&req(
                    &engine,
                    &format!(
                        "{{\"op\":\"open\",\"tenant\":\"t{}\",\"program\":\"poly\",\"session\":\"{name}\"}}",
                        i % 4
                    ),
                ));
                for call in 0..4u64 {
                    let resp = req(
                        &engine,
                        &format!(
                            "{{\"op\":\"call\",\"session\":\"{name}\",\"func\":\"poly\",\"args\":[{},{}]}}",
                            3 + class,
                            10 + call
                        ),
                    );
                    ok(&resp);
                }
                let resp = ok(&req(
                    &engine,
                    &format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"),
                ));
                let got = resp
                    .get("checksum")
                    .and_then(Json::as_str)
                    .expect("close returns a checksum")
                    .to_string();
                let want = format!("{:016x}", reference[class as usize]);
                assert_eq!(got, want, "session {name} diverged from the plain run");
            });
        }
    });
}

/// `max_sessions` is a hard per-tenant quota surfaced as a typed
/// `tenant-quota` error; closing a session frees the slot.
#[test]
fn tenant_session_quota_is_enforced() {
    let engine = engine_with_kernel();
    ok(&req(
        &engine,
        "{\"op\":\"tenant\",\"tenant\":\"small\",\"max_sessions\":2}",
    ));
    ok(&req(
        &engine,
        "{\"op\":\"open\",\"tenant\":\"small\",\"program\":\"poly\",\"session\":\"a\"}",
    ));
    ok(&req(
        &engine,
        "{\"op\":\"open\",\"tenant\":\"small\",\"program\":\"poly\",\"session\":\"b\"}",
    ));
    let resp = req(
        &engine,
        "{\"op\":\"open\",\"tenant\":\"small\",\"program\":\"poly\",\"session\":\"c\"}",
    );
    assert_eq!(err_kind(&resp), "tenant-quota", "{resp}");
    ok(&req(&engine, "{\"op\":\"close\",\"session\":\"a\"}"));
    ok(&req(
        &engine,
        "{\"op\":\"open\",\"tenant\":\"small\",\"program\":\"poly\",\"session\":\"c\"}",
    ));
}

/// A panic inside one session's call is contained: the caller gets a
/// typed `run-panic` error, the session is dead (further calls say so),
/// and every other session — same tenant included — keeps serving.
#[test]
fn panicking_session_dies_alone_and_server_keeps_serving() {
    let engine = engine_with_kernel();
    ok(&req(&engine, "{\"op\":\"tenant\",\"tenant\":\"t\"}"));
    for name in ["victim", "bystander"] {
        ok(&req(
            &engine,
            &format!(
                "{{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"{name}\"}}"
            ),
        ));
    }
    assert!(engine.arm_panic("victim"), "victim session exists");

    let resp = req(
        &engine,
        "{\"op\":\"call\",\"session\":\"victim\",\"func\":\"poly\",\"args\":[3,10]}",
    );
    assert_eq!(err_kind(&resp), "run-panic", "{resp}");

    // The dead session stays dead, with a typed error, not a panic.
    let resp = req(
        &engine,
        "{\"op\":\"call\",\"session\":\"victim\",\"func\":\"poly\",\"args\":[3,10]}",
    );
    assert_eq!(err_kind(&resp), "session-dead", "{resp}");

    // Health reports it dead.
    let health = ok(&req(&engine, "{\"op\":\"health\",\"session\":\"victim\"}"));
    assert_eq!(health.get("alive").and_then(Json::as_bool), Some(false));

    // The bystander is untouched and computes the right answer.
    let resp = ok(&req(
        &engine,
        "{\"op\":\"call\",\"session\":\"bystander\",\"func\":\"poly\",\"args\":[3,10]}",
    ));
    assert_eq!(resp.get("result").and_then(Json::as_int), Some(333));

    // And new sessions still open.
    ok(&req(
        &engine,
        "{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"fresh\"}",
    ));
}

/// The engine-state invariant break the checked accessor guards: drop a
/// session's native-backend state while its dispatch marks stay armed.
/// The next call must compute the correct result on the VM path and
/// record exactly one `engine-state` health entry — session-level
/// degradation, not a process abort.
#[test]
fn forced_native_state_loss_degrades_one_session_only() {
    let engine = engine_with_kernel();
    ok(&req(
        &engine,
        "{\"op\":\"tenant\",\"tenant\":\"nat\",\"native\":true}",
    ));
    for name in ["lossy", "healthy"] {
        ok(&req(
            &engine,
            &format!(
                "{{\"op\":\"open\",\"tenant\":\"nat\",\"program\":\"poly\",\"session\":\"{name}\"}}"
            ),
        ));
        // Warm both sessions so native instances install (where supported).
        let resp = ok(&req(
            &engine,
            &format!(
                "{{\"op\":\"call\",\"session\":\"{name}\",\"func\":\"poly\",\"args\":[3,10]}}"
            ),
        ));
        assert_eq!(resp.get("result").and_then(Json::as_int), Some(333));
    }

    assert!(
        engine.force_native_loss("lossy"),
        "session exists and is idle"
    );

    // The degraded session still answers correctly (VM path).
    let resp = ok(&req(
        &engine,
        "{\"op\":\"call\",\"session\":\"lossy\",\"func\":\"poly\",\"args\":[3,11]}",
    ));
    assert_eq!(
        resp.get("result").and_then(Json::as_int),
        Some(3 * 121 + 33 + 3)
    );

    // Its health ring shows the typed engine-state entry... (only hosts
    // with the native backend arm dispatch marks, so only they hit the
    // checked accessor; elsewhere the forced loss is a no-op).
    let health = req(&engine, "{\"op\":\"health\",\"session\":\"lossy\"}");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(
            health.contains("\"kind\":\"engine-state\""),
            "lossy session's health must record the degradation: {health}"
        );
    }
    // ...and the healthy session's does not.
    let health = req(&engine, "{\"op\":\"health\",\"session\":\"healthy\"}");
    assert!(
        !health.contains("engine-state"),
        "healthy session must be unaffected: {health}"
    );
    let resp = ok(&req(
        &engine,
        "{\"op\":\"call\",\"session\":\"healthy\",\"func\":\"poly\",\"args\":[3,11]}",
    ));
    assert_eq!(
        resp.get("result").and_then(Json::as_int),
        Some(3 * 121 + 33 + 3)
    );
}

/// Engine-level version of the same invariant (no server): force the
/// loss mid-session and keep calling — results stay correct, exactly one
/// `engine-state` failure is recorded, and the session never panics.
/// Keys first seen after the loss stitch fresh instances that arm no
/// dispatch mark: a mark with no backend behind it would dispatch and
/// record a second `engine-state` entry.
#[test]
fn engine_survives_native_state_loss_mid_session() {
    let program = Arc::new(Compiler::new().compile(KERNEL).unwrap());
    let mut s = Session::with_options(
        Arc::clone(&program),
        dyncomp::EngineOptions {
            native: true,
            ..dyncomp::EngineOptions::default()
        },
    );
    assert_eq!(s.call("poly", &[3, 10]).unwrap(), 333);
    // On hosts without the native backend dispatch marks never arm, the
    // forced loss is a no-op, and no entry is expected: the assertion
    // below scales with what the warm-up actually installed.
    let was_active = s.native_report().active;
    s.force_native_state_loss();
    // Repeated calls: dispatch marks are retired on the first degraded
    // dispatch; every result stays correct.
    for call in 0..4u64 {
        let x = 10 + call;
        assert_eq!(s.call("poly", &[3, x]).unwrap(), 3 * x * x + 3 * x + 3);
    }
    let stitches = s.region_report(0).stitches;
    for c in 4..8u64 {
        for x in 1..4u64 {
            assert_eq!(s.call("poly", &[c, x]).unwrap(), c * x * x + c * x + c);
        }
    }
    assert_eq!(
        s.region_report(0).stitches,
        stitches + 4,
        "every new key stitches after the loss"
    );
    let h = s.health();
    let entries = h
        .failures
        .iter()
        .filter(|f| f.kind.name() == "engine-state")
        .count();
    assert_eq!(
        entries,
        usize::from(was_active),
        "one engine-state entry per armed-backend loss: {:?}",
        h.failures
    );
    assert!(
        !s.native_report().active,
        "backend is gone for this session"
    );
}

/// Every option key a `tenant` or `upload` frame carries, at the edges of
/// what it accepts: each integer key at 0, 1, its bound, bound + 1, −1
/// and a string (keys with no bound of their own are bounded by the
/// wire's `i64`); each boolean key at 0, 1, true, false, −1 and a
/// string; `upload.inline` at −1, 0, 2, 8 and 9, and `upload.tiered`
/// both ways. Every tenant then gets `open`, `call`, `health` and
/// `close`. Each request and its reply are one line of
/// `tests/wire_script.txt`, compared byte for byte; on a mismatch the
/// whole transcript is printed, so a deliberate change of a reply is one
/// copy into that file.
#[test]
fn option_frames_replies_are_pinned() {
    const MAX: &str = "9223372036854775807";
    const MAX_PLUS_ONE: &str = "9223372036854775808";
    let ints: [(&str, &str, &str); 7] = [
        ("max_sessions", MAX, MAX_PLUS_ONE),
        ("memory_bytes", "1073741824", "1073741825"),
        ("code_budget_bytes", MAX, MAX_PLUS_ONE),
        ("cache_bytes", MAX, MAX_PLUS_ONE),
        ("cache_shards", "1024", "1025"),
        ("cache_capacity", "1048576", "1048577"),
        ("quarantine_after", "4294967295", "4294967296"),
    ];
    let engine = engine_with_kernel();
    let mut transcript = String::new();
    let mut send = |body: String| {
        let reply = req(&engine, &body);
        transcript.push_str(&format!("> {body}\n< {reply}\n"));
    };
    for (i, inline) in ["-1", "0", "2", "8", "9"].iter().enumerate() {
        send(format!(
            "{{\"op\":\"upload\",\"name\":\"inline{i}\",\"src\":{},\"inline\":{inline}}}",
            dyncomp::server::escape(KERNEL)
        ));
    }
    for tiered in ["true", "false"] {
        send(format!(
            "{{\"op\":\"upload\",\"name\":\"tiered-{tiered}\",\"src\":{},\"tiered\":{tiered}}}",
            dyncomp::server::escape(KERNEL)
        ));
    }
    let bools =
        ["native", "trace", "persist"].map(|key| (key, ["0", "1", "true", "false", "-1", "\"x\""]));
    let cases = ints
        .iter()
        .map(|&(key, bound, over)| (key, ["0", "1", bound, over, "-1", "\"x\""]))
        .chain(bools);
    for (key, values) in cases {
        for (i, value) in values.iter().enumerate() {
            let name = format!("{key}-{i}");
            send(format!(
                "{{\"op\":\"tenant\",\"tenant\":\"{name}\",\"{key}\":{value}}}"
            ));
            send(format!(
                "{{\"op\":\"open\",\"tenant\":\"{name}\",\"program\":\"poly\",\"session\":\"{name}\"}}"
            ));
            send(format!(
                "{{\"op\":\"call\",\"session\":\"{name}\",\"func\":\"poly\",\"args\":[3,10]}}"
            ));
            send(format!("{{\"op\":\"health\",\"session\":\"{name}\"}}"));
            send(format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"));
        }
    }
    // Only hosts with the native backend report it active.
    let host = |text: &str| match cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        true => text.to_string(),
        false => text.replace("\"native_active\":true", "\"native_active\":false"),
    };
    let expected = host(include_str!("wire_script.txt"));
    let got = host(&transcript);
    if got != expected {
        for (n, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            if g != e {
                eprintln!("line {}:\n  got      {g}\n  expected {e}", n + 1);
            }
        }
        panic!("the replies moved; the whole transcript:\n{transcript}");
    }
}
