//! Wire-protocol abuse against a live `dynccd` listener: a fixed-seed
//! fuzzer throws truncated frames, oversized length prefixes, malformed
//! JSON, shape-violating requests and abrupt disconnects at the server,
//! and after every abuse the server must (a) answer each with a *typed*
//! protocol error — never a panic, never silence on a writable stream —
//! and (b) keep a concurrently running victim session bit-exact. Errors
//! are per frame, per connection; they can never poison another tenant.

use dyncomp::server::{escape, Client, Json, Server, ServerOptions};
use dyncomp::{Compiler, Session};
use dyncomp_bench::lattice::ScratchDir;
use std::io::Write;
use std::net::Shutdown;
use std::sync::Arc;

const KERNEL: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}";

/// SplitMix64: tiny, deterministic, good enough to diversify abuse
/// shapes. Fixed seed so every run replays the same byte stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Bind on an ephemeral port, serve on a background thread, return the
/// address and the join handle (joined after a `shutdown` op).
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    spawn_server_at(None)
}

/// [`spawn_server`] with an optional `--persist-root`.
fn spawn_server_at(persist_root: Option<String>) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerOptions {
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        persist_root,
        ..ServerOptions::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn ok(resp: &str) -> Json {
    let v = Json::parse(resp).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok:true, got: {resp}"
    );
    v
}

fn err_kind(resp: &str) -> String {
    let v = Json::parse(resp).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected ok:false, got: {resp}"
    );
    v.get("error")
        .and_then(Json::as_str)
        .expect("typed error kind present")
        .to_string()
}

fn upload_and_tenant(client: &mut Client) {
    ok(&client
        .request(&format!(
            "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
            escape(KERNEL)
        ))
        .unwrap());
    ok(&client
        .request("{\"op\":\"tenant\",\"tenant\":\"t\"}")
        .unwrap());
}

#[test]
fn fuzzed_frames_yield_typed_errors_and_never_poison_the_victim() {
    let (addr, handle) = spawn_server();
    let mut admin = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut admin);

    // The victim: a well-behaved session on its own connection whose
    // every call must stay correct while the fuzzer abuses the port.
    let mut victim = Client::connect(&addr).unwrap();
    ok(&victim
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"victim\"}")
        .unwrap());

    // Reference fold from a plain, serverless session.
    let program = Arc::new(Compiler::new().compile(KERNEL).unwrap());
    let mut reference_session = Session::new(program);
    let mut reference = 0u64;

    let mut rng = SplitMix64(0xD15C_0DE5_EED0_0001);
    for round in 0..64u64 {
        match rng.next() % 6 {
            // Valid frame, garbage bytes inside: bad-json (or, if the
            // garbage happens to decode, a shape/op error) — typed
            // either way, on the same connection, which stays usable.
            0 => {
                let mut c = Client::connect(&addr).unwrap();
                let n = (rng.next() % 64 + 1) as usize;
                let junk: Vec<u8> = (0..n).map(|_| (rng.next() & 0xFF) as u8).collect();
                let mut framed = (junk.len() as u32).to_be_bytes().to_vec();
                framed.extend_from_slice(&junk);
                c.stream().write_all(&framed).unwrap();
                let resp = c.request("{\"op\":\"ping\"}");
                // First response answers the junk frame...
                if let Ok(r) = resp {
                    let kind = err_kind(&r);
                    assert!(
                        ["bad-json", "bad-request", "unknown-op"].contains(&kind.as_str()),
                        "round {round}: junk frame produced unexpected kind {kind}"
                    );
                }
            }
            // Hostile length prefix (0xFFFF_FFFF): rejected before any
            // allocation, answered as frame-too-large, connection drops.
            1 => {
                let mut c = Client::connect(&addr).unwrap();
                c.stream().write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
                let resp = c.request("{\"op\":\"ping\"}");
                match resp {
                    Ok(r) => assert_eq!(err_kind(&r), "frame-too-large", "round {round}"),
                    // The server may close before our follow-up lands.
                    Err(e) => assert!(
                        e.to_string().contains("frame-too-large")
                            || e.to_string().contains("closed")
                            || e.to_string().contains("write"),
                        "round {round}: {e}"
                    ),
                }
            }
            // Truncated frame: claim N bytes, send fewer, hang up.
            2 => {
                let mut c = Client::connect(&addr).unwrap();
                let claimed = (rng.next() % 512 + 8) as u32;
                let sent = (rng.next() % u64::from(claimed / 2)) as usize;
                let mut bytes = claimed.to_be_bytes().to_vec();
                bytes.extend(std::iter::repeat_n(b'x', sent));
                c.stream().write_all(&bytes).unwrap();
                let _ = c.stream().shutdown(Shutdown::Both);
                drop(c);
            }
            // Malformed JSON text in a well-formed frame: bad-json.
            3 => {
                let mut c = Client::connect(&addr).unwrap();
                let r = c.request("{\"op\":").unwrap();
                assert_eq!(err_kind(&r), "bad-json", "round {round}");
            }
            // Well-formed JSON, wrong shape / unknown op: typed errors,
            // and the connection keeps serving afterwards.
            4 => {
                let mut c = Client::connect(&addr).unwrap();
                let r = c.request("{\"op\":\"call\"}").unwrap();
                assert_eq!(err_kind(&r), "bad-request", "round {round}");
                let r = c.request("{\"op\":\"frobnicate\"}").unwrap();
                assert_eq!(err_kind(&r), "unknown-op", "round {round}");
                let r = c.request("{\"op\":\"open\",\"tenant\":\"ghost\",\"program\":\"poly\",\"session\":\"x\"}").unwrap();
                assert_eq!(err_kind(&r), "no-such-tenant", "round {round}");
                ok(&c.request("{\"op\":\"ping\"}").unwrap());
            }
            // Mid-session disconnect: open a session, call once, vanish
            // without closing. The session survives (addressable later);
            // the connection's death harms nobody.
            _ => {
                let name = format!("ephemeral{round}");
                let mut c = Client::connect(&addr).unwrap();
                ok(&c
                    .request(&format!(
                        "{{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"{name}\"}}"
                    ))
                    .unwrap());
                ok(&c
                    .request(&format!(
                        "{{\"op\":\"call\",\"session\":\"{name}\",\"func\":\"poly\",\"args\":[2,5]}}"
                    ))
                    .unwrap());
                let _ = c.stream().shutdown(Shutdown::Both);
                drop(c);
                // Still addressable from the admin connection.
                let h = ok(&admin
                    .request(&format!("{{\"op\":\"health\",\"session\":\"{name}\"}}"))
                    .unwrap());
                assert_eq!(h.get("alive").and_then(Json::as_bool), Some(true));
                ok(&admin
                    .request(&format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"))
                    .unwrap());
            }
        }

        // Interleave one victim call per round: correctness under fire.
        let c = 3 + rng.next() % 5;
        let x = 10 + rng.next() % 50;
        let want = reference_session.call("poly", &[c, x]).unwrap();
        reference = dyncomp::server::fold_checksum(reference, want);
        let r = ok(&victim
            .request(&format!(
                "{{\"op\":\"call\",\"session\":\"victim\",\"func\":\"poly\",\"args\":[{c},{x}]}}"
            ))
            .unwrap());
        assert_eq!(
            r.get("result").and_then(Json::as_int),
            Some(want as i64),
            "round {round}: victim result diverged"
        );

        // And the server still answers a fresh, polite connection.
        let mut probe = Client::connect(&addr).unwrap();
        ok(&probe.request("{\"op\":\"ping\"}").unwrap());
    }

    // The victim's close-time checksum folds every interleaved call,
    // bit-identical to the serverless reference.
    let r = ok(&victim
        .request("{\"op\":\"close\",\"session\":\"victim\"}")
        .unwrap());
    assert_eq!(
        r.get("checksum").and_then(Json::as_str),
        Some(format!("{reference:016x}").as_str()),
        "victim checksum diverged after 64 rounds of protocol abuse"
    );

    let _ = admin.request("{\"op\":\"shutdown\"}");
    drop(admin);
    drop(victim);
    handle.join().unwrap();
}

/// An empty frame (length 0) is a degenerate but well-formed message:
/// it must yield a typed bad-json response, not a hang or a panic.
/// An idle connection past the configured budget is closed by the
/// server (thread reclaimed), but the sessions opened through it stay
/// addressable from a fresh connection — reaping reclaims threads,
/// never tenant state.
#[test]
fn idle_connections_are_reaped_but_sessions_survive() {
    use std::io::Read;
    let server = Server::bind(&ServerOptions {
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout_ms: 400,
        ..ServerOptions::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.serve());

    let mut first = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut first);
    ok(&first
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"s\"}")
        .unwrap());
    let called = ok(&first
        .request("{\"op\":\"call\",\"session\":\"s\",\"func\":\"poly\",\"args\":[3,4]}")
        .unwrap());
    let reference = called.get("result").and_then(Json::as_int).unwrap();

    // Go quiet past the 400 ms budget: the server must close the
    // connection (EOF on our side, bounded by the 10 s read timeout).
    let stream = first.stream();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert!(
        matches!(stream.read(&mut buf), Ok(0)),
        "server reaps the idle connection with a clean close"
    );

    // The session survives the reap: a fresh connection keeps calling it.
    let mut second = Client::connect(&addr).unwrap();
    let again = ok(&second
        .request("{\"op\":\"call\",\"session\":\"s\",\"func\":\"poly\",\"args\":[3,4]}")
        .unwrap());
    assert_eq!(again.get("result").and_then(Json::as_int), Some(reference));

    let _ = second.request("{\"op\":\"shutdown\"}");
    drop(second);
    handle.join().unwrap();
}

/// Regression: `memory_bytes` had a floor but no ceiling, so one `tenant`
/// frame asking for 64 TiB followed by an `open` died in
/// `handle_alloc_error` — an abort of the whole server that no
/// `catch_unwind` contains. The frame is refused with a typed error and
/// everyone else keeps being served.
#[test]
fn oversized_tenant_memory_is_refused_and_the_server_survives() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut c);
    ok(&c
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"s\"}")
        .unwrap());
    let call = "{\"op\":\"call\",\"session\":\"s\",\"func\":\"poly\",\"args\":[3,4]}";
    let before = ok(&c.request(call).unwrap());

    for bytes in [70_368_744_177_664u64, (1 << 30) + 1] {
        let r = c
            .request(&format!(
                "{{\"op\":\"tenant\",\"tenant\":\"huge\",\"memory_bytes\":{bytes}}}"
            ))
            .unwrap();
        assert_eq!(err_kind(&r), "bad-request", "memory_bytes {bytes}");
    }
    // The refused tenant was never defined, so nothing can open under it.
    let r = c
        .request("{\"op\":\"open\",\"tenant\":\"huge\",\"program\":\"poly\",\"session\":\"h\"}")
        .unwrap();
    assert_eq!(err_kind(&r), "no-such-tenant");
    // The bound itself is accepted, and costs nothing until touched.
    ok(&c
        .request("{\"op\":\"tenant\",\"tenant\":\"big\",\"memory_bytes\":1073741824}")
        .unwrap());

    ok(&c.request("{\"op\":\"ping\"}").unwrap());
    let after = ok(&c.request(call).unwrap());
    assert_eq!(
        after.get("result").and_then(Json::as_int),
        before.get("result").and_then(Json::as_int)
    );
    let _ = c.request("{\"op\":\"shutdown\"}");
    drop(c);
    handle.join().unwrap();
}

/// Regression: `cache_shards` reached the shared cache's eager
/// per-stripe allocation unbounded (2^40 stripes abort the process, and
/// `op_tenant` is not under `catch_unwind`), `cache_capacity` had no
/// ceiling either, and `quarantine_after` was truncated with `as u32`
/// (2^32 became 0). All three are typed `bad-request`s now.
#[test]
fn oversized_tenant_cache_geometry_is_refused_and_the_server_survives() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut c);
    ok(&c
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"s\"}")
        .unwrap());
    let call = "{\"op\":\"call\",\"session\":\"s\",\"func\":\"poly\",\"args\":[3,4]}";
    let before = ok(&c.request(call).unwrap());

    for (field, value) in [
        ("cache_shards", 1u64 << 40),
        ("cache_shards", (1 << 10) + 1),
        ("cache_capacity", 1 << 40),
        ("cache_capacity", (1 << 20) + 1),
        ("quarantine_after", 1 << 32),
    ] {
        let r = c
            .request(&format!(
                "{{\"op\":\"tenant\",\"tenant\":\"huge\",\"{field}\":{value}}}"
            ))
            .unwrap();
        assert_eq!(err_kind(&r), "bad-request", "{field} {value}");
    }
    let r = c
        .request("{\"op\":\"open\",\"tenant\":\"huge\",\"program\":\"poly\",\"session\":\"h\"}")
        .unwrap();
    assert_eq!(
        err_kind(&r),
        "no-such-tenant",
        "a refused tenant is never defined"
    );
    // The bounds themselves are accepted.
    ok(&c
        .request(
            "{\"op\":\"tenant\",\"tenant\":\"big\",\"cache_shards\":1024,\
             \"cache_capacity\":1048576,\"quarantine_after\":4294967295}",
        )
        .unwrap());

    let after = ok(&c.request(call).unwrap());
    assert_eq!(
        after.get("result").and_then(Json::as_int),
        before.get("result").and_then(Json::as_int)
    );
    let _ = c.request("{\"op\":\"shutdown\"}");
    drop(c);
    handle.join().unwrap();
}

/// Every path under `dir`, relative to it, sorted.
fn tree(dir: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            out.push(path.strip_prefix(dir).unwrap().display().to_string());
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Regression: a tenant's name is joined into its directory under
/// `--persist-root`, and was joined unvalidated — `../../escaped` with
/// `persist:true` answered `ok` and created `escaped/artifacts` two
/// levels above the root (an absolute name replaces the root outright).
/// A name must be one normal path component, persisting or not.
#[test]
fn tenant_names_are_one_normal_path_component() {
    let scratch = ScratchDir::new("proto-names");
    let base = scratch.path();
    let root = base.join("a").join("b").join("root");
    std::fs::create_dir_all(&root).unwrap();
    let (addr, handle) = spawn_server_at(Some(root.display().to_string()));
    let mut c = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut c);
    let before = tree(base);

    let absolute = base.join("abs").display().to_string();
    let too_long = "n".repeat(65);
    for name in [
        "../../escaped",
        "..",
        ".",
        "",
        "a/b",
        "a\\b",
        "sp ace",
        absolute.as_str(),
        too_long.as_str(),
    ] {
        for persist in [true, false] {
            let r = c
                .request(&format!(
                    "{{\"op\":\"tenant\",\"tenant\":{},\"persist\":{persist}}}",
                    escape(name)
                ))
                .unwrap();
            assert_eq!(
                err_kind(&r),
                "bad-request",
                "name {name:?} persist {persist}"
            );
        }
    }
    assert_eq!(
        tree(base),
        before,
        "a refused name creates nothing anywhere"
    );

    // A well-formed name persists inside the root, and only there.
    let longest = "n".repeat(64);
    for name in ["ok-1.x_Y", longest.as_str()] {
        ok(&c
            .request(&format!(
                "{{\"op\":\"tenant\",\"tenant\":\"{name}\",\"persist\":true}}"
            ))
            .unwrap());
        assert!(root.join("tenants").join(name).join("artifacts").is_dir());
    }
    let outside: Vec<String> = tree(base)
        .into_iter()
        .filter(|p| !std::path::Path::new(p).starts_with("a/b/root") && !before.contains(p))
        .collect();
    assert!(outside.is_empty(), "created outside the root: {outside:?}");

    // The engine still serves the next frame.
    ok(&c
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"s\"}")
        .unwrap());
    ok(&c
        .request("{\"op\":\"call\",\"session\":\"s\",\"func\":\"poly\",\"args\":[3,4]}")
        .unwrap());
    let _ = c.request("{\"op\":\"shutdown\"}");
    drop(c);
    handle.join().unwrap();
}

#[test]
fn empty_frame_is_a_typed_error() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();
    let r = c.request("").unwrap();
    assert_eq!(err_kind(&r), "bad-json");
    ok(&c.request("{\"op\":\"ping\"}").unwrap());
    let _ = c.request("{\"op\":\"shutdown\"}");
    drop(c);
    handle.join().unwrap();
}

/// Regression: the dialect peek ran before the read tick was set, so a
/// client that connected and sent nothing blocked its connection thread
/// in `peek` forever, deaf to the shutdown flag: `shutdown` was
/// acknowledged and `serve()` then hung joining that thread until the
/// silent client went away. A silent connection now ticks like any quiet
/// one, and `serve()` returns within a few 200 ms ticks.
#[test]
fn silent_connection_does_not_pin_shutdown() {
    let (addr, handle) = spawn_server();
    let silent = std::net::TcpStream::connect(&addr).unwrap();
    let mut admin = Client::connect(&addr).unwrap();
    ok(&admin.request("{\"op\":\"shutdown\"}").unwrap());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(handle.join().is_ok()));
    assert_eq!(
        done_rx.recv_timeout(std::time::Duration::from_secs(3)),
        Ok(true),
        "serve() drains past a connection that never sent a byte"
    );
    drop(silent);
}

/// The same defect's other face: `--idle-timeout` never fired for a
/// connection that had not yet sent a byte. The server now closes it
/// (EOF on our side, bounded by our own 3 s read timeout).
#[test]
fn silent_connection_is_reaped_when_idle() {
    use std::io::Read;
    let server = Server::bind(&ServerOptions {
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout_ms: 400,
        ..ServerOptions::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.serve());
    let mut silent = std::net::TcpStream::connect(&addr).unwrap();
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(3)))
        .unwrap();
    assert!(
        matches!(silent.read(&mut [0u8; 1]), Ok(0)),
        "a connection that never sent a byte is reaped with a clean close"
    );
    let mut admin = Client::connect(&addr).unwrap();
    let _ = admin.request("{\"op\":\"shutdown\"}");
    drop(admin);
    handle.join().unwrap();
}

/// A frame costs what its work costs: 200 `ping`s on one loopback
/// connection, median under 5 ms. Linux's delayed ACK holds a response
/// whose prefix went out alone for 40 ms, so the bound is an order of
/// magnitude under the defect and two over the fix (tens of
/// microseconds) — it cannot flake and cannot pass with the defect.
#[test]
fn ping_round_trips_are_not_held_by_delayed_ack() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr).unwrap();
    let mut rtt_us: Vec<u128> = (0..200)
        .map(|_| {
            let t0 = std::time::Instant::now();
            ok(&c.request("{\"op\":\"ping\"}").unwrap());
            t0.elapsed().as_micros()
        })
        .collect();
    rtt_us.sort_unstable();
    let median = rtt_us[rtt_us.len() / 2];
    assert!(median < 5_000, "median ping round trip {median} µs");
    let _ = c.request("{\"op\":\"shutdown\"}");
    drop(c);
    handle.join().unwrap();
}

/// `curl http://host:port/metrics`: a raw `GET` on the frame port gets
/// one `200` response whose `Content-Length` is the body's byte length,
/// and the body is the metrics document with the pool's lines.
#[test]
fn http_get_metrics_serves_the_plaintext_document() {
    use std::io::Read;
    let (addr, handle) = spawn_server();
    let mut admin = Client::connect(&addr).unwrap();
    upload_and_tenant(&mut admin);
    ok(&admin
        .request("{\"op\":\"open\",\"tenant\":\"t\",\"program\":\"poly\",\"session\":\"s\"}")
        .unwrap());
    let mut http = std::net::TcpStream::connect(&addr).unwrap();
    http.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    http.read_to_end(&mut response).unwrap();
    let response = String::from_utf8(response).expect("a UTF-8 response");
    let (head, body) = response.split_once("\r\n\r\n").expect("a head and a body");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("a Content-Length header")
        .parse()
        .expect("a decimal length");
    assert_eq!(length, body.len());
    assert!(body.contains("\ndynccd_pool_workers 2\n"), "{body}");
    assert!(body.contains("\ndynccd_sessions_open 1\n"), "{body}");
    let _ = admin.request("{\"op\":\"shutdown\"}");
    drop(admin);
    handle.join().unwrap();
}
