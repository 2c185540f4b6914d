//! Workload `serve-tcp`: the server, over a real loopback socket.
//!
//! One operation is one request/response frame to a child `dynccd --listen
//! 127.0.0.1:0 --workers 2`. Set-up uploads the keyed `poly` kernel (the load
//! generator's, 8 key classes), defines 2 tenants and opens 256 resident idle
//! sessions plus 64 long-lived ones. Then two closed-loop connections run
//! concurrently (2 clients = `nproc`; the wire protocol allows one frame in
//! flight per connection, so every client is closed-loop by construction):
//!
//! * **A**: warm `call` frames round-robin over the 64 long-lived sessions;
//! * **B**: session lifecycles (`open`, 4 `call`s, `close`, the close-time
//!   checksum checked against the closed-form polynomial fold) with one
//!   framed `metrics` request every 10th lifecycle.
//!
//! It is the only workload where `server::{net, proto, json, pool, state}` do
//! the work; the engine runs about ten instructions per call. B writes the
//! session table and scrapes metrics under the global state lock while A
//! reads it, so lock striping, cheaper metrics or a transport fix each show,
//! and a fix for one at the other's expense shows too.

use crate::harness::{end_to_end, fold, out_dir, repeat_setup, vm_hwm_mib, CaseSamples, RunArgs};
use crate::metrics::{Outcome, Tally};
use crate::stats::{gmean, median, percentile, sorted, Fnv64};
use crate::trace::{write_chrome, Span, Tracer};
use dyncomp::server::{read_frame, write_frame, Client, Frame, Json, ServerEngine, WorkPool};
use dyncomp_ir::prng::SplitMix64;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The load generator's kernel: keyed on `c`, so sessions of one key class
/// share a stitched instance through their tenant's cache.
const KERNEL: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}";
const KEY_CLASSES: usize = 8;
const TENANTS: usize = 2;
const CALLS_PER_LIFECYCLE: usize = 4;
/// B sends a `metrics` frame after every this many lifecycles.
const METRICS_EVERY: u64 = 10;
/// Connections the set-up opens sessions over, in parallel.
const SETUP_CONNECTIONS: usize = 8;

/// Resident populations: (idle sessions, long-lived sessions A calls).
fn populations(smoke: bool) -> (usize, usize) {
    if smoke {
        (16, 8)
    } else {
        (256, 64)
    }
}

/// Host reference: the polynomial in closed form, wrapping like the VM.
fn poly(c: u64, x: u64) -> u64 {
    c.wrapping_mul(x)
        .wrapping_mul(x)
        .wrapping_add(c.wrapping_mul(x))
        .wrapping_add(c)
}

fn class_constant(class: usize) -> u64 {
    3 + class as u64
}

/// The child server. Dropping it kills the process if `shutdown` did not
/// already end it, so no path leaves a server behind.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dynccd = exe.with_file_name("dynccd");
        let mut child = Command::new(&dynccd)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dynccd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        // "dynccd listening on 127.0.0.1:PORT (2 workers)"
        let addr = banner
            .strip_prefix("dynccd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("unexpected dynccd banner: {banner:?}"))
            }
        }
    }

    /// Ask the server to stop and wait until the process has ended.
    fn shutdown(mut self) -> bool {
        let asked = Client::connect(&self.addr)
            .ok()
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}").ok())
            .is_some();
        // Drain the farewell line so the child never blocks on its pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_line(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return asked && status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false // Drop kills it
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One frame out, one frame back, parsed. `None` on any transport or JSON
/// failure (a failed operation).
fn request(client: &mut Client, body: &str) -> Option<Json> {
    let response = client.request(body).ok()?;
    Json::parse(&response).ok()
}

fn is_ok(j: &Json) -> bool {
    j.get("ok").and_then(Json::as_bool) == Some(true)
}

fn call_body(session: &str, c: u64, x: u64) -> String {
    format!("{{\"op\":\"call\",\"session\":\"{session}\",\"func\":\"poly\",\"args\":[{c},{x}]}}")
}

fn call_ok(j: &Json, c: u64, x: u64) -> bool {
    is_ok(j) && j.get("result").and_then(Json::as_int) == Some(poly(c, x) as i64)
}

fn open_body(session: &str, tenant: usize) -> String {
    format!("{{\"op\":\"open\",\"tenant\":\"t{tenant}\",\"program\":\"poly\",\"session\":\"{session}\"}}")
}

fn close_ok(j: &Json, checksum: u64) -> bool {
    is_ok(j)
        && j.get("checksum").and_then(Json::as_str) == Some(format!("{checksum:016x}").as_str())
}

fn upload_body() -> String {
    format!(
        "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
        dyncomp::server::escape(KERNEL)
    )
}

/// Small per-session VM memories, as the load generator uses: resident
/// sessions must be cheap. The quota is out of the way.
fn tenant_body(t: usize) -> String {
    format!(
        "{{\"op\":\"tenant\",\"tenant\":\"t{t}\",\"max_sessions\":1000000,\
         \"memory_bytes\":8192,\"cache_shards\":4,\"cache_capacity\":16}}"
    )
}

pub struct Ctx {
    server: Server,
    long_lived: usize,
    seed: u64,
    tally: Tally,
}

fn setup(seed: u64, smoke: bool) -> Result<Ctx, String> {
    let server = Server::spawn()?;
    let (resident, long_lived) = populations(smoke);
    let mut main = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut tally = Tally::default();
    tally.record(request(&mut main, &upload_body()).is_some_and(|j| is_ok(&j)));
    for t in 0..TENANTS {
        tally.record(request(&mut main, &tenant_body(t)).is_some_and(|j| is_ok(&j)));
    }
    // Opens and the warm-up call of each long-lived session, spread over a
    // few connections as a client with many sessions to open would.
    let addr = &server.addr;
    let lanes: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SETUP_CONNECTIONS)
            .map(|lane| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let Ok(mut c) = Client::connect(addr) else {
                        return Tally::LOST;
                    };
                    for i in (lane..resident).step_by(SETUP_CONNECTIONS) {
                        let body = open_body(&format!("r{i}"), i % TENANTS);
                        tally.record(request(&mut c, &body).is_some_and(|j| is_ok(&j)));
                    }
                    for i in (lane..long_lived).step_by(SETUP_CONNECTIONS) {
                        let name = format!("a{i}");
                        let body = open_body(&name, i % TENANTS);
                        tally.record(request(&mut c, &body).is_some_and(|j| is_ok(&j)));
                        let (k, x) = (class_constant(i % KEY_CLASSES), 10);
                        tally.record(
                            request(&mut c, &call_body(&name, k, x))
                                .is_some_and(|j| call_ok(&j, k, x)),
                        );
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Tally::LOST))
            .collect()
    });
    for lane in lanes {
        tally.absorb(lane);
    }
    Ok(Ctx {
        server,
        long_lived,
        seed,
        tally,
    })
}

/// What one connection's closed loop produced.
#[derive(Default)]
struct LoopResult {
    /// Round-trip time of every frame, in microseconds.
    rtt_us: Vec<f64>,
    /// Whole units completed: calls for A, lifecycles for B.
    units: u64,
    wall_s: f64,
    tally: Tally,
    spans: Vec<Span>,
}

impl LoopResult {
    /// A loop whose connection was lost before its first frame.
    fn lost() -> LoopResult {
        LoopResult {
            tally: Tally::LOST,
            ..LoopResult::default()
        }
    }
}

/// How a loop sends one frame: plainly through the reference client, or with
/// a span around each protocol call.
struct Wire<'a> {
    client: Client,
    tracer: Option<&'a mut Tracer>,
}

impl Wire<'_> {
    /// One frame out, the response body back; records the round-trip time.
    fn raw(&mut self, body: &str, rtt_us: &mut Vec<f64>) -> Option<String> {
        let t0 = Instant::now();
        let Some(tr) = self.tracer.as_deref_mut() else {
            let response = self.client.request(body).ok();
            rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
            return response;
        };
        tr.next_op(None);
        let root = tr.begin("net.request");
        let sent = tr.time("proto.write_frame", || {
            write_frame(self.client.stream(), body.as_bytes()).is_ok()
        });
        let response = tr.time("net.wait_read_frame", || {
            match read_frame(self.client.stream()) {
                Ok(Frame::Body(b)) if sent => String::from_utf8(b).ok(),
                _ => None,
            }
        });
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.end(root);
        response
    }

    /// [`Wire::raw`], parsed. For the small responses only: see
    /// [`metrics_ok`].
    fn frame(&mut self, body: &str, rtt_us: &mut Vec<f64>) -> Option<Json> {
        Json::parse(&self.raw(body, rtt_us)?).ok()
    }
}

/// Whether a `metrics` response is well-formed, judged on the raw text:
/// `Json::parse` re-validates the rest of the input at every character of a
/// string, so parsing a response of this size would cost the client far more
/// than the server spent producing it.
fn metrics_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true,\"metrics\":\"")
        && response.ends_with("\"}")
        && response.contains("dynccd_sessions_open")
}

/// Connection A: warm calls round-robin over the long-lived sessions.
fn loop_a(mut wire: Wire<'_>, long_lived: usize, seed: u64, window: Duration) -> LoopResult {
    let mut r = LoopResult::default();
    let mut rng = SplitMix64::new(seed);
    let start = Instant::now();
    for n in 0.. {
        let i = n % long_lived;
        let (c, x) = (class_constant(i % KEY_CLASSES), rng.below(1000));
        let ok = wire
            .frame(&call_body(&format!("a{i}"), c, x), &mut r.rtt_us)
            .is_some_and(|j| call_ok(&j, c, x));
        r.units += 1;
        r.tally.record(ok);
        if start.elapsed() >= window {
            break;
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Connection B: session lifecycles, with a metrics scrape every
/// [`METRICS_EVERY`]th. `first` numbers the sessions so that two passes over
/// one server never reuse a name.
fn loop_b(mut wire: Wire<'_>, first: u64, seed: u64, window: Duration) -> LoopResult {
    let mut r = LoopResult::default();
    let mut rng = SplitMix64::new(seed);
    let start = Instant::now();
    for n in first.. {
        let name = format!("b{n}");
        let c = class_constant(n as usize % KEY_CLASSES);
        let opened = wire
            .frame(&open_body(&name, n as usize % TENANTS), &mut r.rtt_us)
            .is_some_and(|j| is_ok(&j));
        r.tally.record(opened);
        let mut checksum = 0u64;
        for _ in 0..CALLS_PER_LIFECYCLE {
            let x = rng.below(1000);
            let ok = wire
                .frame(&call_body(&name, c, x), &mut r.rtt_us)
                .is_some_and(|j| call_ok(&j, c, x));
            checksum = fold(checksum, poly(c, x));
            r.tally.record(ok);
        }
        let closed = wire
            .frame(
                &format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"),
                &mut r.rtt_us,
            )
            .is_some_and(|j| close_ok(&j, checksum));
        r.tally.record(closed);
        r.units += 1;
        if r.units % METRICS_EVERY == 0 {
            let scraped = wire
                .raw("{\"op\":\"metrics\"}", &mut r.rtt_us)
                .is_some_and(|m| metrics_ok(&m));
            r.tally.record(scraped);
        }
        if start.elapsed() >= window {
            break;
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Run A and B concurrently for `seconds`. `pass` separates the session
/// names and call arguments of successive passes over one server.
fn two_connections(
    ctx: &Ctx,
    seconds: f64,
    pass: u64,
    trace: Option<Instant>,
) -> (LoopResult, LoopResult) {
    let window = Duration::from_secs_f64(seconds);
    let addr = &ctx.server.addr;
    let connect = || Client::connect(addr);
    let (Ok(a), Ok(b)) = (connect(), connect()) else {
        return (LoopResult::lost(), LoopResult::lost());
    };
    let seeds = SplitMix64::new(ctx.seed ^ pass).next_u64();
    std::thread::scope(|scope| {
        let b_thread = scope.spawn(move || {
            let mut tracer = trace.map(Tracer::new);
            let mut r = loop_b(
                Wire {
                    client: b,
                    tracer: tracer.as_mut(),
                },
                pass << 32,
                seeds ^ 0xb,
                window,
            );
            r.spans = tracer.map(|t| t.spans).unwrap_or_default();
            r
        });
        let mut tracer = trace.map(Tracer::new);
        let mut ra = loop_a(
            Wire {
                client: a,
                tracer: tracer.as_mut(),
            },
            ctx.long_lived,
            seeds ^ 0xa,
            window,
        );
        ra.spans = tracer.map(|t| t.spans).unwrap_or_default();
        let rb = b_thread.join().unwrap_or_else(|_| LoopResult::lost());
        (ra, rb)
    })
}

fn samples_of(a: &LoopResult, b: &LoopResult) -> CaseSamples {
    let mut s = CaseSamples::new(vec!["a.call".to_string(), "b.frame".to_string()]);
    s.us[0] = a.rtt_us.clone();
    s.us[1] = b.rtt_us.clone();
    s
}

fn fingerprint(seed: u64) -> u64 {
    let mut fnv = Fnv64::default();
    fnv.str(KERNEL);
    fnv.u64(seed); // the call arguments are drawn from it, frame by frame
    fnv.finish()
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome {
        inputs_fnv: fingerprint(args.seed),
        ..Outcome::default()
    };
    // Each repetition starts and fills its own server, after the previous
    // one was dropped (and so stopped).
    let (mut contexts, setup_s) =
        repeat_setup(args.setup_repeats(), false, || setup(args.seed, args.smoke));
    let mut ctx = match contexts.pop().expect("at least one set-up ran") {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("serve-tcp: set-up failed: {e}");
            out.tally = Tally::LOST;
            return out;
        }
    };
    if !args.trace {
        let (a, b) = two_connections(&ctx, args.seconds, 1, None);
        let frames = a.rtt_us.len() as f64 / a.wall_s + b.rtt_us.len() as f64 / b.wall_s;
        let rss = vm_hwm_mib(Some(ctx.server.child.id()));
        end_to_end(&mut out, setup_s, frames, &samples_of(&a, &b), rss);
        ctx.tally.absorb(a.tally);
        ctx.tally.absorb(b.tally);
    } else {
        traced(&mut ctx, args, &mut out);
    }
    out.tally = ctx.tally;
    out.tally.record(ctx.server.shutdown());
    out
}

/// The serve-tcp sub-aggregates: (calls/s on A, RTT p50 and p99 on A in
/// microseconds, lifecycles/s on B).
fn serve_rows(a: &LoopResult, b: &LoopResult) -> (f64, f64, f64, f64) {
    let rtt = sorted(a.rtt_us.clone());
    let (p50, p99) = if rtt.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&rtt, 0.50), percentile(&rtt, 0.99))
    };
    (
        a.units as f64 / a.wall_s,
        p50,
        p99,
        b.units as f64 / b.wall_s,
    )
}

/// Median nanoseconds per call of `f`, over `samples` batches of `iters`.
fn probe_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per_call)
}

/// The server's modules, each called directly: framing and JSON on
/// in-memory buffers with the workload's own bodies, the pool hand-off on an
/// empty job, and `ServerEngine::handle` on the workload's mix with
/// `resident` idle sessions in the table (the in-process pass is not
/// transport-bound, so it can afford a table of the size an operator would
/// worry about).
fn in_process(tr: &mut Tracer, resident: usize, out: &mut Outcome) -> Tally {
    let request = call_body("a17", 5, 123);
    let response = format!(
        "{{\"ok\":true,\"result\":{},\"cycles\":1234}}",
        poly(5, 123)
    );
    let mut framed = Vec::new();
    let _ = write_frame(&mut framed, request.as_bytes());
    let mut sink = Vec::with_capacity(256);
    out.set(
        "proto.write_frame_ns",
        probe_ns(21, 2000, || {
            sink.clear();
            let _ = write_frame(&mut sink, std::hint::black_box(response.as_bytes()));
        }),
    );
    out.set(
        "proto.read_frame_ns",
        probe_ns(21, 2000, || {
            let mut r = std::hint::black_box(&framed[..]);
            let _ = std::hint::black_box(read_frame(&mut r));
        }),
    );
    out.set(
        "json.parse_ns",
        probe_ns(21, 2000, || {
            let _ = std::hint::black_box(Json::parse(std::hint::black_box(&request)));
        }),
    );
    let pool = WorkPool::new(2);
    out.set("pool.run_handoff_ns", probe_ns(21, 200, || pool.run(|| ())));
    pool.shutdown();

    let engine = ServerEngine::new();
    let mut tally = Tally::default();
    let mut raw =
        |tr: &mut Tracer, span: &'static str, body: &str, check: &dyn Fn(&str) -> bool| {
            let (response, ns) = tr.timed(span, || engine.handle(body.as_bytes()));
            tally.record(check(&response));
            (ns, response.len())
        };
    let mut handle =
        |tr: &mut Tracer, span: &'static str, body: &str, check: &dyn Fn(&Json) -> bool| {
            raw(tr, span, body, &|r| Json::parse(r).is_ok_and(|j| check(&j)))
        };
    tr.next_op(None);
    handle(tr, "state.handle.upload", &upload_body(), &is_ok);
    for t in 0..TENANTS {
        handle(tr, "state.handle.tenant", &tenant_body(t), &is_ok);
    }
    for i in 0..resident {
        handle(
            tr,
            "state.handle.open",
            &open_body(&format!("r{i}"), i % TENANTS),
            &is_ok,
        );
    }
    let (mut opens, mut calls, mut closes) = (Vec::new(), Vec::new(), Vec::new());
    for n in 0..300u64 {
        tr.next_op(None);
        let name = format!("b{n}");
        let c = class_constant(n as usize % KEY_CLASSES);
        opens.push(
            handle(
                tr,
                "state.handle.open",
                &open_body(&name, n as usize % TENANTS),
                &is_ok,
            )
            .0,
        );
        let mut checksum = 0u64;
        for x in 0..CALLS_PER_LIFECYCLE as u64 {
            let x = 10 + x + n;
            // The first call of a key class stitches; the workload's calls
            // are warm, so keep only calls of classes already seen.
            let ns = handle(tr, "state.handle.call", &call_body(&name, c, x), &|j| {
                call_ok(j, c, x)
            })
            .0;
            if n as usize >= KEY_CLASSES * TENANTS {
                calls.push(ns);
            }
            checksum = fold(checksum, poly(c, x));
        }
        closes.push(
            handle(
                tr,
                "state.handle.close",
                &format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"),
                &|j| close_ok(j, checksum),
            )
            .0,
        );
    }
    out.set("state.handle_open_ns", median(&opens));
    out.set("state.handle_call_ns", median(&calls));
    out.set("state.handle_close_ns", median(&closes));
    let mut scrapes = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        tr.next_op(None);
        let (ns, len) = raw(
            tr,
            "state.handle.metrics",
            "{\"op\":\"metrics\"}",
            &metrics_ok,
        );
        scrapes.push(ns);
        bytes = len;
    }
    out.set("state.handle_metrics_ns_20k", median(&scrapes));
    out.set("state.metrics_bytes_20k", bytes as f64);
    tally
}

fn traced(ctx: &mut Ctx, args: &RunArgs, out: &mut Outcome) {
    // The socket, untraced then traced. The two passes cannot alternate
    // frame by frame without the spans' cost leaking into the untraced
    // round-trip times, so they run back to back.
    let (a, b) = two_connections(ctx, args.seconds / 2.0, 1, None);
    let epoch = Instant::now();
    let (ta, tb) = two_connections(ctx, args.seconds / 4.0, 2, Some(epoch));
    for l in [&a, &b, &ta, &tb] {
        ctx.tally.absorb(l.tally);
    }

    let (calls, p50, p99, lifecycles) = serve_rows(&a, &b);
    out.set("serve_calls_per_s", calls);
    out.set("serve_rtt_us_p50", p50);
    out.set("serve_rtt_us_p99", p99);
    out.set("serve_sessions_per_s", lifecycles);
    out.derive("serve_rtt_samples", a.rtt_us.len() as f64, "count");
    let untraced = samples_of(&a, &b);
    let with_spans = samples_of(&ta, &tb);
    if untraced.complete() && with_spans.complete() {
        out.set(
            "trace_overhead_pct.serve-tcp",
            (gmean(&with_spans.medians()) / gmean(&untraced.medians()) - 1.0) * 100.0,
        );
    }

    // Ping frames: the round trip with nothing behind it but framing, the
    // pool hand-off and a constant response.
    let mut pings = Vec::new();
    if let Ok(mut c) = Client::connect(&ctx.server.addr) {
        for _ in 0..if args.smoke { 5 } else { 20 } {
            let t0 = Instant::now();
            let ok = request(&mut c, "{\"op\":\"ping\"}").is_some_and(|j| is_ok(&j));
            pings.push(t0.elapsed().as_secs_f64() * 1e6);
            ctx.tally.record(ok);
        }
    }
    out.set("net.ping_rtt_us", median(&pings));

    let mut tr = Tracer::new(epoch);
    let resident = if args.smoke { 500 } else { 20_000 };
    ctx.tally.absorb(in_process(&mut tr, resident, out));
    let in_server: f64 = [
        "state.handle_call_ns",
        "pool.run_handoff_ns",
        "proto.read_frame_ns",
        "proto.write_frame_ns",
    ]
    .iter()
    .map(|m| out.values.get(*m).copied().unwrap_or(0.0))
    .sum();
    if p50 > 0.0 {
        out.set("net.transport_share", 1.0 - in_server / (p50 * 1e3));
    }
    if let Err(e) = write_chrome(
        &out_dir().join("trace-serve-tcp.json"),
        &[&ta.spans, &tb.spans, &tr.spans],
    ) {
        eprintln!("serve-tcp: cannot write the trace file: {e}");
    }
}
