//! Wire protocol: length-prefixed JSON frames and typed protocol errors.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian length prefix followed by exactly that many bytes of UTF-8
//! JSON. The prefix is bounded by [`MAX_FRAME`], so a hostile or corrupt
//! prefix (`0xFFFF_FFFF`) is rejected before any allocation. Requests are
//! objects with an `"op"` field; responses always carry `"ok"` and, on
//! failure, `"error"` (a stable kind from [`ErrorKind::name`]) plus a
//! human-readable `"message"`. Errors are *per frame, per connection*:
//! a malformed frame fails that request (or drops that connection) and
//! can never poison another tenant's session.

use super::json::{escape, Json};
use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Maximum frame body, in bytes (4 MiB — comfortably above any program
/// source this compiler accepts, far below a memory-exhaustion vector).
pub const MAX_FRAME: usize = 4 << 20;

/// Largest per-session data memory a `tenant` frame may ask for (1 GiB).
/// A session's memory is allocated when it opens, and a failed
/// allocation aborts the process — which `catch_unwind` cannot contain —
/// so the bound is enforced where the number arrives.
pub const MAX_SESSION_MEMORY: usize = 1 << 30;

/// Most lock stripes a `tenant` frame may ask of its shared code cache.
/// Every stripe is allocated when the tenant is declared, so an
/// unbounded count is the same process abort as an unbounded
/// [`MAX_SESSION_MEMORY`].
pub const MAX_CACHE_SHARDS: usize = 1 << 10;

/// Most instances per stripe a `tenant` frame may ask its shared code
/// cache to keep.
pub const MAX_CACHE_CAPACITY: usize = 1 << 20;

/// The bound of a wire integer whose own type has none: every
/// non-negative JSON integer.
const ANY: u64 = i64::MAX as u64;

/// The JSON kind of a [`WireField`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An integer, refused with a typed `bad-request` outside `0..=bound`.
    Int,
    /// `true` or `false`, read as 1 or 0.
    Bool,
}

/// Why a [`WireField`] has the bound it has: what the number does once
/// it is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Sizes an allocation made when the tenant or session is created; an
    /// allocation that fails aborts the process.
    Allocation,
    /// Bounds a loop the server runs for the request.
    Loop,
    /// Selects a mode.
    Mode,
    /// Counts against a quota or budget.
    Count,
}

/// One option key of a request frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireField {
    /// The frame's `op`.
    pub op: &'static str,
    /// The JSON key.
    pub key: &'static str,
    /// Its JSON kind.
    pub kind: Kind,
    /// The largest value accepted (1 for a boolean).
    pub bound: u64,
    /// What the value does.
    pub role: Role,
}

/// Every option key of the `tenant` and `upload` frames, in the order
/// [`decode`] reads them. DESIGN.md § "Options in use" names the option
/// each one sets.
#[rustfmt::skip]
pub const WIRE_FIELDS: [WireField; 12] = {
    use {Kind::*, Role::*};
    const fn row(op: &'static str, key: &'static str, kind: Kind, bound: u64, role: Role) -> WireField {
        WireField { op, key, kind, bound, role }
    }
    [
        row("tenant", "max_sessions",      Int,  ANY,                       Count),
        row("tenant", "memory_bytes",      Int,  MAX_SESSION_MEMORY as u64, Allocation),
        row("tenant", "code_budget_bytes", Int,  ANY,                       Count),
        row("tenant", "cache_bytes",       Int,  ANY,                       Count),
        row("tenant", "cache_shards",      Int,  MAX_CACHE_SHARDS as u64,   Allocation),
        row("tenant", "cache_capacity",    Int,  MAX_CACHE_CAPACITY as u64, Allocation),
        row("tenant", "quarantine_after",  Int,  u32::MAX as u64,           Count),
        row("tenant", "native",            Bool, 1,                         Mode),
        row("tenant", "trace",             Bool, 1,                         Mode),
        row("tenant", "persist",           Bool, 1,                         Mode),
        // Rounds of the inliner's search, each over the whole unit.
        row("upload", "inline",            Int,  8,                         Loop),
        row("upload", "tiered",            Bool, 1,                         Mode),
    ]
};

/// Read each of `op`'s [`WIRE_FIELDS`] that `req` carries, in table
/// order, and hand its key and value to `set`. A key that is absent, or
/// whose value is of another JSON kind, is skipped: its default stands.
///
/// # Errors
/// [`ErrorKind::BadRequest`] for the first integer outside its row's
/// `0..=bound`.
pub fn decode(req: &Json, op: &str, mut set: impl FnMut(&str, u64)) -> Result<(), ProtoError> {
    for f in WIRE_FIELDS.iter().filter(|f| f.op == op) {
        let value = req.get(f.key);
        let Some(v) = (match f.kind {
            Kind::Bool => value.and_then(Json::as_bool).map(i64::from),
            Kind::Int => value.and_then(Json::as_int),
        }) else {
            continue;
        };
        let why = match u64::try_from(v) {
            Ok(n) if n <= f.bound => {
                set(f.key, n);
                continue;
            }
            // A row bounded by its `u32` field names the type, not a number.
            _ if f.bound == u64::from(u32::MAX) => "must fit an unsigned 32-bit count".into(),
            Ok(_) => format!("exceeds the bound of {}", f.bound),
            Err(_) => "must be non-negative".into(),
        };
        let msg = format!("field `{}` {why}", f.key);
        return Err(ProtoError::new(ErrorKind::BadRequest, msg));
    }
    Ok(())
}

/// Longest tenant name, in bytes (see [`check_tenant_name`]).
pub const MAX_TENANT_NAME: usize = 64;

/// A tenant name must be one normal path component — it names the
/// tenant's directory under `--persist-root`: non-empty, at most
/// [`MAX_TENANT_NAME`] bytes of `[A-Za-z0-9._-]`, and neither `.` nor
/// `..`. Checked on every `tenant` frame, persisting or not.
///
/// # Errors
/// [`ErrorKind::BadRequest`] naming the rule.
pub fn check_tenant_name(name: &str) -> Result<(), ProtoError> {
    let normal = !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
    if normal {
        return Ok(());
    }
    Err(ProtoError::new(
        ErrorKind::BadRequest,
        format!("tenant names are 1..={MAX_TENANT_NAME} bytes of [A-Za-z0-9._-], not `.` or `..`"),
    ))
}

/// Stable error kinds carried in the `"error"` field of a failure
/// response. Clients and tests match on [`ErrorKind::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge,
    /// Frame body is not valid UTF-8 JSON.
    BadJson,
    /// JSON is well-formed but the request shape is wrong (missing or
    /// mistyped field).
    BadRequest,
    /// Unrecognized `"op"`.
    UnknownOp,
    /// `"program"` names nothing uploaded.
    NoSuchProgram,
    /// `"session"` names no open session.
    NoSuchSession,
    /// `"tenant"` names no defined tenant.
    NoSuchTenant,
    /// The session is executing another call (one in flight per session).
    SessionBusy,
    /// The session was poisoned by an earlier panic and closed.
    SessionDead,
    /// A per-tenant quota (session count) was exceeded.
    TenantQuota,
    /// Compilation of an uploaded program failed.
    CompileError,
    /// The call returned a typed engine error (VM fault, unknown
    /// function, …). The session stays usable.
    RunError,
    /// The call panicked; the panic was contained and the session is dead.
    RunPanic,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::FrameTooLarge => "frame-too-large",
            ErrorKind::BadJson => "bad-json",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownOp => "unknown-op",
            ErrorKind::NoSuchProgram => "no-such-program",
            ErrorKind::NoSuchSession => "no-such-session",
            ErrorKind::NoSuchTenant => "no-such-tenant",
            ErrorKind::SessionBusy => "session-busy",
            ErrorKind::SessionDead => "session-dead",
            ErrorKind::TenantQuota => "tenant-quota",
            ErrorKind::CompileError => "compile-error",
            ErrorKind::RunError => "run-error",
            ErrorKind::RunPanic => "run-panic",
        }
    }
}

/// A protocol-level failure: a typed kind plus diagnostic text.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// The stable kind.
    pub kind: ErrorKind,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ProtoError {
    /// Build an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }

    /// Render as a failure-response JSON body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":{},\"message\":{}}}",
            escape(self.kind.name()),
            escape(&self.message)
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

/// What reading one frame produced. `B` is where the body lives: an
/// owned `Vec<u8>` from [`read_frame`], a borrow of the connection's
/// buffer from [`read_frame_into`].
#[derive(Debug)]
pub enum Frame<B = Vec<u8>> {
    /// A complete frame body.
    Body(B),
    /// Clean end of stream at a frame boundary.
    Eof,
    /// A read timeout fired *between* frames (the stream has a read
    /// timeout configured and no prefix byte has arrived). The caller
    /// decides: accumulate toward an idle-connection timeout, poll the
    /// shutdown flag for a graceful drain, or just read again.
    Idle,
}

/// Consecutive read timeouts tolerated *inside* a frame before the
/// connection is declared stalled. Only reachable on streams with a read
/// timeout configured; at the server's 200 ms tick this is a 30 s cap on
/// a client that sent a prefix and then stopped — such a half-frame must
/// not pin a connection thread forever through a graceful drain.
const MID_FRAME_STALL_CAP: u32 = 150;

/// Most capacity a connection's request buffer keeps between frames. A
/// larger frame's buffer is freed before the next read, so one
/// [`MAX_FRAME`] upload does not pin 4 MiB for as long as its connection
/// lives.
const KEPT_FRAME_BUFFER: usize = 64 << 10;

pub(super) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Fill `buf` from `r`. `part` names what is being read, for the error
/// text. At a frame `boundary` (no byte of this frame read yet) end of
/// stream and a read timeout are the quiet outcomes [`Frame::Eof`] and
/// [`Frame::Idle`]; anywhere later they are truncation and, after
/// [`MID_FRAME_STALL_CAP`] consecutive ticks, a stall.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    part: &str,
    boundary: bool,
) -> Result<Frame<()>, ProtoError> {
    let mut stalls = 0u32;
    let mut at = 0;
    while at < buf.len() {
        let quiet = boundary && at == 0;
        match r.read(&mut buf[at..]) {
            Ok(0) if quiet => return Ok(Frame::Eof),
            Ok(0) => {
                return Err(ProtoError::new(
                    ErrorKind::BadRequest,
                    format!("stream truncated inside {part}"),
                ))
            }
            Ok(n) => {
                at += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && quiet => return Ok(Frame::Idle),
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls >= MID_FRAME_STALL_CAP {
                    return Err(ProtoError::new(
                        ErrorKind::BadRequest,
                        format!("stream stalled inside {part}"),
                    ));
                }
            }
            Err(e) => return Err(ProtoError::new(ErrorKind::BadRequest, format!("read: {e}"))),
        }
    }
    Ok(Frame::Body(()))
}

/// Read one frame from `r` into `buf`, a buffer the connection owns and
/// passes to every call: the body replaces `buf`'s contents, and a frame
/// allocates only when it outgrows what `buf` kept.
///
/// On a stream with a read timeout configured, a timeout before the
/// first prefix byte returns [`Frame::Idle`] (the connection is simply
/// quiet); timeouts *inside* a frame keep waiting up to
/// [`MID_FRAME_STALL_CAP`] consecutive ticks, then fail — a half-sent
/// frame is indistinguishable from a dead peer.
///
/// # Errors
/// `Err(ProtoError)` with [`ErrorKind::FrameTooLarge`] for an oversized
/// prefix, or [`ErrorKind::BadRequest`] for a stream truncated or
/// stalled mid-frame (either is fatal to the connection: framing is
/// lost).
pub fn read_frame_into<'a>(
    r: &mut impl Read,
    buf: &'a mut Vec<u8>,
) -> Result<Frame<&'a [u8]>, ProtoError> {
    if buf.capacity() > KEPT_FRAME_BUFFER {
        *buf = Vec::new();
    }
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix, "a length prefix", true)? {
        Frame::Body(()) => {}
        Frame::Eof => return Ok(Frame::Eof),
        Frame::Idle => return Ok(Frame::Idle),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::new(
            ErrorKind::FrameTooLarge,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    buf.resize(len, 0);
    fill(r, buf, "a frame body", false)?;
    Ok(Frame::Body(buf))
}

/// [`read_frame_into`] a buffer of the frame's own, for callers that
/// read one frame or keep the body.
///
/// # Errors
/// As [`read_frame_into`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut body = Vec::new();
    Ok(match read_frame_into(r, &mut body)? {
        Frame::Body(_) => Frame::Body(body),
        Frame::Eof => Frame::Eof,
        Frame::Idle => Frame::Idle,
    })
}

/// Write `head` then `tail` to `w` as one `write_vectored` over both, so
/// a socket sends them as one segment and neither is copied; a short or
/// interrupted write resumes where it stopped, so any `impl Write`
/// receives exactly `head ++ tail`.
pub(super) fn write_pair(w: &mut impl Write, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < head.len() + tail.len() {
        let head_left = &head[sent.min(head.len())..];
        let tail_left = &tail[sent.saturating_sub(head.len())..];
        match w.write_vectored(&[IoSlice::new(head_left), IoSlice::new(tail_left)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame to `w`: prefix and body in one write, because a
/// prefix sent alone waits out the peer's delayed ACK before the body
/// may follow (40 ms per frame on Linux loopback).
///
/// # Errors
/// I/O failures, surfaced as [`ErrorKind::BadRequest`] (the connection
/// is gone either way).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ProtoError> {
    debug_assert!(body.len() <= MAX_FRAME);
    let prefix = (body.len() as u32).to_be_bytes();
    write_pair(w, &prefix, body)
        .and_then(|()| w.flush())
        .map_err(|e| ProtoError::new(ErrorKind::BadRequest, format!("write: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DESIGN.md § "Options in use" tables [`WIRE_FIELDS`] row for row,
    /// and the op that reads each row handles its key (a row nothing
    /// handles would be decoded, checked and dropped).
    #[test]
    fn design_wire_table_is_the_code() {
        let design = include_str!("../../../../DESIGN.md");
        let header = "| op | key | kind | bound | role | target field |";
        let start = design.find(header).expect("DESIGN.md has the wire table");
        let table: Vec<Vec<String>> = design[start..]
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells = row.split('|').skip(1).take(5);
                cells
                    .map(|c| c.trim().trim_matches('`').to_string())
                    .collect()
            })
            .collect();
        let code: Vec<Vec<String>> = WIRE_FIELDS
            .iter()
            .map(|f| {
                let bound = match f.bound {
                    ANY => "any".to_string(),
                    n => n.to_string(),
                };
                let kind = format!("{:?}", f.kind).to_lowercase();
                let role = format!("{:?}", f.role).to_lowercase();
                vec![f.op.to_string(), f.key.to_string(), kind, bound, role]
            })
            .collect();
        assert_eq!(table, code);
        let state = include_str!("state.rs");
        let state = &state[..state.find("#[cfg(test)]").unwrap_or(state.len())];
        for f in &WIRE_FIELDS {
            let arm = format!("\"{}\" => ", f.key);
            assert!(state.contains(&arm), "the `{}` op drops `{}`", f.op, f.key);
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"op":"ping"}"#).unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r).unwrap() {
            Frame::Body(b) => assert_eq!(b, br#"{"op":"ping"}"#),
            Frame::Eof | Frame::Idle => panic!("expected body"),
        }
        match read_frame(&mut r).unwrap() {
            Frame::Body(b) => assert!(b.is_empty()),
            Frame::Eof | Frame::Idle => panic!("expected body"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Eof));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut r = &[0xFF, 0xFF, 0xFF, 0xFF, b'x'][..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind, ErrorKind::FrameTooLarge);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        // Truncated prefix.
        let mut r = &[0, 0][..];
        assert_eq!(read_frame(&mut r).unwrap_err().kind, ErrorKind::BadRequest);
        // Truncated body.
        let mut r = &[0, 0, 0, 10, b'a', b'b'][..];
        assert_eq!(read_frame(&mut r).unwrap_err().kind, ErrorKind::BadRequest);
    }

    /// A sink that records what it was given and how: `calls` counts
    /// `write` and `write_vectored` alike, a `short` sink takes 1, 2 or
    /// 3 bytes per call in turn, and a `flaky` one fails every other
    /// call with `Interrupted`.
    #[derive(Default)]
    struct Sink {
        got: Vec<u8>,
        calls: usize,
        short: bool,
        flaky: bool,
    }

    impl Sink {
        fn take(&mut self, bufs: &[&[u8]]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.flaky && self.calls % 2 == 1 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut room = if self.short {
                1 + self.calls % 3
            } else {
                usize::MAX
            };
            let mut taken = 0;
            for b in bufs {
                let n = b.len().min(room);
                self.got.extend_from_slice(&b[..n]);
                taken += n;
                room -= n;
            }
            Ok(taken)
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.take(&[buf])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let bufs: Vec<&[u8]> = bufs.iter().map(|b| &**b).collect();
            self.take(&bufs)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut v = (body.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn a_frame_is_one_write() {
        // Prefix and body in separate writes are separate TCP segments,
        // and the second waits out the peer's delayed ACK.
        let mut sink = Sink::default();
        write_frame(&mut sink, br#"{"ok":true,"pong":true}"#).unwrap();
        assert_eq!(sink.calls, 1);
        assert_eq!(sink.got, framed(br#"{"ok":true,"pong":true}"#));
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_exact_frame() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for (short, flaky) in [(true, false), (false, true), (true, true)] {
            for body in [&body[..], &body[..1], b""] {
                let mut sink = Sink {
                    short,
                    flaky,
                    ..Sink::default()
                };
                write_frame(&mut sink, body).unwrap();
                assert_eq!(sink.got, framed(body), "short={short} flaky={flaky}");
                let mut r = &sink.got[..];
                assert!(matches!(read_frame(&mut r), Ok(Frame::Body(b)) if b == body));
            }
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error_not_a_spin() {
        let mut full: &mut [u8] = &mut [0u8; 2];
        assert_eq!(
            write_frame(&mut full, b"abc").unwrap_err().kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn a_connection_buffer_is_refilled_and_gives_a_large_frame_back() {
        let big = vec![b'x'; KEPT_FRAME_BUFFER + 1];
        let mut wire = Vec::new();
        for body in [&b"first"[..], b"2nd", &big, b"", b"last"] {
            write_frame(&mut wire, body).unwrap();
        }
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Body(b)) if b == b"first"));
        let first = buf.as_ptr();
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Body(b)) if b == b"2nd"));
        assert_eq!(buf.as_ptr(), first, "a frame that fits reuses the buffer");
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Body(b)) if b == big));
        assert!(buf.capacity() > KEPT_FRAME_BUFFER);
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Body(b)) if b.is_empty()));
        assert!(
            buf.capacity() <= KEPT_FRAME_BUFFER,
            "the upload's buffer is not kept"
        );
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Body(b)) if b == b"last"));
        assert!(matches!(read_frame_into(&mut r, &mut buf), Ok(Frame::Eof)));
    }
}
