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

use super::json::escape;
use std::fmt;
use std::io::{Read, Write};

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

/// What reading one frame produced.
#[derive(Debug)]
pub enum Frame {
    /// A complete frame body.
    Body(Vec<u8>),
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

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame from `r`.
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
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut stalls = 0u32;
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(Frame::Eof),
            Ok(0) => {
                return Err(ProtoError::new(
                    ErrorKind::BadRequest,
                    "stream truncated inside a length prefix",
                ))
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got == 0 => return Ok(Frame::Idle),
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls >= MID_FRAME_STALL_CAP {
                    return Err(ProtoError::new(
                        ErrorKind::BadRequest,
                        "stream stalled inside a length prefix",
                    ));
                }
            }
            Err(e) => return Err(ProtoError::new(ErrorKind::BadRequest, format!("read: {e}"))),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::new(
            ErrorKind::FrameTooLarge,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    let mut body = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut body[at..]) {
            Ok(0) => {
                return Err(ProtoError::new(
                    ErrorKind::BadRequest,
                    "stream truncated inside a frame body",
                ))
            }
            Ok(n) => {
                at += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls >= MID_FRAME_STALL_CAP {
                    return Err(ProtoError::new(
                        ErrorKind::BadRequest,
                        "stream stalled inside a frame body",
                    ));
                }
            }
            Err(e) => return Err(ProtoError::new(ErrorKind::BadRequest, format!("read: {e}"))),
        }
    }
    Ok(Frame::Body(body))
}

/// Write one frame to `w`.
///
/// # Errors
/// I/O failures, surfaced as [`ErrorKind::BadRequest`] (the connection
/// is gone either way).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ProtoError> {
    debug_assert!(body.len() <= MAX_FRAME);
    let prefix = (body.len() as u32).to_be_bytes();
    w.write_all(&prefix)
        .and_then(|()| w.write_all(body))
        .and_then(|()| w.flush())
        .map_err(|e| ProtoError::new(ErrorKind::BadRequest, format!("write: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
