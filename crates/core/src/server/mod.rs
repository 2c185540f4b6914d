//! `dynccd`: a multi-tenant compile-and-execute server.
//!
//! The paper's economics — compile once, stitch per request — only pay
//! off at scale when many clients share one compiled artifact. This
//! module is the serving layer for that: a long-running process that
//! accepts programs and key streams over a zero-dependency,
//! length-prefixed JSON wire protocol ([`proto`]), multiplexes thousands
//! of concurrent [`crate::Session`]s over a few connection threads and
//! a bounded number of execution slots ([`pool`]) sharing one
//! `Arc<Program>` per uploaded artifact, and enforces per-tenant
//! isolation with the recovery primitives ([`state`]): per-session
//! stitched-code byte budgets, per-tenant shared-cache byte budgets,
//! and per-tenant session quotas. Per-tenant counters and latency
//! histograms, and the [`crate::Session::health`] and region-profile
//! counters of each tenant's busiest sessions, are exported as a
//! plaintext metrics document ([`ServerEngine::metrics_text`]), also
//! reachable over plain HTTP `GET` on the same port ([`net`]).
//!
//! Everything here is `std`-only: the JSON parser, the framing, the
//! pool and the transport introduce no dependencies.
//!
//! See DESIGN.md § "dynccd server architecture" for the wire format and
//! the isolation mapping.

pub mod json;
pub mod net;
pub mod pool;
pub mod proto;
pub mod state;

/// The harnesses' checksum fold: a served session's checksum is the same
/// function of its results as a [`crate::measure::run_session`] one.
pub use crate::measure::fold_checksum;
pub use json::{escape, Json, JsonError};
pub use net::{Client, Server, ServerOptions};
pub use pool::{PoolStats, WorkPool};
pub use proto::{
    read_frame, read_frame_into, write_frame, ErrorKind, Frame, ProtoError, MAX_FRAME,
    MAX_SESSION_MEMORY,
};
pub use state::ServerEngine;
