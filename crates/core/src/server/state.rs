//! The server engine: programs, tenants, sessions, and request handling.
//!
//! [`ServerEngine`] is the transport-independent heart of `dynccd`: it
//! owns every uploaded `Arc<Program>`, every tenant definition, and every
//! session slot, and turns one request body (JSON bytes) into one
//! response body. The TCP layer (`super::net`) and the in-process load
//! generator drive the *same* `handle` path, so the bench numbers measure
//! what the server actually does.
//!
//! ## Isolation model
//!
//! * **Artifacts are shared; state is not.** All sessions of one program
//!   share a single immutable `Arc<Program>`; each session owns its VM,
//!   code space and counters (the PR 2 split).
//! * **Tenants get quotas, not trust.** A tenant definition maps the
//!   PR 5 primitives onto the server: `code_budget_bytes` bounds each
//!   session's stitched code via [`RecoveryPolicy`], a per-tenant
//!   [`SharedCodeCache::with_byte_budget`] bounds the tenant's shared
//!   stitched-code pool (tenants never share cache entries — the cache
//!   is the isolation boundary), and `max_sessions` bounds slot count.
//! * **Panics poison one slot.** Every call runs under `catch_unwind`;
//!   a panic marks that session [`SlotState::Dead`] and every later
//!   request against it gets a typed `session-dead` error. The server —
//!   and every other tenant — keeps serving.
//!
//! ## Metrics
//!
//! The metrics document is bounded by tenants, not sessions: per-tenant
//! counters and service-time histograms, and the 8 sessions of each
//! tenant with the most calls. Per-session detail for any other session
//! is the `health` op's. The lock is held for one walk over the session
//! table that copies what the document reports; the text is written
//! after it is released.

use super::json::{escape, escape_into, Json};
use super::pool::PoolStats;
use super::proto::{check_tenant_name, decode, ErrorKind, ProtoError};
use crate::cache::SharedCodeCache;
use crate::engine::{EngineOptions, NativeReport, Session};
use crate::faults::HealthReport;
use crate::measure::fold_checksum;
use crate::persist::PersistentCache;
use crate::trace::{CycleHistogram, RegionProfile, TraceOptions};
use crate::{CompileOptions, Compiler, InlineOptions, Program};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Tenant {
    /// Most sessions open at once.
    max_sessions: usize,
    /// What every session of the tenant opens with, built once by the
    /// `tenant` op. It carries the tenant's private shared-code cache
    /// (sessions of one tenant reuse each other's stitched instances;
    /// tenants never cross) and, when the tenant persists, its private
    /// on-disk cache.
    options: EngineOptions,
    counters: TenantCounters,
}

/// What a tenant counts; the metrics document copies it whole.
#[derive(Clone, Copy, Default)]
struct TenantCounters {
    open_sessions: usize,
    opened_total: u64,
    calls: u64,
    call_errors: u64,
    dead_sessions: u64,
    /// Service time of this tenant's `open`, `call` and `close` ops,
    /// indexed as [`SERVICE_OPS`].
    service: [LatencyHistogram; 3],
}

/// The ops [`TenantCounters::service`] times, as the `op` label names them.
const SERVICE_OPS: [&str; 3] = ["open", "call", "close"];
const OPEN: usize = 0;
const CALL: usize = 1;
const CLOSE: usize = 2;

/// A session slot's occupancy.
enum SlotState {
    /// Session at rest, ready for a call.
    Idle(Box<Session<Arc<Program>>>),
    /// A call is executing on some worker; concurrent calls get
    /// `session-busy` instead of blocking a connection thread.
    Busy,
    /// A call panicked; the slot is poisoned (message retained).
    Dead(String),
}

struct Slot {
    tenant: String,
    state: SlotState,
    calls: u64,
    /// FNV-style fold of every successful call result (see
    /// [`fold_checksum`]).
    checksum: u64,
    /// Test hook: the next call panics inside the engine boundary.
    panic_next: bool,
}

#[derive(Default)]
struct Inner {
    programs: HashMap<String, Arc<Program>>,
    tenants: HashMap<String, Tenant>,
    sessions: HashMap<String, Slot>,
    sessions_opened: u64,
    sessions_dead: u64,
}

/// The transport-independent server core. Thread-safe: connection
/// handlers share one `Arc<ServerEngine>`.
pub struct ServerEngine {
    inner: Mutex<Inner>,
    calls_total: AtomicU64,
    call_errors_total: AtomicU64,
    protocol_errors_total: AtomicU64,
    /// `Json::parse` time of every request frame.
    decode: AtomicHistogram,
    shutdown: AtomicBool,
    /// Root directory for persistent caches (`--persist-root`). Uploads
    /// go through a server-wide artifact cache at the root itself;
    /// tenants opting into `persist` get their own subdirectory for
    /// stitched instances.
    persist_root: Option<PathBuf>,
    /// The server-wide artifact cache (`Some` iff `persist_root` is and
    /// the directory could be created).
    persist: Option<Arc<PersistentCache>>,
}

impl Default for ServerEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerEngine {
    /// An empty engine: no programs, no tenants, no sessions.
    pub fn new() -> Self {
        Self::with_persist_root(None)
    }

    /// An empty engine with an optional persistent-cache root
    /// (`--persist-root`). An unusable root (cannot create the
    /// directories) degrades to no persistence rather than refusing to
    /// serve: the on-disk cache is purely an accelerator.
    pub fn with_persist_root(persist_root: Option<PathBuf>) -> Self {
        let persist = persist_root
            .as_ref()
            .and_then(|root| PersistentCache::open(root).ok().map(Arc::new));
        ServerEngine {
            inner: Mutex::new(Inner::default()),
            calls_total: AtomicU64::new(0),
            call_errors_total: AtomicU64::new(0),
            protocol_errors_total: AtomicU64::new(0),
            decode: AtomicHistogram::default(),
            shutdown: AtomicBool::new(false),
            persist_root,
            persist,
        }
    }

    /// Whether a `shutdown` request was accepted (the accept loop polls
    /// this).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handle one request body, returning the response body. Never
    /// panics outward: engine panics are contained per session, protocol
    /// problems become typed failure responses.
    pub fn handle(&self, body: &[u8]) -> String {
        match self.dispatch(body) {
            Ok(response) => response,
            Err(e) => {
                self.protocol_errors_total.fetch_add(1, Ordering::Relaxed);
                e.to_json()
            }
        }
    }

    fn dispatch(&self, body: &[u8]) -> Result<String, ProtoError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ProtoError::new(ErrorKind::BadJson, "frame body is not UTF-8"))?;
        let started = Instant::now();
        let parsed = Json::parse(text);
        // Service time starts where decoding ends.
        let decoded = Instant::now();
        self.decode.record(decoded - started);
        let req = parsed
            .map_err(|e| ProtoError::new(ErrorKind::BadJson, format!("malformed JSON: {e}")))?;
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new(ErrorKind::BadRequest, "missing string field `op`"))?;
        match op {
            "ping" => Ok("{\"ok\":true,\"pong\":true}".to_string()),
            "upload" => self.op_upload(&req),
            "tenant" => self.op_tenant(&req),
            "open" => self.op_open(&req, decoded),
            "call" => self.op_call(&req, decoded),
            "close" => self.op_close(&req, decoded),
            "health" => self.op_health(&req),
            "metrics" => Ok(self.render_metrics(None, true)),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok("{\"ok\":true,\"shutdown\":true}".to_string())
            }
            other => Err(ProtoError::new(
                ErrorKind::UnknownOp,
                format!("unknown op `{other}`"),
            )),
        }
    }

    fn op_upload(&self, req: &Json) -> Result<String, ProtoError> {
        let name = str_field(req, "name")?;
        let src = str_field(req, "src")?;
        let mut options = CompileOptions::default();
        decode(req, "upload", |key, v| match key {
            "inline" => options.inline = InlineOptions::at_depth(v as u32),
            "tiered" => options.tiered_fallback = v == 1,
            _ => {}
        })?;
        // Compile outside the lock: uploads must not stall calls. With a
        // persist root, identical (source, options) uploads across server
        // restarts load the artifact from disk instead of recompiling.
        let compiler = Compiler::with_options(options);
        let (program, cached) = match &self.persist {
            Some(cache) => cache
                .load_or_compile(&compiler, src)
                .map_err(|e| ProtoError::new(ErrorKind::CompileError, e.to_string()))?,
            None => {
                let p = compiler
                    .compile(src)
                    .map_err(|e| ProtoError::new(ErrorKind::CompileError, e.to_string()))?;
                (p, false)
            }
        };
        let regions = program.region_count();
        let mut inner = self.lock();
        inner.programs.insert(name.to_string(), Arc::new(program));
        Ok(format!(
            "{{\"ok\":true,\"program\":{},\"regions\":{regions},\"cached\":{cached}}}",
            escape(name)
        ))
    }

    fn op_tenant(&self, req: &Json) -> Result<String, ProtoError> {
        let name = str_field(req, "tenant")?;
        check_tenant_name(name)?;
        let (mut max_sessions, mut shards, mut capacity) = (1024, 8, 64);
        let (mut cache_bytes, mut persist) = (None, false);
        // The server's session memory (64 KiB) is small on purpose: 10k
        // concurrent sessions must fit in host memory.
        let mut options = EngineOptions {
            memory_bytes: 1 << 16,
            ..EngineOptions::default()
        };
        decode(req, "tenant", |key, v| match key {
            "max_sessions" => max_sessions = usize::try_from(v).unwrap_or(usize::MAX),
            "memory_bytes" => options.memory_bytes = (v as usize).max(1 << 12),
            "code_budget_bytes" => options.recovery.code_budget_bytes = Some(v),
            "cache_bytes" => cache_bytes = Some(v),
            "cache_shards" => shards = v as usize,
            "cache_capacity" => capacity = v as usize,
            "quarantine_after" => options.recovery.quarantine_after = v as u32,
            "native" => options.native = v == 1,
            "trace" => options.trace = (v == 1).then(TraceOptions::default),
            "persist" => persist = v == 1,
            _ => {}
        })?;
        let cache = SharedCodeCache::with_byte_budget(shards, capacity, cache_bytes);
        options.shared_cache = Some(Arc::new(cache));
        // Each persisting tenant gets its own subdirectory: persisted
        // instances are part of the tenant isolation boundary, exactly
        // like the in-memory cache. An unusable directory degrades to no
        // persistence for this tenant (the cache is an accelerator).
        options.persist = self
            .persist_root
            .as_ref()
            .filter(|_| persist)
            .and_then(|root| PersistentCache::open(root.join("tenants").join(name)).ok())
            .map(Arc::new);
        let mut inner = self.lock();
        inner.tenants.insert(
            name.to_string(),
            Tenant {
                max_sessions,
                options,
                counters: TenantCounters::default(),
            },
        );
        Ok(format!("{{\"ok\":true,\"tenant\":{}}}", escape(name)))
    }

    fn op_open(&self, req: &Json, started: Instant) -> Result<String, ProtoError> {
        let tenant_name = str_field(req, "tenant")?;
        let program_name = str_field(req, "program")?;
        let session_name = str_field(req, "session")?;
        let mut inner = self.lock();
        let program = inner
            .programs
            .get(program_name)
            .cloned()
            .ok_or_else(|| no_such(ErrorKind::NoSuchProgram, "program", program_name))?;
        let tenant = inner
            .tenants
            .get(tenant_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchTenant, "tenant", tenant_name))?;
        if tenant.counters.open_sessions >= tenant.max_sessions {
            return Err(ProtoError::new(
                ErrorKind::TenantQuota,
                format!(
                    "tenant `{tenant_name}` is at its session quota ({})",
                    tenant.max_sessions
                ),
            ));
        }
        if inner.sessions.contains_key(session_name) {
            return Err(ProtoError::new(
                ErrorKind::BadRequest,
                format!("session `{session_name}` is already open"),
            ));
        }
        let session = Box::new(Session::with_options(program, tenant.options.clone()));
        let tenant = inner
            .tenants
            .get_mut(tenant_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchTenant, "tenant", tenant_name))?;
        let c = &mut tenant.counters;
        c.open_sessions += 1;
        c.opened_total += 1;
        c.service[OPEN].record(started.elapsed());
        inner.sessions_opened += 1;
        inner.sessions.insert(
            session_name.to_string(),
            Slot {
                tenant: tenant_name.to_string(),
                state: SlotState::Idle(session),
                calls: 0,
                checksum: 0,
                panic_next: false,
            },
        );
        Ok(format!(
            "{{\"ok\":true,\"session\":{}}}",
            escape(session_name)
        ))
    }

    fn op_call(&self, req: &Json, started: Instant) -> Result<String, ProtoError> {
        let session_name = str_field(req, "session")?;
        let func = str_field(req, "func")?.to_string();
        let args: Vec<u64> = match req.get("args") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ProtoError::new(ErrorKind::BadRequest, "`args` must be an array"))?
                .iter()
                .map(|a| {
                    a.as_int().map(|i| i as u64).ok_or_else(|| {
                        ProtoError::new(ErrorKind::BadRequest, "`args` must hold integers")
                    })
                })
                .collect::<Result<_, _>>()?,
        };

        // Take the session out of its slot so the engine runs without
        // the server lock held; concurrent calls see `Busy`.
        let (mut session, panic_next) = {
            let mut inner = self.lock();
            let slot = inner
                .sessions
                .get_mut(session_name)
                .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
            match std::mem::replace(&mut slot.state, SlotState::Busy) {
                SlotState::Idle(s) => (s, std::mem::take(&mut slot.panic_next)),
                SlotState::Busy => {
                    return Err(ProtoError::new(
                        ErrorKind::SessionBusy,
                        format!("session `{session_name}` has a call in flight"),
                    ));
                }
                SlotState::Dead(msg) => {
                    let err = ProtoError::new(
                        ErrorKind::SessionDead,
                        format!("session `{session_name}` died: {msg}"),
                    );
                    slot.state = SlotState::Dead(msg);
                    return Err(err);
                }
            }
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if panic_next {
                // `panic_any` with a `&str` payload: same containment
                // behaviour as the macro, but keeps the production server
                // sources clean for the CI no-panic gate.
                std::panic::panic_any("armed test panic (server containment check)");
            }
            let result = session.call(&func, &args);
            (session, result)
        }));

        self.calls_total.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock();
        let inner = &mut *guard;
        let slot = inner
            .sessions
            .get_mut(session_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
        let panicked = outcome.is_err();
        let reply = match outcome {
            Ok((session, result)) => {
                let cycles = session.cycles();
                slot.state = SlotState::Idle(session);
                slot.calls += 1;
                match result {
                    Ok(r) => {
                        slot.checksum = fold_checksum(slot.checksum, r);
                        Ok(format!(
                            "{{\"ok\":true,\"result\":{},\"cycles\":{cycles}}}",
                            r as i64
                        ))
                    }
                    Err(e) => Err(ProtoError::new(ErrorKind::RunError, e.to_string())),
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                inner.sessions_dead += 1;
                slot.state = SlotState::Dead(msg.clone());
                Err(ProtoError::new(
                    ErrorKind::RunPanic,
                    format!("call panicked (session `{session_name}` is now dead): {msg}"),
                ))
            }
        };
        if reply.is_err() {
            self.call_errors_total.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = inner.tenants.get_mut(&slot.tenant) {
            let c = &mut t.counters;
            c.calls += 1;
            c.call_errors += u64::from(reply.is_err());
            c.dead_sessions += u64::from(panicked);
            c.service[CALL].record(started.elapsed());
        }
        reply
    }

    fn op_close(&self, req: &Json, started: Instant) -> Result<String, ProtoError> {
        let session_name = str_field(req, "session")?;
        let mut inner = self.lock();
        let slot = inner
            .sessions
            .get(session_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
        if matches!(slot.state, SlotState::Busy) {
            return Err(ProtoError::new(
                ErrorKind::SessionBusy,
                format!("session `{session_name}` has a call in flight"),
            ));
        }
        let slot = match inner.sessions.remove(session_name) {
            Some(s) => s,
            None => return Err(no_such(ErrorKind::NoSuchSession, "session", session_name)),
        };
        if let Some(t) = inner.tenants.get_mut(&slot.tenant) {
            let c = &mut t.counters;
            c.open_sessions = c.open_sessions.saturating_sub(1);
            c.service[CLOSE].record(started.elapsed());
        }
        let cycles = match &slot.state {
            SlotState::Idle(s) => s.cycles(),
            _ => 0,
        };
        Ok(format!(
            "{{\"ok\":true,\"session\":{},\"calls\":{},\"checksum\":\"{:016x}\",\"cycles\":{cycles}}}",
            escape(session_name),
            slot.calls,
            slot.checksum
        ))
    }

    fn op_health(&self, req: &Json) -> Result<String, ProtoError> {
        let session_name = str_field(req, "session")?;
        let inner = self.lock();
        let slot = inner
            .sessions
            .get(session_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
        match &slot.state {
            SlotState::Idle(s) => {
                let h = s.health();
                let n = s.native_report();
                let failures: Vec<String> = h
                    .failures
                    .iter()
                    .map(|f| {
                        format!(
                            "{{\"at\":{},\"region\":{},\"kind\":{},\"injected\":{},\"message\":{}}}",
                            f.at,
                            f.region,
                            escape(f.kind.name()),
                            f.injected,
                            escape(&f.message)
                        )
                    })
                    .collect();
                let quarantined: Vec<String> =
                    h.quarantined.iter().map(|r| r.to_string()).collect();
                Ok(format!(
                    "{{\"ok\":true,\"session\":{},\"alive\":true,\"calls\":{},\"checksum\":\"{:016x}\",\
                     \"cycles\":{},\"total_failures\":{},\"degradation\":{},\"code_bytes\":{},\
                     \"native_active\":{},\"quarantined\":[{}],\"failures\":[{}]}}",
                    escape(session_name),
                    slot.calls,
                    slot.checksum,
                    s.cycles(),
                    h.total_failures,
                    h.degradation_level,
                    h.code_bytes_installed,
                    n.active,
                    quarantined.join(","),
                    failures.join(",")
                ))
            }
            SlotState::Busy => Ok(format!(
                "{{\"ok\":true,\"session\":{},\"alive\":true,\"busy\":true}}",
                escape(session_name)
            )),
            SlotState::Dead(msg) => Ok(format!(
                "{{\"ok\":true,\"session\":{},\"alive\":false,\"dead\":{}}}",
                escape(session_name),
                escape(msg)
            )),
        }
    }

    /// Render the plaintext metrics document (the HTTP `GET /metrics`
    /// body). Pool counters are supplied by the transport layer, which
    /// owns the pool.
    pub fn metrics_text(&self, pool: Option<PoolStats>) -> String {
        self.render_metrics(pool, false)
    }

    /// The metrics document, written once into the buffer it is sent
    /// from: as plain text, or `framed` as the `metrics` op's reply
    /// (`{"ok":true,"metrics":` + [`escape`] of the text + `}`, escaped
    /// as it is written). Everything it reports is copied by
    /// [`ServerEngine::metrics_snapshot`]; no text is written under the
    /// lock.
    fn render_metrics(&self, pool: Option<PoolStats>, framed: bool) -> String {
        let snap = self.metrics_snapshot();
        let mut out = MetricsOut {
            buf: String::with_capacity(16 << 10),
            framed,
        };
        if framed {
            out.push("{\"ok\":true,\"metrics\":\"");
        }
        out.text("# dynccd metrics (plaintext, one sample per line)\n");
        out.sample("dynccd_programs", &[], snap.programs);
        out.sample("dynccd_tenants", &[], snap.tenants.len() as u64);
        out.sample("dynccd_sessions_open", &[], snap.sessions_open);
        out.sample("dynccd_sessions_opened_total", &[], snap.sessions_opened);
        out.sample("dynccd_sessions_dead_total", &[], snap.sessions_dead);
        for (name, counter) in [
            ("dynccd_calls_total", &self.calls_total),
            ("dynccd_call_errors_total", &self.call_errors_total),
            ("dynccd_protocol_errors_total", &self.protocol_errors_total),
        ] {
            out.sample(name, &[], counter.load(Ordering::Relaxed));
        }
        if let Some(p) = pool {
            out.sample("dynccd_pool_workers", &[], p.workers as u64);
            out.sample("dynccd_pool_jobs_executed_total", &[], p.executed);
            out.sample("dynccd_pool_jobs_inflight", &[], p.inflight);
        }
        for t in &snap.tenants {
            out.tenant(t);
        }
        if let Some(p) = &self.persist {
            let s = p.stats();
            out.sample("dynccd_persist_artifact_hits_total", &[], s.artifact_hits);
            out.sample(
                "dynccd_persist_artifact_misses_total",
                &[],
                s.artifact_misses,
            );
            out.sample(
                "dynccd_persist_artifact_rejects_total",
                &[],
                s.artifact_rejects,
            );
            out.sample(
                "dynccd_persist_artifact_stores_total",
                &[],
                s.artifact_stores,
            );
        }
        out.histogram("dynccd_decode_ns", &[], &self.decode.load());
        if framed {
            out.push("\"}");
        }
        out.buf
    }

    /// Copy what the metrics document reports, under the lock: one walk
    /// over the session table that reads each slot's tenant, call count
    /// and state tag, then the reports of each tenant's
    /// [`METRICS_TOP_SESSIONS`] chosen sessions.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut tenants: Vec<(&String, &Tenant)> = inner.tenants.iter().collect();
        tenants.sort_by_key(|(name, _)| name.as_str());
        let index: HashMap<&str, usize> = tenants
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i))
            .collect();
        // Per tenant: [alive, busy, dead] slot counts, and the top list.
        let mut states = vec![[0u64; 3]; tenants.len()];
        let mut top: Vec<Vec<(&str, &Slot)>> = vec![Vec::new(); tenants.len()];
        for (name, slot) in &inner.sessions {
            let Some(&t) = index.get(slot.tenant.as_str()) else {
                continue;
            };
            let [alive, busy, dead] = &mut states[t];
            match slot.state {
                SlotState::Idle(_) => *alive += 1,
                SlotState::Busy => {
                    *alive += 1;
                    *busy += 1;
                }
                SlotState::Dead(_) => *dead += 1,
            }
            offer(&mut top[t], name, slot);
        }
        let tenants = tenants
            .into_iter()
            .zip(states)
            .zip(top)
            .map(|(((name, t), [alive, busy, dead]), top)| TenantSnapshot {
                name: name.clone(),
                counters: t.counters,
                alive,
                busy,
                dead,
                options: t.options.clone(),
                top: top
                    .into_iter()
                    .map(|(name, slot)| SessionSnapshot {
                        name: name.to_string(),
                        calls: slot.calls,
                        alive: !matches!(slot.state, SlotState::Dead(_)),
                        report: match &slot.state {
                            SlotState::Idle(s) => Some(SessionReport {
                                cycles: s.cycles(),
                                health: s.health(),
                                native: s.native_report(),
                                regions: s.region_profiles().map(<[_]>::to_vec),
                            }),
                            SlotState::Busy | SlotState::Dead(_) => None,
                        },
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot {
            programs: inner.programs.len() as u64,
            sessions_open: inner.sessions.len() as u64,
            sessions_opened: inner.sessions_opened,
            sessions_dead: inner.sessions_dead,
            tenants,
        }
    }

    /// Test hook: drop the named session's native-backend state in place,
    /// simulating the engine-state invariant break the checked accessor
    /// guards against. The next native dispatch must degrade that one
    /// session to the VM path — not the process.
    #[doc(hidden)]
    pub fn force_native_loss(&self, session: &str) -> bool {
        let mut inner = self.lock();
        match inner.sessions.get_mut(session) {
            Some(Slot {
                state: SlotState::Idle(s),
                ..
            }) => {
                s.force_native_state_loss();
                true
            }
            _ => false,
        }
    }

    /// Test hook: make the named session's next call panic inside the
    /// containment boundary.
    #[doc(hidden)]
    pub fn arm_panic(&self, session: &str) -> bool {
        let mut inner = self.lock();
        match inner.sessions.get_mut(session) {
            Some(slot) => {
                slot.panic_next = true;
                true
            }
            None => false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means some holder panicked while mutating; the
        // maps are still structurally valid (every mutation is a single
        // HashMap op or counter bump), so serving beats aborting.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// How many sessions of each tenant the metrics document details: the
/// ones with the most calls, ties broken by name ascending.
const METRICS_TOP_SESSIONS: usize = 8;

/// Put `slot` into a tenant's top list if it ranks there. The list stays
/// sorted by calls descending, then name ascending, and at most
/// [`METRICS_TOP_SESSIONS`] long.
fn offer<'a>(top: &mut Vec<(&'a str, &'a Slot)>, name: &'a str, slot: &'a Slot) {
    let rank = |name: &'a str, slot: &Slot| (Reverse(slot.calls), name);
    let key = rank(name, slot);
    if top.len() == METRICS_TOP_SESSIONS && top.last().is_some_and(|&(n, s)| key > rank(n, s)) {
        return;
    }
    let at = top.partition_point(|&(n, s)| rank(n, s) < key);
    top.insert(at, (name, slot));
    top.truncate(METRICS_TOP_SESSIONS);
}

/// What one metrics document reports, copied under the lock.
struct MetricsSnapshot {
    programs: u64,
    sessions_open: u64,
    sessions_opened: u64,
    sessions_dead: u64,
    /// By name.
    tenants: Vec<TenantSnapshot>,
}

/// One tenant's counters, slot states and top sessions. The caches are
/// read when the text is written.
struct TenantSnapshot {
    name: String,
    counters: TenantCounters,
    /// Slots in the table not poisoned by a panic, busy ones included.
    alive: u64,
    /// Slots with a call in flight.
    busy: u64,
    /// Slots a panic poisoned.
    dead: u64,
    /// The caches are the tenant's `shared_cache` and `persist`.
    options: EngineOptions,
    /// In rank order.
    top: Vec<SessionSnapshot>,
}

/// One of a tenant's [`METRICS_TOP_SESSIONS`].
struct SessionSnapshot {
    name: String,
    calls: u64,
    alive: bool,
    /// `None` while a call is in flight or once the session is dead.
    report: Option<SessionReport>,
}

/// An idle session's engine counters.
struct SessionReport {
    cycles: u64,
    health: HealthReport,
    native: NativeReport,
    /// When the tenant traces.
    regions: Option<Vec<RegionProfile>>,
}

/// Host nanoseconds in [`CycleHistogram`]'s log₂ buckets, and their sum.
#[derive(Clone, Copy, Default)]
struct LatencyHistogram {
    buckets: CycleHistogram,
    sum_ns: u64,
}

impl LatencyHistogram {
    fn record(&mut self, elapsed: Duration) {
        let ns = nanos(elapsed);
        self.buckets.record(ns);
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }
}

/// A [`LatencyHistogram`] recorded without a lock: every connection
/// thread decodes its own frames.
struct AtomicHistogram {
    buckets: [AtomicU64; 33],
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    fn record(&self, elapsed: Duration) {
        let ns = nanos(elapsed);
        self.buckets[CycleHistogram::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn load(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: CycleHistogram {
                buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            },
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Where the metrics renderer writes: the reply buffer itself. A framed
/// reply holds the text as a JSON string, so there the renderer writes
/// its own quotes and line ends escaped, and label values escaped twice.
struct MetricsOut {
    buf: String,
    framed: bool,
}

impl MetricsOut {
    /// Text JSON leaves as it is: names, keys, numbers, `{},= `.
    fn push(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Any other text.
    fn text(&mut self, s: &str) {
        if self.framed {
            escape_into(&mut self.buf, s);
        } else {
            self.buf.push_str(s);
        }
    }

    /// One sample line, `name{key="value",…} v`. Every label value goes
    /// through [`MetricsOut::label_value`].
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.push(name);
        for (i, (key, value)) in labels.iter().enumerate() {
            self.push(if i == 0 { "{" } else { "," });
            self.push(key);
            self.push("=");
            self.text("\"");
            self.label_value(value);
            self.text("\"");
        }
        if !labels.is_empty() {
            self.push("}");
        }
        let _ = write!(self.buf, " {v}");
        self.text("\n");
    }

    /// A label value as the plaintext exposition format escapes it:
    /// backslash, double quote and newline, nothing else. A client-chosen
    /// session name can therefore never end its line or its label.
    fn label_value(&mut self, value: &str) {
        let mut copied = 0;
        for (i, b) in value.bytes().enumerate() {
            let escaped = match b {
                b'\\' => "\\\\",
                b'"' => "\\\"",
                b'\n' => "\\n",
                _ => continue,
            };
            self.text(&value[copied..i]);
            self.text(escaped);
            copied = i + 1;
        }
        self.text(&value[copied..]);
    }

    /// `name_bucket` lines for the non-empty buckets (cumulative, `le`
    /// the bucket's largest value), then `name_count` and `name_sum`.
    fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0;
        for (i, &n) in h.buckets.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            let le = match i {
                32 => "+Inf".to_string(),
                _ => ((1u64 << i) - 1).to_string(),
            };
            let mut with_le = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket, &with_le, cumulative);
        }
        self.sample(&format!("{name}_count"), labels, cumulative);
        self.sample(&format!("{name}_sum"), labels, h.sum_ns);
    }

    /// A tenant's counters, service histograms and top sessions.
    fn tenant(&mut self, t: &TenantSnapshot) {
        let l = [("tenant", t.name.as_str())];
        let c = &t.counters;
        self.sample("dynccd_tenant_sessions_open", &l, c.open_sessions as u64);
        self.sample("dynccd_tenant_sessions_opened_total", &l, c.opened_total);
        self.sample("dynccd_tenant_sessions_dead_total", &l, c.dead_sessions);
        self.sample("dynccd_tenant_sessions_alive", &l, t.alive);
        self.sample("dynccd_tenant_sessions_busy", &l, t.busy);
        self.sample("dynccd_tenant_sessions_dead", &l, t.dead);
        self.sample("dynccd_tenant_calls_total", &l, c.calls);
        self.sample("dynccd_tenant_call_errors_total", &l, c.call_errors);
        if let Some(cache) = &t.options.shared_cache {
            let s = cache.stats();
            self.sample("dynccd_tenant_cache_hits_total", &l, s.hits);
            self.sample("dynccd_tenant_cache_misses_total", &l, s.misses);
            self.sample("dynccd_tenant_cache_insertions_total", &l, s.insertions);
            self.sample("dynccd_tenant_cache_replacements_total", &l, s.replacements);
            self.sample("dynccd_tenant_cache_evictions_total", &l, s.evictions);
            self.sample("dynccd_tenant_cache_resident_bytes", &l, cache.bytes());
            self.sample("dynccd_tenant_cache_resident", &l, cache.len() as u64);
        }
        if let Some(p) = &t.options.persist {
            let s = p.stats();
            self.sample("dynccd_tenant_persist_hits_total", &l, s.instance_hits);
            self.sample("dynccd_tenant_persist_misses_total", &l, s.instance_misses);
            self.sample(
                "dynccd_tenant_persist_rejects_total",
                &l,
                s.instance_rejects,
            );
            self.sample("dynccd_tenant_persist_stores_total", &l, s.instance_stores);
            self.sample("dynccd_tenant_persist_lock_skips_total", &l, s.lock_skips);
        }
        for (op, h) in SERVICE_OPS.iter().zip(&c.service) {
            let l = [("tenant", t.name.as_str()), ("op", op)];
            self.histogram("dynccd_tenant_service_ns", &l, h);
        }
        for s in &t.top {
            self.session(&t.name, s);
        }
    }

    /// One top session's lines: today's per-session block.
    fn session(&mut self, tenant: &str, s: &SessionSnapshot) {
        let l = [("session", s.name.as_str()), ("tenant", tenant)];
        self.sample("dynccd_session_calls_total", &l, s.calls);
        self.sample("dynccd_session_alive", &l, u64::from(s.alive));
        let Some(r) = &s.report else {
            return;
        };
        let h = &r.health;
        self.sample("dynccd_session_cycles", &l, r.cycles);
        self.sample("dynccd_session_failures_total", &l, h.total_failures);
        let quarantined = h.quarantined.len() as u64;
        self.sample("dynccd_session_quarantined_regions", &l, quarantined);
        self.sample("dynccd_session_code_bytes", &l, h.code_bytes_installed);
        let level = u64::from(h.degradation_level);
        self.sample("dynccd_session_degradation_level", &l, level);
        let n = &r.native;
        if n.enabled {
            self.sample("dynccd_session_native_active", &l, u64::from(n.active));
            self.sample("dynccd_session_native_installs_total", &l, n.installs);
            self.sample("dynccd_session_native_entries_total", &l, n.entries);
            self.sample("dynccd_session_native_chained_total", &l, n.chained);
        }
        // PR 4 region-profile counters, when the tenant traces.
        for p in r.regions.iter().flatten() {
            let region = p.region.to_string();
            let l = [l[0], l[1], ("region", region.as_str())];
            self.sample("dynccd_region_invocations_total", &l, p.invocations);
            self.sample("dynccd_region_stitches_total", &l, p.stitches);
            self.sample("dynccd_region_stitch_cycles_total", &l, p.stitch_cycles);
            self.sample("dynccd_region_setup_cycles_total", &l, p.setup_cycles);
            self.sample("dynccd_region_keyed_hits_total", &l, p.keyed_hits);
            self.sample("dynccd_region_shared_installs_total", &l, p.shared_installs);
        }
    }
}

fn str_field<'a>(req: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    req.get(key).and_then(Json::as_str).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::BadRequest,
            format!("missing string field `{key}`"),
        )
    })
}

fn no_such(kind: ErrorKind, what: &str, name: &str) -> ProtoError {
    ProtoError::new(kind, format!("no {what} named `{name}`"))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLY: &str = "int poly(int c, int x) { dynamicRegion key(c) (c) { return c * x + c; } }";

    fn ok(engine: &ServerEngine, request: &str) -> Json {
        let response = engine.handle(request.as_bytes());
        let j = Json::parse(&response).expect("response parses");
        assert_eq!(
            j.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        j
    }

    fn upload_poly(engine: &ServerEngine) {
        let body = format!(
            "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
            escape(POLY)
        );
        ok(engine, &body);
    }

    /// `session` is a raw name; it is escaped here.
    fn open(engine: &ServerEngine, tenant: &str, session: &str) {
        let (t, s) = (escape(tenant), escape(session));
        ok(
            engine,
            &format!("{{\"op\":\"open\",\"tenant\":{t},\"program\":\"poly\",\"session\":{s}}}"),
        );
    }

    fn call(session: &str, c: u64, x: u64) -> String {
        let s = escape(session);
        format!("{{\"op\":\"call\",\"session\":{s},\"func\":\"poly\",\"args\":[{c},{x}]}}")
    }

    /// The value of the one sample line that starts with `series` (name
    /// and labels).
    fn value(text: &str, series: &str) -> u64 {
        let mut found = text
            .lines()
            .filter_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
        let v = found.next().unwrap_or_else(|| panic!("no sample {series}"));
        assert!(found.next().is_none(), "two samples {series}");
        v.parse().expect("an integer sample")
    }

    /// Histogram bucket lines are the document's only lines whose number
    /// depends on host time: how many buckets the samples spread over.
    fn is_bucket(line: &str) -> bool {
        line.split(['{', ' '])
            .next()
            .is_some_and(|n| n.ends_with("_bucket"))
    }

    /// The framed `metrics` reply is written escaped in one pass; it must
    /// stay what it was when it was assembled from the text: the prefix,
    /// [`escape`] of [`ServerEngine::metrics_text`], the suffix. Session
    /// names are the only client-chosen text in the document, so they
    /// carry every byte class the escaper treats differently; the one
    /// checked by name has the most calls, so it is its tenant's top
    /// session.
    #[test]
    fn framed_metrics_reply_is_the_escaped_text_byte_for_byte() {
        let engine = ServerEngine::new();
        upload_poly(&engine);
        ok(&engine, "{\"op\":\"tenant\",\"tenant\":\"plain\"}");
        ok(
            &engine,
            "{\"op\":\"tenant\",\"tenant\":\"traced\",\"trace\":true}",
        );
        let name = |i: u64| format!("s{i} \"q\" back\\slash line\nbreak ctl\u{1}tab\té");
        for i in 0..40u64 {
            let tenant = if i % 2 == 0 { "plain" } else { "traced" };
            open(&engine, tenant, &name(i));
            // Region-profile lines exist only for sessions that ran.
            let calls = match i {
                1 => 3,
                _ if i % 4 != 0 => 1,
                _ => 0,
            };
            for x in 0..calls {
                ok(&engine, &call(&name(i), i, x + 3));
            }
        }
        // The reply's own frame is in the decode histogram of the text
        // rendered after it.
        let reply = engine.handle(b"{\"op\":\"metrics\"}");
        let text = engine.metrics_text(None);
        assert!(text.contains(
            "\ndynccd_session_calls_total{session=\"s1 \\\"q\\\" back\\\\slash line\\nbreak \
             ctl\u{1}tab\té\",tenant=\"traced\"} 3\n"
        ));
        assert!(text.contains(
            "\ndynccd_region_stitches_total{session=\"s1 \\\"q\\\" back\\\\slash line\\nbreak \
             ctl\u{1}tab\té\",tenant=\"traced\",region=\"0\"} 1\n"
        ));
        assert_eq!(
            reply,
            format!("{{\"ok\":true,\"metrics\":{}}}", escape(&text))
        );
        let parsed = Json::parse(&reply).expect("the reply is JSON");
        assert_eq!(
            parsed.get("metrics").and_then(Json::as_str),
            Some(text.as_str())
        );
    }

    /// A session name that closes its label and starts a line of its own
    /// stays inside its label: the document has as many lines as with a
    /// plain name, and every line is a `dynccd_` sample.
    #[test]
    fn hostile_session_name_adds_as_many_lines_as_a_plain_one() {
        let render = |session: &str| {
            let engine = ServerEngine::new();
            upload_poly(&engine);
            ok(
                &engine,
                "{\"op\":\"tenant\",\"tenant\":\"t\",\"trace\":true}",
            );
            open(&engine, "t", session);
            ok(&engine, &call(session, 4, 5));
            engine.metrics_text(None)
        };
        let plain = render("plain");
        let hostile = render("x\"} 1\nforged_total 42");
        let samples = |text: &str| text.lines().filter(|l| !is_bucket(l)).count();
        assert_eq!(samples(&hostile), samples(&plain));
        assert!(hostile.lines().skip(1).all(|l| l.starts_with("dynccd_")));
        assert!(hostile.contains(
            "dynccd_session_calls_total{session=\"x\\\"} 1\\nforged_total 42\",tenant=\"t\"} 1\n"
        ));
    }

    /// The document does not grow with the session table: two tenants at
    /// 50 and at 2,000 open sessions render the same lines but for the
    /// histogram buckets (which are bounded by tenants × ops × 33), the
    /// top sessions follow calls descending then name ascending, and the
    /// tenant counters are the sums over the tenant's sessions after
    /// calls, one `close` and one session killed by a panic.
    #[test]
    fn metrics_document_is_bounded_by_tenants_not_sessions() {
        // Calls made on sessions `c00`..`c11` of each tenant; the rest of
        // the tenant's sessions never run.
        const CALLS: [u64; 12] = [5, 2, 4, 2, 0, 3, 1, 2, 3, 1, 4, 1];
        let render = |open_sessions: usize| {
            let engine = ServerEngine::new();
            upload_poly(&engine);
            ok(
                &engine,
                "{\"op\":\"tenant\",\"tenant\":\"alpha\",\"trace\":true,\"memory_bytes\":4096}",
            );
            ok(
                &engine,
                "{\"op\":\"tenant\",\"tenant\":\"beta\",\"memory_bytes\":4096}",
            );
            for tenant in ["alpha", "beta"] {
                for i in 0..open_sessions / 2 {
                    open(&engine, tenant, &format!("{tenant}-{i:04}"));
                }
                for (i, &calls) in CALLS.iter().enumerate() {
                    let name = format!("{tenant}-c{i:02}");
                    open(&engine, tenant, &name);
                    for x in 0..calls {
                        ok(&engine, &call(&name, i as u64 % 3, x));
                    }
                }
            }
            ok(&engine, "{\"op\":\"close\",\"session\":\"alpha-c00\"}");
            assert!(engine.arm_panic("beta-c04"));
            let died = engine.handle(call("beta-c04", 1, 1).as_bytes());
            assert!(died.contains("\"run-panic\""), "{died}");
            engine.metrics_text(None)
        };
        let (small, large) = (render(50), render(2000));
        let samples = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !is_bucket(l))
                .map(|l| {
                    l.rsplit_once(' ')
                        .map_or(l, |(series, _)| series)
                        .to_string()
                })
                .filter(|series| !series.contains("_ns_sum"))
                .collect()
        };
        assert_eq!(samples(&small), samples(&large));
        let buckets = large.lines().filter(|l| is_bucket(l)).count();
        assert!(buckets <= (2 * SERVICE_OPS.len() + 1) * 33);

        let top = |text: &str, tenant: &str| -> Vec<String> {
            let suffix = format!("\",tenant=\"{tenant}\"}}");
            text.lines()
                .filter_map(|l| l.strip_prefix("dynccd_session_calls_total{session=\""))
                .filter_map(|l| {
                    Some(
                        l.split_once(' ')?
                            .0
                            .strip_suffix(suffix.as_str())?
                            .to_string(),
                    )
                })
                .collect()
        };
        let ranked = |tenant: &str, order: &[usize]| -> Vec<String> {
            order.iter().map(|i| format!("{tenant}-c{i:02}")).collect()
        };
        // alpha-c00 is closed; beta-c04 died with no completed call.
        assert_eq!(
            top(&large, "alpha"),
            ranked("alpha", &[2, 10, 5, 8, 1, 3, 7, 6])
        );
        assert_eq!(
            top(&large, "beta"),
            ranked("beta", &[0, 2, 10, 5, 8, 1, 3, 7])
        );
        assert_eq!(top(&small, "beta"), top(&large, "beta"));

        for (text, open_sessions) in [(&small, 50u64), (&large, 2000)] {
            let per_tenant = open_sessions / 2 + CALLS.len() as u64;
            let calls: u64 = CALLS.iter().sum();
            // (tenant, open, opened, calls, errors, dead, closes)
            for (tenant, open, opened, calls, errors, dead, closes) in [
                ("alpha", per_tenant - 1, per_tenant, calls, 0, 0, 1),
                ("beta", per_tenant, per_tenant, calls + 1, 1, 1, 0),
            ] {
                let v = |name: &str| value(text, &format!("{name}{{tenant=\"{tenant}\"}}"));
                assert_eq!(v("dynccd_tenant_sessions_open"), open);
                assert_eq!(v("dynccd_tenant_sessions_opened_total"), opened);
                assert_eq!(v("dynccd_tenant_calls_total"), calls);
                assert_eq!(v("dynccd_tenant_call_errors_total"), errors);
                assert_eq!(v("dynccd_tenant_sessions_dead_total"), dead);
                assert_eq!(v("dynccd_tenant_sessions_dead"), dead);
                assert_eq!(v("dynccd_tenant_sessions_alive"), open - dead);
                assert_eq!(v("dynccd_tenant_sessions_busy"), 0);
                let count = |op: &str| {
                    let series = format!(
                        "dynccd_tenant_service_ns_count{{tenant=\"{tenant}\",op=\"{op}\"}}"
                    );
                    value(text, &series)
                };
                assert_eq!(count("open"), opened);
                assert_eq!(count("call"), calls);
                assert_eq!(count("close"), closes);
            }
            assert_eq!(value(text, "dynccd_sessions_open"), 2 * per_tenant - 1);
        }
    }
}
