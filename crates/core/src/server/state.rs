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

use super::json::{escape, escape_into, Json};
use super::pool::PoolStats;
use super::proto::{
    check_tenant_name, ErrorKind, ProtoError, MAX_CACHE_CAPACITY, MAX_CACHE_SHARDS,
    MAX_SESSION_MEMORY,
};
use crate::cache::SharedCodeCache;
use crate::engine::{EngineOptions, Session};
use crate::faults::RecoveryPolicy;
use crate::measure::fold_checksum;
use crate::persist::PersistentCache;
use crate::trace::TraceOptions;
use crate::{CompileOptions, Compiler, InlineOptions, Program};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-tenant quota and configuration knobs, set by the `tenant` op.
#[derive(Clone, Debug)]
pub struct TenantOptions {
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Per-session VM data memory. The server default (64 KiB) is small
    /// on purpose: 10k concurrent sessions must fit in host memory.
    pub memory_bytes: usize,
    /// Per-session stitched-code byte budget
    /// ([`RecoveryPolicy::code_budget_bytes`]).
    pub code_budget_bytes: Option<u64>,
    /// Per-shard byte budget of the tenant's shared stitched-code cache.
    pub cache_bytes: Option<u64>,
    /// Shard count of the tenant's shared cache.
    pub cache_shards: usize,
    /// Per-shard instance capacity of the tenant's shared cache.
    pub cache_capacity: usize,
    /// Region failures before quarantine
    /// ([`RecoveryPolicy::quarantine_after`]).
    pub quarantine_after: u32,
    /// Enable the host-native backend for this tenant's sessions.
    pub native: bool,
    /// Enable structured tracing (exposes per-region profile counters on
    /// the metrics endpoint).
    pub trace: bool,
    /// Give this tenant's sessions a persistent stitched-code cache
    /// under the server's `--persist-root` (its own subdirectory —
    /// tenants never share persisted instances, the same isolation rule
    /// as the in-memory cache). Ignored when the server has no
    /// persist root.
    pub persist: bool,
}

impl Default for TenantOptions {
    fn default() -> Self {
        TenantOptions {
            max_sessions: 1024,
            memory_bytes: 1 << 16,
            code_budget_bytes: None,
            cache_bytes: None,
            cache_shards: 8,
            cache_capacity: 64,
            quarantine_after: RecoveryPolicy::default().quarantine_after,
            native: false,
            trace: false,
            persist: false,
        }
    }
}

struct Tenant {
    options: TenantOptions,
    /// The tenant's private shared-code cache: sessions of one tenant
    /// reuse each other's stitched instances; tenants never cross.
    cache: Arc<SharedCodeCache>,
    /// The tenant's private on-disk cache (`Some` iff the tenant asked
    /// for `persist` and the server has a persist root).
    persist: Option<Arc<PersistentCache>>,
    open_sessions: usize,
    opened_total: u64,
    calls: u64,
    call_errors: u64,
    dead_sessions: u64,
}

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
        let req = Json::parse(text)
            .map_err(|e| ProtoError::new(ErrorKind::BadJson, format!("malformed JSON: {e}")))?;
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new(ErrorKind::BadRequest, "missing string field `op`"))?;
        match op {
            "ping" => Ok("{\"ok\":true,\"pong\":true}".to_string()),
            "upload" => self.op_upload(&req),
            "tenant" => self.op_tenant(&req),
            "open" => self.op_open(&req),
            "call" => self.op_call(&req),
            "close" => self.op_close(&req),
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
        let inline_depth = req.get("inline").and_then(Json::as_int).unwrap_or(0);
        let tiered = req.get("tiered").and_then(Json::as_bool).unwrap_or(false);
        let options = CompileOptions {
            tiered_fallback: tiered,
            inline: InlineOptions::at_depth(inline_depth.clamp(0, 8) as u32),
            ..Default::default()
        };
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
        let mut options = TenantOptions::default();
        if let Some(v) = req.get("max_sessions").and_then(Json::as_int) {
            options.max_sessions = usize_field(v, "max_sessions")?;
        }
        if let Some(v) = req.get("memory_bytes").and_then(Json::as_int) {
            let bytes = bounded_field(v, "memory_bytes", MAX_SESSION_MEMORY)?;
            options.memory_bytes = bytes.max(1 << 12);
        }
        if let Some(v) = req.get("code_budget_bytes").and_then(Json::as_int) {
            options.code_budget_bytes = Some(usize_field(v, "code_budget_bytes")? as u64);
        }
        if let Some(v) = req.get("cache_bytes").and_then(Json::as_int) {
            options.cache_bytes = Some(usize_field(v, "cache_bytes")? as u64);
        }
        if let Some(v) = req.get("cache_shards").and_then(Json::as_int) {
            options.cache_shards = bounded_field(v, "cache_shards", MAX_CACHE_SHARDS)?.max(1);
        }
        if let Some(v) = req.get("cache_capacity").and_then(Json::as_int) {
            options.cache_capacity = bounded_field(v, "cache_capacity", MAX_CACHE_CAPACITY)?.max(1);
        }
        if let Some(v) = req.get("quarantine_after").and_then(Json::as_int) {
            options.quarantine_after = u32::try_from(v).map_err(|_| {
                let msg = "field `quarantine_after` must fit an unsigned 32-bit count";
                ProtoError::new(ErrorKind::BadRequest, msg)
            })?;
        }
        options.native = req.get("native").and_then(Json::as_bool).unwrap_or(false);
        options.trace = req.get("trace").and_then(Json::as_bool).unwrap_or(false);
        options.persist = req.get("persist").and_then(Json::as_bool).unwrap_or(false);
        let cache = Arc::new(SharedCodeCache::with_byte_budget(
            options.cache_shards,
            options.cache_capacity,
            options.cache_bytes,
        ));
        // Each persisting tenant gets its own subdirectory: persisted
        // instances are part of the tenant isolation boundary, exactly
        // like the in-memory cache. An unusable directory degrades to no
        // persistence for this tenant (the cache is an accelerator).
        let persist = if options.persist {
            self.persist_root
                .as_ref()
                .and_then(|root| PersistentCache::open(root.join("tenants").join(name)).ok())
                .map(Arc::new)
        } else {
            None
        };
        let mut inner = self.lock();
        inner.tenants.insert(
            name.to_string(),
            Tenant {
                options,
                cache,
                persist,
                open_sessions: 0,
                opened_total: 0,
                calls: 0,
                call_errors: 0,
                dead_sessions: 0,
            },
        );
        Ok(format!("{{\"ok\":true,\"tenant\":{}}}", escape(name)))
    }

    fn op_open(&self, req: &Json) -> Result<String, ProtoError> {
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
        if tenant.open_sessions >= tenant.options.max_sessions {
            return Err(ProtoError::new(
                ErrorKind::TenantQuota,
                format!(
                    "tenant `{tenant_name}` is at its session quota ({})",
                    tenant.options.max_sessions
                ),
            ));
        }
        if inner.sessions.contains_key(session_name) {
            return Err(ProtoError::new(
                ErrorKind::BadRequest,
                format!("session `{session_name}` is already open"),
            ));
        }
        let opts = engine_options(
            &tenant.options,
            Arc::clone(&tenant.cache),
            tenant.persist.clone(),
        );
        let session = Box::new(Session::with_options(program, opts));
        let tenant = inner
            .tenants
            .get_mut(tenant_name)
            .ok_or_else(|| no_such(ErrorKind::NoSuchTenant, "tenant", tenant_name))?;
        tenant.open_sessions += 1;
        tenant.opened_total += 1;
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

    fn op_call(&self, req: &Json) -> Result<String, ProtoError> {
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
        let mut inner = self.lock();
        match outcome {
            Ok((session, result)) => {
                let cycles = session.cycles();
                let slot = inner
                    .sessions
                    .get_mut(session_name)
                    .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
                slot.state = SlotState::Idle(session);
                slot.calls += 1;
                match result {
                    Ok(r) => {
                        slot.checksum = fold_checksum(slot.checksum, r);
                        let tenant = slot.tenant.clone();
                        if let Some(t) = inner.tenants.get_mut(&tenant) {
                            t.calls += 1;
                        }
                        Ok(format!(
                            "{{\"ok\":true,\"result\":{},\"cycles\":{cycles}}}",
                            r as i64
                        ))
                    }
                    Err(e) => {
                        self.call_errors_total.fetch_add(1, Ordering::Relaxed);
                        let tenant = slot.tenant.clone();
                        if let Some(t) = inner.tenants.get_mut(&tenant) {
                            t.calls += 1;
                            t.call_errors += 1;
                        }
                        Err(ProtoError::new(ErrorKind::RunError, e.to_string()))
                    }
                }
            }
            Err(payload) => {
                self.call_errors_total.fetch_add(1, Ordering::Relaxed);
                let msg = panic_message(payload.as_ref());
                inner.sessions_dead += 1;
                let slot = inner
                    .sessions
                    .get_mut(session_name)
                    .ok_or_else(|| no_such(ErrorKind::NoSuchSession, "session", session_name))?;
                slot.state = SlotState::Dead(msg.clone());
                let tenant = slot.tenant.clone();
                if let Some(t) = inner.tenants.get_mut(&tenant) {
                    t.calls += 1;
                    t.call_errors += 1;
                    t.dead_sessions += 1;
                }
                Err(ProtoError::new(
                    ErrorKind::RunPanic,
                    format!("call panicked (session `{session_name}` is now dead): {msg}"),
                ))
            }
        }
    }

    fn op_close(&self, req: &Json) -> Result<String, ProtoError> {
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
            t.open_sessions = t.open_sessions.saturating_sub(1);
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
    /// as it is written). The document is O(sessions × regions), so the
    /// buffer is reserved up front and nothing is allocated per line:
    /// the global lock is held for the one pass and no longer.
    fn render_metrics(&self, pool: Option<PoolStats>, framed: bool) -> String {
        let inner = self.lock();
        let mut buf =
            String::with_capacity(2048 + METRICS_BYTES_PER_SESSION * inner.sessions.len());
        if framed {
            buf.push_str("{\"ok\":true,\"metrics\":\"");
        }
        let mut out = MetricsOut { buf, framed };
        let _ = out.write_str("# dynccd metrics (plaintext, one sample per line)\n");
        let mut line = |name: &str, labels: &str, v: u64| {
            let _ = if labels.is_empty() {
                writeln!(out, "{name} {v}")
            } else {
                writeln!(out, "{name}{{{labels}}} {v}")
            };
        };
        line("dynccd_programs", "", inner.programs.len() as u64);
        line("dynccd_tenants", "", inner.tenants.len() as u64);
        line("dynccd_sessions_open", "", inner.sessions.len() as u64);
        line("dynccd_sessions_opened_total", "", inner.sessions_opened);
        line("dynccd_sessions_dead_total", "", inner.sessions_dead);
        line(
            "dynccd_calls_total",
            "",
            self.calls_total.load(Ordering::Relaxed),
        );
        line(
            "dynccd_call_errors_total",
            "",
            self.call_errors_total.load(Ordering::Relaxed),
        );
        line(
            "dynccd_protocol_errors_total",
            "",
            self.protocol_errors_total.load(Ordering::Relaxed),
        );
        if let Some(p) = pool {
            line("dynccd_pool_workers", "", p.workers as u64);
            line("dynccd_pool_jobs_executed_total", "", p.executed);
            line("dynccd_pool_jobs_inflight", "", p.inflight);
        }
        let mut tenants: Vec<(&String, &Tenant)> = inner.tenants.iter().collect();
        tenants.sort_by_key(|(name, _)| name.as_str());
        let (mut l, mut rl) = (String::new(), String::new());
        for (name, t) in tenants {
            l.clear();
            let _ = write!(l, "tenant=\"{name}\"");
            line("dynccd_tenant_sessions_open", &l, t.open_sessions as u64);
            line("dynccd_tenant_sessions_opened_total", &l, t.opened_total);
            line("dynccd_tenant_sessions_dead_total", &l, t.dead_sessions);
            line("dynccd_tenant_calls_total", &l, t.calls);
            line("dynccd_tenant_call_errors_total", &l, t.call_errors);
            let c = t.cache.stats();
            line("dynccd_tenant_cache_hits_total", &l, c.hits);
            line("dynccd_tenant_cache_misses_total", &l, c.misses);
            line("dynccd_tenant_cache_insertions_total", &l, c.insertions);
            line("dynccd_tenant_cache_replacements_total", &l, c.replacements);
            line("dynccd_tenant_cache_evictions_total", &l, c.evictions);
            line("dynccd_tenant_cache_resident_bytes", &l, t.cache.bytes());
            line("dynccd_tenant_cache_resident", &l, t.cache.len() as u64);
            if let Some(p) = &t.persist {
                let s = p.stats();
                line("dynccd_tenant_persist_hits_total", &l, s.instance_hits);
                line("dynccd_tenant_persist_misses_total", &l, s.instance_misses);
                line(
                    "dynccd_tenant_persist_rejects_total",
                    &l,
                    s.instance_rejects,
                );
                line("dynccd_tenant_persist_stores_total", &l, s.instance_stores);
                line("dynccd_tenant_persist_lock_skips_total", &l, s.lock_skips);
            }
        }
        if let Some(p) = &self.persist {
            let s = p.stats();
            line("dynccd_persist_artifact_hits_total", "", s.artifact_hits);
            line(
                "dynccd_persist_artifact_misses_total",
                "",
                s.artifact_misses,
            );
            line(
                "dynccd_persist_artifact_rejects_total",
                "",
                s.artifact_rejects,
            );
            line(
                "dynccd_persist_artifact_stores_total",
                "",
                s.artifact_stores,
            );
        }
        let mut sessions: Vec<(&String, &Slot)> = inner.sessions.iter().collect();
        sessions.sort_by_key(|(name, _)| name.as_str());
        for (name, slot) in sessions {
            l.clear();
            let _ = write!(l, "session=\"{name}\",tenant=\"{}\"", slot.tenant);
            line("dynccd_session_calls_total", &l, slot.calls);
            match &slot.state {
                SlotState::Idle(s) => {
                    line("dynccd_session_alive", &l, 1);
                    line("dynccd_session_cycles", &l, s.cycles());
                    let h = s.health();
                    line("dynccd_session_failures_total", &l, h.total_failures);
                    line(
                        "dynccd_session_quarantined_regions",
                        &l,
                        h.quarantined.len() as u64,
                    );
                    line("dynccd_session_code_bytes", &l, h.code_bytes_installed);
                    line(
                        "dynccd_session_degradation_level",
                        &l,
                        u64::from(h.degradation_level),
                    );
                    let n = s.native_report();
                    if n.enabled {
                        line("dynccd_session_native_active", &l, u64::from(n.active));
                        line("dynccd_session_native_installs_total", &l, n.installs);
                        line("dynccd_session_native_entries_total", &l, n.entries);
                        line("dynccd_session_native_chained_total", &l, n.chained);
                    }
                    // PR 4 region-profile counters, when the tenant traces.
                    if let Some(profiles) = s.region_profiles() {
                        for p in profiles {
                            rl.clear();
                            let _ = write!(rl, "{l},region=\"{}\"", p.region);
                            line("dynccd_region_invocations_total", &rl, p.invocations);
                            line("dynccd_region_stitches_total", &rl, p.stitches);
                            line("dynccd_region_stitch_cycles_total", &rl, p.stitch_cycles);
                            line("dynccd_region_setup_cycles_total", &rl, p.setup_cycles);
                            line("dynccd_region_keyed_hits_total", &rl, p.keyed_hits);
                            line(
                                "dynccd_region_shared_installs_total",
                                &rl,
                                p.shared_installs,
                            );
                        }
                    }
                }
                SlotState::Busy => line("dynccd_session_alive", &l, 1),
                SlotState::Dead(_) => line("dynccd_session_alive", &l, 0),
            }
        }
        if framed {
            out.buf.push_str("\"}");
        }
        out.buf
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

/// What one untraced session adds to the framed metrics document, with
/// room for a name of a dozen bytes: the reservation that lets the
/// document be written without regrowing. A tracing tenant's region
/// lines come on top and grow the buffer as any `String` grows.
const METRICS_BYTES_PER_SESSION: usize = 512;

/// Where the metrics renderer writes: the reply buffer itself, with
/// JSON string escaping applied on the way in when the reply is a frame.
struct MetricsOut {
    buf: String,
    framed: bool,
}

impl fmt::Write for MetricsOut {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.framed {
            escape_into(&mut self.buf, s);
        } else {
            self.buf.push_str(s);
        }
        Ok(())
    }
}

fn engine_options(
    t: &TenantOptions,
    cache: Arc<SharedCodeCache>,
    persist: Option<Arc<PersistentCache>>,
) -> EngineOptions {
    EngineOptions {
        memory_bytes: t.memory_bytes,
        shared_cache: Some(cache),
        persist,
        recovery: RecoveryPolicy {
            code_budget_bytes: t.code_budget_bytes,
            quarantine_after: t.quarantine_after,
            ..Default::default()
        },
        native: t.native,
        trace: t.trace.then(TraceOptions::default),
        ..Default::default()
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

fn usize_field(v: i64, key: &str) -> Result<usize, ProtoError> {
    usize::try_from(v).map_err(|_| {
        ProtoError::new(
            ErrorKind::BadRequest,
            format!("field `{key}` must be non-negative"),
        )
    })
}

/// A non-negative wire integer that sizes an allocation: refused above
/// `max` where it arrives, never clamped silently.
fn bounded_field(v: i64, key: &str, max: usize) -> Result<usize, ProtoError> {
    let n = usize_field(v, key)?;
    if n > max {
        return Err(ProtoError::new(
            ErrorKind::BadRequest,
            format!("field `{key}` exceeds the bound of {max}"),
        ));
    }
    Ok(n)
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

    /// The framed `metrics` reply is written escaped in one pass; it must
    /// stay what it was when it was assembled from the text: the prefix,
    /// [`escape`] of [`ServerEngine::metrics_text`], the suffix. Session
    /// names are the only client-chosen text in the document, so they
    /// carry every byte class the escaper treats differently.
    #[test]
    fn framed_metrics_reply_is_the_escaped_text_byte_for_byte() {
        let engine = ServerEngine::new();
        let src = "int poly(int c, int x) { dynamicRegion key(c) (c) { return c * x + c; } }";
        ok(
            &engine,
            &format!(
                "{{\"op\":\"upload\",\"name\":\"poly\",\"src\":{}}}",
                escape(src)
            ),
        );
        ok(&engine, "{\"op\":\"tenant\",\"tenant\":\"plain\"}");
        ok(
            &engine,
            "{\"op\":\"tenant\",\"tenant\":\"traced\",\"trace\":true}",
        );
        for i in 0..40u64 {
            let name = escape(&format!(
                "s{i} \"q\" back\\slash line\nbreak ctl\u{1}tab\té"
            ));
            let tenant = if i % 2 == 0 { "plain" } else { "traced" };
            ok(
                &engine,
                &format!("{{\"op\":\"open\",\"tenant\":\"{tenant}\",\"program\":\"poly\",\"session\":{name}}}"),
            );
            // Region-profile lines exist only for sessions that ran.
            if i % 4 != 0 {
                ok(
                    &engine,
                    &format!(
                        "{{\"op\":\"call\",\"session\":{name},\"func\":\"poly\",\"args\":[{i},3]}}"
                    ),
                );
            }
        }
        let text = engine.metrics_text(None);
        assert!(text
            .contains("dynccd_region_stitches_total{session=\"s1 \"q\" back\\slash line\nbreak"));
        let reply = engine.handle(b"{\"op\":\"metrics\"}");
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
}
