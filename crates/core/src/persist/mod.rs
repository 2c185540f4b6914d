//! Crash-safe persistent cache for compiled artifacts and stitched code.
//!
//! Dynamic compilation trades a one-time set-up-and-stitch cost for
//! faster steady-state code; this module makes that cost *one-time per
//! source*, not per process. Two layers of compiled state are persisted
//! under a user-chosen root directory:
//!
//! - **Program artifacts** — the full compile output, keyed by
//!   `hash(source, CompileOptions)` and stored as
//!   `artifacts/<hash>.dyna`. A warm process skips parsing, analysis,
//!   specialization and code generation entirely.
//! - **Stitched instances** — hot keyed and unkeyed region instances
//!   (including host-native stub bytes when the host matches), keyed by
//!   `(artifact hash, region, runtime key)` and stored as
//!   `stitched/<hash>/r<region>-k<keyhash>.dyns`. A warm session skips
//!   the stitch (and, for keyed regions, the set-up code too).
//!
//! ## Trust model
//!
//! The cache directory is *untrusted input*: anything may have scribbled
//! on it between runs. Every load validates a versioned header and a
//! payload checksum ([`format`]), decodes through bounds-checked readers
//! ([`codec`]), and — crucially — every loaded instance still passes the
//! same `verify_code` gate (and `reads_match` replay for unkeyed
//! regions) as freshly stitched code before it is installed. A file that
//! fails any of these degrades to recompile-and-overwrite with a typed
//! [`PersistIncident`]; no corrupt cache state can panic the engine or
//! execute unverified code.
//!
//! ## Atomicity and concurrency
//!
//! Writes are crash-safe (temp file + fsync + atomic rename) and guarded
//! by an advisory per-file lock so concurrent processes warming the same
//! cache do not tear each other's files; a contended writer simply skips
//! its store. See [`format`] for the protocol.
//!
//! ## Cost model
//!
//! Disk traffic is host-side and charged zero simulated cycles. A hit
//! pays the same simulated install cost as a shared-cache hit (lookup
//! plus per-word copy), so persisted and in-memory reuse are comparable
//! in reports, and cold runs with persistence enabled are bit-identical
//! in cycles and checksums to runs without it.

pub(crate) mod codec;
pub(crate) mod format;

pub(crate) use codec::LoadedInstance;

use crate::{Compiler, Error, Program};
use dyncomp_machine::codec::{Reader, Writer};
use dyncomp_stitcher::Stitched;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many incidents [`PersistentCache::incidents`] retains.
const INCIDENT_CAP: usize = 64;

/// Aggregate counters for one cache handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Program artifacts served from disk.
    pub artifact_hits: u64,
    /// Artifact probes that found no usable file.
    pub artifact_misses: u64,
    /// Artifact files refused (corrupt, truncated, wrong version…).
    pub artifact_rejects: u64,
    /// Program artifacts written.
    pub artifact_stores: u64,
    /// Stitched instances served from disk.
    pub instance_hits: u64,
    /// Instance probes that found no usable file.
    pub instance_misses: u64,
    /// Instance files refused (corrupt or failing re-validation).
    pub instance_rejects: u64,
    /// Stitched instances written.
    pub instance_stores: u64,
    /// Stores skipped because another writer held the file lock.
    pub lock_skips: u64,
}

/// One refused or failed cache interaction, kept for diagnostics.
#[derive(Debug, Clone)]
pub struct PersistIncident {
    /// `"artifact"` or `"instance"`.
    pub kind: &'static str,
    /// The file involved.
    pub path: String,
    /// Human-readable cause.
    pub reason: String,
}

/// Outcome of a store attempt.
#[derive(Debug)]
pub(crate) enum StoreOutcome {
    /// Written (or deliberately torn under fault injection).
    Stored,
    /// Another writer held the lock; skipped.
    LockBusy,
    /// An I/O error; the cache stays warm-miss for this key.
    Failed(String),
}

/// Result of probing for a stitched instance.
pub(crate) enum InstanceProbe {
    /// No usable file (absent, or a key-hash collision).
    Miss,
    /// A file existed but was refused; it has been removed.
    Reject(String),
    /// A structurally valid instance, pending engine re-validation.
    Hit(Box<LoadedInstance>),
}

/// A handle on one on-disk cache root. Cheap to clone via `Arc`; all
/// counters are shared across clones of the same handle.
#[derive(Debug)]
pub struct PersistentCache {
    root: PathBuf,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    artifact_rejects: AtomicU64,
    artifact_stores: AtomicU64,
    instance_hits: AtomicU64,
    instance_misses: AtomicU64,
    instance_rejects: AtomicU64,
    instance_stores: AtomicU64,
    lock_skips: AtomicU64,
    incidents: Mutex<VecDeque<PersistIncident>>,
}

impl PersistentCache {
    /// Open (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    /// Propagates directory-creation failures; an unwritable root is a
    /// configuration error the caller should surface, unlike the
    /// per-file degradation handled internally.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("artifacts"))?;
        fs::create_dir_all(root.join("stitched"))?;
        Ok(PersistentCache {
            root,
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            artifact_rejects: AtomicU64::new(0),
            artifact_stores: AtomicU64::new(0),
            instance_hits: AtomicU64::new(0),
            instance_misses: AtomicU64::new(0),
            instance_rejects: AtomicU64::new(0),
            instance_stores: AtomicU64::new(0),
            lock_skips: AtomicU64::new(0),
            incidents: Mutex::new(VecDeque::new()),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            artifact_rejects: self.artifact_rejects.load(Ordering::Relaxed),
            artifact_stores: self.artifact_stores.load(Ordering::Relaxed),
            instance_hits: self.instance_hits.load(Ordering::Relaxed),
            instance_misses: self.instance_misses.load(Ordering::Relaxed),
            instance_rejects: self.instance_rejects.load(Ordering::Relaxed),
            instance_stores: self.instance_stores.load(Ordering::Relaxed),
            lock_skips: self.lock_skips.load(Ordering::Relaxed),
        }
    }

    /// Recent incidents (bounded ring, newest last).
    pub fn incidents(&self) -> Vec<PersistIncident> {
        match self.incidents.lock() {
            Ok(g) => g.iter().cloned().collect(),
            Err(p) => p.into_inner().iter().cloned().collect(),
        }
    }

    fn note_incident(&self, kind: &'static str, path: &Path, reason: String) {
        let mut g = match self.incidents.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if g.len() >= INCIDENT_CAP {
            g.pop_front();
        }
        g.push_back(PersistIncident {
            kind,
            path: path.display().to_string(),
            reason,
        });
    }

    /// Record an injected-fault instance rejection (the engine discards
    /// the loaded instance itself; this keeps the counters honest).
    pub(crate) fn note_injected_instance_reject(&self, detail: &str) {
        self.instance_rejects.fetch_add(1, Ordering::Relaxed);
        self.note_incident("instance", &self.root, detail.to_string());
    }

    /// Record an injected lock-contention store skip.
    pub(crate) fn note_lock_skip(&self) {
        self.lock_skips.fetch_add(1, Ordering::Relaxed);
    }

    fn artifact_path(&self, hash: u64) -> PathBuf {
        self.root
            .join("artifacts")
            .join(format!("{hash:016x}.dyna"))
    }

    fn instance_path(&self, artifact_hash: u64, region: u16, key: &[u64]) -> PathBuf {
        let mut h = dyncomp_ir::fnv::Fnv::new();
        h.u64(u64::from(region));
        for &k in key {
            h.u64(k);
        }
        let keyhash = h.finish();
        self.root
            .join("stitched")
            .join(format!("{artifact_hash:016x}"))
            .join(format!("r{region}-k{keyhash:016x}.dyns"))
    }

    // -----------------------------------------------------------------
    // Program artifacts.

    /// Load the artifact for `hash`, or `None` (absent, or refused — in
    /// which case the bad file is removed and an incident recorded).
    pub fn load_program(&self, hash: u64) -> Option<Program> {
        let path = self.artifact_path(hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.artifact_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                self.reject_artifact(&path, format!("read failed: {e}"));
                return None;
            }
        };
        let payload = match format::decode_file(format::KIND_ARTIFACT, &bytes) {
            Ok(p) => p,
            Err(e) => {
                self.reject_artifact(&path, e.to_string());
                return None;
            }
        };
        match codec::read_program(&mut Reader::new(payload), hash) {
            Ok(p) => {
                self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            Err(e) => {
                self.reject_artifact(&path, e.to_string());
                None
            }
        }
    }

    fn reject_artifact(&self, path: &Path, reason: String) {
        self.artifact_rejects.fetch_add(1, Ordering::Relaxed);
        self.note_incident("artifact", path, reason);
        let _ = fs::remove_file(path);
    }

    /// Write `p` to the cache. Failures degrade to an incident; the
    /// program in memory is unaffected either way.
    pub fn store_program(&self, p: &Program) {
        let path = self.artifact_path(p.artifact_hash());
        let guard = match format::try_lock(&path) {
            Ok(Some(g)) => g,
            Ok(None) => {
                self.lock_skips.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(e) => {
                self.note_incident("artifact", &path, format!("lock failed: {e}"));
                return;
            }
        };
        let mut w = Writer::new();
        codec::write_program(&mut w, p);
        let image = format::encode_file(format::KIND_ARTIFACT, &w.into_bytes());
        match format::atomic_write(&path, &image, false) {
            Ok(()) => {
                self.artifact_stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.note_incident("artifact", &path, format!("write failed: {e}"));
            }
        }
        drop(guard);
    }

    /// Compile `src` through the cache: a valid cached artifact for
    /// `(src, options)` is loaded (skipping compilation entirely);
    /// otherwise `compiler` runs and the result is stored for next time.
    /// Returns the program and whether it came from disk.
    ///
    /// # Errors
    /// Only compilation errors propagate; cache trouble degrades to a
    /// cold compile.
    pub fn load_or_compile(
        &self,
        compiler: &Compiler,
        src: &str,
    ) -> Result<(Program, bool), Error> {
        let hash = compiler.artifact_hash(src);
        if let Some(p) = self.load_program(hash) {
            return Ok((p, true));
        }
        let p = compiler.compile(src)?;
        self.store_program(&p);
        Ok((p, false))
    }

    // -----------------------------------------------------------------
    // Stitched instances.

    /// Probe for a stitched instance. A `Hit` is structurally valid but
    /// the engine must still `verify_code` (and replay reads, for
    /// unkeyed regions) before installing it.
    pub(crate) fn load_instance(
        &self,
        artifact_hash: u64,
        region: u16,
        key: &[u64],
    ) -> InstanceProbe {
        let path = self.instance_path(artifact_hash, region, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.instance_misses.fetch_add(1, Ordering::Relaxed);
                return InstanceProbe::Miss;
            }
            Err(e) => return self.reject_instance(&path, format!("read failed: {e}")),
        };
        let payload = match format::decode_file(format::KIND_INSTANCE, &bytes) {
            Ok(p) => p,
            Err(e) => return self.reject_instance(&path, e.to_string()),
        };
        match codec::read_instance(&mut Reader::new(payload), artifact_hash, region, key) {
            Ok(Some(inst)) => {
                self.instance_hits.fetch_add(1, Ordering::Relaxed);
                InstanceProbe::Hit(Box::new(inst))
            }
            // A key-hash collision: a different instance legitimately
            // owns this file name. Leave it alone.
            Ok(None) => {
                self.instance_misses.fetch_add(1, Ordering::Relaxed);
                InstanceProbe::Miss
            }
            Err(e) => self.reject_instance(&path, e.to_string()),
        }
    }

    fn reject_instance(&self, path: &Path, reason: String) -> InstanceProbe {
        self.instance_rejects.fetch_add(1, Ordering::Relaxed);
        self.note_incident("instance", path, reason.clone());
        let _ = fs::remove_file(path);
        InstanceProbe::Reject(reason)
    }

    /// Store one stitched instance. `torn` (fault injection) writes a
    /// deliberately truncated image to model a crash mid-store.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store_instance(
        &self,
        artifact_hash: u64,
        region: u16,
        key: &[u64],
        stitched: &Stitched,
        install_base: u32,
        native: Option<&dyncomp_native::Artifact>,
        torn: bool,
    ) -> StoreOutcome {
        let path = self.instance_path(artifact_hash, region, key);
        if let Some(dir) = path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                return StoreOutcome::Failed(format!("create dir failed: {e}"));
            }
        }
        let guard = match format::try_lock(&path) {
            Ok(Some(g)) => g,
            Ok(None) => {
                self.lock_skips.fetch_add(1, Ordering::Relaxed);
                return StoreOutcome::LockBusy;
            }
            Err(e) => return StoreOutcome::Failed(format!("lock failed: {e}")),
        };
        let mut w = Writer::new();
        codec::write_instance(
            &mut w,
            artifact_hash,
            region,
            key,
            stitched,
            install_base,
            native,
        );
        let image = format::encode_file(format::KIND_INSTANCE, &w.into_bytes());
        let out = match format::atomic_write(&path, &image, torn) {
            Ok(()) => {
                self.instance_stores.fetch_add(1, Ordering::Relaxed);
                StoreOutcome::Stored
            }
            Err(e) => StoreOutcome::Failed(format!("write failed: {e}")),
        };
        drop(guard);
        if let StoreOutcome::Failed(reason) = &out {
            self.note_incident("instance", &path, reason.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dyncomp-persist-{tag}-{}", std::process::id()))
    }

    const SRC: &str = "int poly(int c, int x) {
        dynamicRegion (c) {
            return c * x * x + c * x + c;
        }
    }";

    #[test]
    fn artifact_round_trip_hits_and_options_key_the_hash() {
        let dir = tmp("artifact");
        let _ = fs::remove_dir_all(&dir);
        let cache = PersistentCache::open(&dir).unwrap();
        let compiler = Compiler::new();
        let (cold, hit) = cache.load_or_compile(&compiler, SRC).unwrap();
        assert!(!hit);
        let (warm, hit) = cache.load_or_compile(&compiler, SRC).unwrap();
        assert!(hit);
        assert_eq!(warm.artifact_hash(), cold.artifact_hash());
        let mut other = Compiler::new();
        other.options.inline.depth = 2;
        assert_ne!(other.artifact_hash(SRC), compiler.artifact_hash(SRC));
        let s = cache.stats();
        assert_eq!(
            (s.artifact_hits, s.artifact_misses, s.artifact_stores),
            (1, 1, 1)
        );
        assert_eq!(s.artifact_rejects, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_degrades_to_recompile_with_incident() {
        let dir = tmp("corrupt");
        let _ = fs::remove_dir_all(&dir);
        let cache = PersistentCache::open(&dir).unwrap();
        let compiler = Compiler::new();
        let (p, _) = cache.load_or_compile(&compiler, SRC).unwrap();
        let path = cache.artifact_path(p.artifact_hash());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_program(p.artifact_hash()).is_none());
        assert_eq!(cache.stats().artifact_rejects, 1);
        assert!(!path.exists(), "refused file should be removed");
        let incidents = cache.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, "artifact");
        // Degrades cleanly: the next load_or_compile recompiles and restores.
        let (_, hit) = cache.load_or_compile(&compiler, SRC).unwrap();
        assert!(!hit);
        assert!(path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn instance_store_probe_and_collision_safety() {
        let dir = tmp("instance");
        let _ = fs::remove_dir_all(&dir);
        let cache = PersistentCache::open(&dir).unwrap();
        let stitched = Stitched {
            code: vec![5, 6],
            lin_table_addr: 0,
            lin_words: Vec::new(),
            lin_addr_patches: Vec::new(),
            lin_far_addr_patches: Vec::new(),
            exit_patches: Vec::new(),
            stats: Default::default(),
            plan_patches: Vec::new(),
            native_bytes: 0,
            reads: Vec::new(),
        };
        assert!(matches!(
            cache.load_instance(9, 0, &[1]),
            InstanceProbe::Miss
        ));
        assert!(matches!(
            cache.store_instance(9, 0, &[1], &stitched, 50, None, false),
            StoreOutcome::Stored
        ));
        match cache.load_instance(9, 0, &[1]) {
            InstanceProbe::Hit(inst) => {
                assert_eq!(inst.install_base, 50);
                assert_eq!(inst.stitched.code, vec![5, 6]);
            }
            _ => unreachable!("expected a hit"),
        }
        // A torn store leaves a file the next probe refuses, then recovers.
        assert!(matches!(
            cache.store_instance(9, 1, &[2], &stitched, 60, None, true),
            StoreOutcome::Stored
        ));
        assert!(matches!(
            cache.load_instance(9, 1, &[2]),
            InstanceProbe::Reject(_)
        ));
        assert!(matches!(
            cache.load_instance(9, 1, &[2]),
            InstanceProbe::Miss
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
