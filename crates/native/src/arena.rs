//! Executable code arena: W^X pages, recycled.
//!
//! An installed artifact occupies a mapping of whole pages: its code at
//! offset 0, the rest of the last page filled with `0xCC` (`int3`). A
//! mapping goes through four steps, and at every one of them its pages
//! are either writable or executable, never both (W^X):
//!
//! * **fill** — a fresh mapping is created read-write, the code copied
//!   in, then flipped to read-execute with `mprotect`;
//! * **recycle** — a dropped mapping is not unmapped but kept, still
//!   read-execute, on a process-wide free list bounded by
//!   [`POOL_BYTES`] (the oldest idle mappings are released to make room).
//!   The next fill of a fitting size takes it instead of a fresh one:
//!   read-execute → read-write, copy, `0xCC` over the slack, read-write →
//!   read-execute. No `mmap`, no first-touch page fault, no `munmap`;
//! * **patch** — a batch of edits ([`ExecMap::patch`]) is applied under
//!   one read-write window: one flip there and one back, however many
//!   edits;
//! * **release** — the oldest idle mappings when the free list is full,
//!   and a mapping a refused reseal left writable, are unmapped.
//!
//! Only compiled on x86-64 Linux: the stubs are x86-64 encodings and
//! the allocation path speaks raw `mmap(2)`/`mprotect(2)` (declared
//! here directly so the crate adds no dependencies). Other targets get
//! an `ExecMap` that never maps, and [`crate::available`] declines the
//! backend before reaching it.

#![allow(unsafe_code)]

use crate::Patched;
use core::ffi::{c_int, c_void};
use std::sync::Mutex;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const PROT_EXEC: c_int = 0x4;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// The page size of x86-64 Linux.
const PAGE: usize = 4096;

/// Most bytes of idle mappings the process keeps for reuse; the oldest
/// are unmapped to stay within it.
pub const POOL_BYTES: usize = 1 << 20;

/// The byte that fills every mapping past its code: `int3`, so a stray
/// jump into the slack traps instead of running leftover code.
pub const SLACK_FILL: u8 = 0xCC;

/// Idle read-execute mappings, as `(address, bytes)` oldest first, and
/// their total.
struct Pool {
    maps: Vec<(usize, usize)>,
    bytes: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    maps: Vec::new(),
    bytes: 0,
});

fn pool() -> std::sync::MutexGuard<'static, Pool> {
    // The pool's invariants hold between statements; a panic elsewhere
    // while it was held leaves it consistent.
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One executable mapping holding a translated instance.
pub struct ExecMap {
    base: *mut u8,
    /// Code bytes (what was installed).
    len: usize,
    /// Mapping bytes (whole pages).
    cap: usize,
    /// Whether the pages are read-execute (false only after a refused
    /// reseal, when they are read-write).
    sealed: bool,
}

// SAFETY: `base` points to a mapping this handle alone owns (nothing on
// the free list refers to it while the handle lives); `len`, `cap` and
// `sealed` are plain values. Every write to the pages, and every change
// of their protection, takes `&mut self`; `&self` only reads the
// pages or runs the sealed code, so sharing across threads is sound.
unsafe impl Send for ExecMap {}
// SAFETY: as for `Send`.
unsafe impl Sync for ExecMap {}

impl ExecMap {
    /// Seal `bytes` into read-execute pages: a recycled mapping from the
    /// free list when one fits, fresh pages otherwise. Returns `None` if
    /// the kernel refuses the mapping or a protect flip (exhausted
    /// address space, W^X policy, locked-down seccomp).
    pub fn new(bytes: &[u8]) -> Option<ExecMap> {
        if bytes.is_empty() {
            return None;
        }
        let cap = bytes.len().div_ceil(PAGE) * PAGE;
        let mut map = match ExecMap::recycled(bytes.len(), cap) {
            Some(map) => map,
            None => ExecMap::fresh(bytes.len(), cap)?,
        };
        // SAFETY: `map` is read-write (both constructors return it so)
        // and spans `map.cap >= bytes.len()` bytes.
        unsafe {
            core::ptr::copy_nonoverlapping(bytes.as_ptr(), map.base, bytes.len());
            core::ptr::write_bytes(map.base.add(bytes.len()), SLACK_FILL, map.cap - bytes.len());
        }
        map.sealed = map.protect(PROT_READ | PROT_EXEC);
        // A mapping left writable is unmapped by `drop`, never recycled.
        map.sealed.then_some(map)
    }

    /// Take the smallest idle mapping of `cap..=2 * cap` bytes off the
    /// free list, the most recently dropped among equals, and make it
    /// writable.
    fn recycled(len: usize, cap: usize) -> Option<ExecMap> {
        let (addr, bytes) = {
            let mut pool = pool();
            let (i, _) = pool
                .maps
                .iter()
                .enumerate()
                .rev()
                .filter(|&(_, &(_, b))| b >= cap && b <= 2 * cap)
                .min_by_key(|&(_, &(_, b))| b)?;
            let taken = pool.maps.remove(i);
            pool.bytes -= taken.1;
            taken
        };
        let mut map = ExecMap {
            base: addr as *mut u8,
            len,
            cap: bytes,
            sealed: true,
        };
        if !map.protect(PROT_READ | PROT_WRITE) {
            // Still sealed: `drop` returns it to the free list.
            return None;
        }
        map.sealed = false;
        Some(map)
    }

    /// Map `cap` fresh read-write bytes.
    fn fresh(len: usize, cap: usize) -> Option<ExecMap> {
        // SAFETY: anonymous private mapping with no requested address;
        // the kernel either returns fresh pages or MAP_FAILED.
        let base = unsafe {
            mmap(
                core::ptr::null_mut(),
                cap,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base == MAP_FAILED || base.is_null() {
            return None;
        }
        Some(ExecMap {
            base: base.cast(),
            len,
            cap,
            sealed: false,
        })
    }

    /// Set the whole mapping's protection; whether the kernel agreed.
    fn protect(&mut self, prot: c_int) -> bool {
        // SAFETY: `base..base + cap` is exactly the mapping this handle
        // owns.
        unsafe { mprotect(self.base.cast(), self.cap, prot) == 0 }
    }

    /// Back-patch every `(offset, bytes)` edit into the sealed code under
    /// one read-write window: the mapping is flipped read-execute →
    /// read-write, every edit is copied, and it is flipped back before
    /// control can re-enter it. Edits are checked against the code first;
    /// one out of range refuses the whole batch.
    pub fn patch(&mut self, edits: &[(usize, &[u8])]) -> Patched {
        self.write(edits, true)
    }

    /// [`ExecMap::patch`] with the reseal left out: the edits land and the
    /// pages stay read-write, exactly as a refused reseal leaves them.
    /// Exists so tests can drive the [`Patched::Unsealed`] path.
    #[doc(hidden)]
    pub fn patch_without_reseal(&mut self, edits: &[(usize, &[u8])]) -> Patched {
        self.write(edits, false)
    }

    fn write(&mut self, edits: &[(usize, &[u8])], reseal: bool) -> Patched {
        let in_range = |&(off, b): &(usize, &[u8])| {
            !b.is_empty() && off.checked_add(b.len()).is_some_and(|end| end <= self.len)
        };
        if !self.sealed || edits.is_empty() || !edits.iter().all(in_range) {
            return Patched::Refused;
        }
        // Flipping writable is safe because no generated code is running:
        // the engine only patches between dispatches, on this thread.
        if !self.protect(PROT_READ | PROT_WRITE) {
            return Patched::Refused;
        }
        self.sealed = false;
        for &(off, bytes) in edits {
            // SAFETY: `off + bytes.len() <= len <= cap`, checked above,
            // and the mapping is writable.
            unsafe {
                core::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base.add(off), bytes.len());
            }
        }
        self.sealed = reseal && self.protect(PROT_READ | PROT_EXEC);
        if self.sealed {
            Patched::Applied
        } else {
            Patched::Unsealed
        }
    }

    /// Entry point of the sealed code (offset 0).
    pub fn entry(&self) -> *const u8 {
        self.base
    }

    /// Code length in bytes: what was installed, not the page-rounded
    /// mapping ([`ExecMap::capacity`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a live handle).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mapping length in bytes: whole pages, the code then the `0xCC`
    /// slack.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The whole mapping, code and slack, as bytes. Every page is always
    /// readable, whichever of write or execute it holds.
    pub fn mapped(&self) -> &[u8] {
        // SAFETY: `base..base + cap` is the readable mapping this handle
        // owns; writes need `&mut self`, so none happens while the slice
        // lives.
        unsafe { core::slice::from_raw_parts(self.base, self.cap) }
    }

    /// Bytes of idle mappings the free list holds right now (at most
    /// [`POOL_BYTES`]).
    pub fn pooled_bytes() -> usize {
        pool().bytes
    }
}

/// Give `len` bytes at `addr` back to the kernel.
fn unmap(addr: usize, len: usize) {
    // SAFETY: callers pass a whole mapping that nothing refers to any
    // more (a dropped handle's, or one just taken off the free list).
    unsafe {
        munmap(addr as *mut c_void, len);
    }
}

impl Drop for ExecMap {
    fn drop(&mut self) {
        let (addr, cap) = (self.base as usize, self.cap);
        if !self.sealed || cap > POOL_BYTES {
            unmap(addr, cap);
            return;
        }
        // Make room by releasing the oldest idle mappings: the newest is
        // the likeliest to fit the next fill.
        let mut pool = pool();
        while pool.bytes + cap > POOL_BYTES {
            let (old, bytes) = pool.maps.remove(0);
            pool.bytes -= bytes;
            unmap(old, bytes);
        }
        pool.bytes += cap;
        pool.maps.push((addr, cap));
    }
}
