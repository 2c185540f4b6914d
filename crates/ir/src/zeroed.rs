//! Owned, zero-initialized byte regions that cost what is touched.
//!
//! [`ZeroedBytes`] backs [`crate::eval::Memory`]. A session's data memory
//! is sized for what the program *could* address (16 MiB by default) but
//! a typical run touches a few pages of it, so at or above
//! [`MAP_THRESHOLD`] the region is an anonymous private mapping whose
//! pages the kernel zero-fills on first touch; creating and dropping one
//! is O(1) instead of a `memset` of the whole image. Below the threshold
//! — and on targets without the mapping path, or when the kernel refuses
//! the mapping — the region is an ordinary `vec![0; len]`, which keeps
//! small memories (a server holds ~100k sessions of 8 KiB) off the
//! process's `vm.max_map_count` budget.
//!
//! Invariants, whichever backing is chosen:
//!
//! * the region derefs to a `[u8]` of **exactly** the requested length;
//! * the handle uniquely owns its bytes (a mapping is unmapped on drop
//!   and never shared, so `&`/`&mut` access follows the handle's own
//!   borrow);
//! * every byte reads as zero until written.
//!
//! This is the only module in the crate allowed to hold `unsafe` (the
//! crate root denies it everywhere else): the allocation path speaks raw
//! `mmap(2)`/`munmap(2)`, declared here directly so the crate adds no
//! dependency — the same arrangement as `dyncomp-native`'s code arena.

#![allow(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// Regions of at least this many bytes are mapped; smaller ones live on
/// the heap. 128 KiB is the allocator's own initial mmap threshold (so
/// nothing smaller would have been a mapping before either) and a
/// multiple of every supported page size.
pub const MAP_THRESHOLD: usize = 128 << 10;

/// Copy granularity of [`Clone`]: all-zero source chunks are skipped so
/// the copy's untouched pages stay untouched. Correctness does not
/// depend on this matching the host page size.
const PAGE: usize = 4096;

/// An owned `[u8]` of fixed length whose bytes start out zero.
pub struct ZeroedBytes(Backing);

enum Backing {
    Heap(Vec<u8>),
    Mapped(sys::Mapping),
}

impl ZeroedBytes {
    /// A region of exactly `len` zero bytes: mapped at or above
    /// [`MAP_THRESHOLD`] where the target supports it and the kernel
    /// agrees, heap-allocated otherwise.
    pub fn new(len: usize) -> Self {
        if len >= MAP_THRESHOLD {
            if let Some(mapped) = Self::mapped(len) {
                return mapped;
            }
        }
        Self::heap(len)
    }

    /// A heap-backed region regardless of size.
    pub(crate) fn heap(len: usize) -> Self {
        ZeroedBytes(Backing::Heap(vec![0; len]))
    }

    /// A mapped region regardless of size; `None` for `len == 0`, on
    /// targets without the mapping path, or if the kernel refuses.
    pub(crate) fn mapped(len: usize) -> Option<Self> {
        sys::Mapping::new(len).map(|m| ZeroedBytes(Backing::Mapped(m)))
    }
}

impl Deref for ZeroedBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Backing::Heap(v) => v,
            Backing::Mapped(m) => m.as_slice(),
        }
    }
}

impl DerefMut for ZeroedBytes {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Backing::Heap(v) => v,
            Backing::Mapped(m) => m.as_mut_slice(),
        }
    }
}

/// A fork is as sparse as its source: the copy starts as a fresh zeroed
/// region and only chunks holding a non-zero byte are written, so a
/// 16 MiB memory with three dirty pages costs three pages to clone.
impl Clone for ZeroedBytes {
    fn clone(&self) -> Self {
        const ZEROS: [u8; PAGE] = [0; PAGE];
        let mut out = ZeroedBytes::new(self.len());
        for (src, dst) in self.chunks(PAGE).zip(out.chunks_mut(PAGE)) {
            if *src != ZEROS[..src.len()] {
                dst.copy_from_slice(src);
            }
        }
        out
    }
}

/// Targets with the mapping path: the `mmap` prototype below takes
/// `off_t` as `i64` and the flag values are the generic Linux ones, which
/// holds on these architectures (not on 32-bit targets or MIPS).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use core::ffi::{c_int, c_void};
    use core::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    /// One anonymous private read-write mapping of `len` bytes.
    pub(super) struct Mapping {
        base: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `base` points at pages that this handle alone owns (a
    // private anonymous mapping, never aliased or handed out except
    // through `&self`/`&mut self` borrows) and `len` is a plain integer,
    // so moving the handle to another thread moves plain memory, and
    // sharing `&Mapping` only permits reads — the same guarantees as
    // `Box<[u8]>`.
    unsafe impl Send for Mapping {}
    // SAFETY: as above; `&Mapping` exposes only `&[u8]`.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn new(len: usize) -> Option<Mapping> {
            // A zero-length mmap is EINVAL, and a slice may span at most
            // `isize::MAX` bytes.
            if len == 0 || isize::try_from(len).is_err() {
                return None;
            }
            // SAFETY: anonymous private mapping with no requested
            // address and no file; the kernel either returns `len` bytes
            // of fresh zero-filled read-write pages or MAP_FAILED.
            let base = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base == MAP_FAILED {
                return None;
            }
            let base = NonNull::new(base.cast::<u8>())?;
            Some(Mapping { base, len })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `base..base+len` is the live read-write mapping
            // created in `new` (page-aligned, initialized to zero by the
            // kernel, `len <= isize::MAX`), owned by `self` and not
            // unmapped before `self` drops; the returned borrow is tied
            // to `&self`, so no `&mut` to the same bytes can coexist.
            unsafe { core::slice::from_raw_parts(self.base.as_ptr(), self.len) }
        }

        #[inline]
        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as in `as_slice`; `&mut self` makes the borrow
            // exclusive.
            unsafe { core::slice::from_raw_parts_mut(self.base.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `base`/`len` are exactly what `mmap` returned and
            // was asked for, and no borrow of the bytes outlives `self`.
            // A failure (which the kernel does not produce for a valid
            // whole-mapping range) would only leak the pages.
            unsafe {
                munmap(self.base.as_ptr().cast(), self.len);
            }
        }
    }
}

/// Everywhere else a mapping can never be made, so the `Mapped` variant
/// is uninhabited and every region is heap-backed.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub(super) enum Mapping {}

    impl Mapping {
        pub(super) fn new(_len: usize) -> Option<Mapping> {
            None
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            match *self {}
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            match *self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_backing_by_size_and_keeps_exact_length() {
        for len in [0, 1, 4095, MAP_THRESHOLD - 1] {
            let b = ZeroedBytes::new(len);
            assert!(matches!(b.0, Backing::Heap(_)), "len {len}");
            assert_eq!(b.len(), len);
        }
        for len in [MAP_THRESHOLD, MAP_THRESHOLD + 1, (16 << 20) + 13] {
            let b = ZeroedBytes::new(len);
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&x| x == 0));
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            assert!(matches!(b.0, Backing::Mapped(_)), "len {len}");
        }
    }

    #[test]
    fn unmappable_lengths_are_none() {
        assert!(ZeroedBytes::mapped(0).is_none());
        assert!(ZeroedBytes::mapped(usize::MAX).is_none());
    }

    #[test]
    fn region_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ZeroedBytes>();
    }
}
