//! FNV-1a-64: the workspace's one stable, dependency-free content hash.
//!
//! The persistent cache frames and names its files with it, a compiled
//! artifact's id is one, and the golden tests pin their fingerprints in
//! it. Unlike [`crate::fxhash`] its value is part of what is on disk, so
//! it never changes.

/// Incremental FNV-1a-64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The hash of no bytes.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// An empty hasher.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Fold in one byte.
    pub fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold in `bs`, in order.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.u8(b);
        }
    }

    /// Fold in `v`'s little-endian bytes.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in `v`'s little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), Fnv::OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
