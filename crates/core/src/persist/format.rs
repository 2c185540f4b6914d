//! On-disk file format: versioned header, payload checksum, atomic
//! writes, and the advisory write lock.
//!
//! Every cache file is `header ‖ payload`:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"DYNP"
//! 4       4     format version (little-endian u32)
//! 8       1     kind   (1 = program artifact, 2 = stitched instance)
//! 9       8     payload length in bytes (little-endian u64)
//! 17      8     FNV-1a-64 checksum of the payload (little-endian u64)
//! 25      …     payload
//! ```
//!
//! Files are written crash-safely: the full contents go to a sibling
//! temporary file, which is fsync'd and then atomically renamed over the
//! destination — a reader never observes a half-written file under the
//! final name. A crash between write and rename leaves only a stray
//! temporary, which later writers simply replace. Loads treat every file
//! as untrusted input: magic, version, kind, declared length and
//! checksum are all validated before a single payload byte is decoded,
//! and every failure is a typed [`FileError`] — never a panic.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File magic.
pub(crate) const MAGIC: [u8; 4] = *b"DYNP";
/// Format version; bump on any incompatible payload change.
pub(crate) const FORMAT_VERSION: u32 = 2;
/// Header size in bytes (see the module docs for the layout).
pub(crate) const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 8;
/// Kind byte: a compiled [`crate::Program`] artifact.
pub(crate) const KIND_ARTIFACT: u8 = 1;
/// Kind byte: a stitched region instance.
pub(crate) const KIND_INSTANCE: u8 = 2;

use dyncomp_ir::fnv::fnv1a;

/// Why a cache file was refused at the framing layer.
#[derive(Debug)]
pub(crate) enum FileError {
    /// Shorter than a header.
    TooShort(usize),
    /// Wrong magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Wrong kind byte for this slot.
    BadKind(u8),
    /// Fewer payload bytes than the header declares.
    Truncated {
        /// Bytes the header declared.
        declared: u64,
        /// Bytes actually present.
        present: u64,
    },
    /// Payload checksum mismatch (bit rot or a torn write).
    Checksum,
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::TooShort(n) => write!(f, "file too short for a header ({n} bytes)"),
            FileError::BadMagic => write!(f, "bad magic"),
            FileError::BadVersion(v) => write!(f, "unknown format version {v}"),
            FileError::BadKind(k) => write!(f, "wrong kind byte {k}"),
            FileError::Truncated { declared, present } => {
                write!(
                    f,
                    "truncated payload: header declares {declared} bytes, {present} present"
                )
            }
            FileError::Checksum => write!(f, "payload checksum mismatch"),
        }
    }
}

/// Frame `payload` into a complete file image.
pub(crate) fn encode_file(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a file image and return its payload. `bytes` is untrusted:
/// every field is checked before the payload is handed to a decoder.
pub(crate) fn decode_file(expected_kind: u8, bytes: &[u8]) -> Result<&[u8], FileError> {
    if bytes.len() < HEADER_LEN {
        return Err(FileError::TooShort(bytes.len()));
    }
    if bytes[0..4] != MAGIC {
        return Err(FileError::BadMagic);
    }
    let mut four = [0u8; 4];
    four.copy_from_slice(&bytes[4..8]);
    let version = u32::from_le_bytes(four);
    if version != FORMAT_VERSION {
        return Err(FileError::BadVersion(version));
    }
    if bytes[8] != expected_kind {
        return Err(FileError::BadKind(bytes[8]));
    }
    let mut eight = [0u8; 8];
    eight.copy_from_slice(&bytes[9..17]);
    let declared = u64::from_le_bytes(eight);
    let present = (bytes.len() - HEADER_LEN) as u64;
    if declared != present {
        return Err(FileError::Truncated { declared, present });
    }
    eight.copy_from_slice(&bytes[17..25]);
    let checksum = u64::from_le_bytes(eight);
    let payload = &bytes[HEADER_LEN..];
    if fnv1a(payload) != checksum {
        return Err(FileError::Checksum);
    }
    Ok(payload)
}

/// Write `bytes` to `path` atomically: sibling temp file, fsync, rename.
///
/// With `torn` set (fault injection only) the image is deterministically
/// truncated to the header plus half the payload before the write —
/// modeling a crash after the rename was queued but before the data
/// pages hit disk. The resulting file carries a complete, valid-looking
/// header whose declared length exceeds the bytes present, so the next
/// load fails with a typed [`FileError::Truncated`].
pub(crate) fn atomic_write(path: &Path, bytes: &[u8], torn: bool) -> io::Result<()> {
    let torn_len = HEADER_LEN + (bytes.len().saturating_sub(HEADER_LEN)) / 2;
    let image = if torn {
        &bytes[..torn_len.min(bytes.len())]
    } else {
        bytes
    };
    let tmp = sibling(path, &format!(".tmp{}", std::process::id()))?;
    let mut f = fs::File::create(&tmp)?;
    f.write_all(image)?;
    f.sync_all()?;
    drop(f);
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Leave no stray temp behind a failed rename.
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The advisory per-file write lock: `<file>.lock`, taken with
/// `create_new` (atomic on every platform we target) and removed on
/// drop. Contention means another process is writing the same key — the
/// would-be writer skips its store (the other writer's bytes are just
/// as good). Purely an optimization: readers never take it, and a stale
/// lock left by a crashed process only suppresses future rewrites of
/// that one key, never correctness.
pub(crate) struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Try to take the write lock for `path`. `Ok(None)` means contended.
pub(crate) fn try_lock(path: &Path) -> io::Result<Option<LockGuard>> {
    let lock = sibling(path, ".lock")?;
    match fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&lock)
    {
        Ok(_) => Ok(Some(LockGuard { path: lock })),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(e),
    }
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> io::Result<PathBuf> {
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "cache path has no file name")
    })?;
    Ok(path.with_file_name(format!("{name}{suffix}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_every_header_fault_is_typed() {
        let payload = b"hello persistent world".to_vec();
        let image = encode_file(KIND_ARTIFACT, &payload);
        assert_eq!(decode_file(KIND_ARTIFACT, &image).unwrap(), &payload[..]);
        assert!(matches!(
            decode_file(KIND_INSTANCE, &image),
            Err(FileError::BadKind(KIND_ARTIFACT))
        ));
        let mut bad = image.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_file(KIND_ARTIFACT, &bad),
            Err(FileError::BadMagic)
        ));
        let mut bad = image.clone();
        bad[4] = 0xfe;
        assert!(matches!(
            decode_file(KIND_ARTIFACT, &bad),
            Err(FileError::BadVersion(_))
        ));
        let mut bad = image.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(
            decode_file(KIND_ARTIFACT, &bad),
            Err(FileError::Checksum)
        ));
        for n in 0..HEADER_LEN {
            assert!(matches!(
                decode_file(KIND_ARTIFACT, &image[..n]),
                Err(FileError::TooShort(_))
            ));
        }
        assert!(matches!(
            decode_file(KIND_ARTIFACT, &image[..image.len() - 1]),
            Err(FileError::Truncated { .. })
        ));
    }

    #[test]
    fn torn_write_fails_the_next_load_with_truncation() {
        let dir = std::env::temp_dir().join(format!("dyncomp-format-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dyna");
        let image = encode_file(KIND_ARTIFACT, &[7u8; 64]);
        atomic_write(&path, &image, true).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < image.len());
        assert!(matches!(
            decode_file(KIND_ARTIFACT, &on_disk),
            Err(FileError::Truncated { .. })
        ));
        atomic_write(&path, &image, false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let dir = std::env::temp_dir().join(format!("dyncomp-lock-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.dyns");
        let g = try_lock(&path).unwrap();
        assert!(g.is_some());
        assert!(try_lock(&path).unwrap().is_none());
        drop(g);
        assert!(try_lock(&path).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
