//! Serialization of translated [`Artifact`]s for the persistent cache.
//!
//! Native stub bytes are pure host machine code: they are only valid on
//! the architecture/OS they were generated for, and only under the stub
//! set that generated them. Every encoded artifact therefore carries a
//! [`host_tag`] — `arch-os-vN` — and loaders must treat a tag mismatch
//! as "no native section" (re-translate locally), never as an error.
//! Bump [`NATIVE_CODE_VERSION`] whenever stub byte sequences or the
//! context-block ABI change, so stale cache files age out safely.
//!
//! The artifact's layout is a declaration ([`dyncomp_ir::codec!`]); the
//! tag in front of it is a gate, not a field, and is written out.
//!
//! Like everything read back from the persistent cache, encoded
//! artifacts are untrusted input: decoding is fully bounds-checked
//! (see [`dyncomp_machine::codec`]) and the decoded artifact is only
//! ever *installed* after the engine re-validates the instance it
//! belongs to. A bit-rotted byte that survives decoding can at worst
//! produce wrong native code for a correctly-checksummed file — which
//! the enclosing file checksum rules out before decoding starts.

use crate::translate::{Artifact, GuardArea};
use dyncomp_machine::codec::{Codec, CodecError, Reader, Writer};

/// Version of the generated code (stub set + context ABI). Part of the
/// host tag; bump on any change to emitted byte sequences.
pub const NATIVE_CODE_VERSION: u32 = 1;

/// The tag identifying code this host can execute: architecture, OS and
/// stub-set version. Cached native sections with any other tag are
/// skipped (the instance itself is still usable; the consumer simply
/// re-translates).
#[must_use]
pub fn host_tag() -> String {
    format!(
        "{}-{}-v{NATIVE_CODE_VERSION}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

dyncomp_ir::codec! {
    struct GuardArea { pc: u32, offset: u32, len: u32 }
    struct Artifact {
        bytes: Vec<u8>,
        entry_supported: bool,
        instructions: u32,
        covered: u32,
        blocks: u32,
        base: u32,
        end: u32,
        entries: Vec<(u32, u32)>,
        block_offsets: Vec<(u32, u32)>,
        exit_sites: Vec<(u32, u32)>,
        guard_areas: Vec<GuardArea>,
    }
}

/// Encode `a` behind its [`host_tag`].
pub fn write_artifact(w: &mut Writer, a: &Artifact) {
    host_tag().encode(w);
    a.encode(w);
}

/// Decode one tagged artifact. Returns `Ok(None)` when the encoded host
/// tag does not match this host (the section is simply not for us);
/// `Err` only for structural corruption.
///
/// # Errors
/// [`CodecError`] on truncation or malformed structure.
pub fn read_artifact(r: &mut Reader<'_>) -> Result<Option<Artifact>, CodecError> {
    let tag = String::decode(r)?;
    let artifact = Artifact::decode(r)?;
    Ok((tag == host_tag()).then_some(artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp_machine::codec::check_wire;

    fn sample() -> Artifact {
        Artifact {
            bytes: vec![0x90, 0xc3, 0x55],
            entry_supported: true,
            instructions: 7,
            covered: 6,
            blocks: 2,
            base: 100,
            end: 107,
            entries: vec![(100, 0), (103, 40)],
            block_offsets: vec![(100, 16), (103, 56)],
            exit_sites: vec![(99, 80)],
            guard_areas: vec![GuardArea {
                pc: 100,
                offset: 4,
                len: 24,
            }],
        }
    }

    #[test]
    fn declared_types_hold_their_wire_form() {
        check_wire(&sample().guard_areas[0]);
        check_wire(&sample());
    }

    #[test]
    fn artifact_round_trips_on_matching_host() {
        let a = sample();
        let mut w = Writer::new();
        write_artifact(&mut w, &a);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_artifact(&mut r)
            .expect("decodes")
            .expect("host tag matches");
        assert!(r.is_exhausted());
        assert_eq!(format!("{a:?}"), format!("{back:?}"));
        for n in 0..bytes.len() {
            assert!(read_artifact(&mut Reader::new(&bytes[..n])).is_err());
        }
    }

    #[test]
    fn foreign_tag_decodes_to_none() {
        let mut w = Writer::new();
        String::from("alpha-osf1-v1").encode(&mut w);
        sample().encode(&mut w);
        let foreign = w.into_bytes();
        let mut r = Reader::new(&foreign);
        assert!(read_artifact(&mut r).expect("decodes").is_none());
        assert!(r.is_exhausted());
    }
}
