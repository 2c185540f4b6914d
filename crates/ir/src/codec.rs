//! One wire form per persisted type.
//!
//! The persistent artifact cache serializes compiled state — code
//! words, template trees, stitched patch tables, native stub bytes — to
//! disk and must treat everything it reads back as **untrusted input**:
//! a corrupt or adversarial file may contain any byte sequence. A type
//! states its on-disk layout once, as a [`Codec`] impl, and almost always
//! as one [`codec!`](crate::codec!) declaration: a struct is its fields
//! in order, an enum is a tag byte followed by the chosen variant's
//! fields in order. Encoder, decoder and the fewest bytes a value can
//! occupy ([`Codec::MIN_BYTES`]) all come from that one declaration, so
//! `decode(encode(x)) == x` holds by construction and encoding is
//! deterministic (fixed-width little-endian fields, no padding): the
//! checksum of a cache file is reproducible across runs.
//!
//! The [`Reader`] never panics and never trusts a length field. Every
//! read is bounds-checked against the remaining input, every failure is
//! a typed [`CodecError`] naming the offset, and `Vec<T>::decode` — the
//! one caller of [`Reader::len`] — refuses a length prefix that
//! `T::MIN_BYTES` says cannot fit in the bytes present before it
//! allocates anything.
//!
//! The trait lives here, below every crate that owns a persisted type,
//! so each owner can declare its own wire form (the orphan rule);
//! `dyncomp_machine::codec` re-exports it beside the template model's
//! declarations. What is *not* a layout stays hand-written, in the three
//! files that own it:
//!
//! * `dyncomp_machine::codec` — `LoopMarker`, which shares one tag byte
//!   with the `None` of the `Option` it is stored in;
//! * `dyncomp_native::codec` — `write_artifact` / `read_artifact`, the
//!   host-tag gate in front of an `Artifact`;
//! * `dyncomp::persist::codec` — `write_program` / `read_program` and
//!   `write_instance` / `read_instance`: the identity checks (hash,
//!   region, a key mismatch is `Ok(None)`, trailing bytes), the function
//!   stubs rebuilt from their names, and the calls that check what a
//!   layout cannot — that every label, code address, trap operand and
//!   function index a decoded file carries names something that exists
//!   (`CompiledModule::check_refs`, `Stitched::patches_in_range`).

use std::fmt;

/// A decode failure: the byte offset where decoding stopped and what
/// was being decoded. Untrusted input makes these routine, not
/// exceptional — callers degrade to a cache miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset in the input where the failure was detected.
    pub at: usize,
    /// What the decoder was reading.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode failed at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes.
    pub fn put(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a `u32` length prefix and the elements of `s`: the wire
    /// form of a `Vec<T>`, for callers that hold a slice.
    pub fn seq<T: Codec>(&mut self, s: &[T]) {
        (s.len() as u32).encode(self);
        T::encode_slice(s, self);
    }
}

/// A validating read by byte offset; [`check_wire`] has a reader keep them.
#[derive(Clone, Copy)]
enum Mark {
    /// A `u32` collection length prefix starts here.
    Len(usize),
    /// A tag (or bool) byte sits here.
    Tag(usize),
}

/// A bounds-checked cursor over untrusted bytes.
pub struct Reader<'a> {
    b: &'a [u8],
    at: usize,
    marks: Option<Vec<Mark>>,
}

impl<'a> Reader<'a> {
    /// A reader over `b`, positioned at the start.
    #[must_use]
    pub fn new(b: &'a [u8]) -> Self {
        Reader {
            b,
            at: 0,
            marks: None,
        }
    }

    /// The current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.at
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.at
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.at == self.b.len()
    }

    /// A [`CodecError`] at the current offset.
    #[must_use]
    pub fn err(&self, what: &'static str) -> CodecError {
        CodecError { at: self.at, what }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    /// [`CodecError`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err(what));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read a tag byte. The caller matches it and reports an unused
    /// value with [`Reader::bad_tag`].
    ///
    /// # Errors
    /// [`CodecError`] at end of input.
    pub fn tag(&mut self) -> Result<u8, CodecError> {
        if let Some(m) = &mut self.marks {
            m.push(Mark::Tag(self.at));
        }
        Ok(self.take(1, "tag byte")?[0])
    }

    /// The error for the tag byte just read.
    #[must_use]
    pub fn bad_tag(&self, what: &'static str) -> CodecError {
        CodecError {
            at: self.at - 1,
            what,
        }
    }

    /// Read a collection length prefix and validate it against the
    /// bytes actually remaining (`min_elem_bytes` per element), so a
    /// hostile length can never drive a huge allocation.
    ///
    /// # Errors
    /// [`CodecError`] on truncation or an impossible length.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        if let Some(m) = &mut self.marks {
            m.push(Mark::Len(self.at));
        }
        let n = u32::decode(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(self.err("collection length"));
        }
        Ok(n)
    }
}

/// A type with exactly one wire form.
pub trait Codec: Sized {
    /// The fewest bytes any value occupies: what [`Reader::len`] holds a
    /// length prefix against.
    const MIN_BYTES: usize;

    /// Append `self`.
    fn encode(&self, w: &mut Writer);

    /// Decode one value from untrusted bytes.
    ///
    /// # Errors
    /// [`CodecError`] on any structural problem.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Append the elements of a `Vec<Self>` (after its length prefix).
    /// `u8` overrides the pair to move a blob in one copy, in the manner
    /// of `Hash::hash_slice`.
    fn encode_slice(s: &[Self], w: &mut Writer) {
        for x in s {
            x.encode(w);
        }
    }

    /// Decode the `n` elements of a `Vec<Self>`; `n` has been checked.
    fn decode_vec(n: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Append an `Option<Self>`: a tag byte 0, or 1 and the value. An
    /// enum whose own tags leave 0 free overrides the pair to store
    /// `None` in its tag byte.
    fn encode_opt(v: Option<&Self>, w: &mut Writer) {
        match v {
            None => w.put(&[0]),
            Some(x) => {
                w.put(&[1]);
                x.encode(w);
            }
        }
    }

    /// Decode an `Option<Self>`.
    fn decode_opt(r: &mut Reader<'_>) -> Result<Option<Self>, CodecError> {
        match r.tag()? {
            0 => Ok(None),
            1 => Ok(Some(Self::decode(r)?)),
            _ => Err(r.bad_tag("option tag")),
        }
    }
}

macro_rules! le_ints {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn encode(&self, w: &mut Writer) {
                w.put(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let mut le = [0u8; Self::MIN_BYTES];
                le.copy_from_slice(r.take(Self::MIN_BYTES, stringify!($t))?);
                Ok(<$t>::from_le_bytes(le))
            }
        }
    )*};
}
le_ints!(u16, u32, u64, i32, i64);

impl Codec for u8 {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.put(&[*self]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1, "u8")?[0])
    }
    fn encode_slice(s: &[u8], w: &mut Writer) {
        w.put(s);
    }
    fn decode_vec(n: usize, r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(n, "byte-vector bytes")?.to_vec())
    }
}

/// A count: a `u64` on disk whatever the host's word size.
impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::decode(r)? as usize)
    }
}

/// One byte, 0 or 1: a bit-rotted flag must not silently normalize.
impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.put(&[u8::from(*self)]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.bad_tag("bool byte")),
        }
    }
}

/// A `u32` length prefix, then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.seq(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len(T::MIN_BYTES)?;
        T::decode_vec(n, r)
    }
}

/// A byte vector that must be UTF-8.
impl Codec for String {
    const MIN_BYTES: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.seq(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.offset();
        String::from_utf8(Vec::decode(r)?).map_err(|_| CodecError {
            at,
            what: "string utf-8",
        })
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        T::encode_opt(self.as_ref(), w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode_opt(r)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// The least of `xs` (0 when empty), for an enum's [`Codec::MIN_BYTES`].
#[doc(hidden)]
#[must_use]
pub const fn min_of(xs: &[usize]) -> usize {
    let mut least = if xs.is_empty() { 0 } else { xs[0] };
    let mut i = 1;
    while i < xs.len() {
        if xs[i] < least {
            least = xs[i];
        }
        i += 1;
    }
    least
}

/// Declare types' wire forms, in the crate that owns the types.
///
/// ```
/// # #[derive(Debug)] struct Fixup { at: u32, target: u32 }
/// # #[derive(Debug)] enum Loc { Reg(u8), Frame { off: i32 }, Nowhere }
/// dyncomp_ir::codec! {
///     // A struct is its fields in order (`0`, `1`… name tuple fields).
///     struct Fixup { at: u32, target: u32 }
///     // An enum is a tag byte, then the chosen variant's fields in order.
///     enum Loc: "loc tag" { 0 => Reg(r: u8), 1 => Frame { off: i32 }, 2 => Nowhere }
/// }
/// dyncomp_ir::codec::check_wire(&Fixup { at: 1, target: 2 });
/// dyncomp_ir::codec::check_wire(&Loc::Frame { off: -8 });
/// ```
///
/// A trailing `; skip a, b` names struct fields that are not persisted
/// and decode as `Default::default()`.
#[macro_export]
macro_rules! codec {
    () => {};
    (struct $name:ident { $($f:tt : $t:ty),* $(,)? $(; skip $($skip:ident),+)? } $($rest:tt)*) => {
        const _: () = {
            use $crate::codec::{Codec, CodecError, Reader, Writer};
            impl Codec for $name {
                const MIN_BYTES: usize = 0 $(+ <$t>::MIN_BYTES)*;
                fn encode(&self, w: &mut Writer) {
                    $(self.$f.encode(w);)*
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok($name {
                        $($f: <$t>::decode(r)?,)*
                        $($($skip: Default::default(),)+)?
                    })
                }
            }
        };
        $crate::codec! { $($rest)* }
    };
    (enum $name:ident : $what:literal { $(
        $tag:literal => $v:ident
            $(( $($tb:ident : $tt:ty),+ ))?
            $({ $($nf:ident : $nt:ty),+ })?
    ),* $(,)? } $($rest:tt)*) => {
        const _: () = {
            use $crate::codec::{min_of, Codec, CodecError, Reader, Writer};
            impl Codec for $name {
                const MIN_BYTES: usize = 1 + min_of(&[$(
                    0 $($(+ <$tt>::MIN_BYTES)+)? $($(+ <$nt>::MIN_BYTES)+)?
                ),*]);
                fn encode(&self, w: &mut Writer) {
                    match self {$(
                        Self::$v $(( $($tb),+ ))? $({ $($nf),+ })? => {
                            w.put(&[$tag]);
                            $($($tb.encode(w);)+)?
                            $($($nf.encode(w);)+)?
                        }
                    )*}
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    match r.tag()? {
                        $($tag => Ok(Self::$v
                            $(( $(<$tt>::decode(r)?),+ ))?
                            $({ $($nf: <$nt>::decode(r)?),+ })?
                        ),)*
                        _ => Err(r.bad_tag($what)),
                    }
                }
            }
        };
        $crate::codec! { $($rest)* }
    };
}

/// Check the wire form of `sample`, for the test module of every crate
/// that declares one:
///
/// * the value round-trips (`Debug` equality) and consumes its encoding;
/// * every strict prefix of the encoding is an error;
/// * every length prefix rewritten to one more than the bytes behind it,
///   or to `u32::MAX`, is refused by the length check itself — that is,
///   before anything is allocated;
/// * every tag byte set to a value no type uses is an error at that byte.
///
/// # Panics
/// When any of those does not hold.
pub fn check_wire<T: Codec + fmt::Debug>(sample: &T) {
    let mut w = Writer::new();
    sample.encode(&mut w);
    let bytes = w.into_bytes();
    assert!(
        bytes.len() >= T::MIN_BYTES,
        "MIN_BYTES overstates {sample:?}"
    );

    let mut r = Reader {
        marks: Some(Vec::new()),
        ..Reader::new(&bytes)
    };
    let back = T::decode(&mut r).expect("round trip");
    assert!(r.is_exhausted(), "decode left bytes behind");
    assert_eq!(format!("{sample:?}"), format!("{back:?}"));
    let marks = r.marks.unwrap_or_default();

    for n in 0..bytes.len() {
        let got = T::decode(&mut Reader::new(&bytes[..n]));
        assert!(got.is_err(), "truncation to {n} bytes decoded");
    }
    for mark in marks {
        let mut bad = bytes.clone();
        match mark {
            Mark::Len(at) => {
                let behind = bytes.len() - (at + 4);
                for hostile in [behind as u32 + 1, u32::MAX] {
                    bad[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
                    let err = T::decode(&mut Reader::new(&bad)).expect_err("hostile length");
                    assert_eq!((err.at, err.what), (at + 4, "collection length"));
                }
            }
            Mark::Tag(at) => {
                bad[at] = 0xff;
                let err = T::decode(&mut Reader::new(&bad)).expect_err("unused tag");
                assert_eq!(err.at, at, "{}", err.what);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_containers_hold_their_wire_form() {
        check_wire(&(0x1234u16, -5i32));
        check_wire(&(u64::MAX, i64::MIN));
        check_wire(&(7usize, true));
        check_wire(&vec![1u8, 2, 3]);
        check_wire(&vec![(1u32, 2u32), (3, 4)]);
        check_wire(&vec![Some(String::from("héllo")), None]);
        check_wire(&vec![vec![9u64], vec![]]);
    }

    #[test]
    fn wire_bytes_are_little_endian_with_u32_lengths() {
        let mut w = Writer::new();
        vec![0x0102u16].encode(&mut w);
        assert_eq!(w.into_bytes(), [1, 0, 0, 0, 2, 1]);
        let mut w = Writer::new();
        (Some(String::from("a")), 7usize).encode(&mut w);
        assert_eq!(
            w.into_bytes(),
            [1, 1, 0, 0, 0, b'a', 7, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let err = String::decode(&mut Reader::new(&[1, 0, 0, 0, 0xff])).unwrap_err();
        assert_eq!((err.at, err.what), (0, "string utf-8"));
    }

    #[test]
    fn bool_rejects_rotted_bytes() {
        let err = bool::decode(&mut Reader::new(&[2])).unwrap_err();
        assert_eq!((err.at, err.what), (0, "bool byte"));
    }

    #[test]
    fn an_enum_is_as_short_as_its_shortest_variant() {
        assert_eq!(min_of(&[]), 0);
        assert_eq!(min_of(&[4, 1, 9]), 1);
        assert_eq!(<Vec<(u64, u64)>>::MIN_BYTES, 4);
        assert_eq!(<(u64, Option<u32>)>::MIN_BYTES, 9);
    }
}
