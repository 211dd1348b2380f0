//! Deterministic byte-level snapshot codec.
//!
//! Checkpoint/restore threads an explicit, versioned state contract
//! through every stateful layer of the simulator. The codec here is
//! deliberately primitive: little-endian fixed-width integers, length-
//! prefixed strings, and nothing self-describing — determinism and
//! auditability beat flexibility for a simulation snapshot. Two rules
//! keep snapshots *bit-exact* across a checkpoint → restore → checkpoint
//! round trip:
//!
//! 1. **Canonical order.** Containers whose in-memory layout is not
//!    unique (binary heaps, ring buffers, hash sets) are encoded in a
//!    canonical order (sorted, or oldest-first) so that two states that
//!    are observably equal encode identically.
//! 2. **No derived state.** Anything recomputable from encoded fields
//!    (heap shapes, scratch buffers, interned pointers) is rebuilt on
//!    restore, never serialized.
//!
//! Every checkpoint — one system, a fleet, a CLI run — is one
//! [`Container`]: the [`MAGIC`], [`FORMAT_VERSION`] and a section count,
//! then `(tag: u8, len: u64, bytes)` sections. A
//! [`SectionTag::System`] section opens with the configuration
//! fingerprint; a [`SectionTag::Drive`] section holds the state of the
//! CLI drive. [`Container::parse`] is the one decoder of that header
//! and table: a different format fails loudly with a [`PersistError`]
//! instead of silently misinterpreting bytes.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;
use std::sync::OnceLock;

use crate::time::{Freq, Ps};

/// Magic bytes opening every checkpoint container.
pub const MAGIC: [u8; 8] = *b"VAPRESCK";

/// Current snapshot format version. Bump on any encoding change.
/// v2: a time-series sampler slot follows the word trace.
/// v3: per-route work counters in the fabric encoding, and a
/// self-profiler work-unit slot after the time-series sampler.
/// v4: the ICAP encodes a pushed-word counter, and a staged-bitstream
/// cache slot follows the self-profiler work units.
/// v5: the header carries a section count and the image moves into a
/// tagged section (fingerprint and system body bytes unchanged); fleet
/// and CLI checkpoints are containers of the same format.
/// v6: the executor encodes its tick counters per component instead of
/// per domain; the system encodes swap-step, CF-byte and SDRAM-byte
/// counters after the isolated-write count and no longer carries a
/// self-profiler slot (the profiler's work rows are a view of these
/// counters).
pub const FORMAT_VERSION: u32 = 6;

/// An error from decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream ended before the expected structure completed.
    UnexpectedEof,
    /// The stream does not begin with [`MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version carried by the snapshot.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The snapshot was taken under a different system configuration.
    FingerprintMismatch {
        /// Fingerprint carried by the snapshot.
        found: u64,
        /// Fingerprint of the configuration being restored into.
        expected: u64,
    },
    /// A field decoded to a value the target type rejects.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "snapshot truncated"),
            PersistError::BadMagic => write!(f, "not a vapres snapshot (bad magic)"),
            PersistError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} incompatible with this build (expects {expected})"
            ),
            PersistError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match the \
                 restoring configuration ({expected:#018x})"
            ),
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Appends primitive values to a growing byte buffer, little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to 8 bytes.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` by bit pattern — exact, including NaN payloads.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Starts a [`Container`] of `sections` sections: magic, format
    /// version and section count. Append exactly that many
    /// [`section`](Self::section)s.
    pub fn container(sections: u32) -> Self {
        let mut w = Writer::new();
        w.put_raw(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(sections);
        w
    }

    /// Appends one container section: the tag, then the bytes `body`
    /// writes, length-prefixed. The length is back-patched, so a body
    /// is encoded straight into this buffer and never copied.
    pub fn section(&mut self, tag: SectionTag, body: impl FnOnce(&mut Writer)) {
        tag.persist(self);
        let at = self.buf.len();
        self.put_u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Reads primitive values back out of a snapshot byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::UnexpectedEof)?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn take_u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as 8 bytes).
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if the value exceeds this platform's
    /// `usize` (only possible on 32-bit hosts).
    pub fn take_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Corrupt(format!("length {v} exceeds platform usize")))
    }

    /// Reads a bool; any byte other than 0 or 1 is corruption.
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt(format!("bool byte {other:#04x}"))),
        }
    }

    /// Reads an `f64` by bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_string(&mut self) -> Result<String, PersistError> {
        let len = self.take_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| PersistError::Corrupt(format!("invalid utf-8 string: {e}")))
    }

    /// Reads a length-prefixed byte vector.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let len = self.take_usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n)
    }

    /// Asserts the stream is fully consumed — trailing garbage means the
    /// encoder and decoder disagree about the format.
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )))
        }
    }
}

/// A type with a deterministic byte encoding.
///
/// `persist` must be a pure function of observable state (canonical
/// order, no pointers), and `restore(persist(x)) == x` in every
/// observable. Types whose reconstruction needs external context (a
/// module library, a configuration) provide inherent
/// `persist_state`/`restore_state` methods instead.
pub trait Persist: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn persist(&self, w: &mut Writer);

    /// Decodes a value previously written by [`Persist::persist`].
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] on truncation or an encoding this type
    /// rejects.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Implements [`Persist`] for a plain struct as its fields' encodings in
/// the listed order, which must name every field. Restore checks nothing
/// beyond what the fields' own decoders check.
#[macro_export]
macro_rules! persist_fields {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        impl $crate::persist::Persist for $ty {
            fn persist(&self, w: &mut $crate::persist::Writer) {
                $($crate::persist::Persist::persist(&self.$field, w);)+
            }
            fn restore(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                Ok($ty {
                    $($field: $crate::persist::Persist::restore(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Persist`] for a fieldless enum as one tag byte per
/// variant; any other byte is [`PersistError::Corrupt`], naming `$what`.
#[macro_export]
macro_rules! persist_tags {
    ($ty:ident, $what:literal: $($variant:ident = $tag:literal),+ $(,)?) => {
        impl $crate::persist::Persist for $ty {
            fn persist(&self, w: &mut $crate::persist::Writer) {
                w.put_u8(match self {
                    $($ty::$variant => $tag,)+
                });
            }
            fn restore(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                match r.take_u8()? {
                    $($tag => Ok($ty::$variant),)+
                    t => Err($crate::persist::PersistError::Corrupt(format!(
                        concat!($what, " tag {}"),
                        t
                    ))),
                }
            }
        }
    };
}

impl Persist for u8 {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u8()
    }
}

impl Persist for u16 {
    fn persist(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u16()
    }
}

impl Persist for u32 {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_usize()
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_bool()
    }
}

impl Persist for f64 {
    fn persist(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_f64()
    }
}

impl Persist for String {
    fn persist(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.take_string()
    }
}

impl Persist for Ps {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_ps());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Ps::new(r.take_u64()?))
    }
}

impl Persist for Freq {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_hz());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let hz = r.take_u64()?;
        if hz == 0 {
            return Err(PersistError::Corrupt("zero frequency".into()));
        }
        Ok(Freq::hz(hz))
    }
}

impl Persist for std::sync::Arc<[u8]> {
    fn persist(&self, w: &mut Writer) {
        // Same wire format as a `Vec<u8>`: shared storage buffers encode
        // identically to the owned buffers they replaced.
        w.put_bytes(self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.take_bytes()?.into())
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            other => Err(PersistError::Corrupt(format!("option tag {other:#04x}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        // Guard the allocation: a corrupt length must not OOM the host.
        // Each element consumes at least one byte of input.
        if len > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Vec::<T>::restore(r)?.into())
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            // Encoded in key order: a repeated or out-of-order key would
            // decode to a map that re-encodes differently.
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(PersistError::Corrupt("map keys out of order".into()));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// What a [`Container`] section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionTag {
    /// One system: the configuration fingerprint, then the system body.
    System,
    /// The state of a `vapres sim` drive: where the scenario stands.
    Drive,
}

persist_tags!(SectionTag, "section": System = 1, Drive = 2);

/// One section of a [`Container`], borrowed from the input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// What the section holds.
    pub tag: SectionTag,
    /// The section's bytes.
    pub body: &'a [u8],
}

/// A parsed checkpoint container: the header checked and the section
/// table validated, with every section body borrowed from the input.
/// Parsing allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Container<'a> {
    count: u32,
    /// The section table: exactly `count` well-formed sections.
    table: &'a [u8],
}

impl<'a> Container<'a> {
    /// Checks the header and walks the section table.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadMagic`] when `bytes` is not a container,
    /// [`PersistError::VersionMismatch`] on format skew,
    /// [`PersistError::UnexpectedEof`] when a section overruns the input,
    /// and [`PersistError::Corrupt`] on an unknown section tag or bytes
    /// after the last section.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let r = &mut Reader::new(bytes);
        if r.take_raw(MAGIC.len())? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.take_u32()?;
        let table = &bytes[r.pos..];
        let t = &mut Reader::new(table);
        for _ in 0..count {
            read_section(t)?;
        }
        t.expect_end()?;
        Ok(Container { count, table })
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.count as usize
    }

    /// The sections in order.
    pub fn sections(&self) -> impl Iterator<Item = Section<'a>> {
        let mut r = Reader::new(self.table);
        // `parse` validated the table, so no read fails.
        (0..self.count).map_while(move |_| read_section(&mut r).ok())
    }

    /// The bodies of exactly the sections `tags` names, in order.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] when the container holds a different
    /// number of sections or a section of another kind.
    pub fn expect<const N: usize>(
        &self,
        tags: [SectionTag; N],
    ) -> Result<[&'a [u8]; N], PersistError> {
        if self.section_count() != N {
            return Err(PersistError::Corrupt(format!(
                "{} sections, expected {N} ({tags:?})",
                self.count
            )));
        }
        let mut bodies = [&[][..]; N];
        for ((body, section), want) in bodies.iter_mut().zip(self.sections()).zip(tags) {
            if section.tag != want {
                return Err(PersistError::Corrupt(format!(
                    "a {:?} section where a {want:?} section belongs",
                    section.tag
                )));
            }
            *body = section.body;
        }
        Ok(bodies)
    }
}

/// Reads one `(tag, len, bytes)` section entry.
fn read_section<'a>(r: &mut Reader<'a>) -> Result<Section<'a>, PersistError> {
    let tag = SectionTag::restore(r)?;
    let len = r.take_u64()?;
    if len > r.remaining() as u64 {
        return Err(PersistError::UnexpectedEof);
    }
    Ok(Section {
        tag,
        body: r.take_raw(len as usize)?,
    })
}

/// FNV-1a over a byte slice — the configuration fingerprint hash. Stable
/// across platforms and releases, unlike `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Interns a decoded string, returning a `&'static str`.
///
/// Snapshot producers hold `&'static str` metric and event names; on
/// decode the names arrive as owned strings. Interning leaks each
/// *distinct* name once (bounded by the vocabulary of metric/event names)
/// and returns the same pointer for repeats, so restored registries
/// compare and re-encode identically.
pub fn intern_static(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = pool.lock().expect("intern pool poisoned");
    if let Some(&interned) = map.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bool(true);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0xCDEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_string().unwrap(), "héllo");
        assert_eq!(r.take_bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_eof_not_panic() {
        let mut w = Writer::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.take_u64(), Err(PersistError::UnexpectedEof));
    }

    #[test]
    fn bad_bool_and_option_tags_are_corrupt() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.take_bool(), Err(PersistError::Corrupt(_))));
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            Option::<u8>::restore(&mut r),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn containers_roundtrip() {
        let mut w = Writer::new();
        let v: Vec<u32> = vec![1, 2, 3];
        let d: VecDeque<u64> = VecDeque::from([9, 8]);
        let o: Option<String> = Some("x".into());
        let m: BTreeMap<u32, String> = [(1, "a".into()), (2, "b".into())].into();
        v.persist(&mut w);
        d.persist(&mut w);
        o.persist(&mut w);
        None::<u8>.persist(&mut w);
        m.persist(&mut w);
        (Ps::from_ns(5), Freq::mhz(100)).persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<u32>::restore(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u64>::restore(&mut r).unwrap(), d);
        assert_eq!(Option::<String>::restore(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::restore(&mut r).unwrap(), None);
        assert_eq!(BTreeMap::<u32, String>::restore(&mut r).unwrap(), m);
        assert_eq!(
            <(Ps, Freq)>::restore(&mut r).unwrap(),
            (Ps::from_ns(5), Freq::mhz(100))
        );
        r.expect_end().unwrap();
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2); // absurd element count, no payload
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            Vec::<u64>::restore(&mut r),
            Err(PersistError::UnexpectedEof)
        );
    }

    /// A two-section container: a `System` body and a `Drive` body.
    fn two_sections() -> Vec<u8> {
        let mut w = Writer::container(2);
        w.section(SectionTag::System, |w| w.put_u64(42));
        w.section(SectionTag::Drive, |w| w.put_raw(b"abc"));
        w.into_bytes()
    }

    #[test]
    fn container_sections_roundtrip_borrowed() {
        let bytes = two_sections();
        // Header (8 + 4 + 4), then (tag, len, body) per section.
        assert_eq!(bytes.len(), 16 + (9 + 8) + (9 + 3));
        let c = Container::parse(&bytes).unwrap();
        assert_eq!(c.section_count(), 2);
        let [sys, drive] = c.expect([SectionTag::System, SectionTag::Drive]).unwrap();
        assert_eq!(sys, 42u64.to_le_bytes());
        assert_eq!(drive, b"abc");
        assert!(std::ptr::eq(drive, &bytes[bytes.len() - 3..]));
        let tags: Vec<SectionTag> = c.sections().map(|s| s.tag).collect();
        assert_eq!(tags, [SectionTag::System, SectionTag::Drive]);
    }

    #[test]
    fn container_mismatches_are_specific() {
        let good = two_sections();
        let c = Container::parse(&good).unwrap();
        assert!(matches!(
            c.expect([SectionTag::System]),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            c.expect([SectionTag::Drive, SectionTag::System]),
            Err(PersistError::Corrupt(_))
        ));

        let mut older = good.clone();
        older[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Container::parse(&older).unwrap_err(),
            PersistError::VersionMismatch {
                found: 4,
                expected: FORMAT_VERSION
            }
        );
        for magic in [b"VAPRESRP", b"VAPRESFL"] {
            let mut other = good.clone();
            other[..8].copy_from_slice(magic);
            assert_eq!(
                Container::parse(&other).unwrap_err(),
                PersistError::BadMagic
            );
        }

        let mut tag = good.clone();
        tag[16] = 9;
        assert!(matches!(
            Container::parse(&tag),
            Err(PersistError::Corrupt(_))
        ));
        let mut huge = good.clone();
        huge[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Container::parse(&huge).unwrap_err(),
            PersistError::UnexpectedEof
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Container::parse(&trailing),
            Err(PersistError::Corrupt(_))
        ));
        for cut in 0..good.len() {
            assert!(Container::parse(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn interning_returns_stable_pointers() {
        let a = intern_static("fabric_route_delivered_total_xyz");
        let b = intern_static(&String::from("fabric_route_delivered_total_xyz"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "fabric_route_delivered_total_xyz");
    }
}
