//! Deterministic checkpoint/restore for simulation state.
//!
//! A snapshot is a versioned, digest-verified binary image of every piece
//! of *dynamic* run state — the event wheel, RNG streams, MAC worlds,
//! medium, fault plane, traffic sources, and accumulated statistics —
//! taken at a checkpoint boundary `t`. The contract, pinned by the
//! snapshot-equivalence property in `tests/properties.rs`, is exact:
//! *save at t, restore in a fresh process, run to the end* produces
//! byte-identical `RunStats`, goldens, and trace events to the
//! uninterrupted run.
//!
//! Two traits split the work:
//!
//! * [`SnapValue`] — constructing serialization for value types (event
//!   payloads, times, counters). `thaw` builds a fresh value from bytes
//!   (named to stay distinct from slice/map `get` in the lint call graph).
//! * [`Snapshot`] — in-place serialization for stateful components.
//!   `restore` overwrites the dynamic fields of an already-constructed
//!   component, leaving static configuration (which the restoring run
//!   rebuilt identically from `(config, seed)`) untouched. Every
//!   [`SnapValue`] is trivially a [`Snapshot`] via a blanket impl.
//!
//! # Container format
//!
//! ```text
//! "DSNP"            4-byte magic
//! version           u32 LE (currently 1)
//! binding           32-byte SHA-256 of the run configuration
//! t                 u64 LE checkpoint boundary (nanoseconds)
//! payload_len       u64 LE
//! payload           payload_len bytes
//! digest            SHA-256 of everything above
//! ```
//!
//! The *binding* digest pins the snapshot to one exact run configuration
//! (scheme, seed, duration, topology, workload): restoring under any
//! other configuration is rejected before a single payload byte is
//! decoded, because a world built from different static state would
//! silently diverge. The trailing digest (over `testkit::digest`'s
//! SHA-256) makes torn or bit-flipped snapshot files a typed error, never
//! a wrong run. All failure handling is by value — this module is in the
//! D005 no-panic lint scope.

use crate::time::{SimDuration, SimTime};
use domino_testkit::digest::Sha256;
use domino_testkit::rng::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Current container format version. Bump on any layout change; old
/// versions are rejected, never reinterpreted. Version 2: the shared run
/// core (engine, medium, traffic with its RTO generations, node faults)
/// leads every payload, ahead of the scheme's own state.
pub const SNAPSHOT_VERSION: u32 = 2;

/// 4-byte container magic.
const MAGIC: &[u8; 4] = b"DSNP";

/// Typed snapshot failure. Restores never panic and never produce a
/// half-restored world: any error aborts the restore before the run
/// continues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value did.
    Truncated,
    /// A decoded value is structurally impossible (context string).
    Corrupt(&'static str),
    /// The container's format version is not [`SNAPSHOT_VERSION`].
    Version(u32),
    /// The snapshot was taken under a different run configuration.
    BindingMismatch,
    /// The trailing content digest does not match the bytes.
    DigestMismatch,
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Version(v) => {
                write!(f, "snapshot version {v} unsupported (expected {SNAPSHOT_VERSION})")
            }
            SnapError::BindingMismatch => {
                write!(f, "snapshot was taken under a different run configuration")
            }
            SnapError::DigestMismatch => write!(f, "snapshot digest mismatch (corrupt file)"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh, empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consume the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Bounds-checked cursor over snapshot payload bytes. Every read returns
/// [`SnapError::Truncated`] past the end instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> SnapReader<'a> {
        SnapReader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed. A finished restore must
    /// exhaust the payload — leftover bytes mean the save and restore
    /// orders disagree.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a collection length, guarding the pre-allocation: a corrupt
    /// length must surface as an error during element decode, not OOM.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        self.get_u64()?.try_into().map_err(|_| SnapError::Corrupt("length overflows usize"))
    }
}

/// Constructing serialization for snapshot value types.
pub trait SnapValue: Sized {
    /// Append this value's encoding to `w`.
    fn put(&self, w: &mut SnapWriter);

    /// Decode one value from the reader.
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// In-place serialization for stateful simulation components.
///
/// `save` writes the component's *dynamic* state; `restore` overwrites
/// that state on a freshly constructed component whose static
/// configuration already matches (guaranteed by the container's binding
/// digest). Save and restore must visit fields in the same order — the
/// format carries no field tags.
pub trait Snapshot {
    /// Serialize dynamic state.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrite dynamic state from the reader.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: SnapValue> Snapshot for T {
    fn save(&self, w: &mut SnapWriter) {
        self.put(w);
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = T::thaw(r)?;
        Ok(())
    }
}

impl SnapValue for () {
    fn put(&self, _w: &mut SnapWriter) {}
    fn thaw(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl SnapValue for u8 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl SnapValue for u32 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl SnapValue for u64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl SnapValue for usize {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_len()
    }
}

impl SnapValue for i64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u64()? as i64)
    }
}

impl SnapValue for f64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl SnapValue for bool {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag")),
        }
    }
}

impl SnapValue for SimTime {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

impl SnapValue for SimDuration {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.get_u64()?))
    }
}

impl SnapValue for Rng {
    /// An RNG stream's full state: the four xoshiro256++ words plus the
    /// Box–Muller spare, so a restored stream continues the exact draw
    /// sequence (including a buffered second normal).
    fn put(&self, w: &mut SnapWriter) {
        for word in self.state_words() {
            w.put_u64(word);
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut words = [0u64; 6];
        for word in &mut words {
            *word = r.get_u64()?;
        }
        Rng::from_state_words(words).ok_or(SnapError::Corrupt("rng spare flag"))
    }
}

impl<T: SnapValue> SnapValue for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::thaw(r)?)),
            _ => Err(SnapError::Corrupt("option tag")),
        }
    }
}

impl<T: SnapValue> SnapValue for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::thaw(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapValue> SnapValue for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = VecDeque::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push_back(T::thaw(r)?);
        }
        Ok(out)
    }
}

impl<K: SnapValue + Ord, V: SnapValue> SnapValue for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::thaw(r)?;
            let v = V::thaw(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: SnapValue + Ord> SnapValue for BTreeSet<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::thaw(r)?);
        }
        Ok(out)
    }
}

impl<A: SnapValue, B: SnapValue> SnapValue for (A, B) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::thaw(r)?, B::thaw(r)?))
    }
}

impl<A: SnapValue, B: SnapValue, C: SnapValue> SnapValue for (A, B, C) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn thaw(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::thaw(r)?, B::thaw(r)?, C::thaw(r)?))
    }
}

/// SHA-256 over a sequence of length-delimited byte fields — the helper
/// the high-level API uses to derive a snapshot's configuration binding
/// from scheme, seed, duration, topology, and workload shape. Fields are
/// length-prefixed so adjacent fields can never alias.
pub fn binding_digest(fields: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for f in fields {
        h.update(&(f.len() as u64).to_le_bytes());
        h.update(f);
    }
    h.finalize()
}

/// Seal a payload into the versioned, digest-verified container.
///
/// `binding` is the SHA-256 of the run configuration (computed by the
/// caller over scheme, seed, duration, topology and workload shape);
/// `t_nanos` is the checkpoint boundary: every event strictly before `t`
/// has been processed, every event at or after `t` is inside the payload.
pub fn seal(binding: &[u8; 32], t_nanos: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 32 + 8 + 8 + payload.len() + 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(binding);
    out.extend_from_slice(&t_nanos.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Sha256::new();
    h.update(&out);
    let digest = h.finalize();
    out.extend_from_slice(&digest);
    out
}

/// Open a sealed container, verifying magic, version, configuration
/// binding, and the trailing content digest. Returns the checkpoint
/// boundary and the payload slice.
pub fn open<'a>(bytes: &'a [u8], binding: &[u8; 32]) -> Result<(u64, &'a [u8]), SnapError> {
    let header = 4 + 4 + 32 + 8 + 8;
    if bytes.len() < header + 32 {
        return Err(SnapError::Truncated);
    }
    let (body, digest) = bytes.split_at(bytes.len() - 32);
    let mut h = Sha256::new();
    h.update(body);
    if h.finalize() != *digest {
        return Err(SnapError::DigestMismatch);
    }
    if &body[..4] != MAGIC {
        return Err(SnapError::Corrupt("magic"));
    }
    let version = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapError::Version(version));
    }
    if &body[8..40] != binding {
        return Err(SnapError::BindingMismatch);
    }
    let t = u64::from_le_bytes(match body[40..48].try_into() {
        Ok(a) => a,
        Err(_) => return Err(SnapError::Truncated),
    });
    let len = u64::from_le_bytes(match body[48..56].try_into() {
        Ok(a) => a,
        Err(_) => return Err(SnapError::Truncated),
    });
    let payload = &body[56..];
    if payload.len() as u64 != len {
        return Err(SnapError::Corrupt("payload length"));
    }
    Ok((t, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: SnapValue + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::thaw(&mut r).as_ref(), Ok(&v));
        assert!(r.is_exhausted());
        // Every strict prefix must fail cleanly.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(T::thaw(&mut r).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-5i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(SimTime::from_micros(123));
        roundtrip(SimDuration::from_millis(9));
    }

    #[test]
    fn floats_roundtrip_by_bits() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::NEG_INFINITY] {
            let mut w = SnapWriter::new();
            v.put(&mut w);
            let bytes = w.into_bytes();
            let back = f64::thaw(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(VecDeque::from(vec![5u32, 6]));
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u64, 2u32));
        roundtrip((1u64, 2u32, false));
        roundtrip(BTreeMap::from([(1u64, SimTime::from_nanos(5)), (2, SimTime::ZERO)]));
        roundtrip(BTreeSet::from([9u64, 1, 4]));
        roundtrip(vec![Some((1u64, true)), None]);
    }

    #[test]
    fn bad_tags_are_errors() {
        assert_eq!(bool::thaw(&mut SnapReader::new(&[2])), Err(SnapError::Corrupt("bool tag")));
        assert_eq!(
            Option::<u64>::thaw(&mut SnapReader::new(&[9])),
            Err(SnapError::Corrupt("option tag"))
        );
    }

    #[test]
    fn corrupt_length_is_an_error_not_an_alloc() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Vec::<u64>::thaw(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn rng_state_roundtrips_mid_sequence() {
        let mut rng = Rng::derive(42, crate::rng::streams::SCHEDULER);
        // Put the stream mid-sequence with a buffered Box–Muller spare.
        for _ in 0..17 {
            rng.next_u64();
        }
        let _ = rng.standard_normal();
        let mut w = SnapWriter::new();
        rng.put(&mut w);
        let bytes = w.into_bytes();
        let mut back = Rng::thaw(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(back.next_u64(), rng.next_u64());
        }
        assert_eq!(back.standard_normal().to_bits(), rng.standard_normal().to_bits());
    }

    #[test]
    fn container_seals_and_opens() {
        let binding = [7u8; 32];
        let sealed = seal(&binding, 123_456, b"payload");
        let (t, payload) = open(&sealed, &binding).unwrap();
        assert_eq!(t, 123_456);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn container_rejects_wrong_binding() {
        let sealed = seal(&[7u8; 32], 1, b"x");
        assert_eq!(open(&sealed, &[8u8; 32]), Err(SnapError::BindingMismatch));
    }

    #[test]
    fn container_rejects_corruption() {
        let binding = [7u8; 32];
        let sealed = seal(&binding, 1, b"some payload bytes");
        for flip in [0usize, 5, 40, 56, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[flip] ^= 0x01;
            assert!(open(&bad, &binding).is_err(), "flip at {flip} accepted");
        }
        for cut in [0usize, 10, 55, sealed.len() - 1] {
            assert!(open(&sealed[..cut], &binding).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn container_rejects_other_versions() {
        let binding = [1u8; 32];
        // A file of the previous layout and one from the future.
        for version in [SNAPSHOT_VERSION - 1, 99] {
            let mut sealed = seal(&binding, 1, b"x");
            // Patch the version and re-seal the digest.
            sealed[4..8].copy_from_slice(&version.to_le_bytes());
            let body_len = sealed.len() - 32;
            let mut h = Sha256::new();
            h.update(&sealed[..body_len]);
            let digest = h.finalize();
            sealed[body_len..].copy_from_slice(&digest);
            assert_eq!(open(&sealed, &binding), Err(SnapError::Version(version)));
        }
    }
}
