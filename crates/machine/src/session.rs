//! The session engine: suspendable, serializable, migratable decider
//! runs.
//!
//! A [`Session`] wraps a [`StreamingDecider`] mid-stream and is the one
//! place "feed, decide, meter" happens —
//! [`run_decider_stream`](crate::streaming::run_decider_stream) and the
//! batch scheduler are thin wrappers over it. For deciders that implement
//! [`Checkpointable`], a session can be **suspended** into a
//! [`SessionCheckpoint`] — a versioned byte string carrying the decider's
//! complete configuration (classical counters, fingerprint residues, the
//! quantum register as a [`oqsc_quantum::StateSnapshot`], and all space
//! metering) plus the stream position — shipped to another worker,
//! thread, or process, and **resumed** there. The contract (DESIGN.md
//! §7):
//!
//! > suspending at any token boundary, moving the checkpoint anywhere,
//! > and resuming yields a [`RunOutcome`] `==`-identical to the
//! > uninterrupted run.
//!
//! Checkpoints open with a version byte; decoders reject tags they do
//! not understand ([`CheckpointError::UnsupportedVersion`]) instead of
//! misreading a future layout.

use crate::streaming::{RunOutcome, StreamingDecider};
use oqsc_lang::Sym;

/// The current checkpoint encoding version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Why a checkpoint could not be decoded or resumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The version tag is not one this build understands.
    UnsupportedVersion(u8),
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// The bytes are structurally invalid for the target decider.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported session-checkpoint version {v} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Truncated => write!(f, "truncated session checkpoint"),
            CheckpointError::Malformed(what) => write!(f, "malformed session checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<oqsc_quantum::SnapshotError> for CheckpointError {
    fn from(e: oqsc_quantum::SnapshotError) -> Self {
        match e {
            oqsc_quantum::SnapshotError::UnsupportedVersion(v) => {
                CheckpointError::Malformed(format!("embedded state snapshot has version {v}"))
            }
            oqsc_quantum::SnapshotError::Malformed(what) => {
                CheckpointError::Malformed(format!("embedded state snapshot: {what}"))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Byte-level encoding helpers
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64`, little-endian.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A cursor over checkpoint bytes with typed, bounds-checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at the front.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < len {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn read_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Reads a `bool` (rejecting anything but 0/1).
    pub fn read_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::Malformed(format!("bad bool byte {v}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.read_bytes(4)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.read_bytes(8)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a `usize` encoded as a `u64`.
    pub fn read_usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed(format!("usize overflow: {v}")))
    }

    /// Reads a length-prefixed byte string written by [`put_bytes`].
    pub fn read_prefixed_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.read_usize()?;
        self.read_bytes(len)
    }
}

// ---------------------------------------------------------------------
// The checkpointable-decider contract
// ---------------------------------------------------------------------

/// A [`StreamingDecider`] whose complete mid-stream configuration can be
/// serialized and restored.
///
/// Unlike [`StreamingDecider::snapshot`] — the *communication-reduction*
/// observable, which deliberately excludes quantum state (Theorem 3.6's
/// mechanism) — `write_state`/`read_state` must round-trip **everything**
/// the decider's future behavior depends on: control state, counters,
/// buffered data, pre-committed entropy, the quantum register
/// (byte-exact, via the backend snapshot seam) and the space meters. The
/// law, pinned by `tests/session_checkpoint.rs` at every token boundary:
/// `read_state(write_state(d))` behaves identically to `d` — same
/// verdicts, same metering, same randomness consumption.
pub trait Checkpointable: StreamingDecider + Sized {
    /// Stable name of the decider type. Recorded in the header of a
    /// persistent [`crate::store::CheckpointStore`], so a store written
    /// for one decider type is never decoded as another; generic deciders
    /// share one tag across backends (the register snapshot encoding is
    /// backend-portable).
    const TYPE_TAG: &'static str;

    /// Appends the decider's complete configuration to `out`.
    fn write_state(&self, out: &mut Vec<u8>);

    /// Rebuilds a decider from bytes produced by
    /// [`write_state`](Self::write_state).
    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError>;
}

// ---------------------------------------------------------------------
// Checkpoints and sessions
// ---------------------------------------------------------------------

/// A suspended [`Session`]: version byte, stream position, and the
/// decider's serialized configuration. Opaque bytes — ship them across
/// threads, processes or the wire and [`Session::resume`] on the other
/// side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionCheckpoint {
    bytes: Vec<u8>,
}

const CP_HEADER_LEN: usize = 9; // version u8 + position u64

impl SessionCheckpoint {
    fn encode<D: Checkpointable>(position: u64, decider: &D) -> Self {
        let mut bytes = Vec::with_capacity(64);
        put_u8(&mut bytes, CHECKPOINT_VERSION);
        put_u64(&mut bytes, position);
        decider.write_state(&mut bytes);
        SessionCheckpoint { bytes }
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint into its raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the serialized configuration — what a migration actually
    /// moves between workers.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Validates the header and adopts raw bytes produced by
    /// [`Self::as_bytes`]. (The decider payload is validated by
    /// [`Session::resume`], which knows the concrete decider type.)
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        if bytes.len() < CP_HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        if bytes[0] != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(bytes[0]));
        }
        Ok(SessionCheckpoint { bytes })
    }

    /// How many stream tokens the suspended session had consumed.
    pub fn position(&self) -> u64 {
        u64::from_le_bytes(self.bytes[1..9].try_into().expect("header validated"))
    }
}

/// A decider run in progress: feed tokens, then [`finish`](Self::finish)
/// for the [`RunOutcome`] — or [`suspend`](Self::suspend) mid-stream and
/// [`resume`](Self::resume) elsewhere.
#[derive(Clone, Debug)]
pub struct Session<D: StreamingDecider> {
    decider: D,
    fed: u64,
}

impl<D: StreamingDecider> Session<D> {
    /// Opens a session over a fresh decider (position 0).
    pub fn new(decider: D) -> Self {
        Session { decider, fed: 0 }
    }

    /// Consumes the next input token.
    pub fn feed(&mut self, sym: Sym) {
        self.decider.feed(sym);
        self.fed += 1;
    }

    /// Feeds a whole word.
    pub fn feed_all(&mut self, word: &[Sym]) {
        for &s in word {
            self.feed(s);
        }
    }

    /// Batch-feed fast path: hands the whole slice to the decider's
    /// [`StreamingDecider::feed_all`] and bumps the stream position once,
    /// instead of paying one dynamic dispatch and one counter increment
    /// per token. The decider may consume the slice in larger steps, but
    /// `feed_all`'s contract makes the result `==`-identical to calling
    /// [`feed`](Self::feed) on each symbol in order, so the mux dispatch
    /// loop can use it freely without perturbing verdicts, metering or
    /// checkpoints.
    pub fn feed_slice(&mut self, word: &[Sym]) {
        self.decider.feed_all(word);
        self.fed += word.len() as u64;
    }

    /// Tokens consumed so far.
    pub fn position(&self) -> u64 {
        self.fed
    }

    /// Read access to the in-flight decider.
    pub fn decider(&self) -> &D {
        &self.decider
    }

    /// Ends the stream: verdict plus the full Definition 2.3 space
    /// accounting.
    pub fn finish(mut self) -> RunOutcome {
        let accept = self.decider.decide();
        RunOutcome {
            accept,
            classical_bits: self.decider.space_bits(),
            peak_qubits: self.decider.peak_qubits(),
            peak_amplitudes: self.decider.peak_amplitudes(),
        }
    }

    /// Unwraps the decider without deciding.
    pub fn into_decider(self) -> D {
        self.decider
    }
}

impl<D: Checkpointable> Session<D> {
    /// Serializes the session — decider configuration, register snapshot,
    /// metering, stream position — into a portable checkpoint. The
    /// session remains usable (suspension is an observation, not a
    /// teardown).
    pub fn suspend(&self) -> SessionCheckpoint {
        SessionCheckpoint::encode(self.fed, &self.decider)
    }

    /// Rebuilds a session from a checkpoint, ready to consume the token
    /// after [`SessionCheckpoint::position`].
    pub fn resume(cp: &SessionCheckpoint) -> Result<Self, CheckpointError> {
        let bytes = cp.as_bytes();
        // from_bytes validated version + header length.
        let fed = cp.position();
        let mut r = ByteReader::new(&bytes[CP_HEADER_LEN..]);
        let decider = D::read_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after decider state",
                r.remaining()
            )));
        }
        Ok(Session { decider, fed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::run_decider;
    use oqsc_lang::token::from_str;

    /// A tiny checkpointable decider for exercising the engine without
    /// the core crate: accepts iff it saw an odd number of `1`s.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct ParityDecider {
        ones: u64,
    }

    impl ParityDecider {
        fn new() -> Self {
            ParityDecider { ones: 0 }
        }
    }

    impl StreamingDecider for ParityDecider {
        fn feed(&mut self, sym: Sym) {
            if sym == Sym::One {
                self.ones += 1;
            }
        }

        fn decide(&mut self) -> bool {
            self.ones % 2 == 1
        }

        fn space_bits(&self) -> usize {
            1
        }

        fn snapshot(&self) -> Vec<u8> {
            vec![(self.ones % 2) as u8]
        }
    }

    impl Checkpointable for ParityDecider {
        const TYPE_TAG: &'static str = "ParityDecider";

        fn write_state(&self, out: &mut Vec<u8>) {
            put_u64(out, self.ones);
        }

        fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
            Ok(ParityDecider {
                ones: r.read_u64()?,
            })
        }
    }

    #[test]
    fn suspend_resume_at_every_position_matches_uninterrupted() {
        let word = from_str("1#01#110#1").expect("syms");
        let reference = run_decider(ParityDecider::new(), &word);
        for cut in 0..=word.len() {
            let mut s = Session::new(ParityDecider::new());
            s.feed_all(&word[..cut]);
            let cp = s.suspend();
            assert_eq!(cp.position(), cut as u64);
            let mut resumed = Session::<ParityDecider>::resume(&cp).expect("resumes");
            resumed.feed_all(&word[cut..]);
            assert_eq!(resumed.finish(), reference, "cut at {cut}");
        }
    }

    #[test]
    fn feed_slice_is_identical_to_repeated_feed() {
        let word = from_str("1#01#110#1").expect("syms");
        for cut in 0..=word.len() {
            let mut by_token = Session::new(ParityDecider::new());
            for &s in &word {
                by_token.feed(s);
            }
            let mut by_slice = Session::new(ParityDecider::new());
            by_slice.feed_slice(&word[..cut]);
            by_slice.feed_slice(&word[cut..]);
            by_slice.feed_slice(&[]);
            assert_eq!(by_slice.position(), by_token.position(), "cut at {cut}");
            assert_eq!(by_slice.decider(), by_token.decider(), "cut at {cut}");
            assert_eq!(by_slice.finish(), by_token.finish(), "cut at {cut}");
        }
    }

    #[test]
    fn checkpoint_bytes_round_trip_through_from_bytes() {
        let mut s = Session::new(ParityDecider::new());
        s.feed(Sym::One);
        let cp = s.suspend();
        let wire = cp.as_bytes().to_vec();
        let back = SessionCheckpoint::from_bytes(wire).expect("valid");
        assert_eq!(back, cp);
        let resumed = Session::<ParityDecider>::resume(&back).expect("resumes");
        assert_eq!(resumed.position(), 1);
        assert_eq!(resumed.decider(), &ParityDecider { ones: 1 });
    }

    #[test]
    fn unknown_checkpoint_version_is_rejected() {
        let cp = Session::new(ParityDecider::new()).suspend();
        let mut bytes = cp.into_bytes();
        bytes[0] = CHECKPOINT_VERSION + 1;
        match SessionCheckpoint::from_bytes(bytes) {
            Err(CheckpointError::UnsupportedVersion(v)) => {
                assert_eq!(v, CHECKPOINT_VERSION + 1);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        assert_eq!(
            SessionCheckpoint::from_bytes(vec![CHECKPOINT_VERSION]),
            Err(CheckpointError::Truncated)
        );
        let cp = Session::new(ParityDecider::new()).suspend();
        let mut bytes = cp.into_bytes();
        bytes.push(0xFF);
        let cp = SessionCheckpoint::from_bytes(bytes).expect("header still fine");
        assert!(matches!(
            Session::<ParityDecider>::resume(&cp),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn byte_reader_reads_back_what_writers_wrote() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_bool(&mut out, true);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_usize(&mut out, 12345);
        put_bytes(&mut out, b"abc");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.read_u8().expect("u8"), 7);
        assert!(r.read_bool().expect("bool"));
        assert_eq!(r.read_u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.read_usize().expect("usize"), 12345);
        assert_eq!(r.read_prefixed_bytes().expect("bytes"), b"abc");
        assert!(r.is_exhausted());
        assert_eq!(r.read_u8(), Err(CheckpointError::Truncated));
    }
}
