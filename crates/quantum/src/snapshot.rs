//! Versioned state snapshots: the serialization half of the session
//! engine's quantum seam.
//!
//! A [`StateSnapshot`] is the byte-exact, backend-portable encoding of a
//! pure state mid-run. [`QuantumBackend::snapshot`](crate::QuantumBackend::snapshot)
//! produces one and [`QuantumBackend::restore`](crate::QuantumBackend::restore)
//! rebuilds the state **without
//! renormalizing**, so a suspend → bytes → resume round trip reproduces
//! every amplitude bit for bit — the property the session engine's
//! "checkpointed run equals uninterrupted run" contract (DESIGN.md §7)
//! rests on.
//!
//! ## Encoding (version 1)
//!
//! ```text
//! byte 0         version tag (1)
//! byte 1         kind: 0 = dense, 1 = sparse
//! bytes 2..6     qubit count, u32 little-endian
//! bytes 6..14    entry count, u64 little-endian
//! then per entry
//!   dense:  re.to_bits() u64 LE, im.to_bits() u64 LE   (index implicit)
//!   sparse: index u64 LE, re u64 LE, im u64 LE          (increasing index)
//! ```
//!
//! Amplitudes travel as raw IEEE-754 bit patterns ([`f64::to_bits`]), so
//! the round trip is exact, including signed zeros. Dense backends encode
//! all `2^n` amplitudes; sparse backends encode only their support, in
//! increasing basis order. Either kind restores into any backend: a dense
//! backend fills the off-support entries with exact `+0.0`, a sparse
//! backend drops sub-threshold entries exactly as its own setters would.
//!
//! Decoders reject unknown version tags with
//! [`SnapshotError::UnsupportedVersion`] instead of guessing — a
//! checkpoint written by a future layout must never be half-read.

use crate::complex::Complex;

/// The current snapshot encoding version.
pub const SNAPSHOT_VERSION: u8 = 1;

const KIND_DENSE: u8 = 0;
const KIND_SPARSE: u8 = 1;
const HEADER_LEN: usize = 14;

/// Why a snapshot could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The version tag is not one this build understands.
    UnsupportedVersion(u8),
    /// The byte stream is structurally invalid (truncated, bad kind tag,
    /// inconsistent entry count, out-of-range basis index, …).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported state-snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Malformed(what) => write!(f, "malformed state snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A versioned, byte-exact encoding of a pure state (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateSnapshot {
    bytes: Vec<u8>,
}

impl StateSnapshot {
    /// Encodes a dense amplitude vector (`amps.len() = 2^n`).
    pub fn encode_dense(n: usize, amps: &[Complex]) -> Self {
        debug_assert_eq!(amps.len(), 1usize << n);
        let mut bytes = Vec::with_capacity(HEADER_LEN + 16 * amps.len());
        Self::push_header(&mut bytes, KIND_DENSE, n, amps.len());
        for a in amps {
            bytes.extend_from_slice(&a.re.to_bits().to_le_bytes());
            bytes.extend_from_slice(&a.im.to_bits().to_le_bytes());
        }
        StateSnapshot { bytes }
    }

    /// Encodes a sparse support given as `(basis index, amplitude)` pairs
    /// in strictly increasing index order.
    pub fn encode_sparse<I>(n: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (usize, Complex)>,
    {
        let mut body = Vec::new();
        let mut count = 0usize;
        for (b, a) in entries {
            body.extend_from_slice(&(b as u64).to_le_bytes());
            body.extend_from_slice(&a.re.to_bits().to_le_bytes());
            body.extend_from_slice(&a.im.to_bits().to_le_bytes());
            count += 1;
        }
        let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
        Self::push_header(&mut bytes, KIND_SPARSE, n, count);
        bytes.extend_from_slice(&body);
        StateSnapshot { bytes }
    }

    fn push_header(bytes: &mut Vec<u8>, kind: u8, n: usize, count: usize) {
        bytes.push(SNAPSHOT_VERSION);
        bytes.push(kind);
        bytes.extend_from_slice(&(n as u32).to_le_bytes());
        bytes.extend_from_slice(&(count as u64).to_le_bytes());
    }

    /// The raw encoded bytes (what a [`SessionCheckpoint`] embeds).
    ///
    /// [`SessionCheckpoint`]: https://docs.rs/oqsc-machine
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the encoding in bytes — the serialized register size a
    /// migration actually moves.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Validates the header (version tag, minimum length) and adopts raw
    /// bytes produced by [`Self::as_bytes`]. The body is validated by
    /// [`decode`](Self::decode) — which every restore path runs exactly
    /// once — so adopting does not parse the (possibly multi-megabyte)
    /// amplitude payload twice.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Malformed("truncated header"));
        }
        if bytes[0] != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(bytes[0]));
        }
        Ok(StateSnapshot { bytes })
    }

    /// The encoded qubit count.
    pub fn num_qubits(&self) -> usize {
        // from_bytes/encode_* guarantee a well-formed header.
        u32::from_le_bytes(self.bytes[2..6].try_into().expect("header")) as usize
    }

    /// Decodes into the logical content: qubit count plus the explicitly
    /// stored `(basis index, amplitude)` pairs in increasing index order
    /// (dense encodings include exact zeros; sparse ones do not).
    pub fn decode(&self) -> Result<DecodedSnapshot, SnapshotError> {
        let bytes = &self.bytes;
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Malformed("truncated header"));
        }
        if bytes[0] != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(bytes[0]));
        }
        let kind = bytes[1];
        let n = u32::from_le_bytes(bytes[2..6].try_into().expect("len checked")) as usize;
        if n >= usize::BITS as usize {
            return Err(SnapshotError::Malformed("qubit count out of range"));
        }
        let count = u64::from_le_bytes(bytes[6..14].try_into().expect("len checked")) as usize;
        let dim = 1usize << n;
        let body = &bytes[HEADER_LEN..];
        let dense = match kind {
            KIND_DENSE => true,
            KIND_SPARSE => false,
            _ => return Err(SnapshotError::Malformed("unknown encoding kind")),
        };
        let entry_len = if dense { 16 } else { 24 };
        // Checked arithmetic and a dimension bound: a crafted count must
        // not wrap the length check or drive `with_capacity` into an
        // allocation abort — untrusted bytes fail with an error, always.
        let body_len = count
            .checked_mul(entry_len)
            .ok_or(SnapshotError::Malformed("entry count overflows"))?;
        if body.len() != body_len {
            return Err(SnapshotError::Malformed("entry count mismatch"));
        }
        if dense && count != dim {
            return Err(SnapshotError::Malformed("dense entry count != 2^n"));
        }
        if !dense && count > dim {
            return Err(SnapshotError::Malformed(
                "sparse entry count exceeds dimension",
            ));
        }
        let mut entries = Vec::with_capacity(count);
        let mut prev: Option<usize> = None;
        for (i, e) in body.chunks_exact(entry_len).enumerate() {
            let (b, amp_bytes) = if dense {
                (i, e)
            } else {
                let b = u64::from_le_bytes(e[..8].try_into().expect("len")) as usize;
                if b >= dim {
                    return Err(SnapshotError::Malformed("basis index out of range"));
                }
                if prev.is_some_and(|p| p >= b) {
                    return Err(SnapshotError::Malformed("indices must strictly increase"));
                }
                prev = Some(b);
                (b, &e[8..])
            };
            let re = f64::from_bits(u64::from_le_bytes(amp_bytes[..8].try_into().expect("len")));
            let im = f64::from_bits(u64::from_le_bytes(
                amp_bytes[8..16].try_into().expect("len"),
            ));
            entries.push((b, Complex::new(re, im)));
        }
        Ok(DecodedSnapshot {
            num_qubits: n,
            dense,
            entries,
        })
    }
}

/// The logical content of a decoded [`StateSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedSnapshot {
    /// Qubit count of the encoded state.
    pub num_qubits: usize,
    /// Whether the encoding was dense (all `2^n` amplitudes explicit).
    pub dense: bool,
    /// `(basis index, amplitude)` pairs in increasing index order.
    pub entries: Vec<(usize, Complex)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{ONE, ZERO};

    #[test]
    fn dense_round_trip_is_exact() {
        let amps = vec![
            Complex::new(0.1, -0.2),
            Complex::new(-0.0, 0.0),
            ZERO,
            Complex::new(1e-300, std::f64::consts::PI),
        ];
        let snap = StateSnapshot::encode_dense(2, &amps);
        assert_eq!(snap.num_qubits(), 2);
        let dec = snap.decode().expect("well formed");
        assert!(dec.dense);
        assert_eq!(dec.entries.len(), 4);
        for (i, (b, a)) in dec.entries.iter().enumerate() {
            assert_eq!(*b, i);
            assert_eq!(a.re.to_bits(), amps[i].re.to_bits());
            assert_eq!(a.im.to_bits(), amps[i].im.to_bits());
        }
    }

    #[test]
    fn sparse_round_trip_is_exact() {
        let entries = vec![(3usize, ONE), (17, Complex::new(-0.5, 0.25))];
        let snap = StateSnapshot::encode_sparse(5, entries.clone());
        let dec = snap.decode().expect("well formed");
        assert!(!dec.dense);
        assert_eq!(dec.entries, entries);
        // Adopting the raw bytes validates and succeeds.
        let again = StateSnapshot::from_bytes(snap.as_bytes().to_vec()).expect("valid");
        assert_eq!(again, snap);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let snap = StateSnapshot::encode_sparse(2, vec![(0usize, ONE)]);
        let mut bytes = snap.as_bytes().to_vec();
        bytes[0] = 99;
        match StateSnapshot::from_bytes(bytes) {
            Err(SnapshotError::UnsupportedVersion(99)) => {}
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert!(matches!(
            StateSnapshot::from_bytes(vec![SNAPSHOT_VERSION]),
            Err(SnapshotError::Malformed(_))
        ));
        // Truncated body: the header-only adoption succeeds, but decode
        // (which every restore runs) rejects it.
        let snap = StateSnapshot::encode_dense(1, &[ONE, ZERO]);
        let mut bytes = snap.as_bytes().to_vec();
        bytes.pop();
        let truncated = StateSnapshot::from_bytes(bytes).expect("header intact");
        assert!(matches!(
            truncated.decode(),
            Err(SnapshotError::Malformed(_))
        ));
        // Out-of-order sparse indices.
        let bad = StateSnapshot::encode_sparse(3, vec![(4usize, ONE), (2, ONE)]);
        assert!(matches!(bad.decode(), Err(SnapshotError::Malformed(_))));
        // A crafted sparse count that would wrap the length check or
        // claim more entries than the dimension holds is rejected, not
        // allocated.
        let small = StateSnapshot::encode_sparse(2, vec![(0usize, ONE)]);
        let mut crafted = small.as_bytes().to_vec();
        let wrap = (u64::MAX / 24 + 2).to_le_bytes(); // count·24 wraps small
        crafted[6..14].copy_from_slice(&wrap);
        let crafted = StateSnapshot::from_bytes(crafted).expect("header intact");
        assert!(matches!(crafted.decode(), Err(SnapshotError::Malformed(_))));
        let over = StateSnapshot::encode_sparse(1, vec![(0usize, ONE)]);
        let mut too_many = over.as_bytes().to_vec();
        too_many[6..14].copy_from_slice(&3u64.to_le_bytes());
        too_many.extend_from_slice(&[0u8; 48]); // body length matches count = 3
        let too_many = StateSnapshot::from_bytes(too_many).expect("header intact");
        assert!(matches!(
            too_many.decode(),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
