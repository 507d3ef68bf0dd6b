//! The online (one-way) decider abstraction.
//!
//! An OPTM in the paper reads its input left to right, once, keeping only
//! its work tape. [`StreamingDecider`] captures exactly that interface for
//! all the concrete algorithms of the reproduction (procedures A1/A2, the
//! Proposition 3.7 block algorithm, the sub-√m sketches, and the classical
//! front half of the quantum machine): symbols are fed in order, a verdict
//! is produced at end-of-stream, and the work-space footprint is reported
//! in bits.
//!
//! [`snapshot`](StreamingDecider::snapshot) serializes the decider's
//! configuration; it is what the Theorem 3.6 reduction transmits between
//! Alice and Bob, so its length *is* the message length of the induced
//! one-way communication protocol.

use oqsc_lang::Sym;

/// A bounded-space online decider over the alphabet `Σ = {0, 1, #}`.
pub trait StreamingDecider {
    /// Consumes the next input symbol.
    fn feed(&mut self, sym: Sym);

    /// Verdict at end of stream: `true` = accept.
    fn decide(&mut self) -> bool;

    /// Peak work-space used so far, in bits (the paper measures space on
    /// the worst coin flips; deciders must meter their own worst case).
    fn space_bits(&self) -> usize;

    /// Peak quantum-register width in qubits over the run so far. Purely
    /// classical deciders report 0 (the default); quantum streaming
    /// drivers forward their [`crate::MeteredRegister::peak_qubits`].
    fn peak_qubits(&self) -> usize {
        0
    }

    /// Peak number of stored amplitudes over the run so far (`2^qubits`
    /// for dense backends, the support high-water for sparse ones).
    /// Purely classical deciders report 0 (the default); quantum
    /// streaming drivers forward
    /// [`crate::MeteredRegister::peak_support`].
    fn peak_amplitudes(&self) -> usize {
        0
    }

    /// Serializes the current configuration (work-tape contents + control
    /// state). Used by the communication reduction of Theorem 3.6; the
    /// byte length bounds the message size.
    fn snapshot(&self) -> Vec<u8>;

    /// Feeds a whole slice. The default is [`feed`](Self::feed) on each
    /// symbol in order. A decider may override it to consume several
    /// symbols in one step (A1, A2 and A3 take each bit run between
    /// separators at once), but the override must leave the decider
    /// exactly where the per-symbol loop would: the same verdict, the same
    /// `write_state` bytes, the same meters and the same support peak.
    /// Checkpoints are only taken between calls, so the intermediate
    /// states a batched step skips are never observed.
    fn feed_all(&mut self, word: &[Sym]) {
        for &s in word {
            self.feed(s);
        }
    }
}

/// Everything one decider run reports: the verdict plus the full
/// Definition 2.3 space accounting — classical bits *and* the quantum
/// register's metered peaks (0 for classical deciders). Replaces the old
/// bare `(bool, usize)` return of [`run_decider`], which silently dropped
/// the [`crate::MeteredRegister`] report of quantum-backed deciders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// End-of-stream verdict: `true` = accept.
    pub accept: bool,
    /// Peak classical work space, in bits.
    pub classical_bits: usize,
    /// Peak quantum register width, in qubits (0 if never allocated).
    pub peak_qubits: usize,
    /// Peak stored amplitudes (`2^qubits` dense, support high-water
    /// sparse; 0 if no register was allocated).
    pub peak_amplitudes: usize,
}

impl RunOutcome {
    /// Total space on the single-axis Definition 2.3 scale: classical
    /// bits plus qubits.
    pub fn total_space(&self) -> usize {
        self.classical_bits + self.peak_qubits
    }
}

/// Runs a decider over any symbol stream (materialized or generated
/// lazily) and returns the full [`RunOutcome`]. A thin wrapper over the
/// session engine — one [`crate::session::Session`] opened, fed, and
/// finished — so every one-shot run goes through the same seam the
/// suspendable/migratable runs use. [`run_decider`] and the batch
/// scheduler both delegate here.
pub fn run_decider_stream<D, W>(decider: D, word: W) -> RunOutcome
where
    D: StreamingDecider,
    W: IntoIterator<Item = Sym>,
{
    let mut session = crate::session::Session::new(decider);
    for sym in word {
        session.feed(sym);
    }
    session.finish()
}

/// Runs a decider over a word and returns the full [`RunOutcome`].
pub fn run_decider<D: StreamingDecider>(decider: D, word: &[Sym]) -> RunOutcome {
    run_decider_stream(decider, word.iter().copied())
}

/// The offline predicate a [`StoreEverything`] decider applies at end of
/// stream — a closed *named* set rather than an arbitrary closure, so the
/// decider's complete configuration (buffer **and** verdict rule) is a
/// finite byte string and [`StoreEverything`] can implement
/// [`crate::session::Checkpointable`] like every other decider in the
/// tree. (The closure form was the one decider a checkpoint could not
/// carry: a `Fn` has no serializable identity.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorePredicate {
    /// Accept iff the buffered word contains a `1`.
    ContainsOne,
    /// Accept iff the buffer is empty.
    IsEmpty,
    /// Accept iff the buffer length equals the given value.
    LengthEquals(u64),
    /// Accept every word.
    AcceptAll,
    /// Accept iff the buffered word is in `L_DISJ` (the reference
    /// offline decider, [`oqsc_lang::is_in_ldisj`]).
    InLdisj,
}

impl StorePredicate {
    /// Applies the predicate to a buffered word.
    pub fn eval(&self, word: &[Sym]) -> bool {
        match self {
            StorePredicate::ContainsOne => word.contains(&Sym::One),
            StorePredicate::IsEmpty => word.is_empty(),
            StorePredicate::LengthEquals(n) => word.len() as u64 == *n,
            StorePredicate::AcceptAll => true,
            StorePredicate::InLdisj => oqsc_lang::is_in_ldisj(word),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            StorePredicate::ContainsOne => 0,
            StorePredicate::IsEmpty => 1,
            StorePredicate::LengthEquals(_) => 2,
            StorePredicate::AcceptAll => 3,
            StorePredicate::InLdisj => 4,
        }
    }
}

/// A trivial decider that stores the entire input and applies a named
/// offline predicate: the "if the classical device can store the two
/// strings in memory, the problem is trivial" baseline from the paper's
/// introduction. Space is linear in the input length.
pub struct StoreEverything {
    buffer: Vec<Sym>,
    predicate: StorePredicate,
}

impl StoreEverything {
    /// Creates the decider with the offline predicate to apply at the end.
    pub fn new(predicate: StorePredicate) -> Self {
        StoreEverything {
            buffer: Vec::new(),
            predicate,
        }
    }
}

impl StreamingDecider for StoreEverything {
    fn feed(&mut self, sym: Sym) {
        self.buffer.push(sym);
    }

    fn decide(&mut self) -> bool {
        self.predicate.eval(&self.buffer)
    }

    fn space_bits(&self) -> usize {
        // Ternary symbols: 2 bits each is the natural packing.
        2 * self.buffer.len()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buffer.len() / 4 + 1);
        for chunk in self.buffer.chunks(4) {
            let mut byte = 0u8;
            for (i, &s) in chunk.iter().enumerate() {
                let code = match s {
                    Sym::Zero => 0u8,
                    Sym::One => 1,
                    Sym::Hash => 2,
                };
                byte |= code << (2 * i);
            }
            out.push(byte);
        }
        out
    }
}

impl crate::session::Checkpointable for StoreEverything {
    const TYPE_TAG: &'static str = "StoreEverything";

    fn write_state(&self, out: &mut Vec<u8>) {
        crate::session::put_u8(out, self.predicate.tag());
        if let StorePredicate::LengthEquals(n) = self.predicate {
            crate::session::put_u64(out, n);
        }
        crate::session::put_usize(out, self.buffer.len());
        for &s in &self.buffer {
            crate::session::put_u8(
                out,
                match s {
                    Sym::Zero => 0,
                    Sym::One => 1,
                    Sym::Hash => 2,
                },
            );
        }
    }

    fn read_state(
        r: &mut crate::session::ByteReader,
    ) -> Result<Self, crate::session::CheckpointError> {
        use crate::session::CheckpointError;
        let predicate = match r.read_u8()? {
            0 => StorePredicate::ContainsOne,
            1 => StorePredicate::IsEmpty,
            2 => StorePredicate::LengthEquals(r.read_u64()?),
            3 => StorePredicate::AcceptAll,
            4 => StorePredicate::InLdisj,
            t => return Err(CheckpointError::Malformed(format!("bad predicate tag {t}"))),
        };
        let len = r.read_usize()?;
        if r.remaining() < len {
            return Err(CheckpointError::Truncated);
        }
        let mut buffer = Vec::with_capacity(len);
        for _ in 0..len {
            buffer.push(match r.read_u8()? {
                0 => Sym::Zero,
                1 => Sym::One,
                2 => Sym::Hash,
                b => return Err(CheckpointError::Malformed(format!("bad symbol byte {b}"))),
            });
        }
        Ok(StoreEverything { buffer, predicate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ByteReader, Checkpointable, Session};
    use oqsc_lang::token::from_str;

    #[test]
    fn store_everything_applies_predicate() {
        let word = from_str("1#01#").expect("ok");
        let decider = StoreEverything::new(StorePredicate::ContainsOne);
        let out = run_decider(decider, &word);
        assert!(out.accept);
        assert_eq!(out.classical_bits, 2 * word.len());
        // Classical deciders report no quantum resources.
        assert_eq!(out.peak_qubits, 0);
        assert_eq!(out.peak_amplitudes, 0);
        assert_eq!(out.total_space(), out.classical_bits);
    }

    #[test]
    fn store_everything_rejects() {
        let word = from_str("0#0#").expect("ok");
        let decider = StoreEverything::new(StorePredicate::ContainsOne);
        assert!(!run_decider(decider, &word).accept);
    }

    #[test]
    fn snapshot_packs_two_bits_per_symbol() {
        let word = from_str("01#0101#").expect("ok");
        let mut d = StoreEverything::new(StorePredicate::AcceptAll);
        d.feed_all(&word);
        let snap = d.snapshot();
        assert_eq!(snap.len(), word.len().div_ceil(4));
        // First byte: 0,1,#,0 → 0 | 1<<2 | 2<<4 | 0<<6 = 0b100100.
        assert_eq!(snap[0], 0b0010_0100);
    }

    #[test]
    fn empty_stream_decides() {
        let mut d = StoreEverything::new(StorePredicate::IsEmpty);
        assert!(d.decide());
        assert_eq!(d.space_bits(), 0);
        assert!(d.snapshot().is_empty());
    }

    #[test]
    fn named_predicates_cover_their_semantics() {
        let word = from_str("01#1").expect("ok");
        let cases = [
            (StorePredicate::ContainsOne, true),
            (StorePredicate::IsEmpty, false),
            (StorePredicate::LengthEquals(4), true),
            (StorePredicate::LengthEquals(5), false),
            (StorePredicate::AcceptAll, true),
            (StorePredicate::InLdisj, false),
        ];
        for (pred, expect) in cases {
            assert_eq!(
                run_decider(StoreEverything::new(pred), &word).accept,
                expect,
                "{pred:?}"
            );
        }
    }

    #[test]
    fn store_everything_checkpoints_round_trip() {
        // The ROADMAP holdout: the buffer decider now survives the
        // suspend/serialize/resume seam like every other decider.
        let word = from_str("1#01#110#1").expect("ok");
        for pred in [
            StorePredicate::ContainsOne,
            StorePredicate::LengthEquals(3),
            StorePredicate::InLdisj,
        ] {
            let reference = run_decider(StoreEverything::new(pred), &word);
            for cut in 0..=word.len() {
                let mut s = Session::new(StoreEverything::new(pred));
                s.feed_all(&word[..cut]);
                let cp = s.suspend();
                let mut resumed = Session::<StoreEverything>::resume(&cp).expect("resumes");
                resumed.feed_all(&word[cut..]);
                assert_eq!(resumed.finish(), reference, "{pred:?} cut {cut}");
            }
        }
    }

    #[test]
    fn store_everything_rejects_malformed_state() {
        let mut bytes = Vec::new();
        crate::session::put_u8(&mut bytes, 200); // no such predicate tag
        assert!(StoreEverything::read_state(&mut ByteReader::new(&bytes)).is_err());
        let mut bytes = Vec::new();
        crate::session::put_u8(&mut bytes, 0);
        crate::session::put_usize(&mut bytes, usize::MAX); // overflowing length
        assert!(matches!(
            StoreEverything::read_state(&mut ByteReader::new(&bytes)),
            Err(crate::session::CheckpointError::Truncated)
        ));
    }
}
