//! The serving catalog: every decider the repo can stream, behind one
//! checkpointable type.
//!
//! The text protocol opens sessions by *name* (`OPEN <id> <kind>
//! <seed>`), so the engine needs a single concrete decider type covering
//! the whole tree: the seven deciders of the reproduction, with the
//! three quantum ones instantiated over all four backends.
//! [`AnyDecider`] is that closed sum. Its checkpoint encoding prefixes
//! the inner decider's state with a one-byte kind tag, so a mixed fleet
//! shares one [`MuxEngine`](crate::MuxEngine) — and one spill store —
//! regardless of which kinds it mixes.
//!
//! Construction is deterministic: `(kind, seed)` fully determines the
//! decider (the seed feeds a [`StdRng`], exactly like the sweep
//! registry's per-instance seeding), which is what makes served verdicts
//! reproducible against direct [`run_decider_stream`] runs.
//!
//! [`run_decider_stream`]: oqsc_machine::run_decider_stream

use oqsc_core::{
    ComplementRecognizer, ConsistencyChecker, FormatChecker, GroverStreamer, LdisjRecognizer,
    Prop37Decider, SketchDecider,
};
use oqsc_lang::Sym;
use oqsc_machine::{put_u8, ByteReader, CheckpointError, Checkpointable, StreamingDecider};
use oqsc_quantum::{AdaptiveState, ParallelStateVector, SparseState, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Amplification copies for the served L_DISJ recognizer (kept small:
/// serving cost scales linearly in copies).
pub const LDISJ_REPS: usize = 2;

/// Coordinate budget for the served sub-√m sketch baseline.
pub const SKETCH_BUDGET: usize = 4;

/// Every openable decider kind, by protocol name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeciderKind {
    /// `format` — A1 shape checker (classical).
    Format,
    /// `consistency` — A2 fingerprint consistency checker (classical).
    Consistency,
    /// `prop37` — Proposition 3.7 block decider (classical).
    Prop37,
    /// `sketch` — sub-√m sampling sketch baseline (classical).
    Sketch,
    /// `complement-dense` — Theorem 3.4 recognizer, dense backend.
    ComplementDense,
    /// `complement-parallel` — recognizer on the parallel dense backend.
    ComplementParallel,
    /// `complement-sparse` — recognizer on the sparse backend.
    ComplementSparse,
    /// `complement-adaptive` — recognizer on the adaptive backend.
    ComplementAdaptive,
    /// `grover-dense` — A3 Grover streamer, dense backend.
    GroverDense,
    /// `grover-parallel` — A3 on the parallel dense backend.
    GroverParallel,
    /// `grover-sparse` — A3 on the sparse backend.
    GroverSparse,
    /// `grover-adaptive` — A3 on the adaptive backend.
    GroverAdaptive,
    /// `ldisj-dense` — amplified L_DISJ recognizer, dense backend.
    LdisjDense,
    /// `ldisj-parallel` — amplified recognizer, parallel dense backend.
    LdisjParallel,
    /// `ldisj-sparse` — amplified recognizer, sparse backend.
    LdisjSparse,
    /// `ldisj-adaptive` — amplified recognizer, adaptive backend.
    LdisjAdaptive,
}

impl DeciderKind {
    /// Every kind, in tag order (the index is the checkpoint tag byte).
    pub const ALL: [DeciderKind; 16] = [
        DeciderKind::Format,
        DeciderKind::Consistency,
        DeciderKind::Prop37,
        DeciderKind::Sketch,
        DeciderKind::ComplementDense,
        DeciderKind::ComplementParallel,
        DeciderKind::ComplementSparse,
        DeciderKind::ComplementAdaptive,
        DeciderKind::GroverDense,
        DeciderKind::GroverParallel,
        DeciderKind::GroverSparse,
        DeciderKind::GroverAdaptive,
        DeciderKind::LdisjDense,
        DeciderKind::LdisjParallel,
        DeciderKind::LdisjSparse,
        DeciderKind::LdisjAdaptive,
    ];

    /// The protocol name (`OPEN <id> <kind> <seed>`).
    pub fn name(self) -> &'static str {
        match self {
            DeciderKind::Format => "format",
            DeciderKind::Consistency => "consistency",
            DeciderKind::Prop37 => "prop37",
            DeciderKind::Sketch => "sketch",
            DeciderKind::ComplementDense => "complement-dense",
            DeciderKind::ComplementParallel => "complement-parallel",
            DeciderKind::ComplementSparse => "complement-sparse",
            DeciderKind::ComplementAdaptive => "complement-adaptive",
            DeciderKind::GroverDense => "grover-dense",
            DeciderKind::GroverParallel => "grover-parallel",
            DeciderKind::GroverSparse => "grover-sparse",
            DeciderKind::GroverAdaptive => "grover-adaptive",
            DeciderKind::LdisjDense => "ldisj-dense",
            DeciderKind::LdisjParallel => "ldisj-parallel",
            DeciderKind::LdisjSparse => "ldisj-sparse",
            DeciderKind::LdisjAdaptive => "ldisj-adaptive",
        }
    }

    /// Parses a protocol name.
    pub fn from_name(name: &str) -> Option<DeciderKind> {
        DeciderKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The checkpoint tag byte (index into [`Self::ALL`]).
    fn tag(self) -> u8 {
        DeciderKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind is in ALL") as u8
    }

    /// Builds the decider deterministically from `seed`.
    pub fn build(self, seed: u64) -> AnyDecider {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            DeciderKind::Format => AnyDecider::Format(FormatChecker::new()),
            DeciderKind::Consistency => AnyDecider::Consistency(ConsistencyChecker::new(&mut rng)),
            DeciderKind::Prop37 => AnyDecider::Prop37(Prop37Decider::new(&mut rng)),
            DeciderKind::Sketch => AnyDecider::Sketch(SketchDecider::new(SKETCH_BUDGET, &mut rng)),
            DeciderKind::ComplementDense => {
                AnyDecider::ComplementDense(ComplementRecognizer::new_in(&mut rng))
            }
            DeciderKind::ComplementParallel => {
                AnyDecider::ComplementParallel(ComplementRecognizer::new_in(&mut rng))
            }
            DeciderKind::ComplementSparse => {
                AnyDecider::ComplementSparse(ComplementRecognizer::new_in(&mut rng))
            }
            DeciderKind::ComplementAdaptive => {
                AnyDecider::ComplementAdaptive(ComplementRecognizer::new_in(&mut rng))
            }
            DeciderKind::GroverDense => AnyDecider::GroverDense(GroverStreamer::new_in(&mut rng)),
            DeciderKind::GroverParallel => {
                AnyDecider::GroverParallel(GroverStreamer::new_in(&mut rng))
            }
            DeciderKind::GroverSparse => AnyDecider::GroverSparse(GroverStreamer::new_in(&mut rng)),
            DeciderKind::GroverAdaptive => {
                AnyDecider::GroverAdaptive(GroverStreamer::new_in(&mut rng))
            }
            DeciderKind::LdisjDense => {
                AnyDecider::LdisjDense(LdisjRecognizer::new_in(LDISJ_REPS, &mut rng))
            }
            DeciderKind::LdisjParallel => {
                AnyDecider::LdisjParallel(LdisjRecognizer::new_in(LDISJ_REPS, &mut rng))
            }
            DeciderKind::LdisjSparse => {
                AnyDecider::LdisjSparse(LdisjRecognizer::new_in(LDISJ_REPS, &mut rng))
            }
            DeciderKind::LdisjAdaptive => {
                AnyDecider::LdisjAdaptive(LdisjRecognizer::new_in(LDISJ_REPS, &mut rng))
            }
        }
    }
}

/// The closed sum of every servable decider (see the module docs).
#[derive(Clone, Debug)]
pub enum AnyDecider {
    /// A1 shape checker.
    Format(FormatChecker),
    /// A2 consistency checker.
    Consistency(ConsistencyChecker),
    /// Proposition 3.7 block decider.
    Prop37(Prop37Decider),
    /// Sub-√m sketch baseline.
    Sketch(SketchDecider),
    /// Complement recognizer, dense backend.
    ComplementDense(ComplementRecognizer<StateVector>),
    /// Complement recognizer, parallel dense backend.
    ComplementParallel(ComplementRecognizer<ParallelStateVector>),
    /// Complement recognizer, sparse backend.
    ComplementSparse(ComplementRecognizer<SparseState>),
    /// Complement recognizer, adaptive backend.
    ComplementAdaptive(ComplementRecognizer<AdaptiveState>),
    /// A3 streamer, dense backend.
    GroverDense(GroverStreamer<StateVector>),
    /// A3 streamer, parallel dense backend.
    GroverParallel(GroverStreamer<ParallelStateVector>),
    /// A3 streamer, sparse backend.
    GroverSparse(GroverStreamer<SparseState>),
    /// A3 streamer, adaptive backend.
    GroverAdaptive(GroverStreamer<AdaptiveState>),
    /// Amplified L_DISJ recognizer, dense backend.
    LdisjDense(LdisjRecognizer<StateVector>),
    /// Amplified L_DISJ recognizer, parallel dense backend.
    LdisjParallel(LdisjRecognizer<ParallelStateVector>),
    /// Amplified L_DISJ recognizer, sparse backend.
    LdisjSparse(LdisjRecognizer<SparseState>),
    /// Amplified L_DISJ recognizer, adaptive backend.
    LdisjAdaptive(LdisjRecognizer<AdaptiveState>),
}

/// Dispatches `$body` over every variant's inner decider.
macro_rules! with_inner {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            AnyDecider::Format($d) => $body,
            AnyDecider::Consistency($d) => $body,
            AnyDecider::Prop37($d) => $body,
            AnyDecider::Sketch($d) => $body,
            AnyDecider::ComplementDense($d) => $body,
            AnyDecider::ComplementParallel($d) => $body,
            AnyDecider::ComplementSparse($d) => $body,
            AnyDecider::ComplementAdaptive($d) => $body,
            AnyDecider::GroverDense($d) => $body,
            AnyDecider::GroverParallel($d) => $body,
            AnyDecider::GroverSparse($d) => $body,
            AnyDecider::GroverAdaptive($d) => $body,
            AnyDecider::LdisjDense($d) => $body,
            AnyDecider::LdisjParallel($d) => $body,
            AnyDecider::LdisjSparse($d) => $body,
            AnyDecider::LdisjAdaptive($d) => $body,
        }
    };
}

impl AnyDecider {
    /// The kind this decider was built as.
    pub fn kind(&self) -> DeciderKind {
        match self {
            AnyDecider::Format(_) => DeciderKind::Format,
            AnyDecider::Consistency(_) => DeciderKind::Consistency,
            AnyDecider::Prop37(_) => DeciderKind::Prop37,
            AnyDecider::Sketch(_) => DeciderKind::Sketch,
            AnyDecider::ComplementDense(_) => DeciderKind::ComplementDense,
            AnyDecider::ComplementParallel(_) => DeciderKind::ComplementParallel,
            AnyDecider::ComplementSparse(_) => DeciderKind::ComplementSparse,
            AnyDecider::ComplementAdaptive(_) => DeciderKind::ComplementAdaptive,
            AnyDecider::GroverDense(_) => DeciderKind::GroverDense,
            AnyDecider::GroverParallel(_) => DeciderKind::GroverParallel,
            AnyDecider::GroverSparse(_) => DeciderKind::GroverSparse,
            AnyDecider::GroverAdaptive(_) => DeciderKind::GroverAdaptive,
            AnyDecider::LdisjDense(_) => DeciderKind::LdisjDense,
            AnyDecider::LdisjParallel(_) => DeciderKind::LdisjParallel,
            AnyDecider::LdisjSparse(_) => DeciderKind::LdisjSparse,
            AnyDecider::LdisjAdaptive(_) => DeciderKind::LdisjAdaptive,
        }
    }
}

impl StreamingDecider for AnyDecider {
    fn feed(&mut self, sym: Sym) {
        with_inner!(self, d => d.feed(sym))
    }

    fn decide(&mut self) -> bool {
        with_inner!(self, d => d.decide())
    }

    fn space_bits(&self) -> usize {
        with_inner!(self, d => d.space_bits())
    }

    fn peak_qubits(&self) -> usize {
        with_inner!(self, d => d.peak_qubits())
    }

    fn peak_amplitudes(&self) -> usize {
        with_inner!(self, d => d.peak_amplitudes())
    }

    fn snapshot(&self) -> Vec<u8> {
        with_inner!(self, d => d.snapshot())
    }

    fn feed_all(&mut self, word: &[Sym]) {
        // One enum dispatch per batch, not per token, into the inner
        // decider's own feed_all (run-batched for A1, A2, A3 and the
        // recognizers) — the fast path Session::feed_slice rides on.
        with_inner!(self, d => d.feed_all(word))
    }
}

impl Checkpointable for AnyDecider {
    const TYPE_TAG: &'static str = "AnyDecider";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_u8(out, self.kind().tag());
        with_inner!(self, d => d.write_state(out))
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        let tag = r.read_u8()?;
        let kind = *DeciderKind::ALL
            .get(tag as usize)
            .ok_or_else(|| CheckpointError::Malformed(format!("bad decider kind tag {tag}")))?;
        Ok(match kind {
            DeciderKind::Format => AnyDecider::Format(FormatChecker::read_state(r)?),
            DeciderKind::Consistency => AnyDecider::Consistency(ConsistencyChecker::read_state(r)?),
            DeciderKind::Prop37 => AnyDecider::Prop37(Prop37Decider::read_state(r)?),
            DeciderKind::Sketch => AnyDecider::Sketch(SketchDecider::read_state(r)?),
            DeciderKind::ComplementDense => {
                AnyDecider::ComplementDense(ComplementRecognizer::read_state(r)?)
            }
            DeciderKind::ComplementParallel => {
                AnyDecider::ComplementParallel(ComplementRecognizer::read_state(r)?)
            }
            DeciderKind::ComplementSparse => {
                AnyDecider::ComplementSparse(ComplementRecognizer::read_state(r)?)
            }
            DeciderKind::ComplementAdaptive => {
                AnyDecider::ComplementAdaptive(ComplementRecognizer::read_state(r)?)
            }
            DeciderKind::GroverDense => AnyDecider::GroverDense(GroverStreamer::read_state(r)?),
            DeciderKind::GroverParallel => {
                AnyDecider::GroverParallel(GroverStreamer::read_state(r)?)
            }
            DeciderKind::GroverSparse => AnyDecider::GroverSparse(GroverStreamer::read_state(r)?),
            DeciderKind::GroverAdaptive => {
                AnyDecider::GroverAdaptive(GroverStreamer::read_state(r)?)
            }
            DeciderKind::LdisjDense => AnyDecider::LdisjDense(LdisjRecognizer::read_state(r)?),
            DeciderKind::LdisjParallel => {
                AnyDecider::LdisjParallel(LdisjRecognizer::read_state(r)?)
            }
            DeciderKind::LdisjSparse => AnyDecider::LdisjSparse(LdisjRecognizer::read_state(r)?),
            DeciderKind::LdisjAdaptive => {
                AnyDecider::LdisjAdaptive(LdisjRecognizer::read_state(r)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_machine::{run_decider, Session};

    #[test]
    fn names_round_trip_and_tags_are_stable() {
        for (i, kind) in DeciderKind::ALL.into_iter().enumerate() {
            assert_eq!(DeciderKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.tag() as usize, i);
            assert_eq!(kind.build(42).kind(), kind);
        }
        assert_eq!(DeciderKind::from_name("no-such-kind"), None);
    }

    #[test]
    fn any_decider_checkpoints_transparently_for_every_kind() {
        let word = oqsc_lang::token::from_str("1#01#110#1").expect("syms");
        for kind in DeciderKind::ALL {
            let reference = run_decider(kind.build(7), &word);
            for cut in [0, 3, word.len()] {
                let mut s = Session::new(kind.build(7));
                s.feed_all(&word[..cut]);
                let cp = s.suspend();
                let mut resumed = Session::<AnyDecider>::resume(&cp).expect("resumes");
                resumed.feed_all(&word[cut..]);
                assert_eq!(resumed.finish(), reference, "{} cut {cut}", kind.name());
            }
        }
    }

    #[test]
    fn bad_kind_tags_are_rejected() {
        let mut bytes = Vec::new();
        put_u8(&mut bytes, 200);
        assert!(matches!(
            AnyDecider::read_state(&mut ByteReader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
