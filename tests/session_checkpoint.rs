//! The session engine's contract (DESIGN.md §7), pinned end to end:
//! suspending a decider at **any** token boundary, serializing the
//! checkpoint to bytes, moving it (between workers, or just through a
//! byte buffer), and resuming yields `RunOutcome`s and `BatchReport`s
//! `==`-identical to the uninterrupted run — on the dense, parallel,
//! sparse and adaptive backends. Unknown checkpoint and snapshot
//! versions are rejected, never half-read. CI runs this suite under
//! `--release`.

use onlineq::core::sweep::{complement_sweep_in, complement_sweep_scheduled_in};
use onlineq::core::{ComplementRecognizer, GroverStreamer, LdisjRecognizer, Prop37Decider};
use onlineq::lang::token::from_str;
use onlineq::lang::{malform, random_member, random_nonmember, Sym, ALL_MALFORMATIONS};
use onlineq::machine::{
    run_decider, BatchRunner, CheckpointError, Checkpointable, Session, SessionCheckpoint,
    SessionSchedule, StreamingDecider, CHECKPOINT_VERSION,
};
use onlineq::quantum::{
    AdaptiveState, ParallelStateVector, QuantumBackend, SparseState, StateVector,
};
use onlineq::serve::DeciderKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `decider` uninterrupted, then replays it with a suspend → wire
/// bytes → resume round trip at every single token position, requiring
/// the identical `RunOutcome` each time.
fn assert_checkpoint_transparent_at_every_position<D>(make: impl Fn() -> D, word: &[Sym])
where
    D: Checkpointable,
{
    let reference = run_decider(make(), word);
    for cut in 0..=word.len() {
        let mut first = Session::new(make());
        first.feed_all(&word[..cut]);
        let wire = first.suspend().into_bytes();
        drop(first); // the original is gone; only the bytes survive
        let cp = SessionCheckpoint::from_bytes(wire).expect("wire bytes round-trip");
        assert_eq!(cp.position(), cut as u64);
        let mut resumed = Session::<D>::resume(&cp).expect("checkpoint resumes");
        resumed.feed_all(&word[cut..]);
        assert_eq!(resumed.finish(), reference, "suspend at position {cut}");
    }
}

/// The tentpole property on the quantum pipeline: the full A1∧A2∧A3
/// recognizer — register snapshot included — survives suspension at
/// every token position of a small instance, on all four backends.
#[test]
fn recognizer_checkpoint_round_trip_at_every_token_position() {
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let word = random_nonmember(1, 2, &mut rng).encode();
    assert_checkpoint_transparent_at_every_position(
        || ComplementRecognizer::<StateVector>::with_seeds_in(3, 1, 7),
        &word,
    );
    assert_checkpoint_transparent_at_every_position(
        || ComplementRecognizer::<ParallelStateVector>::with_seeds_in(3, 1, 7),
        &word,
    );
    assert_checkpoint_transparent_at_every_position(
        || ComplementRecognizer::<SparseState>::with_seeds_in(3, 1, 7),
        &word,
    );
    assert_checkpoint_transparent_at_every_position(
        || ComplementRecognizer::<AdaptiveState>::with_seeds_in(3, 1, 7),
        &word,
    );
}

/// The raw A3 streamer's register state is byte-exact across the seam:
/// detection probability digits agree at every resume point, including a
/// suspension in the middle of the marking round.
#[test]
fn a3_detection_digits_survive_mid_stream_suspension() {
    let mut rng = StdRng::seed_from_u64(0xA3A3);
    let word = random_nonmember(2, 3, &mut rng).encode();
    for backend in 0..2 {
        for cut in (0..=word.len()).step_by(7) {
            let mut reference = GroverStreamer::<StateVector>::with_j_seed_in(2, 0);
            reference.feed_all(&word);
            let p_ref = reference.detection_probability();
            let p_resumed = if backend == 0 {
                let mut s = Session::new(GroverStreamer::<StateVector>::with_j_seed_in(2, 0));
                s.feed_all(&word[..cut]);
                let cp = s.suspend();
                let mut r = Session::<GroverStreamer<StateVector>>::resume(&cp).expect("resumes");
                r.feed_all(&word[cut..]);
                r.decider().detection_probability()
            } else {
                let mut s = Session::new(GroverStreamer::<AdaptiveState>::with_j_seed_in(2, 0));
                s.feed_all(&word[..cut]);
                let cp = s.suspend();
                let mut r = Session::<GroverStreamer<AdaptiveState>>::resume(&cp).expect("resumes");
                r.feed_all(&word[cut..]);
                r.decider().detection_probability()
            };
            assert_eq!(
                p_ref.to_bits(),
                p_resumed.to_bits(),
                "backend {backend} cut {cut}"
            );
        }
    }
}

/// Classical deciders round-trip too: the Proposition 3.7 buffer decider
/// and the amplified recognizer (whose checkpoint carries four register
/// snapshots).
#[test]
fn classical_and_amplified_deciders_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let word = random_nonmember(1, 1, &mut rng).encode();
    assert_checkpoint_transparent_at_every_position(
        || {
            let mut rng = StdRng::seed_from_u64(9);
            Prop37Decider::new(&mut rng)
        },
        &word,
    );
    assert_checkpoint_transparent_at_every_position(
        || {
            let mut rng = StdRng::seed_from_u64(11);
            LdisjRecognizer::<SparseState>::new_in(4, &mut rng)
        },
        &word,
    );
}

/// The batch scheduler under the migrating schedule: every instance is
/// suspended, serialized and resumed from its bytes at every segment
/// boundary — and the report equals the uninterrupted one on all four
/// backends, at several worker counts and segment lengths.
#[test]
fn migrating_batch_reports_equal_uninterrupted_reports() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let words: Vec<Vec<Sym>> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                random_member(1, &mut rng).encode()
            } else {
                random_nonmember(1, 1 + i % 3, &mut rng).encode()
            }
        })
        .collect();
    fn check<B: QuantumBackend>(words: &[Vec<Sym>], name: &str) {
        let reference = complement_sweep_in::<B>(words, 0xFEED, &BatchRunner::serial());
        for workers in [1usize, 2, 5] {
            for segment in [1usize, 3, 64, 10_000] {
                let report = complement_sweep_scheduled_in::<B>(
                    words,
                    0xFEED,
                    &BatchRunner::new(workers),
                    SessionSchedule::MigrateEvery(segment),
                );
                assert_eq!(
                    report, reference,
                    "{name}: workers={workers} segment={segment}"
                );
            }
        }
    }
    check::<StateVector>(&words, "dense");
    check::<ParallelStateVector>(&words, "parallel-dense");
    check::<SparseState>(&words, "sparse");
    check::<AdaptiveState>(&words, "adaptive");
}

/// Unknown checkpoint versions are rejected up front (the CI contract:
/// a checkpoint written by a future layout must never be half-read).
#[test]
fn unknown_checkpoint_version_is_rejected() {
    let mut rng = StdRng::seed_from_u64(1);
    let word = random_member(1, &mut rng).encode();
    let mut s = Session::new(ComplementRecognizer::<SparseState>::with_seeds_in(0, 0, 0));
    s.feed_all(&word[..5]);
    let mut bytes = s.suspend().into_bytes();
    bytes[0] = CHECKPOINT_VERSION + 1;
    match SessionCheckpoint::from_bytes(bytes) {
        Err(CheckpointError::UnsupportedVersion(v)) => assert_eq!(v, CHECKPOINT_VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A corrupted (truncated) decider payload fails resume loudly instead
/// of rebuilding a half-initialized decider.
#[test]
fn truncated_checkpoint_payload_fails_resume() {
    let mut rng = StdRng::seed_from_u64(2);
    let word = random_member(1, &mut rng).encode();
    let mut s = Session::new(ComplementRecognizer::<StateVector>::with_seeds_in(0, 0, 0));
    s.feed_all(&word[..8]);
    let mut bytes = s.suspend().into_bytes();
    bytes.truncate(bytes.len() - 3);
    let cp = SessionCheckpoint::from_bytes(bytes).expect("header intact");
    assert!(Session::<ComplementRecognizer<StateVector>>::resume(&cp).is_err());
}

/// `run_decider` (the one-shot wrapper) and an explicit session agree —
/// the refactor seam itself.
#[test]
fn run_decider_is_a_session_wrapper() {
    let mut rng = StdRng::seed_from_u64(3);
    let word = random_nonmember(1, 1, &mut rng).encode();
    let via_run = run_decider(
        ComplementRecognizer::<StateVector>::with_seeds_in(1, 2, 3),
        &word,
    );
    let mut session = Session::new(ComplementRecognizer::<StateVector>::with_seeds_in(1, 2, 3));
    session.feed_all(&word);
    assert_eq!(session.position(), word.len() as u64);
    assert_eq!(session.finish(), via_run);
}

/// `Session::feed_slice` hands whole slices to the deciders' run-batched
/// `feed_all`. For every catalog kind, a session fed one symbol at a time
/// and a twin fed seeded random chunks of 1 to 2m + 2 symbols must carry
/// byte-identical checkpoints at every chunk boundary and finish with
/// the same outcome — on members, non-members, every malformation, and
/// the degenerate words that exercise A1's, A2's and A3's guard paths.
#[test]
fn feed_slice_is_split_invariant_for_every_catalog_kind() {
    let mut rng = StdRng::seed_from_u64(0x5711);
    // (word, m): chunks run up to 2m + 2 symbols, past a whole block.
    let mut words: Vec<(Vec<Sym>, usize)> = Vec::new();
    for k in 1..=3u32 {
        let m = 1usize << (2 * k);
        words.push((random_member(k, &mut rng).encode(), m));
        words.push((random_nonmember(k, 1, &mut rng).encode(), m));
        words.push((random_nonmember(k, m, &mut rng).encode(), m));
    }
    words.push((random_member(4, &mut rng).encode(), 256));
    words.push((random_nonmember(4, 1, &mut rng).encode(), 256));
    let k2_member = random_member(2, &mut rng);
    for kind in ALL_MALFORMATIONS {
        words.push((malform(&k2_member, kind, &mut rng), 16));
    }
    for degenerate in ["1#1111111111#0000#1111#", "0#101#11#", "11111111#0101#"] {
        words.push((from_str(degenerate).expect("symbols"), 4));
    }
    for (w, (word, m)) in words.iter().enumerate() {
        for (i, kind) in DeciderKind::ALL.into_iter().enumerate() {
            let seed = (w * 16 + i) as u64;
            let mut by_symbol = Session::new(kind.build(seed));
            let mut by_slice = Session::new(kind.build(seed));
            let mut at = 0;
            while at < word.len() {
                let end = (at + rng.gen_range(1..=2 * m + 2)).min(word.len());
                for &sym in &word[at..end] {
                    by_symbol.feed(sym);
                }
                by_slice.feed_slice(&word[at..end]);
                assert_eq!(
                    by_slice.suspend().as_bytes(),
                    by_symbol.suspend().as_bytes(),
                    "{} word {w}: checkpoints differ after {end} symbols",
                    kind.name()
                );
                at = end;
            }
            assert_eq!(
                by_slice.finish(),
                by_symbol.finish(),
                "{} word {w}",
                kind.name()
            );
        }
    }
}
