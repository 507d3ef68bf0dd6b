//! Batched recognizer sweeps: the Definition 2.3 end-to-end runs, fleet
//! style.
//!
//! Every experiment that feeds many words through
//! [`ComplementRecognizer`] / [`LdisjRecognizer`] instances goes through
//! [`BatchRunner`] here: one fresh recognizer per word, per-index seeds
//! derived from one base seed (SplitMix64), shards executed concurrently,
//! results aggregated into a worker-count-independent
//! [`BatchReport`]. Generic over the simulation backend, so the same
//! sweep runs dense ([`StateVector`]), parallel-dense
//! (`ParallelStateVector`) or sparse (`SparseState`) — and the
//! cross-backend suites compare the reports.

use crate::classical::SketchDecider;
use crate::recognizer::{ComplementRecognizer, LdisjRecognizer};
use oqsc_lang::{malform, random_member, random_nonmember, Malformation, Sym};
use oqsc_machine::{BatchReport, BatchRunner, CheckpointStore, SessionSchedule, StoreError};
use oqsc_quantum::{QuantumBackend, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64: one cheap, well-mixed seed per instance index. Every
/// batch task derives its entropy from `(base, index)` alone, which is
/// what makes a sweep's [`BatchReport`] independent of worker count and
/// shard order (the DESIGN.md §6 determinism contract).
pub fn derive_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sweeps the Theorem 3.4 complement recognizer over `words` on the
/// dense default backend.
pub fn complement_sweep(words: &[Vec<Sym>], base_seed: u64, runner: &BatchRunner) -> BatchReport {
    complement_sweep_in::<StateVector>(words, base_seed, runner)
}

/// [`complement_sweep`] over any backend.
pub fn complement_sweep_in<B: QuantumBackend>(
    words: &[Vec<Sym>],
    base_seed: u64,
    runner: &BatchRunner,
) -> BatchReport {
    complement_sweep_scheduled_in::<B>(words, base_seed, runner, SessionSchedule::Uninterrupted)
}

/// [`complement_sweep_in`] under an explicit [`SessionSchedule`]: with
/// [`SessionSchedule::MigrateEvery`], every recognizer is repeatedly
/// suspended, serialized (decider configuration + register snapshot +
/// metering), and resumed from those bytes by the claim-next worker
/// running it — producing the identical report, by the checkpoint
/// round-trip contract.
pub fn complement_sweep_scheduled_in<B: QuantumBackend>(
    words: &[Vec<Sym>],
    base_seed: u64,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> BatchReport {
    runner.run_words(words, schedule, |i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, i));
        ComplementRecognizer::<B>::new_in(&mut rng)
    })
}

/// Sweeps the Corollary 3.5 amplified recognizer (`reps` parallel
/// copies) over `words` on the dense default backend.
pub fn ldisj_sweep(
    words: &[Vec<Sym>],
    reps: usize,
    base_seed: u64,
    runner: &BatchRunner,
) -> BatchReport {
    ldisj_sweep_in::<StateVector>(words, reps, base_seed, runner)
}

/// [`ldisj_sweep`] over any backend.
pub fn ldisj_sweep_in<B: QuantumBackend>(
    words: &[Vec<Sym>],
    reps: usize,
    base_seed: u64,
    runner: &BatchRunner,
) -> BatchReport {
    ldisj_sweep_scheduled_in::<B>(
        words,
        reps,
        base_seed,
        runner,
        SessionSchedule::Uninterrupted,
    )
}

/// [`ldisj_sweep_in`] under an explicit [`SessionSchedule`] (see
/// [`complement_sweep_scheduled_in`]).
pub fn ldisj_sweep_scheduled_in<B: QuantumBackend>(
    words: &[Vec<Sym>],
    reps: usize,
    base_seed: u64,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> BatchReport {
    runner.run_words(words, schedule, |i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, i));
        LdisjRecognizer::<B>::new_in(reps, &mut rng)
    })
}

/// [`complement_sweep_in`] with **persistence**: every recognizer's
/// checkpoint is appended to `store` after each segment of
/// `persist_every` tokens, and any instance the store already holds
/// progress for resumes from its last persisted boundary (see
/// [`BatchRunner::run_resumable_budgeted`]). `token_budget` caps how
/// many symbols this call may feed before it stops dead and returns
/// `Ok(None)` — the crash/preemption model the recovery suite drives;
/// pass `u64::MAX` to run to completion. Complete runs are
/// `==`-identical to [`complement_sweep_in`], wherever previous runs
/// crashed.
pub fn complement_sweep_resumable_in<B: QuantumBackend>(
    words: &[Vec<Sym>],
    base_seed: u64,
    runner: &BatchRunner,
    persist_every: usize,
    store: &mut CheckpointStore,
    token_budget: u64,
) -> Result<Option<BatchReport>, StoreError> {
    runner.run_resumable_budgeted(words.len(), persist_every, store, token_budget, |i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, i));
        (
            ComplementRecognizer::<B>::new_in(&mut rng),
            words[i].iter().copied(),
        )
    })
}

// ---------------------------------------------------------------------
// Pure per-fleet task functions
// ---------------------------------------------------------------------
//
// Every sweep below is expressed as `task(i) → (decider, stream)`, the
// form the batch, resumable, and cross-process schedulers all consume:
// instance `i` is a pure function of the fleet parameters and `i` alone,
// so any scheduler — in-process, killed-and-resumed, or a worker process
// holding nothing but indices — re-derives identical instances.

/// Builds trial `i` of the **recognizer frequency fleet**: one freshly
/// seeded Theorem 3.4 recognizer fed `word` (the Monte-Carlo acceptance
/// estimate's unit of work). Mirrors
/// [`separation_quantum_task`](crate::separation::separation_quantum_task).
pub fn complement_frequency_task<'w, B: QuantumBackend>(
    word: &'w [Sym],
    base_seed: u64,
    i: usize,
) -> (ComplementRecognizer<B>, impl Iterator<Item = Sym> + 'w) {
    let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, i));
    (
        ComplementRecognizer::<B>::new_in(&mut rng),
        word.iter().copied(),
    )
}

/// Builds trial `i` of **experiment F3's fleet at `k`**: a freshly
/// seeded A2 consistency checker fed a corrupted (x-drifting) member
/// word, both derived from `(k, i)` alone. One fleet per `k`; the
/// fleet's accept rate is the empirical false-accept rate.
pub fn f3_fingerprint_task(
    k: u32,
    i: usize,
) -> (crate::ConsistencyChecker, std::vec::IntoIter<Sym>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(7000 + u64::from(k), i));
    let inst = random_member(k, &mut rng);
    let bad = malform(&inst, Malformation::XDriftAcrossRounds, &mut rng);
    let a2 = crate::ConsistencyChecker::new(&mut rng);
    (a2, bad.into_iter())
}

/// Builds trial `i` of **experiment F4's fleet at `(k, budget)`**: a
/// sketch decider with `budget` stored positions fed a planted `t = 1`
/// non-member, both derived from `(budget, i)` alone. One fleet per
/// budget; the fleet's accept rate is the miss rate.
pub fn f4_sketch_task(k: u32, budget: usize, i: usize) -> (SketchDecider, std::vec::IntoIter<Sym>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(8000 + budget as u64, i));
    let non = random_nonmember(k, 1, &mut rng);
    let sketch = SketchDecider::new(budget, &mut rng);
    (sketch, non.encode().into_iter())
}

/// Monte-Carlo acceptance estimate of the complement recognizer on one
/// word: `trials` independent seeded recognizers through the batch path,
/// returning the acceptance frequency. Deterministic in `(base_seed,
/// trials)` whatever the worker count.
pub fn complement_accept_frequency_in<B: QuantumBackend>(
    word: &[Sym],
    trials: usize,
    base_seed: u64,
    runner: &BatchRunner,
) -> f64 {
    let report = runner.run(trials, SessionSchedule::Uninterrupted, |i| {
        complement_frequency_task::<B>(word, base_seed, i)
    });
    report.accept_rate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognizer::exact_complement_accept_probability;
    use oqsc_lang::{random_member, random_nonmember};
    use oqsc_quantum::{ParallelStateVector, SparseState};
    use rand::Rng;

    fn seeded_words(n: usize, seed: u64) -> Vec<Vec<Sym>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    random_member(1, &mut rng).encode()
                } else {
                    random_nonmember(1, 1 + rng.gen_range(0..3usize), &mut rng).encode()
                }
            })
            .collect()
    }

    #[test]
    fn sweep_report_is_worker_count_independent() {
        let words = seeded_words(10, 42);
        let reference = complement_sweep(&words, 7, &BatchRunner::serial());
        for workers in [2usize, 5, 8] {
            let report = complement_sweep(&words, 7, &BatchRunner::new(workers));
            assert_eq!(report, reference, "workers={workers}");
        }
    }

    #[test]
    fn sweep_reports_agree_across_backends() {
        // Same seeds, three backends: identical verdict sets and space
        // accounting except for the stored-amplitude observable, where
        // parallel-dense ≡ dense and sparse is bounded by dense.
        let words = seeded_words(8, 99);
        let runner = BatchRunner::new(4);
        let dense = complement_sweep_in::<StateVector>(&words, 3, &runner);
        let par = complement_sweep_in::<ParallelStateVector>(&words, 3, &runner);
        let sparse = complement_sweep_in::<SparseState>(&words, 3, &runner);
        assert_eq!(dense, par, "parallel-dense must match dense exactly");
        assert_eq!(sparse.accepted, dense.accepted);
        assert_eq!(sparse.peak_qubits, dense.peak_qubits);
        assert_eq!(sparse.peak_classical_bits, dense.peak_classical_bits);
        assert!(sparse.peak_amplitudes <= dense.peak_amplitudes);
        for (s, d) in sparse.outcomes.iter().zip(&dense.outcomes) {
            assert_eq!(s.accept, d.accept);
            assert!(s.peak_amplitudes <= d.peak_amplitudes);
        }
    }

    #[test]
    fn members_never_flagged_by_the_batched_sweep() {
        let mut rng = StdRng::seed_from_u64(1);
        let words: Vec<Vec<Sym>> = (0..6)
            .map(|_| random_member(1, &mut rng).encode())
            .collect();
        let report = complement_sweep(&words, 11, &BatchRunner::new(3));
        assert_eq!(report.accepted, 0, "one-sided error must hold fleet-wide");
        // And the amplified recognizer declares them all members.
        let amplified = ldisj_sweep(&words, 4, 13, &BatchRunner::new(3));
        assert_eq!(amplified.accepted, words.len());
        assert!(amplified.peak_qubits >= 4 * 4, "4 copies × (2k+2) qubits");
    }

    #[test]
    fn batched_frequency_tracks_exact_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let word = random_nonmember(1, 1, &mut rng).encode();
        let exact = exact_complement_accept_probability(&word);
        let freq =
            complement_accept_frequency_in::<StateVector>(&word, 600, 123, &BatchRunner::new(4));
        assert!((freq - exact).abs() < 0.07, "freq {freq} vs exact {exact}");
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls (pure function).
        assert_eq!(derive_seed(1, 0), a);
    }
}
