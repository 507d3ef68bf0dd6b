//! Cross-backend equivalence of the full A1/A2/A3 pipelines.
//!
//! The quantum-crate suite (`crates/quantum/tests/backend_equivalence.rs`)
//! pins `SparseState` to the dense reference gate by gate; this suite pins
//! the *consumers*: procedure A3's streaming run, the Theorem 3.4
//! complement recognizer, and the Corollary 3.5 amplified recognizer must
//! produce identical statistics (detection probabilities digit-for-digit,
//! fidelity ≥ 1 − 1e−9 where a state is exposed) whichever backend runs
//! underneath. The parallel dense backend is held to the harsher §6
//! determinism contract: **bit-for-bit** equality with dense through the
//! whole A1/A2/A3 pipeline, at every stream position.

use onlineq::core::recognizer::exact_complement_accept_probability;
use onlineq::core::{
    a3_exact_detection_probability, a3_exact_detection_probability_in, ComplementRecognizer,
    GroverStreamer, LdisjRecognizer,
};
use onlineq::lang::{random_member, random_nonmember, string_len, LdisjInstance};
use onlineq::machine::{run_decider, run_decider_stream, StreamingDecider};
use onlineq::quantum::{
    AdaptiveState, ParallelStateVector, QuantumBackend, SparseState, StateVector,
};
use onlineq::serve::{outcome_line, DeciderKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 12;

fn random_instance(k: u32, rng: &mut StdRng) -> LdisjInstance {
    let m = string_len(k);
    let x: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
    let y: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
    LdisjInstance::new(k, x, y)
}

/// Procedure A3, streamed over both backends with the same pinned `j`:
/// identical detection probabilities and identical drawn `j`.
#[test]
fn a3_streaming_agrees_across_backends() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + (seed % 3) as u32;
        let inst = random_instance(k, &mut rng);
        let word = inst.encode();
        for j in 0..inst.rounds() as u64 {
            let mut dense = GroverStreamer::<StateVector>::with_j_seed_in(j, 0);
            let mut sparse = GroverStreamer::<SparseState>::with_j_seed_in(j, 0);
            dense.feed_all(&word);
            sparse.feed_all(&word);
            assert_eq!(dense.j(), sparse.j());
            assert_eq!(dense.qubits(), sparse.qubits());
            let (pd, ps) = (
                dense.detection_probability(),
                sparse.detection_probability(),
            );
            assert!(
                (pd - ps).abs() < 1e-9,
                "seed {seed} j {j}: dense {pd} vs sparse {ps}"
            );
            // The sparse run never stores more amplitudes than the dense
            // register holds, and its live support respects the structured
            // bound (index domain × h branch, l populated by marking).
            assert!(sparse.peak_amplitudes() <= dense.peak_amplitudes());
            assert!(sparse.peak_amplitudes() <= 4 * inst.m());
        }
    }
}

/// Procedure A3 on the parallel dense backend is the dense pipeline
/// **digit for digit**: same drawn `j`, bit-identical detection
/// probability at every prefix of the stream, identical space report.
/// (Sparse gets a 1e−9 fidelity pin; parallel-dense gets exact equality —
/// the DESIGN.md §6 determinism contract.)
#[test]
fn a3_streaming_parallel_dense_is_digit_for_digit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + (seed % 3) as u32;
        let inst = random_instance(k, &mut rng);
        let word = inst.encode();
        for j in [0u64, inst.rounds() as u64 - 1] {
            let mut dense = GroverStreamer::<StateVector>::with_j_seed_in(j, 0);
            let mut par = GroverStreamer::<ParallelStateVector>::with_j_seed_in(j, 0);
            for (pos, &sym) in word.iter().enumerate() {
                dense.feed(sym);
                par.feed(sym);
                let (pd, pp) = (dense.detection_probability(), par.detection_probability());
                assert_eq!(
                    pd.to_bits(),
                    pp.to_bits(),
                    "seed {seed} j {j} position {pos}: {pd} vs {pp}"
                );
            }
            assert_eq!(dense.j(), par.j());
            assert_eq!(dense.qubits(), par.qubits());
            assert_eq!(dense.peak_amplitudes(), par.peak_amplitudes());
            assert_eq!(dense.space_bits(), par.space_bits());
        }
    }
}

/// The full A1/A2/A3 recognizer pipeline, parallel-dense vs dense: same
/// seeds in, identical verdict, space report and run outcome — including
/// the measurement, which must consume identical randomness.
#[test]
fn complement_recognizer_parallel_dense_is_digit_for_digit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(1 + (seed % 2) as u32, &mut rng);
        let word = inst.encode();
        for (t_seed, j_seed) in [(0u64, 0u64), (1, 1), (2, 0)] {
            let mut dense = ComplementRecognizer::<StateVector>::with_seeds_in(t_seed, j_seed, 7);
            let mut par =
                ComplementRecognizer::<ParallelStateVector>::with_seeds_in(t_seed, j_seed, 7);
            dense.feed_all(&word);
            par.feed_all(&word);
            assert_eq!(dense.space(), par.space(), "seed {seed}");
            let (pd, pp) = (
                dense.a3_detection_probability(),
                par.a3_detection_probability(),
            );
            assert_eq!(pd.to_bits(), pp.to_bits(), "seed {seed}: {pd} vs {pp}");
            assert_eq!(dense.decide(), par.decide(), "seed {seed}");
        }
        // And through run_decider: the whole RunOutcome matches.
        let dense_out = run_decider(
            ComplementRecognizer::<StateVector>::with_seeds_in(0, 1, 3),
            &word,
        );
        let par_out = run_decider(
            ComplementRecognizer::<ParallelStateVector>::with_seeds_in(0, 1, 3),
            &word,
        );
        assert_eq!(dense_out, par_out, "seed {seed}");
    }
}

/// Procedure A3 on the **adaptive** backend is the dense pipeline digit
/// for digit — the DESIGN.md §7 contract: in its sparse phase every
/// observable follows the dense arithmetic and summation order, the
/// promotion (if the stream densifies) moves bits without recomputing
/// them, and the dense phase is the parallel backend, itself pinned to
/// dense. Checked at every prefix of the stream, like the parallel pin.
#[test]
fn a3_streaming_adaptive_is_digit_for_digit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + (seed % 3) as u32;
        let inst = random_instance(k, &mut rng);
        let word = inst.encode();
        for j in [0u64, inst.rounds() as u64 - 1] {
            let mut dense = GroverStreamer::<StateVector>::with_j_seed_in(j, 0);
            let mut ad = GroverStreamer::<AdaptiveState>::with_j_seed_in(j, 0);
            for (pos, &sym) in word.iter().enumerate() {
                dense.feed(sym);
                ad.feed(sym);
                let (pd, pa) = (dense.detection_probability(), ad.detection_probability());
                assert_eq!(
                    pd.to_bits(),
                    pa.to_bits(),
                    "seed {seed} j {j} position {pos}: {pd} vs {pa}"
                );
            }
            assert_eq!(dense.j(), ad.j());
            assert_eq!(dense.qubits(), ad.qubits());
            assert_eq!(dense.space_bits(), ad.space_bits());
            // Memory: the structured stream keeps density at 1/4, so the
            // adaptive run stays sparse and meters the support, not the
            // dimension.
            assert!(ad.peak_amplitudes() <= dense.peak_amplitudes());
        }
    }
}

/// The full A1/A2/A3 recognizer pipeline on the adaptive backend: same
/// seeds in, identical space report, bit-identical detection statistic,
/// identical verdict and `RunOutcome` modulo the metered amplitude peak
/// (which is the point of running adaptive).
#[test]
fn complement_recognizer_adaptive_is_digit_for_digit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(1 + (seed % 2) as u32, &mut rng);
        let word = inst.encode();
        for (t_seed, j_seed) in [(0u64, 0u64), (1, 1), (2, 0)] {
            let mut dense = ComplementRecognizer::<StateVector>::with_seeds_in(t_seed, j_seed, 7);
            let mut ad = ComplementRecognizer::<AdaptiveState>::with_seeds_in(t_seed, j_seed, 7);
            dense.feed_all(&word);
            ad.feed_all(&word);
            assert_eq!(dense.space(), ad.space(), "seed {seed}");
            let (pd, pa) = (
                dense.a3_detection_probability(),
                ad.a3_detection_probability(),
            );
            assert_eq!(pd.to_bits(), pa.to_bits(), "seed {seed}: {pd} vs {pa}");
            // The measurement consumes identical randomness on identical
            // digits, so the verdict matches too.
            assert_eq!(dense.decide(), ad.decide(), "seed {seed}");
        }
        let dense_out = run_decider(
            ComplementRecognizer::<StateVector>::with_seeds_in(0, 1, 3),
            &word,
        );
        let ad_out = run_decider(
            ComplementRecognizer::<AdaptiveState>::with_seeds_in(0, 1, 3),
            &word,
        );
        assert_eq!(dense_out.accept, ad_out.accept, "seed {seed}");
        assert_eq!(dense_out.classical_bits, ad_out.classical_bits);
        assert_eq!(dense_out.peak_qubits, ad_out.peak_qubits);
        assert!(ad_out.peak_amplitudes <= dense_out.peak_amplitudes);
    }
}

/// The exact averaged A3 detection probability — the number Theorem 3.4's
/// ≥ 1/4 bound is about — is backend-independent, and bit-identical
/// between dense and parallel-dense.
#[test]
fn a3_exact_detection_probability_is_backend_independent() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for k in 1..=2u32 {
        let m = string_len(k);
        for t in [0usize, 1, 2, m] {
            let inst = if t == 0 {
                random_member(k, &mut rng)
            } else {
                random_nonmember(k, t, &mut rng)
            };
            let dense = a3_exact_detection_probability(&inst);
            let sparse = a3_exact_detection_probability_in::<SparseState>(&inst);
            let parallel = a3_exact_detection_probability_in::<ParallelStateVector>(&inst);
            let adaptive = a3_exact_detection_probability_in::<AdaptiveState>(&inst);
            assert!(
                (dense - sparse).abs() < 1e-9,
                "k={k} t={t}: dense {dense} vs sparse {sparse}"
            );
            assert_eq!(
                dense.to_bits(),
                parallel.to_bits(),
                "k={k} t={t}: dense {dense} vs parallel-dense {parallel}"
            );
            assert_eq!(
                dense.to_bits(),
                adaptive.to_bits(),
                "k={k} t={t}: dense {dense} vs adaptive {adaptive}"
            );
        }
    }
}

/// The full complement recognizer (A1 ∧ A2 ∧ A3) with pinned seeds reaches
/// the same verdict and the same space report on both backends.
#[test]
fn complement_recognizer_agrees_across_backends() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(1, &mut rng);
        let word = inst.encode();
        for (t_seed, j_seed) in [(0u64, 0u64), (1, 1), (2, 0), (0, 1)] {
            let mut dense = ComplementRecognizer::<StateVector>::with_seeds_in(t_seed, j_seed, 7);
            let mut sparse = ComplementRecognizer::<SparseState>::with_seeds_in(t_seed, j_seed, 7);
            dense.feed_all(&word);
            sparse.feed_all(&word);
            assert_eq!(dense.space(), sparse.space(), "seed {seed}");
            let (pd, ps) = (
                dense.a3_detection_probability(),
                sparse.a3_detection_probability(),
            );
            assert!((pd - ps).abs() < 1e-9, "seed {seed}: {pd} vs {ps}");
        }
    }
}

/// One-sided error is absolute on the sparse backend too: members are
/// never flagged, whatever the coins.
#[test]
fn sparse_recognizer_keeps_one_sided_error() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    for _ in 0..CASES {
        let inst = random_member(1, &mut rng);
        let word = inst.encode();
        for j in 0..inst.rounds() as u64 {
            let mut a3 = GroverStreamer::<SparseState>::with_j_seed_in(j, 3);
            a3.feed_all(&word);
            assert!(a3.detection_probability() < 1e-12);
            assert!(a3.decide());
        }
        let accepted =
            run_decider(ComplementRecognizer::<SparseState>::new_in(&mut rng), &word).accept;
        assert!(!accepted, "member flagged by sparse recognizer");
    }
}

/// Sampled verdicts of the amplified recognizer over the sparse backend
/// track the exact (backend-independent) acceptance probability.
#[test]
fn sparse_amplified_recognizer_matches_exact_statistics() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let inst = random_nonmember(1, 1, &mut rng);
    let word = inst.encode();
    let exact = exact_complement_accept_probability(&word);
    let trials = 600;
    let accepts = (0..trials)
        .filter(|_| {
            run_decider(ComplementRecognizer::<SparseState>::new_in(&mut rng), &word).accept
        })
        .count();
    let freq = accepts as f64 / trials as f64;
    assert!(
        (freq - exact).abs() < 0.07,
        "sparse sampled {freq} vs exact {exact}"
    );
    // And the amplified recognizer still meets the Corollary 3.5 error
    // budget when run sparse.
    let wrong = (0..trials)
        .filter(|_| run_decider(LdisjRecognizer::<SparseState>::new_in(4, &mut rng), &word).accept)
        .count();
    assert!((wrong as f64 / trials as f64) < 0.38);
}

/// The final A3 register state itself matches across backends at fidelity
/// ≥ 1 − 1e−9 (not just its summary statistics): compare through the
/// exposed detection probability at every prefix of the stream.
#[test]
fn a3_state_tracks_through_the_stream() {
    let mut rng = StdRng::seed_from_u64(0x57A7E);
    let inst = random_nonmember(2, 3, &mut rng);
    let word = inst.encode();
    let mut dense = GroverStreamer::<StateVector>::with_j_seed_in(2, 0);
    let mut sparse = GroverStreamer::<SparseState>::with_j_seed_in(2, 0);
    for (pos, &sym) in word.iter().enumerate() {
        dense.feed(sym);
        sparse.feed(sym);
        let (pd, ps) = (
            dense.detection_probability(),
            sparse.detection_probability(),
        );
        assert!(
            (pd - ps).abs() < 1e-9,
            "stream position {pos}: dense {pd} vs sparse {ps}"
        );
    }
}

/// Support-scaling sanity at the workspace level: a metering-equivalent
/// sparse register for k=5 (12 qubits, 4096 dense amplitudes) peaks well
/// below the dense dimension on a typical run.
#[test]
fn sparse_support_stays_below_dense_dimension() {
    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let inst = random_nonmember(5, 4, &mut rng);
    let mut sparse = GroverStreamer::<SparseState>::with_j_seed_in(3, 0);
    sparse.feed_all(&inst.encode());
    let dense_dim = 1usize << (2 * 5 + 2);
    assert!(sparse.peak_amplitudes() < dense_dim);
    assert!(sparse.peak_amplitudes() >= inst.m());
    // The verdict machinery still works on top.
    let _ = sparse.decide();
    let _ = QuantumBackend::support(sparse_probe(&inst).state().expect("allocated"));
}

/// Served outcomes of every quantum catalog kind, pinned to literal
/// values: verdict, classical bits, qubits and metered amplitude peak.
/// The fidelity pins above tolerate 1e−9 of drift, so on their own they
/// would not notice a sparse-kernel change that moved a pruning decision
/// (and with it `peak_amplitudes`) or a sampled verdict; this table does.
#[test]
fn quantum_kinds_reproduce_golden_outcomes() {
    let mut lines = Vec::new();
    for kind in DeciderKind::ALL {
        if matches!(
            kind,
            DeciderKind::Format
                | DeciderKind::Consistency
                | DeciderKind::Prop37
                | DeciderKind::Sketch
        ) {
            continue;
        }
        let mut words = Vec::new();
        for seed in [3u64, 8] {
            let mut rng = StdRng::seed_from_u64(seed);
            words.push((seed, random_member(3, &mut rng).encode()));
            words.push((
                seed,
                random_nonmember(3, 1 + seed as usize % 3, &mut rng).encode(),
            ));
        }
        // `deep`'s two k = 4 shapes: a member, whose every diffusion maps
        // |φ_k⟩ back to itself, and a non-member, whose rounds amplify
        // the intersection; both keep the full 256-entry support through
        // every round.
        let mut rng = StdRng::seed_from_u64(4);
        words.push((4, random_member(4, &mut rng).encode()));
        words.push((4, random_nonmember(4, 1, &mut rng).encode()));
        for (id, (seed, word)) in words.into_iter().enumerate() {
            let out = run_decider_stream(kind.build(seed), word);
            lines.push(format!("{} {}", kind.name(), outcome_line(id as u64, &out)));
        }
    }
    let got = lines.join("\n");
    assert_eq!(
        got,
        GOLDEN_OUTCOMES.join("\n"),
        "golden table drifted:\n{got}"
    );
}

const GOLDEN_OUTCOMES: &[&str] = &[
    "complement-dense OUTCOME 0 0 92 8 256",
    "complement-dense OUTCOME 1 1 92 8 256",
    "complement-dense OUTCOME 2 0 92 8 256",
    "complement-dense OUTCOME 3 1 92 8 256",
    "complement-dense OUTCOME 4 0 118 10 1024",
    "complement-dense OUTCOME 5 0 118 10 1024",
    "complement-parallel OUTCOME 0 0 92 8 256",
    "complement-parallel OUTCOME 1 1 92 8 256",
    "complement-parallel OUTCOME 2 0 92 8 256",
    "complement-parallel OUTCOME 3 1 92 8 256",
    "complement-parallel OUTCOME 4 0 118 10 1024",
    "complement-parallel OUTCOME 5 0 118 10 1024",
    "complement-sparse OUTCOME 0 0 92 8 64",
    "complement-sparse OUTCOME 1 1 92 8 64",
    "complement-sparse OUTCOME 2 0 92 8 64",
    "complement-sparse OUTCOME 3 1 92 8 64",
    "complement-sparse OUTCOME 4 0 118 10 256",
    "complement-sparse OUTCOME 5 0 118 10 256",
    "complement-adaptive OUTCOME 0 0 92 8 64",
    "complement-adaptive OUTCOME 1 1 92 8 64",
    "complement-adaptive OUTCOME 2 0 92 8 64",
    "complement-adaptive OUTCOME 3 1 92 8 64",
    "complement-adaptive OUTCOME 4 0 118 10 256",
    "complement-adaptive OUTCOME 5 0 118 10 256",
    "grover-dense OUTCOME 0 1 20 8 256",
    "grover-dense OUTCOME 1 1 20 8 256",
    "grover-dense OUTCOME 2 1 20 8 256",
    "grover-dense OUTCOME 3 1 20 8 256",
    "grover-dense OUTCOME 4 1 25 10 1024",
    "grover-dense OUTCOME 5 0 25 10 1024",
    "grover-parallel OUTCOME 0 1 20 8 256",
    "grover-parallel OUTCOME 1 1 20 8 256",
    "grover-parallel OUTCOME 2 1 20 8 256",
    "grover-parallel OUTCOME 3 1 20 8 256",
    "grover-parallel OUTCOME 4 1 25 10 1024",
    "grover-parallel OUTCOME 5 0 25 10 1024",
    "grover-sparse OUTCOME 0 1 20 8 64",
    "grover-sparse OUTCOME 1 1 20 8 64",
    "grover-sparse OUTCOME 2 1 20 8 64",
    "grover-sparse OUTCOME 3 1 20 8 64",
    "grover-sparse OUTCOME 4 1 25 10 256",
    "grover-sparse OUTCOME 5 0 25 10 256",
    "grover-adaptive OUTCOME 0 1 20 8 64",
    "grover-adaptive OUTCOME 1 1 20 8 64",
    "grover-adaptive OUTCOME 2 1 20 8 64",
    "grover-adaptive OUTCOME 3 1 20 8 64",
    "grover-adaptive OUTCOME 4 1 25 10 256",
    "grover-adaptive OUTCOME 5 0 25 10 256",
    "ldisj-dense OUTCOME 0 1 184 16 512",
    "ldisj-dense OUTCOME 1 0 184 16 512",
    "ldisj-dense OUTCOME 2 1 184 16 512",
    "ldisj-dense OUTCOME 3 0 184 16 512",
    "ldisj-dense OUTCOME 4 1 236 20 2048",
    "ldisj-dense OUTCOME 5 0 236 20 2048",
    "ldisj-parallel OUTCOME 0 1 184 16 512",
    "ldisj-parallel OUTCOME 1 0 184 16 512",
    "ldisj-parallel OUTCOME 2 1 184 16 512",
    "ldisj-parallel OUTCOME 3 0 184 16 512",
    "ldisj-parallel OUTCOME 4 1 236 20 2048",
    "ldisj-parallel OUTCOME 5 0 236 20 2048",
    "ldisj-sparse OUTCOME 0 1 184 16 128",
    "ldisj-sparse OUTCOME 1 0 184 16 128",
    "ldisj-sparse OUTCOME 2 1 184 16 128",
    "ldisj-sparse OUTCOME 3 0 184 16 128",
    "ldisj-sparse OUTCOME 4 1 236 20 512",
    "ldisj-sparse OUTCOME 5 0 236 20 512",
    "ldisj-adaptive OUTCOME 0 1 184 16 128",
    "ldisj-adaptive OUTCOME 1 0 184 16 128",
    "ldisj-adaptive OUTCOME 2 1 184 16 128",
    "ldisj-adaptive OUTCOME 3 0 184 16 128",
    "ldisj-adaptive OUTCOME 4 1 236 20 512",
    "ldisj-adaptive OUTCOME 5 0 236 20 512",
];

/// Helper exercising MeteredRegister's public accessors through a fresh
/// sparse run (keeps the machine-layer API in the cross-crate contract).
fn sparse_probe(inst: &LdisjInstance) -> onlineq::machine::MeteredRegister<SparseState> {
    let mut reg = onlineq::machine::MeteredRegister::<SparseState>::unallocated();
    let layout = onlineq::quantum::GroverLayout::for_k(inst.k());
    reg.allocate_with(|| layout.phi_in());
    reg.record();
    reg
}
