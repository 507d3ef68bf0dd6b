//! Cross-backend equivalence: [`SparseState`] must agree with the dense
//! [`StateVector`] reference — fidelity `≥ 1 − 1e−9` — on random circuits
//! up to 10 qubits, on every structured operator of procedure A3, and
//! through measurement collapse. [`ParallelStateVector`] is held to a
//! strictly harsher pin: **bit-for-bit** equality with the dense
//! reference at every worker count (the DESIGN.md §6 determinism
//! contract). The sparse runs also exercise the pruning-audit hook
//! ([`SparseState::assert_support_pruned`]) after every operation: no
//! cancelled amplitude may silently survive in the support. The
//! closed-form diffusion ([`QuantumBackend::invert_about_mean`]) is pinned
//! against the gate sweeps it replaces on every backend and width, and
//! the masked-window ops (`swap_marked`, `negate_marked`) against their
//! one-amplitude-per-bit semantics.

use oqsc_quantum::{
    simd, AdaptiveState, Complex, Gate, GroverLayout, ParallelStateVector, QuantumBackend,
    SimdLevel, SnapshotError, SparseState, StateSnapshot, StateVector, PARALLEL_THRESHOLD,
    SNAPSHOT_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const FIDELITY_EPS: f64 = 1e-9;

fn random_gate(n: usize, rng: &mut StdRng) -> Gate {
    let q = rng.gen_range(0..n);
    let r = (q + 1 + rng.gen_range(0..n - 1)) % n;
    match rng.gen_range(0u8..10) {
        0 => Gate::H(q),
        1 => Gate::T(q),
        2 => Gate::Tdg(q),
        3 => Gate::X(q),
        4 => Gate::Z(q),
        5 => Gate::S(q),
        6 => Gate::Phase(q, rng.gen_range(0.0..std::f64::consts::TAU)),
        7 => Gate::Cnot {
            control: q,
            target: r,
        },
        8 => Gate::Cz(q, r),
        _ => Gate::Swap(q, r),
    }
}

/// The gate sweeps `H^{⊗w} · (−1 on low-w ≠ 0) · H^{⊗w}` that
/// [`QuantumBackend::invert_about_mean`] replaces, on the dense backend.
fn swept_inversion(s: &StateVector, width: usize) -> StateVector {
    let mut r = s.clone();
    let qs: Vec<usize> = (0..width).collect();
    let low = (1usize << width) - 1;
    r.apply_hadamard_all(&qs);
    r.phase_if(|b| b & low != 0, Complex::real(-1.0));
    r.apply_hadamard_all(&qs);
    r
}

/// Panics unless every amplitude of `got` is within 1e-12 of `want`'s.
fn assert_near_sweeps<B: QuantumBackend>(got: &B, want: &StateVector, context: &str) {
    for b in 0..want.dim() {
        let (g, w) = (got.amp(b), want.amp(b));
        assert!(
            (g.re - w.re).abs() <= 1e-12 && (g.im - w.im).abs() <= 1e-12,
            "{context}: amp {b} is {g:?}, the sweeps give {w:?}"
        );
    }
}

/// Panics unless `got` holds `want`'s digits (±0.0 identified: the
/// sparse phase stores no zero, signed or not).
fn assert_same_digits<B: QuantumBackend>(got: &B, want: &StateVector, context: &str) {
    for b in 0..want.dim() {
        let (g, w) = (got.amp(b), want.amp(b));
        assert!(
            g.re == w.re && g.im == w.im,
            "{context}: amp {b} is {g:?}, dense gives {w:?}"
        );
    }
}

/// Panics unless `got`'s amplitudes have `want`'s exact bit patterns.
fn assert_same_bits(got: &StateVector, want: &StateVector, context: &str) {
    for (b, (g, w)) in got.amplitudes().iter().zip(want.amplitudes()).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{context}: amp {b} is {g:?}, dense gives {w:?}"
        );
    }
}

fn assert_equivalent(sparse: &SparseState, dense: &StateVector, context: &str) {
    let fidelity = sparse.to_dense().fidelity(dense);
    assert!(
        fidelity >= 1.0 - FIDELITY_EPS,
        "{context}: fidelity {fidelity} below 1 - 1e-9"
    );
}

/// One masked-window op: a backend op, or one of A3's streamed operators
/// over a window of input bits.
#[derive(Clone, Copy, Debug)]
enum WindowOp {
    Swap(usize, u64, usize, usize),
    Negate(usize, u64, usize),
    Vx(usize, u64),
    Wx(usize, u64),
    Rx(usize, u64),
}

/// A random window op on the `2k + 2`-qubit A3 register: half the time a
/// backend op at arbitrary offsets (its mask trimmed so the indices stay
/// distinct and inside the register), half the time `V_x`, `W_x` or
/// `R_x` over a window of the index domain.
fn random_window_op(layout: &GroverLayout, rng: &mut StdRng) -> WindowOp {
    let dim = 1usize << layout.num_qubits();
    let bits = |rng: &mut StdRng, room: usize| rng.gen::<u64>() & (u64::MAX >> (64 - room.min(64)));
    if rng.gen() {
        let a = rng.gen_range(0..dim);
        let b = (a + rng.gen_range(1..dim)) % dim;
        let base = rng.gen_range(0..dim - a.max(b));
        let mut mask = bits(rng, dim - a.max(b) - base);
        let d = a.abs_diff(b);
        if d < 64 {
            mask &= !(mask << d) & !(mask >> d);
        }
        if rng.gen() {
            WindowOp::Swap(base, mask, a, b)
        } else {
            WindowOp::Negate(base, mask, a)
        }
    } else {
        let base = rng.gen_range(0..layout.domain());
        let mask = bits(rng, layout.domain() - base);
        match rng.gen_range(0u8..3) {
            0 => WindowOp::Vx(base, mask),
            1 => WindowOp::Wx(base, mask),
            _ => WindowOp::Rx(base, mask),
        }
    }
}

fn apply_window_op<B: QuantumBackend>(layout: &GroverLayout, s: &mut B, op: WindowOp) {
    match op {
        WindowOp::Swap(base, mask, a, b) => s.swap_marked(base, mask, a, b),
        WindowOp::Negate(base, mask, a) => s.negate_marked(base, mask, a),
        WindowOp::Vx(base, mask) => layout.apply_vx_window(s, base, mask),
        WindowOp::Wx(base, mask) => layout.apply_wx_window(s, base, mask),
        WindowOp::Rx(base, mask) => layout.apply_rx_window(s, base, mask),
    }
}

/// The per-bit semantics of `op` on a plain amplitude vector: for each set
/// bit, one swap or negation — for A3's operators, the four-amplitude
/// update of one streamed bit. `negate_zeros` is the dense rule (`+0.0`
/// becomes `−0.0`); the sparse backend stores no `−0.0`.
fn model_window_op(layout: &GroverLayout, model: &mut [Complex], op: WindowOp, negate_zeros: bool) {
    let (h, l) = (1usize << layout.h_qubit(), 1usize << layout.l_qubit());
    let marked = |mask: u64| (0..64).filter(move |j| mask >> j & 1 == 1);
    let mut negate = |i: usize| {
        if negate_zeros || model[i] != Complex::new(0.0, 0.0) {
            model[i] = -model[i];
        }
    };
    match op {
        WindowOp::Negate(base, mask, a) => marked(mask).for_each(|j| negate(base + j + a)),
        WindowOp::Wx(base, mask) => marked(mask).for_each(|j| {
            negate((base + j) | h);
            negate((base + j) | h | l);
        }),
        WindowOp::Swap(base, mask, a, b) => {
            marked(mask).for_each(|j| model.swap(base + j + a, base + j + b))
        }
        WindowOp::Vx(base, mask) => marked(mask).for_each(|j| {
            let i = base + j;
            model.swap(i, i | h);
            model.swap(i | l, i | h | l);
        }),
        WindowOp::Rx(base, mask) => marked(mask).for_each(|j| {
            let i = base + j;
            model.swap(i | h, i | h | l);
        }),
    }
}

/// Panics unless `got` holds `want`'s amplitudes, bit for bit or (with
/// `signed_zeros` off) with ±0.0 identified.
fn assert_model<B: QuantumBackend>(got: &B, want: &[Complex], signed_zeros: bool, context: &str) {
    for (b, w) in want.iter().enumerate() {
        let g = got.amp(b);
        let same = if signed_zeros {
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits()
        } else {
            g.re == w.re && g.im == w.im
        };
        assert!(
            same,
            "{context}: amp {b} is {g:?}, the per-bit model gives {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random circuits on 2–10 qubits: both backends reach the same state.
    #[test]
    fn prop_random_circuits_agree(seed in any::<u64>(), n in 2usize..=10, len in 1usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sparse = SparseState::zero(n);
        let mut dense = StateVector::zero(n);
        for step in 0..len {
            let gate = random_gate(n, &mut rng);
            sparse.apply_gate(&gate);
            dense.apply(&gate);
            sparse.assert_support_pruned();
            prop_assert!(sparse.support_len() <= dense.dim());
            prop_assert!(
                sparse.to_dense().fidelity(&dense) >= 1.0 - FIDELITY_EPS,
                "seed {} step {} gate {:?}", seed, step, gate
            );
        }
        prop_assert!((sparse.norm() - 1.0).abs() < 1e-8);
    }

    /// The parallel dense backend is the dense reference, bit for bit, at
    /// every worker count — including counts far above the host's cores.
    #[test]
    fn prop_parallel_dense_is_bitwise_dense(seed in any::<u64>(), threads in 1usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 8;
        let mut dense = StateVector::zero(n);
        let mut par = ParallelStateVector::with_threads(StateVector::zero(n), threads);
        for _ in 0..40 {
            let gate = random_gate(n, &mut rng);
            dense.apply(&gate);
            par.apply_gate(&gate);
        }
        for (x, y) in dense.amplitudes().iter().zip(par.as_dense().amplitudes()) {
            prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
            prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        prop_assert_eq!(dense.norm().to_bits(), par.norm().to_bits());
        let q = rng.gen_range(0..n);
        prop_assert_eq!(dense.prob_one(q).to_bits(), par.prob_one(q).to_bits());
    }

    /// The structured A3 operators (block and bit mode) agree across
    /// backends, and the diagonal/permutation ones never grow the sparse
    /// support.
    #[test]
    fn prop_structured_operators_agree(seed in any::<u64>(), k in 1u32..=3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = GroverLayout::for_k(k);
        let m = layout.domain();
        let x: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let y: Vec<bool> = (0..m).map(|_| rng.gen()).collect();

        let mut sparse: SparseState = layout.phi_in();
        let mut dense: StateVector = layout.phi();
        prop_assert_eq!(sparse.support(), m);
        assert_equivalent(&sparse, &dense, "phi");

        layout.apply_grover_iteration(&mut sparse, &x, &y, &x);
        layout.apply_grover_iteration(&mut dense, &x, &y, &x);
        assert_equivalent(&sparse, &dense, "grover iteration");

        // Bit-mode streaming updates (the O(1)-per-symbol path).
        for (i, (&xi, &yi)) in x.iter().zip(&y).enumerate() {
            layout.apply_vx_bit(&mut sparse, i, xi);
            layout.apply_vx_bit(&mut dense, i, xi);
            layout.apply_wx_bit(&mut sparse, i, yi);
            layout.apply_wx_bit(&mut dense, i, yi);
            layout.apply_rx_bit(&mut sparse, i, xi);
            layout.apply_rx_bit(&mut dense, i, xi);
            sparse.assert_support_pruned();
        }
        assert_equivalent(&sparse, &dense, "bit-mode stream");
        // |i⟩ ⊗ |h⟩ ⊗ |l⟩ support never exceeds index ⨯ branch count.
        prop_assert!(sparse.support_len() <= 4 * m);
    }

    /// The structured A3 operators on the parallel backend reproduce the
    /// dense reference digit for digit.
    #[test]
    fn prop_structured_operators_bitwise_on_parallel(seed in any::<u64>(), k in 1u32..=3, threads in 1usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = GroverLayout::for_k(k);
        let m = layout.domain();
        let x: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let y: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let mut dense: StateVector = layout.phi();
        let mut par =
            ParallelStateVector::with_threads(layout.phi(), threads);
        layout.apply_grover_iteration(&mut dense, &x, &y, &x);
        layout.apply_grover_iteration(&mut par, &x, &y, &x);
        for (i, (&xi, &yi)) in x.iter().zip(&y).enumerate() {
            layout.apply_vx_bit(&mut dense, i, xi);
            layout.apply_vx_bit(&mut par, i, xi);
            layout.apply_rx_bit(&mut dense, i, yi);
            layout.apply_rx_bit(&mut par, i, yi);
        }
        for (p, d) in par.as_dense().amplitudes().iter().zip(dense.amplitudes()) {
            prop_assert_eq!(p.re.to_bits(), d.re.to_bits());
            prop_assert_eq!(p.im.to_bits(), d.im.to_bits());
        }
        let l = layout.l_qubit();
        prop_assert_eq!(dense.prob_one(l).to_bits(), par.prob_one(l).to_bits());
    }

    /// The adaptive backend is the dense reference **digit for digit**
    /// through random circuits — before, across, and after its promotion
    /// boundary (±0.0 identified: a diagonal phase can leave a −0.0 on a
    /// dense zero the sparse phase never stores; the sign of zero is
    /// unobservable in every reduction).
    #[test]
    fn prop_adaptive_is_digitwise_dense(seed in any::<u64>(), n in 2usize..=9, len in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = StateVector::zero(n);
        let mut ad = AdaptiveState::zero(n);
        for step in 0..len {
            let gate = random_gate(n, &mut rng);
            dense.apply(&gate);
            ad.apply_gate(&gate);
            for b in 0..dense.dim() {
                let (x, y) = (dense.amp(b), ad.amp(b));
                prop_assert!(
                    x.re == y.re && x.im == y.im,
                    "seed {} step {} amp {}: {:?} vs {:?}", seed, step, b, x, y
                );
            }
        }
        let q = rng.gen_range(0..n);
        prop_assert_eq!(dense.prob_one(q).to_bits(), ad.prob_one(q).to_bits());
        prop_assert_eq!(dense.norm().to_bits(), ad.norm().to_bits());
    }

    /// Inversion about the mean on random states, at every run width:
    /// every backend matches the gate sweeps it replaces within 1e-12 per
    /// amplitude, parallel (1, 2 and 8 workers) and adaptive match dense
    /// bit for bit, and sparse keeps its pruning invariant.
    #[test]
    fn prop_invert_about_mean_matches_the_sweeps(seed in any::<u64>(), n in 2usize..=10, len in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gates: Vec<Gate> = (0..len).map(|_| random_gate(n, &mut rng)).collect();
        let mut dense = StateVector::zero(n);
        let mut sparse = SparseState::zero(n);
        let mut adaptive = AdaptiveState::zero(n);
        for g in &gates {
            dense.apply(g);
            sparse.apply_gate(g);
            adaptive.apply_gate(g);
        }
        for width in 0..=n {
            let context = format!("seed {seed} n {n} width {width}");
            let want = swept_inversion(&dense, width);
            let mut d = dense.clone();
            d.invert_about_mean(width);
            assert_near_sweeps(&d, &want, &context);
            for threads in [1usize, 2, 8] {
                let mut p = ParallelStateVector::with_threads(dense.clone(), threads);
                p.invert_about_mean(width);
                assert_same_bits(p.as_dense(), &d, &format!("{context} threads {threads}"));
            }
            let mut sp = sparse.clone();
            sp.invert_about_mean(width);
            sp.assert_support_pruned();
            assert_near_sweeps(&sp, &want, &context);
            assert_equivalent(&sp, &d, &context);
            let mut ad = adaptive.clone();
            ad.invert_about_mean(width);
            assert_same_digits(&ad, &d, &context);
        }
    }

    /// The masked-window ops against their per-bit semantics on every
    /// backend, from a random circuit state or an unnormalized snapshot
    /// with gaps: dense matches the model bit for bit, parallel (1, 2 and
    /// 8 workers) matches dense bit for bit, sparse and adaptive match it
    /// digit for digit, sparse keeps its pruning invariant, and no op
    /// changes any backend's support.
    #[test]
    fn prop_window_ops_match_per_bit_semantics(seed in any::<u64>(), k in 1u32..=5, from_circuit in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = GroverLayout::for_k(k);
        let n = layout.num_qubits();
        let snap = if from_circuit {
            let mut s: StateVector = layout.phi();
            for _ in 0..20 {
                s.apply(&random_gate(n, &mut rng));
            }
            s.snapshot()
        } else {
            let mut entries = Vec::new();
            for b in 0..1usize << n {
                if (b >> 6) % 3 != 1 && rng.gen_range(0u8..3) == 0 {
                    entries.push((b, Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))));
                }
            }
            StateSnapshot::encode_sparse(n, entries)
        };
        let mut dense = StateVector::restore(&snap).unwrap();
        let mut pars: Vec<ParallelStateVector> = [1usize, 2, 8]
            .iter()
            .map(|&t| ParallelStateVector::with_threads(dense.clone(), t))
            .collect();
        let mut sparse = SparseState::restore(&snap).unwrap();
        let mut adaptive = AdaptiveState::restore(&snap).unwrap();
        let mut model: Vec<Complex> = (0..dense.dim()).map(|b| dense.amp(b)).collect();
        let mut sparse_model: Vec<Complex> = (0..dense.dim()).map(|b| sparse.amp(b)).collect();
        let mut adaptive_model: Vec<Complex> = (0..dense.dim()).map(|b| adaptive.amp(b)).collect();
        let supports = (sparse.support(), adaptive.support());
        for step in 0..30 {
            let op = random_window_op(&layout, &mut rng);
            let context = format!("seed {seed} k {k} step {step} {op:?}");
            apply_window_op(&layout, &mut dense, op);
            model_window_op(&layout, &mut model, op, true);
            assert_model(&dense, &model, true, &context);
            for p in &mut pars {
                apply_window_op(&layout, p, op);
                assert_same_bits(p.as_dense(), &dense, &format!("{context} threads {}", p.threads()));
            }
            apply_window_op(&layout, &mut sparse, op);
            sparse.assert_support_pruned();
            model_window_op(&layout, &mut sparse_model, op, false);
            assert_model(&sparse, &sparse_model, true, &context);
            apply_window_op(&layout, &mut adaptive, op);
            model_window_op(&layout, &mut adaptive_model, op, adaptive.is_dense_phase());
            assert_model(&adaptive, &adaptive_model, false, &context);
            if !from_circuit {
                // No sub-threshold values: every backend holds one state.
                assert_same_digits(&sparse, &dense, &context);
                assert_same_digits(&adaptive, &dense, &context);
            }
            prop_assert_eq!(dense.support(), dense.dim());
            prop_assert_eq!((sparse.support(), adaptive.support()), supports);
        }
    }

    /// Snapshot → bytes → restore is a bit-exact round trip on every
    /// backend, from any reachable state.
    #[test]
    fn prop_snapshot_round_trip_is_exact(seed in any::<u64>(), n in 2usize..=8, len in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gates: Vec<Gate> = (0..len).map(|_| random_gate(n, &mut rng)).collect();
        fn check<B: QuantumBackend>(n: usize, gates: &[Gate]) -> proptest::TestCaseResult {
            let mut s = B::zero(n);
            for g in gates {
                s.apply_gate(g);
            }
            let wire = s.snapshot().as_bytes().to_vec();
            let snap = StateSnapshot::from_bytes(wire).expect("well formed");
            let r = B::restore(&snap).expect("own snapshot restores");
            prop_assert_eq!(r.num_qubits(), s.num_qubits());
            prop_assert_eq!(r.support(), s.support());
            for b in 0..(1usize << n) {
                let (x, y) = (s.amp(b), r.amp(b));
                prop_assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "amp {}: {:?} vs {:?}", b, x, y
                );
            }
            Ok(())
        }
        check::<StateVector>(n, &gates)?;
        check::<ParallelStateVector>(n, &gates)?;
        check::<SparseState>(n, &gates)?;
        check::<AdaptiveState>(n, &gates)?;
    }

    /// Measurement statistics and collapse agree: prob_one everywhere, and
    /// the post-collapse states match.
    #[test]
    fn prop_measurement_agrees(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..=6);
        let mut sparse = SparseState::zero(n);
        let mut dense = StateVector::zero(n);
        for _ in 0..30 {
            let gate = random_gate(n, &mut rng);
            sparse.apply_gate(&gate);
            dense.apply(&gate);
        }
        for q in 0..n {
            let (ps, pd) = (sparse.prob_one(q), dense.prob_one(q));
            prop_assert!((ps - pd).abs() < 1e-9, "qubit {}: {} vs {}", q, ps, pd);
        }
        // Collapse onto whichever outcome has the larger probability (so it
        // is never numerically impossible) and compare the posteriors.
        let q = rng.gen_range(0..n);
        let outcome = u8::from(dense.prob_one(q) > 0.5);
        sparse.collapse_qubit(q, outcome);
        dense.collapse_qubit(q, outcome);
        assert_equivalent(&sparse, &dense, "post-collapse");
    }
}

/// Above [`PARALLEL_THRESHOLD`] the *threaded* kernels run — the
/// proptest circuits (n ≤ 10, 1024 amplitudes) stay below it and
/// exercise only the serial fallback, so this 14-qubit deterministic
/// case is what actually pins the chunked scoped-thread paths (gates,
/// sweeps, reductions, reflection, collapse) bit-for-bit against dense.
/// CI runs this suite under `--release`, putting the optimized codegen
/// of those kernels under test.
#[test]
fn threaded_kernels_bitwise_above_threshold() {
    let n = 14; // 2^14 amplitudes, above PARALLEL_THRESHOLD = 2^13
    assert!(1usize << n > PARALLEL_THRESHOLD);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let gates: Vec<Gate> = (0..30).map(|_| random_gate(n, &mut rng)).collect();
    let psi_dense = StateVector::uniform(n);

    let mut dense = StateVector::zero(n);
    for g in &gates {
        dense.apply(g);
    }
    dense.apply_hadamard_all(&[0, n / 2, n - 1]);
    dense.reflect_about(&psi_dense);
    let outcome = u8::from(dense.prob_one(3) > 0.5);
    dense.collapse_qubit(3, outcome);

    for threads in [2usize, 3, 8] {
        let mut par = ParallelStateVector::with_threads(StateVector::zero(n), threads);
        for g in &gates {
            par.apply_gate(g);
        }
        par.apply_hadamard_all(&[0, n / 2, n - 1]);
        par.reflect_about(&ParallelStateVector::with_threads(
            psi_dense.clone(),
            threads,
        ));
        par.collapse_qubit(3, outcome);
        for (x, y) in dense.amplitudes().iter().zip(par.as_dense().amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "threads={threads}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "threads={threads}");
        }
        assert_eq!(
            dense.norm().to_bits(),
            par.norm().to_bits(),
            "threads={threads}"
        );
        let (pd, pp) = (
            QuantumBackend::probability_where(&dense, |b| b % 5 == 2),
            par.probability_where(|b| b % 5 == 2),
        );
        assert_eq!(pd.to_bits(), pp.to_bits(), "threads={threads}");
    }
}

/// Runs several `REDUCE_CHUNK` blocks long over a sparse state with gaps
/// in its block set: 15 qubits at width 14 are two runs of 16 384
/// amplitudes, four reduction blocks each. Run 0 holds five amplitudes
/// in three reduction blocks and a nonzero mean, so every block of it
/// fills; its values round differently if the lanes are not folded per
/// reduction block, so only the one summation order gives the dense
/// digits. Run 1 holds two amplitudes that cancel exactly, so its blocks
/// stay absent. The state comes from a snapshot, unnormalized, so the
/// amplitudes are exactly the ones written here.
#[test]
fn invert_about_mean_fills_only_runs_with_a_mean() {
    let (n, width) = (15, 14);
    let run = 1usize << width;
    let snap = StateSnapshot::encode_sparse(
        n,
        [
            (4, Complex::new(1.0, 0.25)),
            (5, Complex::new(1.5e-15, -0.125)),
            (2 * 4096 + 8, Complex::new(-1.0, 0.5)),
            (2 * 4096 + 9, Complex::new(1.5e-15, 0.0)),
            (3 * 4096 + 1000, Complex::new(0.25, -0.375)),
            (run + 3, Complex::new(0.5, -0.5)),
            (run + 3 * 4096 + 10, Complex::new(-0.5, 0.5)),
        ],
    );
    let dense = StateVector::restore(&snap).expect("dense restore");
    let want = swept_inversion(&dense, width);
    let mut d = dense.clone();
    d.invert_about_mean(width);
    assert_near_sweeps(&d, &want, "dense");
    assert!(d.amp(run + 100).norm_sqr() == 0.0, "run 1 gained a mean");
    assert!(d.amp(100).norm_sqr() > 0.0, "run 0 did not fill");

    for threads in [2usize, 8] {
        let mut p = ParallelStateVector::with_threads(dense.clone(), threads);
        p.invert_about_mean(width);
        assert_same_bits(p.as_dense(), &d, &format!("threads {threads}"));
    }

    let mut sparse = SparseState::restore(&snap).expect("sparse restore");
    assert_eq!(sparse.support(), 7);
    sparse.invert_about_mean(width);
    sparse.assert_support_pruned();
    assert_eq!(sparse.support(), run + 2, "run 0 fills, run 1 stays two");
    assert_same_digits(&sparse, &d, "sparse");

    let mut adaptive = AdaptiveState::restore(&snap).expect("adaptive restore");
    assert!(!adaptive.is_dense_phase());
    adaptive.invert_about_mean(width);
    assert!(adaptive.is_dense_phase(), "half the register is filled");
    assert_same_digits(&adaptive, &d, "adaptive");
}

/// Cross-backend restore: a sparse snapshot restores into every backend
/// (dense fills zeros exactly), a dense snapshot restores into sparse
/// (pruned by the sparse setters' own rule), and an unknown snapshot
/// version is rejected by every backend rather than guessed at.
#[test]
fn snapshots_restore_across_backends_and_reject_unknown_versions() {
    let mut sparse = SparseState::zero(6);
    sparse.apply_gate(&Gate::H(0));
    sparse.apply_gate(&Gate::Cnot {
        control: 0,
        target: 4,
    });
    let snap = sparse.snapshot();
    let dense = StateVector::restore(&snap).expect("sparse → dense");
    let par = ParallelStateVector::restore(&snap).expect("sparse → parallel");
    let ad = AdaptiveState::restore(&snap).expect("sparse → adaptive");
    for b in 0..64 {
        let want = sparse.amp(b);
        assert_eq!(want.re.to_bits(), dense.amp(b).re.to_bits(), "amp {b}");
        assert_eq!(want.re.to_bits(), par.amp(b).re.to_bits(), "amp {b}");
        assert_eq!(want.re.to_bits(), ad.amp(b).re.to_bits(), "amp {b}");
    }
    // Dense snapshot into sparse keeps exactly the nonzero support.
    let back = SparseState::restore(&QuantumBackend::snapshot(&dense)).expect("dense → sparse");
    assert_eq!(back.support(), sparse.support());

    // Unknown version: every backend refuses.
    let mut bytes = snap.as_bytes().to_vec();
    bytes[0] = SNAPSHOT_VERSION + 7;
    let err = StateSnapshot::from_bytes(bytes).expect_err("future version");
    assert_eq!(err, SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 7));

    // A dense restore of an over-wide sparse state is a clean error, not
    // an allocation attempt.
    let wide = SparseState::basis(40, 1 << 33);
    let wide_snap = wide.snapshot();
    assert!(matches!(
        StateVector::restore(&wide_snap),
        Err(SnapshotError::Malformed(_))
    ));
    assert!(SparseState::restore(&wide_snap).is_ok());
}

/// Deterministic spot check: a GHZ-style circuit where the sparse support
/// stays tiny while the dense vector is exponentially padded.
#[test]
fn ghz_support_is_two() {
    let n = 10;
    let mut sparse = SparseState::zero(n);
    let mut dense = StateVector::zero(n);
    sparse.apply_gate(&Gate::H(0));
    dense.apply(&Gate::H(0));
    for q in 1..n {
        let g = Gate::Cnot {
            control: 0,
            target: q,
        };
        sparse.apply_gate(&g);
        dense.apply(&g);
    }
    assert_eq!(sparse.support(), 2);
    assert_eq!(QuantumBackend::support(&dense), 1 << n);
    assert_equivalent(&sparse, &dense, "GHZ");
}

/// Sampling distributions agree between backends under a shared seed
/// stream length (statistical check).
#[test]
fn sampling_distributions_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut sparse = SparseState::zero(3);
    let mut dense = StateVector::zero(3);
    for g in [
        Gate::H(0),
        Gate::H(1),
        Gate::Cnot {
            control: 1,
            target: 2,
        },
    ] {
        sparse.apply_gate(&g);
        dense.apply(&g);
    }
    let trials = 8000;
    let mut counts_sparse = [0u32; 8];
    let mut counts_dense = [0u32; 8];
    for _ in 0..trials {
        counts_sparse[sparse.sample_basis(&mut rng)] += 1;
        counts_dense[dense.sample_basis(&mut rng)] += 1;
    }
    for b in 0..8 {
        let fs = f64::from(counts_sparse[b]) / trials as f64;
        let fd = f64::from(counts_dense[b]) / trials as f64;
        assert!((fs - fd).abs() < 0.03, "basis {b}: {fs} vs {fd}");
    }
}

// --- Forced-scalar vs SIMD equality -----------------------------------------
//
// `simd::force` overrides a process-global dispatch level, so tests that
// toggle it serialize on this mutex and restore auto-detection on drop (even
// when an assertion panics mid-test).

static SIMD_FORCE_LOCK: Mutex<()> = Mutex::new(());

struct SimdForceGuard;

impl Drop for SimdForceGuard {
    fn drop(&mut self) {
        simd::force(None);
    }
}

/// Fingerprint of everything a pipeline can observe from a backend: the raw
/// amplitude bit patterns plus every reduction the experiments consume.
#[derive(Debug, PartialEq, Eq)]
struct BitTrace {
    amps: Vec<(u64, u64)>,
    norm: u64,
    prob_one: u64,
    prob_even: u64,
    probs: Vec<u64>,
    inner: (u64, u64),
    samples: Vec<usize>,
}

fn bit_trace<B: QuantumBackend>(state: &B, reference: &B) -> BitTrace {
    let n = state.num_qubits();
    let mut probs = Vec::new();
    state.probabilities_into(&mut probs);
    let mut srng = StdRng::seed_from_u64(0xB177_2ACE);
    let samples = (0..32).map(|_| state.sample_basis(&mut srng)).collect();
    let ip = state.inner(reference);
    BitTrace {
        amps: (0..state.dim())
            .map(|b| {
                let a = state.amp(b);
                (a.re.to_bits(), a.im.to_bits())
            })
            .collect(),
        norm: state.norm().to_bits(),
        prob_one: state.prob_one(n - 1).to_bits(),
        prob_even: state.probability_where(|b| b & 1 == 0).to_bits(),
        probs: probs.iter().map(|p| p.to_bits()).collect(),
        inner: (ip.re.to_bits(), ip.im.to_bits()),
        samples,
    }
}

/// Run the shared mixed workload (random circuit + Hadamard sweep +
/// reflection + inversion about the mean + a collapse) on one backend and
/// fingerprint the result.
fn forced_workload<B: QuantumBackend>(
    n: usize,
    gates: &[Gate],
    mk: &dyn Fn(usize) -> B,
) -> BitTrace {
    let mut s = mk(n);
    for g in gates {
        s.apply_gate(g);
    }
    let qs: Vec<usize> = (0..n).collect();
    s.apply_hadamard_all(&qs);
    let mirror = B::uniform(n);
    s.reflect_about(&mirror);
    s.add_scaled(&mirror, Complex::new(0.125, -0.25));
    s.invert_about_mean(n - 1);
    s.invert_about_mean(3);
    s.collapse_qubit(0, 0);
    bit_trace(&s, &mirror)
}

/// The tentpole contract: with SIMD forced off and with the hardware level
/// active, every backend produces bit-for-bit identical amplitudes,
/// reductions, probability tables, and sampling decisions. n = 14 crosses
/// `PARALLEL_THRESHOLD` and spans four `REDUCE_CHUNK` blocks.
#[test]
fn forced_scalar_and_simd_backends_are_bitwise_identical() {
    let _lock = SIMD_FORCE_LOCK.lock().unwrap();
    let _guard = SimdForceGuard;
    let n = 14;
    let mut rng = StdRng::seed_from_u64(0x51D_CAFE);
    let gates: Vec<Gate> = (0..24).map(|_| random_gate(n, &mut rng)).collect();

    let run_all = |level: Option<SimdLevel>| {
        simd::force(level);
        let dense = forced_workload(n, &gates, &|n| StateVector::zero(n));
        let par: Vec<BitTrace> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                forced_workload(n, &gates, &move |n| {
                    ParallelStateVector::with_threads(StateVector::zero(n), t)
                })
            })
            .collect();
        let sparse = forced_workload(n, &gates, &|n| SparseState::zero(n));
        let adaptive = forced_workload(n, &gates, &|n| AdaptiveState::zero(n));
        (dense, par, sparse, adaptive)
    };

    let scalar = run_all(Some(SimdLevel::Scalar));
    let auto = run_all(None);

    assert_eq!(scalar.0, auto.0, "dense trace diverged under SIMD");
    for (t, (s, a)) in scalar.1.iter().zip(auto.1.iter()).enumerate() {
        assert_eq!(s, a, "parallel trace diverged under SIMD (threads idx {t})");
        assert_eq!(s, &scalar.0, "parallel trace diverged from dense");
    }
    assert_eq!(scalar.2, auto.2, "sparse trace diverged under SIMD");
    assert_eq!(scalar.3, auto.3, "adaptive trace diverged under SIMD");
    assert_eq!(scalar.3, scalar.0, "adaptive trace diverged from dense");
}

/// Forcing a level the hardware lacks must clamp to scalar and stay bitwise
/// equal to an explicit scalar run, so CI on any host exercises both arms.
#[test]
fn forcing_unavailable_levels_is_bitwise_scalar() {
    let _lock = SIMD_FORCE_LOCK.lock().unwrap();
    let _guard = SimdForceGuard;
    let n = 10;
    let mut rng = StdRng::seed_from_u64(31);
    let gates: Vec<Gate> = (0..12).map(|_| random_gate(n, &mut rng)).collect();

    simd::force(Some(SimdLevel::Scalar));
    let scalar = forced_workload(n, &gates, &|n| StateVector::zero(n));
    for level in [SimdLevel::Avx2, SimdLevel::Neon] {
        simd::force(Some(level));
        let forced = forced_workload(n, &gates, &|n| StateVector::zero(n));
        // Either the level is real on this host (bitwise contract) or it was
        // clamped to scalar (identical code path); both must match.
        assert_eq!(forced, scalar, "{} diverged from scalar", level.name());
    }
}

/// `sample_basis` walks chunked prefix sums; every backend must make the
/// same block-skip decisions and return the same basis state for the same
/// RNG stream (off-support sparse entries subtract exactly +0.0).
#[test]
fn sample_basis_is_bitwise_identical_across_backends() {
    let n = 14;
    let mut rng = StdRng::seed_from_u64(0x5A3);
    let amps: Vec<Complex> = (0..1usize << n)
        .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let dense = StateVector::from_amplitudes(amps.clone());
    let par = ParallelStateVector::with_threads(StateVector::from_amplitudes(amps.clone()), 4);
    let sparse = SparseState::from_amplitudes(amps.clone());
    let adaptive = AdaptiveState::from_amplitudes(amps);
    for seed in 0..64u64 {
        let mut r = [
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed),
        ];
        let b = dense.sample_basis(&mut r[0]);
        assert_eq!(b, par.sample_basis(&mut r[1]), "parallel, seed {seed}");
        assert_eq!(
            b,
            QuantumBackend::sample_basis(&sparse, &mut r[2]),
            "sparse, seed {seed}"
        );
        assert_eq!(b, adaptive.sample_basis(&mut r[3]), "adaptive, seed {seed}");
    }
}

/// The reusable-buffer probability path must agree bitwise with the
/// allocating one and fully overwrite whatever the caller hands it.
#[test]
fn probabilities_into_matches_allocating_path() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(77);
    let mut s = StateVector::zero(n);
    for _ in 0..16 {
        let g = random_gate(n, &mut rng);
        s.apply(&g);
    }
    let fresh = s.probabilities();
    let mut reused = vec![f64::NAN; 7];
    s.probabilities_into(&mut reused);
    assert_eq!(reused.len(), 1 << n);
    for (a, b) in fresh.iter().zip(reused.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // And again into an oversized buffer.
    let mut oversized = vec![f64::NAN; 1 << (n + 1)];
    s.probabilities_into(&mut oversized);
    assert_eq!(oversized.len(), 1 << n);
    let par = ParallelStateVector::with_threads(s.clone(), 3);
    let mut via_par = Vec::new();
    par.probabilities_into(&mut via_par);
    for (a, b) in fresh.iter().zip(via_par.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
