//! The parallel dense backend: [`StateVector`] semantics, scoped-thread
//! execution.
//!
//! [`ParallelStateVector`] wraps the dense reference representation and
//! splits the `O(2^n)` passes — single-qubit gate application, Hadamard
//! sweeps, diagonal phase ops, reflections, probability sums — into
//! contiguous chunks executed under [`std::thread::scope`] (see
//! [`crate::par`]; no rayon, the build environment has no registry
//! access). States below [`PARALLEL_THRESHOLD`] amplitudes stay entirely
//! serial: at small dimension the spawn cost dwarfs the pass itself.
//!
//! **Determinism contract** (DESIGN.md §6): every operation produces
//! results bit-for-bit identical to [`StateVector`], for every thread
//! count. Elementwise passes (gates, phases, reflections, scaling) apply
//! the *same* per-amplitude arithmetic — the workers share the serial
//! kernels [`crate::state`] exposes — and reductions follow the chunked
//! summation contract of [`crate::par`], which fixes the floating-point
//! accumulation order regardless of how many threads computed the
//! partials. The A1/A2/A3 pipeline suite pins this with exact equality,
//! not a tolerance.
//!
//! Two ops stay serial and delegate to the wrapped dense state. Basis
//! permutations (`permute_in_place`): an arbitrary involution may pair
//! indices across chunk boundaries, and they are cheap swaps, not
//! complex arithmetic, off the measured hot path (the streaming bit-mode
//! operators touch O(1) amplitudes). Inversion about the mean
//! (`invert_about_mean`): it is bit-equal to dense by construction, A3's
//! `k = 4` register sits below [`PARALLEL_THRESHOLD`], and the serial
//! closed form at `k = 6` (about 16 µs) beats the threaded Hadamard
//! sweeps it replaced (about 1.3 ms) on 2 vCPUs (DESIGN.md §2).

use crate::backend::QuantumBackend;
use crate::complex::{Complex, ZERO};
use crate::gate::Gate;
use crate::matrix::Matrix;
use crate::par;
use crate::simd;
use crate::snapshot::{SnapshotError, StateSnapshot};
use crate::state::StateVector;
use rand::Rng;

/// Dimension (amplitude count) below which [`ParallelStateVector`] runs
/// every operation serially. `2^13` amplitudes ≈ 128 KiB: below this a
/// full pass costs a few microseconds, comparable to spawning one thread.
pub const PARALLEL_THRESHOLD: usize = 1 << 13;

/// A dense pure state whose `O(2^n)` passes run on scoped worker threads.
///
/// Construct via the [`QuantumBackend`] initializers (worker count
/// defaults to [`par::available_threads`]) or [`Self::with_threads`] to
/// pin it. The thread count is an execution knob, not state: it is
/// ignored by `PartialEq` and preserved by `Clone`.
#[derive(Clone)]
pub struct ParallelStateVector {
    inner: StateVector,
    threads: usize,
}

impl PartialEq for ParallelStateVector {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl std::fmt::Debug for ParallelStateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Parallel[{} threads] {:?}", self.threads, self.inner)
    }
}

impl ParallelStateVector {
    /// Wraps a dense state, running passes on up to `threads` workers
    /// (clamped to at least 1).
    pub fn with_threads(inner: StateVector, threads: usize) -> Self {
        ParallelStateVector {
            inner,
            threads: threads.max(1),
        }
    }

    /// Wraps a dense state with the default worker count.
    pub fn from_dense(inner: StateVector) -> Self {
        Self::with_threads(inner, par::available_threads())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Re-pins the worker count (clamped to at least 1).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Read access to the wrapped dense state.
    pub fn as_dense(&self) -> &StateVector {
        &self.inner
    }

    /// Workers to actually use for this state's dimension: 1 below the
    /// serial threshold, the configured count otherwise.
    fn effective_threads(&self) -> usize {
        if self.inner.dim() < PARALLEL_THRESHOLD {
            1
        } else {
            self.threads
        }
    }

    /// Parallel elementwise pass `f(basis_index, amplitude)` over the
    /// amplitudes. With one effective worker this is a plain serial loop
    /// over the same closure — identical arithmetic either way.
    fn for_each_amp<F: Fn(usize, &mut Complex) + Sync>(&mut self, f: F) {
        let threads = self.effective_threads();
        par::for_each_chunk_mut(self.inner.amplitudes_mut(), 1, threads, |offset, chunk| {
            for (i, a) in chunk.iter_mut().enumerate() {
                f(offset + i, a);
            }
        });
    }
}

impl QuantumBackend for ParallelStateVector {
    fn zero(n: usize) -> Self {
        Self::from_dense(StateVector::zero(n))
    }

    fn basis(n: usize, b: usize) -> Self {
        Self::from_dense(StateVector::basis(n, b))
    }

    fn uniform(n: usize) -> Self {
        Self::from_dense(StateVector::uniform(n))
    }

    fn from_amplitudes(amps: Vec<Complex>) -> Self {
        Self::from_dense(StateVector::from_amplitudes(amps))
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn support(&self) -> usize {
        self.inner.dim()
    }

    fn amp(&self, b: usize) -> Complex {
        self.inner.amp(b)
    }

    fn norm(&self) -> f64 {
        par::par_chunked_norm_sqr(self.inner.amplitudes(), self.effective_threads()).sqrt()
    }

    fn normalize(&mut self) {
        let norm = self.norm();
        assert!(
            norm > crate::state::STATE_EPS,
            "cannot normalize the zero vector"
        );
        let inv = 1.0 / norm;
        let threads = self.effective_threads();
        par::for_each_chunk_mut(self.inner.amplitudes_mut(), 1, threads, |_, chunk| {
            simd::scale(chunk, inv)
        });
    }

    fn inner(&self, other: &Self) -> Complex {
        assert_eq!(
            self.inner.num_qubits(),
            other.inner.num_qubits(),
            "qubit count mismatch"
        );
        par::par_chunked_inner(
            self.inner.amplitudes(),
            other.inner.amplitudes(),
            self.effective_threads(),
        )
    }

    fn to_dense(&self) -> StateVector {
        self.inner.clone()
    }

    fn snapshot(&self) -> StateSnapshot {
        QuantumBackend::snapshot(&self.inner)
    }

    fn restore(snap: &StateSnapshot) -> Result<Self, SnapshotError> {
        // The thread count is an execution knob, not state: a restored
        // register takes the restoring process's thread count, read once
        // per process (`par::available_threads`), which is exactly what a
        // migrated shard wants.
        Ok(Self::from_dense(crate::backend::restore_dense(snap)?))
    }

    fn apply_gate(&mut self, gate: &Gate) {
        assert!(
            gate.is_well_formed(),
            "gate operands must be distinct: {gate:?}"
        );
        assert!(
            gate.max_qubit() < self.num_qubits(),
            "gate {gate:?} out of range for {} qubits",
            self.num_qubits()
        );
        // Diagonal and plain single-qubit kernels go through the parallel
        // passes; permutations keep the serial reference path — identical
        // results either way, per the determinism contract. The
        // classification (and its phase constants) is the shared
        // `gate_kernel` table, so it cannot drift from the dense backend.
        match crate::backend::gate_kernel(gate) {
            crate::backend::GateKernel::Diagonal { mask, phase } => {
                self.phase_if(|b| b & mask == mask, phase)
            }
            crate::backend::GateKernel::ControlledFlip { .. }
            | crate::backend::GateKernel::SwapBits { .. } => self.inner.apply(gate),
            crate::backend::GateKernel::Single { q } => self.apply_single(q, &gate.local_matrix()),
        }
    }

    fn apply_single(&mut self, q: usize, m: &Matrix) {
        assert!(
            q < self.num_qubits(),
            "qubit {q} out of range for {} qubits",
            self.num_qubits()
        );
        assert_eq!((m.rows(), m.cols()), (2, 2), "expected 2x2 matrix");
        let threads = self.effective_threads();
        if threads <= 1 {
            self.inner.apply_single(q, m);
            return;
        }
        let stride = 1usize << q;
        let block = stride << 1;
        let amps = self.inner.amplitudes_mut();
        if amps.len() / block >= threads {
            // Many independent 2·stride blocks: hand each worker a
            // contiguous, block-aligned run of them, vectorized by the
            // same dispatched kernel the dense backend runs.
            par::for_each_chunk_mut(amps, block, threads, |_, chunk| {
                simd::apply_single_run(chunk, stride, m);
            });
        } else {
            // Few huge blocks (high target qubit): split each block's two
            // halves into matching sub-ranges, one worker per pair (the
            // shared splitting helper runs the last pair inline).
            for b in amps.chunks_exact_mut(block) {
                let (los, his) = b.split_at_mut(stride);
                par::for_each_pair_chunk_mut(los, his, threads, |lo_c, hi_c| {
                    simd::apply_single_pairs(lo_c, hi_c, m)
                });
            }
        }
    }

    fn apply_hadamard_all(&mut self, qs: &[usize]) {
        let h = Gate::H(0).local_matrix();
        for &q in qs {
            self.apply_single(q, &h);
        }
    }

    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex) {
        self.for_each_amp(|b, a| {
            if pred(b) {
                *a *= phase;
            }
        });
    }

    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        // Serial: an arbitrary involution pairs indices across chunks.
        self.inner.permute_in_place(f);
    }

    fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize) {
        // Serial: at most 64 swaps, the dense op itself.
        self.inner.swap_marked(base, mask, a, b);
    }

    fn negate_marked(&mut self, base: usize, mask: u64, a: usize) {
        self.inner.negate_marked(base, mask, a);
    }

    fn invert_about_mean(&mut self, width: usize) {
        // Serial: the dense op itself, so bit-equal by construction.
        self.inner.invert_about_mean(width);
    }

    fn reflect_about(&mut self, psi: &Self) {
        assert_eq!(
            self.inner.num_qubits(),
            psi.inner.num_qubits(),
            "qubit count mismatch"
        );
        let threads = self.effective_threads();
        let overlap =
            par::par_chunked_inner(psi.inner.amplitudes(), self.inner.amplitudes(), threads);
        let psi_amps = psi.inner.amplitudes();
        par::for_each_chunk_mut(self.inner.amplitudes_mut(), 1, threads, |offset, chunk| {
            simd::reflect_about(chunk, &psi_amps[offset..offset + chunk.len()], overlap)
        });
    }

    fn add_scaled(&mut self, other: &Self, coeff: Complex) {
        assert_eq!(
            self.inner.num_qubits(),
            other.inner.num_qubits(),
            "qubit count mismatch"
        );
        let threads = self.effective_threads();
        let other_amps = other.inner.amplitudes();
        par::for_each_chunk_mut(self.inner.amplitudes_mut(), 1, threads, |offset, chunk| {
            simd::add_scaled(chunk, &other_amps[offset..offset + chunk.len()], coeff)
        });
    }

    fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits());
        par::par_chunked_prob_mask(
            self.inner.amplitudes(),
            self.effective_threads(),
            1usize << q,
        )
    }

    fn probability_where<F: Fn(usize) -> bool + Sync>(&self, pred: F) -> f64 {
        par::par_chunked_prob_where(self.inner.amplitudes(), self.effective_threads(), pred)
    }

    fn probabilities(&self) -> Vec<f64> {
        self.inner.probabilities()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        self.inner.probabilities_into(out);
    }

    fn collapse_qubit(&mut self, q: usize, outcome: u8) {
        let mask = 1usize << q;
        self.for_each_amp(|b, a| {
            let bit = u8::from(b & mask != 0);
            if bit != outcome {
                *a = ZERO;
            }
        });
        self.normalize();
    }

    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.inner.sample_basis(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bit-level equality of two dense amplitude slices.
    fn assert_bitwise_eq(a: &StateVector, b: &StateVector, context: &str) {
        assert_eq!(a.num_qubits(), b.num_qubits(), "{context}");
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{context}: re at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{context}: im at {i}");
        }
    }

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

    #[test]
    fn random_circuits_match_dense_bit_for_bit() {
        // 14 qubits crosses PARALLEL_THRESHOLD, so the threaded paths run.
        let n = 14;
        for threads in [1usize, 2, 3, 8] {
            let mut rng = StdRng::seed_from_u64(1234);
            let mut dense = StateVector::zero(n);
            let mut par = ParallelStateVector::with_threads(StateVector::zero(n), threads);
            for step in 0..40 {
                let gate = random_gate(n, &mut rng);
                dense.apply(&gate);
                par.apply_gate(&gate);
                if step % 10 == 0 {
                    assert_bitwise_eq(&dense, par.as_dense(), &format!("threads={threads}"));
                }
            }
            assert_bitwise_eq(&dense, par.as_dense(), &format!("threads={threads} final"));
            assert_eq!(dense.norm().to_bits(), par.norm().to_bits());
        }
    }

    #[test]
    fn hadamard_sweep_and_reductions_match_dense() {
        let n = 14;
        let qs: Vec<usize> = (0..n).collect();
        let mut dense = StateVector::zero(n);
        dense.apply_hadamard_all(&qs);
        for threads in [2usize, 5] {
            let mut par = ParallelStateVector::with_threads(StateVector::zero(n), threads);
            par.apply_hadamard_all(&qs);
            assert_bitwise_eq(&dense, par.as_dense(), "sweep");
            for q in [0usize, n / 2, n - 1] {
                assert_eq!(dense.prob_one(q).to_bits(), par.prob_one(q).to_bits());
            }
            let pd = QuantumBackend::probability_where(&dense, |b| b % 7 == 3);
            let pp = par.probability_where(|b| b % 7 == 3);
            assert_eq!(pd.to_bits(), pp.to_bits());
        }
    }

    #[test]
    fn reflect_and_collapse_match_dense() {
        let n = 14;
        let mut rng = StdRng::seed_from_u64(77);
        let amps: Vec<Complex> = (0..1usize << n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let mut dense = StateVector::from_amplitudes(amps.clone());
        let psi_dense = StateVector::uniform(n);
        dense.reflect_about(&psi_dense);
        dense.collapse_qubit(3, 1);
        for threads in [2usize, 4] {
            let mut par = ParallelStateVector::with_threads(
                StateVector::from_amplitudes(amps.clone()),
                threads,
            );
            let psi = ParallelStateVector::with_threads(psi_dense.clone(), threads);
            par.reflect_about(&psi);
            par.collapse_qubit(3, 1);
            assert_bitwise_eq(&dense, par.as_dense(), &format!("threads={threads}"));
        }
    }

    #[test]
    fn high_qubit_gate_uses_the_split_block_path() {
        // One block only (target = n−1): exercises the pair-splitting
        // regime explicitly.
        let n = 14;
        let h = Gate::H(0).local_matrix();
        let mut dense = StateVector::uniform(n);
        dense.apply_single(n - 1, &h);
        let mut par = ParallelStateVector::with_threads(StateVector::uniform(n), 4);
        par.apply_single(n - 1, &h);
        assert_bitwise_eq(&dense, par.as_dense(), "high qubit");
    }

    #[test]
    fn below_threshold_states_stay_serial_and_exact() {
        let mut dense = StateVector::zero(6);
        let mut par = ParallelStateVector::with_threads(StateVector::zero(6), 8);
        assert_eq!(par.effective_threads(), 1);
        for g in [
            Gate::H(0),
            Gate::Cnot {
                control: 0,
                target: 5,
            },
            Gate::T(5),
        ] {
            dense.apply(&g);
            par.apply_gate(&g);
        }
        assert_bitwise_eq(&dense, par.as_dense(), "small state");
    }

    #[test]
    fn measurement_consumes_identical_randomness() {
        let mut dense = StateVector::uniform(5);
        let mut par = ParallelStateVector::with_threads(StateVector::uniform(5), 3);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let a = dense.measure_qubit(2, &mut rng_a);
        let b = par.measure_qubit(2, &mut rng_b);
        assert_eq!(a, b);
        assert_bitwise_eq(&dense, par.as_dense(), "post measurement");
        assert_eq!(dense.sample_basis(&mut rng_a), par.sample_basis(&mut rng_b));
    }

    #[test]
    fn thread_knob_is_not_state() {
        let a = ParallelStateVector::with_threads(StateVector::uniform(4), 1);
        let b = ParallelStateVector::with_threads(StateVector::uniform(4), 8);
        assert_eq!(a, b);
        assert_eq!(b.threads(), 8);
        let mut c = b.clone();
        c.set_threads(0);
        assert_eq!(c.threads(), 1, "clamped to at least one worker");
    }
}
