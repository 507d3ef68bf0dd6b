//! Dense state-vector simulation.
//!
//! A [`StateVector`] over `n` qubits holds `2^n` complex amplitudes in
//! little-endian basis order: the amplitude at index `b` belongs to the
//! basis state whose qubit `q` is bit `(b >> q) & 1`. Gates are applied in
//! place in `O(2^n)` time without materializing any matrix, which is the
//! hot path of every experiment in this reproduction.

use crate::complex::{Complex, ONE, ZERO};
use crate::gate::Gate;
use crate::matrix::Matrix;
use rand::Rng;

/// Numerical tolerance used by internal sanity checks.
pub const STATE_EPS: f64 = 1e-9;

/// A pure quantum state of `n` qubits as a dense amplitude vector.
#[derive(Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩` on `n` qubits (the initial state of the
    /// paper's quantum register).
    ///
    /// # Panics
    /// If `n > 28` (the dense representation would not fit in memory).
    pub fn zero(n: usize) -> Self {
        assert!(n <= 28, "dense simulation limited to 28 qubits, got {n}");
        let mut amps = vec![ZERO; 1usize << n];
        amps[0] = ONE;
        StateVector { n, amps }
    }

    /// The computational basis state `|b⟩`.
    ///
    /// # Panics
    /// If `b >= 2^n`.
    pub fn basis(n: usize, b: usize) -> Self {
        assert!(b < (1usize << n), "basis index out of range");
        let mut s = StateVector::zero(n);
        s.amps[0] = ZERO;
        s.amps[b] = ONE;
        s
    }

    /// Builds a state from explicit amplitudes, normalizing them.
    ///
    /// # Panics
    /// If the length is not a power of two or the vector is (numerically)
    /// zero.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two() && len > 0, "length must be 2^n");
        let n = len.trailing_zeros() as usize;
        let mut s = StateVector { n, amps };
        let norm = s.norm();
        assert!(norm > STATE_EPS, "cannot normalize the zero vector");
        crate::simd::scale(&mut s.amps, 1.0 / norm);
        s
    }

    /// Builds a state from explicit amplitudes **without renormalizing**:
    /// the restore path of the snapshot seam, where scaling by `1/norm`
    /// (even with `norm ≈ 1`) would perturb amplitude bits and break the
    /// checkpointed-run-equals-uninterrupted-run contract. The caller
    /// guarantees the amplitudes came from a valid state.
    pub(crate) fn from_amplitudes_unchecked(amps: Vec<Complex>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two() && len > 0, "length must be 2^n");
        let n = len.trailing_zeros() as usize;
        StateVector { n, amps }
    }

    /// The uniform superposition `H^{⊗n}|0…0⟩` over all `2^n` basis states
    /// (the paper's `|φ_k⟩` restricted to the index register).
    pub fn uniform(n: usize) -> Self {
        let len = 1usize << n;
        let amp = Complex::real(1.0 / (len as f64).sqrt());
        StateVector {
            n,
            amps: vec![amp; len],
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Read-only view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable view of the amplitudes (crate-internal: the parallel dense
    /// backend splits this slice into chunks for its scoped workers).
    #[inline]
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The amplitude of basis state `b`.
    #[inline]
    pub fn amp(&self, b: usize) -> Complex {
        self.amps[b]
    }

    /// Euclidean norm of the vector (should always be 1 for a valid state).
    ///
    /// Summed per [`crate::par::REDUCE_CHUNK`]-sized block (the workspace
    /// summation contract), so the parallel dense backend reproduces this
    /// value bit-for-bit.
    pub fn norm(&self) -> f64 {
        crate::par::chunked_norm_sqr(&self.amps).sqrt()
    }

    /// Renormalizes in place (used after a measurement collapse).
    pub fn normalize(&mut self) {
        let norm = self.norm();
        assert!(norm > STATE_EPS, "cannot normalize the zero vector");
        crate::simd::scale(&mut self.amps, 1.0 / norm);
    }

    /// Inner product `⟨self|other⟩` (chunked summation contract; see
    /// [`crate::par`]).
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        crate::par::chunked_inner(&self.amps, &other.amps)
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// True when the states agree amplitude-wise within `eps`.
    pub fn approx_eq(&self, other: &StateVector, eps: f64) -> bool {
        self.n == other.n
            && self
                .amps
                .iter()
                .zip(&other.amps)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// True when the states are equal up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &StateVector, eps: f64) -> bool {
        if self.n != other.n {
            return false;
        }
        (self.fidelity(other) - 1.0).abs() <= eps
    }

    /// Tensor product `|self⟩ ⊗ |other⟩`; `other`'s qubits become the new
    /// high-order qubits.
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let n = self.n + other.n;
        assert!(n <= 28, "tensor product too large");
        let mut amps = vec![ZERO; 1usize << n];
        for (j, &b) in other.amps.iter().enumerate() {
            if b.is_approx_zero(0.0) {
                continue;
            }
            let base = j << self.n;
            for (i, &a) in self.amps.iter().enumerate() {
                amps[base | i] = a * b;
            }
        }
        StateVector { n, amps }
    }

    // ------------------------------------------------------------------
    // Gate application
    // ------------------------------------------------------------------

    /// Applies an arbitrary 2×2 unitary to qubit `q` via the dispatched
    /// SIMD gate kernel ([`crate::simd::apply_single_run`]; scalar
    /// fallback bit-for-bit identical).
    pub fn apply_single(&mut self, q: usize, m: &Matrix) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        assert_eq!((m.rows(), m.cols()), (2, 2), "expected 2x2 matrix");
        let stride = 1usize << q;
        crate::simd::apply_single_run(&mut self.amps, stride, m);
    }

    /// Applies a named gate, dispatching on the shared
    /// `backend::gate_kernel` classification (one table for all
    /// backends — see DESIGN.md §6).
    pub fn apply(&mut self, gate: &Gate) {
        assert!(
            gate.is_well_formed(),
            "gate operands must be distinct: {gate:?}"
        );
        assert!(
            gate.max_qubit() < self.n,
            "gate {gate:?} out of range for {} qubits",
            self.n
        );
        match crate::backend::gate_kernel(gate) {
            crate::backend::GateKernel::Diagonal { mask, phase } => {
                self.phase_if(|b| b & mask == mask, phase)
            }
            // Uncontrolled single-bit flip (Pauli X): a direct stride-swap
            // loop touches each amplitude pair once, skipping the
            // per-index predicate of the generic permutation path. Same
            // swaps, same state — just the dense fast path layered on the
            // shared classification.
            crate::backend::GateKernel::ControlledFlip { controls: 0, xor }
                if xor.is_power_of_two() =>
            {
                let stride = xor;
                let dim = self.amps.len();
                let mut base = 0usize;
                while base < dim {
                    for lo in base..base + stride {
                        self.amps.swap(lo, lo + stride);
                    }
                    base += stride << 1;
                }
            }
            crate::backend::GateKernel::ControlledFlip { controls, xor } => {
                self.permute_in_place(|b| if b & controls == controls { b ^ xor } else { b })
            }
            crate::backend::GateKernel::SwapBits { a, b } => {
                self.permute_in_place(|i| {
                    let ba = (i >> a) & 1;
                    let bb = (i >> b) & 1;
                    if ba != bb {
                        i ^ (1usize << a) ^ (1usize << b)
                    } else {
                        i
                    }
                });
            }
            crate::backend::GateKernel::Single { q } => self.apply_single(q, &gate.local_matrix()),
        }
    }

    /// Applies Hadamards to every qubit in `qs` (the paper's `U_k` acts as
    /// `H^{⊗2k}` on the index register).
    pub fn apply_hadamard_all(&mut self, qs: &[usize]) {
        let h = Gate::H(0).local_matrix();
        for &q in qs {
            self.apply_single(q, &h);
        }
    }

    /// Multiplies the amplitude of every basis state satisfying `pred` by
    /// `phase`. This is how structured diagonal operators (the paper's
    /// `S_k`, `W_x`) are applied in `O(2^n)`.
    pub fn phase_if<F: Fn(usize) -> bool>(&mut self, pred: F, phase: Complex) {
        for (b, a) in self.amps.iter_mut().enumerate() {
            if pred(b) {
                *a *= phase;
            }
        }
    }

    /// Applies a basis-state permutation given as an involution
    /// `f: b ↦ f(b)` with `f(f(b)) = b`. Structured operators of the paper
    /// that are classical reversible maps (`V_x`, `R_x`) are involutions, so
    /// this suffices and runs in one pass.
    ///
    /// # Panics
    /// Debug-asserts that `f` is an involution.
    pub fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        for b in 0..self.amps.len() {
            let t = f(b);
            debug_assert_eq!(f(t), b, "permutation must be an involution");
            if t > b {
                self.amps.swap(b, t);
            }
        }
    }

    /// [`QuantumBackend::swap_marked`](crate::QuantumBackend::swap_marked):
    /// swaps the amplitudes at `base + j + a` and `base + j + b` for each
    /// set bit `j` of `mask`.
    pub(crate) fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize) {
        if mask == 0 {
            return;
        }
        debug_assert_ne!(a, b, "a swap pairs two distinct offsets");
        crate::backend::check_window(self.n, base, mask, a.max(b));
        for j in crate::backend::marked(mask) {
            self.amps.swap(base + j + a, base + j + b);
        }
    }

    /// [`QuantumBackend::negate_marked`](crate::QuantumBackend::negate_marked):
    /// negates the amplitude at `base + j + a` for each set bit `j` of
    /// `mask`, `+0.0` to `−0.0` included.
    pub(crate) fn negate_marked(&mut self, base: usize, mask: u64, a: usize) {
        if mask == 0 {
            return;
        }
        crate::backend::check_window(self.n, base, mask, a);
        for j in crate::backend::marked(mask) {
            let amp = &mut self.amps[base + j + a];
            *amp = -*amp;
        }
    }

    /// Adds `coeff · |other⟩` into this state elementwise. Not unitary on
    /// its own — it is the accumulation step of reflection-style operators
    /// (the π/3 fixed-point recursion); callers renormalize.
    pub fn add_scaled(&mut self, other: &StateVector, coeff: Complex) {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        crate::simd::add_scaled(&mut self.amps, &other.amps, coeff);
    }

    /// Reflects this state about `psi`: `|s⟩ ← (2|ψ⟩⟨ψ| − I)|s⟩`. This is
    /// the Householder step of amplitude amplification (reflection about
    /// the initial state); it is unitary whenever `psi` is normalized.
    pub fn reflect_about(&mut self, psi: &StateVector) {
        assert_eq!(self.n, psi.n, "qubit count mismatch");
        let overlap = psi.inner(self);
        crate::simd::reflect_about(&mut self.amps, &psi.amps, overlap);
    }

    /// Inversion about the mean on every contiguous run of `2^width`
    /// amplitudes, `a ← 2·mean(run) − a` (Grover's diffusion on the low
    /// `width` qubits): one summing pass and one update pass per run, in
    /// the order [`crate::par::invert_about_mean`] defines.
    pub fn invert_about_mean(&mut self, width: usize) {
        assert!(
            width <= self.n,
            "run width {width} out of range for {} qubits",
            self.n
        );
        crate::par::invert_about_mean(&mut self.amps, width);
    }

    /// Applies an arbitrary unitary matrix over the **whole** register
    /// (testing/verification only; `O(4^n)`).
    pub fn apply_unitary(&mut self, u: &Matrix) {
        assert_eq!(u.rows(), self.amps.len(), "unitary dimension mismatch");
        self.amps = u.mul_vec(&self.amps);
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Probability that measuring qubit `q` yields 1 (chunked summation
    /// contract via the vectorized mask reduction; see [`crate::par`]).
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n);
        crate::par::chunked_prob_mask(&self.amps, 1usize << q)
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    /// Returns the observed bit.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        let p1 = self.prob_one(q);
        let outcome = u8::from(rng.gen::<f64>() < p1);
        self.collapse_qubit(q, outcome);
        outcome
    }

    /// Projects qubit `q` onto `outcome` and renormalizes (post-selection).
    ///
    /// # Panics
    /// If the projected state has (numerically) zero norm, i.e. the outcome
    /// was impossible.
    pub fn collapse_qubit(&mut self, q: usize, outcome: u8) {
        let mask = 1usize << q;
        for (b, a) in self.amps.iter_mut().enumerate() {
            let bit = u8::from(b & mask != 0);
            if bit != outcome {
                *a = ZERO;
            }
        }
        self.normalize();
    }

    /// Samples a full computational-basis measurement without collapsing.
    ///
    /// The prefix scan first skips whole [`crate::par::REDUCE_CHUNK`]
    /// blocks using the vectorized block-norm reduction, then walks only
    /// the block the random variate lands in. Off-support amplitudes
    /// subtract exactly `+0.0`, so the sparse backend's support-only walk
    /// makes bitwise-identical decisions and returns the same sample from
    /// the same randomness.
    pub fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u: f64 = rng.gen();
        for (ci, chunk) in self.amps.chunks(crate::par::REDUCE_CHUNK).enumerate() {
            let s = crate::simd::block_norm_sqr(chunk);
            if u > s {
                u -= s;
                continue;
            }
            let base = ci * crate::par::REDUCE_CHUNK;
            for (j, a) in chunk.iter().enumerate() {
                u -= a.norm_sqr();
                if u <= 0.0 {
                    return base + j;
                }
            }
        }
        self.amps.len() - 1
    }

    /// The probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.probabilities_into(&mut out);
        out
    }

    /// Fills `out` with the probability distribution, reusing its
    /// allocation — the repeated-sampling loops of the experiment drivers
    /// call this instead of [`Self::probabilities`] to avoid a `2^n`
    /// allocation per shot.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.amps.len(), 0.0);
        crate::simd::norm_sqr_into(&self.amps, out);
    }
}

impl std::fmt::Debug for StateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "StateVector({} qubits) [", self.n)?;
        for (b, a) in self.amps.iter().enumerate() {
            if !a.is_approx_zero(1e-12) {
                writeln!(f, "  |{:0width$b}⟩: {:?}", b, a, width = self.n)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::FRAC_1_SQRT_2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    #[test]
    fn zero_state_layout() {
        let s = StateVector::zero(3);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert!(s.amp(0).approx_eq(ONE, EPS));
        for b in 1..8 {
            assert!(s.amp(b).is_approx_zero(EPS));
        }
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn basis_state() {
        let s = StateVector::basis(3, 5);
        assert!(s.amp(5).approx_eq(ONE, EPS));
        assert_eq!(s.prob_one(0), 1.0); // 5 = 0b101
        assert_eq!(s.prob_one(1), 0.0);
        assert_eq!(s.prob_one(2), 1.0);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero(4);
        s.apply_hadamard_all(&[0, 1, 2, 3]);
        assert!(s.approx_eq(&StateVector::uniform(4), EPS));
        for q in 0..4 {
            assert!((s.prob_one(q) - 0.5).abs() < EPS);
        }
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let mut s = StateVector::basis(2, 3);
        let orig = s.clone();
        s.apply(&Gate::H(0));
        s.apply(&Gate::H(1));
        s.apply(&Gate::H(1));
        s.apply(&Gate::H(0));
        assert!(s.approx_eq(&orig, EPS));
    }

    #[test]
    fn x_gate_flips_basis() {
        let mut s = StateVector::zero(2);
        s.apply(&Gate::X(1));
        assert!(s.approx_eq(&StateVector::basis(2, 2), EPS));
        s.apply(&Gate::X(0));
        assert!(s.approx_eq(&StateVector::basis(2, 3), EPS));
    }

    #[test]
    fn cnot_truth_table() {
        for (input, expected) in [(0usize, 0usize), (1, 3), (2, 2), (3, 1)] {
            let mut s = StateVector::basis(2, input);
            s.apply(&Gate::Cnot {
                control: 0,
                target: 1,
            });
            assert!(
                s.approx_eq(&StateVector::basis(2, expected), EPS),
                "CNOT|{input}⟩"
            );
        }
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0..8usize {
            let mut s = StateVector::basis(3, input);
            s.apply(&Gate::Toffoli {
                c1: 0,
                c2: 1,
                target: 2,
            });
            let expected = if input & 3 == 3 { input ^ 4 } else { input };
            assert!(s.approx_eq(&StateVector::basis(3, expected), EPS));
        }
    }

    #[test]
    fn bell_state_construction() {
        let mut s = StateVector::zero(2);
        s.apply(&Gate::H(0));
        s.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        assert!(s.amp(0).approx_eq(Complex::real(FRAC_1_SQRT_2), EPS));
        assert!(s.amp(3).approx_eq(Complex::real(FRAC_1_SQRT_2), EPS));
        assert!(s.amp(1).is_approx_zero(EPS));
        assert!(s.amp(2).is_approx_zero(EPS));
        // Measuring either qubit yields perfectly correlated bits.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut t = s.clone();
            let b0 = t.measure_qubit(0, &mut rng);
            let b1 = t.measure_qubit(1, &mut rng);
            assert_eq!(b0, b1);
        }
    }

    #[test]
    fn gate_application_matches_kron_matrix() {
        // Apply H(1) then CNOT(0→2) on 3 qubits both ways.
        let mut s = StateVector::from_amplitudes(
            (0..8)
                .map(|i| Complex::new(1.0 + i as f64, -(i as f64)))
                .collect(),
        );
        let mut via_matrix = s.clone();
        s.apply(&Gate::H(1));

        let h = Gate::H(0).local_matrix();
        let id = Matrix::identity(2);
        // little-endian: qubit 0 is the least-significant factor: I ⊗ H ⊗ I
        // with kron(outer=high, inner=low) = id2 ⊗ h ⊗ id2; our kron(a,b) puts
        // a as the LOW factor (a's index varies fastest), so U = h-at-q1 =
        // kron over [id (q0), h (q1), id (q2)] built low-to-high.
        let u = build_full(&[id.clone(), h, id]);
        via_matrix.apply_unitary(&u);
        assert!(s.approx_eq(&via_matrix, EPS));
    }

    /// Builds `U = factors[n-1] ⊗ … ⊗ factors[0]` so that `factors[q]` acts
    /// on qubit `q` in little-endian order.
    fn build_full(factors: &[Matrix]) -> Matrix {
        let mut u = Matrix::identity(1);
        for f in factors {
            u = f.kron(&u);
        }
        u
    }

    #[test]
    fn phase_if_applies_sk_style_flip() {
        // S_k on 2 qubits: negate everything except |00⟩.
        let mut s = StateVector::uniform(2);
        s.phase_if(|b| b != 0, -ONE);
        assert!(s.amp(0).approx_eq(Complex::real(0.5), EPS));
        for b in 1..4 {
            assert!(s.amp(b).approx_eq(Complex::real(-0.5), EPS));
        }
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        let mut s = StateVector::zero(1);
        s.apply(&Gate::Ry(0, 2.0 * (0.3f64.sqrt()).asin())); // P(1) = 0.3
        assert!((s.prob_one(0) - 0.3).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let ones: u32 = (0..trials)
            .map(|_| u32::from(s.clone().measure_qubit(0, &mut rng)))
            .sum();
        let freq = f64::from(ones) / f64::from(trials);
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = StateVector::uniform(3);
        s.collapse_qubit(1, 1);
        assert!((s.norm() - 1.0).abs() < EPS);
        assert_eq!(s.prob_one(1), 1.0);
        // Remaining qubits still uniform.
        assert!((s.prob_one(0) - 0.5).abs() < EPS);
        assert!((s.prob_one(2) - 0.5).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn collapse_impossible_outcome_panics() {
        let mut s = StateVector::zero(2);
        s.collapse_qubit(0, 1);
    }

    #[test]
    fn tensor_product_layout() {
        let a = StateVector::basis(1, 1);
        let b = StateVector::basis(2, 2);
        let t = a.tensor(&b);
        // |1⟩ ⊗ |10⟩ = low qubit 1 set, then b's qubits shifted up: 0b101
        assert_eq!(t.num_qubits(), 3);
        assert!(t.amp(0b101).approx_eq(ONE, EPS));
    }

    #[test]
    fn inner_product_and_fidelity() {
        let s = StateVector::uniform(2);
        let z = StateVector::zero(2);
        assert!(s.inner(&z).approx_eq(Complex::real(0.5), EPS));
        assert!((s.fidelity(&z) - 0.25).abs() < EPS);
        assert!((s.fidelity(&s) - 1.0).abs() < EPS);
    }

    #[test]
    fn global_phase_equivalence() {
        let mut a = StateVector::uniform(2);
        let b = a.clone();
        a.phase_if(|_| true, Complex::from_phase(1.234));
        assert!(a.approx_eq_up_to_phase(&b, EPS));
        assert!(!a.approx_eq(&b, EPS));
    }

    #[test]
    fn sample_basis_distribution() {
        let s = StateVector::uniform(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[s.sample_basis(&mut rng)] += 1;
        }
        for &c in &counts {
            let f = f64::from(c) / 8000.0;
            assert!((f - 0.25).abs() < 0.03, "count fraction {f}");
        }
    }

    #[test]
    fn swap_and_cz() {
        let mut s = StateVector::basis(2, 1);
        s.apply(&Gate::Swap(0, 1));
        assert!(s.approx_eq(&StateVector::basis(2, 2), EPS));
        let mut u = StateVector::uniform(2);
        u.apply(&Gate::Cz(0, 1));
        assert!(u.amp(3).approx_eq(Complex::real(-0.5), EPS));
        assert!(u.amp(1).approx_eq(Complex::real(0.5), EPS));
    }

    #[test]
    fn reflect_about_is_involutive_and_unitary() {
        let psi = StateVector::uniform(3);
        let mut s = StateVector::basis(3, 5);
        let orig = s.clone();
        s.reflect_about(&psi);
        assert!((s.norm() - 1.0).abs() < EPS);
        // Reflection squared is the identity.
        s.reflect_about(&psi);
        assert!(s.approx_eq(&orig, EPS));
        // Reflecting psi itself fixes it.
        let mut p = psi.clone();
        p.reflect_about(&psi);
        assert!(p.approx_eq(&psi, EPS));
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut s = StateVector::zero(5);
        for _ in 0..200 {
            let q = rng.gen_range(0..5);
            let r = (q + 1 + rng.gen_range(0..4usize)) % 5;
            match rng.gen_range(0..6) {
                0 => s.apply(&Gate::H(q)),
                1 => s.apply(&Gate::T(q)),
                2 => s.apply(&Gate::X(q)),
                3 => s.apply(&Gate::Cnot {
                    control: q,
                    target: r,
                }),
                4 => s.apply(&Gate::Phase(q, rng.gen_range(0.0..std::f64::consts::TAU))),
                _ => s.apply(&Gate::Cz(q, r)),
            }
        }
        assert!((s.norm() - 1.0).abs() < 1e-8);
    }
}
