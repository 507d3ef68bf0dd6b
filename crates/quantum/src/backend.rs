//! The [`QuantumBackend`] abstraction: one trait, many simulators.
//!
//! Every consumer of the simulation substrate — `oqsc_core`'s A1/A2/A3
//! procedures, `oqsc_grover`'s exact Grover simulation, `oqsc_machine`'s
//! metered quantum register — is generic over this trait rather than tied
//! to the dense [`StateVector`]. Two implementations ship today:
//!
//! * [`StateVector`] — dense `O(2^n)` amplitudes, `O(2^n)` per gate; the
//!   default everywhere, and the reference semantics;
//! * [`crate::SparseState`] — only the 64-amplitude blocks that hold a
//!   (numerically) nonzero amplitude, sorted by block index and updated
//!   by the dense SIMD kernels block by block, so the structured Grover
//!   states of procedure A3 — support `2^{2k}` inside a
//!   `2^{2k+2}`-dimensional space, halved again after the marking round —
//!   cost memory and time proportional to the *support*, not the
//!   dimension.
//!
//! The trait surface is the exact op set those consumers need: state
//! initialization, gate application (named gates, raw 2×2 unitaries,
//! Hadamard sweeps), the structured diagonal/permutation fast paths
//! (`phase_if`, `permute_in_place`, and the masked-window ops
//! `swap_marked` and `negate_marked` that let a streamed run of input
//! bits touch only the amplitudes it changes, 64 bits per call: an index
//! per amplitude on the dense backends, one block lookup per touched
//! block on the sparse one; DESIGN.md §3), reflections for amplitude
//! amplification, Grover's inversion about
//! the mean (`invert_about_mean`: A3's diffusion `U_k S_k U_k` as one
//! pass, summed in one order on every backend), and measurement
//! (probabilities, sampling, collapse). Closure-typed methods keep the
//! trait object-unsafe on purpose: backends are chosen statically
//! (monomorphized), which is what lets the gate kernels inline and
//! vectorize.
//!
//! Future backends (rayon-parallel dense kernels, batched instance
//! sweeps, GPU execution) plug in here without touching any consumer.

use crate::complex::Complex;
use crate::gate::Gate;
use crate::matrix::Matrix;
use crate::snapshot::{SnapshotError, StateSnapshot};
use crate::state::StateVector;
use rand::Rng;

/// A pure-state quantum simulator over `n` qubits in little-endian basis
/// order (qubit `q` of basis index `b` is bit `(b >> q) & 1`).
///
/// Implementations must agree with [`StateVector`]'s semantics on every
/// operation (the cross-backend equivalence suite in
/// `crates/quantum/tests/backend_equivalence.rs` enforces fidelity
/// `≥ 1 − 1e−9` against the dense reference on random circuits).
pub trait QuantumBackend: Clone + std::fmt::Debug {
    // ------------------------------------------------------------------
    // Initialization
    // ------------------------------------------------------------------

    /// The all-zeros state `|0…0⟩` on `n` qubits.
    fn zero(n: usize) -> Self;

    /// The computational basis state `|b⟩`.
    fn basis(n: usize, b: usize) -> Self;

    /// The uniform superposition `H^{⊗n}|0…0⟩`.
    fn uniform(n: usize) -> Self;

    /// Builds a state from explicit dense amplitudes, normalizing them.
    fn from_amplitudes(amps: Vec<Complex>) -> Self;

    // ------------------------------------------------------------------
    // Geometry and read access
    // ------------------------------------------------------------------

    /// Number of qubits.
    fn num_qubits(&self) -> usize;

    /// Hilbert-space dimension `2^n`.
    fn dim(&self) -> usize {
        1usize << self.num_qubits()
    }

    /// Number of explicitly stored amplitudes. Dense backends report the
    /// full dimension; sparse backends report the support size (the
    /// memory-scaling observable the space experiments record).
    fn support(&self) -> usize;

    /// The amplitude of basis state `b`.
    fn amp(&self, b: usize) -> Complex;

    /// Euclidean norm (1 for a valid state).
    fn norm(&self) -> f64;

    /// Renormalizes in place (used after measurement collapse).
    fn normalize(&mut self);

    /// Inner product `⟨self|other⟩`.
    fn inner(&self, other: &Self) -> Complex;

    /// Fidelity `|⟨self|other⟩|²`.
    fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Densifies into the reference representation (equivalence testing
    /// and cross-backend fidelity).
    fn to_dense(&self) -> StateVector;

    /// Fraction of the Hilbert dimension that is explicitly stored:
    /// `support() / dim()`. Dense backends always report 1; sparse ones
    /// report their live occupancy. This is the observable the adaptive
    /// backend's promotion rule ([`crate::adaptive::AdaptiveState`]) is a
    /// pure function of.
    fn support_density(&self) -> f64 {
        self.support() as f64 / self.dim() as f64
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (the session engine's quantum seam)
    // ------------------------------------------------------------------

    /// Serializes the state into a versioned, byte-exact
    /// [`StateSnapshot`]. Together with [`restore`](Self::restore) this
    /// must be a bit-for-bit round trip: every amplitude (including
    /// signed zeros) comes back with the identical IEEE-754 pattern, so a
    /// suspended run resumes on exactly the digits it left.
    fn snapshot(&self) -> StateSnapshot;

    /// Rebuilds a state from a snapshot **without renormalizing**. Any
    /// backend can restore any backend's snapshot (the migration path may
    /// move a register between representations); restoring its own must
    /// reproduce the state exactly.
    fn restore(snap: &StateSnapshot) -> Result<Self, SnapshotError>;

    // ------------------------------------------------------------------
    // Gate application
    // ------------------------------------------------------------------

    /// Applies a named gate.
    fn apply_gate(&mut self, gate: &Gate);

    /// Applies an arbitrary 2×2 unitary to qubit `q`.
    fn apply_single(&mut self, q: usize, m: &Matrix);

    /// Applies a Hadamard to every qubit in `qs` (the paper's `U_k`).
    fn apply_hadamard_all(&mut self, qs: &[usize]) {
        let h = Gate::H(0).local_matrix();
        for &q in qs {
            self.apply_single(q, &h);
        }
    }

    /// Multiplies the amplitude of every basis state satisfying `pred` by
    /// `phase` (structured diagonal operators: `S_k`, `W_x`, oracles).
    ///
    /// `pred` is `Sync` so parallel backends may evaluate it from several
    /// worker threads at once.
    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex);

    /// Applies a basis-state permutation given as an involution
    /// (`V_x`, `R_x`, X/CNOT-style classical reversible maps).
    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F);

    /// Swaps amplitudes across a window of 64 indices: for each set bit
    /// `j` of `mask`, the amplitudes at `base + j + a` and `base + j + b`
    /// trade places. A3's streamed `V_x` is two of these per 64 input
    /// bits and `R_x` one ([`crate::GroverLayout::apply_vx_window`]). The
    /// touched indices must be distinct: `a ≠ b`, and no pair shares an
    /// index with another. Values move unchanged, so the support is
    /// unchanged.
    ///
    /// # Panics
    /// If a touched index lies outside the register.
    fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize);

    /// Negates amplitudes across a window of 64 indices: for each set bit
    /// `j` of `mask`, the amplitude at `base + j + a`. A3's streamed `W_x`
    /// is two of these per 64 input bits. The dense backends negate a
    /// `+0.0` to `−0.0`, as writing `−a` does; the sparse backend stores
    /// no zero but `+0.0` and leaves it so. The support is unchanged.
    ///
    /// # Panics
    /// If a touched index lies outside the register.
    fn negate_marked(&mut self, base: usize, mask: u64, a: usize);

    /// Householder reflection about `psi`: `|s⟩ ← (2|ψ⟩⟨ψ| − I)|s⟩`.
    fn reflect_about(&mut self, psi: &Self);

    /// Inversion about the mean on every contiguous run of `2^width`
    /// amplitudes: `a ← 2·mean(run) − a`. This is
    /// `H^{⊗w} · S · H^{⊗w}` on the low `width` qubits, with `S` the
    /// phase −1 on every low-`width` value `≠ 0` — Grover's diffusion,
    /// and procedure A3's `U_k S_k U_k` at `width = 2k` — in one pass
    /// instead of `4·width + 1`.
    ///
    /// Every backend sums a run in the one order [`crate::par::run_sum`]
    /// defines, so the dense, parallel and adaptive backends agree bit
    /// for bit. The result equals the gate sweeps to rounding, not to
    /// the bit.
    fn invert_about_mean(&mut self, width: usize);

    /// Adds `coeff · |other⟩` into this state (non-unitary accumulation
    /// step of the fixed-point recursion; callers renormalize).
    fn add_scaled(&mut self, other: &Self, coeff: Complex);

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Probability that measuring qubit `q` yields 1.
    fn prob_one(&self, q: usize) -> f64;

    /// Total probability of the basis states satisfying `pred` (marked-set
    /// success statistics).
    ///
    /// `pred` is `Sync` so parallel backends may evaluate it from several
    /// worker threads at once.
    fn probability_where<F: Fn(usize) -> bool + Sync>(&self, pred: F) -> f64;

    /// The full distribution over basis states.
    fn probabilities(&self) -> Vec<f64>;

    /// Fills `out` with the full distribution over basis states, reusing
    /// its allocation. Repeated-sampling loops should prefer this over
    /// [`Self::probabilities`], which allocates `2^n` doubles per call;
    /// backends with a dense buffer override it to write in place.
    fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.probabilities());
    }

    /// Measures qubit `q`, collapsing the state; returns the observed bit.
    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        let p1 = self.prob_one(q);
        let outcome = u8::from(rng.gen::<f64>() < p1);
        self.collapse_qubit(q, outcome);
        outcome
    }

    /// Projects qubit `q` onto `outcome` and renormalizes.
    fn collapse_qubit(&mut self, q: usize, outcome: u8);

    /// Samples a full computational-basis measurement without collapsing.
    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize;
}

/// How a named gate acts on the computational basis — the **single**
/// classification table every backend's `apply_gate` dispatches on.
/// The diagonal phase constants and permutation masks live here exactly
/// once; the cross-backend bit-for-bit contract (DESIGN.md §6) depends
/// on the dense, sparse and parallel backends agreeing on them, so they
/// must not be re-derived per backend.
pub(crate) enum GateKernel {
    /// Multiply the amplitude of every basis state with
    /// `b & mask == mask` by `phase` (Z, S, S†, T, T†, Phase, CZ).
    Diagonal {
        /// Bits that must all be set for the phase to apply.
        mask: usize,
        /// The unimodular factor.
        phase: Complex,
    },
    /// The involution `b ↦ b ^ xor` on basis states with
    /// `b & controls == controls` (X, CNOT, Toffoli; `controls = 0`
    /// means unconditional).
    ControlledFlip {
        /// Bits that must all be set for the flip to apply.
        controls: usize,
        /// Target bits to flip.
        xor: usize,
    },
    /// Exchange the values of two qubits (SWAP).
    SwapBits {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Arbitrary single-qubit unitary on `q`; apply via
    /// [`Gate::local_matrix`] (H, Y, Ry, …).
    Single {
        /// Target qubit.
        q: usize,
    },
}

/// Classifies a named gate into its basis-action kernel.
pub(crate) fn gate_kernel(gate: &Gate) -> GateKernel {
    match *gate {
        Gate::X(q) => GateKernel::ControlledFlip {
            controls: 0,
            xor: 1usize << q,
        },
        Gate::Z(q) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: -crate::complex::ONE,
        },
        Gate::S(q) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: Complex::new(0.0, 1.0),
        },
        Gate::Sdg(q) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: Complex::new(0.0, -1.0),
        },
        Gate::T(q) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: Complex::from_phase(std::f64::consts::FRAC_PI_4),
        },
        Gate::Tdg(q) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: Complex::from_phase(-std::f64::consts::FRAC_PI_4),
        },
        Gate::Phase(q, theta) => GateKernel::Diagonal {
            mask: 1usize << q,
            phase: Complex::from_phase(theta),
        },
        Gate::Cz(a, b) => GateKernel::Diagonal {
            mask: (1usize << a) | (1usize << b),
            phase: -crate::complex::ONE,
        },
        Gate::Cnot { control, target } => GateKernel::ControlledFlip {
            controls: 1usize << control,
            xor: 1usize << target,
        },
        Gate::Toffoli { c1, c2, target } => GateKernel::ControlledFlip {
            controls: (1usize << c1) | (1usize << c2),
            xor: 1usize << target,
        },
        Gate::Swap(a, b) => GateKernel::SwapBits { a, b },
        _ => {
            let qs = gate.qubits();
            debug_assert_eq!(qs.len(), 1, "multi-qubit fallthrough");
            GateKernel::Single { q: qs[0] }
        }
    }
}

/// The set bits of `mask`, lowest first: the window offsets a
/// [`QuantumBackend::swap_marked`] or [`QuantumBackend::negate_marked`]
/// call touches.
#[inline]
pub(crate) fn marked(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Panics unless every index a window op with a nonzero `mask` touches at
/// offset `off` from `base` (the largest is `base + 63 −
/// mask.leading_zeros() + off`) lies inside an `n`-qubit register.
#[inline]
pub(crate) fn check_window(n: usize, base: usize, mask: u64, off: usize) {
    let top = 63 - mask.leading_zeros() as usize;
    let last = base.checked_add(top).and_then(|i| i.checked_add(off));
    assert!(
        last.is_some_and(|i| i >> n == 0),
        "window index {base} + {top} + {off} out of range for {n} qubits"
    );
}

/// Shared dense restore: scatters decoded entries (dense or sparse
/// encoding) into a full amplitude vector with exact `+0.0` off the
/// support, **without** renormalizing. Used by [`StateVector`],
/// [`crate::ParallelStateVector`] and the adaptive backend's dense phase.
pub(crate) fn restore_dense(snap: &StateSnapshot) -> Result<StateVector, SnapshotError> {
    let dec = snap.decode()?;
    if dec.num_qubits > 28 {
        return Err(SnapshotError::Malformed(
            "state too wide for a dense backend (> 28 qubits)",
        ));
    }
    let mut amps = vec![crate::complex::ZERO; 1usize << dec.num_qubits];
    for (b, a) in dec.entries {
        amps[b] = a;
    }
    Ok(StateVector::from_amplitudes_unchecked(amps))
}

impl QuantumBackend for StateVector {
    fn zero(n: usize) -> Self {
        StateVector::zero(n)
    }

    fn basis(n: usize, b: usize) -> Self {
        StateVector::basis(n, b)
    }

    fn uniform(n: usize) -> Self {
        StateVector::uniform(n)
    }

    fn from_amplitudes(amps: Vec<Complex>) -> Self {
        StateVector::from_amplitudes(amps)
    }

    fn num_qubits(&self) -> usize {
        StateVector::num_qubits(self)
    }

    fn dim(&self) -> usize {
        StateVector::dim(self)
    }

    fn support(&self) -> usize {
        StateVector::dim(self)
    }

    fn amp(&self, b: usize) -> Complex {
        StateVector::amp(self, b)
    }

    fn norm(&self) -> f64 {
        StateVector::norm(self)
    }

    fn normalize(&mut self) {
        StateVector::normalize(self)
    }

    fn inner(&self, other: &Self) -> Complex {
        StateVector::inner(self, other)
    }

    fn to_dense(&self) -> StateVector {
        self.clone()
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::encode_dense(StateVector::num_qubits(self), self.amplitudes())
    }

    fn restore(snap: &StateSnapshot) -> Result<Self, SnapshotError> {
        restore_dense(snap)
    }

    fn apply_gate(&mut self, gate: &Gate) {
        StateVector::apply(self, gate)
    }

    fn apply_single(&mut self, q: usize, m: &Matrix) {
        StateVector::apply_single(self, q, m)
    }

    fn apply_hadamard_all(&mut self, qs: &[usize]) {
        StateVector::apply_hadamard_all(self, qs)
    }

    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex) {
        StateVector::phase_if(self, pred, phase)
    }

    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        StateVector::permute_in_place(self, f)
    }

    fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize) {
        StateVector::swap_marked(self, base, mask, a, b)
    }

    fn negate_marked(&mut self, base: usize, mask: u64, a: usize) {
        StateVector::negate_marked(self, base, mask, a)
    }

    fn reflect_about(&mut self, psi: &Self) {
        StateVector::reflect_about(self, psi)
    }

    fn invert_about_mean(&mut self, width: usize) {
        StateVector::invert_about_mean(self, width)
    }

    fn add_scaled(&mut self, other: &Self, coeff: Complex) {
        StateVector::add_scaled(self, other, coeff)
    }

    fn prob_one(&self, q: usize) -> f64 {
        StateVector::prob_one(self, q)
    }

    fn probability_where<F: Fn(usize) -> bool + Sync>(&self, pred: F) -> f64 {
        crate::par::chunked_prob_where(self.amplitudes(), pred)
    }

    fn probabilities(&self) -> Vec<f64> {
        StateVector::probabilities(self)
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        StateVector::probabilities_into(self, out)
    }

    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        StateVector::measure_qubit(self, q, rng)
    }

    fn collapse_qubit(&mut self, q: usize, outcome: u8) {
        StateVector::collapse_qubit(self, q, outcome)
    }

    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        StateVector::sample_basis(self, rng)
    }
}
