//! The adaptive backend: start sparse, promote to parallel-dense when the
//! state actually densifies.
//!
//! [`AdaptiveState`] makes the dense/sparse tradeoff DESIGN.md §2
//! documents statically into a **runtime** decision driven by the state's
//! measured [`support_density`](crate::QuantumBackend::support_density).
//! A register begins life in the support-proportional sparse
//! representation — the right choice for the structured states of
//! procedure A3, whose density sits at 1/4 for the whole run — and
//! switches to the scoped-thread parallel dense representation the moment
//! the support crosses [`should_promote`]'s threshold, after which every
//! `O(2^n)` pass runs at dense-kernel speed on worker threads.
//!
//! **The promotion rule is a pure function of the state** (qubit count
//! and support size — never wall clock, thread count or call history), so
//! adaptive runs are bit-reproducible at every worker count:
//!
//! * in the sparse phase, every operation follows the dense backend's
//!   arithmetic and the chunk-ordered summation contract
//!   ([`crate::par`]), so all observables match dense bit for bit;
//! * promotion densifies **exactly** (no renormalization — off-support
//!   entries become exact `+0.0`, stored bits are moved, not recomputed);
//! * the dense phase is [`ParallelStateVector`], itself pinned bit-for-bit
//!   to [`StateVector`] at every thread count.
//!
//! The composition is pinned by the equivalence suites: `AdaptiveState`
//! tracks the dense reference **digit for digit** through the full
//! A1/A2/A3 pipelines (tests/backend_pipelines.rs).
//!
//! **Demotion is not attempted.** Once dense, a state stays dense even if
//! a collapse shrinks its support again: demotion would buy back memory
//! only after the peak allocation has already happened (the metered
//! observable is the high-water mark), would make the representation a
//! function of measurement outcomes rather than of reachable support, and
//! would re-enter the representation-switch cost on workloads that
//! oscillate around the threshold. See DESIGN.md §7.

use crate::backend::QuantumBackend;
use crate::complex::Complex;
use crate::gate::Gate;
use crate::matrix::Matrix;
use crate::parallel::ParallelStateVector;
use crate::snapshot::{SnapshotError, StateSnapshot};
use crate::sparse::SparseState;
use crate::state::StateVector;
use rand::Rng;

/// Widest register the adaptive backend will ever densify. Above this, a
/// dense vector would not fit (the dense backends cap at 28 qubits) and a
/// support dense enough to trigger promotion would already dwarf any
/// sensible budget — the state simply stays sparse.
pub const ADAPTIVE_MAX_DENSE_QUBITS: usize = 26;

/// Promotion threshold numerator: promote when
/// `support / 2^n ≥ 3/8`. Chosen between A3's structured density
/// (exactly 1/4 on well-formed streams, which must *stay* sparse for the
/// memory win) and the 1/2 that mixed-branch diffusion reaches the moment
/// a stream stops being structured (which should run dense).
pub const ADAPTIVE_PROMOTE_NUM: usize = 3;

/// Promotion threshold denominator; see [`ADAPTIVE_PROMOTE_NUM`].
pub const ADAPTIVE_PROMOTE_DEN: usize = 8;

/// The promotion rule, exposed as the pure function it is required to be
/// (DESIGN.md §7): promote iff the register can be densified at all
/// (`num_qubits ≤ `[`ADAPTIVE_MAX_DENSE_QUBITS`]) and the support density
/// has reached [`ADAPTIVE_PROMOTE_NUM`]`/`[`ADAPTIVE_PROMOTE_DEN`].
/// Integer arithmetic only — no float threshold can drift.
pub fn should_promote(num_qubits: usize, support: usize) -> bool {
    num_qubits <= ADAPTIVE_MAX_DENSE_QUBITS
        && support * ADAPTIVE_PROMOTE_DEN >= (1usize << num_qubits) * ADAPTIVE_PROMOTE_NUM
}

#[derive(Clone, Debug)]
enum Repr {
    Sparse(SparseState),
    Dense(ParallelStateVector),
}

/// A pure state that begins sparse and promotes itself to the parallel
/// dense representation when its support density crosses the
/// deterministic [`should_promote`] threshold (see module docs).
#[derive(Clone, Debug)]
pub struct AdaptiveState {
    repr: Repr,
}

impl AdaptiveState {
    /// True once the state has promoted to the dense representation.
    pub fn is_dense_phase(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Human-readable name of the live representation (diagnostics).
    pub fn phase_name(&self) -> &'static str {
        match self.repr {
            Repr::Sparse(_) => "sparse",
            Repr::Dense(_) => "parallel-dense",
        }
    }

    fn from_sparse(mut s: SparseState) -> Self {
        // Exact mode: only exact zeros leave the support, so even
        // sub-threshold near-cancellation residues — which the dense
        // reference keeps and later gates remix into nonzero amplitudes —
        // stay digit-for-digit aligned with dense. The memory story is
        // unchanged on structured workloads, whose cancellations are
        // exact.
        s.set_exact_mode();
        let mut out = AdaptiveState {
            repr: Repr::Sparse(s),
        };
        out.settle();
        out
    }

    /// Applies the promotion rule to the current state. Called after
    /// every operation that can grow the support; a no-op in the dense
    /// phase (no demotion).
    fn settle(&mut self) {
        if let Repr::Sparse(s) = &self.repr {
            if should_promote(s.num_qubits(), s.support()) {
                // Exact densification: bits are moved, never recomputed.
                let dense = s.densify_exact();
                self.repr = Repr::Dense(ParallelStateVector::from_dense(dense));
            }
        }
    }

    /// Exact dense view of either phase (no renormalization).
    fn densify_exact(&self) -> StateVector {
        match &self.repr {
            Repr::Sparse(s) => s.densify_exact(),
            Repr::Dense(d) => d.as_dense().clone(),
        }
    }
}

impl QuantumBackend for AdaptiveState {
    fn zero(n: usize) -> Self {
        Self::from_sparse(SparseState::zero(n))
    }

    fn basis(n: usize, b: usize) -> Self {
        Self::from_sparse(SparseState::basis(n, b))
    }

    fn uniform(n: usize) -> Self {
        // Density 1: promotes immediately (for n within the dense cap).
        Self::from_sparse(SparseState::uniform(n))
    }

    fn from_amplitudes(amps: Vec<Complex>) -> Self {
        Self::from_sparse(SparseState::from_amplitudes(amps))
    }

    fn num_qubits(&self) -> usize {
        match &self.repr {
            Repr::Sparse(s) => s.num_qubits(),
            Repr::Dense(d) => d.num_qubits(),
        }
    }

    fn support(&self) -> usize {
        match &self.repr {
            Repr::Sparse(s) => s.support(),
            Repr::Dense(d) => d.support(),
        }
    }

    fn amp(&self, b: usize) -> Complex {
        match &self.repr {
            Repr::Sparse(s) => s.amp(b),
            Repr::Dense(d) => d.amp(b),
        }
    }

    fn norm(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(s) => s.norm(),
            Repr::Dense(d) => d.norm(),
        }
    }

    fn normalize(&mut self) {
        match &mut self.repr {
            Repr::Sparse(s) => s.normalize(),
            Repr::Dense(d) => d.normalize(),
        }
    }

    fn inner(&self, other: &Self) -> Complex {
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => a.inner(b),
            (Repr::Dense(a), Repr::Dense(b)) => QuantumBackend::inner(a, b),
            // Mixed phases (one operand promoted, the other not): go
            // through the exact dense views and the canonical chunked
            // reduction.
            _ => crate::par::chunked_inner(
                self.densify_exact().amplitudes(),
                other.densify_exact().amplitudes(),
            ),
        }
    }

    fn to_dense(&self) -> StateVector {
        match &self.repr {
            Repr::Sparse(s) => s.to_dense(),
            Repr::Dense(d) => d.to_dense(),
        }
    }

    fn snapshot(&self) -> StateSnapshot {
        match &self.repr {
            Repr::Sparse(s) => s.snapshot(),
            Repr::Dense(d) => QuantumBackend::snapshot(d),
        }
    }

    fn restore(snap: &StateSnapshot) -> Result<Self, SnapshotError> {
        // Restore into the phase the encoding was taken from, then apply
        // the promotion rule: an adaptive snapshot round-trips into the
        // identical phase (a sparse-phase state never satisfies the rule,
        // a dense one restores dense), while a foreign sparse snapshot
        // that is already past the threshold promotes right away.
        let dec = snap.decode()?;
        if dec.dense {
            Ok(AdaptiveState {
                repr: Repr::Dense(ParallelStateVector::restore(snap)?),
            })
        } else {
            // Exact-mode restore: residues carried by an adaptive
            // snapshot survive the round trip bit for bit.
            Ok(Self::from_sparse(SparseState::restore_with_eps(snap, 0.0)?))
        }
    }

    fn apply_gate(&mut self, gate: &Gate) {
        match &mut self.repr {
            Repr::Sparse(s) => s.apply_gate(gate),
            Repr::Dense(d) => d.apply_gate(gate),
        }
        self.settle();
    }

    fn apply_single(&mut self, q: usize, m: &Matrix) {
        match &mut self.repr {
            Repr::Sparse(s) => s.apply_single(q, m),
            Repr::Dense(d) => d.apply_single(q, m),
        }
        self.settle();
    }

    fn apply_hadamard_all(&mut self, qs: &[usize]) {
        // Qubit by qubit so a sweep that crosses the threshold midway
        // finishes on the dense kernels — the rule consults the state
        // after every gate, not once per sweep.
        let h = Gate::H(0).local_matrix();
        for &q in qs {
            self.apply_single(q, &h);
        }
    }

    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex) {
        match &mut self.repr {
            Repr::Sparse(s) => s.phase_if(pred, phase),
            Repr::Dense(d) => d.phase_if(pred, phase),
        }
        // Diagonal: the support cannot grow; no settle needed.
    }

    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        match &mut self.repr {
            Repr::Sparse(s) => s.permute_in_place(f),
            Repr::Dense(d) => d.permute_in_place(f),
        }
        // Permutation: support size is invariant; no settle needed.
    }

    fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize) {
        match &mut self.repr {
            Repr::Sparse(s) => s.swap_marked(base, mask, a, b),
            Repr::Dense(d) => d.swap_marked(base, mask, a, b),
        }
        self.settle();
    }

    fn negate_marked(&mut self, base: usize, mask: u64, a: usize) {
        match &mut self.repr {
            Repr::Sparse(s) => s.negate_marked(base, mask, a),
            Repr::Dense(d) => d.negate_marked(base, mask, a),
        }
        self.settle();
    }

    fn invert_about_mean(&mut self, width: usize) {
        match &mut self.repr {
            Repr::Sparse(s) => s.invert_about_mean(width),
            Repr::Dense(d) => d.invert_about_mean(width),
        }
        self.settle();
    }

    fn reflect_about(&mut self, psi: &Self) {
        match (&mut self.repr, &psi.repr) {
            (Repr::Sparse(s), Repr::Sparse(p)) => s.reflect_about(p),
            (Repr::Dense(d), Repr::Dense(p)) => d.reflect_about(p),
            (Repr::Dense(d), Repr::Sparse(p)) => {
                let p_dense = ParallelStateVector::with_threads(p.densify_exact(), d.threads());
                d.reflect_about(&p_dense);
            }
            (Repr::Sparse(_), Repr::Dense(_)) => {
                // The mirror state is already dense: reflecting about it
                // densifies this state's reachable support anyway, so
                // promote first and run the dense kernel.
                let dense = ParallelStateVector::from_dense(self.densify_exact());
                self.repr = Repr::Dense(dense);
                self.reflect_about(psi);
                return;
            }
        }
        self.settle();
    }

    fn add_scaled(&mut self, other: &Self, coeff: Complex) {
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(s), Repr::Sparse(o)) => s.add_scaled(o, coeff),
            (Repr::Dense(d), Repr::Dense(o)) => d.add_scaled(o, coeff),
            (Repr::Dense(d), Repr::Sparse(o)) => {
                let o_dense = ParallelStateVector::with_threads(o.densify_exact(), d.threads());
                d.add_scaled(&o_dense, coeff);
            }
            (Repr::Sparse(_), Repr::Dense(_)) => {
                let dense = ParallelStateVector::from_dense(self.densify_exact());
                self.repr = Repr::Dense(dense);
                self.add_scaled(other, coeff);
                return;
            }
        }
        self.settle();
    }

    fn prob_one(&self, q: usize) -> f64 {
        match &self.repr {
            Repr::Sparse(s) => s.prob_one(q),
            Repr::Dense(d) => d.prob_one(q),
        }
    }

    fn probability_where<F: Fn(usize) -> bool + Sync>(&self, pred: F) -> f64 {
        match &self.repr {
            Repr::Sparse(s) => s.probability_where(pred),
            Repr::Dense(d) => d.probability_where(pred),
        }
    }

    fn probabilities(&self) -> Vec<f64> {
        match &self.repr {
            Repr::Sparse(s) => s.probabilities(),
            Repr::Dense(d) => d.probabilities(),
        }
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        match &self.repr {
            Repr::Sparse(s) => s.probabilities_into(out),
            Repr::Dense(d) => d.probabilities_into(out),
        }
    }

    fn collapse_qubit(&mut self, q: usize, outcome: u8) {
        match &mut self.repr {
            Repr::Sparse(s) => s.collapse_qubit(q, outcome),
            Repr::Dense(d) => d.collapse_qubit(q, outcome),
        }
        // Collapse only shrinks the support; no settle, no demotion.
    }

    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.repr {
            Repr::Sparse(s) => s.sample_basis(rng),
            Repr::Dense(d) => d.sample_basis(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn promotion_rule_is_pure_and_integer() {
        // Exactly at the threshold: 3/8 of dim promotes.
        let n = 8usize;
        let dim = 1usize << n;
        assert!(!should_promote(n, dim * 3 / 8 - 1));
        assert!(should_promote(n, dim * 3 / 8));
        assert!(should_promote(n, dim));
        // Never densify past the cap, however dense the support claims
        // to be.
        assert!(!should_promote(
            ADAPTIVE_MAX_DENSE_QUBITS + 1,
            usize::MAX >> 8
        ));
    }

    #[test]
    fn starts_sparse_and_promotes_during_hadamard_growth() {
        let n = 10;
        let mut s = AdaptiveState::zero(n);
        assert!(!s.is_dense_phase(), "zero state must start sparse");
        let mut promoted_at = None;
        for q in 0..n {
            s.apply_gate(&Gate::H(q));
            if s.is_dense_phase() && promoted_at.is_none() {
                promoted_at = Some(q);
            }
        }
        // Support after H on qubits 0..=q is 2^{q+1}; 3/8·1024 = 384 is
        // first reached at support 512, i.e. after the 9th Hadamard.
        assert_eq!(promoted_at, Some(8), "deterministic promotion point");
        assert!((s.norm() - 1.0).abs() < EPS);
        assert_eq!(s.support(), 1 << n);
    }

    #[test]
    fn structured_quarter_density_stays_sparse() {
        // The A3 shape: uniform over the low 2k index qubits of a
        // (2k+2)-qubit register = density 1/4 < 3/8.
        let k = 3usize;
        let mut s = AdaptiveState::zero(2 * k + 2);
        let idx: Vec<usize> = (0..2 * k).collect();
        s.apply_hadamard_all(&idx);
        assert!(!s.is_dense_phase());
        assert_eq!(s.support(), 1 << (2 * k));
        assert_eq!(s.phase_name(), "sparse");
    }

    #[test]
    fn no_demotion_after_collapse() {
        let mut s = AdaptiveState::uniform(6);
        assert!(s.is_dense_phase(), "uniform is density 1");
        for q in 0..5 {
            s.collapse_qubit(q, 0);
        }
        assert_eq!(s.support(), 64, "dense support is the dimension");
        assert!(s.is_dense_phase(), "demotion is not attempted");
    }

    #[test]
    fn matches_dense_bitwise_across_the_promotion_boundary() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 9;
        let mut rng = StdRng::seed_from_u64(0xADA);
        let mut dense = StateVector::zero(n);
        let mut ad = AdaptiveState::zero(n);
        let mut crossed = false;
        for step in 0..60 {
            let q = rng.gen_range(0..n);
            let r = (q + 1 + rng.gen_range(0..n - 1)) % n;
            let gate = match rng.gen_range(0u8..6) {
                0 | 1 => Gate::H(q),
                2 => Gate::T(q),
                3 => Gate::X(q),
                4 => Gate::Cnot {
                    control: q,
                    target: r,
                },
                _ => Gate::Cz(q, r),
            };
            dense.apply(&gate);
            ad.apply_gate(&gate);
            crossed |= ad.is_dense_phase();
            for b in 0..(1usize << n) {
                let (x, y) = (dense.amp(b), ad.amp(b));
                // Exact IEEE equality: identical digits everywhere, with
                // ±0.0 identified (a diagonal phase on a dense zero can
                // leave a −0.0 the sparse phase never stores; the sign of
                // zero is unobservable in every reduction).
                assert!(
                    x.re == y.re && x.im == y.im,
                    "step {step} amp {b}: {x:?} vs {y:?}"
                );
            }
            let (pd, pa) = (dense.prob_one(q), ad.prob_one(q));
            assert_eq!(pd.to_bits(), pa.to_bits(), "step {step}");
        }
        assert!(crossed, "the circuit must exercise the promotion");
    }

    #[test]
    fn snapshot_round_trips_in_both_phases() {
        // Sparse phase.
        let mut s = AdaptiveState::basis(7, 5);
        s.apply_gate(&Gate::H(0));
        assert!(!s.is_dense_phase());
        let snap = s.snapshot();
        let r = AdaptiveState::restore(&snap).expect("restores");
        assert!(!r.is_dense_phase(), "phase survives the round trip");
        assert_eq!(s.amp(5).re.to_bits(), r.amp(5).re.to_bits());
        // Dense phase.
        let d = AdaptiveState::uniform(5);
        assert!(d.is_dense_phase());
        let rd = AdaptiveState::restore(&d.snapshot()).expect("restores");
        assert!(rd.is_dense_phase());
        assert_eq!(d.amp(3).re.to_bits(), rd.amp(3).re.to_bits());
    }

    #[test]
    fn wide_registers_never_densify() {
        let mut s = AdaptiveState::zero(40);
        s.apply_gate(&Gate::H(35));
        s.swap_marked(0, 1, 0, 1usize << 36);
        assert!(!s.is_dense_phase());
        assert_eq!(s.support(), 2);
        assert_eq!(s.amp(1usize << 36), s.amp(1usize << 35));
        assert!(s.support_density() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 qubits")]
    fn window_op_outside_the_register_panics() {
        let mut s = AdaptiveState::zero(3);
        s.negate_marked(4, 0b1000, 1);
    }

    #[test]
    fn reflect_handles_mixed_phases() {
        // psi dense (uniform), self sparse (basis): promotes and reflects.
        let psi = AdaptiveState::uniform(4);
        let mut s = AdaptiveState::basis(4, 3);
        assert!(!s.is_dense_phase());
        s.reflect_about(&psi);
        assert!(s.is_dense_phase());
        assert!((s.norm() - 1.0).abs() < EPS);
        // And the result matches the all-dense computation digit for digit.
        let psi_d = StateVector::uniform(4);
        let mut s_d = StateVector::basis(4, 3);
        s_d.reflect_about(&psi_d);
        for b in 0..16 {
            assert_eq!(s.amp(b).re.to_bits(), s_d.amp(b).re.to_bits(), "amp {b}");
        }
    }
}
