//! The structured operators of the paper's procedure A3.
//!
//! Section 3.2 defines, over a register `|i⟩|h⟩|l⟩` with `i` ranging over
//! `{0,…,2^{2k}−1}` and `h, l ∈ {0,1}`:
//!
//! * `S_k : |i⟩|h⟩|l⟩ ↦ −|i⟩|h⟩|l⟩` for `i ≠ 0`, identity on `i = 0`;
//! * `V_x : |i⟩|h⟩|l⟩ ↦ |i⟩|h ⊕ x_i⟩|l⟩`;
//! * `W_x : |i⟩|h⟩|l⟩ ↦ (−1)^{h ∧ x_i}|i⟩|h⟩|l⟩`;
//! * `R_x : |i⟩|h⟩|l⟩ ↦ |i⟩|h⟩|l ⊕ (h ∧ x_i)⟩`;
//! * `U_k = H^{⊗2k} ⊗ I ⊗ I`.
//!
//! `V_x W_y V_x` multiplies the amplitude of `|i⟩|0⟩|0⟩` by
//! `(−1)^{x_i ∧ y_i}`, i.e. it is one Grover phase oracle for the
//! intersection predicate, and `U_k S_k U_k` is the diffusion operator —
//! exactly one Grover iteration per block of streamed input. Since `S_k =
//! 2|0⟩⟨0| − I` on the index register, the diffusion is `2|φ⟩⟨φ| − I`,
//! Grover's inversion about the mean over each `(h, l)` quarter;
//! [`GroverLayout::apply_diffusion`] runs it as one backend op
//! ([`QuantumBackend::invert_about_mean`]), one pass where the sweeps
//! `U_k`, `S_k`, `U_k` take `4k + 1`. The sweeps stay as the reference
//! the tests compare against.
//!
//! Two application modes are provided:
//!
//! * **block mode** — the whole bit-string `x` is known; one `O(2^n)` pass;
//! * **bit mode** — input bits as they stream, each touching only the
//!   four amplitudes whose index part equals its index `i`. A window of
//!   up to 64 bits is one mask and one or two backend calls
//!   ([`QuantumBackend::swap_marked`], [`QuantumBackend::negate_marked`]):
//!   an index per amplitude on the dense backends, one block lookup per
//!   touched block on the sparse one ([`crate::sparse`]; DESIGN.md §2
//!   has a whole A3 round's cost on each backend). The one-bit fragments
//!   (`apply_vx_bit`, …) are one-bit windows. This is what makes the
//!   online simulation of procedure A3 run in time linear in the input
//!   length.

use crate::backend::QuantumBackend;
use crate::complex::ONE;
use crate::state::StateVector;

/// Register layout for the paper's A3 procedure: index qubits
/// `0 … idx_width−1` (little-endian value `i`), then `h`, then `l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroverLayout {
    /// Width of the index register; the paper uses `idx_width = 2k`.
    pub idx_width: usize,
}

impl GroverLayout {
    /// Layout for the paper's parameter `k` (index width `2k`).
    pub fn for_k(k: u32) -> Self {
        GroverLayout {
            idx_width: 2 * k as usize,
        }
    }

    /// Total register width `idx_width + 2`.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.idx_width + 2
    }

    /// Number of index values `N = 2^{idx_width}` (the paper's `2^{2k}`,
    /// the length of the strings `x, y`).
    #[inline]
    pub fn domain(&self) -> usize {
        1usize << self.idx_width
    }

    /// Qubit index of the `h` register.
    #[inline]
    pub fn h_qubit(&self) -> usize {
        self.idx_width
    }

    /// Qubit index of the `l` register (the qubit measured at the end of
    /// A3).
    #[inline]
    pub fn l_qubit(&self) -> usize {
        self.idx_width + 1
    }

    /// Basis-state index of `|i⟩|h⟩|l⟩`.
    #[inline]
    pub fn basis(&self, i: usize, h: u8, l: u8) -> usize {
        debug_assert!(i < self.domain());
        i | ((h as usize) << self.h_qubit()) | ((l as usize) << self.l_qubit())
    }

    /// The index qubits as a list (for Hadamard sweeps).
    pub fn index_qubits(&self) -> Vec<usize> {
        (0..self.idx_width).collect()
    }

    /// The paper's initial state `|φ_k⟩ = 2^{-k} Σ_i |i⟩|0⟩|0⟩` in the
    /// dense reference backend.
    pub fn phi(&self) -> StateVector {
        self.phi_in::<StateVector>()
    }

    /// `|φ_k⟩` in any backend (the sparse backend stores its `2^{idx_width}`
    /// support entries and nothing else).
    pub fn phi_in<B: QuantumBackend>(&self) -> B {
        let mut s = B::zero(self.num_qubits());
        s.apply_hadamard_all(&self.index_qubits());
        s
    }

    // ------------------------------------------------------------------
    // Block-mode operators
    // ------------------------------------------------------------------

    /// Applies `U_k = H^{⊗idx_width} ⊗ I ⊗ I`.
    pub fn apply_uk<B: QuantumBackend>(&self, s: &mut B) {
        s.apply_hadamard_all(&self.index_qubits());
    }

    /// Applies `S_k` (phase −1 on every `i ≠ 0`).
    pub fn apply_sk<B: QuantumBackend>(&self, s: &mut B) {
        let mask = self.domain() - 1;
        s.phase_if(|b| b & mask != 0, -ONE);
    }

    /// Applies `V_x` for the full string `x` (`x.len() = domain`).
    pub fn apply_vx<B: QuantumBackend>(&self, s: &mut B, x: &[bool]) {
        assert_eq!(x.len(), self.domain(), "string length mismatch");
        let mask = self.domain() - 1;
        let hbit = 1usize << self.h_qubit();
        s.permute_in_place(|b| if x[b & mask] { b ^ hbit } else { b });
    }

    /// Applies `W_x` for the full string `x`.
    pub fn apply_wx<B: QuantumBackend>(&self, s: &mut B, x: &[bool]) {
        assert_eq!(x.len(), self.domain(), "string length mismatch");
        let mask = self.domain() - 1;
        let hbit = 1usize << self.h_qubit();
        s.phase_if(|b| b & hbit != 0 && x[b & mask], -ONE);
    }

    /// Applies `R_x` for the full string `x`.
    pub fn apply_rx<B: QuantumBackend>(&self, s: &mut B, x: &[bool]) {
        assert_eq!(x.len(), self.domain(), "string length mismatch");
        let mask = self.domain() - 1;
        let hbit = 1usize << self.h_qubit();
        let lbit = 1usize << self.l_qubit();
        s.permute_in_place(|b| {
            if b & hbit != 0 && x[b & mask] {
                b ^ lbit
            } else {
                b
            }
        });
    }

    /// Applies the diffusion `U_k S_k U_k` in closed form: with `S_k =
    /// 2|0⟩⟨0| − I` on the index register it is `2|φ⟩⟨φ| − I`, which maps
    /// every amplitude to `2·mean − a` over its `(h, l)` quarter. The
    /// index sits in the low qubits, so each quarter is one contiguous
    /// run: one [`QuantumBackend::invert_about_mean`] call. Equal to
    /// [`Self::apply_uk`], [`Self::apply_sk`], [`Self::apply_uk`] to
    /// rounding.
    pub fn apply_diffusion<B: QuantumBackend>(&self, s: &mut B) {
        s.invert_about_mean(self.idx_width);
    }

    /// One full Grover iteration `U_k S_k U_k V_z W_y V_x` (applied right to
    /// left, i.e. `V_x` first), as in step 3 of procedure A3, with the
    /// diffusion in closed form ([`Self::apply_diffusion`]).
    pub fn apply_grover_iteration<B: QuantumBackend>(
        &self,
        s: &mut B,
        x: &[bool],
        y: &[bool],
        z: &[bool],
    ) {
        self.apply_vx(s, x);
        self.apply_wx(s, y);
        self.apply_vx(s, z);
        self.apply_diffusion(s);
    }

    // ------------------------------------------------------------------
    // Bit-mode (streaming) operators: four amplitudes per streamed bit,
    // 64 bits per backend call
    // ------------------------------------------------------------------

    /// The `h` and `h | l` offsets of an index's `(h, l)` branches, for a
    /// window whose set bits must index the domain: past it, a bit would
    /// address another index's branch.
    #[inline]
    fn branch_offsets(&self, base: usize, mask: u64) -> (usize, usize) {
        debug_assert!(mask == 0 || base + 63 - (mask.leading_zeros() as usize) < self.domain());
        let h = 1usize << self.h_qubit();
        (h, h | (1usize << self.l_qubit()))
    }

    /// Streaming `V_x` over a window of up to 64 input bits: for each set
    /// bit `j` of `mask` (the bit `x_{base+j} = 1`), swaps the two `h`
    /// branches of the four amplitudes whose index part is `base + j`.
    /// Two [`QuantumBackend::swap_marked`] calls, `h = 0 ↔ 1` at `l = 0`
    /// and at `l = 1`.
    pub fn apply_vx_window<B: QuantumBackend>(&self, s: &mut B, base: usize, mask: u64) {
        let (h, hl) = self.branch_offsets(base, mask);
        s.swap_marked(base, mask, 0, h);
        s.swap_marked(base, mask, hl ^ h, hl);
    }

    /// Streaming `W_x` over a window: negates the `h = 1` branches of
    /// each index `base + j` with bit `j` of `mask` set. Two
    /// [`QuantumBackend::negate_marked`] calls.
    pub fn apply_wx_window<B: QuantumBackend>(&self, s: &mut B, base: usize, mask: u64) {
        let (h, hl) = self.branch_offsets(base, mask);
        s.negate_marked(base, mask, h);
        s.negate_marked(base, mask, hl);
    }

    /// Streaming `R_x` over a window: swaps `l` on the `h = 1` branches of
    /// each index `base + j` with bit `j` of `mask` set. One
    /// [`QuantumBackend::swap_marked`] call.
    pub fn apply_rx_window<B: QuantumBackend>(&self, s: &mut B, base: usize, mask: u64) {
        let (h, hl) = self.branch_offsets(base, mask);
        s.swap_marked(base, mask, h, hl);
    }

    /// Streaming `V_x` fragment: the factor of `V_x` acting on index value
    /// `i` with bit `x_i = xi` ([`Self::apply_vx_window`] on one bit).
    pub fn apply_vx_bit<B: QuantumBackend>(&self, s: &mut B, i: usize, xi: bool) {
        self.apply_vx_window(s, i, u64::from(xi));
    }

    /// Streaming `W_x` fragment for index `i`: negates the `h = 1` branches
    /// ([`Self::apply_wx_window`] on one bit).
    pub fn apply_wx_bit<B: QuantumBackend>(&self, s: &mut B, i: usize, xi: bool) {
        self.apply_wx_window(s, i, u64::from(xi));
    }

    /// Streaming `R_x` fragment for index `i`: swaps `l` on the `h = 1`
    /// branches ([`Self::apply_rx_window`] on one bit).
    pub fn apply_rx_bit<B: QuantumBackend>(&self, s: &mut B, i: usize, xi: bool) {
        self.apply_rx_window(s, i, u64::from(xi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-10;

    fn rand_bits(n: usize, rng: &mut StdRng) -> Vec<bool> {
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn layout_geometry() {
        let l = GroverLayout::for_k(2);
        assert_eq!(l.idx_width, 4);
        assert_eq!(l.num_qubits(), 6);
        assert_eq!(l.domain(), 16);
        assert_eq!(l.h_qubit(), 4);
        assert_eq!(l.l_qubit(), 5);
        assert_eq!(l.basis(5, 1, 0), 5 | 16);
        assert_eq!(l.basis(5, 0, 1), 5 | 32);
    }

    #[test]
    fn phi_is_uniform_on_index_zero_elsewhere() {
        let l = GroverLayout { idx_width: 3 };
        let s = l.phi();
        let amp = 1.0 / (8f64).sqrt();
        for i in 0..8 {
            assert!(s.amp(l.basis(i, 0, 0)).approx_eq(Complex::real(amp), EPS));
            assert!(s.amp(l.basis(i, 1, 0)).is_approx_zero(EPS));
            assert!(s.amp(l.basis(i, 0, 1)).is_approx_zero(EPS));
            assert!(s.amp(l.basis(i, 1, 1)).is_approx_zero(EPS));
        }
    }

    #[test]
    fn vx_flips_h_on_set_bits() {
        let l = GroverLayout { idx_width: 2 };
        let x = vec![true, false, true, false];
        let mut s = l.phi();
        l.apply_vx(&mut s, &x);
        let amp = Complex::real(0.5);
        assert!(s.amp(l.basis(0, 1, 0)).approx_eq(amp, EPS));
        assert!(s.amp(l.basis(1, 0, 0)).approx_eq(amp, EPS));
        assert!(s.amp(l.basis(2, 1, 0)).approx_eq(amp, EPS));
        assert!(s.amp(l.basis(3, 0, 0)).approx_eq(amp, EPS));
    }

    #[test]
    fn vx_is_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = GroverLayout { idx_width: 3 };
        let x = rand_bits(8, &mut rng);
        let mut s = l.phi();
        let orig = s.clone();
        l.apply_vx(&mut s, &x);
        l.apply_vx(&mut s, &x);
        assert!(s.approx_eq(&orig, EPS));
    }

    #[test]
    fn paper_phase_identity_vx_wy_vx() {
        // Equation from the proof of Theorem 3.4:
        // V_x W_y V_x (Σ α_i|i,0,0⟩) = Σ α_i (−1)^{x_i ∧ y_i}|i,0,0⟩.
        let mut rng = StdRng::seed_from_u64(11);
        let l = GroverLayout { idx_width: 3 };
        let x = rand_bits(8, &mut rng);
        let y = rand_bits(8, &mut rng);
        let mut s = l.phi();
        l.apply_vx(&mut s, &x);
        l.apply_wx(&mut s, &y);
        l.apply_vx(&mut s, &x);
        let amp = 1.0 / (8f64).sqrt();
        for i in 0..8 {
            let sign = if x[i] && y[i] { -1.0 } else { 1.0 };
            assert!(
                s.amp(l.basis(i, 0, 0))
                    .approx_eq(Complex::real(sign * amp), EPS),
                "index {i}"
            );
            assert!(s.amp(l.basis(i, 1, 0)).is_approx_zero(EPS));
        }
    }

    #[test]
    fn sk_flips_all_but_zero() {
        let l = GroverLayout { idx_width: 2 };
        let mut s = l.phi();
        l.apply_sk(&mut s);
        assert!(s.amp(l.basis(0, 0, 0)).approx_eq(Complex::real(0.5), EPS));
        for i in 1..4 {
            assert!(s.amp(l.basis(i, 0, 0)).approx_eq(Complex::real(-0.5), EPS));
        }
    }

    #[test]
    fn diffusion_preserves_phi() {
        // U_k S_k U_k fixes |φ⟩ up to global phase (it reflects about the
        // mean, and φ *is* the mean direction): D|φ⟩ = −|φ⟩ with our sign
        // convention... verify it maps φ to ±φ, through the gate sweeps
        // and through the closed form.
        let l = GroverLayout { idx_width: 3 };
        let phi = l.phi();
        let mut swept = l.phi();
        l.apply_uk(&mut swept);
        l.apply_sk(&mut swept);
        l.apply_uk(&mut swept);
        let mut closed = l.phi();
        l.apply_diffusion(&mut closed);
        for s in [swept, closed] {
            assert!(
                s.approx_eq_up_to_phase(&phi, EPS),
                "diffusion should fix the uniform state up to phase"
            );
        }
    }

    #[test]
    fn rx_marks_l_register() {
        let l = GroverLayout { idx_width: 2 };
        let x = vec![false, true, false, true];
        // Prepare (|1,1,0⟩ + |2,1,0⟩)/√2: h = 1 everywhere.
        let mut amps = vec![crate::complex::ZERO; 1 << l.num_qubits()];
        amps[l.basis(1, 1, 0)] = Complex::real(1.0);
        amps[l.basis(2, 1, 0)] = Complex::real(1.0);
        let mut s = StateVector::from_amplitudes(amps);
        l.apply_rx(&mut s, &x);
        // x_1 = 1 so |1,1,0⟩ → |1,1,1⟩; x_2 = 0 so |2,1,0⟩ unchanged.
        assert!(s.amp(l.basis(1, 1, 1)).norm_sqr() > 0.4);
        assert!(s.amp(l.basis(1, 1, 0)).is_approx_zero(EPS));
        assert!(s.amp(l.basis(2, 1, 0)).norm_sqr() > 0.4);
    }

    #[test]
    fn bit_mode_matches_block_mode() {
        let mut rng = StdRng::seed_from_u64(21);
        let l = GroverLayout { idx_width: 3 };
        let x = rand_bits(8, &mut rng);

        // Random-ish starting state reached by a few gates.
        let mut start = l.phi();
        l.apply_vx(&mut start, &rand_bits(8, &mut rng));
        l.apply_uk(&mut start);

        for (name, block, bit) in [
            (
                "Vx",
                (|l: &GroverLayout, s: &mut StateVector, x: &[bool]| l.apply_vx(s, x))
                    as fn(&GroverLayout, &mut StateVector, &[bool]),
                (|l: &GroverLayout, s: &mut StateVector, i: usize, b: bool| l.apply_vx_bit(s, i, b))
                    as fn(&GroverLayout, &mut StateVector, usize, bool),
            ),
            (
                "Wx",
                |l, s, x| l.apply_wx(s, x),
                |l, s, i, b| l.apply_wx_bit(s, i, b),
            ),
            (
                "Rx",
                |l, s, x| l.apply_rx(s, x),
                |l, s, i, b| l.apply_rx_bit(s, i, b),
            ),
        ] {
            let mut a = start.clone();
            let mut b = start.clone();
            block(&l, &mut a, &x);
            for (i, &xi) in x.iter().enumerate() {
                bit(&l, &mut b, i, xi);
            }
            assert!(a.approx_eq(&b, EPS), "bit-mode mismatch for {name}");
        }
    }

    #[test]
    fn grover_iteration_amplifies_single_target() {
        // With x = z = e_t and y = e_t (single intersection), each iteration
        // rotates toward |t⟩; after ⌊π/4·√N⌋ iterations P(t) is near 1.
        let l = GroverLayout { idx_width: 4 }; // N = 16
        let n = l.domain();
        let t = 11usize;
        let mut x = vec![false; n];
        x[t] = true;
        let y = x.clone();
        let mut s = l.phi();
        let iters = (std::f64::consts::FRAC_PI_4 * (n as f64).sqrt()).floor() as usize;
        for _ in 0..iters {
            l.apply_grover_iteration(&mut s, &x, &y, &x);
        }
        let p_t: f64 = s.amp(l.basis(t, 0, 0)).norm_sqr();
        assert!(p_t > 0.9, "Grover should amplify target, got {p_t}");
    }

    #[test]
    fn unitarity_of_every_structured_op() {
        let mut rng = StdRng::seed_from_u64(8);
        let l = GroverLayout { idx_width: 3 };
        let x = rand_bits(8, &mut rng);
        let mut s = l.phi();
        for _ in 0..5 {
            l.apply_vx(&mut s, &x);
            l.apply_wx(&mut s, &x);
            l.apply_rx(&mut s, &x);
            l.apply_sk(&mut s);
            l.apply_uk(&mut s);
            assert!((s.norm() - 1.0).abs() < 1e-8);
        }
    }
}
