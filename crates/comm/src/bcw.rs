//! The Buhrman–Cleve–Wigderson quantum protocol for `DISJ_n`
//! (Theorem 3.1: `O(√n log n)` qubits, bounded error).
//!
//! Alice holds `x`, Bob holds `y`. The parties pass a
//! `(log₂ n + 2)`-qubit register back and forth, together implementing
//! Grover search for an intersecting coordinate: Alice applies her phase
//! data (`V_x`, and the diffusion `U S U`), Bob applies his (`W_y`, and
//! the final `R_y` marking). Because the number of intersections is
//! unknown, the iteration count `j` is drawn uniformly from
//! `{0, …, ⌈√n⌉−1}` (the BBHT analysis; detection probability ≥ 1/4 for
//! every non-disjoint pair, certainty for disjoint pairs).
//!
//! The crucial structural property the paper leans on (Section 3.2): each
//! party only ever needs **the last message received** to compute the next
//! one — no history. That is what lets an online machine replay the
//! protocol against a stream.

use crate::protocol::{Party, ProtocolRun, Transcript};
use oqsc_lang::disj;
use oqsc_quantum::GroverLayout;
use rand::Rng;

/// One execution of the single-shot protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct BcwRun {
    /// The drawn Grover iteration count.
    pub j: usize,
    /// Whether the final measurement of `l` returned 1 (intersection
    /// witnessed).
    pub detected: bool,
    /// Claimed value of `DISJ(x, y)` (= `!detected`).
    pub output: bool,
    /// Message log.
    pub transcript: Transcript,
}

/// Geometry of the protocol for input length `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BcwParams {
    /// Input length `n` (power of two).
    pub n: usize,
    /// Register width `log₂ n + 2` qubits per message.
    pub qubits_per_message: usize,
    /// Iteration-count range `M = ⌈√n⌉`.
    pub m_rounds: usize,
}

impl BcwParams {
    /// Parameters for length-`n` inputs.
    ///
    /// # Panics
    /// If `n` is not a power of two ≥ 2.
    pub fn for_n(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two ≥ 2"
        );
        let width = n.trailing_zeros() as usize;
        BcwParams {
            n,
            qubits_per_message: width + 2,
            m_rounds: (n as f64).sqrt().ceil() as usize,
        }
    }

    /// Worst-case qubits of one single-shot run (the draw `j = M−1`):
    /// `(2(M−1) + 1) · (log n + 2)` qubits plus 1 classical output bit.
    pub fn worst_case_single_run_qubits(&self) -> usize {
        (2 * (self.m_rounds - 1) + 1) * self.qubits_per_message
    }

    /// The paper's asymptotic budget `√n · log n` (for shape comparison).
    pub fn sqrt_n_log_n(&self) -> f64 {
        (self.n as f64).sqrt() * (self.n as f64).log2()
    }
}

/// Runs the single-shot (one-sided-error) protocol on `(x, y)`.
pub fn bcw_single_run<R: Rng + ?Sized>(x: &[bool], y: &[bool], rng: &mut R) -> BcwRun {
    assert_eq!(x.len(), y.len());
    let params = BcwParams::for_n(x.len());
    let layout = GroverLayout {
        idx_width: x.len().trailing_zeros() as usize,
    };
    let mut transcript = Transcript::new();
    let mut state = layout.phi();
    let j = rng.gen_range(0..params.m_rounds);

    for _ in 0..j {
        // Alice: V_x, then ship the register to Bob.
        layout.apply_vx(&mut state, x);
        transcript.send_quantum(Party::Alice, params.qubits_per_message);
        // Bob: W_y, ship back.
        layout.apply_wx(&mut state, y);
        transcript.send_quantum(Party::Bob, params.qubits_per_message);
        // Alice: V_x and the diffusion U_k S_k U_k.
        layout.apply_vx(&mut state, x);
        layout.apply_diffusion(&mut state);
    }
    // Final marking round: Alice V_x, send; Bob R_y and measure `l`.
    layout.apply_vx(&mut state, x);
    transcript.send_quantum(Party::Alice, params.qubits_per_message);
    layout.apply_rx(&mut state, y);
    let outcome = state.measure_qubit(layout.l_qubit(), rng);
    // Bob announces the verdict.
    transcript.send_classical(Party::Bob, 1);

    let detected = outcome == 1;
    BcwRun {
        j,
        detected,
        output: !detected,
        transcript,
    }
}

/// Exact detection probability of the single-shot protocol on `(x, y)`
/// (averaging the exact simulation over all `j`): 0 for disjoint pairs,
/// ≥ 1/4 otherwise.
pub fn bcw_detection_probability(x: &[bool], y: &[bool]) -> f64 {
    let params = BcwParams::for_n(x.len());
    let layout = GroverLayout {
        idx_width: x.len().trailing_zeros() as usize,
    };
    let mut total = 0.0;
    for j in 0..params.m_rounds {
        let mut state = layout.phi();
        for _ in 0..j {
            layout.apply_grover_iteration(&mut state, x, y, x);
        }
        layout.apply_vx(&mut state, x);
        layout.apply_rx(&mut state, y);
        total += state.prob_one(layout.l_qubit());
    }
    total / params.m_rounds as f64
}

/// The bounded-error protocol of Theorem 3.1: `reps` independent
/// single-shot runs, outputting `DISJ = 0` iff any run detects. With
/// `reps = 4` the error is at most `(3/4)⁴ < 1/3` on intersecting inputs
/// and 0 on disjoint inputs.
pub fn bcw_bounded_error<R: Rng + ?Sized>(
    x: &[bool],
    y: &[bool],
    reps: usize,
    rng: &mut R,
) -> ProtocolRun<bool> {
    assert!(reps >= 1);
    let mut transcript = Transcript::new();
    let mut any_detected = false;
    for _ in 0..reps {
        let run = bcw_single_run(x, y, rng);
        for m in run.transcript.messages() {
            transcript.push_record(*m);
        }
        any_detected |= run.detected;
    }
    ProtocolRun {
        output: !any_detected,
        transcript,
    }
}

/// Reference: `DISJ(x, y)` computed directly.
pub fn disj_reference(x: &[bool], y: &[bool]) -> bool {
    disj(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_grover::averaged_success;
    use oqsc_lang::{random_member, random_nonmember, string_len};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_shapes() {
        let p = BcwParams::for_n(64);
        assert_eq!(p.qubits_per_message, 8);
        assert_eq!(p.m_rounds, 8);
        assert_eq!(p.worst_case_single_run_qubits(), 15 * 8);
        assert!(p.worst_case_single_run_qubits() as f64 <= 3.0 * p.sqrt_n_log_n());
    }

    #[test]
    fn disjoint_pairs_never_detected() {
        let mut rng = StdRng::seed_from_u64(50);
        for k in 1..=2u32 {
            let inst = random_member(k, &mut rng);
            assert_eq!(bcw_detection_probability(inst.x(), inst.y()), 0.0);
            for _ in 0..10 {
                let run = bcw_single_run(inst.x(), inst.y(), &mut rng);
                assert!(!run.detected, "one-sided error violated");
                assert!(run.output);
            }
        }
    }

    #[test]
    fn intersecting_pairs_detected_at_least_quarter() {
        let mut rng = StdRng::seed_from_u64(51);
        for k in 1..=2u32 {
            let m = string_len(k);
            for t in [1usize, 2, m / 2, m] {
                let inst = random_nonmember(k, t, &mut rng);
                let p = bcw_detection_probability(inst.x(), inst.y());
                assert!(p >= 0.25 - 1e-9, "k={k} t={t}: detection prob {p}");
            }
        }
    }

    #[test]
    fn detection_probability_matches_bbht_formula() {
        // For x = z the protocol is exactly the averaged Grover analysis.
        let mut rng = StdRng::seed_from_u64(52);
        let k = 2u32;
        let m = string_len(k);
        for t in [1usize, 3, 7] {
            let inst = random_nonmember(k, t, &mut rng);
            let p = bcw_detection_probability(inst.x(), inst.y());
            let formula = averaged_success((m as f64).sqrt().ceil() as usize, t, m);
            assert!((p - formula).abs() < 1e-9, "t={t}: {p} vs {formula}");
        }
    }

    #[test]
    fn empirical_detection_tracks_exact() {
        let mut rng = StdRng::seed_from_u64(53);
        let inst = random_nonmember(2, 2, &mut rng);
        let p = bcw_detection_probability(inst.x(), inst.y());
        let trials = 2000;
        let hits = (0..trials)
            .filter(|_| bcw_single_run(inst.x(), inst.y(), &mut rng).detected)
            .count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - p).abs() < 0.04, "freq {freq} vs exact {p}");
    }

    #[test]
    fn bounded_error_protocol_meets_two_thirds() {
        let mut rng = StdRng::seed_from_u64(54);
        // Disjoint: always correct.
        let member = random_member(2, &mut rng);
        for _ in 0..10 {
            assert!(bcw_bounded_error(member.x(), member.y(), 4, &mut rng).output);
        }
        // Intersecting: error (3/4)^4 ≈ 0.316 < 1/3; empirically ≲ 0.36.
        let non = random_nonmember(2, 1, &mut rng);
        let trials = 600;
        let wrong = (0..trials)
            .filter(|_| bcw_bounded_error(non.x(), non.y(), 4, &mut rng).output)
            .count();
        let err = wrong as f64 / trials as f64;
        assert!(err < 0.40, "bounded error too high: {err}");
    }

    #[test]
    fn communication_is_sqrt_n_log_n_shaped() {
        // Simulated runs respect the analytic worst case.
        let mut rng = StdRng::seed_from_u64(55);
        for k in 1..=3u32 {
            let n = string_len(k);
            let inst = random_nonmember(k, 1, &mut rng);
            let run = bcw_single_run(inst.x(), inst.y(), &mut rng);
            let params = BcwParams::for_n(n);
            assert!(run.transcript.total_qubits() <= params.worst_case_single_run_qubits());
        }
        // The worst case tracks √n·log n (bounded multiple) and therefore
        // drops below the trivial n-bit protocol once n ≥ 1024, widening
        // forever after — the Theorem 3.1 separation shape.
        let mut prev_ratio = f64::INFINITY;
        for log_n in [6u32, 8, 10, 12, 14, 16, 18, 20] {
            let params = BcwParams::for_n(1usize << log_n);
            let worst = params.worst_case_single_run_qubits() as f64;
            assert!(worst <= 3.0 * params.sqrt_n_log_n());
            let ratio = worst / params.n as f64;
            assert!(ratio < prev_ratio, "ratio must shrink with n");
            prev_ratio = ratio;
            if log_n >= 10 {
                assert!(
                    (params.worst_case_single_run_qubits()) < params.n,
                    "n=2^{log_n}: quantum must beat trivial"
                );
            }
        }
    }

    #[test]
    fn transcript_message_pattern() {
        let mut rng = StdRng::seed_from_u64(56);
        let inst = random_member(1, &mut rng);
        let run = bcw_single_run(inst.x(), inst.y(), &mut rng);
        // 2j+1 quantum messages + 1 classical verdict bit.
        assert_eq!(run.transcript.num_messages(), 2 * run.j + 2);
        assert_eq!(run.transcript.total_bits(), 1);
        assert_eq!(
            run.transcript.total_qubits(),
            (2 * run.j + 1) * BcwParams::for_n(4).qubits_per_message
        );
    }
}
