//! The combined recognizers: Theorem 3.4 and Corollary 3.5.
//!
//! [`ComplementRecognizer`] runs A1, A2 and A3 in parallel over the stream
//! and **accepts** (meaning `w ∈ L̄_DISJ`) iff any of them flags the
//! input: A1 = 0, A2 = 0 or A3 = 0. Guarantees (one-sided, Definition 2.3
//! / OQRSPACE):
//!
//! * `w ∈ L_DISJ` → reject with probability 1 (A1, A2, A3 all pass);
//! * `w ∈ L̄_DISJ` → accept with probability ≥ 1/4 (whichever condition
//!   fails is caught: shape deterministically, consistency with
//!   probability ≥ 1 − 3·2^{-k}, disjointness with probability ≥ 1/4).
//!
//! Note: the paper's prose at this point swaps "accept" and "reject"
//! relative to its own Definition 2.3; see DESIGN.md ("Paper erratum").
//!
//! [`LdisjRecognizer`] amplifies to the two-sided `OQBPL` guarantee of
//! Corollary 3.5: run `r` independent copies and declare `w ∈ L_DISJ` iff
//! *no* copy accepted — error 0 on members, `(3/4)^r` on non-members
//! (`r = 4` already beats 1/3).

use crate::a1::FormatChecker;
use crate::a2::ConsistencyChecker;
use crate::a3::GroverStreamer;
use oqsc_fingerprint::fingerprint_prime;
use oqsc_lang::Sym;
use oqsc_machine::session::put_usize;
use oqsc_machine::{ByteReader, CheckpointError, Checkpointable, StreamingDecider};
use oqsc_quantum::{QuantumBackend, StateVector};
use rand::Rng;

/// Joint classical/quantum space usage (Definition 2.3 allows `s(|w|)` of
/// each).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceReport {
    /// Peak classical work space, in bits.
    pub classical_bits: usize,
    /// Quantum register width, in qubits.
    pub qubits: usize,
}

impl SpaceReport {
    /// Total of both resources (for single-axis plots).
    pub fn total(&self) -> usize {
        self.classical_bits + self.qubits
    }
}

/// The one-sided-error online quantum recognizer of `L̄_DISJ`
/// (Theorem 3.4: `L̄_DISJ ∈ OQRL`), generic over the simulation backend.
#[derive(Clone, Debug)]
pub struct ComplementRecognizer<B: QuantumBackend = StateVector> {
    a1: FormatChecker,
    a2: ConsistencyChecker,
    a3: GroverStreamer<B>,
}

impl ComplementRecognizer<StateVector> {
    /// Creates the dense-backend recognizer, drawing A2's evaluation point
    /// and A3's iteration count / measurement randomness from `rng`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ComplementRecognizer::new_in(rng)
    }

    /// Derandomized dense-backend constructor for exact analysis.
    pub fn with_seeds(t_seed: u64, j_seed: u64, measure_seed: u64) -> Self {
        ComplementRecognizer::with_seeds_in(t_seed, j_seed, measure_seed)
    }

    /// Metering-only instance (no amplitude allocation; see
    /// [`GroverStreamer::metering_only`]). Space reports are exact;
    /// verdicts from A3 are vacuous. Used for large-`k` space tables.
    pub fn metering_only() -> Self {
        ComplementRecognizer::metering_only_in()
    }
}

impl<B: QuantumBackend> ComplementRecognizer<B> {
    /// [`ComplementRecognizer::new`] over any backend.
    pub fn new_in<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ComplementRecognizer {
            a1: FormatChecker::new(),
            a2: ConsistencyChecker::new(rng),
            a3: GroverStreamer::new_in(rng),
        }
    }

    /// [`ComplementRecognizer::with_seeds`] over any backend.
    pub fn with_seeds_in(t_seed: u64, j_seed: u64, measure_seed: u64) -> Self {
        ComplementRecognizer {
            a1: FormatChecker::new(),
            a2: ConsistencyChecker::with_seed(t_seed),
            a3: GroverStreamer::with_j_seed_in(j_seed, measure_seed),
        }
    }

    /// [`ComplementRecognizer::metering_only`] over any backend.
    pub fn metering_only_in() -> Self {
        ComplementRecognizer {
            a1: FormatChecker::new(),
            a2: ConsistencyChecker::with_seed(0),
            a3: GroverStreamer::metering_only_in(),
        }
    }

    /// The space used so far, split by resource.
    pub fn space(&self) -> SpaceReport {
        SpaceReport {
            classical_bits: self.a1.space_bits() + self.a2.space_bits() + self.a3.space_bits(),
            qubits: self.a3.qubits(),
        }
    }

    /// Access to A3's exact detection statistic (testing).
    pub fn a3_detection_probability(&self) -> f64 {
        self.a3.detection_probability()
    }
}

impl<B: QuantumBackend> StreamingDecider for ComplementRecognizer<B> {
    fn feed(&mut self, sym: Sym) {
        self.a1.feed(sym);
        self.a2.feed(sym);
        self.a3.feed(sym);
    }

    /// The three procedures share no state, so each takes the whole
    /// slice through its own run-batched `feed_all`.
    fn feed_all(&mut self, word: &[Sym]) {
        self.a1.feed_all(word);
        self.a2.feed_all(word);
        self.a3.feed_all(word);
    }

    /// Accept = "the word is in the complement".
    fn decide(&mut self) -> bool {
        let a1 = self.a1.decide();
        let a2 = self.a2.decide();
        let a3 = self.a3.decide();
        !(a1 && a2 && a3)
    }

    fn space_bits(&self) -> usize {
        self.space().classical_bits
    }

    fn peak_qubits(&self) -> usize {
        self.a3.qubits()
    }

    fn peak_amplitudes(&self) -> usize {
        self.a3.peak_amplitudes()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = self.a1.snapshot();
        out.extend(self.a2.snapshot());
        out.extend(self.a3.snapshot());
        out
    }
}

impl<B: QuantumBackend> Checkpointable for ComplementRecognizer<B> {
    const TYPE_TAG: &'static str = "ComplementRecognizer";

    fn write_state(&self, out: &mut Vec<u8>) {
        self.a1.write_state(out);
        self.a2.write_state(out);
        self.a3.write_state(out);
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        Ok(ComplementRecognizer {
            a1: Checkpointable::read_state(r)?,
            a2: Checkpointable::read_state(r)?,
            a3: Checkpointable::read_state(r)?,
        })
    }
}

/// Exact acceptance probability of [`ComplementRecognizer`] on a word, by
/// exhausting A2's evaluation points and A3's iteration counts (feasible
/// for `k ≤ 3`). Acceptance means "declared in the complement".
pub fn exact_complement_accept_probability(word: &[Sym]) -> f64 {
    // A1 is deterministic.
    let mut a1 = FormatChecker::new();
    a1.feed_all(word);
    if !a1.decide() {
        return 1.0;
    }
    let k = a1.k();
    assert!(k <= 3, "exact analysis exhausts p·2^k branches; need k ≤ 3");
    let p = fingerprint_prime(k);
    // P(A2 passes), averaged over the evaluation point.
    let mut a2_pass = 0.0;
    for t in 0..p {
        let mut a2 = ConsistencyChecker::with_seed(t);
        a2.feed_all(word);
        if a2.decide() {
            a2_pass += 1.0;
        }
    }
    a2_pass /= p as f64;
    // P(A3 passes) = average over j of (1 − detection probability).
    let rounds = 1usize << k;
    let mut a3_pass = 0.0;
    for j in 0..rounds {
        let mut a3 = GroverStreamer::with_j_seed(j as u64, 0);
        a3.feed_all(word);
        a3_pass += 1.0 - a3.detection_probability();
    }
    a3_pass /= rounds as f64;
    // The three procedures use independent randomness.
    1.0 - a2_pass * a3_pass
}

/// The bounded-error recognizer of `L_DISJ` itself (Corollary 3.5:
/// `L_DISJ ∈ OQBPL`): `reps` parallel copies of the complement
/// recognizer; the word is declared a member iff none of them accepts.
/// Generic over the simulation backend.
#[derive(Clone, Debug)]
pub struct LdisjRecognizer<B: QuantumBackend = StateVector> {
    copies: Vec<ComplementRecognizer<B>>,
}

impl LdisjRecognizer<StateVector> {
    /// Creates the dense-backend amplified recognizer with `reps`
    /// independent copies (`reps = 4` gives two-sided error ≤ (3/4)⁴
    /// < 1/3).
    pub fn new<R: Rng + ?Sized>(reps: usize, rng: &mut R) -> Self {
        LdisjRecognizer::new_in(reps, rng)
    }
}

impl<B: QuantumBackend> LdisjRecognizer<B> {
    /// [`LdisjRecognizer::new`] over any backend.
    pub fn new_in<R: Rng + ?Sized>(reps: usize, rng: &mut R) -> Self {
        assert!(reps >= 1);
        LdisjRecognizer {
            copies: (0..reps)
                .map(|_| ComplementRecognizer::new_in(rng))
                .collect(),
        }
    }

    /// Space across all copies (amplification multiplies space by the
    /// constant `reps`, preserving the `O(log n)` bound).
    pub fn space(&self) -> SpaceReport {
        let mut total = SpaceReport::default();
        for c in &self.copies {
            let s = c.space();
            total.classical_bits += s.classical_bits;
            total.qubits += s.qubits;
        }
        total
    }
}

impl<B: QuantumBackend> StreamingDecider for LdisjRecognizer<B> {
    fn feed(&mut self, sym: Sym) {
        for c in &mut self.copies {
            c.feed(sym);
        }
    }

    /// The copies are independent, so each takes the whole slice.
    fn feed_all(&mut self, word: &[Sym]) {
        for c in &mut self.copies {
            c.feed_all(word);
        }
    }

    /// Accept = "the word is in `L_DISJ`".
    fn decide(&mut self) -> bool {
        self.copies.iter_mut().all(|c| !c.decide())
    }

    fn space_bits(&self) -> usize {
        self.space().classical_bits
    }

    fn peak_qubits(&self) -> usize {
        self.copies.iter().map(StreamingDecider::peak_qubits).sum()
    }

    fn peak_amplitudes(&self) -> usize {
        self.copies
            .iter()
            .map(StreamingDecider::peak_amplitudes)
            .sum()
    }

    fn snapshot(&self) -> Vec<u8> {
        self.copies.iter().flat_map(|c| c.snapshot()).collect()
    }
}

impl<B: QuantumBackend> Checkpointable for LdisjRecognizer<B> {
    const TYPE_TAG: &'static str = "LdisjRecognizer";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_usize(out, self.copies.len());
        for c in &self.copies {
            c.write_state(out);
        }
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        let reps = r.read_usize()?;
        if reps == 0 {
            return Err(CheckpointError::Malformed(
                "amplified recognizer needs ≥ 1 copy".into(),
            ));
        }
        let copies = (0..reps)
            .map(|_| Checkpointable::read_state(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LdisjRecognizer { copies })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_lang::gen::{malform, random_member, random_nonmember, ALL_MALFORMATIONS};
    use oqsc_lang::{encoded_len, is_in_ldisj};
    use oqsc_machine::run_decider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn members_never_accepted_by_complement_recognizer() {
        // The one-sided guarantee, checked exactly: accept probability 0.
        let mut rng = StdRng::seed_from_u64(110);
        for k in 1..=2u32 {
            let inst = random_member(k, &mut rng);
            let p = exact_complement_accept_probability(&inst.encode());
            assert!(p < 1e-12, "k={k}: member accepted w.p. {p}");
        }
    }

    #[test]
    fn malformed_words_accepted_with_probability_one() {
        let mut rng = StdRng::seed_from_u64(111);
        let inst = random_member(1, &mut rng);
        for kind in [
            oqsc_lang::Malformation::MissingPrefix,
            oqsc_lang::Malformation::ShortBlock,
            oqsc_lang::Malformation::TrailingSymbol,
            oqsc_lang::Malformation::Truncated,
        ] {
            let bad = malform(&inst, kind, &mut rng);
            let p = exact_complement_accept_probability(&bad);
            assert!((p - 1.0).abs() < 1e-12, "{kind:?}: p={p}");
        }
    }

    #[test]
    fn every_nonmember_accepted_with_at_least_one_quarter() {
        // The Theorem 3.4 guarantee across all three failure families.
        let mut rng = StdRng::seed_from_u64(112);
        for k in 1..=2u32 {
            // Intersecting but consistent.
            let m = 1usize << (2 * k);
            for t in [1usize, m / 2, m] {
                let inst = random_nonmember(k, t, &mut rng);
                let p = exact_complement_accept_probability(&inst.encode());
                assert!(p >= 0.25 - 1e-9, "k={k} t={t}: p={p}");
            }
            // Structurally corrupted.
            let inst = random_member(k, &mut rng);
            for kind in ALL_MALFORMATIONS {
                let bad = malform(&inst, kind, &mut rng);
                let p = exact_complement_accept_probability(&bad);
                assert!(p >= 0.25 - 1e-9, "k={k} {kind:?}: p={p}");
            }
        }
    }

    #[test]
    fn sampled_recognizer_agrees_with_exact() {
        let mut rng = StdRng::seed_from_u64(113);
        let inst = random_nonmember(2, 2, &mut rng);
        let word = inst.encode();
        let exact = exact_complement_accept_probability(&word);
        let trials = 1200;
        let accepts = (0..trials)
            .filter(|_| run_decider(ComplementRecognizer::new(&mut rng), &word).accept)
            .count();
        let freq = accepts as f64 / trials as f64;
        assert!((freq - exact).abs() < 0.05, "freq {freq} vs exact {exact}");
    }

    #[test]
    fn amplified_recognizer_meets_corollary_3_5() {
        let mut rng = StdRng::seed_from_u64(114);
        // Members: always declared members.
        let member = random_member(2, &mut rng);
        for _ in 0..20 {
            let is_member = run_decider(LdisjRecognizer::new(4, &mut rng), &member.encode()).accept;
            assert!(is_member);
        }
        // Non-members: error rate ≤ (3/4)^4 ≈ 0.316 < 1/3.
        let non = random_nonmember(2, 1, &mut rng);
        let trials = 800;
        let wrong = (0..trials)
            .filter(|_| run_decider(LdisjRecognizer::new(4, &mut rng), &non.encode()).accept)
            .count();
        let err = wrong as f64 / trials as f64;
        assert!(err < 0.38, "amplified error {err}");
        // And amplification helps: r = 12 should be far below r = 1's 3/4.
        let wrong12 = (0..trials)
            .filter(|_| run_decider(LdisjRecognizer::new(12, &mut rng), &non.encode()).accept)
            .count();
        assert!(wrong12 as f64 / trials as f64 <= 0.08);
    }

    #[test]
    fn recognizer_verdicts_match_reference_in_the_limit() {
        // Majority-of-many-runs converges to the reference decider.
        let mut rng = StdRng::seed_from_u64(115);
        for _ in 0..4 {
            let inst = if rng.gen() {
                random_member(1, &mut rng)
            } else {
                random_nonmember(1, 1 + rng.gen_range(0..4usize), &mut rng)
            };
            let word = inst.encode();
            let member_votes = (0..60)
                .filter(|_| run_decider(LdisjRecognizer::new(6, &mut rng), &word).accept)
                .count();
            assert_eq!(member_votes > 30, is_in_ldisj(&word));
        }
    }

    #[test]
    fn space_is_logarithmic_in_input_length() {
        let mut rng = StdRng::seed_from_u64(116);
        for k in 1..=5u32 {
            let inst = random_member(k, &mut rng);
            let mut rec = ComplementRecognizer::new(&mut rng);
            rec.feed_all(&inst.encode());
            let space = rec.space();
            let n = encoded_len(k);
            let log_n = (n as f64).log2().ceil() as usize;
            assert!(
                space.classical_bits <= 30 * log_n,
                "k={k}: classical {} bits vs log n = {log_n}",
                space.classical_bits
            );
            assert_eq!(space.qubits, 2 * k as usize + 2);
            assert!(space.qubits <= 2 * log_n);
        }
    }
}
