//! Procedure A3: the online quantum Grover procedure.
//!
//! Assuming conditions (i)–(iii) hold, the input carries `2^k` identical
//! rounds `x#y#x#`, and A3 decides `DISJ_{2^{2k}}(x, y)` by running
//! Grover's algorithm *against the stream*: each round supplies exactly
//! the data needed for one Grover iteration
//! (`V_x`, `W_y`, `V_z`, then the diffusion `U_k S_k U_k`), and the
//! randomly chosen round `j+1` is used for the final marking
//! (`R_y V_x`) after which the `l` qubit is measured. The diffusion runs
//! in closed form, as one inversion about the mean over each `(h, l)`
//! quarter ([`GroverLayout::apply_diffusion`]); the explicit-gate circuit
//! ([`crate::emit`]) keeps the `U_k S_k U_k` gates.
//!
//! The register is `|i⟩|h⟩|l⟩`: `2k + 2` qubits, plus `O(k)` classical
//! bits of counters — the paper's logarithmic space bound. Each streamed
//! bit triggers a structured update of at most four amplitudes, so the
//! whole simulation is linear in the input length. A run of bits is
//! packed into 64-bit masks and applied one window of 64 bits per
//! backend call ([`oqsc_quantum::structured`]'s window operators: an
//! index per amplitude on the dense backends, one block lookup per
//! touched block on the sparse ones; DESIGN.md §2 has a round's cost on
//! each backend). The masks are the simulator's, not the machine's: the
//! metered space is the counters above.
//!
//! Output convention (paper): measure `b` from the last qubit and output
//! `1 − b`; so `true` (= 1) means "no intersection witnessed".

use oqsc_lang::Sym;
use oqsc_machine::session::{put_bool, put_u32, put_u64, put_u8, put_usize};
use oqsc_machine::{
    bits_for_counter, ByteReader, CheckpointError, Checkpointable, MeteredRegister, SpaceMeter,
    StreamingDecider,
};
use oqsc_quantum::{GroverLayout, QuantumBackend, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest `k` for which the streamer allocates a dense register
/// (`2k + 2 ≤ 16` qubits, ≤ 1 MiB of amplitudes). For larger `k` —
/// including adversarial words whose `1^k` prefix merely *claims* a huge
/// `k` — the streamer degrades to metering-only: space accounting stays
/// exact, the A3 verdict becomes a vacuous pass (the exact-probability
/// experiments all run at `k ≤ 5`).
pub const MAX_SIMULABLE_K: u32 = 7;

/// The streamed bit-mode operator of [`GroverLayout`] a block applies.
#[derive(Clone, Copy, Debug)]
enum BitOp {
    Vx,
    Wx,
    Rx,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    X,
    Y,
    Z,
}

/// Streaming implementation of procedure A3, generic over the simulation
/// backend (dense [`StateVector`] by default; `SparseState` runs the same
/// procedure in support-proportional memory).
#[derive(Clone, Debug)]
pub struct GroverStreamer<B: QuantumBackend = StateVector> {
    /// Seed for the final measurement (an OPTM flips coins online; we
    /// pre-commit the entropy for reproducibility — and, since the coin
    /// is only consumed at [`StreamingDecider::decide`], storing the seed
    /// rather than a live generator makes the whole mid-stream
    /// configuration serializable for session checkpoints).
    measure_seed: u64,
    j_seed: u64,
    in_prefix: bool,
    k: u32,
    layout: Option<GroverLayout>,
    reg: MeteredRegister<B>,
    /// Round counter, 1-based once blocks start.
    round: usize,
    /// The drawn iteration count `j ∈ {0, …, 2^k − 1}`.
    j: usize,
    slot: Slot,
    bit_idx: usize,
    /// Set once the marking round finished; later input is skimmed.
    marking_done: bool,
    /// When false, the state vector is never allocated: the procedure only
    /// meters its space (used for large-`k` space tables where a dense
    /// simulation would not fit; the space accounting is identical).
    simulate: bool,
    meter: SpaceMeter,
}

impl GroverStreamer<StateVector> {
    /// Creates the procedure on the dense default backend, drawing its
    /// coins from `rng`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        GroverStreamer::new_in(rng)
    }

    /// Derandomized dense-backend constructor: forces the iteration count
    /// to `j_seed mod 2^k` and seeds the measurement RNG (for exact
    /// analysis and exhaustive tests).
    pub fn with_j_seed(j_seed: u64, measure_seed: u64) -> Self {
        GroverStreamer::with_j_seed_in(j_seed, measure_seed)
    }

    /// A metering-only instance: counters and the register-width report
    /// behave exactly as in a real run, but no amplitudes are allocated.
    /// Use for space tables at `k` beyond the dense-simulation range; its
    /// [`StreamingDecider::decide`] vacuously passes.
    pub fn metering_only() -> Self {
        GroverStreamer::metering_only_in()
    }
}

impl<B: QuantumBackend> GroverStreamer<B> {
    /// [`GroverStreamer::new`] over any backend.
    pub fn new_in<R: Rng + ?Sized>(rng: &mut R) -> Self {
        GroverStreamer {
            measure_seed: rng.gen(),
            j_seed: rng.gen(),
            in_prefix: true,
            k: 0,
            layout: None,
            reg: MeteredRegister::unallocated(),
            round: 1,
            j: 0,
            slot: Slot::X,
            bit_idx: 0,
            marking_done: false,
            simulate: true,
            meter: SpaceMeter::new(),
        }
    }

    /// [`GroverStreamer::with_j_seed`] over any backend.
    pub fn with_j_seed_in(j_seed: u64, measure_seed: u64) -> Self {
        GroverStreamer {
            measure_seed,
            j_seed,
            in_prefix: true,
            k: 0,
            layout: None,
            reg: MeteredRegister::unallocated(),
            round: 1,
            j: 0,
            slot: Slot::X,
            bit_idx: 0,
            marking_done: false,
            simulate: true,
            meter: SpaceMeter::new(),
        }
    }

    /// [`GroverStreamer::metering_only`] over any backend.
    pub fn metering_only_in() -> Self {
        let mut s = GroverStreamer::with_j_seed_in(0, 0);
        s.simulate = false;
        s
    }

    /// The drawn `j` (meaningful once the prefix has been read).
    pub fn j(&self) -> usize {
        self.j
    }

    /// Quantum register width `2k + 2` (0 before the prefix is read).
    pub fn qubits(&self) -> usize {
        if self.in_prefix || self.k == 0 {
            0
        } else {
            2 * self.k as usize + 2
        }
    }

    /// Exact probability that the final measurement returns `b = 1`
    /// (intersection witnessed), conditioned on the drawn `j` — available
    /// without consuming the measurement.
    pub fn detection_probability(&self) -> f64 {
        match (self.reg.state(), &self.layout) {
            (Some(s), Some(l)) => s.prob_one(l.l_qubit()),
            _ => 0.0,
        }
    }

    /// Peak number of stored amplitudes over the run (`2^{2k+2}` dense,
    /// support high-water sparse).
    pub fn peak_amplitudes(&self) -> usize {
        self.reg.peak_support()
    }

    fn remeter(&mut self) {
        let bits = bits_for_counter(self.k as usize)
            + bits_for_counter(1usize << self.k) // round counter and j
            + bits_for_counter(1usize << self.k)
            + bits_for_counter(self.bit_idx.max(1))
            + 3;
        self.meter.record(bits);
    }

    /// The bit-mode operator the current block applies to each set bit,
    /// or `None` once the block is skimmed (no register, a round after
    /// the marking round, or the marking round's `z` block).
    fn block_op(&self) -> Option<BitOp> {
        if !self.reg.is_allocated() {
            None
        } else if self.round <= self.j {
            // A full Grover iteration round.
            Some(match self.slot {
                Slot::X | Slot::Z => BitOp::Vx,
                Slot::Y => BitOp::Wx,
            })
        } else if self.round == self.j + 1 && !self.marking_done {
            // The marking round: R_{y^{(j+1)}} V_{x^{(j+1)}}.
            match self.slot {
                Slot::X => Some(BitOp::Vx),
                Slot::Y => Some(BitOp::Rx),
                Slot::Z => None,
            }
        } else {
            None
        }
    }

    /// Consumes a run of block bits: advances `bit_idx` by the run length
    /// and applies the block's operator to the set bits only (on a clear
    /// bit every operator is the identity), one backend window op per 64
    /// bits with a set bit. Swaps and negations never change the support,
    /// so recording it once per window gives the per-bit peak; a skimmed
    /// block costs O(1).
    fn feed_bits(&mut self, bits: &[Sym]) {
        if self.k == 0 {
            return;
        }
        let first = self.bit_idx;
        self.bit_idx += bits.len();
        let (Some(layout), Some(op)) = (self.layout, self.block_op()) else {
            return;
        };
        // Bits past the domain belong to a malformed over-long block:
        // A1 rejects the word; stay safe.
        let live = bits.len().min(layout.domain().saturating_sub(first));
        for (w, window) in bits[..live].chunks(64).enumerate() {
            let mask = crate::pack_ones(window);
            if mask == 0 {
                continue;
            }
            if let Some(state) = self.reg.state_mut() {
                let base = first + 64 * w;
                match op {
                    BitOp::Vx => layout.apply_vx_window(state, base, mask),
                    BitOp::Wx => layout.apply_wx_window(state, base, mask),
                    BitOp::Rx => layout.apply_rx_window(state, base, mask),
                }
            }
            self.reg.record();
        }
    }

    /// Consumes one step of `feed_all`: a run of block bits, or one
    /// symbol.
    fn consume(&mut self, step: &[Sym]) {
        if self.in_prefix {
            match step[0] {
                Sym::One => {
                    // Count k up to the largest value any genuine input
                    // could have (beyond 24 the word length 2^{3k} is
                    // unphysical and A1 rejects); never allocate for a
                    // merely *claimed* huge k.
                    if self.k < 24 {
                        self.k += 1;
                    }
                }
                sym @ (Sym::Hash | Sym::Zero) => {
                    self.in_prefix = false;
                    if sym == Sym::Hash && self.k >= 1 {
                        if self.simulate && self.k <= MAX_SIMULABLE_K {
                            let layout = GroverLayout::for_k(self.k);
                            self.reg.allocate_with(|| layout.phi_in());
                            self.layout = Some(layout);
                        }
                        self.j = (self.j_seed % (1u64 << self.k)) as usize;
                    }
                }
            }
        } else if step[0] == Sym::Hash {
            self.close_block();
        } else {
            self.feed_bits(step);
        }
    }

    fn close_block(&mut self) {
        if self.k == 0 {
            return;
        }
        match self.slot {
            Slot::X => self.slot = Slot::Y,
            Slot::Y => {
                if self.round == self.j + 1 {
                    // Marking complete; the rest of the input is skimmed.
                    self.marking_done = true;
                }
                self.slot = Slot::Z;
            }
            Slot::Z => {
                if self.round <= self.j {
                    // End of a full iteration round: the diffusion
                    // U_k S_k U_k, as one inversion about the mean.
                    if let (Some(layout), Some(state)) = (self.layout, self.reg.state_mut()) {
                        layout.apply_diffusion(state);
                    }
                    self.reg.record();
                }
                self.slot = Slot::X;
                self.round += 1;
            }
        }
        self.bit_idx = 0;
    }
}

impl<B: QuantumBackend> StreamingDecider for GroverStreamer<B> {
    fn feed(&mut self, sym: Sym) {
        self.consume(std::slice::from_ref(&sym));
        self.remeter();
    }

    /// Consumes each bit run of a block in one step, re-metering once per
    /// step: only `bit_idx` moves inside a run, so the metered bits never
    /// decrease there and one reading equals the per-symbol peak.
    fn feed_all(&mut self, word: &[Sym]) {
        let mut rest = word;
        while !rest.is_empty() {
            let step;
            (step, rest) = crate::split_step(rest, !self.in_prefix);
            self.consume(step);
            self.remeter();
        }
    }

    fn decide(&mut self) -> bool {
        // Measure the last qubit; output 1 − b. The measurement generator
        // is built from the pre-committed seed here, at the single point
        // it is consumed — identical draw to keeping it live, and the
        // reason a suspended streamer needs only the seed in its
        // checkpoint.
        match (self.layout, self.reg.state_mut()) {
            (Some(layout), Some(state)) => {
                let mut rng = StdRng::seed_from_u64(self.measure_seed);
                let b = state.measure_qubit(layout.l_qubit(), &mut rng);
                b == 0
            }
            // No quantum register was ever allocated (garbage prefix):
            // pass; A1 rejects the word.
            _ => true,
        }
    }

    fn space_bits(&self) -> usize {
        self.meter.peak_bits()
    }

    fn peak_qubits(&self) -> usize {
        // The analytic register width (2k + 2): identical in simulated and
        // metering-only runs, which is what keeps the large-k space tables
        // comparable to the simulated ones.
        self.qubits()
    }

    fn peak_amplitudes(&self) -> usize {
        self.reg.peak_support()
    }

    fn snapshot(&self) -> Vec<u8> {
        // A3's configuration is *quantum*: it cannot be serialized into a
        // classical message. This is precisely why Theorem 3.6's reduction
        // does not apply to the quantum machine (the separation's
        // mechanism). We return the classical counters only; the
        // communication reduction must not be used on quantum deciders.
        let mut out = Vec::with_capacity(16);
        out.push(u8::from(self.in_prefix) | (u8::from(self.marking_done) << 1));
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.round as u32).to_le_bytes());
        out.extend_from_slice(&(self.j as u32).to_le_bytes());
        out.extend_from_slice(&(self.bit_idx as u32).to_le_bytes());
        out
    }
}

impl<B: QuantumBackend> Checkpointable for GroverStreamer<B> {
    const TYPE_TAG: &'static str = "GroverStreamer";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.measure_seed);
        put_u64(out, self.j_seed);
        put_bool(out, self.in_prefix);
        put_u32(out, self.k);
        match &self.layout {
            Some(l) => {
                put_bool(out, true);
                put_usize(out, l.idx_width);
            }
            None => put_bool(out, false),
        }
        self.reg.write_checkpoint(out);
        put_usize(out, self.round);
        put_usize(out, self.j);
        put_u8(
            out,
            match self.slot {
                Slot::X => 0,
                Slot::Y => 1,
                Slot::Z => 2,
            },
        );
        put_usize(out, self.bit_idx);
        put_bool(out, self.marking_done);
        put_bool(out, self.simulate);
        self.meter.write_checkpoint(out);
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        let measure_seed = r.read_u64()?;
        let j_seed = r.read_u64()?;
        let in_prefix = r.read_bool()?;
        let k = r.read_u32()?;
        let layout = if r.read_bool()? {
            Some(GroverLayout {
                idx_width: r.read_usize()?,
            })
        } else {
            None
        };
        let reg = MeteredRegister::read_checkpoint(r)?;
        // A layout is only ever recorded alongside the register it was
        // allocated for; a width mismatch (or a layout without a
        // register) is a corrupted checkpoint, and must fail resume here
        // rather than panic on the first out-of-range gate later.
        if let Some(l) = &layout {
            let width_matches = reg
                .state()
                .is_some_and(|s| QuantumBackend::num_qubits(s) == l.num_qubits());
            if !width_matches {
                return Err(CheckpointError::Malformed(format!(
                    "A3 layout ({} qubits) does not match the restored register",
                    l.num_qubits()
                )));
            }
        }
        let round = r.read_usize()?;
        let j = r.read_usize()?;
        let slot = match r.read_u8()? {
            0 => Slot::X,
            1 => Slot::Y,
            2 => Slot::Z,
            v => return Err(CheckpointError::Malformed(format!("bad A3 slot tag {v}"))),
        };
        let bit_idx = r.read_usize()?;
        let marking_done = r.read_bool()?;
        let simulate = r.read_bool()?;
        Ok(GroverStreamer {
            measure_seed,
            j_seed,
            in_prefix,
            k,
            layout,
            reg,
            round,
            j,
            slot,
            bit_idx,
            marking_done,
            simulate,
            meter: SpaceMeter::read_checkpoint(r)?,
        })
    }
}

/// Exact probability that A3 outputs `0` (detects an intersection) on a
/// well-formed instance: the average over `j ∈ {0,…,2^k−1}` of the exact
/// measurement statistics. Equals `averaged_success(2^k, t, 2^{2k})`.
pub fn a3_exact_detection_probability(inst: &oqsc_lang::LdisjInstance) -> f64 {
    a3_exact_detection_probability_in::<StateVector>(inst)
}

/// [`a3_exact_detection_probability`] over any backend (the cross-backend
/// equivalence suite runs it sparse and dense and compares digits).
pub fn a3_exact_detection_probability_in<B: QuantumBackend>(
    inst: &oqsc_lang::LdisjInstance,
) -> f64 {
    let word = inst.encode();
    let rounds = inst.rounds();
    let mut total = 0.0;
    for j in 0..rounds {
        let mut a3 = GroverStreamer::<B>::with_j_seed_in(j as u64, 0);
        a3.feed_all(&word);
        total += a3.detection_probability();
    }
    total / rounds as f64
}

/// Ablation: detection probability when the number of intersections `t`
/// is *known in advance*, so A3 can pin `j` to the optimal iteration
/// count instead of drawing it uniformly. The paper randomizes `j`
/// precisely because `t` is unknown; this quantifies what that costs
/// (near-certain detection vs the ≥ 1/4 average). If the optimal `j`
/// exceeds the available `2^k − 1` rounds (impossible here since
/// `j_opt ≤ π/4·√m < 2^k`), the last round is used.
pub fn a3_known_t_detection_probability(inst: &oqsc_lang::LdisjInstance) -> f64 {
    let t = inst.intersections();
    if t == 0 {
        return 0.0;
    }
    let j = oqsc_grover::optimal_iterations(t, inst.m()).min(inst.rounds() - 1);
    let mut a3 = GroverStreamer::with_j_seed(j as u64, 0);
    a3.feed_all(&inst.encode());
    a3.detection_probability()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_grover::averaged_success;
    use oqsc_lang::{encoded_len, random_member, random_nonmember, string_len};
    use oqsc_machine::run_decider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn members_always_pass() {
        // One-sided: on a disjoint instance, EVERY j and every measurement
        // outcome yields output 1.
        let mut rng = StdRng::seed_from_u64(90);
        for k in 1..=2u32 {
            let inst = random_member(k, &mut rng);
            let word = inst.encode();
            for j in 0..inst.rounds() as u64 {
                let mut a3 = GroverStreamer::with_j_seed(j, 12345);
                a3.feed_all(&word);
                assert!(
                    a3.detection_probability() < 1e-12,
                    "k={k} j={j}: member must never be detected"
                );
                assert!(a3.decide());
            }
        }
    }

    #[test]
    fn detection_matches_bbht_closed_form() {
        let mut rng = StdRng::seed_from_u64(91);
        for k in 1..=2u32 {
            let m = string_len(k);
            for t in [1usize, 2, m / 2, m] {
                let inst = random_nonmember(k, t, &mut rng);
                let exact = a3_exact_detection_probability(&inst);
                let formula = averaged_success(inst.rounds(), t, m);
                assert!(
                    (exact - formula).abs() < 1e-9,
                    "k={k} t={t}: {exact} vs {formula}"
                );
                assert!(exact >= 0.25 - 1e-9, "paper bound at k={k} t={t}");
            }
        }
    }

    #[test]
    fn sampled_runs_track_exact_probability() {
        let mut rng = StdRng::seed_from_u64(92);
        let inst = random_nonmember(2, 3, &mut rng);
        let p_detect = a3_exact_detection_probability(&inst);
        let trials = 1500;
        let detections = (0..trials)
            .filter(|_| {
                let passed = run_decider(GroverStreamer::new(&mut rng), &inst.encode()).accept;
                !passed
            })
            .count();
        let freq = detections as f64 / trials as f64;
        assert!((freq - p_detect).abs() < 0.04, "freq {freq} vs {p_detect}");
    }

    #[test]
    fn quantum_register_is_2k_plus_2() {
        let mut rng = StdRng::seed_from_u64(93);
        for k in 1..=4u32 {
            let inst = random_member(k, &mut rng);
            let mut a3 = GroverStreamer::new(&mut rng);
            a3.feed_all(&inst.encode());
            assert_eq!(a3.qubits(), 2 * k as usize + 2);
        }
    }

    #[test]
    fn classical_space_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(94);
        for k in 1..=4u32 {
            let inst = random_member(k, &mut rng);
            let out = run_decider(GroverStreamer::new(&mut rng), &inst.encode());
            let (passed, space) = (out.accept, out.classical_bits);
            assert!(passed);
            let n = encoded_len(k);
            assert!(
                space <= 8 * ((n as f64).log2().ceil() as usize),
                "k={k}: {space} bits"
            );
        }
    }

    #[test]
    fn j_draw_is_uniform_over_rounds() {
        let mut rng = StdRng::seed_from_u64(95);
        let inst = random_member(2, &mut rng); // 4 rounds
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            let mut a3 = GroverStreamer::new(&mut rng);
            a3.feed_all(&inst.encode());
            counts[a3.j()] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 2000.0;
            assert!((f - 0.25).abs() < 0.05, "j distribution skewed: {counts:?}");
        }
    }

    #[test]
    fn garbage_prefix_is_inert() {
        let word = oqsc_lang::token::from_str("0#101#").expect("syms");
        let out = run_decider(GroverStreamer::with_j_seed(0, 0), &word);
        let (passed, space) = (out.accept, out.classical_bits);
        assert!(passed, "no register allocated → vacuous pass");
        assert!(space < 64);
    }

    #[test]
    fn overlong_block_does_not_panic() {
        // m = 4 for k=1 but we send 10 bits in a block.
        let word = oqsc_lang::token::from_str("1#1111111111#0000#1111#").expect("syms");
        let mut a3 = GroverStreamer::with_j_seed(0, 0);
        a3.feed_all(&word);
        let _ = a3.decide();
    }

    #[test]
    fn known_t_detection_dominates_random_j() {
        // Knowing t turns the ≥ 1/4 average into near-certainty at small
        // t/m, and never does worse than the average (for the t values
        // where Grover has room to rotate).
        let mut rng = StdRng::seed_from_u64(97);
        for k in 2..=2u32 {
            for t in [1usize, 2] {
                let inst = random_nonmember(k, t, &mut rng);
                let known = super::a3_known_t_detection_probability(&inst);
                let random = a3_exact_detection_probability(&inst);
                assert!(
                    known >= random - 1e-9,
                    "t={t}: known {known} vs random {random}"
                );
                assert!(known > 0.6, "t={t}: known-t should be strong, got {known}");
            }
        }
        // t = 0 (member): never detects.
        let member = oqsc_lang::random_member(2, &mut rng);
        assert_eq!(super::a3_known_t_detection_probability(&member), 0.0);
    }

    #[test]
    fn with_j_seed_pins_j() {
        let inst_word = {
            let mut rng = StdRng::seed_from_u64(96);
            random_member(3, &mut rng).encode()
        };
        for j in [0u64, 3, 7] {
            let mut a3 = GroverStreamer::with_j_seed(j, 0);
            a3.feed_all(&inst_word);
            assert_eq!(a3.j() as u64, j);
        }
    }
}
