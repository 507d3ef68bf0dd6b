//! The separation itself, as a measurable object (experiment F1).
//!
//! For each `k`, measure: the quantum recognizer's space (classical bits
//! plus qubits, both `Θ(k) = Θ(log m)`), the Proposition 3.7 classical
//! decider's space (`Θ(2^k) = Θ(√m)`), and the Theorem 3.6 lower bound
//! recovered from the communication argument. The quantum/classical ratio
//! grows without bound — exponentially in the *space* axis as a function
//! of `log m` — which is the paper's headline claim.

use crate::classical::Prop37Decider;
use crate::recognizer::{ComplementRecognizer, SpaceReport};
use crate::sweep::derive_seed;
use oqsc_comm::theorem_3_6_space_bound;
use oqsc_lang::{encoded_len, random_member, string_len, LdisjInstance};
use oqsc_machine::{BatchRunner, SessionSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the separation table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeparationRow {
    /// Language parameter.
    pub k: u32,
    /// String length `m = 2^{2k}`.
    pub m: usize,
    /// Input length `n = Θ(2^{3k})`.
    pub n: usize,
    /// Quantum recognizer space (measured).
    pub quantum: SpaceReport,
    /// Proposition 3.7 classical space in bits (measured).
    pub classical_upper_bits: usize,
    /// Theorem 3.6 lower bound in tape cells (derived, with `c = 1`,
    /// `|Q| = 64`).
    pub classical_lower_cells: usize,
}

impl SeparationRow {
    /// The measured classical-over-quantum space ratio.
    pub fn ratio(&self) -> f64 {
        self.classical_upper_bits as f64 / self.quantum.total() as f64
    }
}

/// The row's member instance, derived deterministically from its seed.
fn row_instance(k: u32, seed: u64) -> LdisjInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    random_member(k, &mut rng)
}

/// Measures one row of the separation table at parameter `k` (feeds one
/// random member instance through both machines).
///
/// The quantum column is metered with a dense simulation for
/// `k ≤ 5` and in metering-only mode above (identical space accounting,
/// no amplitude allocation — see
/// [`crate::a3::GroverStreamer::metering_only`]).
pub fn measure_separation_row<R: Rng + ?Sized>(k: u32, rng: &mut R) -> SeparationRow {
    measure_separation_row_seeded(k, rng.gen())
}

/// [`measure_separation_row`] as a pure function of its seed (the form
/// the batch scheduler requires: a row's machines and instance depend on
/// `(k, seed)` alone, never on sweep order).
pub fn measure_separation_row_seeded(k: u32, seed: u64) -> SeparationRow {
    let rows = separation_rows_batched(k, &[seed], &BatchRunner::serial());
    rows.into_iter().next().expect("one row")
}

/// Measures the whole table for `k ∈ [k_min, k_max]`, fanning the rows
/// out over the batch scheduler (one shard per worker; the table is a
/// pure function of the caller's `rng`, whatever the worker count).
pub fn separation_table<R: Rng + ?Sized>(
    k_min: u32,
    k_max: u32,
    rng: &mut R,
) -> Vec<SeparationRow> {
    let seeds: Vec<u64> = (k_min..=k_max).map(|_| rng.gen()).collect();
    separation_rows_batched(k_min, &seeds, &BatchRunner::available())
}

/// The batched core of the separation experiment: row `i` measures
/// `k = k_min + i` with entropy `seeds[i]`. Both machine fleets — the
/// quantum recognizers and the Proposition 3.7 classical deciders — run
/// through [`BatchRunner`], streaming each instance without
/// materializing it (5·10⁷ symbols at `k = 8`).
pub fn separation_rows_batched(
    k_min: u32,
    seeds: &[u64],
    runner: &BatchRunner,
) -> Vec<SeparationRow> {
    separation_rows_scheduled(k_min, seeds, runner, SessionSchedule::Uninterrupted)
}

/// [`separation_rows_batched`] under an explicit [`SessionSchedule`]:
/// with [`SessionSchedule::MigrateEvery`], both fleets — quantum
/// recognizers (register snapshots included) and classical deciders —
/// are suspended at every segment boundary, serialized, and resumed
/// from those bytes by the claim-next worker running them, and the
/// table is `==`-identical to the uninterrupted one.
pub fn separation_rows_scheduled(
    k_min: u32,
    seeds: &[u64],
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> Vec<SeparationRow> {
    let quantum = runner.run(seeds.len(), schedule, |i| {
        separation_quantum_task(k_min, seeds, i)
    });
    let classical = runner.run(seeds.len(), schedule, |i| {
        separation_classical_task(k_min, seeds, i)
    });
    separation_rows_from_reports(k_min, &quantum, &classical)
}

/// Builds the **quantum fleet's** instance `i` — the Theorem 3.4
/// recognizer (metering-only above `k = 5`) plus its streamed member
/// word. A pure function of `(k_min, seeds, i)`, which is exactly what
/// lets a cross-process scheduler re-derive any instance inside a worker
/// process instead of shipping deciders or words between processes.
pub fn separation_quantum_task(
    k_min: u32,
    seeds: &[u64],
    i: usize,
) -> (
    ComplementRecognizer<oqsc_quantum::StateVector>,
    impl Iterator<Item = oqsc_lang::Sym>,
) {
    let k = k_min + i as u32;
    let mut rng = StdRng::seed_from_u64(derive_seed(seeds[i], 0));
    let decider = if k <= 5 {
        ComplementRecognizer::new(&mut rng)
    } else {
        ComplementRecognizer::metering_only()
    };
    (decider, row_instance(k, seeds[i]).into_stream())
}

/// Builds the **classical fleet's** instance `i` — the Proposition 3.7
/// decider plus the same streamed word (independent entropy stream).
/// See [`separation_quantum_task`] for why this is a standalone pure
/// function.
pub fn separation_classical_task(
    k_min: u32,
    seeds: &[u64],
    i: usize,
) -> (Prop37Decider, impl Iterator<Item = oqsc_lang::Sym>) {
    let k = k_min + i as u32;
    let mut rng = StdRng::seed_from_u64(derive_seed(seeds[i], 1));
    (
        Prop37Decider::new(&mut rng),
        row_instance(k, seeds[i]).into_stream(),
    )
}

/// Folds the two fleets' [`oqsc_machine::BatchReport`]s (index `i` =
/// parameter `k_min + i` in both) into the separation table. The
/// cross-process scheduler merges per-shard outcomes into the same
/// reports and calls this, so its tables are identical to the
/// in-process ones by construction.
pub fn separation_rows_from_reports(
    k_min: u32,
    quantum: &oqsc_machine::BatchReport,
    classical: &oqsc_machine::BatchReport,
) -> Vec<SeparationRow> {
    quantum
        .outcomes
        .iter()
        .zip(&classical.outcomes)
        .enumerate()
        .map(|(i, (q, c))| {
            let k = k_min + i as u32;
            SeparationRow {
                k,
                m: string_len(k),
                n: encoded_len(k),
                quantum: SpaceReport {
                    classical_bits: q.classical_bits,
                    qubits: q.peak_qubits,
                },
                classical_upper_bits: c.classical_bits,
                classical_lower_cells: theorem_3_6_space_bound(k, 1.0, 64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_machine::StreamingDecider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantum_space_grows_linearly_in_k_classical_exponentially() {
        let mut rng = StdRng::seed_from_u64(130);
        let table = separation_table(1, 6, &mut rng);
        assert_eq!(table.len(), 6);
        for w in table.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Quantum: additive growth (Θ(k)); allow a generous additive cap.
            assert!(
                b.quantum.total() <= a.quantum.total() + 64,
                "quantum space jumped: {} -> {}",
                a.quantum.total(),
                b.quantum.total()
            );
            assert_eq!(b.quantum.qubits, a.quantum.qubits + 2);
        }
        // Classical: the Θ(2^k) buffer term. Subtracting the shared Θ(k)
        // overhead (A1 + A2 run inside both machines) exposes the doubling.
        for w in table[2..].windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let a_buf = a.classical_upper_bits as f64 - a.quantum.classical_bits as f64;
            let b_buf = b.classical_upper_bits as f64 - b.quantum.classical_bits as f64;
            assert!(
                b_buf > 1.4 * a_buf,
                "classical-minus-shared should ~double: k={} {a_buf} -> {b_buf}",
                a.k
            );
        }
        // By k = 6 the exponential term wins outright.
        let last = &table[5];
        assert!(
            last.classical_upper_bits > last.quantum.total(),
            "k=6: classical {} must exceed quantum {}",
            last.classical_upper_bits,
            last.quantum.total()
        );
    }

    #[test]
    fn batched_rows_are_worker_count_independent() {
        let seeds = [11u64, 22, 33, 44];
        let reference = separation_rows_batched(1, &seeds, &BatchRunner::serial());
        assert_eq!(reference.len(), 4);
        for workers in [2usize, 8] {
            let rows = separation_rows_batched(1, &seeds, &BatchRunner::new(workers));
            assert_eq!(rows, reference, "workers={workers}");
        }
        // And the seeded single-row API agrees with the batch.
        for (i, row) in reference.iter().enumerate() {
            assert_eq!(measure_separation_row_seeded(1 + i as u32, seeds[i]), *row);
        }
    }

    #[test]
    fn row_fields_consistent() {
        let mut rng = StdRng::seed_from_u64(131);
        let row = measure_separation_row(3, &mut rng);
        assert_eq!(row.k, 3);
        assert_eq!(row.m, 64);
        assert_eq!(row.n, encoded_len(3));
        assert_eq!(row.quantum.qubits, 8);
        assert!(row.classical_upper_bits >= 64, "buffer must be charged");
        assert!(row.ratio() > 0.0);
    }

    #[test]
    fn metering_only_matches_simulated_space() {
        // The metering-only quantum column must agree exactly with the
        // dense simulation's accounting.
        let mut rng = StdRng::seed_from_u64(132);
        for k in 1..=3u32 {
            let inst = random_member(k, &mut rng);
            let word = inst.encode();
            let mut simulated = ComplementRecognizer::with_seeds(0, 0, 0);
            simulated.feed_all(&word);
            let mut metered = ComplementRecognizer::metering_only();
            metered.feed_all(&word);
            assert_eq!(simulated.space(), metered.space(), "k={k}");
        }
    }
}
