//! Table generators for every experiment in `EXPERIMENTS.md`.
//!
//! Each `eN_*`/`fN_*` function returns structured rows (so tests can
//! assert on them) and has a `print_*` companion used by the
//! `experiments` binary. Decider sweeps (E6, F3, F4, and F1's
//! separation table) run through the [`BatchRunner`] claim-next
//! scheduler — the `experiments` binary's `--workers N` flag sizes the
//! fleet, and every table is a pure function of its seeds, whatever the
//! worker count. Exact-analysis sweeps (E3) still fan out over plain
//! scoped threads, one per parameter point.

use oqsc_comm::lower_bound::{
    communication_matrix, disj_fn, disj_fooling_set, one_way_deterministic_cost,
};
use oqsc_comm::{simulate_reduction, theorem_3_6_space_bound, BcwParams};
use oqsc_core::classical::Prop37Decider;
use oqsc_core::recognizer::exact_complement_accept_probability;
use oqsc_core::separation::SeparationRow;
use oqsc_fingerprint::paper_error_bound;
use oqsc_grover::bbht::random_j_detection_probability;
use oqsc_grover::{averaged_success, GroverSim};
use oqsc_lang::{encoded_len, malform, random_member, random_nonmember, string_len, Malformation};
use oqsc_machine::{BatchRunner, SessionSchedule, StreamingDecider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// E1 — BCW communication (Theorem 3.1)
// ---------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Clone, Copy, Debug)]
pub struct E1Row {
    /// log₂ of the input length.
    pub log_n: u32,
    /// Input length.
    pub n: usize,
    /// Iteration-count range `M = ⌈√n⌉`.
    pub m_rounds: usize,
    /// Qubits per message.
    pub qubits_per_message: usize,
    /// Worst-case single-run qubits.
    pub worst_case_qubits: usize,
    /// The √n·log n yardstick.
    pub sqrt_n_log_n: f64,
}

/// Analytic communication geometry for `n = 2^{log_n}`.
pub fn e1_bcw_rows(log_ns: &[u32]) -> Vec<E1Row> {
    log_ns
        .iter()
        .map(|&log_n| {
            let p = BcwParams::for_n(1usize << log_n);
            E1Row {
                log_n,
                n: p.n,
                m_rounds: p.m_rounds,
                qubits_per_message: p.qubits_per_message,
                worst_case_qubits: p.worst_case_single_run_qubits(),
                sqrt_n_log_n: p.sqrt_n_log_n(),
            }
        })
        .collect()
}

/// Prints the E1 table.
pub fn print_e1() {
    println!("E1 (Theorem 3.1) — BCW quantum protocol communication for DISJ_n");
    println!(
        "{:>6} {:>9} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "log n", "n", "rounds", "qb/msg", "worst-case", "√n·log n", "< n?"
    );
    for r in e1_bcw_rows(&[2, 4, 6, 8, 10, 12, 14, 16, 18, 20]) {
        println!(
            "{:>6} {:>9} {:>8} {:>10} {:>12} {:>12.0} {:>8}",
            r.log_n,
            r.n,
            r.m_rounds,
            r.qubits_per_message,
            r.worst_case_qubits,
            r.sqrt_n_log_n,
            if r.worst_case_qubits < r.n {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E2 — classical communication substrate (Theorem 3.2)
// ---------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Clone, Copy, Debug)]
pub struct E2Row {
    /// Input length.
    pub n: usize,
    /// Exact one-way deterministic cost.
    pub one_way_cost: usize,
    /// Fooling-set size (`2^n`).
    pub fooling_size: usize,
}

/// Exact one-way costs for `n = 1..=max_n` (`max_n ≤ 10`).
pub fn e2_classical_rows(max_n: usize) -> Vec<E2Row> {
    (1..=max_n)
        .map(|n| E2Row {
            n,
            one_way_cost: one_way_deterministic_cost(&communication_matrix(n, disj_fn)),
            fooling_size: disj_fooling_set(n).len(),
        })
        .collect()
}

/// Prints the E2 table.
pub fn print_e2() {
    println!("E2 (Theorem 3.2 substrate) — exact classical one-way cost of DISJ_n");
    println!("{:>4} {:>14} {:>14}", "n", "one-way bits", "fooling size");
    for r in e2_classical_rows(10) {
        println!("{:>4} {:>14} {:>14}", r.n, r.one_way_cost, r.fooling_size);
    }
    println!();
}

// ---------------------------------------------------------------------
// E3 — the one-sided quantum recognizer (Theorem 3.4)
// ---------------------------------------------------------------------

/// One row of the E3 table.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Language parameter.
    pub k: u32,
    /// Input length.
    pub n: usize,
    /// Exact accept probability on a member (must be 0).
    pub member_accept: f64,
    /// Exact accept probability on a `t = 1` non-member (must be ≥ 1/4).
    pub nonmember_accept_t1: f64,
    /// Exact accept probability on a `t = m` non-member.
    pub nonmember_accept_full: f64,
    /// Exact accept probability on a corrupted (inconsistent) word.
    pub corrupted_accept: f64,
    /// Classical bits used.
    pub classical_bits: usize,
    /// Qubits used.
    pub qubits: usize,
}

/// Exact acceptance statistics for `k ∈ {1, 2, 3}` (exhausts all coin
/// outcomes; parallel over k).
pub fn e3_recognizer_rows() -> Vec<E3Row> {
    let ks: Vec<u32> = vec![1, 2, 3];
    let mut rows: Vec<Option<E3Row>> = vec![None; ks.len()];
    std::thread::scope(|scope| {
        for (slot, &k) in rows.iter_mut().zip(&ks) {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + u64::from(k));
                let member = random_member(k, &mut rng);
                let non1 = random_nonmember(k, 1, &mut rng);
                let nonfull = random_nonmember(k, string_len(k), &mut rng);
                let corrupted = malform(&member, Malformation::YDriftAcrossRounds, &mut rng);
                let mut rec = oqsc_core::ComplementRecognizer::new(&mut rng);
                rec.feed_all(&member.encode());
                let space = rec.space();
                *slot = Some(E3Row {
                    k,
                    n: encoded_len(k),
                    member_accept: exact_complement_accept_probability(&member.encode()),
                    nonmember_accept_t1: exact_complement_accept_probability(&non1.encode()),
                    nonmember_accept_full: exact_complement_accept_probability(&nonfull.encode()),
                    corrupted_accept: exact_complement_accept_probability(&corrupted),
                    classical_bits: space.classical_bits,
                    qubits: space.qubits,
                });
            });
        }
    });
    rows.into_iter().map(|r| r.expect("filled")).collect()
}

/// Prints the E3 table.
pub fn print_e3() {
    println!("E3 (Theorem 3.4) — exact acceptance of the one-sided recognizer of L̄_DISJ");
    println!(
        "{:>3} {:>9} | {:>10} {:>12} {:>12} {:>12} | {:>7} {:>7}",
        "k", "n", "member", "t=1", "t=m", "corrupted", "bits", "qubits"
    );
    for r in e3_recognizer_rows() {
        println!(
            "{:>3} {:>9} | {:>10.6} {:>12.6} {:>12.6} {:>12.6} | {:>7} {:>7}",
            r.k,
            r.n,
            r.member_accept,
            r.nonmember_accept_t1,
            r.nonmember_accept_full,
            r.corrupted_accept,
            r.classical_bits,
            r.qubits
        );
    }
    println!("   (guarantees: member = 0 exactly; all others ≥ 0.25)");
    println!();
}

// ---------------------------------------------------------------------
// E4 — amplification (Corollary 3.5)
// ---------------------------------------------------------------------

/// One row of the E4 table.
#[derive(Clone, Copy, Debug)]
pub struct E4Row {
    /// Number of parallel copies.
    pub reps: usize,
    /// Exact two-sided error on the worst tested non-member.
    pub nonmember_error: f64,
    /// The (3/4)^reps yardstick.
    pub three_quarters_pow: f64,
}

/// Error vs amplification width on a `t = 1`, `k = 2` instance (exact:
/// `(1 − p₁)^reps`).
pub fn e4_amplification_rows() -> Vec<E4Row> {
    let mut rng = StdRng::seed_from_u64(2000);
    let non = random_nonmember(2, 1, &mut rng);
    let p1 = exact_complement_accept_probability(&non.encode());
    [1usize, 2, 4, 6, 8, 12]
        .iter()
        .map(|&reps| E4Row {
            reps,
            nonmember_error: (1.0 - p1).powi(reps as i32),
            three_quarters_pow: 0.75f64.powi(reps as i32),
        })
        .collect()
}

/// Prints the E4 table.
pub fn print_e4() {
    println!("E4 (Corollary 3.5) — amplification to bounded error (k=2, t=1; members err 0)");
    println!(
        "{:>5} {:>16} {:>12} {:>8}",
        "reps", "nonmember err", "(3/4)^r", "≤ 1/3?"
    );
    for r in e4_amplification_rows() {
        println!(
            "{:>5} {:>16.6} {:>12.6} {:>8}",
            r.reps,
            r.nonmember_error,
            r.three_quarters_pow,
            if r.nonmember_error <= 1.0 / 3.0 {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E5 — the Theorem 3.6 reduction
// ---------------------------------------------------------------------

/// One row of the E5 table.
#[derive(Clone, Copy, Debug)]
pub struct E5Row {
    /// Language parameter.
    pub k: u32,
    /// Messages in the induced protocol (`3·2^k − 1`).
    pub messages: usize,
    /// Largest induced message, bits (Prop 3.7 decider).
    pub max_message_bits: usize,
    /// Induced total communication, bits.
    pub total_bits: usize,
    /// Communication DISJ_{2^{2k}} requires (`c·2^{2k}`, c = 1).
    pub required_bits: usize,
    /// Space lower bound recovered by inverting Fact 2.2 (cells).
    pub recovered_space_bound: usize,
}

/// Runs the reduction on the Proposition 3.7 decider for `k ∈ 1..=k_max`.
pub fn e5_reduction_rows(k_max: u32) -> Vec<E5Row> {
    (1..=k_max)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(3000 + u64::from(k));
            let inst = random_member(k, &mut rng);
            let report = simulate_reduction(Prop37Decider::new(&mut rng), &inst);
            E5Row {
                k,
                messages: report.num_messages,
                max_message_bits: report.max_message_bits,
                total_bits: report.total_bits,
                required_bits: 1usize << (2 * k),
                recovered_space_bound: theorem_3_6_space_bound(k, 1.0, 64),
            }
        })
        .collect()
}

/// Prints the E5 table.
pub fn print_e5() {
    println!("E5 (Theorem 3.6) — machine→protocol reduction (messages = configurations of Prop-3.7 decider)");
    println!(
        "{:>3} {:>9} {:>14} {:>12} {:>14} {:>16}",
        "k", "messages", "max msg bits", "total bits", "required Ω", "space LB (cells)"
    );
    for r in e5_reduction_rows(6) {
        println!(
            "{:>3} {:>9} {:>14} {:>12} {:>14} {:>16}",
            r.k,
            r.messages,
            r.max_message_bits,
            r.total_bits,
            r.required_bits,
            r.recovered_space_bound
        );
    }
    println!("   (asymptotic rows of the recovered bound: see F1; it is vacuous at tiny k)");
    println!();
}

// ---------------------------------------------------------------------
// E6 — the classical upper bound (Proposition 3.7)
// ---------------------------------------------------------------------

/// One row of the E6 table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct E6Row {
    /// Language parameter.
    pub k: u32,
    /// Input length.
    pub n: usize,
    /// Measured peak space, bits.
    pub space_bits: usize,
    /// `n^{1/3}` yardstick.
    pub n_cbrt: f64,
    /// Verdicts correct on a member/non-member pair.
    pub correct: bool,
}

/// Instances in the E6 sweep at `k_max`: a member and a `t = 1`
/// non-member per `k`.
pub fn e6_instance_count(k_max: u32) -> usize {
    2 * k_max as usize
}

/// Builds E6 instance `i`: even indices feed `k = 1 + i/2`'s member
/// word, odd ones its non-member word, machines and words both derived
/// from the per-`k` seed alone. A pure function of `i`, so the sweep is
/// worker-count independent in-process and re-derivable inside a worker
/// *process* (the cross-process scheduler ships indices, not machines).
pub fn e6_task(i: usize) -> (Prop37Decider, std::vec::IntoIter<oqsc_lang::Sym>) {
    let k = 1 + (i / 2) as u32;
    let mut rng = StdRng::seed_from_u64(4000 + u64::from(k));
    let member = random_member(k, &mut rng);
    let non = random_nonmember(k, 1, &mut rng);
    let first = Prop37Decider::new(&mut rng);
    if i.is_multiple_of(2) {
        (first, member.encode().into_iter())
    } else {
        let second = Prop37Decider::new(&mut rng);
        (second, non.encode().into_iter())
    }
}

/// Folds an E6 sweep's [`oqsc_machine::BatchReport`] into table rows.
pub fn e6_rows_from_report(k_max: u32, report: &oqsc_machine::BatchReport) -> Vec<E6Row> {
    (1..=k_max)
        .map(|k| {
            let member_out = &report.outcomes[2 * (k as usize - 1)];
            let non_out = &report.outcomes[2 * (k as usize - 1) + 1];
            E6Row {
                k,
                n: encoded_len(k),
                space_bits: member_out.classical_bits,
                n_cbrt: (encoded_len(k) as f64).powf(1.0 / 3.0),
                correct: member_out.accept && !non_out.accept,
            }
        })
        .collect()
}

/// Measures the Proposition 3.7 decider for `k ∈ 1..=k_max`: one batch
/// of `2·k_max` decider instances (a member and a `t = 1` non-member per
/// `k`) over the session scheduler, routed through the
/// [`crate::SweepSpec`] registry. Each task rebuilds its machines from
/// the per-`k` seed alone, so the table is worker-count independent —
/// and, under [`SessionSchedule::MigrateEvery`], independent of where
/// the suspend/resume boundaries fall.
pub fn e6_classical_rows(
    k_max: u32,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> Vec<E6Row> {
    match (crate::SweepSpec::E6 { k_max }).rows_in_process(runner, schedule) {
        crate::SweepRows::E6(rows) => rows,
        other => unreachable!("E6 spec produced {other:?}"),
    }
}

/// Prints an E6 table (any source: in-process sweep or the
/// fabric's outcome ledger behind `sweep --processes` — identical rows
/// print identical bytes).
pub fn print_e6_rows(rows: &[E6Row]) {
    println!("E6 (Proposition 3.7) — classical Θ(n^(1/3)) decider");
    println!(
        "{:>3} {:>10} {:>12} {:>10} {:>9}",
        "k", "n", "space bits", "n^(1/3)", "correct"
    );
    for r in rows {
        println!(
            "{:>3} {:>10} {:>12} {:>10.1} {:>9}",
            r.k, r.n, r.space_bits, r.n_cbrt, r.correct
        );
    }
    println!();
}

/// Prints the E6 table.
pub fn print_e6(runner: &BatchRunner, schedule: SessionSchedule) {
    print_e6_rows(&e6_classical_rows(7, runner, schedule));
}

// ---------------------------------------------------------------------
// F1 — the separation plot
// ---------------------------------------------------------------------

/// Measures the separation series (quantum metering-only above k = 5).
pub fn f1_separation_rows(k_max: u32) -> Vec<SeparationRow> {
    f1_separation_rows_scheduled(
        k_max,
        &BatchRunner::available(),
        SessionSchedule::Uninterrupted,
    )
}

/// [`f1_separation_rows`] under an explicit runner and
/// [`SessionSchedule`], routed through the [`crate::SweepSpec`]
/// registry: both machine fleets run as sessions; the migrating schedule
/// suspends, serializes and migrates every decider (quantum register
/// snapshots included) at each segment boundary and produces the
/// identical table.
pub fn f1_separation_rows_scheduled(
    k_max: u32,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> Vec<SeparationRow> {
    match (crate::SweepSpec::F1 { k_max }).rows_in_process(runner, schedule) {
        crate::SweepRows::F1(rows) => rows,
        other => unreachable!("F1 spec produced {other:?}"),
    }
}

/// The F1 table's per-row seeds, derived from the experiment's base
/// seed alone — shared by the in-process sweep and every worker process
/// of a cross-process run, so both re-derive identical instances.
pub fn f1_seeds(k_max: u32) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(5000);
    (1..=k_max).map(|_| rng.gen()).collect()
}

/// Prints an F1 table (any source: in-process sweep or the
/// fabric's outcome ledger behind `sweep --processes` — identical rows
/// print identical bytes).
pub fn print_f1_rows(rows: &[SeparationRow]) {
    println!("F1 — the separation: space to recognize L_DISJ online, vs input length");
    println!(
        "{:>3} {:>8} {:>11} | {:>14} {:>7} | {:>15} {:>12}",
        "k", "m", "n", "quantum bits", "qubits", "classical bits", "LB (cells)"
    );
    for r in rows {
        println!(
            "{:>3} {:>8} {:>11} | {:>14} {:>7} | {:>15} {:>12}",
            r.k,
            r.m,
            r.n,
            r.quantum.classical_bits,
            r.quantum.qubits,
            r.classical_upper_bits,
            r.classical_lower_cells
        );
    }
    println!("   quantum = Θ(log n); classical = Θ(n^(1/3)) both measured and forced (LB)");
    println!();
}

/// Prints the F1 series.
pub fn print_f1(runner: &BatchRunner, schedule: SessionSchedule) {
    print_f1_rows(&f1_separation_rows_scheduled(8, runner, schedule));
}

// ---------------------------------------------------------------------
// F2 — BBHT averaged success
// ---------------------------------------------------------------------

/// One row of the F2 series.
#[derive(Clone, Copy, Debug)]
pub struct F2Row {
    /// Number of marked items.
    pub t: usize,
    /// Closed-form averaged success.
    pub analytic: f64,
    /// Exact simulated detection probability.
    pub simulated: f64,
}

/// Sweeps `t` over `N = 4^k` items with `M = 2^k` rounds.
pub fn f2_bbht_rows(k: u32) -> Vec<F2Row> {
    let n = 1usize << (2 * k);
    let m = 1usize << k;
    let ts: Vec<usize> = (1..n)
        .filter(|t| t.is_power_of_two() || *t == n - 1)
        .collect();
    ts.iter()
        .map(|&t| {
            let mut marked = vec![false; n];
            let mut rng = StdRng::seed_from_u64(6000 + t as u64);
            let mut placed = 0;
            while placed < t {
                let p = rng.gen_range(0..n);
                if !marked[p] {
                    marked[p] = true;
                    placed += 1;
                }
            }
            let sim = GroverSim::new(marked);
            F2Row {
                t,
                analytic: averaged_success(m, t, n),
                simulated: random_j_detection_probability(&sim, m),
            }
        })
        .collect()
}

/// Prints the F2 series.
pub fn print_f2() {
    let k = 4;
    println!(
        "F2 — BBHT averaged detection, N = {} (paper bound ≥ 1/4)",
        1 << (2 * k)
    );
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "t", "analytic", "simulated", "≥ 1/4?"
    );
    for r in f2_bbht_rows(k) {
        println!(
            "{:>6} {:>12.6} {:>12.6} {:>8}",
            r.t,
            r.analytic,
            r.simulated,
            if r.simulated >= 0.25 - 1e-9 {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// F3 — fingerprint error
// ---------------------------------------------------------------------

/// One row of the F3 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F3Row {
    /// Language parameter.
    pub k: u32,
    /// Empirical A2 false-accept rate on corrupted words.
    pub empirical: f64,
    /// The paper's per-test bound `2^{-2k}` scaled by 2 tests touched.
    pub bound: f64,
}

/// The published F3 table's largest language parameter.
pub const F3_DEFAULT_K_MAX: u32 = 3;

/// The published F3 table's Monte-Carlo fleet size per `k`.
pub const F3_DEFAULT_TRIALS: usize = 4000;

/// Folds F3's per-`k` fleet [`oqsc_machine::BatchReport`]s (fleet `i` =
/// parameter `k = i + 1`) into table rows — the single row-merge
/// definition shared by the in-process sweep and the cross-process
/// scheduler, so both print identical bytes.
pub fn f3_rows_from_reports(k_max: u32, reports: &[oqsc_machine::BatchReport]) -> Vec<F3Row> {
    (1..=k_max)
        .zip(reports)
        .map(|(k, report)| F3Row {
            k,
            empirical: report.accept_rate(),
            bound: 2.0 * paper_error_bound(k),
        })
        .collect()
}

/// Monte-Carlo A2 false-accept rates for `k ∈ 1..=k_max`: one batched
/// fleet of `trials` checker instances per `k`, each trial built by the
/// pure [`oqsc_core::f3_fingerprint_task`] from `(k, trial)` alone —
/// routed through the [`crate::SweepSpec`] registry like every sweep.
pub fn f3_fingerprint_rows(
    k_max: u32,
    trials: usize,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> Vec<F3Row> {
    match (crate::SweepSpec::F3 { k_max, trials }).rows_in_process(runner, schedule) {
        crate::SweepRows::F3(rows) => rows,
        other => unreachable!("F3 spec produced {other:?}"),
    }
}

/// Prints an F3 table (any source: in-process sweep or the
/// fabric's outcome ledger behind `sweep --processes` — identical rows
/// print identical bytes).
pub fn print_f3_rows(rows: &[F3Row]) {
    println!("F3 — A2 fingerprint false-accept rate on corrupted words (one-sided soundness)");
    println!("{:>3} {:>12} {:>16}", "k", "empirical", "2·(m−1)/2^4k");
    for r in rows {
        println!("{:>3} {:>12.6} {:>16.6}", r.k, r.empirical, r.bound);
    }
    println!();
}

/// Prints the F3 series.
pub fn print_f3(runner: &BatchRunner, schedule: SessionSchedule) {
    print_f3_rows(&f3_fingerprint_rows(
        F3_DEFAULT_K_MAX,
        F3_DEFAULT_TRIALS,
        runner,
        schedule,
    ));
}

// ---------------------------------------------------------------------
// F4 — sketch failure below √m
// ---------------------------------------------------------------------

/// One row of the F4 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F4Row {
    /// Sketch budget (stored positions).
    pub budget: usize,
    /// Measured space, bits.
    pub space_bits: usize,
    /// Miss rate on `t = 1` non-members.
    pub miss_rate: f64,
    /// Analytic expectation `1 − budget/m` (positions are sampled without
    /// replacement, so a planted `t = 1` intersection is caught iff its
    /// coordinate is among the `budget` sampled ones).
    pub expected_miss: f64,
}

/// The published F4 table's language parameter.
pub const F4_DEFAULT_K: u32 = 4;

/// The published F4 table's Monte-Carlo fleet size per budget.
pub const F4_DEFAULT_TRIALS: usize = 400;

/// The sketch budgets F4 sweeps at `k`: the powers of two up to the
/// string length `m`. One decider fleet per budget — shared by the
/// in-process sweep and the fabric's fleet list (`sweep --processes`).
pub fn f4_budgets(k: u32) -> Vec<usize> {
    let m = string_len(k);
    [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&b| b <= m)
        .collect()
}

/// Folds F4's per-budget fleet [`oqsc_machine::BatchReport`]s (fleet `i`
/// = `f4_budgets(k)[i]`) into table rows — the single row-merge
/// definition shared by the in-process sweep and the cross-process
/// scheduler.
pub fn f4_rows_from_reports(k: u32, reports: &[oqsc_machine::BatchReport]) -> Vec<F4Row> {
    let m = string_len(k);
    f4_budgets(k)
        .into_iter()
        .zip(reports)
        .map(|(budget, report)| F4Row {
            budget,
            space_bits: report.peak_classical_bits,
            miss_rate: report.accept_rate(),
            expected_miss: 1.0 - budget as f64 / m as f64,
        })
        .collect()
}

/// Sweeps sketch budgets at `k`: a batched fleet of `trials` sketch
/// deciders per budget, each trial built by the pure
/// [`oqsc_core::f4_sketch_task`] from `(budget, trial)` alone — routed
/// through the [`crate::SweepSpec`] registry like every sweep.
pub fn f4_sketch_rows(
    k: u32,
    trials: usize,
    runner: &BatchRunner,
    schedule: SessionSchedule,
) -> Vec<F4Row> {
    match (crate::SweepSpec::F4 { k, trials }).rows_in_process(runner, schedule) {
        crate::SweepRows::F4 { rows, .. } => rows,
        other => unreachable!("F4 spec produced {other:?}"),
    }
}

/// Prints an F4 table at parameter `k` (any source: in-process sweep or
/// the fabric's outcome ledger behind `sweep --processes`).
pub fn print_f4_rows(k: u32, rows: &[F4Row]) {
    println!(
        "F4 — classical sketches below √m fail (k = {k}, m = {}, planted t = 1)",
        string_len(k)
    );
    println!(
        "{:>7} {:>11} {:>11} {:>14}",
        "budget", "space bits", "miss rate", "analytic miss"
    );
    for r in rows {
        println!(
            "{:>7} {:>11} {:>11.3} {:>14.3}",
            r.budget, r.space_bits, r.miss_rate, r.expected_miss
        );
    }
    println!(
        "   (reliability requires budget ~ m = Θ(√m)² — far above the quantum machine's O(log m))"
    );
    println!();
}

/// Prints the F4 series.
pub fn print_f4(runner: &BatchRunner, schedule: SessionSchedule) {
    print_f4_rows(
        F4_DEFAULT_K,
        &f4_sketch_rows(F4_DEFAULT_K, F4_DEFAULT_TRIALS, runner, schedule),
    );
}

// ---------------------------------------------------------------------
// AB — DESIGN.md §5 ablations
// ---------------------------------------------------------------------

/// One row of the backend ablation (structured simulation vs emitted
/// strict circuit).
#[derive(Clone, Copy, Debug)]
pub struct Ab1Row {
    /// Pinned iteration count.
    pub j: usize,
    /// Triples on the Definition 2.3 output tape.
    pub gate_triples: usize,
    /// Triples after peephole optimization.
    pub optimized_triples: usize,
    /// |emitted − streamed| detection probability (must be ≈ 0).
    pub detection_gap: f64,
}

/// Backend ablation at `k = 1` over all `j`.
pub fn ab1_backend_rows() -> Vec<Ab1Row> {
    let mut rng = StdRng::seed_from_u64(9100);
    let inst = random_nonmember(1, 2, &mut rng);
    (0..inst.rounds())
        .map(|j| {
            let run = oqsc_core::run_definition_2_3(&inst, j);
            let mut a3 = oqsc_core::GroverStreamer::with_j_seed(j as u64, 0);
            a3.feed_all(&inst.encode());
            Ab1Row {
                j,
                gate_triples: run.gate_triples,
                optimized_triples: run.optimized_triples,
                detection_gap: (run.detection_probability - a3.detection_probability()).abs(),
            }
        })
        .collect()
}

/// One row of the multi-point fingerprint ablation.
#[derive(Clone, Copy, Debug)]
pub struct Ab2Row {
    /// Evaluation points.
    pub points: usize,
    /// Space in bits.
    pub space_bits: u32,
    /// Analytic error bound `((m−1)/p)^r` at `k = 1`, `m = 4`.
    pub error_bound: f64,
}

/// Multi-point fingerprint space/error trade-off.
pub fn ab2_multipoint_rows() -> Vec<Ab2Row> {
    let mut rng = StdRng::seed_from_u64(9200);
    let m = string_len(1);
    [1usize, 2, 3, 4]
        .iter()
        .map(|&r| {
            let fp = oqsc_fingerprint::MultiPointFingerprint::for_k(1, r, &mut rng);
            Ab2Row {
                points: r,
                space_bits: fp.space_bits(),
                error_bound: fp.error_bound(m),
            }
        })
        .collect()
}

/// One row of the known-`t` ablation.
#[derive(Clone, Copy, Debug)]
pub struct Ab3Row {
    /// Planted intersections.
    pub t: usize,
    /// Random-`j` detection (what the paper's A3 achieves).
    pub random_j: f64,
    /// Known-`t` optimal-`j` detection.
    pub known_t: f64,
}

/// Random-`j` vs known-`t` detection at `k = 2`.
pub fn ab3_known_t_rows() -> Vec<Ab3Row> {
    let mut rng = StdRng::seed_from_u64(9300);
    [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            let inst = random_nonmember(2, t, &mut rng);
            Ab3Row {
                t,
                random_j: oqsc_core::a3_exact_detection_probability(&inst),
                known_t: oqsc_core::a3::a3_known_t_detection_probability(&inst),
            }
        })
        .collect()
}

/// Prints the three DESIGN.md §5 ablation tables.
pub fn print_ablations() {
    println!("AB1 — A3 backend ablation (k=1): emitted strict circuit vs structured streamer");
    println!(
        "{:>3} {:>10} {:>12} {:>14}",
        "j", "triples", "optimized", "detect gap"
    );
    for r in ab1_backend_rows() {
        println!(
            "{:>3} {:>10} {:>12} {:>14.2e}",
            r.j, r.gate_triples, r.optimized_triples, r.detection_gap
        );
    }
    println!();
    println!("AB2 — multi-point fingerprints (k=1): space vs error");
    println!("{:>7} {:>11} {:>14}", "points", "space bits", "error bound");
    for r in ab2_multipoint_rows() {
        println!(
            "{:>7} {:>11} {:>14.2e}",
            r.points, r.space_bits, r.error_bound
        );
    }
    println!();
    println!("AB3 — random-j (unknown t, the paper) vs optimal-j (known t) detection, k=2");
    println!("{:>4} {:>12} {:>12}", "t", "random j", "known t");
    for r in ab3_known_t_rows() {
        println!("{:>4} {:>12.6} {:>12.6}", r.t, r.random_j, r.known_t);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab1_backends_agree() {
        for r in ab1_backend_rows() {
            assert!(r.detection_gap < 1e-9, "j={}", r.j);
            assert!(r.optimized_triples <= r.gate_triples);
        }
    }

    #[test]
    fn ab2_error_shrinks_space_grows() {
        let rows = ab2_multipoint_rows();
        for w in rows.windows(2) {
            assert!(w[1].space_bits > w[0].space_bits);
            assert!(w[1].error_bound < w[0].error_bound);
        }
    }

    #[test]
    fn ab3_known_t_wins() {
        for r in ab3_known_t_rows() {
            assert!(r.known_t >= r.random_j - 1e-9, "t={}", r.t);
            assert!(r.random_j >= 0.25 - 1e-9);
        }
    }

    #[test]
    fn e1_rows_shape() {
        let rows = e1_bcw_rows(&[4, 10, 20]);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].worst_case_qubits < rows[2].n);
        assert!(rows[0].worst_case_qubits >= rows[0].n);
    }

    #[test]
    fn e2_rows_are_linear() {
        for r in e2_classical_rows(6) {
            assert_eq!(r.one_way_cost, r.n);
            assert_eq!(r.fooling_size, 1 << r.n);
        }
    }

    #[test]
    fn e3_rows_respect_guarantees() {
        for r in e3_recognizer_rows() {
            assert!(r.member_accept < 1e-12);
            assert!(r.nonmember_accept_t1 >= 0.25 - 1e-9);
            assert!(r.nonmember_accept_full >= 0.25 - 1e-9);
            assert!(r.corrupted_accept >= 0.25 - 1e-9);
            assert!(r.qubits == 2 * r.k as usize + 2);
        }
    }

    #[test]
    fn e4_error_decays_geometrically() {
        let rows = e4_amplification_rows();
        assert!(rows
            .iter()
            .all(|r| r.nonmember_error <= r.three_quarters_pow + 1e-12));
        assert!(rows.last().expect("rows").nonmember_error < 0.05);
    }

    #[test]
    fn e5_rows_count_messages() {
        for r in e5_reduction_rows(3) {
            assert_eq!(r.messages, 3 * (1usize << r.k) - 1);
            assert!(r.total_bits > 0);
        }
    }

    #[test]
    fn e6_rows_correct_and_cbrt_shaped() {
        for r in e6_classical_rows(5, &BatchRunner::available(), SessionSchedule::Uninterrupted) {
            assert!(r.correct);
            assert!((r.space_bits as f64) < 40.0 * r.n_cbrt + 200.0);
        }
    }

    #[test]
    fn batched_tables_are_worker_count_independent() {
        let serial = BatchRunner::serial();
        let wide = BatchRunner::new(8);
        let plain = SessionSchedule::Uninterrupted;
        let e6_a = e6_classical_rows(4, &serial, plain);
        let e6_b = e6_classical_rows(4, &wide, plain);
        for (a, b) in e6_a.iter().zip(&e6_b) {
            assert_eq!(
                (a.k, a.space_bits, a.correct),
                (b.k, b.space_bits, b.correct)
            );
        }
        let f4_a = f4_sketch_rows(2, 50, &serial, plain);
        let f4_b = f4_sketch_rows(2, 50, &wide, SessionSchedule::MigrateEvery(13));
        for (a, b) in f4_a.iter().zip(&f4_b) {
            assert_eq!(a.budget, b.budget);
            assert_eq!(a.space_bits, b.space_bits);
            assert!((a.miss_rate - b.miss_rate).abs() < 1e-12);
        }
    }

    #[test]
    fn f2_bound_holds() {
        for r in f2_bbht_rows(3) {
            assert!((r.analytic - r.simulated).abs() < 1e-9);
            assert!(r.simulated >= 0.25 - 1e-9);
        }
    }

    #[test]
    fn f3_empirical_below_bound() {
        for r in f3_fingerprint_rows(
            3,
            500,
            &BatchRunner::available(),
            SessionSchedule::Uninterrupted,
        ) {
            assert!(
                r.empirical <= r.bound + 0.05,
                "k={}: {} > {}",
                r.k,
                r.empirical,
                r.bound
            );
        }
    }

    #[test]
    fn f4_miss_rate_tracks_analytic() {
        let rows = f4_sketch_rows(
            3,
            200,
            &BatchRunner::available(),
            SessionSchedule::Uninterrupted,
        );
        for r in &rows {
            assert!(
                (r.miss_rate - r.expected_miss).abs() < 0.15,
                "budget {}",
                r.budget
            );
        }
        // Full budget is exact.
        assert!(rows.last().expect("rows").miss_rate < 0.01);
    }
}
