//! The sweep registry and the two things every sweep path shares: the
//! row merge and the outcome ledger.
//!
//! [`SweepSpec`] names each sweep's decider fleets and their pure
//! per-index task functions, so nothing but indices ever has to cross a
//! thread, process or machine boundary. Three paths run a spec, and all
//! of them end in [`rows_from_reports`], which is why their tables are
//! byte-identical by construction:
//!
//! * in-process, [`SweepSpec::rows_in_process`] (`sweep --workers N`);
//! * in-process and durable, [`SweepSpec::rows_durable`]
//!   (`sweep --store PREFIX`): each fleet persists its sessions into its
//!   own single-writer store `<prefix>.<fleet>.cps` every
//!   `checkpoint_every` tokens via
//!   [`BatchRunner::run_resumable_budgeted`]. A run killed mid-sweep
//!   (simulated deterministically by `--crash-after-tokens`, which stops
//!   it dead mid-segment with exit [`WORKER_CRASH_EXIT`]) loses only its
//!   unpersisted tail: `resume` recovers each store, salvages the valid
//!   record prefix, breaks the dead writer's orphaned lock, and continues
//!   from the last persisted boundaries;
//! * across processes or machines, the lease-based fabric
//!   ([`crate::fabric`]), whose coordinator fills an [`OutcomeLedger`]
//!   one `OUTCOME` line at a time. `sweep --processes P` runs it on a
//!   private socket with `P` spawned workers
//!   ([`run_private_fabric`](crate::fabric::run_private_fabric)).

use crate::experiments::{
    e6_instance_count, e6_rows_from_report, e6_task, f1_seeds, f3_rows_from_reports, f4_budgets,
    f4_rows_from_reports, print_e6_rows, print_f1_rows, print_f3_rows, print_f4_rows, E6Row, F3Row,
    F4Row,
};
use oqsc_core::separation::{
    separation_classical_task, separation_quantum_task, separation_rows_from_reports, SeparationRow,
};
use oqsc_core::{f3_fingerprint_task, f4_sketch_task};
use oqsc_machine::{
    BatchReport, BatchRunner, CheckpointStore, Checkpointable, RunOutcome, SessionSchedule,
    StoreError,
};
use std::path::{Path, PathBuf};

/// Exit code of a durable sweep whose token budget ran dry — the
/// deterministic stand-in for being killed mid-sweep.
pub const WORKER_CRASH_EXIT: i32 = 9;

/// Per-`k` fleet names for the F3 sweep (static, because ledgers and
/// reports carry `&'static str` fleet names; the table is the
/// contract's bound, independent of the CLI's own `--k-max` cap).
fn f3_fleet_name(k: u32) -> &'static str {
    const NAMES: [&str; 8] = ["k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"];
    assert!(
        (1..=NAMES.len() as u32).contains(&k),
        "F3 sweeps support k in 1..={} (fleet names are static); got {k}",
        NAMES.len()
    );
    NAMES[k as usize - 1]
}

/// Per-budget fleet names for the F4 sweep (the budget set is the fixed
/// powers of two of [`f4_budgets`]).
fn f4_fleet_name(budget: usize) -> &'static str {
    match budget {
        1 => "b1",
        2 => "b2",
        4 => "b4",
        8 => "b8",
        16 => "b16",
        32 => "b32",
        64 => "b64",
        128 => "b128",
        256 => "b256",
        other => unreachable!("budget {other} is not in the F4 sweep"),
    }
}

/// A sweep the schedulers know how to run: the **single registry** of
/// experiments — every entry defines its decider fleets (name + instance
/// count), its pure per-index task functions, and its row merge, so one
/// engine drives it in-process ([`SweepSpec::rows_in_process`]),
/// crash-recoverably through the persistent store
/// ([`SweepSpec::rows_durable`]), and over the fabric. Every instance
/// must be a pure function of its index (and the spec), so a worker
/// process can re-derive any leased range from the spec alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepSpec {
    /// Experiment E6 (Proposition 3.7 decider) for `k ∈ 1..=k_max`.
    E6 {
        /// Largest language parameter measured.
        k_max: u32,
    },
    /// Experiment F1 (the separation table) for `k ∈ 1..=k_max`.
    F1 {
        /// Largest language parameter measured.
        k_max: u32,
    },
    /// Experiment F3 (A2 fingerprint false-accept rates) for
    /// `k ∈ 1..=k_max`, one Monte-Carlo fleet of `trials` per `k`.
    F3 {
        /// Largest language parameter measured.
        k_max: u32,
        /// Trials per `k` fleet.
        trials: usize,
    },
    /// Experiment F4 (sketch failure below √m) at `k`, one fleet of
    /// `trials` per budget in [`f4_budgets`].
    F4 {
        /// Language parameter.
        k: u32,
        /// Trials per budget fleet.
        trials: usize,
    },
}

impl SweepSpec {
    /// CLI name (`experiments sweep e6|f1|f3|f4`).
    pub fn name(&self) -> &'static str {
        match self {
            SweepSpec::E6 { .. } => "e6",
            SweepSpec::F1 { .. } => "f1",
            SweepSpec::F3 { .. } => "f3",
            SweepSpec::F4 { .. } => "f4",
        }
    }

    /// The sweep's language-parameter knob (what the CLI's `--k-max`
    /// sets: the largest `k` for E6/F1/F3, *the* `k` for F4).
    pub fn k_max(&self) -> u32 {
        match self {
            SweepSpec::E6 { k_max } | SweepSpec::F1 { k_max } | SweepSpec::F3 { k_max, .. } => {
                *k_max
            }
            SweepSpec::F4 { k, .. } => *k,
        }
    }

    /// Monte-Carlo fleet size, for the sweeps that have one (F3/F4).
    pub fn trials(&self) -> Option<usize> {
        match self {
            SweepSpec::E6 { .. } | SweepSpec::F1 { .. } => None,
            SweepSpec::F3 { trials, .. } | SweepSpec::F4 { trials, .. } => Some(*trials),
        }
    }

    /// Parses a CLI sweep name. `trials` is ignored by the sweeps that
    /// have no Monte-Carlo fleet (the CLI rejects `--trials` for them
    /// up front).
    pub fn from_cli(name: &str, k_max: u32, trials: usize) -> Option<SweepSpec> {
        match name {
            "e6" => Some(SweepSpec::E6 { k_max }),
            "f1" => Some(SweepSpec::F1 { k_max }),
            "f3" => Some(SweepSpec::F3 { k_max, trials }),
            "f4" => Some(SweepSpec::F4 { k: k_max, trials }),
            _ => None,
        }
    }

    /// The decider fleets this sweep runs, with their instance counts.
    /// (F1 runs two fleets over the same words: the quantum recognizers
    /// and the classical Proposition 3.7 deciders. F3 runs one fleet per
    /// `k`, F4 one per sketch budget.)
    pub fn fleets(&self) -> Vec<(&'static str, usize)> {
        match self {
            SweepSpec::E6 { k_max } => vec![("e6", e6_instance_count(*k_max))],
            SweepSpec::F1 { k_max } => {
                let n = *k_max as usize;
                vec![("quantum", n), ("classical", n)]
            }
            SweepSpec::F3 { k_max, trials } => {
                (1..=*k_max).map(|k| (f3_fleet_name(k), *trials)).collect()
            }
            SweepSpec::F4 { k, trials } => f4_budgets(*k)
                .into_iter()
                .map(|b| (f4_fleet_name(b), *trials))
                .collect(),
        }
    }

    /// Runs every fleet in-process under `runner`/`schedule` and merges
    /// the reports into table rows. This is the classic sweep path —
    /// `experiments sweep … --workers N` without a store or processes —
    /// and the reference every other path's tables are byte-compared
    /// against; all of them end in [`rows_from_reports`], so they agree
    /// by construction.
    pub fn rows_in_process(&self, runner: &BatchRunner, schedule: SessionSchedule) -> SweepRows {
        let reports: Vec<BatchReport> = self
            .fleets()
            .into_iter()
            .map(|(fleet, _)| {
                visit_fleet(*self, fleet, FleetRun { runner, schedule })
                    .expect("spec.fleets() names only visitable fleets")
            })
            .collect();
        rows_from_reports(*self, &reports)
    }

    /// Runs every fleet in-process through its durable store
    /// `<prefix>.<fleet>.cps` (see the module docs) and merges the
    /// reports into table rows — `None` when the crash budget, which
    /// applies per fleet, stopped a fleet dead: everything not yet in
    /// its store is lost, and a `resume` run continues from there.
    pub fn rows_durable(
        &self,
        prefix: &Path,
        opts: &PoolRunOpts,
    ) -> Result<Option<SweepRows>, PoolError> {
        let mut reports = Vec::new();
        for (fleet, _) in self.fleets() {
            let run = DurableRun {
                path: store_path(prefix, fleet),
                opts,
            };
            let visited = visit_fleet(*self, fleet, run);
            let Some(report) = visited.expect("spec.fleets() names only visitable fleets")? else {
                return Ok(None);
            };
            reports.push(report);
        }
        Ok(Some(rows_from_reports(*self, &reports)))
    }
}

/// Why a sweep across processes or through a store failed.
#[derive(Debug)]
pub enum PoolError {
    /// Spawning or talking to a worker failed at the OS level.
    Io(std::io::Error),
    /// A checkpoint store or ledger could not be opened or written.
    Store(StoreError),
    /// A worker process exited unsuccessfully before the sweep completed.
    WorkerFailed {
        /// Which worker failed (its `--worker-id`).
        worker: usize,
        /// Its exit code (`None`: killed by a signal).
        code: Option<i32>,
    },
    /// A worker violated the fabric protocol, or the ledger did not
    /// cover the instance space when the sweep ended.
    Protocol(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "sweep I/O error: {e}"),
            PoolError::Store(e) => write!(f, "sweep store error: {e}"),
            PoolError::WorkerFailed { worker, code } => match code {
                Some(c) => write!(f, "worker {worker} failed with exit code {c}"),
                None => write!(f, "worker {worker} was killed by a signal"),
            },
            PoolError::Protocol(what) => write!(f, "worker protocol violation: {what}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Io(e) => Some(e),
            PoolError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PoolError {
    fn from(e: std::io::Error) -> Self {
        PoolError::Io(e)
    }
}

impl From<StoreError> for PoolError {
    fn from(e: StoreError) -> Self {
        PoolError::Store(e)
    }
}

/// Options of a durable in-process sweep ([`SweepSpec::rows_durable`]).
#[derive(Clone, Debug, Default)]
pub struct PoolRunOpts {
    /// Recover existing stores and continue from their last persisted
    /// boundaries; without it, a leftover store file is an error
    /// (stale-store protection), never silently reused.
    pub resume: bool,
    /// Tokens between persisted checkpoints (clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Testing hook: per fleet, stop dead after feeding this many
    /// tokens — the deterministic crash model.
    pub crash_after_tokens: Option<u64>,
    /// Batch-scheduler threads (clamped to ≥ 1). Reports are
    /// worker-count independent, so this only changes the wall clock.
    pub workers: usize,
}

/// The table rows a sweep produced, whatever path computed them.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepRows {
    /// E6 rows.
    E6(Vec<E6Row>),
    /// F1 rows.
    F1(Vec<SeparationRow>),
    /// F3 rows.
    F3(Vec<F3Row>),
    /// F4 rows (the header names the language parameter).
    F4 {
        /// Language parameter the budgets were swept at.
        k: u32,
        /// The per-budget rows.
        rows: Vec<F4Row>,
    },
}

impl SweepRows {
    /// Prints the table with the same row formatters the all-tables
    /// binary uses, so every path prints byte-identical tables.
    pub fn print(&self) {
        match self {
            SweepRows::E6(rows) => print_e6_rows(rows),
            SweepRows::F1(rows) => print_f1_rows(rows),
            SweepRows::F3(rows) => print_f3_rows(rows),
            SweepRows::F4 { k, rows } => print_f4_rows(*k, rows),
        }
    }
}

/// Folds per-fleet [`BatchReport`]s (in [`SweepSpec::fleets`] order)
/// into table rows — the **single row-merge definition** every path
/// ends in: the in-process sweep, the durable run, and the fabric's
/// ledger all call this, which is why their printed tables are
/// byte-identical by construction.
pub fn rows_from_reports(spec: SweepSpec, reports: &[BatchReport]) -> SweepRows {
    match spec {
        SweepSpec::E6 { k_max } => SweepRows::E6(e6_rows_from_report(k_max, &reports[0])),
        SweepSpec::F1 { .. } => {
            SweepRows::F1(separation_rows_from_reports(1, &reports[0], &reports[1]))
        }
        SweepSpec::F3 { k_max, .. } => SweepRows::F3(f3_rows_from_reports(k_max, reports)),
        SweepSpec::F4 { k, .. } => SweepRows::F4 {
            k,
            rows: f4_rows_from_reports(k, reports),
        },
    }
}

/// The store file `<prefix>.<name>.cps`: a durable sweep's store for
/// fleet `name`, or the `ledger` of `sweep --processes`. Fleet names
/// never collide with `ledger`.
pub(crate) fn store_path(prefix: &Path, name: &str) -> PathBuf {
    let mut os = prefix.as_os_str().to_os_string();
    os.push(format!(".{name}.cps"));
    PathBuf::from(os)
}

/// Every checkpoint store file under `prefix`, sorted: the `.cps` files
/// whose names extend the prefix's file name **at a `.` boundary** (the
/// shape `sweep --store` writes), or `prefix` itself when it names a
/// regular file, whatever its extension (a fabric coordinator's
/// `--store` ledger is written at exactly the path it was given; opening
/// a file that is not a store fails with `StoreError::NotAStore`). The
/// separator requirement keeps sibling runs apart: `store compact
/// /data/run1` must never touch `/data/run10.e6.cps`. This is what
/// `experiments store compact|stats PREFIX` iterates — the operator
/// passes the same prefix they swept with.
pub fn find_store_files(prefix: &Path) -> std::io::Result<Vec<PathBuf>> {
    if prefix.is_file() {
        return Ok(vec![prefix.to_path_buf()]);
    }
    let Some(stem) = prefix.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Ok(Vec::new());
    };
    let stem_dot = format!("{stem}.");
    let dir = match prefix.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if file_name.starts_with(&stem_dot) && file_name.ends_with(".cps") {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

fn open_store<D: Checkpointable>(path: &Path, resume: bool) -> Result<CheckpointStore, StoreError> {
    if resume {
        // A durable sweep is its stores' single writer, and resume only
        // runs after the previous run died — the one situation where
        // breaking an orphaned lock is sound. (A kill before the first
        // append leaves a lock but no store file; break the orphan
        // either way.)
        CheckpointStore::break_lock(path)?;
        if path.exists() {
            return CheckpointStore::recover_for::<D>(path).map(|(store, _)| store);
        }
    }
    // Fresh runs refuse stale stores (`StoreError::AlreadyExists`).
    CheckpointStore::create_for::<D>(path)
}

/// One visit to a fleet's task function with its concrete decider type.
///
/// [`SweepSpec::fleets`] names the fleets, but each fleet's task builds
/// a *different* decider type, so running "fleet X of spec S" needs a
/// generic call site per fleet. This trait inverts that: a scheduler
/// implements `visit` once, generically, and [`visit_fleet`] owns the
/// single spec-to-task dispatch — the in-process sweep, the durable
/// sweep and the fabric worker all go through it, which is how their
/// instance derivations stay identical by construction.
trait FleetVisitor {
    /// What the visit produces.
    type Out;
    /// Runs against one fleet: `count` instances, each the pure function
    /// `task` of its global index.
    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        F: Fn(usize) -> (D, W) + Sync;
}

/// Dispatches `visitor` to `fleet`'s task function, or `None` when the
/// spec has no fleet of that name. The **only** place that pairs fleet
/// names with task functions.
fn visit_fleet<V: FleetVisitor>(spec: SweepSpec, fleet: &str, visitor: V) -> Option<V::Out> {
    match spec {
        SweepSpec::E6 { k_max } => {
            (fleet == "e6").then(|| visitor.visit(e6_instance_count(k_max), e6_task))
        }
        SweepSpec::F1 { k_max } => {
            let seeds = f1_seeds(k_max);
            let n = seeds.len();
            match fleet {
                "quantum" => Some(visitor.visit(n, move |i| separation_quantum_task(1, &seeds, i))),
                "classical" => {
                    Some(visitor.visit(n, move |i| separation_classical_task(1, &seeds, i)))
                }
                _ => None,
            }
        }
        SweepSpec::F3 { k_max, trials } => (1..=k_max)
            .find(|&k| f3_fleet_name(k) == fleet)
            .map(|k| visitor.visit(trials, move |i| f3_fingerprint_task(k, i))),
        SweepSpec::F4 { k, trials } => f4_budgets(k)
            .into_iter()
            .find(|&budget| f4_fleet_name(budget) == fleet)
            .map(|budget| visitor.visit(trials, move |i| f4_sketch_task(k, budget, i))),
    }
}

/// Runs one whole fleet through its durable store — the durable
/// sweep's execution primitive. Produces `None` when the token budget
/// crashed the fleet mid-run.
struct DurableRun<'a> {
    path: PathBuf,
    opts: &'a PoolRunOpts,
}

impl FleetVisitor for DurableRun<'_> {
    type Out = Result<Option<BatchReport>, PoolError>;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let mut store = open_store::<D>(&self.path, self.opts.resume)?;
        Ok(
            BatchRunner::new(self.opts.workers.max(1)).run_resumable_budgeted(
                count,
                self.opts.checkpoint_every.max(1),
                &mut store,
                self.opts.crash_after_tokens.unwrap_or(u64::MAX),
                task,
            )?,
        )
    }
}

/// Runs one whole fleet in-process under a runner and schedule — the
/// in-process sweep's execution primitive.
struct FleetRun<'a> {
    runner: &'a BatchRunner,
    schedule: SessionSchedule,
}

impl FleetVisitor for FleetRun<'_> {
    type Out = BatchReport;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        self.runner.run(count, self.schedule, task)
    }
}

/// Runs an explicit index set of one fleet, in the given order — the
/// fabric worker's execution primitive (a leased range is such a set).
struct IndicesRun<'a> {
    indices: &'a [usize],
    workers: usize,
}

impl FleetVisitor for IndicesRun<'_> {
    type Out = Result<Vec<RunOutcome>, PoolError>;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        if let Some(&bad) = self.indices.iter().find(|&&i| i >= count) {
            return Err(PoolError::Protocol(format!(
                "instance index {bad} out of range for a fleet of {count}"
            )));
        }
        let runner = BatchRunner::new(self.workers.max(1));
        Ok(runner
            .run(self.indices.len(), SessionSchedule::Uninterrupted, |j| {
                task(self.indices[j])
            })
            .outcomes)
    }
}

/// Runs `indices` of `spec`'s fleet `fleet` across `workers` threads and
/// returns their outcomes in `indices` order. Unknown fleets and
/// out-of-range indices are protocol errors — the fabric worker calls
/// this with coordinator-granted ranges, and a bad grant must surface,
/// not panic.
pub fn fleet_outcomes(
    spec: SweepSpec,
    fleet: &str,
    indices: &[usize],
    workers: usize,
) -> Result<Vec<RunOutcome>, PoolError> {
    visit_fleet(spec, fleet, IndicesRun { indices, workers }).unwrap_or_else(|| {
        Err(PoolError::Protocol(format!(
            "sweep {:?} has no fleet {fleet:?}",
            spec.name()
        )))
    })
}

/// An incrementally-merged sweep result: one slot per instance of every
/// fleet in `spec`, filled from `(fleet, index, outcome)` reports as
/// they arrive. The fabric coordinator feeds it one `OUTCOME` line at a
/// time and asks it when ranges — and the whole sweep — are complete.
pub struct OutcomeLedger {
    spec: SweepSpec,
    fleets: Vec<(&'static str, usize)>,
    slots: Vec<Vec<Option<RunOutcome>>>,
    remaining: usize,
}

impl OutcomeLedger {
    /// An empty ledger covering every instance of every fleet of `spec`.
    pub fn new(spec: SweepSpec) -> Self {
        let fleets = spec.fleets();
        let slots: Vec<Vec<Option<RunOutcome>>> =
            fleets.iter().map(|&(_, count)| vec![None; count]).collect();
        let remaining = fleets.iter().map(|&(_, count)| count).sum();
        OutcomeLedger {
            spec,
            fleets,
            slots,
            remaining,
        }
    }

    /// The position of `fleet` in [`SweepSpec::fleets`] order.
    pub fn fleet_index(&self, fleet: &str) -> Option<usize> {
        self.fleets.iter().position(|&(name, _)| name == fleet)
    }

    fn slot_mut(&mut self, fleet: &str, idx: usize) -> Result<&mut Option<RunOutcome>, PoolError> {
        let f = self
            .fleet_index(fleet)
            .ok_or_else(|| PoolError::Protocol(format!("unknown fleet {fleet:?}")))?;
        self.slots[f]
            .get_mut(idx)
            .ok_or_else(|| PoolError::Protocol(format!("fleet {fleet:?} index {idx} out of range")))
    }

    /// Records an outcome idempotently: a re-leased or stolen range is
    /// legitimately re-executed. Every instance is a pure function of its
    /// index, so a duplicate report must be *identical*; returns
    /// `Ok(true)` for a fresh outcome, `Ok(false)` for an identical
    /// duplicate, and a protocol error for a conflicting one (a worker
    /// computing the wrong sweep).
    pub fn merge(
        &mut self,
        fleet: &str,
        idx: usize,
        outcome: RunOutcome,
    ) -> Result<bool, PoolError> {
        let slot = self.slot_mut(fleet, idx)?;
        match slot {
            Some(existing) if *existing == outcome => Ok(false),
            Some(existing) => Err(PoolError::Protocol(format!(
                "fleet {fleet:?} index {idx} re-reported with a conflicting outcome \
                 ({existing:?} vs {outcome:?})"
            ))),
            None => {
                *slot = Some(outcome);
                self.remaining -= 1;
                Ok(true)
            }
        }
    }

    /// Whether every instance of `start..end` in fleet `fleet_idx` (by
    /// [`SweepSpec::fleets`] position) has an outcome. Out-of-range
    /// ranges are simply not complete.
    pub fn range_complete(&self, fleet_idx: usize, start: usize, end: usize) -> bool {
        self.slots
            .get(fleet_idx)
            .and_then(|slots| slots.get(start..end))
            .is_some_and(|range| range.iter().all(Option::is_some))
    }

    /// Instances still missing an outcome, across all fleets.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether the whole sweep has been reported.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// Folds the filled slots into table rows; errors if any fleet still
    /// has missing instances.
    pub fn into_rows(self) -> Result<SweepRows, PoolError> {
        let mut reports = Vec::with_capacity(self.fleets.len());
        for (&(name, _), fleet_slots) in self.fleets.iter().zip(self.slots) {
            let outcomes: Option<Vec<RunOutcome>> = fleet_slots.into_iter().collect();
            let outcomes = outcomes.ok_or_else(|| {
                PoolError::Protocol(format!("fleet {name:?} is missing instance outcomes"))
            })?;
            reports.push(BatchReport::from_outcomes(outcomes));
        }
        Ok(rows_from_reports(self.spec, &reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_and_f4_specs_describe_their_fleets() {
        let f3 = SweepSpec::F3 {
            k_max: 3,
            trials: 10,
        };
        assert_eq!(
            f3.fleets(),
            vec![("k1", 10), ("k2", 10), ("k3", 10)],
            "one fleet per k"
        );
        assert_eq!(f3.name(), "f3");
        assert_eq!(f3.trials(), Some(10));
        let f4 = SweepSpec::F4 { k: 1, trials: 7 };
        assert_eq!(
            f4.fleets(),
            vec![("b1", 7), ("b2", 7), ("b4", 7)],
            "budgets capped at m = 4 when k = 1"
        );
        assert_eq!(f4.k_max(), 1);
        assert_eq!(
            SweepSpec::from_cli("f4", 2, 9),
            Some(SweepSpec::F4 { k: 2, trials: 9 })
        );
        assert_eq!(
            SweepSpec::from_cli("e6", 2, 9),
            Some(SweepSpec::E6 { k_max: 2 })
        );
    }

    #[test]
    fn find_store_files_matches_the_shard_naming() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oqsc-find-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prefix = dir.join("sweep");
        for name in [
            "sweep.quantum.cps",
            "sweep.classical.cps",
            "sweep.ledger.cps",
            "sweep.quantum.cps.lock",
            "other.e6.cps",
            // A sibling run whose name merely *starts with* the prefix:
            // the `.` separator requirement must keep it out.
            "sweep2.e6.cps",
            "sweep.notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let found = find_store_files(&prefix).expect("scan");
        let names: Vec<String> = found
            .iter()
            .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [
                "sweep.classical.cps",
                "sweep.ledger.cps",
                "sweep.quantum.cps"
            ]
        );
        // A direct path to one store file is accepted as-is, with or
        // without the `.cps` extension (a fabric coordinator's ledger).
        let one = find_store_files(&dir.join("other.e6.cps")).expect("scan");
        assert_eq!(one.len(), 1);
        std::fs::write(dir.join("ledger"), b"x").expect("write");
        let ledger = find_store_files(&dir.join("ledger")).expect("scan");
        assert_eq!(ledger, [dir.join("ledger")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_merge_is_idempotent_but_rejects_conflicts() {
        let spec = SweepSpec::E6 { k_max: 2 };
        let mut ledger = OutcomeLedger::new(spec);
        assert_eq!(ledger.remaining(), 4);
        assert!(!ledger.is_complete());
        let out = RunOutcome {
            accept: true,
            classical_bits: 5,
            peak_qubits: 2,
            peak_amplitudes: 4,
        };
        assert!(ledger.merge("e6", 1, out).expect("fresh"));
        // An identical re-report (a re-leased range re-executed) is fine
        // and changes nothing.
        assert!(!ledger.merge("e6", 1, out).expect("duplicate"));
        assert_eq!(ledger.remaining(), 3);
        // A *conflicting* re-report means a worker computed the wrong
        // instance — protocol error.
        let mut other = out;
        other.classical_bits += 1;
        assert!(matches!(
            ledger.merge("e6", 1, other),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            ledger.merge("nope", 0, out),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            ledger.merge("e6", 99, out),
            Err(PoolError::Protocol(_))
        ));
        assert!(!ledger.range_complete(0, 0, 4));
        assert!(ledger.range_complete(0, 1, 2));
        assert!(
            !ledger.range_complete(0, 2, 99),
            "out of range is not complete"
        );
        for idx in [0, 2, 3] {
            ledger
                .merge("e6", idx, RunOutcome::default())
                .expect("fresh");
        }
        assert!(ledger.is_complete());
        assert!(ledger.range_complete(0, 0, 4));
        assert!(ledger.into_rows().is_ok());
        // The rows need every instance: a ledger still missing one
        // cannot fold.
        let mut partial = OutcomeLedger::new(spec);
        for idx in 0..3 {
            partial
                .merge("e6", idx, RunOutcome::default())
                .expect("fresh");
        }
        assert!(matches!(partial.into_rows(), Err(PoolError::Protocol(_))));
    }

    #[test]
    fn fleet_outcomes_runs_granted_ranges_and_rejects_bad_grants() {
        let spec = SweepSpec::E6 { k_max: 3 };
        // A leased range must reproduce exactly the whole fleet's
        // outcomes for the same indices.
        let reference = BatchRunner::serial().run(
            e6_instance_count(3),
            SessionSchedule::Uninterrupted,
            e6_task,
        );
        let indices: Vec<usize> = (2..5).collect();
        let ranged = fleet_outcomes(spec, "e6", &indices, 2).expect("runs");
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(ranged[j], reference.outcomes[i], "index {i}");
        }
        assert!(matches!(
            fleet_outcomes(spec, "f9", &[0], 1),
            Err(PoolError::Protocol(_))
        ));
        assert!(matches!(
            fleet_outcomes(spec, "e6", &[10_000], 1),
            Err(PoolError::Protocol(_))
        ));
    }
}
