//! Cross-process sweep scheduling: shard an experiment over OS worker
//! processes, optionally persisting checkpoints so a killed worker can
//! be resumed.
//!
//! Threads (PR 2) and thread-migration (PR 3) scale a sweep inside one
//! address space; [`ProcessPool`] is the next axis: the parent spawns
//! the `experiments` binary in **worker mode** once per shard
//! (`--worker --sweep … --shard w --of P`), each worker re-derives its
//! instances from the sweep's pure per-index task functions (nothing
//! but indices crosses the process boundary), runs them serially, and
//! prints one `OUTCOME` line per instance on stdout. The parent merges
//! the shard outcomes into index-ordered [`BatchReport`]s and folds
//! them into the same table rows the in-process sweep produces — so a
//! 1/2/4-process run prints tables byte-identical to `--workers N`
//! in-process runs (the process-pool suite pins this).
//!
//! With a store prefix, each worker persists its sessions into its own
//! single-writer shard file
//! (`<prefix>.<fleet>.shard<w>of<P>.cps`) every `checkpoint_every`
//! tokens via [`BatchRunner::run_resumable_budgeted`]. A killed worker
//! (simulated deterministically by `--crash-after-tokens`, which makes
//! the worker stop dead mid-segment and exit with
//! [`WORKER_CRASH_EXIT`]) loses only its unpersisted tail: re-running
//! the pool with `resume` recovers each shard store, salvages the valid
//! record prefix, breaks the dead writer's orphaned lock, and continues
//! from the last persisted boundaries — producing the identical table.
//! Resuming must reuse the same process count: the shard file name
//! encodes `w` and `P`, so a different `P` simply starts fresh shards
//! rather than misassigning instances.

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
use std::process::{Command, Stdio};

/// Exit code a worker uses when its token budget ran dry — the
/// deterministic stand-in for being killed mid-sweep. The parent maps
/// it to [`PoolError::WorkerCrashed`]; anything non-zero and different
/// is a real failure ([`PoolError::WorkerFailed`]).
pub const WORKER_CRASH_EXIT: i32 = 9;

/// How much of a worker's stderr an error carries, bounded so a runaway
/// child cannot balloon the parent's error path.
const STDERR_TAIL_BYTES: usize = 4096;

/// Bytes of the *head* kept when stderr overflows the budget. Rust
/// prints a panic message first and the (possibly huge, under
/// `RUST_BACKTRACE`) backtrace after it, while store/CLI errors are
/// final lines — keeping both ends preserves each.
const STDERR_HEAD_BYTES: usize = 1024;

/// At most [`STDERR_TAIL_BYTES`] of a worker's stderr, lossily decoded
/// and trimmed. Oversized output keeps the first [`STDERR_HEAD_BYTES`]
/// (where a panic message lives) and the trailing remainder (where
/// final error lines live), with `…` marking the elision.
fn stderr_tail(stderr: &[u8]) -> String {
    if stderr.len() <= STDERR_TAIL_BYTES {
        return String::from_utf8_lossy(stderr).trim_end().to_string();
    }
    let head = String::from_utf8_lossy(&stderr[..STDERR_HEAD_BYTES]);
    let tail_start = stderr.len() - (STDERR_TAIL_BYTES - STDERR_HEAD_BYTES);
    let tail = String::from_utf8_lossy(&stderr[tail_start..]);
    format!("{head}…{}", tail.trim_end())
}

/// Per-`k` fleet names for the F3 sweep (static, because outcome triples
/// carry `&'static str` fleet names across the worker protocol; the
/// table is the contract's bound, independent of the CLI's own `--k-max`
/// cap).
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
/// engine drives it in-process ([`SweepSpec::rows_in_process`]), sharded
/// over worker processes ([`ProcessPool`]), and crash-recoverably
/// through the persistent store. Every instance must be a pure function
/// of its index (and the spec), so a worker process can re-derive its
/// shard from the spec alone.
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
    /// CLI name (`--sweep e6|f1|f3|f4`).
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
    /// `experiments --sweep … --workers N` without a store or process
    /// pool — and the reference the cross-process tables are
    /// byte-compared against; both end in [`rows_from_reports`], so they
    /// agree by construction.
    pub fn rows_in_process(&self, runner: &BatchRunner, schedule: SessionSchedule) -> SweepRows {
        let reports: Vec<BatchReport> = match *self {
            SweepSpec::E6 { k_max } => {
                vec![runner.run(e6_instance_count(k_max), schedule, e6_task)]
            }
            SweepSpec::F1 { k_max } => {
                let seeds = f1_seeds(k_max);
                vec![
                    runner.run(seeds.len(), schedule, |i| {
                        separation_quantum_task(1, &seeds, i)
                    }),
                    runner.run(seeds.len(), schedule, |i| {
                        separation_classical_task(1, &seeds, i)
                    }),
                ]
            }
            SweepSpec::F3 { k_max, trials } => (1..=k_max)
                .map(|k| runner.run(trials, schedule, |i| f3_fingerprint_task(k, i)))
                .collect(),
            SweepSpec::F4 { k, trials } => f4_budgets(k)
                .into_iter()
                .map(|budget| runner.run(trials, schedule, |i| f4_sketch_task(k, budget, i)))
                .collect(),
        };
        rows_from_reports(*self, &reports)
    }
}

/// Why a cross-process sweep failed.
#[derive(Debug)]
pub enum PoolError {
    /// Spawning or talking to a worker failed at the OS level.
    Io(std::io::Error),
    /// A shard checkpoint store could not be opened or written.
    Store(StoreError),
    /// A worker exited with a real error (not the crash exit).
    WorkerFailed {
        /// Which shard failed.
        shard: usize,
        /// Its exit code (`None`: killed by a signal).
        code: Option<i32>,
        /// The tail of the worker's stderr (panic message included), for
        /// the operator.
        stderr: String,
    },
    /// A worker hit its token budget and stopped dead (exit
    /// [`WORKER_CRASH_EXIT`]); resume the pool to continue.
    WorkerCrashed {
        /// Which shard crashed.
        shard: usize,
        /// The tail of the worker's stderr (what it said on its way
        /// down).
        stderr: String,
    },
    /// A worker's stdout violated the `OUTCOME` protocol, or the merged
    /// shards did not cover the instance space exactly once.
    Protocol(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "process pool I/O error: {e}"),
            PoolError::Store(e) => write!(f, "process pool store error: {e}"),
            PoolError::WorkerFailed {
                shard,
                code,
                stderr,
            } => match code {
                Some(c) => write!(
                    f,
                    "worker shard {shard} failed with exit code {c}: {stderr}"
                ),
                None => write!(f, "worker shard {shard} was killed by a signal: {stderr}"),
            },
            PoolError::WorkerCrashed { shard, stderr } => {
                write!(
                    f,
                    "worker shard {shard} crashed (token budget exhausted); resume to continue"
                )?;
                if !stderr.is_empty() {
                    write!(f, ": {stderr}")?;
                }
                Ok(())
            }
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

/// Per-run options shared by worker mode and the parent pool.
#[derive(Clone, Debug, Default)]
pub struct PoolRunOpts {
    /// Persist checkpoints under this path prefix (one store file per
    /// fleet per shard). `None`: run without persistence.
    pub store_prefix: Option<PathBuf>,
    /// Recover existing shard stores and continue from their last
    /// persisted boundaries; without it, a leftover store file is an
    /// error (stale-store protection), never silently reused.
    pub resume: bool,
    /// Tokens between persisted checkpoints (clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Testing hook: per fleet, stop dead after feeding this many
    /// tokens — the deterministic crash model. Requires a store prefix.
    pub crash_after_tokens: Option<u64>,
    /// Batch-scheduler threads *inside each worker* (clamped to ≥ 1;
    /// `Default` = 1, one serial sweep per process). Reports are
    /// worker-count independent, so this only changes the wall clock.
    pub workers: usize,
}

/// The per-shard identity of one worker invocation.
#[derive(Clone, Copy, Debug)]
pub struct ShardId {
    /// This worker's shard index, `0 ≤ shard < of`.
    pub shard: usize,
    /// Total number of shards in the pool.
    pub of: usize,
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
/// ends in: the in-process sweep, the single-process persistent run,
/// and the merged cross-process shards all call this, which is why
/// their printed tables are byte-identical by construction.
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

/// The store file owned by `(fleet, shard)` under `prefix`. Single
/// writer by construction: no two workers ever share a path, and the
/// name encodes the pool width so resuming at a different width starts
/// fresh instead of misassigning instances.
pub fn shard_store_path(prefix: &Path, fleet: &str, shard: ShardId) -> PathBuf {
    let mut os = prefix.as_os_str().to_os_string();
    os.push(format!(".{fleet}.shard{}of{}.cps", shard.shard, shard.of));
    PathBuf::from(os)
}

/// Every checkpoint store file under `prefix`, sorted: the `.cps` files
/// whose names extend the prefix's file name **at a `.` boundary** (the
/// shape [`shard_store_path`] writes), or `prefix` itself when it names
/// a regular file, whatever its extension (a fabric coordinator's
/// `--store` ledger is written at exactly the path it was given; opening
/// a file that is not a store fails with `StoreError::NotAStore`). The
/// separator requirement keeps sibling runs apart: `--compact
/// /data/run1` must never touch `/data/run10.e6.shard0of2.cps`. This is
/// what `experiments --compact PREFIX` iterates — the operator passes
/// the same prefix they swept with.
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

fn open_shard_store<D: Checkpointable>(
    path: &Path,
    resume: bool,
) -> Result<CheckpointStore, StoreError> {
    if resume {
        // The scheduler owns these single-writer shard files, and resume
        // only runs after the parent reaped the previous worker — the
        // one situation where breaking an orphaned lock is sound. (A
        // kill before the first append leaves a lock but no store file;
        // break the orphan either way.)
        CheckpointStore::break_lock(path)?;
        if path.exists() {
            return CheckpointStore::recover_for::<D>(path).map(|(store, _)| store);
        }
    }
    // Fresh runs refuse stale stores (`StoreError::AlreadyExists`).
    CheckpointStore::create_for::<D>(path)
}

/// The strided global indices `shard` owns out of a fleet of `count`
/// instances — the pool's one sharding rule, shared so every scheduler
/// that claims "shard w of P" means exactly the same instance set.
pub fn shard_indices(shard: ShardId, count: usize) -> Vec<usize> {
    (shard.shard..count).step_by(shard.of.max(1)).collect()
}

/// One visit to a fleet's task function with its concrete decider type.
///
/// [`SweepSpec::fleets`] names the fleets, but each fleet's task builds
/// a *different* decider type, so running "fleet X of spec S" needs a
/// generic call site per fleet. This trait inverts that: a scheduler
/// implements `visit` once, generically, and [`visit_fleet`] owns the
/// single spec-to-task dispatch — the process-pool shard runner and the
/// fabric worker both go through it, which is how their instance
/// derivations stay identical by construction.
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

/// Runs one fleet's shard (strided indices, optional persistent store).
/// Produces `Ok(true)` when the token budget crashed the fleet mid-run
/// (outcomes gathered so far are discarded — a crash loses everything
/// that is not in the store).
struct ShardRun<'a> {
    fleet: &'static str,
    shard: ShardId,
    opts: &'a PoolRunOpts,
    out: &'a mut WorkerOutcomes,
}

impl FleetVisitor for ShardRun<'_> {
    type Out = Result<bool, PoolError>;

    fn visit<D, W, F>(self, count: usize, task: F) -> Self::Out
    where
        D: Checkpointable,
        W: IntoIterator<Item = oqsc_lang::Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let indices = shard_indices(self.shard, count);
        let local_task = |j: usize| task(indices[j]);
        let runner = BatchRunner::new(self.opts.workers.max(1));
        let report = match &self.opts.store_prefix {
            Some(prefix) => {
                let path = shard_store_path(prefix, self.fleet, self.shard);
                let mut store = open_shard_store::<D>(&path, self.opts.resume)?;
                let budget = self.opts.crash_after_tokens.unwrap_or(u64::MAX);
                match runner.run_resumable_budgeted(
                    indices.len(),
                    self.opts.checkpoint_every.max(1),
                    &mut store,
                    budget,
                    local_task,
                )? {
                    Some(report) => report,
                    None => return Ok(true),
                }
            }
            None => {
                if self.opts.crash_after_tokens.is_some() {
                    return Err(PoolError::Protocol(
                        "--crash-after-tokens requires --store (a crash without \
                         persistence cannot be resumed)"
                            .into(),
                    ));
                }
                runner.run(indices.len(), SessionSchedule::Uninterrupted, local_task)
            }
        };
        for (j, outcome) in report.outcomes.iter().enumerate() {
            self.out.push((self.fleet, indices[j], *outcome));
        }
        Ok(false)
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

/// `(fleet, global index, outcome)` triples one worker reports.
pub type WorkerOutcomes = Vec<(&'static str, usize, RunOutcome)>;

/// Executes one worker's shard of `spec` and returns its outcomes — or
/// `None` when the token budget crashed it (the budget applies per
/// fleet; the first crashed fleet stops the worker, matching the
/// resume-from-store contract). This is the whole of worker mode; the
/// binary just prints the result with [`emit_outcomes`] and exits.
pub fn worker_outcomes(
    spec: SweepSpec,
    shard: ShardId,
    opts: &PoolRunOpts,
) -> Result<Option<WorkerOutcomes>, PoolError> {
    let mut out = Vec::new();
    for (fleet, _) in spec.fleets() {
        let run = ShardRun {
            fleet,
            shard,
            opts,
            out: &mut out,
        };
        let crashed =
            visit_fleet(spec, fleet, run).expect("spec.fleets() names only visitable fleets")?;
        if crashed {
            return Ok(None);
        }
    }
    Ok(Some(out))
}

/// Writes the worker protocol: one
/// `OUTCOME <fleet> <index> <accept> <bits> <qubits> <amplitudes>`
/// line per instance (the shared
/// [`fleet_outcome_line`](oqsc_serve::fleet_outcome_line) rendering the
/// fabric also speaks). [`RunOutcome`] is all integers, so the text
/// round trip is exact — merged cross-process reports are `==` to
/// in-process ones.
pub fn emit_outcomes(
    out: &mut impl std::io::Write,
    outcomes: &[(&'static str, usize, RunOutcome)],
) -> std::io::Result<()> {
    for (fleet, idx, o) in outcomes {
        writeln!(
            out,
            "{}",
            oqsc_serve::fleet_outcome_line(fleet, *idx as u64, o)
        )?;
    }
    Ok(())
}

fn parse_outcome_line(line: &str) -> Result<(String, usize, RunOutcome), PoolError> {
    let (fleet, idx, outcome) =
        oqsc_serve::parse_fleet_outcome_line(line).map_err(PoolError::Protocol)?;
    Ok((fleet, idx as usize, outcome))
}

/// An incrementally-merged sweep result: one slot per instance of every
/// fleet in `spec`, filled from `(fleet, index, outcome)` triples as
/// they arrive. This is the **single merge definition** behind both
/// batch merging ([`rows_from_outcomes`], the process pool) and the
/// fabric coordinator, which feeds it one `OUTCOME` line at a time and
/// asks it when ranges — and the whole sweep — are complete.
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

    /// Records an outcome that must be the *first* report of its
    /// instance — the process-pool contract, where shards partition the
    /// index space and any duplicate is a protocol violation.
    pub fn insert_new(
        &mut self,
        fleet: &str,
        idx: usize,
        outcome: RunOutcome,
    ) -> Result<(), PoolError> {
        let slot = self.slot_mut(fleet, idx)?;
        if slot.replace(outcome).is_some() {
            return Err(PoolError::Protocol(format!(
                "fleet {fleet:?} index {idx} reported twice"
            )));
        }
        self.remaining -= 1;
        Ok(())
    }

    /// Records an outcome idempotently — the fabric contract, where a
    /// re-leased range is legitimately re-executed. Every instance is a
    /// pure function of its index, so a duplicate report must be
    /// *identical*; returns `Ok(true)` for a fresh outcome, `Ok(false)`
    /// for an identical duplicate, and a protocol error for a
    /// conflicting one (a worker computing the wrong sweep).
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

/// Merges `(fleet, index, outcome)` triples — from any number of shards
/// — into index-ordered per-fleet [`BatchReport`]s and folds them into
/// table rows. Errors if the triples do not cover every instance of
/// every fleet exactly once.
pub fn rows_from_outcomes(
    spec: SweepSpec,
    outcomes: impl IntoIterator<Item = (String, usize, RunOutcome)>,
) -> Result<SweepRows, PoolError> {
    let mut ledger = OutcomeLedger::new(spec);
    for (fleet, idx, outcome) in outcomes {
        ledger.insert_new(&fleet, idx, outcome)?;
    }
    ledger.into_rows()
}

/// Shards a sweep over OS worker processes (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessPool {
    processes: usize,
}

impl ProcessPool {
    /// A pool of `processes` worker processes (clamped to ≥ 1).
    pub fn new(processes: usize) -> Self {
        ProcessPool {
            processes: processes.max(1),
        }
    }

    /// Configured process count.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// Runs `spec` sharded over the pool: spawns `exe` (the
    /// `experiments` binary — usually `std::env::current_exe()`) in
    /// worker mode once per shard, all concurrently, and merges their
    /// `OUTCOME` streams into table rows identical to the in-process
    /// sweep's.
    pub fn run(
        &self,
        exe: &Path,
        spec: SweepSpec,
        opts: &PoolRunOpts,
    ) -> Result<SweepRows, PoolError> {
        let mut children = Vec::with_capacity(self.processes);
        for shard in 0..self.processes {
            let mut cmd = Command::new(exe);
            cmd.arg("--worker")
                .arg("--sweep")
                .arg(spec.name())
                .arg("--k-max")
                .arg(spec.k_max().to_string())
                .arg("--shard")
                .arg(shard.to_string())
                .arg("--of")
                .arg(self.processes.to_string())
                .arg("--checkpoint-every")
                .arg(opts.checkpoint_every.max(1).to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            if let Some(trials) = spec.trials() {
                cmd.arg("--trials").arg(trials.to_string());
            }
            if opts.workers > 1 {
                cmd.arg("--workers").arg(opts.workers.to_string());
            }
            if let Some(prefix) = &opts.store_prefix {
                cmd.arg("--store").arg(prefix);
            }
            if opts.resume {
                cmd.arg("--resume");
            }
            if let Some(t) = opts.crash_after_tokens {
                cmd.arg("--crash-after-tokens").arg(t.to_string());
            }
            match cmd.spawn() {
                Ok(child) => children.push((shard, child)),
                Err(e) => {
                    // Never leave live writers behind: kill and reap the
                    // shards already launched before reporting.
                    for (_, mut child) in children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    return Err(e.into());
                }
            }
        }
        // Reap *every* worker before judging any of them: returning
        // early would leave live workers appending to their shard
        // stores, and a subsequent resume (which breaks what it assumes
        // are orphaned locks) would double-write those logs.
        let outputs: Vec<(usize, std::io::Result<std::process::Output>)> = children
            .into_iter()
            .map(|(shard, child)| (shard, child.wait_with_output()))
            .collect();
        let mut merged = Vec::new();
        let mut crashed_shard = None;
        let mut first_error = None;
        for (shard, output) in outputs {
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    first_error.get_or_insert(PoolError::Io(e));
                    continue;
                }
            };
            match output.status.code() {
                Some(0) => {
                    for line in String::from_utf8_lossy(&output.stdout).lines() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match parse_outcome_line(line) {
                            Ok(triple) => merged.push(triple),
                            Err(e) => {
                                first_error.get_or_insert(e);
                                break;
                            }
                        }
                    }
                }
                Some(WORKER_CRASH_EXIT) => {
                    crashed_shard = Some((shard, stderr_tail(&output.stderr)));
                }
                code => {
                    // A real failure (panic, store error, signal): the
                    // stderr tail carries the child's last words.
                    first_error.get_or_insert(PoolError::WorkerFailed {
                        shard,
                        code,
                        stderr: stderr_tail(&output.stderr),
                    });
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if let Some((shard, stderr)) = crashed_shard {
            return Err(PoolError::WorkerCrashed { shard, stderr });
        }
        rows_from_outcomes(spec, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_lines_round_trip() {
        let outcomes = vec![
            (
                "e6",
                3usize,
                RunOutcome {
                    accept: true,
                    classical_bits: 123,
                    peak_qubits: 7,
                    peak_amplitudes: 130,
                },
            ),
            ("e6", 0, RunOutcome::default()),
        ];
        let mut wire = Vec::new();
        emit_outcomes(&mut wire, &outcomes).expect("writes");
        let text = String::from_utf8(wire).expect("utf8");
        let parsed: Vec<_> = text
            .lines()
            .map(|l| parse_outcome_line(l).expect("parses"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "e6");
        assert_eq!(parsed[0].1, 3);
        assert_eq!(parsed[0].2, outcomes[0].2);
        assert_eq!(parsed[1].2, RunOutcome::default());
    }

    #[test]
    fn malformed_outcome_lines_are_protocol_errors() {
        for line in [
            "OUTCOM e6 0 1 2 3 4",
            "OUTCOME e6 0 2 2 3 4", // accept flag must be 0/1
            "OUTCOME e6 0 1 2 3",   // missing field
            "OUTCOME e6 0 1 2 3 4 5",
            "OUTCOME e6 x 1 2 3 4",
        ] {
            assert!(
                matches!(parse_outcome_line(line), Err(PoolError::Protocol(_))),
                "{line:?}"
            );
        }
    }

    #[test]
    fn merged_outcomes_must_cover_the_instance_space_exactly_once() {
        let spec = SweepSpec::E6 { k_max: 2 };
        let full: Vec<(String, usize, RunOutcome)> = (0..4)
            .map(|i| ("e6".to_string(), i, RunOutcome::default()))
            .collect();
        assert!(rows_from_outcomes(spec, full.clone()).is_ok());
        // A missing instance, a duplicate, an unknown fleet, and an
        // out-of-range index are each protocol violations.
        assert!(rows_from_outcomes(spec, full[..3].to_vec()).is_err());
        let mut dup = full.clone();
        dup.push(("e6".to_string(), 1, RunOutcome::default()));
        assert!(rows_from_outcomes(spec, dup).is_err());
        let mut alien = full.clone();
        alien[0].0 = "f9".to_string();
        assert!(rows_from_outcomes(spec, alien).is_err());
        let mut oob = full;
        oob[0].1 = 99;
        assert!(rows_from_outcomes(spec, oob).is_err());
    }

    #[test]
    fn stderr_tails_are_bounded_and_keep_both_ends() {
        assert_eq!(stderr_tail(b""), "");
        assert_eq!(
            stderr_tail(b"thread panicked: boom\n"),
            "thread panicked: boom"
        );
        // Oversized stderr keeps the head (where Rust prints the panic
        // message, ahead of a RUST_BACKTRACE dump) *and* the tail (where
        // final error lines land), eliding the middle.
        let mut noisy = b"thread 'main' panicked at 'boom'\n".to_vec();
        noisy.extend_from_slice(&vec![b'x'; 3 * STDERR_TAIL_BYTES]);
        noisy.extend_from_slice(b"\nerror: final line");
        let tail = stderr_tail(&noisy);
        assert!(tail.starts_with("thread 'main' panicked at 'boom'"));
        assert!(tail.contains('\u{2026}'));
        assert!(tail.ends_with("error: final line"));
        assert!(tail.len() <= STDERR_TAIL_BYTES + '\u{2026}'.len_utf8());
    }

    #[test]
    fn crash_and_failure_errors_carry_the_worker_stderr() {
        let crashed = PoolError::WorkerCrashed {
            shard: 2,
            stderr: "crashed after budget".into(),
        };
        let rendered = crashed.to_string();
        assert!(rendered.contains("shard 2"), "{rendered}");
        assert!(rendered.contains("crashed after budget"), "{rendered}");
        let failed = PoolError::WorkerFailed {
            shard: 1,
            code: Some(101),
            stderr: "thread 'main' panicked at 'boom'".into(),
        };
        let rendered = failed.to_string();
        assert!(rendered.contains("exit code 101"), "{rendered}");
        assert!(rendered.contains("panicked at 'boom'"), "{rendered}");
    }

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
    fn f3_and_f4_worker_shards_merge_to_the_in_process_rows() {
        for spec in [
            SweepSpec::F3 {
                k_max: 2,
                trials: 9,
            },
            SweepSpec::F4 { k: 2, trials: 8 },
        ] {
            let mut merged = Vec::new();
            for shard in 0..3 {
                let out = worker_outcomes(spec, ShardId { shard, of: 3 }, &PoolRunOpts::default())
                    .expect("runs")
                    .expect("no budget, no crash");
                merged.extend(
                    out.into_iter()
                        .map(|(fleet, idx, o)| (fleet.to_string(), idx, o)),
                );
            }
            let rows = rows_from_outcomes(spec, merged).expect("complete");
            let reference =
                spec.rows_in_process(&BatchRunner::new(2), SessionSchedule::Uninterrupted);
            assert_eq!(rows, reference, "{}", spec.name());
        }
    }

    #[test]
    fn find_store_files_matches_the_shard_naming() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oqsc-find-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prefix = dir.join("sweep");
        for name in [
            "sweep.e6.shard0of2.cps",
            "sweep.e6.shard1of2.cps",
            "sweep.e6.shard0of2.cps.lock",
            "other.e6.shard0of1.cps",
            // A sibling run whose name merely *starts with* the prefix:
            // the `.` separator requirement must keep it out.
            "sweep2.e6.shard0of1.cps",
            "sweep.notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let found = find_store_files(&prefix).expect("scan");
        let names: Vec<String> = found
            .iter()
            .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["sweep.e6.shard0of2.cps", "sweep.e6.shard1of2.cps"]);
        // A direct path to one store file is accepted as-is, with or
        // without the `.cps` extension (a fabric coordinator's ledger).
        let one = find_store_files(&dir.join("other.e6.shard0of1.cps")).expect("scan");
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
    }

    #[test]
    fn fleet_outcomes_runs_granted_ranges_and_rejects_bad_grants() {
        let spec = SweepSpec::E6 { k_max: 3 };
        // A leased range must reproduce exactly the shard runner's
        // outcomes for the same indices.
        let mut shard_out = Vec::new();
        let all = worker_outcomes(spec, ShardId { shard: 0, of: 1 }, &PoolRunOpts::default())
            .expect("runs")
            .expect("no crash");
        shard_out.extend(all);
        let indices: Vec<usize> = (2..5).collect();
        let ranged = fleet_outcomes(spec, "e6", &indices, 2).expect("runs");
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(ranged[j], shard_out[i].2, "index {i}");
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

    #[test]
    fn shard_indices_stride_the_instance_space() {
        assert_eq!(shard_indices(ShardId { shard: 0, of: 2 }, 5), [0, 2, 4]);
        assert_eq!(shard_indices(ShardId { shard: 1, of: 2 }, 5), [1, 3]);
        assert_eq!(shard_indices(ShardId { shard: 3, of: 4 }, 2), []);
        // A zero width is clamped rather than dividing by zero.
        assert_eq!(shard_indices(ShardId { shard: 0, of: 0 }, 3), [0, 1, 2]);
    }

    #[test]
    fn worker_outcomes_match_the_in_process_sweep() {
        // Two shards of the E6 sweep, merged, equal the one-shot rows.
        let spec = SweepSpec::E6 { k_max: 3 };
        let mut merged = Vec::new();
        for shard in 0..2 {
            let out = worker_outcomes(spec, ShardId { shard, of: 2 }, &PoolRunOpts::default())
                .expect("runs")
                .expect("no budget, no crash");
            merged.extend(
                out.into_iter()
                    .map(|(fleet, idx, o)| (fleet.to_string(), idx, o)),
            );
        }
        let rows = rows_from_outcomes(spec, merged).expect("complete");
        let reference = crate::experiments::e6_classical_rows(
            3,
            &BatchRunner::new(2),
            SessionSchedule::Uninterrupted,
        );
        match rows {
            SweepRows::E6(rows) => {
                assert_eq!(rows.len(), reference.len());
                for (a, b) in rows.iter().zip(&reference) {
                    assert_eq!(
                        (a.k, a.n, a.space_bits, a.correct),
                        (b.k, b.n, b.space_bits, b.correct)
                    );
                }
            }
            other => panic!("expected E6 rows, got {other:?}"),
        }
    }
}
