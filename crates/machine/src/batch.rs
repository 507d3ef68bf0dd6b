//! Batched streaming: many decider instances, one scheduler.
//!
//! Every experiment that sweeps `L_DISJ` instances (the Definition 2.3
//! end-to-end runs, the separation tables, the Monte-Carlo error-rate
//! estimates) used to drive one [`StreamingDecider`] at a time, leaving
//! all but one core idle. [`BatchRunner`] drives a whole fleet with one
//! **claim-next** loop: each worker claims the lowest unstarted instance
//! index from a shared counter, runs that instance to its end, and
//! claims again. A worker never idles while an instance is unclaimed —
//! a static stride would leave it waiting behind whichever heavy
//! instance fell into another worker's shard. The per-instance
//! [`RunOutcome`]s land in index-order slots, from which the fleet-wide
//! aggregates are folded serially.
//!
//! The schedules differ only in what the loop does after each full
//! segment of an instance: nothing ([`SessionSchedule::Uninterrupted`]),
//! a suspend-to-bytes-and-resume round trip
//! ([`SessionSchedule::MigrateEvery`]), or an append to a checkpoint
//! store ([`BatchRunner::run_resumable`]).
//!
//! **Determinism contract** (DESIGN.md §6): a [`BatchReport`] depends
//! only on the task factory, never on the worker count or on which
//! worker claimed which instance. Two ingredients make this hold:
//!
//! 1. the factory builds instance `i`'s decider *and* its entropy from
//!    `i` alone (callers derive per-index seeds; the factory is `Sync`
//!    and must not share mutable state across calls);
//! 2. results are written into slot `i` and aggregated by increasing
//!    index, so claim order cannot leak into the report.
//!
//! The integration suite pins this: 1, 2 and 8 workers over the same
//! seeded instance set produce `==`-identical reports.

use crate::session::{CheckpointError, Checkpointable, Session};
use crate::store::{CheckpointStore, StoreError};
use crate::streaming::{RunOutcome, StreamingDecider};
use oqsc_lang::Sym;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How a batched fleet drives its sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SessionSchedule {
    /// Each instance runs start to finish on the worker that claimed it.
    #[default]
    Uninterrupted,
    /// Every instance is suspended to its checkpoint bytes after each
    /// segment of this many tokens (clamped to ≥ 1) and resumed from
    /// those bytes by the worker that claimed it, exercising the full
    /// suspend/serialize/resume seam at every boundary. The report is
    /// identical to [`SessionSchedule::Uninterrupted`] by the checkpoint
    /// round-trip contract (DESIGN.md §7).
    MigrateEvery(usize),
}

/// A claim-next scheduler driving many [`StreamingDecider`] instances
/// concurrently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchRunner {
    workers: usize,
}

impl BatchRunner {
    /// A runner with `workers` concurrent workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
        }
    }

    /// The single-threaded runner (the reference the determinism contract
    /// compares everything else against).
    pub fn serial() -> Self {
        BatchRunner::new(1)
    }

    /// A runner sized to the machine's available parallelism.
    pub fn available() -> Self {
        BatchRunner::new(oqsc_quantum::par::available_threads())
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drives `count` decider instances under a [`SessionSchedule`].
    /// `task(i)` builds instance `i`: a fresh decider plus the symbol
    /// stream to feed it (materialized word or lazy generator — anything
    /// `IntoIterator<Item = Sym>`).
    ///
    /// Every decider in the tree is [`Checkpointable`], so the
    /// uninterrupted and the migrating schedule share this one entry
    /// point. For *persistent* schedules — checkpoints written to disk so
    /// a killed sweep can resume — see
    /// [`run_resumable`](Self::run_resumable).
    ///
    /// The factory must be deterministic per index (derive any randomness
    /// from `i`); see the module docs for the determinism contract.
    pub fn run<D, W, F>(&self, count: usize, schedule: SessionSchedule, task: F) -> BatchReport
    where
        D: Checkpointable,
        W: IntoIterator<Item = Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let (segment, boundary) = match schedule {
            SessionSchedule::Uninterrupted => (usize::MAX, Boundary::Continue),
            SessionSchedule::MigrateEvery(n) => (n, Boundary::Migrate),
        };
        self.drive(count, segment, boundary, u64::MAX, task)
            .expect("in-process checkpoint must resume")
            .expect("a u64::MAX token budget cannot be exhausted")
    }

    /// Convenience: drives one decider per materialized word under a
    /// [`SessionSchedule`].
    pub fn run_words<D, F>(
        &self,
        words: &[Vec<Sym>],
        schedule: SessionSchedule,
        make: F,
    ) -> BatchReport
    where
        D: Checkpointable,
        F: Fn(usize) -> D + Sync,
    {
        self.run(words.len(), schedule, |i| {
            (make(i), words[i].iter().copied())
        })
    }

    /// [`run`](Self::run) with **persistence**: every instance's session
    /// is suspended after each segment of `persist_every` tokens
    /// (clamped to ≥ 1) and the checkpoint appended to `store`, and when
    /// an instance finishes its final [`RunOutcome`] is persisted as an
    /// outcome record. On entry, any instance with a persisted outcome
    /// is **skipped** — its task is never built and no token is ever
    /// re-fed — while any instance with only a checkpoint resumes from
    /// it, the stream re-derived from `task(i)` and skipped to
    /// [`SessionCheckpoint::position`](crate::session::SessionCheckpoint::position);
    /// nothing but the store file has to survive a crash. The report is
    /// `==`-identical to [`run`](Self::run) whatever was (or was not) in
    /// the store, by the checkpoint round-trip contract and the exactness
    /// of the outcome encoding.
    ///
    /// The store must have been created (or recovered) for this decider
    /// type — open it with
    /// [`CheckpointStore::create_for`]/[`CheckpointStore::recover_for`]
    /// so the header tag matches `D`.
    pub fn run_resumable<D, W, F>(
        &self,
        count: usize,
        persist_every: usize,
        store: &mut CheckpointStore,
        task: F,
    ) -> Result<BatchReport, StoreError>
    where
        D: Checkpointable,
        W: IntoIterator<Item = Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        self.run_resumable_budgeted(count, persist_every, store, u64::MAX, task)
            .map(|report| report.expect("a u64::MAX token budget cannot be exhausted"))
    }

    /// [`run_resumable`](Self::run_resumable) under a **token budget**:
    /// the sweep feeds at most `token_budget` symbols in total, across
    /// all workers, before it stops dead — mid-segment, without
    /// persisting the partial segment — and returns `Ok(None)`. This is
    /// a faithful crash/preemption model: whatever was not yet appended
    /// to the store is lost, and a later call (on a freshly
    /// [`recover`](CheckpointStore::recover)ed store) resumes from the
    /// last persisted boundaries and produces the identical report. The
    /// crash/corruption suite drives this at every checkpoint boundary
    /// and at arbitrary token positions.
    ///
    /// Every token is taken from the shared budget just before it is
    /// fed, so a budget that covers the whole sweep never crashes it,
    /// whatever the worker count. With more than one worker, which
    /// instance the crash falls in is racy, but resume correctness never
    /// depends on where the crash fell. `u64::MAX` means no budget: the
    /// loop then touches no shared state per token.
    pub fn run_resumable_budgeted<D, W, F>(
        &self,
        count: usize,
        persist_every: usize,
        store: &mut CheckpointStore,
        token_budget: u64,
        task: F,
    ) -> Result<Option<BatchReport>, StoreError>
    where
        D: Checkpointable,
        W: IntoIterator<Item = Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let boundary = Boundary::Persist(Mutex::new(store));
        self.drive(count, persist_every, boundary, token_budget, task)
    }

    /// The one loop behind every schedule. Each worker claims the next
    /// unstarted index in ascending order and runs that instance to its
    /// end in segments of `segment` tokens (clamped to ≥ 1), crossing
    /// `boundary` after every full segment. The instance stays on the
    /// claiming worker: no thread-local state exists, so which thread
    /// resumes a checkpoint cannot be observed, and claims stay in index
    /// order. A finite `token_budget` is shared by all workers; when it
    /// runs dry the partial segment is lost, no worker claims again, and
    /// the call returns `Ok(None)`.
    fn drive<D, W, F>(
        &self,
        count: usize,
        segment: usize,
        boundary: Boundary<'_>,
        token_budget: u64,
        task: F,
    ) -> Result<Option<BatchReport>, StoreError>
    where
        D: Checkpointable,
        W: IntoIterator<Item = Sym>,
        F: Fn(usize) -> (D, W) + Sync,
    {
        let segment = segment.max(1);
        let next = AtomicUsize::new(0);
        let crashed = AtomicBool::new(false);
        let budget = (token_budget != u64::MAX).then(|| AtomicU64::new(token_budget));
        // One worker: claims instances until none is left or the budget
        // crashed the sweep, and returns the outcomes it finished.
        let work = || -> Result<Vec<(usize, RunOutcome)>, StoreError> {
            let mut finished = Vec::new();
            while !crashed.load(Ordering::Relaxed) {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                // An instance with a persisted outcome is *skipped*, not
                // replayed: its task is never built, its stream never
                // re-derived, zero tokens fed (the accounting suite pins
                // this with a zero-token resume budget).
                let persisted = match boundary.store() {
                    Some(mut store) => store.outcome(idx as u64)?,
                    None => None,
                };
                if let Some(outcome) = persisted {
                    finished.push((idx, outcome));
                    continue;
                }
                let (fresh, word) = task(idx);
                let mut stream = word.into_iter();
                let checkpoint = match boundary.store() {
                    Some(mut store) => store.latest(idx as u64)?,
                    None => None,
                };
                let mut session = match checkpoint {
                    Some(cp) => {
                        let session = Session::<D>::resume(&cp)?;
                        // Re-derive the stream and skip what was already fed.
                        for consumed in 0..cp.position() {
                            if stream.next().is_none() {
                                return Err(StoreError::Checkpoint(CheckpointError::Malformed(
                                    format!(
                                        "instance {idx}: checkpoint position {} beyond its \
                                         {consumed}-token stream",
                                        cp.position()
                                    ),
                                )));
                            }
                        }
                        session
                    }
                    None => Session::new(fresh),
                };
                loop {
                    match feed_segment(&mut session, &mut stream, segment, budget.as_ref()) {
                        Fed::Segment => match &boundary {
                            Boundary::Continue => {}
                            Boundary::Migrate => session = Session::resume(&session.suspend())?,
                            Boundary::Persist(store) => {
                                let cp = session.suspend();
                                store
                                    .lock()
                                    .expect("store mutex poisoned")
                                    .append(idx as u64, &cp)?;
                            }
                        },
                        Fed::End => {
                            let position = session.position();
                            let outcome = session.finish();
                            if let Some(mut store) = boundary.store() {
                                store.append_outcome(idx as u64, position, &outcome)?;
                            }
                            finished.push((idx, outcome));
                            break;
                        }
                        Fed::Dry => {
                            // Crash: the partial segment is lost.
                            crashed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
            Ok(finished)
        };
        // The calling thread is one of the workers.
        let workers = self.workers.min(count).max(1);
        let results = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut results = vec![work()];
            results.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked")),
            );
            results
        });
        let mut slots: Vec<Option<RunOutcome>> = vec![None; count];
        for result in results {
            for (idx, outcome) in result? {
                slots[idx] = Some(outcome);
            }
        }
        if crashed.load(Ordering::Relaxed) {
            return Ok(None);
        }
        Ok(Some(BatchReport::from_outcomes(
            slots
                .into_iter()
                .map(|s| s.expect("uncrashed sweeps fill every slot"))
                .collect(),
        )))
    }
}

/// What the batch loop does after each full segment of an instance.
enum Boundary<'s> {
    /// Nothing: the instance keeps feeding.
    Continue,
    /// Suspend the session to checkpoint bytes and resume it from them.
    Migrate,
    /// Append the checkpoint to the store, which also receives finished
    /// outcomes and is read on entry so a killed sweep can resume.
    Persist(Mutex<&'s mut CheckpointStore>),
}

impl<'s> Boundary<'s> {
    /// The locked store, when the loop persists.
    fn store(&self) -> Option<MutexGuard<'_, &'s mut CheckpointStore>> {
        match self {
            Boundary::Persist(store) => Some(store.lock().expect("store mutex poisoned")),
            Boundary::Continue | Boundary::Migrate => None,
        }
    }
}

/// How one [`feed_segment`] call ended.
enum Fed {
    /// A full segment was fed; the stream may hold more.
    Segment,
    /// The stream ended.
    End,
    /// The token budget ran dry before the next token was fed.
    Dry,
}

/// Feeds `session` up to `segment` tokens of `stream`. A finite `budget`
/// gives up one token before each is fed. This is the only per-token
/// loop of every schedule and runs once per segment, so the decider's
/// `feed` inlines here as it does into
/// [`run_decider_stream`](crate::streaming::run_decider_stream).
fn feed_segment<D: StreamingDecider>(
    session: &mut Session<D>,
    stream: &mut impl Iterator<Item = Sym>,
    segment: usize,
    budget: Option<&AtomicU64>,
) -> Fed {
    for _ in 0..segment {
        let Some(sym) = stream.next() else {
            return Fed::End;
        };
        if let Some(budget) = budget {
            if budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return Fed::Dry;
            }
        }
        session.feed(sym);
    }
    Fed::Segment
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::available()
    }
}

/// Aggregated result of a batched sweep: the per-instance outcomes in
/// index order plus the fleet-wide statistics the space experiments
/// record. Worker-count independent by construction (see module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-instance outcomes, indexed exactly like the submitted tasks.
    pub outcomes: Vec<RunOutcome>,
    /// How many instances accepted.
    pub accepted: usize,
    /// Fleet-wide peak classical work space, in bits.
    pub peak_classical_bits: usize,
    /// Fleet-wide peak quantum register width, in qubits.
    pub peak_qubits: usize,
    /// Fleet-wide peak stored amplitudes (the `MeteredRegister` memory
    /// observable).
    pub peak_amplitudes: usize,
}

impl BatchReport {
    /// Folds per-instance outcomes (in index order) into the fleet view.
    pub fn from_outcomes(outcomes: Vec<RunOutcome>) -> Self {
        let mut report = BatchReport {
            outcomes,
            ..BatchReport::default()
        };
        for o in &report.outcomes {
            report.accepted += usize::from(o.accept);
            report.peak_classical_bits = report.peak_classical_bits.max(o.classical_bits);
            report.peak_qubits = report.peak_qubits.max(o.peak_qubits);
            report.peak_amplitudes = report.peak_amplitudes.max(o.peak_amplitudes);
        }
        report
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Fraction of instances that accepted (0 on an empty batch).
    pub fn accept_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.accepted as f64 / self.outcomes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CheckpointStore;
    use crate::streaming::{run_decider, StoreEverything, StorePredicate};
    use oqsc_lang::token::from_str;

    fn words() -> Vec<Vec<Sym>> {
        ["1#01#", "0#0#", "111#", "0000#", "1#1#1#", "01#10#"]
            .iter()
            .map(|s| from_str(s).expect("ok"))
            .collect()
    }

    #[test]
    fn batch_matches_serial_run_decider() {
        let words = words();
        let report = BatchRunner::new(3).run_words(&words, SessionSchedule::Uninterrupted, |_| {
            StoreEverything::new(StorePredicate::ContainsOne)
        });
        assert_eq!(report.len(), words.len());
        for (i, word) in words.iter().enumerate() {
            let single = run_decider(StoreEverything::new(StorePredicate::ContainsOne), word);
            assert_eq!(report.outcomes[i], single, "instance {i}");
        }
        assert_eq!(report.accepted, 4);
        assert!((report.accept_rate() - 4.0 / 6.0).abs() < 1e-12);
        // Fleet peak = the longest word's linear space.
        let longest = words.iter().map(Vec::len).max().expect("nonempty");
        assert_eq!(report.peak_classical_bits, 2 * longest);
        assert_eq!(report.peak_qubits, 0);
    }

    #[test]
    fn report_is_worker_count_independent() {
        let words = words();
        let reference =
            BatchRunner::serial().run_words(&words, SessionSchedule::Uninterrupted, |_| {
                StoreEverything::new(StorePredicate::ContainsOne)
            });
        for workers in [2usize, 3, 8, 64] {
            let report =
                BatchRunner::new(workers).run_words(&words, SessionSchedule::Uninterrupted, |_| {
                    StoreEverything::new(StorePredicate::ContainsOne)
                });
            assert_eq!(report, reference, "workers={workers}");
        }
    }

    #[test]
    fn lazy_streams_feed_without_materializing() {
        // Generate each word on the fly from the index.
        let report = BatchRunner::new(2).run(5, SessionSchedule::Uninterrupted, |i| {
            (
                StoreEverything::new(StorePredicate::LengthEquals(i as u64)),
                (0..i).map(|_| Sym::Zero),
            )
        });
        assert_eq!(report.len(), 5);
        assert_eq!(report.accepted, 5, "every generated stream has length i");
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let report = BatchRunner::new(4).run_words(&[], SessionSchedule::Uninterrupted, |_| {
            StoreEverything::new(StorePredicate::AcceptAll)
        });
        assert!(report.is_empty());
        assert_eq!(report.accept_rate(), 0.0);
        assert_eq!(report.peak_classical_bits, 0);
    }

    /// A checkpointable counting decider for exercising the migrating
    /// scheduler: accepts iff the number of `1`s equals `target`.
    #[derive(Clone, Debug)]
    struct CountOnes {
        target: u64,
        seen: u64,
        peak: usize,
    }

    impl StreamingDecider for CountOnes {
        fn feed(&mut self, sym: Sym) {
            if sym == Sym::One {
                self.seen += 1;
            }
            self.peak = self.peak.max(64 - self.seen.leading_zeros() as usize);
        }

        fn decide(&mut self) -> bool {
            self.seen == self.target
        }

        fn space_bits(&self) -> usize {
            self.peak
        }

        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_le_bytes().to_vec()
        }
    }

    impl crate::session::Checkpointable for CountOnes {
        const TYPE_TAG: &'static str = "CountOnes";

        fn write_state(&self, out: &mut Vec<u8>) {
            crate::session::put_u64(out, self.target);
            crate::session::put_u64(out, self.seen);
            crate::session::put_usize(out, self.peak);
        }

        fn read_state(
            r: &mut crate::session::ByteReader,
        ) -> Result<Self, crate::session::CheckpointError> {
            Ok(CountOnes {
                target: r.read_u64()?,
                seen: r.read_u64()?,
                peak: r.read_usize()?,
            })
        }
    }

    #[test]
    fn migrating_schedule_reproduces_the_uninterrupted_report() {
        // Streams of different lengths (so instances finish in different
        // rounds), segments that do and do not divide the lengths, and
        // several worker counts: every combination must equal the plain
        // run exactly.
        let task = |i: usize| {
            (
                CountOnes {
                    target: (3 * i % 5) as u64,
                    seen: 0,
                    peak: 0,
                },
                (0..2 + 5 * i).map(move |j| {
                    if j % (i + 2) == 0 {
                        Sym::One
                    } else {
                        Sym::Zero
                    }
                }),
            )
        };
        let reference = BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, task);
        assert!(
            reference.accepted > 0 && reference.accepted < 7,
            "mixed verdicts"
        );
        for workers in [1usize, 2, 3, 8] {
            let runner = BatchRunner::new(workers);
            for segment in [1usize, 2, 7, 100] {
                let migrated = runner.run(7, SessionSchedule::MigrateEvery(segment), task);
                assert_eq!(migrated, reference, "workers={workers} segment={segment}");
                let scheduled = runner.run(7, SessionSchedule::MigrateEvery(segment), task);
                assert_eq!(scheduled, reference, "scheduled workers={workers}");
            }
            // The uninterrupted schedule is the classic path.
            assert_eq!(
                runner.run(7, SessionSchedule::Uninterrupted, task),
                reference
            );
        }
    }

    #[test]
    fn migrating_schedule_handles_empty_batches_and_zero_segments() {
        let empty = BatchRunner::new(4).run(0, SessionSchedule::MigrateEvery(3), |_| {
            (
                CountOnes {
                    target: 0,
                    seen: 0,
                    peak: 0,
                },
                std::iter::empty(),
            )
        });
        assert!(empty.is_empty());
        // Segment 0 clamps to 1 instead of looping forever.
        let one = BatchRunner::new(2).run(3, SessionSchedule::MigrateEvery(0), |i| {
            (
                CountOnes {
                    target: 0,
                    seen: 0,
                    peak: 0,
                },
                (0..i).map(|_| Sym::Zero),
            )
        });
        assert_eq!(one.accepted, 3);
    }

    fn count_ones_task(i: usize) -> (CountOnes, impl Iterator<Item = Sym>) {
        (
            CountOnes {
                target: (3 * i % 5) as u64,
                seen: 0,
                peak: 0,
            },
            (0..2 + 5 * i).map(move |j| {
                if j % (i + 2) == 0 {
                    Sym::One
                } else {
                    Sym::Zero
                }
            }),
        )
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oqsc-batch-unit-{}-{name}.cps", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn resumable_sweep_without_prior_state_matches_plain_run() {
        let reference =
            BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, count_ones_task);
        let path = temp_store("fresh");
        let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
        let report = BatchRunner::new(3)
            .run_resumable(7, 4, &mut store, count_ones_task)
            .expect("no store errors");
        assert_eq!(report, reference);
        assert!(store.records() > 0, "segments were persisted");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crashed_then_resumed_sweep_reproduces_the_uninterrupted_report() {
        let reference =
            BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, count_ones_task);
        let total_tokens: u64 = (0..7).map(|i| 2 + 5 * i as u64).sum();
        // Crash at every possible token position (serial runner: the
        // crash point is exact), then resume to completion.
        for crash_at in 0..=total_tokens {
            let path = temp_store(&format!("crash-{crash_at}"));
            let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
            let first = BatchRunner::serial()
                .run_resumable_budgeted(7, 3, &mut store, crash_at, count_ones_task)
                .expect("no store errors");
            if crash_at >= total_tokens {
                assert_eq!(first, Some(reference.clone()), "budget covers the sweep");
                drop(store);
            } else {
                assert_eq!(first, None, "budget {crash_at} must crash");
                drop(store);
                let (mut store, _) =
                    CheckpointStore::recover_for::<CountOnes>(&path).expect("recover");
                let resumed = BatchRunner::serial()
                    .run_resumable(7, 3, &mut store, count_ones_task)
                    .expect("resume");
                assert_eq!(resumed, reference, "crash at token {crash_at}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resumable_sweep_is_worker_count_independent() {
        let reference =
            BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, count_ones_task);
        for workers in [2usize, 5] {
            let path = temp_store(&format!("workers-{workers}"));
            let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
            let report = BatchRunner::new(workers)
                .run_resumable(7, 2, &mut store, count_ones_task)
                .expect("runs");
            assert_eq!(report, reference, "workers={workers}");
            drop(store);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn finished_instances_are_skipped_not_replayed_on_resume() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let reference =
            BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, count_ones_task);
        let path = temp_store("skip");
        let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
        let first = BatchRunner::serial()
            .run_resumable(7, 3, &mut store, count_ones_task)
            .expect("first run");
        assert_eq!(first, reference);
        assert_eq!(store.finished_instances(), 7, "every outcome persisted");
        // Resume over the complete store: the task factory must never be
        // invoked, and a zero-token budget must still complete (nothing
        // is re-fed).
        let factory_calls = AtomicUsize::new(0);
        let resumed = BatchRunner::serial()
            .run_resumable_budgeted(7, 3, &mut store, 0, |i| {
                factory_calls.fetch_add(1, Ordering::Relaxed);
                count_ones_task(i)
            })
            .expect("no store errors")
            .expect("zero tokens suffice when everything is finished");
        assert_eq!(resumed, reference);
        assert_eq!(factory_calls.load(Ordering::Relaxed), 0);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compacted_store_resumes_identically() {
        let reference =
            BatchRunner::serial().run(7, SessionSchedule::Uninterrupted, count_ones_task);
        let path = temp_store("compact-resume");
        let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
        // Crash partway: some instances finished, some mid-checkpoint.
        let crashed = BatchRunner::serial()
            .run_resumable_budgeted(7, 3, &mut store, 60, count_ones_task)
            .expect("no store errors");
        assert_eq!(crashed, None, "budget 60 < 119 total tokens");
        let before = store.len_bytes();
        let report = store.compact().expect("compact");
        assert!(report.bytes_after <= before);
        let resumed = BatchRunner::serial()
            .run_resumable(7, 3, &mut store, count_ones_task)
            .expect("resume after compact");
        assert_eq!(resumed, reference);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumable_sweep_handles_empty_batches() {
        let path = temp_store("empty");
        let mut store = CheckpointStore::create_for::<CountOnes>(&path).expect("create");
        let report = BatchRunner::new(4)
            .run_resumable(0, 1, &mut store, count_ones_task)
            .expect("runs");
        assert!(report.is_empty());
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// Counts how often it was rebuilt from checkpoint bytes: every
    /// `read_state` adds one, and `space_bits` reports the count.
    struct CountResumes {
        resumes: usize,
    }

    impl StreamingDecider for CountResumes {
        fn feed(&mut self, _sym: Sym) {}

        fn decide(&mut self) -> bool {
            true
        }

        fn space_bits(&self) -> usize {
            self.resumes
        }

        fn snapshot(&self) -> Vec<u8> {
            self.resumes.to_le_bytes().to_vec()
        }
    }

    impl crate::session::Checkpointable for CountResumes {
        const TYPE_TAG: &'static str = "CountResumes";

        fn write_state(&self, out: &mut Vec<u8>) {
            crate::session::put_usize(out, self.resumes);
        }

        fn read_state(
            r: &mut crate::session::ByteReader,
        ) -> Result<Self, crate::session::CheckpointError> {
            Ok(CountResumes {
                resumes: r.read_usize()? + 1,
            })
        }
    }

    #[test]
    fn every_segment_boundary_round_trips_or_persists() {
        const LENS: [usize; 7] = [0, 1, 6, 7, 13, 20, 21];
        let task = |i: usize| (CountResumes { resumes: 0 }, (0..LENS[i]).map(|_| Sym::Zero));
        for workers in [1usize, 2, 8] {
            let runner = BatchRunner::new(workers);
            let plain = runner.run(LENS.len(), SessionSchedule::Uninterrupted, task);
            assert!(
                plain.outcomes.iter().all(|o| o.classical_bits == 0),
                "workers={workers}: an uninterrupted run never resumes"
            );
            for segment in [1usize, 3, 7, 100] {
                // One resume from bytes per full segment.
                let boundaries: Vec<usize> = LENS.iter().map(|len| len / segment).collect();
                let migrated = runner.run(LENS.len(), SessionSchedule::MigrateEvery(segment), task);
                let resumes: Vec<usize> =
                    migrated.outcomes.iter().map(|o| o.classical_bits).collect();
                assert_eq!(resumes, boundaries, "workers={workers} segment={segment}");
                // One checkpoint per full segment plus one outcome each,
                // and no resume at all on a fresh store.
                let path = temp_store(&format!("cadence-{workers}-{segment}"));
                let mut store = CheckpointStore::create_for::<CountResumes>(&path).expect("create");
                let persisted = runner
                    .run_resumable(LENS.len(), segment, &mut store, task)
                    .expect("runs");
                assert_eq!(persisted, plain, "workers={workers} segment={segment}");
                assert_eq!(
                    store.records(),
                    boundaries.iter().sum::<usize>() + LENS.len(),
                    "workers={workers} segment={segment}"
                );
                drop(store);
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Counts every token fed to any instance, fleet-wide.
    static FED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    struct CountFed;

    impl StreamingDecider for CountFed {
        fn feed(&mut self, _sym: Sym) {
            FED.fetch_add(1, Ordering::Relaxed);
        }

        fn decide(&mut self) -> bool {
            true
        }

        fn space_bits(&self) -> usize {
            0
        }

        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    impl crate::session::Checkpointable for CountFed {
        const TYPE_TAG: &'static str = "CountFed";

        fn write_state(&self, _out: &mut Vec<u8>) {}

        fn read_state(
            _r: &mut crate::session::ByteReader,
        ) -> Result<Self, crate::session::CheckpointError> {
            Ok(CountFed)
        }
    }

    #[test]
    fn budgeted_runs_never_feed_past_the_budget() {
        let task = |i: usize| (CountFed, (0..2 + 5 * i).map(|_| Sym::Zero));
        let total: u64 = (0..7).map(|i| 2 + 5 * i as u64).sum();
        for workers in [1usize, 3, 8] {
            for budget in [0, 1, 5, 17, 40, 77, total - 1, total] {
                let path = temp_store(&format!("budget-{workers}-{budget}"));
                let mut store = CheckpointStore::create_for::<CountFed>(&path).expect("create");
                FED.store(0, Ordering::Relaxed);
                let report = BatchRunner::new(workers)
                    .run_resumable_budgeted(7, 4, &mut store, budget, task)
                    .expect("no store errors");
                let fed = FED.load(Ordering::Relaxed);
                assert!(
                    fed <= budget,
                    "workers={workers}: fed {fed} tokens on a budget of {budget}"
                );
                assert_eq!(
                    report.is_some(),
                    budget >= total,
                    "workers={workers} budget={budget}"
                );
                drop(store);
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn worker_count_clamps_to_one() {
        assert_eq!(BatchRunner::new(0).workers(), 1);
        assert!(BatchRunner::available().workers() >= 1);
        assert_eq!(
            BatchRunner::default().workers(),
            BatchRunner::available().workers()
        );
    }
}
