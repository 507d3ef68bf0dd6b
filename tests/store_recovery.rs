//! The persistent checkpoint store's contract (DESIGN.md §8–§9), pinned
//! end to end:
//!
//! * **Crash recovery** — a sweep killed at *any* token position (every
//!   checkpoint boundary and arbitrary mid-segment points), resumed
//!   from nothing but the store file, produces a `BatchReport`
//!   `==`-identical to the uninterrupted run — on the dense, parallel,
//!   sparse and adaptive backends.
//! * **Outcome records** — finished instances persist their final
//!   `RunOutcome`; a resume *skips* them (zero re-fed tokens, asserted
//!   by per-instance stream metering) instead of replaying from their
//!   last checkpoint.
//! * **Compaction** — `compact` rewrites the log to one record per
//!   instance via an atomic rename; a subsequent strict `open` + resume
//!   is bit-exact, on all four backends.
//! * **Robustness** — truncated files, bit-flipped bytes (anywhere:
//!   header, record headers, checkpoint *and outcome* payloads, raw and
//!   LZ4-compressed), unknown format versions (the retired v2 layout
//!   included), wrong decider-type tags, overflowed length
//!   fields, trailing garbage and zero-length files all return typed
//!   errors. No input panics, no input over-allocates, corrupted
//!   compressed blocks never decompress to garbage, and `recover` always
//!   salvages the longest valid record prefix — in a *single* forward
//!   pass (`scanned_records` never exceeds the salvage count by more
//!   than the one failed tail attempt).
//! * **O(1) memory** — an instrumented reader drives the streaming
//!   [`RecordScanner`] over a multi-thousand-record log and pins that
//!   peak buffered payload bytes stay bounded by one (decompressed)
//!   payload — far below the file size — and that every byte is read
//!   exactly once.
//!
//! CI runs this suite under `--release`.

use onlineq::core::sweep::{complement_sweep_in, complement_sweep_resumable_in};
use onlineq::lang::{random_member, random_nonmember, Sym};
use onlineq::machine::session::{put_bytes, put_u64, ByteReader, CheckpointError};
use onlineq::machine::{
    peek_header, BatchRunner, CheckpointStore, Checkpointable, RecordScanner, RunOutcome, Session,
    SessionCheckpoint, StoreError, StreamingDecider, COMPRESS_MIN_LEN, STORE_MAGIC,
};
use onlineq::quantum::{
    AdaptiveState, ParallelStateVector, QuantumBackend, SparseState, StateVector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// A tiny checkpointable decider for format-level tests (accepts iff it
/// saw more `1`s than `0`s).
#[derive(Clone, Debug, PartialEq, Eq)]
struct TallyDecider {
    ones: u64,
    zeros: u64,
}

impl TallyDecider {
    fn new() -> Self {
        TallyDecider { ones: 0, zeros: 0 }
    }
}

impl StreamingDecider for TallyDecider {
    fn feed(&mut self, sym: Sym) {
        match sym {
            Sym::One => self.ones += 1,
            Sym::Zero => self.zeros += 1,
            Sym::Hash => {}
        }
    }

    fn decide(&mut self) -> bool {
        self.ones > self.zeros
    }

    fn space_bits(&self) -> usize {
        128
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = self.ones.to_le_bytes().to_vec();
        out.extend_from_slice(&self.zeros.to_le_bytes());
        out
    }
}

impl Checkpointable for TallyDecider {
    const TYPE_TAG: &'static str = "TallyDecider";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ones);
        put_u64(out, self.zeros);
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        Ok(TallyDecider {
            ones: r.read_u64()?,
            zeros: r.read_u64()?,
        })
    }
}

/// Like [`TallyDecider`] but it also records the full symbol history —
/// its checkpoints grow with the stream and (being a period-3 pattern)
/// compress well, which is exactly what the compressed-payload
/// corruption batteries and the O(1)-memory scan test need.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HistoryTally {
    ones: u64,
    zeros: u64,
    history: Vec<u8>,
}

impl HistoryTally {
    fn new() -> Self {
        HistoryTally {
            ones: 0,
            zeros: 0,
            history: Vec::new(),
        }
    }
}

impl StreamingDecider for HistoryTally {
    fn feed(&mut self, sym: Sym) {
        match sym {
            Sym::One => self.ones += 1,
            Sym::Zero => self.zeros += 1,
            Sym::Hash => {}
        }
        self.history.push(match sym {
            Sym::Zero => 0,
            Sym::One => 1,
            Sym::Hash => 2,
        });
    }

    fn decide(&mut self) -> bool {
        self.ones > self.zeros
    }

    fn space_bits(&self) -> usize {
        128 + 8 * self.history.len()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_state(&mut out);
        out
    }
}

impl Checkpointable for HistoryTally {
    const TYPE_TAG: &'static str = "HistoryTally";

    fn write_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ones);
        put_u64(out, self.zeros);
        put_bytes(out, &self.history);
    }

    fn read_state(r: &mut ByteReader) -> Result<Self, CheckpointError> {
        Ok(HistoryTally {
            ones: r.read_u64()?,
            zeros: r.read_u64()?,
            history: r.read_prefixed_bytes()?.to_vec(),
        })
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "oqsc-store-recovery-{}-{name}.cps",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(lock_path(&p));
    p
}

fn lock_path(p: &std::path::Path) -> PathBuf {
    let mut os = p.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(lock_path(p));
}

fn checkpoint_at(tokens: usize) -> SessionCheckpoint {
    let mut s = Session::new(TallyDecider::new());
    for i in 0..tokens {
        s.feed(if i % 3 == 0 { Sym::One } else { Sym::Zero });
    }
    s.suspend()
}

/// A [`HistoryTally`] checkpoint after `tokens` symbols: `tokens + 30`-ish
/// bytes of period-3 pattern, so anything past ~40 tokens clears
/// [`COMPRESS_MIN_LEN`] and compresses several-fold.
fn history_checkpoint_at(tokens: usize) -> SessionCheckpoint {
    let mut s = Session::new(HistoryTally::new());
    for i in 0..tokens {
        s.feed(if i % 3 == 0 { Sym::One } else { Sym::Zero });
    }
    s.suspend()
}

/// A store with a few records of every kind — checkpoint full + dedupe
/// ref, outcome full + dedupe ref — plus the byte offsets at which each
/// append left the file, i.e. the valid truncation boundaries. The
/// truncation and bit-flip batteries walk every byte of this file, so
/// outcome records face the same hostile inputs checkpoints do.
///
/// The last `(instance, tokens)` spec must repeat an earlier `tokens`
/// under a new instance, so the store always contains a checkpoint *ref*
/// record alongside the full ones.
fn build_store_as(
    name: &str,
    tag: &str,
    checkpoint: &dyn Fn(usize) -> SessionCheckpoint,
    specs: &[(u64, usize)],
) -> (PathBuf, Vec<u64>) {
    let path = temp_path(name);
    let mut store = CheckpointStore::create(&path, tag).expect("create");
    let mut boundaries = vec![store.len_bytes()];
    for &(instance, tokens) in specs {
        store.append(instance, &checkpoint(tokens)).expect("append");
        boundaries.push(store.len_bytes());
    }
    let done = RunOutcome {
        accept: true,
        classical_bits: 128,
        peak_qubits: 0,
        peak_amplitudes: 0,
    };
    for instance in [0u64, 1] {
        // Instance 0: outcome full record; instance 1: same outcome
        // bytes, so an outcome *ref* record.
        store
            .append_outcome(instance, 8 + instance, &done)
            .expect("outcome");
        boundaries.push(store.len_bytes());
    }
    drop(store);
    (path, boundaries)
}

/// The classic tiny store: raw (sub-threshold) payloads.
fn build_store(name: &str) -> (PathBuf, Vec<u64>) {
    build_store_as(
        name,
        TallyDecider::TYPE_TAG,
        &checkpoint_at,
        &[(0, 4), (1, 6), (0, 8), (2, 6)],
    )
}

/// A store whose checkpoint payloads all clear the compression
/// threshold — every full checkpoint record on disk is LZ4-compressed.
fn build_store_compressed(name: &str) -> (PathBuf, Vec<u64>) {
    assert!(history_checkpoint_at(200).as_bytes().len() >= COMPRESS_MIN_LEN);
    build_store_as(
        name,
        HistoryTally::TYPE_TAG,
        &history_checkpoint_at,
        &[(0, 200), (1, 300), (0, 400), (2, 300)],
    )
}

// ---------------------------------------------------------------------
// Crash recovery: kill at every boundary and at arbitrary positions
// ---------------------------------------------------------------------

fn seeded_words(n: usize, seed: u64) -> Vec<Vec<Sym>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                random_member(1, &mut rng).encode()
            } else {
                random_nonmember(1, 1 + i % 3, &mut rng).encode()
            }
        })
        .collect()
}

/// Runs the complement sweep with a token budget of `crash_at`, then —
/// if it crashed — recovers the store file and resumes to completion,
/// requiring the final report to equal the uninterrupted reference.
fn crash_resume_once<B: QuantumBackend>(
    words: &[Vec<Sym>],
    reference: &onlineq::machine::BatchReport,
    every: usize,
    crash_at: u64,
    workers: usize,
    name: &str,
) {
    let path = temp_path(&format!("crash-{name}-{workers}w-{every}e-{crash_at}"));
    let runner = BatchRunner::new(workers);
    let tag = "ComplementRecognizer";
    let mut store = CheckpointStore::create(&path, tag).expect("create");
    let first =
        complement_sweep_resumable_in::<B>(words, 0xFEED, &runner, every, &mut store, crash_at)
            .expect("no store errors");
    match first {
        Some(report) => assert_eq!(&report, reference, "{name}: budget covered the sweep"),
        None => {
            drop(store);
            let (mut store, salvage) = CheckpointStore::recover(&path, tag).expect("recover");
            assert_eq!(salvage.dropped_bytes, 0, "clean kill leaves no torn tail");
            let resumed = complement_sweep_resumable_in::<B>(
                words,
                0xFEED,
                &runner,
                every,
                &mut store,
                u64::MAX,
            )
            .expect("resume")
            .expect("unlimited budget completes");
            assert_eq!(&resumed, reference, "{name}: crash at {crash_at}");
        }
    }
    cleanup(&path);
}

/// The tentpole property: a sweep killed at every checkpoint boundary —
/// and at arbitrary token positions between them — and resumed from the
/// persisted store alone reproduces the uninterrupted `BatchReport`
/// exactly, on all four backends.
#[test]
fn killed_sweeps_resume_identically_on_all_backends() {
    let words = seeded_words(4, 0x5707);
    let total: u64 = words.iter().map(|w| w.len() as u64).sum();
    let every = 5usize;
    fn check<B: QuantumBackend>(words: &[Vec<Sym>], total: u64, every: usize, name: &str) {
        let reference = complement_sweep_in::<B>(words, 0xFEED, &BatchRunner::serial());
        // Every checkpoint boundary (serial: kill points are exact) …
        let mut budgets: Vec<u64> = (0..=total).step_by(every).collect();
        // … and arbitrary mid-segment positions.
        budgets.extend(
            (0..=total)
                .step_by(7)
                .map(|b| b.saturating_add(3).min(total)),
        );
        budgets.push(total);
        for crash_at in budgets {
            crash_resume_once::<B>(words, &reference, every, crash_at, 1, name);
        }
    }
    check::<StateVector>(&words, total, every, "dense");
    check::<ParallelStateVector>(&words, total, every, "parallel-dense");
    check::<SparseState>(&words, total, every, "sparse");
    check::<AdaptiveState>(&words, total, every, "adaptive");
}

/// Multi-worker crashes are racy (the budget pool is shared across
/// worker threads), but resume correctness must hold wherever the crash
/// fell.
#[test]
fn racy_multiworker_crashes_still_resume_identically() {
    let words = seeded_words(6, 0xACE);
    let reference = complement_sweep_in::<StateVector>(&words, 0xFEED, &BatchRunner::serial());
    for crash_at in [1u64, 17, 40, 77, 120] {
        crash_resume_once::<StateVector>(&words, &reference, 4, crash_at, 3, "dense-racy");
    }
}

/// Repeated kills: crash, resume with a budget, crash again, … until
/// done. Progress is monotone and the final report is exact.
#[test]
fn repeated_crashes_make_progress_and_finish() {
    let words = seeded_words(4, 0xBEEF);
    let reference = complement_sweep_in::<SparseState>(&words, 0xFEED, &BatchRunner::serial());
    let path = temp_path("repeated");
    let tag = "ComplementRecognizer";
    let mut store = Some(CheckpointStore::create(&path, tag).expect("create"));
    let mut rounds = 0;
    let report = loop {
        rounds += 1;
        assert!(rounds < 100, "a 25-token budget must finish eventually");
        let mut s = store.take().expect("store");
        match complement_sweep_resumable_in::<SparseState>(
            &words,
            0xFEED,
            &BatchRunner::serial(),
            3,
            &mut s,
            25,
        )
        .expect("no store errors")
        {
            Some(report) => break report,
            None => {
                drop(s);
                let (s, _) = CheckpointStore::recover(&path, tag).expect("recover");
                store = Some(s);
            }
        }
    };
    assert_eq!(report, reference);
    assert!(
        rounds > 1,
        "the budget must actually have crashed the sweep"
    );
    cleanup(&path);
}

// ---------------------------------------------------------------------
// Outcome records: skip-not-replay accounting and compaction identity
// ---------------------------------------------------------------------

/// A symbol stream that meters how many tokens were actually pulled —
/// the accounting instrument for the skip-not-replay contract.
struct MeteredStream<'a> {
    inner: std::vec::IntoIter<Sym>,
    pulled: &'a std::sync::atomic::AtomicU64,
}

impl Iterator for MeteredStream<'_> {
    type Item = Sym;

    fn next(&mut self) -> Option<Sym> {
        let sym = self.inner.next();
        if sym.is_some() {
            self.pulled
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        sym
    }
}

/// The tentpole accounting property: an instance whose outcome is in
/// the store is *skipped* on resume — its task is never built and not
/// one token of its stream is re-derived or re-fed, proven by metering
/// every stream pull.
#[test]
fn finished_instances_are_never_refed_tokens_on_resume() {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let words = seeded_words(6, 0xFACE);
    let reference = complement_sweep_in::<StateVector>(&words, 0xFEED, &BatchRunner::serial());
    let path = temp_path("accounting");
    let tag = "ComplementRecognizer";
    let pulled: Vec<AtomicU64> = (0..words.len()).map(|_| AtomicU64::new(0)).collect();
    let built = AtomicUsize::new(0);
    let task = |i: usize| {
        built.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(onlineq::core::derive_seed(0xFEED, i));
        (
            onlineq::core::ComplementRecognizer::<StateVector>::new_in(&mut rng),
            MeteredStream {
                inner: words[i].clone().into_iter(),
                pulled: &pulled[i],
            },
        )
    };
    // Crash partway: some instances finish, some are left mid-stream.
    let mut store = CheckpointStore::create(&path, tag).expect("create");
    let crashed = BatchRunner::serial()
        .run_resumable_budgeted(words.len(), 4, &mut store, 70, task)
        .expect("no store errors");
    assert_eq!(crashed, None, "budget 70 must crash the ~180-token sweep");
    let finished: Vec<usize> = (0..words.len())
        .filter(|&i| store.is_finished(i as u64))
        .collect();
    assert!(
        !finished.is_empty() && finished.len() < words.len(),
        "the crash must split the fleet: {finished:?}"
    );
    // Resume to completion with fresh meters: finished instances must
    // contribute zero pulls and zero task builds.
    for p in &pulled {
        p.store(0, Ordering::Relaxed);
    }
    built.store(0, Ordering::Relaxed);
    drop(store);
    let (mut store, _) = CheckpointStore::recover(&path, tag).expect("recover");
    let resumed = BatchRunner::serial()
        .run_resumable(words.len(), 4, &mut store, task)
        .expect("resume");
    assert_eq!(resumed, reference);
    for &i in &finished {
        assert_eq!(
            pulled[i].load(Ordering::Relaxed),
            0,
            "instance {i} finished before the crash yet was re-fed"
        );
    }
    assert_eq!(
        built.load(Ordering::Relaxed),
        words.len() - finished.len(),
        "tasks are built only for unfinished instances"
    );
    // A second resume needs nothing at all: every instance is finished,
    // so a zero-token budget still completes and nothing is pulled.
    for p in &pulled {
        p.store(0, Ordering::Relaxed);
    }
    built.store(0, Ordering::Relaxed);
    let replay = BatchRunner::serial()
        .run_resumable_budgeted(words.len(), 4, &mut store, 0, task)
        .expect("no store errors")
        .expect("zero tokens suffice: everything is finished");
    assert_eq!(replay, reference);
    assert_eq!(built.load(Ordering::Relaxed), 0, "no task built at all");
    let total_pulled: u64 = pulled.iter().map(|p| p.load(Ordering::Relaxed)).sum();
    assert_eq!(total_pulled, 0, "zero replayed tokens, fleet-wide");
    cleanup(&path);
}

/// Compaction never changes what a resume computes: crash → recover →
/// `compact` → strict reopen → resume is `==`-identical to the
/// uninterrupted sweep, on all four backends — and the compacted file
/// is smaller than the resume-heavy original.
#[test]
fn resume_after_compaction_is_identical_on_all_backends() {
    fn check<B: QuantumBackend>(name: &str) {
        let words = seeded_words(4, 0xC0DE);
        let reference = complement_sweep_in::<B>(&words, 0xFEED, &BatchRunner::serial());
        let path = temp_path(&format!("compact-{name}"));
        let tag = "ComplementRecognizer";
        let mut store = Some(CheckpointStore::create(&path, tag).expect("create"));
        // Several crash/resume rounds pile up superseded checkpoints.
        let report = loop {
            let mut s = store.take().expect("store");
            match complement_sweep_resumable_in::<B>(
                &words,
                0xFEED,
                &BatchRunner::serial(),
                3,
                &mut s,
                40,
            )
            .expect("no store errors")
            {
                Some(report) => {
                    store = Some(s);
                    break report;
                }
                None => {
                    drop(s);
                    let (mut s, _) = CheckpointStore::recover(&path, tag).expect("recover");
                    // Compact mid-recovery too: resumes must not care.
                    s.compact().expect("compact mid-sweep");
                    store = Some(s);
                }
            }
        };
        assert_eq!(report, reference, "{name}: first completion");
        let mut s = store.take().expect("store");
        let heavy = s.len_bytes();
        let compaction = s.compact().expect("compact completed store");
        assert!(
            compaction.bytes_after < heavy,
            "{name}: {heavy} -> {} bytes",
            compaction.bytes_after
        );
        drop(s);
        // The compacted file strict-opens and resumes bit-exactly.
        let mut s = CheckpointStore::open(&path, tag).expect("strict open after compact");
        assert_eq!(s.finished_instances(), words.len());
        let resumed = complement_sweep_resumable_in::<B>(
            &words,
            0xFEED,
            &BatchRunner::serial(),
            3,
            &mut s,
            0,
        )
        .expect("no store errors")
        .expect("all finished: zero tokens needed");
        assert_eq!(resumed, reference, "{name}: resume after compaction");
        cleanup(&path);
    }
    check::<StateVector>("dense");
    check::<ParallelStateVector>("parallel-dense");
    check::<SparseState>("sparse");
    check::<AdaptiveState>("adaptive");
}

#[test]
fn zero_length_and_foreign_files_are_not_stores() {
    let path = temp_path("zero");
    std::fs::write(&path, b"").expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::NotAStore)
    ));
    std::fs::write(&path, b"not a store at all").expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::NotAStore)
    ));
    // Recovery does not reinterpret foreign files either.
    assert!(CheckpointStore::recover_for::<TallyDecider>(&path).is_err());
    cleanup(&path);
}

#[test]
fn unknown_store_and_checkpoint_versions_are_rejected() {
    let (path, _) = build_store("versions");
    let original = std::fs::read(&path).expect("read");
    // Byte 8 is the store format version: the retired v2 layout is
    // refused like any other version this build does not write.
    for version in [2u8, 99] {
        let mut bumped = original.clone();
        bumped[STORE_MAGIC.len()] = version;
        std::fs::write(&path, &bumped).expect("write");
        match CheckpointStore::open_for::<TallyDecider>(&path) {
            Err(StoreError::UnsupportedStoreVersion(v)) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedStoreVersion, got {other:?}"),
        }
    }
    // Byte 9 is the checkpoint encoding version the payloads use.
    let mut bumped = original.clone();
    bumped[STORE_MAGIC.len() + 1] = 77;
    std::fs::write(&path, &bumped).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::CheckpointVersionMismatch { found: 77 })
    ));
    cleanup(&path);
}

#[test]
fn workspace_and_decider_tag_mismatches_are_rejected() {
    let (path, _) = build_store("tags");
    assert!(matches!(
        CheckpointStore::open(&path, "SomeOtherDecider"),
        Err(StoreError::DeciderMismatch { .. })
    ));
    // Handcraft a header claiming workspace 9.9.9 (this also pins the
    // header byte layout: magic, store version, checkpoint version,
    // length-prefixed workspace version, length-prefixed tag).
    let mut fake = Vec::new();
    fake.extend_from_slice(&STORE_MAGIC);
    fake.push(onlineq::machine::STORE_VERSION);
    fake.push(onlineq::machine::CHECKPOINT_VERSION);
    fake.push(5);
    fake.extend_from_slice(b"9.9.9");
    fake.push(12);
    fake.extend_from_slice(b"TallyDecider");
    std::fs::write(&path, &fake).expect("write");
    match CheckpointStore::open_for::<TallyDecider>(&path) {
        Err(StoreError::WorkspaceMismatch { found }) => assert_eq!(found, "9.9.9"),
        other => panic!("expected WorkspaceMismatch, got {other:?}"),
    }
    cleanup(&path);
}

/// Walks every truncation point of `path` (raw or compressed records
/// alike): boundary cuts open as consistent shorter stores,
/// mid-record cuts refuse strictly and salvage the longest valid prefix
/// in one forward pass.
fn truncation_walk(variant: &str, path: &PathBuf, boundaries: &[u64], tag: &str) {
    let full = std::fs::read(path).expect("read");
    let header_len = boundaries[0];
    for cut in 0..full.len() as u64 {
        std::fs::write(path, &full[..cut as usize]).expect("write");
        let strict = CheckpointStore::open(path, tag);
        if cut < header_len {
            assert!(strict.is_err(), "{variant} cut {cut}: inside the header");
            continue;
        }
        if boundaries.contains(&cut) {
            // A record boundary is a consistent (shorter) store.
            let store =
                strict.unwrap_or_else(|e| panic!("{variant} cut {cut}: boundary must open: {e}"));
            let records_before_cut = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(store.records(), records_before_cut, "{variant} cut {cut}");
        } else {
            assert!(
                matches!(
                    strict,
                    Err(StoreError::Truncated { .. })
                        | Err(StoreError::CorruptRecord { .. })
                        | Err(StoreError::CorruptCompressed { .. })
                ),
                "{variant} cut {cut}: {strict:?}"
            );
            drop(strict);
            // Recovery keeps the longest valid prefix and truncates the
            // torn tail; the salvaged store reopens cleanly. The scan is
            // a single forward pass: exactly one attempt (the torn tail)
            // beyond the salvaged records.
            let (store, report) = CheckpointStore::recover(path, tag).expect("recover");
            let salvage_end = *boundaries.iter().rfind(|&&b| b <= cut).expect("header");
            assert_eq!(store.len_bytes(), salvage_end, "{variant} cut {cut}");
            assert_eq!(
                report.dropped_bytes,
                cut - salvage_end,
                "{variant} cut {cut}"
            );
            assert_eq!(
                report.scanned_records,
                report.salvaged_records + 1,
                "{variant} cut {cut}: salvage must be a single pass"
            );
            drop(store);
            CheckpointStore::open(path, tag).expect("clean after recovery");
        }
    }
    cleanup(path);
}

#[test]
fn every_truncation_point_errors_strictly_and_recovers_salvageably() {
    let (path, boundaries) = build_store("truncate");
    truncation_walk("raw", &path, &boundaries, TallyDecider::TYPE_TAG);
    let (path, boundaries) = build_store_compressed("truncate-lz4");
    truncation_walk("compressed", &path, &boundaries, HistoryTally::TYPE_TAG);
}

/// Flips every byte of `path` in turn: strict open always refuses, and
/// recovery salvages exactly the records before the flipped one —
/// corrupted compressed payloads surface as typed errors, never as
/// garbage decompression (the content key is over the *uncompressed*
/// bytes, so a wrong-but-decodable block still fails).
fn bitflip_walk(variant: &str, path: &PathBuf, boundaries: &[u64], tag: &str) {
    let full = std::fs::read(path).expect("read");
    for at in 0..full.len() {
        let mut flipped = full.clone();
        flipped[at] ^= 0xFF;
        std::fs::write(path, &flipped).expect("write");
        // Strict open must refuse — a flipped store header, record
        // header, or payload (content-hash mismatch) is never half-read.
        assert!(
            CheckpointStore::open(path, tag).is_err(),
            "{variant}: flip at byte {at} went unnoticed"
        );
        // Recovery never panics either; flips after the header salvage
        // the records before the flipped one, in a single pass.
        if at as u64 >= boundaries[0] {
            let (_store, report) = CheckpointStore::recover(path, tag).expect("recover");
            let flipped_record_start = *boundaries
                .iter()
                .rfind(|&&b| b <= at as u64)
                .expect("header");
            assert_eq!(
                report.salvaged_records,
                boundaries
                    .iter()
                    .filter(|&&b| b <= flipped_record_start)
                    .count()
                    - 1,
                "{variant}: flip at byte {at}"
            );
            assert_eq!(
                report.scanned_records,
                report.salvaged_records + 1,
                "{variant}: flip at byte {at}: salvage must be a single pass"
            );
        }
    }
    cleanup(path);
}

#[test]
fn every_single_byte_flip_is_detected_without_panicking() {
    let (path, boundaries) = build_store("bitflip");
    bitflip_walk("raw", &path, &boundaries, TallyDecider::TYPE_TAG);
    let (path, boundaries) = build_store_compressed("bitflip-lz4");
    bitflip_walk("compressed", &path, &boundaries, HistoryTally::TYPE_TAG);
}

#[test]
fn overflowed_length_fields_neither_panic_nor_allocate() {
    // The first record's v3 full-record metadata sits right after the 41
    // record-header bytes (kind + instance + position + key + check):
    // flags at +41, uncompressed length at +42, stored length at +50.
    let (path, boundaries) = build_store("overflow");
    let pristine = std::fs::read(&path).expect("read");
    let rec = boundaries[0] as usize;
    let verify_unsalvageable = |what: &str| {
        let (store, report) = CheckpointStore::recover_for::<TallyDecider>(&path)
            .unwrap_or_else(|e| panic!("{what}: recover: {e}"));
        assert_eq!(report.salvaged_records, 0, "{what}");
        assert_eq!(report.scanned_records, 1, "{what}: single-pass salvage");
        assert_eq!(store.len_bytes(), boundaries[0], "{what}");
        drop(store);
    };
    // A 16-EiB claimed *stored* length must be rejected by bounds
    // arithmetic against the file length, not by attempting the
    // allocation.
    let mut bytes = pristine.clone();
    bytes[rec + 50..rec + 58].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::Truncated { .. })
    ));
    verify_unsalvageable("stored length");
    // A 16-EiB claimed *uncompressed* length on a record marked
    // compressed must be rejected by the decompressor's expansion bound
    // (a stored block can expand at most ~255x) before any allocation.
    let mut bytes = pristine.clone();
    bytes[rec + 41] = 1; // FLAG_COMPRESSED
    bytes[rec + 42..rec + 50].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::CorruptCompressed { .. })
    ));
    verify_unsalvageable("uncompressed length");
    // On a raw record the uncompressed length must equal the stored
    // length; an inflated value is a corrupt record, not a resize.
    let mut bytes = pristine.clone();
    bytes[rec + 42..rec + 50].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::CorruptRecord { .. })
    ));
    verify_unsalvageable("raw-length mismatch");
    // Undefined flag bits are refused outright.
    let mut bytes = pristine;
    bytes[rec + 41] = 0xFF;
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::CorruptRecord { .. })
    ));
    verify_unsalvageable("flag bits");
    cleanup(&path);

    // Same hostile uncompressed-length probe against a record that
    // really is compressed: the declared size is a lie the expansion
    // bound catches before the decoder allocates anything.
    let (path, boundaries) = build_store_compressed("overflow-lz4");
    let mut bytes = std::fs::read(&path).expect("read");
    let rec = boundaries[0] as usize;
    assert_eq!(bytes[rec + 41], 1, "first record must be compressed");
    bytes[rec + 42..rec + 50].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CheckpointStore::open_for::<HistoryTally>(&path),
        Err(StoreError::CorruptCompressed { .. })
    ));
    let (store, report) = CheckpointStore::recover_for::<HistoryTally>(&path).expect("recover");
    assert_eq!(report.salvaged_records, 0);
    assert_eq!(store.len_bytes(), boundaries[0]);
    drop(store);
    cleanup(&path);
}

// ---------------------------------------------------------------------
// Streaming scan: O(1) resident memory, single pass, honest stats
// ---------------------------------------------------------------------

/// A raw reader that counts every byte handed out — the instrument that
/// turns "the scanner streams" from a claim into an assertion.
struct CountingReader<R> {
    inner: R,
    bytes_read: u64,
}

impl<R: std::io::Read> std::io::Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

/// The tentpole memory property: scanning a multi-thousand-record log
/// keeps peak buffered payload bytes bounded by ONE decompressed payload
/// (the largest record), an order of magnitude below the file size, and
/// reads every record byte exactly once. `open`, `recover` and `compact`
/// all inherit the same bound via `peak_resident_payload_bytes`.
#[test]
fn scanning_thousands_of_records_buffers_only_one_payload() {
    let path = temp_path("streaming-peak");
    let mut store = CheckpointStore::create_for::<HistoryTally>(&path).expect("create");
    // 1200 distinct checkpoints (64..1264 tokens), each re-appended for a
    // second instance so the log is half dedupe refs; then one outsized
    // checkpoint that must dominate the resident-memory high-water mark.
    for i in 0..1200u64 {
        let cp = history_checkpoint_at(64 + i as usize);
        store.append(i, &cp).expect("append");
        store.append(10_000 + i, &cp).expect("ref");
    }
    let big = history_checkpoint_at(8000);
    let big_len = big.as_bytes().len() as u64;
    store.append(77_777, &big).expect("big");
    let expected_records = 2 * 1200 + 1;
    assert_eq!(store.records(), expected_records);
    drop(store);

    let header = peek_header(&path).expect("peek");
    let file_len = std::fs::metadata(&path).expect("meta").len();
    // Drive the scanner over a counting reader: no BufReader, so every
    // byte counted is a byte the scanner explicitly asked for.
    let mut file = std::fs::File::open(&path).expect("open file");
    std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(header.len)).expect("seek");
    let mut counting = CountingReader {
        inner: file,
        bytes_read: 0,
    };
    let mut scanner = RecordScanner::new(&mut counting, file_len, header.len);
    let mut records = 0usize;
    while scanner.next_record().expect("clean log").is_some() {
        records += 1;
    }
    assert_eq!(records, expected_records);
    assert_eq!(scanner.records_scanned(), expected_records);
    let peak = scanner.peak_resident_bytes();
    drop(scanner);
    // The bound: one stored block plus its decompression — under twice
    // the largest payload — while the file is an order of magnitude
    // bigger. A scanner that buffered the log would blow this instantly.
    assert!(peak >= big_len, "the big payload was resident: {peak}");
    assert!(
        peak < 2 * big_len,
        "peak {peak} exceeds one payload's footprint ({big_len} uncompressed)"
    );
    assert!(
        peak * 8 < file_len,
        "peak {peak} is not O(1) against a {file_len}-byte log"
    );
    // Single pass: every record byte read exactly once, none twice.
    assert_eq!(counting.bytes_read, file_len - header.len);

    // `open` inherits the bound (plus its fixed-size read buffer).
    let mut store = CheckpointStore::open_for::<HistoryTally>(&path).expect("open");
    assert!(store.peak_resident_payload_bytes() < 2 * big_len);
    assert_eq!(store.records(), expected_records);
    let stats = store.stats();
    assert_eq!(stats.records, expected_records);
    assert_eq!(stats.ref_records, 1200);
    assert!(stats.compressed_payloads > 0);
    assert!(stats.uncompressed_payload_bytes > stats.stored_payload_bytes);
    assert!(
        stats.compression_ratio() > 1.5,
        "{}",
        stats.compression_ratio()
    );
    assert!(stats.dedupe_hit_rate() > 0.49 && stats.dedupe_hit_rate() < 0.51);
    // `compact` streams payloads one at a time under the same bound.
    store.compact().expect("compact");
    assert!(store.peak_resident_payload_bytes() < 2 * big_len);
    assert_eq!(store.records(), 2401, "one record per instance");
    drop(store);

    // `recover` over the compacted log: still one pass, still bounded.
    let mut bytes = std::fs::read(&path).expect("read");
    bytes.extend_from_slice(&[0xAB; 13]);
    std::fs::write(&path, &bytes).expect("write");
    let (store, report) = CheckpointStore::recover_for::<HistoryTally>(&path).expect("recover");
    assert_eq!(report.salvaged_records, 2401);
    assert_eq!(report.scanned_records, report.salvaged_records + 1);
    assert!(store.peak_resident_payload_bytes() < 2 * big_len);
    drop(store);
    cleanup(&path);
}

#[test]
fn trailing_garbage_is_refused_and_recovered_away() {
    let (path, boundaries) = build_store("garbage");
    let mut bytes = std::fs::read(&path).expect("read");
    let valid_len = bytes.len() as u64;
    bytes.extend_from_slice(&[0xAB; 13]);
    std::fs::write(&path, &bytes).expect("write");
    assert!(CheckpointStore::open_for::<TallyDecider>(&path).is_err());
    let (store, report) = CheckpointStore::recover_for::<TallyDecider>(&path).expect("recover");
    assert_eq!(store.len_bytes(), valid_len);
    assert_eq!(report.dropped_bytes, 13);
    assert_eq!(report.salvaged_records, boundaries.len() - 1);
    cleanup(&path);
}

#[test]
fn orphaned_locks_block_until_broken() {
    let (path, _) = build_store("orphan");
    std::fs::write(lock_path(&path), b"9999999").expect("orphan lock");
    assert!(matches!(
        CheckpointStore::open_for::<TallyDecider>(&path),
        Err(StoreError::Locked { .. })
    ));
    assert!(matches!(
        CheckpointStore::recover_for::<TallyDecider>(&path),
        Err(StoreError::Locked { .. })
    ));
    assert!(CheckpointStore::break_lock(&path).expect("break"));
    CheckpointStore::open_for::<TallyDecider>(&path).expect("opens after break");
    cleanup(&path);
}

#[test]
fn unknown_keys_and_stale_creates_are_errors() {
    let (path, _) = build_store("misc");
    let mut store = CheckpointStore::open_for::<TallyDecider>(&path).expect("open");
    assert!(matches!(store.get(42), Err(StoreError::UnknownKey)));
    drop(store);
    assert!(matches!(
        CheckpointStore::create_for::<TallyDecider>(&path),
        Err(StoreError::AlreadyExists { .. })
    ));
    cleanup(&path);
}

/// A resumable run against a store holding a checkpoint whose position
/// exceeds the re-derived stream (a task-factory / store mismatch)
/// fails loudly instead of misresuming.
#[test]
fn checkpoint_beyond_the_stream_is_a_loud_error() {
    let path = temp_path("beyond");
    let mut store = CheckpointStore::create_for::<TallyDecider>(&path).expect("create");
    store.append(0, &checkpoint_at(50)).expect("append");
    let err = BatchRunner::serial()
        .run_resumable::<TallyDecider, _, _>(1, 4, &mut store, |_| {
            (TallyDecider::new(), std::iter::repeat_n(Sym::One, 10))
        })
        .expect_err("position 50 > 10-token stream");
    assert!(matches!(err, StoreError::Checkpoint(_)), "{err}");
    drop(store);
    cleanup(&path);
}
