//! Persistent checkpoint store: a content-addressed, append-only log of
//! [`SessionCheckpoint`]s and finished-instance [`RunOutcome`]s.
//!
//! [`SessionCheckpoint`] bytes are portable (DESIGN.md §7) but, until
//! this module, lived only in memory — a crashed or preempted sweep lost
//! everything. A [`CheckpointStore`] is one log file plus an in-memory
//! index:
//!
//! * **Header** — magic, store format version, the
//!   [`CHECKPOINT_VERSION`] the payloads use, the workspace version that
//!   wrote the file, and the decider's
//!   [`Checkpointable::TYPE_TAG`]. A store written by an unknown layout,
//!   a different checkpoint version, a different workspace version, or
//!   for a different decider type is rejected on open — never
//!   half-read, never panicked on.
//! * **Records** — appended, never rewritten. Each record carries its
//!   kind (checkpoint or outcome, full or ref), the owning instance
//!   index, the stream position, a 128-bit FNV/SplitMix content hash of
//!   the payload (the record's *key*), and a header checksum. A payload
//!   is stored once: re-appending bytes the log already holds writes a
//!   small *ref* record pointing at the existing payload (content
//!   addressing). Checkpoint payloads are [`SessionCheckpoint`] bytes;
//!   **outcome** payloads are the fixed-width [`RunOutcome`] encoding a
//!   finished instance leaves behind, so a resumed sweep can *skip* the
//!   instance instead of replaying it from its last checkpoint
//!   (DESIGN.md §9).
//! * **Compression (format v3)** — checkpoint and outcome payloads at
//!   least [`COMPRESS_MIN_LEN`] bytes long are LZ4-block-compressed (the
//!   vendored `lz4_flex` shim) when that makes them strictly smaller;
//!   each full record carries a compressed flag plus both the stored and
//!   uncompressed byte lengths. Content keys are always computed over
//!   the *uncompressed* bytes, so dedupe-ref records and compaction's
//!   one-record-per-instance rewrite are untouched by the codec choice.
//!   v3 is the only format: a file claiming any other version is
//!   refused on open with [`StoreError::UnsupportedStoreVersion`].
//! * **Streaming scan** — `open`, `recover`, and `compact` never load
//!   the log into memory: a seek-based [`RecordScanner`] validates one
//!   record at a time, so resident memory is bounded by one payload
//!   (plus its decompressed form) and the fixed-size key index,
//!   regardless of log length.
//! * **Recovery** — [`CheckpointStore::open`] is strict: a truncated
//!   tail (the signature of a crash mid-append) or a bit-flipped record
//!   is an error. [`CheckpointStore::recover`] salvages instead: it
//!   keeps the longest valid record prefix, truncates the rest, and
//!   reports what was dropped. Resuming a crashed sweep goes through
//!   `recover`; since checkpoints are only appended at segment
//!   boundaries, the salvaged prefix is always a consistent set of
//!   boundary snapshots.
//! * **Compaction** — the log only grows; a resume-heavy store
//!   accumulates superseded checkpoints. [`CheckpointStore::compact`]
//!   rewrites one record per instance — its outcome if it finished, its
//!   latest checkpoint otherwise — to a sibling temp file, atomically
//!   renames it over the log, and re-indexes. Readers never observe a
//!   half-compacted store: a crash before the rename leaves the old log
//!   untouched, a crash after it leaves the new one complete.
//!
//! Concurrent writers are excluded by a `<path>.lock` file. A lock left
//! behind by a killed process (an *orphaned lock*) makes open fail with
//! [`StoreError::Locked`]; [`CheckpointStore::break_lock`] removes it
//! once the operator knows the writer is gone. The per-shard store
//! files used by the cross-process scheduler never share a writer, so
//! orphaned locks only arise from kills — exactly the case `recover` +
//! `break_lock` exist for.
//!
//! Durability scope: records survive process death (the kill-based
//! suites pin this); surviving machine/power failure would additionally
//! need an fsync per append, which the sweep cadence does not pay for.

use crate::session::{CheckpointError, Checkpointable, SessionCheckpoint, CHECKPOINT_VERSION};
use crate::streaming::RunOutcome;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The store's own format version (independent of [`CHECKPOINT_VERSION`],
/// which versions the checkpoint payload bytes): outcome records plus
/// per-payload LZ4 block compression (flag + uncompressed length on
/// every full record). It is the only version this build reads or
/// writes; any other fails with [`StoreError::UnsupportedStoreVersion`].
pub const STORE_VERSION: u8 = 3;

/// Payloads shorter than this are stored raw: the LZ4 token overhead and
/// the extra length field cannot pay for themselves on tiny payloads
/// (outcome payloads, at 25 bytes, are always raw).
pub const COMPRESS_MIN_LEN: usize = 64;

/// The 8-byte magic opening every store file.
pub const STORE_MAGIC: [u8; 8] = *b"OQSC-CPS";

/// The workspace version stamped into store headers (a store written by
/// one build of the workspace is not silently decoded by another).
pub const WORKSPACE_VERSION: &str = env!("CARGO_PKG_VERSION");

const RECORD_FULL: u8 = 1;
const RECORD_REF: u8 = 2;
const RECORD_OUTCOME_FULL: u8 = 3;
const RECORD_OUTCOME_REF: u8 = 4;
/// kind (1) + instance (8) + position (8) + key (16) + header check (8).
const RECORD_HEADER_LEN: u64 = 41;
/// Full-record metadata: flags (1) + uncompressed len (8) + stored
/// len (8). The flags byte and lengths sit *outside* the header check —
/// corruption there is caught by the bounds checks, the decompressor,
/// and the content hash over the uncompressed bytes.
const FULL_META_LEN: u64 = 17;
/// Flag bit: the stored bytes are an LZ4 block of the payload.
const FLAG_COMPRESSED: u8 = 1;

/// Byte length of an encoded [`RunOutcome`] payload: accept (1) +
/// classical bits (8) + peak qubits (8) + peak amplitudes (8).
const OUTCOME_PAYLOAD_LEN: u64 = 25;

/// Why a store could not be opened, read, or appended to.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not begin with the store magic (wrong file, or a
    /// zero-length / foreign file).
    NotAStore,
    /// The store format version is not [`STORE_VERSION`].
    UnsupportedStoreVersion(u8),
    /// The payloads were written under a different checkpoint encoding
    /// version.
    CheckpointVersionMismatch {
        /// Version recorded in the header.
        found: u8,
    },
    /// The store was written by a different workspace version.
    WorkspaceMismatch {
        /// Version string recorded in the header.
        found: String,
    },
    /// The store was written for a different decider type.
    DeciderMismatch {
        /// [`Checkpointable::TYPE_TAG`] recorded in the header.
        found: String,
        /// The tag the caller expected.
        expected: String,
    },
    /// The file ends mid-header or mid-record (crash mid-append, or an
    /// external truncation).
    Truncated {
        /// Offset of the first incomplete byte range.
        offset: u64,
    },
    /// A record's checksum or content hash does not match its bytes
    /// (bit flip), or a ref record points at a payload the log does not
    /// hold.
    CorruptRecord {
        /// Offset of the corrupt record.
        offset: u64,
    },
    /// A compressed payload's stored bytes do not decode as a valid LZ4
    /// block of the recorded uncompressed length (bit flip or hostile
    /// frame) — never a panic, never garbage bytes handed to a caller.
    CorruptCompressed {
        /// Offset of the stored (compressed) bytes.
        offset: u64,
    },
    /// [`CheckpointStore::get`] was asked for a key the store does not
    /// hold.
    UnknownKey,
    /// Another writer holds (or a killed writer left) the lock file.
    Locked {
        /// The lock file path.
        lock_path: PathBuf,
    },
    /// [`CheckpointStore::create`] refused to overwrite an existing
    /// file.
    AlreadyExists {
        /// The existing store path.
        path: PathBuf,
    },
    /// A stored payload failed checkpoint-level validation.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
            StoreError::NotAStore => write!(f, "not a checkpoint store (missing magic)"),
            StoreError::UnsupportedStoreVersion(v) => {
                write!(
                    f,
                    "unsupported store version {v} (this build reads {STORE_VERSION})"
                )
            }
            StoreError::CheckpointVersionMismatch { found } => write!(
                f,
                "store holds checkpoint-version-{found} payloads (this build reads {CHECKPOINT_VERSION})"
            ),
            StoreError::WorkspaceMismatch { found } => write!(
                f,
                "store written by workspace {found} (this build is {WORKSPACE_VERSION})"
            ),
            StoreError::DeciderMismatch { found, expected } => {
                write!(f, "store written for decider {found:?}, expected {expected:?}")
            }
            StoreError::Truncated { offset } => {
                write!(f, "store truncated at byte {offset}")
            }
            StoreError::CorruptRecord { offset } => {
                write!(f, "corrupt store record at byte {offset}")
            }
            StoreError::CorruptCompressed { offset } => {
                write!(f, "corrupt compressed payload at byte {offset}")
            }
            StoreError::UnknownKey => write!(f, "no record with the requested content key"),
            StoreError::Locked { lock_path } => write!(
                f,
                "store is locked by another writer (or an orphaned lock): {}",
                lock_path.display()
            ),
            StoreError::AlreadyExists { path } => write!(
                f,
                "store already exists (open it with --resume / recover instead): {}",
                path.display()
            ),
            StoreError::Checkpoint(e) => write!(f, "stored checkpoint invalid: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// Whether recovery may treat this error as "end of the valid
    /// prefix" (record-level damage) rather than a fatal condition
    /// (I/O failure, header mismatch).
    fn is_salvageable(&self) -> bool {
        matches!(
            self,
            StoreError::Truncated { .. }
                | StoreError::CorruptRecord { .. }
                | StoreError::CorruptCompressed { .. }
        )
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CheckpointError> for StoreError {
    fn from(e: CheckpointError) -> Self {
        StoreError::Checkpoint(e)
    }
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: scrambles FNV's weak low bits.
fn splitmix_fin(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 128-bit content key of a checkpoint payload: two independently
/// seeded FNV-1a streams, each passed through a SplitMix64 finalizer.
/// Identical payloads — and only identical payloads, up to a 2⁻¹²⁸
/// collision — share a key, which is what lets the log store each
/// payload once.
pub fn content_key(payload: &[u8]) -> u128 {
    let hi = splitmix_fin(fnv1a64(FNV_OFFSET, payload));
    let lo = splitmix_fin(fnv1a64(FNV_OFFSET ^ SPLITMIX_GAMMA, payload));
    (u128::from(hi) << 64) | u128::from(lo)
}

fn record_header_check(kind: u8, instance: u64, position: u64, key: u128) -> u64 {
    let mut bytes = Vec::with_capacity(33);
    bytes.push(kind);
    bytes.extend_from_slice(&instance.to_le_bytes());
    bytes.extend_from_slice(&position.to_le_bytes());
    bytes.extend_from_slice(&key.to_le_bytes());
    splitmix_fin(fnv1a64(FNV_OFFSET, &bytes))
}

// ---------------------------------------------------------------------
// Outcome payloads
// ---------------------------------------------------------------------

/// Encodes a finished instance's [`RunOutcome`] as the fixed-width
/// outcome payload ([`OUTCOME_PAYLOAD_LEN`] bytes, all integers — the
/// round trip is exact).
fn encode_outcome(o: &RunOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(OUTCOME_PAYLOAD_LEN as usize);
    out.push(u8::from(o.accept));
    out.extend_from_slice(&(o.classical_bits as u64).to_le_bytes());
    out.extend_from_slice(&(o.peak_qubits as u64).to_le_bytes());
    out.extend_from_slice(&(o.peak_amplitudes as u64).to_le_bytes());
    out
}

/// Decodes an outcome payload, rejecting wrong lengths and non-boolean
/// accept bytes (a bit-flipped payload already fails the content hash;
/// this guards hand-crafted or cross-version bytes).
fn decode_outcome(bytes: &[u8]) -> Option<RunOutcome> {
    if bytes.len() as u64 != OUTCOME_PAYLOAD_LEN || bytes[0] > 1 {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("sliced"));
    Some(RunOutcome {
        accept: bytes[0] == 1,
        classical_bits: usize::try_from(word(1)).ok()?,
        peak_qubits: usize::try_from(word(9)).ok()?,
        peak_amplitudes: usize::try_from(word(17)).ok()?,
    })
}

// ---------------------------------------------------------------------
// Lock files
// ---------------------------------------------------------------------

/// RAII guard over `<path>.lock`; removes the lock file on drop.
#[derive(Debug)]
struct LockGuard {
    lock_path: PathBuf,
}

impl LockGuard {
    fn acquire(store_path: &Path) -> Result<Self, StoreError> {
        let lock_path = lock_path_for(store_path);
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                // Advisory content: which process took the lock.
                let _ = writeln!(f, "{}", std::process::id());
                Ok(LockGuard { lock_path })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(StoreError::Locked { lock_path })
            }
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

fn lock_path_for(store_path: &Path) -> PathBuf {
    let mut os = store_path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// What [`CheckpointStore::recover`] salvaged from a damaged log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records in the valid prefix that was kept.
    pub salvaged_records: usize,
    /// Bytes of truncated or corrupt tail that were discarded.
    pub dropped_bytes: u64,
    /// Records the scanner attempted to validate: `salvaged_records`,
    /// plus one if a torn tail record failed. Salvage is a single
    /// forward pass — it never re-validates the prefix after finding
    /// the tear — so this never exceeds `salvaged_records + 1`.
    pub scanned_records: usize,
}

/// Per-file store statistics, as reported by [`CheckpointStore::stats`]
/// (and `experiments store stats`). Byte totals cover the distinct
/// stored payloads (what dedupe kept), not the ref records pointing at
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Store format version of the file.
    pub version: u8,
    /// Total records (full + ref, checkpoints + outcomes).
    pub records: usize,
    /// Records that carry a payload.
    pub full_records: usize,
    /// Dedupe ref records (no payload).
    pub ref_records: usize,
    /// Distinct payloads stored (equals `full_records` on honest logs).
    pub payloads: usize,
    /// Stored payloads that are LZ4-compressed.
    pub compressed_payloads: usize,
    /// On-disk bytes of the stored payloads (compressed where flagged).
    pub stored_payload_bytes: u64,
    /// Logical (uncompressed) bytes of the stored payloads.
    pub uncompressed_payload_bytes: u64,
    /// Instances with at least one checkpoint or outcome.
    pub instances: usize,
    /// Instances with a persisted final outcome.
    pub finished_instances: usize,
    /// Size of the log file in bytes.
    pub file_bytes: u64,
}

impl StoreStats {
    /// Fraction of records that were dedupe refs (0.0 when empty).
    pub fn dedupe_hit_rate(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.ref_records as f64 / self.records as f64
        }
    }

    /// Logical bytes per stored byte (1.0 when nothing is stored).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_payload_bytes == 0 {
            1.0
        } else {
            self.uncompressed_payload_bytes as f64 / self.stored_payload_bytes as f64
        }
    }
}

/// What [`CheckpointStore::compact`] did to the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records in the log before compaction.
    pub records_before: usize,
    /// Records after (one per instance: outcome or latest checkpoint).
    pub records_after: usize,
    /// Log size in bytes before compaction.
    pub bytes_before: u64,
    /// Log size in bytes after.
    pub bytes_after: u64,
    /// Full statistics before compaction.
    pub before: StoreStats,
    /// Full statistics after.
    pub after: StoreStats,
}

/// Where (and how) one distinct payload lives in the log.
#[derive(Clone, Copy, Debug)]
struct PayloadLoc {
    /// Offset of the stored bytes (past the record header + metadata).
    offset: u64,
    /// On-disk byte count (the LZ4 block length when `compressed`).
    stored_len: u64,
    /// Length of the payload proper.
    uncompressed_len: u64,
    compressed: bool,
    /// Whether the payload decodes as a [`RunOutcome`] — recorded when
    /// the full record is first scanned, so validating an outcome-ref
    /// record never has to re-read (or re-decompress) the payload.
    outcome_shaped: bool,
}

/// A content-addressed, append-only log of [`SessionCheckpoint`]s and
/// finished-instance [`RunOutcome`]s for one decider type. See the
/// module docs for the format, the recovery protocol, and compaction.
#[derive(Debug)]
pub struct CheckpointStore {
    file: File,
    path: PathBuf,
    /// The decider tag the header records (compaction renders the
    /// rewritten log's header from it).
    tag: String,
    /// Whether appends compress eligible payloads (default true;
    /// [`Self::set_compression`] is the benchmark/testing toggle).
    compression: bool,
    /// Logical end of valid data (everything before it has been
    /// validated or written by this handle).
    end: u64,
    /// Content key → location of the (single) stored payload.
    index: HashMap<u128, PayloadLoc>,
    /// Instance → (highest stream position seen, its content key).
    latest: HashMap<u64, (u64, u128)>,
    /// Instance → (final stream position, outcome payload key), for
    /// instances that ran to completion.
    finished: HashMap<u64, (u64, u128)>,
    records: usize,
    full_records: usize,
    /// Largest payload footprint (stored + decompressed bytes) this
    /// handle has ever buffered — open scan, reads, and compaction all
    /// feed it, which is what pins the O(1)-memory contract in tests.
    peak_resident: u64,
    _lock: LockGuard,
}

impl CheckpointStore {
    /// Creates a fresh store at `path` for deciders tagged `tag`.
    /// Refuses to overwrite an existing file
    /// ([`StoreError::AlreadyExists`]) — resuming goes through
    /// [`recover`](Self::recover) instead.
    pub fn create(path: impl AsRef<Path>, tag: &str) -> Result<Self, StoreError> {
        let path = path.as_ref();
        // Lock first: a live writer reports `Locked`, not `AlreadyExists`.
        let lock = LockGuard::acquire(path)?;
        if path.exists() {
            return Err(StoreError::AlreadyExists {
                path: path.to_path_buf(),
            });
        }
        let header = render_header(tag);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(&header)?;
        Ok(CheckpointStore {
            file,
            path: path.to_path_buf(),
            tag: tag.to_string(),
            compression: true,
            end: header.len() as u64,
            index: HashMap::new(),
            latest: HashMap::new(),
            finished: HashMap::new(),
            records: 0,
            full_records: 0,
            peak_resident: 0,
            _lock: lock,
        })
    }

    /// Opens an existing store strictly: any header mismatch, truncated
    /// tail, or corrupt record is an error. Use
    /// [`recover`](Self::recover) to salvage a damaged log.
    pub fn open(path: impl AsRef<Path>, tag: &str) -> Result<Self, StoreError> {
        Self::open_inner(path.as_ref(), tag, false).map(|(store, _)| store)
    }

    /// Opens an existing store, keeping the longest valid record prefix
    /// and truncating any damaged tail (the crash-recovery path).
    /// Header-level mismatches are still fatal: recovery never
    /// reinterprets a store written by a different layout, workspace, or
    /// decider type.
    pub fn recover(
        path: impl AsRef<Path>,
        tag: &str,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_inner(path.as_ref(), tag, true)
    }

    /// [`create`](Self::create) with the tag taken from the decider type.
    pub fn create_for<D: Checkpointable>(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::create(path, D::TYPE_TAG)
    }

    /// [`open`](Self::open) with the tag taken from the decider type.
    pub fn open_for<D: Checkpointable>(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open(path, D::TYPE_TAG)
    }

    /// [`recover`](Self::recover) with the tag taken from the decider
    /// type.
    pub fn recover_for<D: Checkpointable>(
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::recover(path, D::TYPE_TAG)
    }

    /// Removes an orphaned lock file left behind by a killed writer.
    /// Returns whether a lock existed. Only call this once the previous
    /// writer is known to be dead — breaking a live writer's lock
    /// un-serializes the log.
    pub fn break_lock(path: impl AsRef<Path>) -> Result<bool, StoreError> {
        match std::fs::remove_file(lock_path_for(path.as_ref())) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn open_inner(
        path: &Path,
        tag: &str,
        salvage: bool,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let lock = LockGuard::acquire(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        // The header is self-limiting (u8 length prefixes), so one
        // bounded read suffices no matter how large the log is.
        let mut head = Vec::with_capacity(MAX_HEADER_LEN);
        (&mut file)
            .take(MAX_HEADER_LEN as u64)
            .read_to_end(&mut head)?;
        let header_len = validate_header(&head, tag)?;
        let mut latest: HashMap<u64, (u64, u128)> = HashMap::new();
        let mut finished: HashMap<u64, (u64, u128)> = HashMap::new();
        let mut full_records = 0usize;
        // Stream the record section: one record resident at a time. The
        // salvage path is the same single forward pass — on a torn tail
        // it stops at the failed record's start offset, never
        // re-validating the prefix it already accepted.
        file.seek(SeekFrom::Start(header_len))?;
        let mut scanner =
            RecordScanner::new(BufReader::with_capacity(8192, &file), file_len, header_len);
        let end = loop {
            match scanner.next_record() {
                Ok(Some(rec)) => {
                    full_records += usize::from(rec.full);
                    if rec.outcome {
                        finished.insert(rec.instance, (rec.position, rec.key));
                    } else {
                        let slot = latest.entry(rec.instance).or_insert((0, rec.key));
                        if rec.position >= slot.0 {
                            *slot = (rec.position, rec.key);
                        }
                    }
                }
                Ok(None) => break scanner.offset(),
                Err(e) if salvage && e.is_salvageable() => break scanner.offset(),
                Err(e) => return Err(e),
            }
        };
        let records = scanner.records_scanned();
        let scanned = scanner.validation_attempts();
        let peak_resident = scanner.peak_resident_bytes();
        let index = scanner.into_index();
        let dropped = file_len - end;
        if dropped > 0 {
            file.set_len(end)?;
        }
        Ok((
            CheckpointStore {
                file,
                path: path.to_path_buf(),
                tag: tag.to_string(),
                compression: true,
                end,
                index,
                latest,
                finished,
                records,
                full_records,
                peak_resident,
                _lock: lock,
            },
            RecoveryReport {
                salvaged_records: records,
                dropped_bytes: dropped,
                scanned_records: scanned,
            },
        ))
    }

    /// Appends one record (checkpoint or outcome) owned by `instance`,
    /// writing the payload only if the log does not already hold it.
    fn append_record(
        &mut self,
        full_kind: u8,
        ref_kind: u8,
        instance: u64,
        position: u64,
        payload: &[u8],
    ) -> Result<u128, StoreError> {
        let key = content_key(payload);
        let kind = if self.index.contains_key(&key) {
            ref_kind
        } else {
            full_kind
        };
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len() + 24);
        rec.push(kind);
        rec.extend_from_slice(&instance.to_le_bytes());
        rec.extend_from_slice(&position.to_le_bytes());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&record_header_check(kind, instance, position, key).to_le_bytes());
        let loc = if kind == full_kind {
            let (stored_len, compressed) = encode_full_body(self.compression, payload, &mut rec);
            Some(PayloadLoc {
                offset: self.end + RECORD_HEADER_LEN + FULL_META_LEN,
                stored_len,
                uncompressed_len: payload.len() as u64,
                compressed,
                outcome_shaped: decode_outcome(payload).is_some(),
            })
        } else {
            None
        };
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&rec)?;
        if let Some(loc) = loc {
            self.index.insert(key, loc);
            self.full_records += 1;
        }
        self.end += rec.len() as u64;
        self.records += 1;
        Ok(key)
    }

    /// Appends one checkpoint owned by `instance`. Returns the payload's
    /// content key. A payload the log already holds is not rewritten —
    /// only a small ref record is appended.
    pub fn append(&mut self, instance: u64, cp: &SessionCheckpoint) -> Result<u128, StoreError> {
        let position = cp.position();
        let key = self.append_record(RECORD_FULL, RECORD_REF, instance, position, cp.as_bytes())?;
        let slot = self.latest.entry(instance).or_insert((position, key));
        if position >= slot.0 {
            *slot = (position, key);
        }
        Ok(key)
    }

    /// Appends the final [`RunOutcome`] of `instance`, which consumed
    /// `position` stream tokens. A resumed sweep skips instances with a
    /// persisted outcome instead of replaying them from their last
    /// checkpoint. Returns the outcome payload's content key (identical
    /// outcomes — common in Monte-Carlo fleets — are stored once).
    pub fn append_outcome(
        &mut self,
        instance: u64,
        position: u64,
        outcome: &RunOutcome,
    ) -> Result<u128, StoreError> {
        let key = self.append_record(
            RECORD_OUTCOME_FULL,
            RECORD_OUTCOME_REF,
            instance,
            position,
            &encode_outcome(outcome),
        )?;
        self.finished.insert(instance, (position, key));
        Ok(key)
    }

    /// Reads the raw payload with content key `key`, re-verifying the
    /// hash against the bytes on disk.
    fn get_payload(&mut self, key: u128) -> Result<Vec<u8>, StoreError> {
        let loc = *self.index.get(&key).ok_or(StoreError::UnknownKey)?;
        self.file.seek(SeekFrom::Start(loc.offset))?;
        let mut stored = vec![0u8; loc.stored_len as usize];
        self.file.read_exact(&mut stored)?;
        let payload = if loc.compressed {
            let payload = lz4_flex::block::decompress(&stored, loc.uncompressed_len as usize)
                .map_err(|_| StoreError::CorruptCompressed { offset: loc.offset })?;
            self.peak_resident = self
                .peak_resident
                .max(loc.stored_len + loc.uncompressed_len);
            payload
        } else {
            self.peak_resident = self.peak_resident.max(loc.stored_len);
            stored
        };
        if content_key(&payload) != key {
            return Err(StoreError::CorruptRecord { offset: loc.offset });
        }
        Ok(payload)
    }

    /// Reads the checkpoint with content key `key`, re-verifying the
    /// hash against the bytes on disk.
    pub fn get(&mut self, key: u128) -> Result<SessionCheckpoint, StoreError> {
        Ok(SessionCheckpoint::from_bytes(self.get_payload(key)?)?)
    }

    /// The newest checkpoint persisted for `instance` (highest stream
    /// position), if any.
    pub fn latest(&mut self, instance: u64) -> Result<Option<SessionCheckpoint>, StoreError> {
        match self.latest.get(&instance) {
            None => Ok(None),
            Some(&(_, key)) => self.get(key).map(Some),
        }
    }

    /// The stream position of the newest checkpoint for `instance`.
    pub fn latest_position(&self, instance: u64) -> Option<u64> {
        self.latest.get(&instance).map(|&(p, _)| p)
    }

    /// The persisted final [`RunOutcome`] of `instance`, if it ran to
    /// completion, re-verified against the bytes on disk.
    pub fn outcome(&mut self, instance: u64) -> Result<Option<RunOutcome>, StoreError> {
        let Some(&(_, key)) = self.finished.get(&instance) else {
            return Ok(None);
        };
        let loc = *self.index.get(&key).ok_or(StoreError::UnknownKey)?;
        let payload = self.get_payload(key)?;
        decode_outcome(&payload)
            .map(Some)
            .ok_or(StoreError::CorruptRecord { offset: loc.offset })
    }

    /// Every persisted final outcome, as `(instance, position, outcome)`
    /// triples sorted by instance id, each re-verified against the bytes
    /// on disk. This is the recovery path of a scheduler that uses the
    /// store as its durable completion ledger (the distributed sweep
    /// fabric's coordinator): one scan rebuilds the full picture of what
    /// already ran.
    pub fn finished_outcomes(&mut self) -> Result<Vec<(u64, u64, RunOutcome)>, StoreError> {
        let mut instances: Vec<(u64, u64, u128)> = self
            .finished
            .iter()
            .map(|(&instance, &(position, key))| (instance, position, key))
            .collect();
        instances.sort_unstable_by_key(|&(instance, _, _)| instance);
        let mut out = Vec::with_capacity(instances.len());
        for (instance, position, key) in instances {
            let loc = *self.index.get(&key).ok_or(StoreError::UnknownKey)?;
            let payload = self.get_payload(key)?;
            let outcome =
                decode_outcome(&payload).ok_or(StoreError::CorruptRecord { offset: loc.offset })?;
            out.push((instance, position, outcome));
        }
        Ok(out)
    }

    /// Whether `instance` has a persisted final outcome.
    pub fn is_finished(&self, instance: u64) -> bool {
        self.finished.contains_key(&instance)
    }

    /// Number of instances with a persisted final outcome.
    pub fn finished_instances(&self) -> usize {
        self.finished.len()
    }

    /// Number of records appended (full + ref, checkpoints + outcomes).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of distinct payloads stored.
    pub fn payloads(&self) -> usize {
        self.index.len()
    }

    /// Number of instances with at least one checkpoint or outcome.
    pub fn instances(&self) -> usize {
        self.finished.len()
            + self
                .latest
                .keys()
                .filter(|k| !self.finished.contains_key(k))
                .count()
    }

    /// Size of the log file in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Toggles payload compression for subsequent appends (and for
    /// compaction rewrites). On by default; the off switch exists for
    /// benchmarks and tests that need an uncompressed baseline.
    /// Per-record flags make mixed logs valid.
    pub fn set_compression(&mut self, enabled: bool) {
        self.compression = enabled;
    }

    /// Largest payload footprint (stored bytes, plus decompressed bytes
    /// where applicable) this handle has ever held in memory at once —
    /// across the open scan, reads, and compaction. The O(1)-memory
    /// tests pin this against the log size.
    pub fn peak_resident_payload_bytes(&self) -> u64 {
        self.peak_resident
    }

    /// Per-file statistics: record mix, dedupe hit rate inputs, and the
    /// compressed/uncompressed payload byte totals.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            version: STORE_VERSION,
            records: self.records,
            full_records: self.full_records,
            ref_records: self.records - self.full_records,
            payloads: self.index.len(),
            compressed_payloads: 0,
            stored_payload_bytes: 0,
            uncompressed_payload_bytes: 0,
            instances: self.instances(),
            finished_instances: self.finished.len(),
            file_bytes: self.end,
        };
        for loc in self.index.values() {
            stats.stored_payload_bytes += loc.stored_len;
            stats.uncompressed_payload_bytes += loc.uncompressed_len;
            stats.compressed_payloads += usize::from(loc.compressed);
        }
        stats
    }

    /// Rewrites the log keeping exactly one record per instance — its
    /// outcome if it finished, its latest checkpoint otherwise — into a
    /// sibling temp file, then atomically renames it over the log and
    /// re-indexes. Superseded checkpoints (the bulk of a resume-heavy
    /// store) are dropped; everything a resume reads — latest
    /// checkpoints, outcomes, positions — survives bit-exactly, so a
    /// strict [`open`](Self::open) + resume after compaction behaves
    /// identically. The lock is held throughout; a crash before the
    /// rename leaves the old log untouched.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        let stats_before = self.stats();
        // One surviving record per instance, in instance order (so the
        // compacted bytes are a pure function of the logical contents).
        let mut survivors: Vec<(u64, u64, u128, bool)> = Vec::new();
        for (&instance, &(position, key)) in &self.finished {
            survivors.push((instance, position, key, true));
        }
        for (&instance, &(position, key)) in &self.latest {
            if !self.finished.contains_key(&instance) {
                survivors.push((instance, position, key, false));
            }
        }
        survivors.sort_unstable_by_key(|&(instance, ..)| instance);
        // Stream the compacted log into a sibling temp file, one record
        // at a time: each surviving payload is read from the old log
        // (hash re-verified by get_payload) and written straight out, so
        // memory stays bounded by the largest single payload — not the
        // surviving set, which on a big fleet is itself huge.
        let tmp_path = {
            let mut os = self.path.as_os_str().to_os_string();
            os.push(".compact");
            PathBuf::from(os)
        };
        let _ = std::fs::remove_file(&tmp_path);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&tmp_path)?;
        let mut index = HashMap::new();
        let mut latest = HashMap::new();
        let mut finished = HashMap::new();
        let mut full_records = 0usize;
        let header = render_header(&self.tag);
        tmp.write_all(&header)?;
        let mut end = header.len() as u64;
        for &(instance, position, key, is_outcome) in &survivors {
            let (full_kind, ref_kind) = if is_outcome {
                (RECORD_OUTCOME_FULL, RECORD_OUTCOME_REF)
            } else {
                (RECORD_FULL, RECORD_REF)
            };
            let kind = if index.contains_key(&key) {
                ref_kind
            } else {
                full_kind
            };
            let mut rec = Vec::with_capacity(RECORD_HEADER_LEN as usize + 24);
            rec.push(kind);
            rec.extend_from_slice(&instance.to_le_bytes());
            rec.extend_from_slice(&position.to_le_bytes());
            rec.extend_from_slice(&key.to_le_bytes());
            rec.extend_from_slice(
                &record_header_check(kind, instance, position, key).to_le_bytes(),
            );
            if kind == full_kind {
                let payload = self.get_payload(key)?;
                let (stored_len, compressed) =
                    encode_full_body(self.compression, &payload, &mut rec);
                tmp.write_all(&rec)?;
                index.insert(
                    key,
                    PayloadLoc {
                        offset: end + RECORD_HEADER_LEN + FULL_META_LEN,
                        stored_len,
                        uncompressed_len: payload.len() as u64,
                        compressed,
                        outcome_shaped: decode_outcome(&payload).is_some(),
                    },
                );
                end += rec.len() as u64;
                full_records += 1;
            } else {
                tmp.write_all(&rec)?;
                end += rec.len() as u64;
            }
            if is_outcome {
                finished.insert(instance, (position, key));
            } else {
                latest.insert(instance, (position, key));
            }
        }
        tmp.sync_all()?;
        // Rename the temp log into place — the one atomic step. The
        // `.lock` path is untouched, so this handle keeps its writer
        // exclusion across the swap. The temp file's own handle becomes
        // the store handle: a rename does not invalidate an open
        // descriptor, so there is no post-rename reopen that could fail
        // and leave this handle appending to the unlinked
        // pre-compaction inode.
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.end = end;
        self.index = index;
        self.latest = latest;
        self.finished = finished;
        self.records = survivors.len();
        self.full_records = full_records;
        Ok(CompactionReport {
            records_before: stats_before.records,
            records_after: self.records,
            bytes_before: stats_before.file_bytes,
            bytes_after: self.end,
            before: stats_before,
            after: self.stats(),
        })
    }

    /// [`compact`](Self::compact) on a store file in one step: reads the
    /// decider tag out of the header (fully validating it first), opens
    /// the store strictly, and compacts. This is what `experiments store
    /// compact` drives — the operator does not need to know which
    /// decider type wrote each shard file.
    pub fn compact_file(path: impl AsRef<Path>) -> Result<CompactionReport, StoreError> {
        let tag = peek_tag(path.as_ref())?;
        Self::open(path, &tag)?.compact()
    }
}

/// Reads the decider [`Checkpointable::TYPE_TAG`] out of a store file's
/// header, validating magic and versions on the way (but, by
/// construction, not the tag itself). Lets tag-agnostic tooling — store
/// compaction, inspection — open a store that describes itself. Only a
/// bounded prefix is read: the header's variable parts carry `u8`
/// length prefixes, so it can never exceed `MAX_HEADER_LEN` (522) bytes —
/// peeking a multi-hundred-megabyte resume-heavy log costs one small
/// read, not a full scan.
pub fn peek_tag(path: impl AsRef<Path>) -> Result<String, StoreError> {
    peek_header(path).map(|h| h.tag)
}

/// Header facts of a store file, as read by [`peek_header`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Byte length of the header (records start here).
    pub len: u64,
    /// Store format version of the file.
    pub version: u8,
    /// Decider [`Checkpointable::TYPE_TAG`] the store was written for.
    pub tag: String,
}

/// Reads and validates a store file's header without scanning any
/// records — the bounded-read entry point tooling (and the
/// [`RecordScanner`] tests) use to find where records start and which
/// format they use.
pub fn peek_header(path: impl AsRef<Path>) -> Result<StoreHeader, StoreError> {
    let mut bytes = Vec::with_capacity(MAX_HEADER_LEN);
    File::open(path.as_ref())?
        .take(MAX_HEADER_LEN as u64)
        .read_to_end(&mut bytes)?;
    validate_header_tag(&bytes).map(|(len, tag)| StoreHeader {
        len,
        version: STORE_VERSION,
        tag,
    })
}

/// Renders a store header for `tag`.
fn render_header(tag: &str) -> Vec<u8> {
    let mut header = Vec::with_capacity(32);
    header.extend_from_slice(&STORE_MAGIC);
    header.push(STORE_VERSION);
    header.push(CHECKPOINT_VERSION);
    push_short_str(&mut header, WORKSPACE_VERSION);
    push_short_str(&mut header, tag);
    header
}

/// Encodes the body of a full record (everything after the 41-byte
/// record header) into `rec`, applying the compression policy. Returns
/// the stored byte count and the compressed flag — what the caller
/// needs to build the [`PayloadLoc`].
fn encode_full_body(compression: bool, payload: &[u8], rec: &mut Vec<u8>) -> (u64, bool) {
    // Compress only when it is a strict win; per-record flags mean the
    // decision never has to be revisited by readers.
    let block = if compression && payload.len() >= COMPRESS_MIN_LEN {
        Some(lz4_flex::block::compress(payload)).filter(|b| b.len() < payload.len())
    } else {
        None
    };
    let (flags, stored) = match &block {
        Some(block) => (FLAG_COMPRESSED, block.as_slice()),
        None => (0, payload),
    };
    rec.push(flags);
    rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(&(stored.len() as u64).to_le_bytes());
    rec.extend_from_slice(stored);
    (stored.len() as u64, flags == FLAG_COMPRESSED)
}

/// Upper bound on the header's byte length: magic + two version bytes +
/// two `u8`-length-prefixed strings of at most 255 bytes each.
const MAX_HEADER_LEN: usize = STORE_MAGIC.len() + 2 + 2 * (1 + u8::MAX as usize);

fn push_short_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u8::MAX as usize);
    out.push(s.len().min(u8::MAX as usize) as u8);
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u8::MAX as usize)]);
}

/// Validates the variable-length header, returning its byte length and
/// the decider tag it records. Every read is bounds-checked against the
/// file, so a truncated or hostile header can never index out of range
/// or over-allocate.
fn validate_header_tag(bytes: &[u8]) -> Result<(u64, String), StoreError> {
    if bytes.len() < STORE_MAGIC.len() || bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
        return Err(StoreError::NotAStore);
    }
    let mut off = STORE_MAGIC.len();
    let take = |off: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        if bytes.len() - *off < n {
            return Err(StoreError::Truncated {
                offset: *off as u64,
            });
        }
        let out = &bytes[*off..*off + n];
        *off += n;
        Ok(out)
    };
    let store_ver = take(&mut off, 1)?[0];
    if store_ver != STORE_VERSION {
        return Err(StoreError::UnsupportedStoreVersion(store_ver));
    }
    let cp_ver = take(&mut off, 1)?[0];
    if cp_ver != CHECKPOINT_VERSION {
        return Err(StoreError::CheckpointVersionMismatch { found: cp_ver });
    }
    let ws_len = take(&mut off, 1)?[0] as usize;
    let ws = String::from_utf8_lossy(take(&mut off, ws_len)?).into_owned();
    if ws != WORKSPACE_VERSION {
        return Err(StoreError::WorkspaceMismatch { found: ws });
    }
    let tag_len = take(&mut off, 1)?[0] as usize;
    let found_tag = String::from_utf8_lossy(take(&mut off, tag_len)?).into_owned();
    Ok((off as u64, found_tag))
}

/// [`validate_header_tag`], additionally requiring the recorded decider
/// tag to equal `tag`. Returns the header length.
fn validate_header(bytes: &[u8], tag: &str) -> Result<u64, StoreError> {
    let (len, found_tag) = validate_header_tag(bytes)?;
    if found_tag != tag {
        return Err(StoreError::DeciderMismatch {
            found: found_tag,
            expected: tag.to_string(),
        });
    }
    Ok(len)
}

/// One validated record, as yielded by [`RecordScanner::next_record`].
#[derive(Clone, Copy, Debug)]
pub struct ScannedRecord {
    /// Instance index that owns the record.
    pub instance: u64,
    /// Stream position the record was taken at.
    pub position: u64,
    /// Content key of the payload (stored or referenced).
    pub key: u128,
    /// True for outcome records (full or ref).
    pub outcome: bool,
    /// True when the record carries a payload (false for dedupe refs).
    pub full: bool,
    /// Offset one past the record.
    pub next: u64,
}

/// Incremental, forward-only validator for a store's record section.
///
/// This is the one scan loop behind `open`, `recover`, `compact`, and
/// the corruption battery: it reads the log through any [`Read`] — no
/// seeking, no whole-file buffer — holding at most one record's stored
/// bytes (plus their decompressed form) at a time, and grows only the
/// fixed-width key index. Every validation the old in-memory scan did
/// is preserved: header checksum, bounds checks on every length field
/// *before* any allocation, content hash over the uncompressed payload,
/// outcome shape checks, and dangling/cross-kind ref detection (ref
/// records are validated against the index without re-reading the
/// payload they point at).
///
/// After an `Err`, [`offset`](Self::offset) still reports the failed
/// record's start — exactly where salvage truncates — and the scanner
/// must not be advanced further.
pub struct RecordScanner<R> {
    reader: R,
    file_len: u64,
    /// Start of the record the next `next_record` call will validate
    /// (or, after an error, of the record that failed).
    offset: u64,
    records: usize,
    attempts: usize,
    /// Reusable stored-bytes buffer: the "one payload" of the memory
    /// bound.
    buf: Vec<u8>,
    peak_resident: u64,
    index: HashMap<u128, PayloadLoc>,
}

impl<R: Read> RecordScanner<R> {
    /// Starts a scan over `reader`, which must be positioned at
    /// `records_start` (one past the header) of a file `file_len` bytes
    /// long.
    pub fn new(reader: R, file_len: u64, records_start: u64) -> Self {
        RecordScanner {
            reader,
            file_len,
            offset: records_start,
            records: 0,
            attempts: 0,
            buf: Vec::new(),
            peak_resident: 0,
            index: HashMap::new(),
        }
    }

    /// Validates and returns the next record, `Ok(None)` at a clean end
    /// of file.
    pub fn next_record(&mut self) -> Result<Option<ScannedRecord>, StoreError> {
        if self.offset >= self.file_len {
            return Ok(None);
        }
        let off = self.offset;
        self.attempts += 1;
        let remaining = self.file_len - off;
        if remaining < RECORD_HEADER_LEN {
            return Err(StoreError::Truncated { offset: off });
        }
        let mut head = [0u8; RECORD_HEADER_LEN as usize];
        self.reader.read_exact(&mut head)?;
        let kind = head[0];
        let instance = u64::from_le_bytes(head[1..9].try_into().expect("sized"));
        let position = u64::from_le_bytes(head[9..17].try_into().expect("sized"));
        let key = u128::from_le_bytes(head[17..33].try_into().expect("sized"));
        let check = u64::from_le_bytes(head[33..41].try_into().expect("sized"));
        if check != record_header_check(kind, instance, position, key) {
            return Err(StoreError::CorruptRecord { offset: off });
        }
        match kind {
            RECORD_REF | RECORD_OUTCOME_REF => {
                let Some(loc) = self.index.get(&key) else {
                    // A ref to a payload the log never stored: dangling.
                    return Err(StoreError::CorruptRecord { offset: off });
                };
                // An outcome ref must reference outcome-shaped bytes: a
                // crafted ref at a checkpoint payload would otherwise
                // pass strict open and then poison compaction (which
                // rewrites it as an outcome full record that no longer
                // scans). The shape was recorded when the full record
                // was scanned, so no payload re-read is needed.
                if kind == RECORD_OUTCOME_REF && !loc.outcome_shaped {
                    return Err(StoreError::CorruptRecord { offset: off });
                }
                let next = off + RECORD_HEADER_LEN;
                self.offset = next;
                self.records += 1;
                Ok(Some(ScannedRecord {
                    instance,
                    position,
                    key,
                    outcome: kind == RECORD_OUTCOME_REF,
                    full: false,
                    next,
                }))
            }
            RECORD_FULL | RECORD_OUTCOME_FULL => {
                if remaining < RECORD_HEADER_LEN + FULL_META_LEN {
                    return Err(StoreError::Truncated { offset: off });
                }
                let mut meta = [0u8; FULL_META_LEN as usize];
                self.reader.read_exact(&mut meta)?;
                let flags = meta[0];
                if flags & !FLAG_COMPRESSED != 0 {
                    return Err(StoreError::CorruptRecord { offset: off });
                }
                let compressed = flags == FLAG_COMPRESSED;
                let uncompressed_len = u64::from_le_bytes(meta[1..9].try_into().expect("sized"));
                let stored_len = u64::from_le_bytes(meta[9..17].try_into().expect("sized"));
                // Stored length first: checked against the real file
                // size *before* the buffer allocation, so a bit-flipped
                // (or hostile) length can neither panic nor
                // over-allocate.
                if remaining - RECORD_HEADER_LEN - FULL_META_LEN < stored_len {
                    return Err(StoreError::Truncated { offset: off });
                }
                if !compressed && uncompressed_len != stored_len {
                    // Raw payloads must declare matching lengths.
                    return Err(StoreError::CorruptRecord { offset: off });
                }
                self.buf.clear();
                self.buf.resize(stored_len as usize, 0);
                self.reader.read_exact(&mut self.buf)?;
                let (hash_ok, outcome_shaped, resident) = if compressed {
                    // The decompressor itself bounds the declared length
                    // against LZ4's maximum expansion before allocating.
                    match lz4_flex::block::decompress(&self.buf, uncompressed_len as usize) {
                        Ok(payload) => (
                            content_key(&payload) == key,
                            decode_outcome(&payload).is_some(),
                            stored_len + uncompressed_len,
                        ),
                        Err(_) => return Err(StoreError::CorruptCompressed { offset: off }),
                    }
                } else {
                    (
                        content_key(&self.buf) == key,
                        decode_outcome(&self.buf).is_some(),
                        stored_len,
                    )
                };
                self.peak_resident = self.peak_resident.max(resident);
                if !hash_ok {
                    return Err(StoreError::CorruptRecord { offset: off });
                }
                if kind == RECORD_OUTCOME_FULL && !outcome_shaped {
                    // Right hash, wrong shape: hand-crafted bytes, never
                    // a bit flip. Still refused before anything trusts it.
                    return Err(StoreError::CorruptRecord { offset: off });
                }
                let payload_off = off + RECORD_HEADER_LEN + FULL_META_LEN;
                self.index.insert(
                    key,
                    PayloadLoc {
                        offset: payload_off,
                        stored_len,
                        uncompressed_len,
                        compressed,
                        outcome_shaped,
                    },
                );
                let next = payload_off + stored_len;
                self.offset = next;
                self.records += 1;
                Ok(Some(ScannedRecord {
                    instance,
                    position,
                    key,
                    outcome: kind == RECORD_OUTCOME_FULL,
                    full: true,
                    next,
                }))
            }
            _ => Err(StoreError::CorruptRecord { offset: off }),
        }
    }

    /// Offset of the next unvalidated byte (after an error: the start
    /// of the record that failed — the salvage truncation point).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Records validated successfully so far.
    pub fn records_scanned(&self) -> usize {
        self.records
    }

    /// Records the scanner *attempted* to validate (successes plus a
    /// final failure, if any) — the single-pass pin for recovery.
    pub fn validation_attempts(&self) -> usize {
        self.attempts
    }

    /// Largest payload footprint held at once: stored bytes, plus the
    /// decompressed bytes for compressed payloads. This is what the
    /// O(1)-memory instrumented-reader test asserts against.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident
    }

    /// Consumes the scanner, yielding the payload index it built.
    fn into_index(self) -> HashMap<u128, PayloadLoc> {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::streaming::{StoreEverything, StorePredicate};
    use oqsc_lang::Sym;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oqsc-store-unit-{}-{name}.cps", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(lock_path_for(&p));
        p
    }

    fn checkpoint_at(tokens: usize) -> SessionCheckpoint {
        let mut s = Session::new(StoreEverything::new(StorePredicate::ContainsOne));
        for i in 0..tokens {
            s.feed(if i % 2 == 0 { Sym::One } else { Sym::Zero });
        }
        s.suspend()
    }

    #[test]
    fn append_get_latest_round_trip() {
        let path = temp_path("round-trip");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        let a = checkpoint_at(3);
        let b = checkpoint_at(7);
        let ka = store.append(0, &a).expect("append a");
        let kb = store.append(0, &b).expect("append b");
        assert_ne!(ka, kb);
        assert_eq!(store.get(ka).expect("get a"), a);
        assert_eq!(store.latest(0).expect("latest"), Some(b.clone()));
        assert_eq!(store.latest_position(0), Some(7));
        assert_eq!(store.latest(1).expect("none"), None);
        drop(store);
        // Reopen strictly: everything is still there.
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.records(), 2);
        assert_eq!(store.latest(0).expect("latest"), Some(b));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_store_stats_have_no_division_hazards() {
        // A store with zero records (the `store stats` fresh-file case):
        // both ratio accessors must return finite, well-defined values
        // rather than NaN from 0/0.
        let path = temp_path("fresh-stats");
        let store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        let stats = store.stats();
        assert_eq!(stats.records, 0);
        assert_eq!(stats.stored_payload_bytes, 0);
        assert_eq!(stats.dedupe_hit_rate(), 0.0);
        assert_eq!(stats.compression_ratio(), 1.0);
        assert!(stats.dedupe_hit_rate().is_finite());
        assert!(stats.compression_ratio().is_finite());
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_payload_stats_ratios_stay_finite() {
        // Even constructed-by-hand degenerate stats (records but no stored
        // bytes, refs but no fulls) keep both accessors finite.
        let stats = StoreStats {
            records: 3,
            ref_records: 3,
            ..StoreStats::default()
        };
        assert_eq!(stats.dedupe_hit_rate(), 1.0);
        assert_eq!(stats.compression_ratio(), 1.0);
        assert!(stats.dedupe_hit_rate().is_finite());
        assert!(stats.compression_ratio().is_finite());
    }

    #[test]
    fn identical_payloads_are_stored_once() {
        let path = temp_path("dedupe");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        let cp = checkpoint_at(5);
        let k1 = store.append(0, &cp).expect("first");
        let full_size = store.len_bytes();
        let k2 = store.append(9, &cp).expect("second (other instance)");
        assert_eq!(k1, k2, "content-addressed: same bytes, same key");
        assert_eq!(store.payloads(), 1);
        let ref_growth = store.len_bytes() - full_size;
        assert_eq!(
            ref_growth, RECORD_HEADER_LEN,
            "ref records carry no payload"
        );
        // Both instances resolve to the same checkpoint, across a reopen.
        drop(store);
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.latest(9).expect("latest"), Some(cp));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_refuses_to_overwrite_and_locks_exclude() {
        let path = temp_path("exclusive");
        let store = CheckpointStore::create(&path, "T").expect("create");
        assert!(matches!(
            CheckpointStore::create(&path, "T"),
            Err(StoreError::Locked { .. })
        ));
        drop(store);
        // Lock released on drop; the file still exists, so create refuses.
        assert!(matches!(
            CheckpointStore::create(&path, "T"),
            Err(StoreError::AlreadyExists { .. })
        ));
        // An orphaned lock (writer killed) blocks open until broken.
        std::fs::write(lock_path_for(&path), b"12345").expect("fake orphan lock");
        assert!(matches!(
            CheckpointStore::open(&path, "T"),
            Err(StoreError::Locked { .. })
        ));
        assert!(CheckpointStore::break_lock(&path).expect("break"));
        assert!(!CheckpointStore::break_lock(&path).expect("idempotent"));
        CheckpointStore::open(&path, "T").expect("opens after break");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let path = temp_path("tag");
        drop(CheckpointStore::create(&path, "TypeA").expect("create"));
        assert!(matches!(
            CheckpointStore::open(&path, "TypeB"),
            Err(StoreError::DeciderMismatch { .. })
        ));
        CheckpointStore::open(&path, "TypeA").expect("right tag opens");
        assert_eq!(peek_tag(&path).expect("self-describing"), "TypeA");
        let _ = std::fs::remove_file(&path);
    }

    fn outcome(accept: bool, bits: usize) -> RunOutcome {
        RunOutcome {
            accept,
            classical_bits: bits,
            peak_qubits: 3,
            peak_amplitudes: 8,
        }
    }

    #[test]
    fn outcome_records_round_trip_and_dedupe() {
        let path = temp_path("outcome");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        store.append(0, &checkpoint_at(3)).expect("checkpoint");
        let o = outcome(true, 40);
        store.append_outcome(0, 7, &o).expect("outcome");
        assert!(store.is_finished(0));
        assert!(!store.is_finished(1));
        assert_eq!(store.outcome(0).expect("read"), Some(o));
        assert_eq!(store.outcome(1).expect("none"), None);
        // The same outcome for another instance is a ref record.
        let full_size = store.len_bytes();
        store.append_outcome(5, 9, &o).expect("dedupe");
        assert_eq!(store.len_bytes() - full_size, RECORD_HEADER_LEN);
        assert_eq!(store.finished_instances(), 2);
        assert_eq!(store.instances(), 2, "0 and 5 (0 counted once)");
        drop(store);
        // Everything survives a strict reopen.
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.outcome(0).expect("read"), Some(o));
        assert_eq!(store.outcome(5).expect("read"), Some(o));
        assert_eq!(store.latest_position(0), Some(3), "checkpoint kept too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finished_outcomes_scans_the_completion_ledger_in_instance_order() {
        let path = temp_path("finished-scan");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        assert_eq!(store.finished_outcomes().expect("empty"), []);
        // Append out of instance order, with a dedupe and an unfinished
        // instance mixed in; the scan must come back sorted and complete.
        let a = outcome(true, 11);
        let b = outcome(false, 22);
        store.append_outcome(9, 4, &a).expect("outcome");
        store.append(3, &checkpoint_at(2)).expect("checkpoint only");
        store.append_outcome(1, 6, &b).expect("outcome");
        store.append_outcome(4, 5, &a).expect("deduped outcome");
        assert_eq!(
            store.finished_outcomes().expect("scan"),
            [(1, 6, b), (4, 5, a), (9, 4, a)]
        );
        drop(store);
        // The scan works identically on a recovered store.
        let (mut store, _) =
            CheckpointStore::recover_for::<StoreEverything>(&path).expect("recover");
        assert_eq!(
            store.finished_outcomes().expect("scan"),
            [(1, 6, b), (4, 5, a), (9, 4, a)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_only_latest_checkpoints_and_outcomes() {
        let path = temp_path("compact");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        // Instance 0: finished (3 superseded checkpoints + outcome).
        // Instance 1: unfinished (2 checkpoints). Instance 2: outcome only.
        for tokens in [2usize, 4, 6] {
            store.append(0, &checkpoint_at(tokens)).expect("append");
        }
        let done = outcome(false, 17);
        store.append_outcome(0, 8, &done).expect("outcome");
        store.append(1, &checkpoint_at(5)).expect("append");
        let latest_cp = checkpoint_at(9);
        store.append(1, &latest_cp).expect("append");
        store.append_outcome(2, 4, &outcome(true, 9)).expect("out");
        let bytes_before = store.len_bytes();
        let report = store.compact().expect("compact");
        assert_eq!(report.bytes_before, bytes_before);
        assert_eq!(report.records_before, 7);
        assert_eq!(report.records_after, 3, "one record per instance");
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.len_bytes(), report.bytes_after);
        // The live view is intact through the handle…
        assert_eq!(store.outcome(0).expect("read"), Some(done));
        assert_eq!(store.latest(1).expect("read"), Some(latest_cp.clone()));
        assert_eq!(store.latest_position(0), None, "superseded by the outcome");
        drop(store);
        // …and through a strict reopen of the rewritten file.
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.records(), 3);
        assert_eq!(store.outcome(0).expect("read"), Some(done));
        assert_eq!(store.outcome(2).expect("read"), Some(outcome(true, 9)));
        assert_eq!(store.latest(1).expect("read"), Some(latest_cp));
        // Compacting twice is a fixed point (byte-identical log).
        let bytes = std::fs::read(&path).expect("read");
        store.compact().expect("recompact");
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crafted_cross_kind_outcome_refs_are_rejected() {
        let path = temp_path("cross-ref");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        let cp = checkpoint_at(4);
        let key = store.append(0, &cp).expect("checkpoint");
        drop(store);
        // Hand-craft an outcome *ref* record whose key points at the
        // checkpoint payload (header checksum computed honestly, so only
        // the cross-kind validation can catch it). Strict open must
        // refuse — otherwise compaction would rewrite the checkpoint
        // bytes as an outcome full record that no longer scans.
        let mut bytes = std::fs::read(&path).expect("read");
        let valid_len = bytes.len() as u64;
        bytes.push(RECORD_OUTCOME_REF);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&record_header_check(RECORD_OUTCOME_REF, 0, 4, key).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            CheckpointStore::open_for::<StoreEverything>(&path),
            Err(StoreError::CorruptRecord { .. })
        ));
        // Recovery drops the crafted record and keeps the real one.
        let (mut store, report) =
            CheckpointStore::recover_for::<StoreEverything>(&path).expect("recover");
        assert_eq!(store.len_bytes(), valid_len);
        assert!(report.dropped_bytes > 0);
        assert!(!store.is_finished(0));
        assert_eq!(store.latest(0).expect("read"), Some(cp));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn large_payloads_are_compressed_and_round_trip() {
        let path = temp_path("compress");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        // A long stored-symbols checkpoint: well past COMPRESS_MIN_LEN
        // and highly redundant, so v3 must shrink it on disk.
        let cp = checkpoint_at(600);
        assert!(cp.as_bytes().len() >= COMPRESS_MIN_LEN);
        let key = store.append(0, &cp).expect("append");
        let stats = store.stats();
        assert_eq!(stats.version, STORE_VERSION);
        assert_eq!(stats.compressed_payloads, 1);
        assert!(
            stats.stored_payload_bytes < stats.uncompressed_payload_bytes / 2,
            "stored {} vs logical {}",
            stats.stored_payload_bytes,
            stats.uncompressed_payload_bytes
        );
        assert!(stats.compression_ratio() > 2.0);
        assert_eq!(store.get(key).expect("get"), cp);
        drop(store);
        // The compressed log strict-opens and the payload survives
        // byte-exactly; the scan's resident peak covers block + payload.
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.latest(0).expect("latest"), Some(cp.clone()));
        assert!(store.peak_resident_payload_bytes() >= cp.as_bytes().len() as u64);
        assert!(
            store.peak_resident_payload_bytes() < store.len_bytes() + cp.as_bytes().len() as u64
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_and_incompressible_payloads_stay_raw() {
        let path = temp_path("raw");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        // Below the threshold: stored raw even though compression is on.
        let small = checkpoint_at(2);
        assert!(small.as_bytes().len() < COMPRESS_MIN_LEN);
        store.append(0, &small).expect("append");
        // Outcome payloads (25 bytes) are always raw.
        store
            .append_outcome(1, 9, &outcome(true, 3))
            .expect("outcome");
        let stats = store.stats();
        assert_eq!(stats.compressed_payloads, 0);
        assert_eq!(stats.stored_payload_bytes, stats.uncompressed_payload_bytes);
        assert_eq!(stats.compression_ratio(), 1.0);
        drop(store);
        CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn set_compression_off_gives_an_uncompressed_v3_store() {
        let path = temp_path("nocompress");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        store.set_compression(false);
        let cp = checkpoint_at(600);
        store.append(0, &cp).expect("append");
        let stats = store.stats();
        assert_eq!(stats.compressed_payloads, 0);
        assert_eq!(stats.stored_payload_bytes, stats.uncompressed_payload_bytes);
        drop(store);
        // Mixed logs are fine: reopen (compression back on) and append
        // the compressed sibling of another payload.
        let mut store = CheckpointStore::open_for::<StoreEverything>(&path).expect("open");
        assert_eq!(store.latest(0).expect("latest"), Some(cp));
        store.append(1, &checkpoint_at(601)).expect("append");
        assert_eq!(store.stats().compressed_payloads, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_reports_a_single_validation_pass() {
        let path = temp_path("single-pass");
        let mut store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        for i in 0..5u64 {
            store
                .append(i, &checkpoint_at(600 + i as usize))
                .expect("append");
        }
        drop(store);
        // Clean log: every record validated exactly once.
        let (store, report) =
            CheckpointStore::recover_for::<StoreEverything>(&path).expect("recover");
        assert_eq!(report.salvaged_records, 5);
        assert_eq!(report.scanned_records, 5, "no re-validation on a clean log");
        assert_eq!(report.dropped_bytes, 0);
        drop(store);
        // Torn tail: the failed attempt is counted once, the salvaged
        // prefix exactly once — salvage never rescans what it accepted.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear");
        let (_store, report) =
            CheckpointStore::recover_for::<StoreEverything>(&path).expect("recover");
        assert_eq!(report.salvaged_records, 4);
        assert_eq!(
            report.scanned_records,
            report.salvaged_records + 1,
            "single forward pass: salvaged prefix + the one failed tail"
        );
        assert!(report.dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn peek_header_reports_version_and_records_start() {
        let path = temp_path("peek-header");
        drop(CheckpointStore::create(&path, "PeekMe").expect("create"));
        let head = peek_header(&path).expect("peek");
        assert_eq!(head.version, STORE_VERSION);
        assert_eq!(head.tag, "PeekMe");
        assert_eq!(head.len, render_header("PeekMe").len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_file_opens_by_header_tag() {
        let path = temp_path("compact-file");
        let mut store = CheckpointStore::create(&path, "SomeTag").expect("create");
        let cp = checkpoint_at(4);
        store.append(0, &cp).expect("a");
        store.append(0, &checkpoint_at(6)).expect("b");
        drop(store);
        let report = CheckpointStore::compact_file(&path).expect("compacts untagged");
        assert_eq!(report.records_before, 2);
        assert_eq!(report.records_after, 1);
        CheckpointStore::open(&path, "SomeTag").expect("still strict-openable");
        let _ = std::fs::remove_file(&path);
    }
}
