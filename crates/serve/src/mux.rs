//! The session multiplexing engine: a byte-budgeted, sharded LRU of live
//! [`Session`]s over a cold tail of checkpoint bytes.
//!
//! One box cannot hold millions of *live* deciders — a dense-backend
//! session owns an amplitude vector — but it can hold millions of
//! *suspended* ones: PR 3 made every decider's complete configuration a
//! small versioned byte string, and the store layer compresses those
//! bytes ~13× with LZ4. [`MuxEngine`] exploits that asymmetry with three
//! tiers:
//!
//! 1. **Live** — resident [`Session`]s in a sharded, byte-budgeted LRU.
//! 2. **Warm** — suspended sessions as LZ4-compressed checkpoint bytes in
//!    memory; entered by LRU eviction, left by hydration on the next
//!    token.
//! 3. **Spill** — beyond a second byte budget, warm entries are appended
//!    to a persistent [`CheckpointStore`] and hydrated back through the
//!    store's [`latest`](CheckpointStore::latest) read path.
//!
//! The non-negotiable contract (DESIGN.md §12): for any interleaving of
//! token feeds and any LRU budget — including a pathological budget of 0
//! where every feed evicts and rehydrates — per-session verdicts and
//! metering are `==`-identical to an uninterrupted
//! [`run_decider_stream`](oqsc_machine::run_decider_stream), at any
//! worker count. This is the session-checkpoint transparency law applied
//! transitively: every tier transition is a `suspend`/`resume` round
//! trip, and the checkpoint law says each round trip is invisible.
//!
//! Budgets are enforced on **checkpointed size**: a session's byte cost
//! is the length of its serialized checkpoint, measured at every tier
//! transition (open, hydrate, evict). Per-id operations are serialized
//! by the owning shard's lock; callers present each session's tokens in
//! stream order, and distinct sessions proceed concurrently.

use oqsc_lang::Sym;
use oqsc_machine::{
    CheckpointError, CheckpointStore, Checkpointable, RunOutcome, Session, SessionCheckpoint,
    StoreError, COMPRESS_MIN_LEN,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poison. A handler thread that panics
/// mid-request (a malformed word deep in a decider, an allocation
/// failure) must not wedge every other session hashed onto the same
/// shard: the engine updates shard bookkeeping in panic-safe order
/// (maps and byte accounts are adjusted together, before and after the
/// only panic-prone call, `Session` feeding), so the inner state is
/// still consistent and the lock is safe to reclaim.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sizing knobs for one [`MuxEngine`].
#[derive(Clone, Copy, Debug)]
pub struct MuxConfig {
    /// Total bytes of live (resident) session state across all shards.
    /// `0` is legal and means every feed evicts what it touched — the
    /// pathological schedule the identity tests pin.
    pub live_bytes_budget: usize,
    /// Total bytes of warm (compressed, in-memory) checkpoints across
    /// all shards. Overflow spills to the [`CheckpointStore`] when one
    /// is attached; without a store the warm tier is unbounded.
    pub warm_bytes_budget: usize,
    /// Number of independently locked shards. Sessions are assigned by
    /// a hash of their id; each shard enforces `budget / shards` of the
    /// byte budgets.
    pub shards: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            live_bytes_budget: 64 << 20,
            warm_bytes_budget: 256 << 20,
            shards: 16,
        }
    }
}

/// Why a mux operation failed.
#[derive(Debug)]
pub enum MuxError {
    /// The id was never opened (or was opened on a different engine).
    UnknownSession(u64),
    /// The id is already open (live, warm, or spilled).
    DuplicateSession(u64),
    /// The id was already finished; session ids are single-use.
    Retired(u64),
    /// The spill store failed.
    Store(StoreError),
    /// A checkpoint failed to decode on hydration.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::UnknownSession(id) => write!(f, "unknown session {id}"),
            MuxError::DuplicateSession(id) => write!(f, "session {id} is already open"),
            MuxError::Retired(id) => write!(f, "session {id} is already finished"),
            MuxError::Store(e) => write!(f, "spill store: {e}"),
            MuxError::Checkpoint(e) => write!(f, "hydration: {e}"),
        }
    }
}

impl std::error::Error for MuxError {}

impl From<StoreError> for MuxError {
    fn from(e: StoreError) -> Self {
        MuxError::Store(e)
    }
}

impl From<CheckpointError> for MuxError {
    fn from(e: CheckpointError) -> Self {
        MuxError::Checkpoint(e)
    }
}

/// Point-in-time engine statistics (tier occupancy) plus monotonic
/// lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Sessions opened over the engine's lifetime.
    pub opened: u64,
    /// Sessions finished (retired).
    pub finished: u64,
    /// Tokens fed over the engine's lifetime.
    pub tokens: u64,
    /// Sessions currently live (resident `Session`s).
    pub live: u64,
    /// High-water mark of `live`.
    pub peak_live: u64,
    /// Sessions currently in the warm (compressed in-memory) tier.
    pub warm: u64,
    /// Bytes of live session state (checkpointed-size cost model).
    pub live_bytes: u64,
    /// Bytes of warm compressed checkpoints.
    pub warm_bytes: u64,
    /// Live → warm evictions over the lifetime.
    pub evictions: u64,
    /// Warm/spill → live hydrations over the lifetime.
    pub hydrations: u64,
    /// Warm → store spills over the lifetime.
    pub spills: u64,
    /// Hydrations that had to read the spill store.
    pub spill_hydrations: u64,
}

/// A resident session plus its eviction-order bookkeeping.
struct LiveSession<D: Checkpointable> {
    session: Session<D>,
    /// Touch stamp — the session's key in the shard's LRU order,
    /// refreshed on every touch.
    stamp: u64,
    /// Checkpointed size at the last tier transition — the session's
    /// contribution to the live byte budget.
    cost: usize,
}

/// A suspended session: checkpoint bytes, LZ4-compressed when that wins.
struct WarmEntry {
    bytes: Vec<u8>,
    uncompressed_len: usize,
    compressed: bool,
    stamp: u64,
}

impl WarmEntry {
    fn checkpoint(&self) -> Result<SessionCheckpoint, MuxError> {
        let raw = if self.compressed {
            lz4_flex::block::decompress(&self.bytes, self.uncompressed_len).map_err(|e| {
                MuxError::Checkpoint(CheckpointError::Malformed(format!(
                    "warm-tier LZ4 payload: {e}"
                )))
            })?
        } else {
            self.bytes.clone()
        };
        Ok(SessionCheckpoint::from_bytes(raw)?)
    }
}

/// One lock domain: a slice of the id space with its own eviction order
/// and byte accounting for the live and warm tiers.
struct Shard<D: Checkpointable> {
    live: HashMap<u64, LiveSession<D>>,
    /// stamp → id for the live tier, least recently touched first;
    /// eviction pops the front.
    order: BTreeMap<u64, u64>,
    live_bytes: usize,
    warm: HashMap<u64, WarmEntry>,
    /// stamp → id for the warm tier; spilling pops the front.
    warm_lru: BTreeMap<u64, u64>,
    warm_bytes: usize,
    /// Finished ids — single-use, and a shield against resurrecting a
    /// finished session from its stale spill-store records.
    retired: HashSet<u64>,
}

impl<D: Checkpointable> Shard<D> {
    fn new() -> Self {
        Shard {
            live: HashMap::new(),
            order: BTreeMap::new(),
            live_bytes: 0,
            warm: HashMap::new(),
            warm_lru: BTreeMap::new(),
            warm_bytes: 0,
            retired: HashSet::new(),
        }
    }
}

/// SplitMix64 — the shard hash (and the same mix the sweep registry uses
/// for seed derivation). Also the router's rendezvous hash ingredient.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine. Shared by reference across worker threads: every method
/// takes `&self`, and all interior state is behind shard locks and
/// atomics.
pub struct MuxEngine<D: Checkpointable> {
    shards: Vec<Mutex<Shard<D>>>,
    spill: Option<Mutex<CheckpointStore>>,
    shard_live_budget: usize,
    shard_warm_budget: usize,
    clock: AtomicU64,
    opened: AtomicU64,
    finished: AtomicU64,
    tokens: AtomicU64,
    live_count: AtomicU64,
    peak_live: AtomicU64,
    evictions: AtomicU64,
    hydrations: AtomicU64,
    spills: AtomicU64,
    spill_hydrations: AtomicU64,
}

impl<D: Checkpointable> MuxEngine<D> {
    /// A two-tier engine (live + warm); the warm tier is unbounded.
    pub fn new(config: MuxConfig) -> Self {
        Self::build(config, None)
    }

    /// A three-tier engine: warm-tier overflow spills into `store`, and
    /// spilled sessions hydrate back through the store's read path. The
    /// store must have been created for decider type `D`
    /// ([`CheckpointStore::create_for`]).
    pub fn with_spill(config: MuxConfig, store: CheckpointStore) -> Self {
        Self::build(config, Some(store))
    }

    fn build(config: MuxConfig, store: Option<CheckpointStore>) -> Self {
        let shards = config.shards.max(1);
        MuxEngine {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            spill: store.map(Mutex::new),
            shard_live_budget: config.live_bytes_budget / shards,
            shard_warm_budget: config.warm_bytes_budget / shards,
            clock: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            live_count: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hydrations: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            spill_hydrations: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, id: u64) -> &Mutex<Shard<D>> {
        &self.shards[(mix64(id) % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn note_live_insert(&self) {
        let now = self.live_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live.fetch_max(now, Ordering::Relaxed);
    }

    /// Opens session `id` at stream position 0. Ids are single-use per
    /// engine: an id that is open in any tier, or already finished, is
    /// rejected.
    pub fn open(&self, id: u64, decider: D) -> Result<(), MuxError> {
        let mut shard = lock_recover(self.shard_of(id));
        if shard.retired.contains(&id) {
            return Err(MuxError::Retired(id));
        }
        if shard.live.contains_key(&id) || shard.warm.contains_key(&id) {
            return Err(MuxError::DuplicateSession(id));
        }
        if let Some(store) = &self.spill {
            if lock_recover(store).latest_position(id).is_some() {
                return Err(MuxError::DuplicateSession(id));
            }
        }
        let session = Session::new(decider);
        let cost = session.suspend().byte_len();
        let stamp = self.tick();
        self.admit(&mut shard, id, session, cost, stamp);
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.enforce_budgets(&mut shard)
    }

    /// Inserts a session into a shard's live tier with full eviction
    /// bookkeeping (shared by open and hydrate).
    fn admit(&self, shard: &mut Shard<D>, id: u64, session: Session<D>, cost: usize, stamp: u64) {
        shard.live.insert(
            id,
            LiveSession {
                session,
                stamp,
                cost,
            },
        );
        shard.order.insert(stamp, id);
        shard.live_bytes += cost;
        self.note_live_insert();
    }

    /// Feeds the next `word.len()` tokens of session `id`, hydrating it
    /// from the warm or spill tier if it is not live, then re-enforcing
    /// the byte budgets (which may immediately re-evict it). Returns the
    /// session's new stream position.
    pub fn feed(&self, id: u64, word: &[Sym]) -> Result<u64, MuxError> {
        let mut shard = lock_recover(self.shard_of(id));
        self.hydrate(&mut shard, id)?;
        let stamp = self.tick();
        let live = shard.live.get_mut(&id).expect("hydrated");
        live.session.feed_slice(word);
        let position = live.session.position();
        let old_stamp = std::mem::replace(&mut live.stamp, stamp);
        shard.order.remove(&old_stamp);
        shard.order.insert(stamp, id);
        self.tokens.fetch_add(word.len() as u64, Ordering::Relaxed);
        self.enforce_budgets(&mut shard)?;
        Ok(position)
    }

    /// Ends session `id`: verdict plus the full space accounting,
    /// `==`-identical to the uninterrupted run. The id is retired.
    pub fn finish(&self, id: u64) -> Result<RunOutcome, MuxError> {
        let mut shard = lock_recover(self.shard_of(id));
        self.hydrate(&mut shard, id)?;
        let live = shard.live.remove(&id).expect("hydrated");
        shard.order.remove(&live.stamp);
        shard.live_bytes -= live.cost;
        shard.retired.insert(id);
        self.live_count.fetch_sub(1, Ordering::Relaxed);
        self.finished.fetch_add(1, Ordering::Relaxed);
        Ok(live.session.finish())
    }

    /// Ensures `id` is in the live tier, pulling it from warm bytes or
    /// the spill store if needed. Errors if the id is unknown or retired.
    fn hydrate(&self, shard: &mut Shard<D>, id: u64) -> Result<(), MuxError> {
        if shard.retired.contains(&id) {
            return Err(MuxError::Retired(id));
        }
        if shard.live.contains_key(&id) {
            return Ok(());
        }
        let cp = if let Some(entry) = shard.warm.remove(&id) {
            shard.warm_lru.remove(&entry.stamp);
            shard.warm_bytes -= entry.bytes.len();
            entry.checkpoint()?
        } else if let Some(store) = &self.spill {
            match lock_recover(store).latest(id)? {
                Some(cp) => {
                    self.spill_hydrations.fetch_add(1, Ordering::Relaxed);
                    cp
                }
                None => return Err(MuxError::UnknownSession(id)),
            }
        } else {
            return Err(MuxError::UnknownSession(id));
        };
        let cost = cp.byte_len();
        let session = Session::<D>::resume(&cp)?;
        let stamp = self.tick();
        self.admit(shard, id, session, cost, stamp);
        self.hydrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Evicts least recently touched live sessions to the warm tier
    /// until the shard is under its live budget, then spills oldest warm
    /// entries to the store until under the warm budget.
    fn enforce_budgets(&self, shard: &mut Shard<D>) -> Result<(), MuxError> {
        while shard.live_bytes > self.shard_live_budget {
            let Some((stamp, victim)) = shard.order.pop_first() else {
                break;
            };
            let live = shard.live.remove(&victim).expect("order entry is live");
            shard.live_bytes -= live.cost;
            self.live_count.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let raw = live.session.suspend().into_bytes();
            let uncompressed_len = raw.len();
            // Same policy as the store: compress when it is long enough
            // to plausibly win AND actually smaller.
            let (bytes, compressed) = if raw.len() >= COMPRESS_MIN_LEN {
                let packed = lz4_flex::block::compress(&raw);
                if packed.len() < raw.len() {
                    (packed, true)
                } else {
                    (raw, false)
                }
            } else {
                (raw, false)
            };
            shard.warm_bytes += bytes.len();
            shard.warm.insert(
                victim,
                WarmEntry {
                    bytes,
                    uncompressed_len,
                    compressed,
                    stamp,
                },
            );
            shard.warm_lru.insert(stamp, victim);
        }
        if let Some(store) = &self.spill {
            while shard.warm_bytes > self.shard_warm_budget {
                let Some((_, victim)) = shard.warm_lru.pop_first() else {
                    break;
                };
                let entry = shard.warm.remove(&victim).expect("warm lru entry");
                shard.warm_bytes -= entry.bytes.len();
                let cp = entry.checkpoint()?;
                lock_recover(store).append(victim, &cp)?;
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Spills every live and warm session into the attached store — the
    /// graceful-shutdown path, so a server restarted on the same store
    /// rehydrates mid-stream sessions instead of losing them. Without a
    /// spill store this is a no-op. Returns the number of sessions
    /// persisted.
    ///
    /// Retirement state is *not* persisted: the store records
    /// checkpoints, so a finished id stays guarded only for the
    /// engine's lifetime. Callers restarting from a spill store must
    /// not re-finish ids they already finished.
    pub fn flush_to_spill(&self) -> Result<u64, MuxError> {
        let Some(store) = &self.spill else {
            return Ok(0);
        };
        let mut flushed = 0u64;
        for shard in &self.shards {
            let mut shard = lock_recover(shard);
            let mut ids: Vec<u64> = shard.live.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let live = shard.live.remove(&id).expect("listed id is live");
                shard.order.remove(&live.stamp);
                shard.live_bytes -= live.cost;
                self.live_count.fetch_sub(1, Ordering::Relaxed);
                lock_recover(store).append(id, &live.session.suspend())?;
                self.spills.fetch_add(1, Ordering::Relaxed);
                flushed += 1;
            }
            let mut ids: Vec<u64> = shard.warm.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let entry = shard.warm.remove(&id).expect("listed id is warm");
                shard.warm_lru.remove(&entry.stamp);
                shard.warm_bytes -= entry.bytes.len();
                lock_recover(store).append(id, &entry.checkpoint()?)?;
                self.spills.fetch_add(1, Ordering::Relaxed);
                flushed += 1;
            }
        }
        Ok(flushed)
    }

    /// Point-in-time statistics. Takes every shard lock in turn, so the
    /// tier occupancy numbers are per-shard-consistent.
    pub fn stats(&self) -> MuxStats {
        let mut warm = 0u64;
        let mut live_bytes = 0u64;
        let mut warm_bytes = 0u64;
        for shard in &self.shards {
            let shard = lock_recover(shard);
            warm += shard.warm.len() as u64;
            live_bytes += shard.live_bytes as u64;
            warm_bytes += shard.warm_bytes as u64;
        }
        MuxStats {
            opened: self.opened.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            live: self.live_count.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
            warm,
            live_bytes,
            warm_bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            hydrations: self.hydrations.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            spill_hydrations: self.spill_hydrations.load(Ordering::Relaxed),
        }
    }
}

/// Drives a whole fleet through `engine` on `workers` OS threads and
/// returns `(id, outcome)` per session, sorted by id.
///
/// Worker `w` owns fleet indices `i ≡ w (mod workers)` and feeds its
/// sessions' words round-robin in `chunk`-token slices, so sessions
/// interleave aggressively and churn the LRU. These fixed strided lanes
/// differ from the batch scheduler's claim-next queue on purpose: a
/// lane must hold many sessions open at once to force that churn.
/// Because each session's tokens arrive in stream order regardless of
/// `workers` and `chunk`, the outcome table is identical at any worker
/// count and chunk size.
pub fn run_fleet<D: Checkpointable + Send>(
    engine: &MuxEngine<D>,
    fleet: Vec<(u64, D, Vec<Sym>)>,
    chunk: usize,
    workers: usize,
) -> Result<Vec<(u64, RunOutcome)>, MuxError> {
    let workers = workers.max(1);
    let chunk = chunk.max(1);
    let mut lanes: Vec<Vec<(u64, D, Vec<Sym>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, entry) in fleet.into_iter().enumerate() {
        lanes[i % workers].push(entry);
    }
    let run_lane = |lane: Vec<(u64, D, Vec<Sym>)>| -> Result<Vec<(u64, RunOutcome)>, MuxError> {
        let mut words: Vec<(u64, Vec<Sym>, usize)> = Vec::with_capacity(lane.len());
        for (id, decider, word) in lane {
            engine.open(id, decider)?;
            words.push((id, word, 0));
        }
        loop {
            let mut progressed = false;
            for (id, word, pos) in &mut words {
                if *pos < word.len() {
                    let end = (*pos + chunk).min(word.len());
                    engine.feed(*id, &word[*pos..end])?;
                    *pos = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        words
            .into_iter()
            .map(|(id, _, _)| Ok((id, engine.finish(id)?)))
            .collect()
    };
    let merged = Mutex::new(Ok(Vec::new()));
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(|| {
                let lane_result = run_lane(lane);
                let mut merged = lock_recover(&merged);
                match (&mut *merged, lane_result) {
                    (Ok(all), Ok(rows)) => all.extend(rows),
                    (Ok(_), Err(e)) => *merged = Err(e),
                    (Err(_), _) => {}
                }
            });
        }
    });
    let mut rows = merged
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)?;
    rows.sort_unstable_by_key(|(id, _)| *id);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oqsc_machine::{run_decider, StoreEverything, StorePredicate};

    fn word(s: &str) -> Vec<Sym> {
        oqsc_lang::token::from_str(s).expect("valid symbols")
    }

    fn store_session(pred: StorePredicate) -> StoreEverything {
        StoreEverything::new(pred)
    }

    fn spill_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oqsc-mux-unit-{}-{name}.cps", std::process::id()))
    }

    #[test]
    fn evict_on_every_feed_matches_uninterrupted() {
        let w = word("1#01#110#1");
        let reference = run_decider(store_session(StorePredicate::InLdisj), &w);
        let engine = MuxEngine::new(MuxConfig {
            live_bytes_budget: 0,
            warm_bytes_budget: 0,
            shards: 1,
        });
        engine
            .open(7, store_session(StorePredicate::InLdisj))
            .expect("open");
        for sym in &w {
            engine.feed(7, std::slice::from_ref(sym)).expect("feed");
        }
        let out = engine.finish(7).expect("finish");
        assert_eq!(out, reference);
        let stats = engine.stats();
        // Position-0 open + every one of the 10 feeds evicted afterwards.
        assert!(stats.evictions > w.len() as u64, "stats: {stats:?}");
        assert_eq!(stats.hydrations, stats.evictions);
        assert_eq!(stats.live, 0);
        assert_eq!(stats.finished, 1);
    }

    #[test]
    fn spill_tier_round_trips_through_the_store() {
        let path = spill_path("spill");
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        // live budget 0 + warm budget 0: every eviction spills to disk.
        let engine = MuxEngine::with_spill(
            MuxConfig {
                live_bytes_budget: 0,
                warm_bytes_budget: 0,
                shards: 2,
            },
            store,
        );
        let w = word("01#1#00#");
        let reference = run_decider(store_session(StorePredicate::ContainsOne), &w);
        engine
            .open(1, store_session(StorePredicate::ContainsOne))
            .expect("open");
        for sym in &w {
            engine.feed(1, std::slice::from_ref(sym)).expect("feed");
        }
        assert_eq!(engine.finish(1).expect("finish"), reference);
        let stats = engine.stats();
        assert!(stats.spills > 0, "stats: {stats:?}");
        assert!(stats.spill_hydrations > 0, "stats: {stats:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ids_are_single_use_and_unknowns_are_loud() {
        let engine = MuxEngine::new(MuxConfig::default());
        engine
            .open(3, store_session(StorePredicate::AcceptAll))
            .expect("open");
        assert!(matches!(
            engine.open(3, store_session(StorePredicate::AcceptAll)),
            Err(MuxError::DuplicateSession(3))
        ));
        assert!(matches!(
            engine.feed(4, &word("1")),
            Err(MuxError::UnknownSession(4))
        ));
        assert!(matches!(engine.finish(4), Err(MuxError::UnknownSession(4))));
        engine.finish(3).expect("finish");
        assert!(matches!(
            engine.feed(3, &word("1")),
            Err(MuxError::Retired(3))
        ));
        assert!(matches!(
            engine.open(3, store_session(StorePredicate::AcceptAll)),
            Err(MuxError::Retired(3))
        ));
    }

    #[test]
    fn poisoned_shard_locks_recover_instead_of_wedging() {
        // A handler thread that panics while holding a shard lock
        // poisons the mutex; every later operation on that shard must
        // recover and keep serving the other sessions.
        let engine = MuxEngine::new(MuxConfig {
            live_bytes_budget: 1 << 20,
            warm_bytes_budget: 1 << 20,
            shards: 1, // every id maps to the poisoned shard
        });
        engine
            .open(1, store_session(StorePredicate::ContainsOne))
            .expect("open before poison");
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.shards[0].lock().expect("not yet poisoned");
            panic!("simulated handler panic while holding the shard lock");
        }));
        assert!(poison.is_err(), "the panic must fire");
        assert!(engine.shards[0].lock().is_err(), "lock must be poisoned");
        let w = word("01#1#");
        engine.feed(1, &w).expect("feed across poisoned lock");
        engine
            .open(2, store_session(StorePredicate::AcceptAll))
            .expect("open across poisoned lock");
        let reference = run_decider(store_session(StorePredicate::ContainsOne), &w);
        assert_eq!(engine.finish(1).expect("finish"), reference);
        engine.finish(2).expect("finish the second session");
        assert_eq!(engine.stats().finished, 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_fed_session_first() {
        // Two same-cost sessions: the one fed more often but less
        // recently must head the eviction order — recency alone decides.
        let engine = MuxEngine::new(MuxConfig {
            live_bytes_budget: 1 << 20,
            warm_bytes_budget: 1 << 20,
            shards: 1,
        });
        engine
            .open(1, store_session(StorePredicate::AcceptAll))
            .expect("open");
        engine
            .open(2, store_session(StorePredicate::AcceptAll))
            .expect("open");
        for sym in word("1#01") {
            engine.feed(2, &[sym]).expect("feed often");
        }
        engine.feed(1, &word("1#01")).expect("feed last");
        {
            let shard = lock_recover(&engine.shards[0]);
            let order: Vec<u64> = shard.order.values().copied().collect();
            assert_eq!(order, [2, 1], "the less recently fed session goes first");
        }
        // flush_to_spill without an attached store is a loud no-op.
        assert_eq!(engine.flush_to_spill().expect("no store"), 0);
    }

    #[test]
    fn flush_to_spill_survives_a_restart() {
        let path = spill_path("flush");
        let _ = std::fs::remove_file(&path);
        let w = word("1#01#110#1");
        let reference = run_decider(store_session(StorePredicate::InLdisj), &w);
        let config = MuxConfig {
            live_bytes_budget: 1 << 20,
            warm_bytes_budget: 1 << 20,
            shards: 2,
        };
        let store = CheckpointStore::create_for::<StoreEverything>(&path).expect("create");
        let engine = MuxEngine::with_spill(config, store);
        for id in [1u64, 2] {
            engine
                .open(id, store_session(StorePredicate::InLdisj))
                .expect("open");
            engine.feed(id, &w[..5]).expect("feed first half");
        }
        assert_eq!(engine.flush_to_spill().expect("flush"), 2);
        assert_eq!(engine.stats().live, 0);
        drop(engine);
        let (store, _report) =
            CheckpointStore::recover_for::<StoreEverything>(&path).expect("recover");
        let engine = MuxEngine::<StoreEverything>::with_spill(config, store);
        for id in [1u64, 2] {
            // No OPEN: each session hydrates from its spilled
            // mid-stream checkpoint and picks up where it left off.
            engine.feed(id, &w[5..]).expect("feed second half");
            assert_eq!(engine.finish(id).expect("finish"), reference);
        }
        assert_eq!(engine.stats().spill_hydrations, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fleet_runner_is_worker_count_invariant() {
        let preds = [
            StorePredicate::ContainsOne,
            StorePredicate::IsEmpty,
            StorePredicate::LengthEquals(4),
            StorePredicate::AcceptAll,
            StorePredicate::InLdisj,
        ];
        let fleet_of = || -> Vec<(u64, StoreEverything, Vec<Sym>)> {
            (0..20u64)
                .map(|i| {
                    let w = word(["1#01", "", "0#1#", "1111", "0#0#1#"][i as usize % 5]);
                    (i, store_session(preds[i as usize % 5]), w)
                })
                .collect()
        };
        let reference: Vec<(u64, RunOutcome)> = fleet_of()
            .into_iter()
            .map(|(id, d, w)| (id, run_decider(d, &w)))
            .collect();
        for workers in [1usize, 2, 8] {
            let engine = MuxEngine::new(MuxConfig {
                live_bytes_budget: 96,
                warm_bytes_budget: 1 << 20,
                shards: 4,
            });
            let rows = run_fleet(&engine, fleet_of(), 2, workers).expect("fleet");
            assert_eq!(rows, reference, "workers = {workers}");
        }
    }
}
