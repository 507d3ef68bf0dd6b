//! The distributed sweep fabric: shard a sweep over *machines*.
//!
//! Threads (PR 2) and processes (PR 4) scale a sweep inside one box;
//! this module adds the last scheduling axis from the ROADMAP. A
//! [`Coordinator`] owns the [`SweepSpec`], the merge ledger
//! ([`OutcomeLedger`]) and — optionally — an authoritative
//! [`CheckpointStore`] of finished outcomes, and serves the line
//! protocol of [`oqsc_serve::protocol`] (the worker pool's `OUTCOME`
//! lines plus `LEASE`/`RENEW`/`HEARTBEAT`/`DONE`) over a Unix or TCP
//! socket through the serving tier's own line service
//! ([`serve_lines`]). [`fabric_work`] is the worker loop: lease a
//! contiguous instance range, re-derive the instances from the spec
//! (nothing but indices crosses the wire, exactly like process-pool
//! workers), report one `OUTCOME` line each, retire the lease with
//! `DONE`.
//!
//! Fault tolerance is lease-based: every lease carries a TTL, renewed by
//! explicit `RENEW`s and by a per-worker `HEARTBEAT` side connection. A
//! worker that dies (SIGKILL, network partition) simply stops renewing;
//! its leases lapse and the ranges return to the open pool. Because
//! every instance is a pure function of its index, re-execution is
//! idempotent — the ledger accepts identical duplicate reports and
//! rejects conflicting ones. The same property powers **work stealing**:
//! when nothing is open, the coordinator duplicates the least-contended
//! straggler lease, so the sweep's tail is bounded by the fastest
//! worker, not the slowest.
//!
//! The merge is [`OutcomeLedger`] — the identical definition the process
//! pool uses — so fabric tables are byte-identical to in-process
//! `experiments sweep` tables by construction (the fabric suite and the
//! CI smoke pin this, including a run where a worker is killed
//! mid-lease).

use crate::pool::{fleet_outcomes, OutcomeLedger, PoolError, SweepRows, SweepSpec};
use oqsc_machine::{CheckpointStore, RunOutcome};
use oqsc_serve::{
    fabric_request_line, fabric_response_line, parse_fabric_request, parse_fabric_response,
    serve_lines, FabricRequest, FabricResponse, LineClient, Listener, OnStop,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Instance indices are packed into the store's 64-bit instance ids as
/// `(fleet << 48) | index`; no fleet comes close to 2^48 instances.
const FABRIC_INDEX_BITS: u32 = 48;

/// Packs a `(fleet position, instance index)` pair into the synthetic
/// instance id the coordinator's durability store keys outcomes by.
pub fn fabric_instance_id(fleet: u64, index: u64) -> u64 {
    assert!(
        index < 1 << FABRIC_INDEX_BITS,
        "instance index {index} overflows the fabric id encoding"
    );
    (fleet << FABRIC_INDEX_BITS) | index
}

/// Splits a [`fabric_instance_id`] back into `(fleet, index)`.
pub fn split_fabric_instance_id(id: u64) -> (u64, u64) {
    (id >> FABRIC_INDEX_BITS, id & ((1 << FABRIC_INDEX_BITS) - 1))
}

/// The store tag a coordinator writes: it encodes the full sweep
/// identity, so resuming with a different spec fails the header check
/// instead of silently merging foreign outcomes.
fn fabric_store_tag(spec: SweepSpec) -> String {
    format!(
        "fabric/{}/k{}/t{}",
        spec.name(),
        spec.k_max(),
        spec.trials().unwrap_or(0)
    )
}

/// Coordinator policy knobs.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Instances per granted lease (clamped to ≥ 1).
    pub lease_size: usize,
    /// How long a lease survives without a `RENEW`/`HEARTBEAT`.
    pub lease_ttl: Duration,
    /// Back-off the coordinator suggests when nothing is leasable.
    pub wait_millis: u64,
    /// Persist every fresh outcome into this store — the durable
    /// completion ledger a crashed coordinator resumes from.
    pub store_path: Option<PathBuf>,
    /// Recover an existing store instead of refusing it (the fresh-run
    /// default refuses stale stores, like the process pool).
    pub resume: bool,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            lease_size: 16,
            lease_ttl: Duration::from_secs(10),
            wait_millis: 200,
            store_path: None,
            resume: false,
        }
    }
}

/// One contiguous leaseable range of a fleet.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Fleet position in [`SweepSpec::fleets`] order.
    fleet: usize,
    start: usize,
    end: usize,
    /// Retired: every index reported and a holder sent `DONE` (or the
    /// store already covered it at resume).
    done: bool,
    /// Live leases on this chunk (> 1 while a steal is in flight).
    leases: u32,
}

#[derive(Clone, Copy, Debug)]
struct Lease {
    chunk: usize,
    worker: u64,
    deadline: Instant,
}

/// The coordinator's whole decision state — pure with respect to time
/// (every transition takes `now`), so the lease machinery is unit
/// testable without sockets or sleeps.
pub struct FabricState {
    spec: SweepSpec,
    config: FabricConfig,
    fleets: Vec<(&'static str, usize)>,
    chunks: Vec<Chunk>,
    leases: HashMap<u64, Lease>,
    next_lease: u64,
    ledger: OutcomeLedger,
    store: Option<CheckpointStore>,
}

impl FabricState {
    /// Builds the chunk table for `spec` and, with a store path, opens
    /// (or resumes) the durable completion ledger: persisted outcomes
    /// are folded back into the merge ledger and fully-covered chunks
    /// are retired before any lease is granted.
    pub fn new(spec: SweepSpec, config: FabricConfig) -> Result<FabricState, PoolError> {
        let fleets = spec.fleets();
        let mut ledger = OutcomeLedger::new(spec);
        let tag = fabric_store_tag(spec);
        let store = match &config.store_path {
            None => None,
            Some(path) => {
                let mut store = if config.resume {
                    // The coordinator is the store's single writer, and
                    // resume only runs after the previous coordinator
                    // died — the one situation where breaking an
                    // orphaned lock is sound.
                    CheckpointStore::break_lock(path)?;
                    if path.exists() {
                        CheckpointStore::recover(path, &tag)?.0
                    } else {
                        CheckpointStore::create(path, &tag)?
                    }
                } else {
                    // Fresh runs refuse stale stores.
                    CheckpointStore::create(path, &tag)?
                };
                for (id, _position, outcome) in store.finished_outcomes()? {
                    let (fleet, index) = split_fabric_instance_id(id);
                    let name = fleets
                        .get(fleet as usize)
                        .map(|&(name, _)| name)
                        .ok_or_else(|| {
                            PoolError::Protocol(format!(
                                "store instance {id} names fleet {fleet}, which sweep {} lacks",
                                spec.name()
                            ))
                        })?;
                    ledger.merge(name, index as usize, outcome)?;
                }
                Some(store)
            }
        };
        let lease_size = config.lease_size.max(1);
        let mut chunks = Vec::new();
        for (f, &(_, count)) in fleets.iter().enumerate() {
            let mut start = 0;
            while start < count {
                let end = (start + lease_size).min(count);
                chunks.push(Chunk {
                    fleet: f,
                    start,
                    end,
                    done: ledger.range_complete(f, start, end),
                    leases: 0,
                });
                start = end;
            }
        }
        Ok(FabricState {
            spec,
            config,
            fleets,
            chunks,
            leases: HashMap::new(),
            next_lease: 1,
            ledger,
            store,
        })
    }

    /// Whether every instance of every fleet has an outcome.
    pub fn is_complete(&self) -> bool {
        self.ledger.is_complete()
    }

    /// Instances still missing an outcome.
    pub fn remaining(&self) -> usize {
        self.ledger.remaining()
    }

    /// Drops every lease whose deadline has passed; a chunk whose last
    /// lease lapsed returns to the open pool.
    fn expire(&mut self, now: Instant) {
        let lapsed: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in lapsed {
            let lease = self.leases.remove(&id).expect("listed above");
            self.chunks[lease.chunk].leases -= 1;
        }
    }

    fn grant_chunk(&mut self, chunk: usize, worker: u64, now: Instant) -> FabricResponse {
        let id = self.next_lease;
        self.next_lease += 1;
        self.chunks[chunk].leases += 1;
        self.leases.insert(
            id,
            Lease {
                chunk,
                worker,
                deadline: now + self.config.lease_ttl,
            },
        );
        let c = self.chunks[chunk];
        FabricResponse::Grant {
            lease: id,
            fleet: self.fleets[c.fleet].0.to_string(),
            start: c.start as u64,
            end: c.end as u64,
        }
    }

    fn grant(&mut self, worker: u64, now: Instant) -> FabricResponse {
        if self.ledger.is_complete() {
            return FabricResponse::Finished;
        }
        // First choice: an open chunk nobody is running.
        if let Some(open) =
            (0..self.chunks.len()).find(|&c| !self.chunks[c].done && self.chunks[c].leases == 0)
        {
            return self.grant_chunk(open, worker, now);
        }
        // Nothing open: steal from a straggler by duplicating the
        // least-contended leased chunk this worker is not already on
        // (re-execution is idempotent, so the tail is bounded by the
        // fastest worker, not the slowest).
        let held: Vec<usize> = self
            .leases
            .values()
            .filter(|l| l.worker == worker)
            .map(|l| l.chunk)
            .collect();
        let steal = (0..self.chunks.len())
            .filter(|&c| !self.chunks[c].done && self.chunks[c].leases > 0 && !held.contains(&c))
            .min_by_key(|&c| (self.chunks[c].leases, c));
        match steal {
            Some(chunk) => self.grant_chunk(chunk, worker, now),
            None => FabricResponse::Wait {
                millis: self.config.wait_millis,
            },
        }
    }

    /// Applies one request at time `now`. `Err` carries a protocol-level
    /// message the connection renders as an `ERR` line.
    pub fn handle(
        &mut self,
        request: &FabricRequest,
        now: Instant,
    ) -> Result<FabricResponse, String> {
        self.expire(now);
        match request {
            FabricRequest::Lease {
                worker,
                sweep,
                k_max,
                trials,
            } => {
                let want = (
                    self.spec.name(),
                    self.spec.k_max(),
                    self.spec.trials().unwrap_or(0) as u64,
                );
                if (sweep.as_str(), *k_max, *trials) != want {
                    return Err(format!(
                        "worker sweep {sweep}/k{k_max}/t{trials} does not match \
                         coordinator sweep {}/k{}/t{}",
                        want.0, want.1, want.2
                    ));
                }
                Ok(self.grant(*worker, now))
            }
            FabricRequest::Renew { lease } => match self.leases.get_mut(lease) {
                Some(l) => {
                    l.deadline = now + self.config.lease_ttl;
                    Ok(FabricResponse::Ok { token: *lease })
                }
                None => Ok(FabricResponse::Expired { lease: *lease }),
            },
            FabricRequest::Heartbeat { worker } => {
                let deadline = now + self.config.lease_ttl;
                for lease in self.leases.values_mut().filter(|l| l.worker == *worker) {
                    lease.deadline = deadline;
                }
                Ok(FabricResponse::Ok { token: *worker })
            }
            FabricRequest::Outcome {
                fleet,
                index,
                outcome,
            } => {
                let fresh = self
                    .ledger
                    .merge(fleet, *index as usize, *outcome)
                    .map_err(|e| e.to_string())?;
                if fresh {
                    if let Some(store) = &mut self.store {
                        let f = self.ledger.fleet_index(fleet).expect("merge checked it") as u64;
                        store
                            .append_outcome(fabric_instance_id(f, *index), 0, outcome)
                            .map_err(|e| format!("coordinator store append failed: {e}"))?;
                    }
                }
                Ok(FabricResponse::Ok { token: *index })
            }
            FabricRequest::Done { lease } => {
                let Some(&Lease { chunk, .. }) = self.leases.get(lease) else {
                    return Ok(FabricResponse::Expired { lease: *lease });
                };
                let c = self.chunks[chunk];
                if !self.ledger.range_complete(c.fleet, c.start, c.end) {
                    return Err(format!(
                        "DONE {lease} before range {}..{} of fleet {} was fully reported",
                        c.start, c.end, self.fleets[c.fleet].0
                    ));
                }
                self.chunks[chunk].done = true;
                // Retire every lease on the chunk, the finisher's and any
                // straggler's — their next RENEW answers EXPIRED, telling
                // them to abandon the duplicated work.
                let retired: Vec<u64> = self
                    .leases
                    .iter()
                    .filter(|(_, l)| l.chunk == chunk)
                    .map(|(&id, _)| id)
                    .collect();
                for id in retired {
                    self.leases.remove(&id);
                }
                self.chunks[chunk].leases = 0;
                Ok(FabricResponse::Ok { token: *lease })
            }
        }
    }

    /// Folds the completed ledger into table rows.
    pub fn finish(self) -> Result<SweepRows, PoolError> {
        self.ledger.into_rows()
    }
}

fn lock_state<'a>(state: &'a Mutex<FabricState>) -> std::sync::MutexGuard<'a, FabricState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Answers one worker request line. The sweep's completion sets `done`,
/// which stops the coordinator accepting.
fn respond(state: &Mutex<FabricState>, line: &str, done: &AtomicBool) -> String {
    let request = match parse_fabric_request(line) {
        Ok(request) => request,
        Err(msg) => return format!("ERR {msg}"),
    };
    let mut st = lock_state(state);
    let answer = match st.handle(&request, Instant::now()) {
        Ok(resp) => fabric_response_line(&resp),
        Err(msg) => format!("ERR {msg}"),
    };
    if st.is_complete() {
        done.store(true, Ordering::SeqCst);
    }
    answer
}

/// A bound, not-yet-running coordinator. Binding is separate from
/// running so callers (the CLI, tests binding `127.0.0.1:0`) can learn
/// the address and report readiness before blocking.
pub struct Coordinator {
    listener: Listener,
    state: FabricState,
}

impl Coordinator {
    /// Binds `addr` (a Unix socket path, or `host:port` when it
    /// contains a `:`) and builds the lease state — including store
    /// recovery when [`FabricConfig::resume`] is set.
    pub fn bind(
        addr: &str,
        spec: SweepSpec,
        config: FabricConfig,
    ) -> Result<Coordinator, PoolError> {
        let state = FabricState::new(spec, config)?;
        let listener = Listener::bind(addr)?;
        Ok(Coordinator { listener, state })
    }

    /// The bound address (the actual port when `addr` was `host:0`).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Serves lease traffic until every instance of the sweep has an
    /// outcome, then merges the ledger into table rows — the identical
    /// merge the process pool runs, so the table is byte-identical to
    /// an in-process `sweep --workers N`. A sweep whose store already
    /// covers everything (a resumed, finished run) returns immediately
    /// without serving.
    pub fn run(self) -> Result<SweepRows, PoolError> {
        let Coordinator { listener, state } = self;
        let done = AtomicBool::new(state.is_complete());
        let state = Mutex::new(state);
        let (state_ref, done_ref) = (&state, &done);
        // Uncapped, and draining: a completed sweep stops accepting,
        // while each open connection lasts until its worker hangs up
        // (every worker ends on FINISHED or an abandoned lease).
        serve_lines(listener, usize::MAX, &done, OnStop::Drain, || {
            move |line: &str| respond(state_ref, line, done_ref)
        })?;
        state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish()
    }
}

/// Binds and runs a coordinator in one call — the
/// `experiments fabric coordinate` entry point.
pub fn fabric_coordinate(
    addr: &str,
    spec: SweepSpec,
    config: FabricConfig,
) -> Result<SweepRows, PoolError> {
    Coordinator::bind(addr, spec, config)?.run()
}

/// Worker loop knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's id (leases and heartbeats are keyed by it; default
    /// the process id).
    pub worker_id: u64,
    /// Batch-scheduler threads for running a leased range.
    pub threads: usize,
    /// Testing/straggler hook: run one instance at a time with this
    /// pause between instances, renewing the lease after each — the
    /// deterministic slow worker the steal path is exercised with.
    pub throttle: Option<Duration>,
    /// Heartbeat period on the side connection.
    pub heartbeat_every: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker_id: std::process::id() as u64,
            threads: 1,
            throttle: None,
            heartbeat_every: Duration::from_secs(2),
        }
    }
}

/// What one worker did, for the operator's log line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricWorkReport {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Instances computed and reported.
    pub instances: u64,
    /// Leases that expired under this worker (abandoned mid-range after
    /// a steal or a stall).
    pub expired: u64,
}

/// Sends one fabric request and parses the coordinator's answer; an
/// `ERR` line becomes a protocol error.
fn ask(client: &mut LineClient, request: &FabricRequest) -> Result<FabricResponse, PoolError> {
    let line = client.ask(&fabric_request_line(request))?;
    if let Some(msg) = line.strip_prefix("ERR ") {
        return Err(PoolError::Protocol(format!("coordinator refused: {msg}")));
    }
    parse_fabric_response(&line).map_err(PoolError::Protocol)
}

fn report_outcome(
    client: &mut LineClient,
    fleet: &str,
    index: u64,
    outcome: RunOutcome,
) -> Result<(), PoolError> {
    match ask(
        client,
        &FabricRequest::Outcome {
            fleet: fleet.to_string(),
            index,
            outcome,
        },
    )? {
        FabricResponse::Ok { .. } => Ok(()),
        other => Err(PoolError::Protocol(format!(
            "unexpected response to OUTCOME: {other:?}"
        ))),
    }
}

/// Runs one granted lease. A throttled worker computes one instance at a
/// time and renews after each, abandoning the range the moment a renew
/// answers `EXPIRED` (its chunk was stolen and finished, or its TTL
/// lapsed); an unthrottled worker computes the whole range across its
/// threads, streams the outcomes, and retires the lease.
fn run_lease(
    client: &mut LineClient,
    spec: SweepSpec,
    config: &WorkerConfig,
    report: &mut FabricWorkReport,
    lease: u64,
    fleet: &str,
    range: std::ops::Range<u64>,
) -> Result<(), PoolError> {
    let range: Vec<usize> = (range.start as usize..range.end as usize).collect();
    match config.throttle {
        Some(pause) => {
            for &idx in &range {
                let outcomes = fleet_outcomes(spec, fleet, &[idx], 1)?;
                std::thread::sleep(pause);
                report_outcome(client, fleet, idx as u64, outcomes[0])?;
                report.instances += 1;
                match ask(client, &FabricRequest::Renew { lease })? {
                    FabricResponse::Ok { .. } => {}
                    FabricResponse::Expired { .. } => {
                        report.expired += 1;
                        return Ok(());
                    }
                    other => {
                        return Err(PoolError::Protocol(format!(
                            "unexpected response to RENEW: {other:?}"
                        )))
                    }
                }
            }
        }
        None => {
            let outcomes = fleet_outcomes(spec, fleet, &range, config.threads)?;
            for (&idx, outcome) in range.iter().zip(&outcomes) {
                report_outcome(client, fleet, idx as u64, *outcome)?;
                report.instances += 1;
            }
        }
    }
    match ask(client, &FabricRequest::Done { lease })? {
        // EXPIRED here means another worker's DONE retired the chunk
        // first — the work still landed (as idempotent duplicates).
        FabricResponse::Ok { .. } | FabricResponse::Expired { .. } => Ok(()),
        other => Err(PoolError::Protocol(format!(
            "unexpected response to DONE: {other:?}"
        ))),
    }
}

/// Best-effort heartbeat on a side connection: renews every lease the
/// worker holds, so a long-running range never starves its deadline.
/// Any failure simply ends the thread — explicit `RENEW`s and lease
/// re-grants cover for a lost heartbeat channel.
fn heartbeat_loop(addr: &str, worker: u64, every: Duration, stop: &AtomicBool) {
    let Ok(mut client) = LineClient::connect(addr) else {
        return;
    };
    while !stop.load(Ordering::SeqCst) {
        if ask(&mut client, &FabricRequest::Heartbeat { worker }).is_err() {
            return;
        }
        // Sleep in small steps so worker exit is not delayed by a
        // full heartbeat period.
        let mut slept = Duration::ZERO;
        while slept < every && !stop.load(Ordering::SeqCst) {
            let step = Duration::from_millis(50).min(every - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// The fabric worker loop — the `experiments fabric work` entry
/// point. Connects to the coordinator at `addr`, leases ranges of
/// `spec`, re-derives and runs the instances locally, reports their
/// outcomes, and exits when the coordinator answers `FINISHED`.
pub fn fabric_work(
    addr: &str,
    spec: SweepSpec,
    config: &WorkerConfig,
) -> Result<FabricWorkReport, PoolError> {
    let mut client = LineClient::connect(addr)?;
    let mut report = FabricWorkReport::default();
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| heartbeat_loop(addr, config.worker_id, config.heartbeat_every, &stop));
        let lease_request = FabricRequest::Lease {
            worker: config.worker_id,
            sweep: spec.name().to_string(),
            k_max: spec.k_max(),
            trials: spec.trials().unwrap_or(0) as u64,
        };
        let run = loop {
            match ask(&mut client, &lease_request) {
                Ok(FabricResponse::Finished) => break Ok(()),
                Ok(FabricResponse::Wait { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis.min(1000)))
                }
                Ok(FabricResponse::Grant {
                    lease,
                    fleet,
                    start,
                    end,
                }) => {
                    report.leases += 1;
                    if let Err(e) = run_lease(
                        &mut client,
                        spec,
                        config,
                        &mut report,
                        lease,
                        &fleet,
                        start..end,
                    ) {
                        break Err(e);
                    }
                }
                Ok(other) => {
                    break Err(PoolError::Protocol(format!(
                        "unexpected response to LEASE: {other:?}"
                    )))
                }
                Err(e) => break Err(e),
            }
        };
        stop.store(true, Ordering::SeqCst);
        // Hang up before the scope joins the heartbeat thread. A heartbeat
        // that dialed after the coordinator stopped accepting waits in the
        // listen backlog until the coordinator closes its listener, which
        // it does only once this connection has drained.
        drop(client);
        run
    });
    result.map(|()| report)
}
