//! The distributed sweep fabric's contract:
//!
//! * a coordinator plus workers over a **Unix socket** produce rows
//!   equal to the in-process sweep — including with a deliberately
//!   throttled straggler whose tail gets stolen;
//! * the same holds over **TCP** even when a client leases a range and
//!   vanishes without reporting: the lease lapses and the range is
//!   re-leased to a live worker;
//! * a hostile line — not UTF-8, or longer than the line cap — earns the
//!   coordinator's `ERR` and leaves the connection usable;
//! * the lease state machine itself ([`FabricState::handle`]) is pinned
//!   sockets-free — grant coverage, steal policy, TTL expiry, premature
//!   `DONE` rejection, sweep-identity checks, and store-backed resume.
//!
//! The binary-level version (SIGKILL a worker process mid-sweep, then
//! resume the coordinator from its store) runs in CI's fabric smoke.

use oqsc_bench::{
    fabric_work, fleet_outcomes, split_fabric_instance_id, Coordinator, FabricConfig, FabricState,
    SweepSpec, WorkerConfig,
};
use oqsc_machine::{BatchRunner, SessionSchedule};
use oqsc_serve::{FabricRequest, FabricResponse, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

fn spec_e6(k_max: u32) -> SweepSpec {
    SweepSpec::from_cli("e6", k_max, 0).expect("e6 spec")
}

fn reference_rows(spec: SweepSpec) -> oqsc_bench::SweepRows {
    spec.rows_in_process(&BatchRunner::new(2), SessionSchedule::Uninterrupted)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oqsc-fabric-{}-{name}", std::process::id()))
}

#[test]
fn unix_fabric_with_a_straggler_matches_the_in_process_sweep() {
    let spec = spec_e6(4);
    let reference = reference_rows(spec);
    let sock = temp_path("unix.sock");
    let _ = std::fs::remove_file(&sock);
    let addr = sock.to_string_lossy().into_owned();
    let coordinator = Coordinator::bind(
        &addr,
        spec,
        FabricConfig {
            lease_size: 2,
            lease_ttl: Duration::from_millis(500),
            ..FabricConfig::default()
        },
    )
    .expect("bind coordinator");

    let (rows, slow, fast) = std::thread::scope(|scope| {
        let coord = scope.spawn(move || {
            coordinator
                .run(&AtomicBool::new(false))
                .expect("coordinate")
        });
        // A deliberate straggler: one instance per 40 ms guarantees the
        // fast worker exhausts the open pool and steals its tail.
        let slow = scope.spawn(|| {
            fabric_work(
                &addr,
                spec,
                &WorkerConfig {
                    worker_id: 1,
                    throttle: Some(Duration::from_millis(40)),
                    heartbeat_every: Duration::from_millis(100),
                    ..WorkerConfig::default()
                },
            )
            .expect("slow worker")
        });
        let fast = scope.spawn(|| {
            fabric_work(
                &addr,
                spec,
                &WorkerConfig {
                    worker_id: 2,
                    threads: 2,
                    heartbeat_every: Duration::from_millis(100),
                    ..WorkerConfig::default()
                },
            )
            .expect("fast worker")
        });
        (
            coord.join().expect("coordinator thread"),
            slow.join().expect("slow thread"),
            fast.join().expect("fast thread"),
        )
    });

    assert_eq!(rows, reference, "fabric rows differ from in-process");
    assert!(!sock.exists(), "coordinator unlinks its socket");
    // Both workers took part, and together they covered everything (the
    // straggler may double-report stolen indices — that's the design).
    assert!(fast.leases > 0 && fast.instances > 0, "{fast:?}");
    assert!(slow.leases > 0, "{slow:?}");
}

#[test]
fn tcp_fabric_releases_a_vanished_clients_lease() {
    let spec = spec_e6(3);
    let reference = reference_rows(spec);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        spec,
        FabricConfig {
            lease_size: 2,
            lease_ttl: Duration::from_millis(300),
            wait_millis: 50,
            ..FabricConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr();
    assert!(addr.contains(':'), "tcp address: {addr}");

    // Asserts live outside the scope: a panic inside would leave the
    // coordinator serving forever and deadlock the join.
    let (rows, grant_line, report) = std::thread::scope(|scope| {
        let coord = scope.spawn(move || {
            coordinator
                .run(&AtomicBool::new(false))
                .expect("coordinate")
        });

        // A client that leases a range and disconnects without reporting
        // a single outcome (no heartbeat either): its lease must lapse
        // after the TTL and the range go back to the open pool.
        let grant_line = {
            let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(b"LEASE 99 e6 3 0\n")
                .expect("lease request");
            stream.flush().expect("flush");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("grant line");
            line
            // Drop both halves: the vanishing act.
        };

        let worker = scope.spawn(|| {
            fabric_work(
                &addr,
                spec,
                &WorkerConfig {
                    worker_id: 7,
                    heartbeat_every: Duration::from_millis(100),
                    ..WorkerConfig::default()
                },
            )
            .expect("worker")
        });
        let report = worker.join().expect("worker thread");
        let rows = coord.join().expect("coordinator thread");
        (rows, grant_line, report)
    });
    assert!(grant_line.starts_with("LEASE "), "got: {grant_line}");
    assert!(report.instances > 0, "{report:?}");
    assert_eq!(rows, reference, "re-leased rows differ from in-process");
}

#[test]
fn f1_fabric_survives_a_mid_lease_death() {
    // The F1 sweep (two fleets, quantum registers included), with a
    // worker that dies holding a lease: a raw client leases a range and
    // vanishes without reporting; after the TTL the surviving worker
    // re-runs the range and the table still matches in-process.
    let spec = SweepSpec::from_cli("f1", 4, 0).expect("f1 spec");
    let reference = reference_rows(spec);
    let sock = temp_path("f1.sock");
    let _ = std::fs::remove_file(&sock);
    let addr = sock.to_string_lossy().into_owned();
    let coordinator = Coordinator::bind(
        &addr,
        spec,
        FabricConfig {
            lease_size: 2,
            lease_ttl: Duration::from_millis(300),
            wait_millis: 50,
            ..FabricConfig::default()
        },
    )
    .expect("bind coordinator");

    let (rows, grant_line, report) = std::thread::scope(|scope| {
        let coordinator = coordinator;
        let coord = scope.spawn(move || {
            coordinator
                .run(&AtomicBool::new(false))
                .expect("coordinate")
        });
        let grant_line = {
            let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
            stream
                .write_all(b"LEASE 99 f1 4 0\n")
                .expect("lease request");
            stream.flush().expect("flush");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("grant line");
            line
            // Dies mid-lease: no OUTCOME, no RENEW, no DONE.
        };
        let worker = scope.spawn(|| {
            fabric_work(
                &addr,
                spec,
                &WorkerConfig {
                    worker_id: 3,
                    threads: 2,
                    heartbeat_every: Duration::from_millis(100),
                    ..WorkerConfig::default()
                },
            )
            .expect("worker")
        });
        let report = worker.join().expect("worker thread");
        let rows = coord.join().expect("coordinator thread");
        (rows, grant_line, report)
    });
    assert!(grant_line.starts_with("LEASE "), "got: {grant_line}");
    assert!(report.instances > 0, "{report:?}");
    assert_eq!(rows, reference, "f1 rows differ after a mid-lease death");
}

#[test]
fn coordinator_answers_hostile_lines_and_keeps_the_connection() {
    let spec = spec_e6(3);
    let reference = reference_rows(spec);
    let coordinator =
        Coordinator::bind("127.0.0.1:0", spec, FabricConfig::default()).expect("bind coordinator");
    let addr = coordinator.local_addr();

    // Nothing inside the scope may panic: the coordinator only returns
    // once a worker has finished the sweep.
    let (answers, rows) = std::thread::scope(|scope| {
        let coord = scope.spawn(move || {
            coordinator
                .run(&AtomicBool::new(false))
                .expect("coordinate")
        });
        let answers = {
            let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut overlong = vec![b'x'; MAX_LINE_BYTES + 100];
            overlong.push(b'\n');
            let requests: [&[u8]; 3] = [b"HEARTBEAT \xff\xfe\n", &overlong, b"HEARTBEAT 1\n"];
            requests.map(|request| {
                let mut line = String::new();
                match stream
                    .write_all(request)
                    .and_then(|()| reader.read_line(&mut line))
                {
                    Ok(_) => line.trim().to_string(),
                    Err(e) => format!("<{e}>"),
                }
            })
            // Hang up, so the draining coordinator can return.
        };
        fabric_work(
            &addr,
            spec,
            &WorkerConfig {
                worker_id: 2,
                heartbeat_every: Duration::from_millis(100),
                ..WorkerConfig::default()
            },
        )
        .expect("worker");
        (answers, coord.join().expect("coordinator thread"))
    });
    assert!(
        answers[0].starts_with("ERR request is not valid UTF-8"),
        "non-UTF-8 line got: {:?}",
        answers[0]
    );
    assert!(
        answers[1].starts_with("ERR line too long"),
        "overlong line got: {:?}",
        answers[1]
    );
    assert_eq!(answers[2], "OK 1", "the same connection still answers");
    assert_eq!(rows, reference);
}

/// Drives a [`FabricState`] to completion by replaying granted ranges
/// through [`fleet_outcomes`] — the sockets-free worker.
fn run_range(state: &mut FabricState, spec: SweepSpec, lease: u64, fleet: &str, range: (u64, u64)) {
    let indices: Vec<usize> = (range.0 as usize..range.1 as usize).collect();
    let outcomes = fleet_outcomes(spec, fleet, &indices, 1).expect("run range");
    let now = Instant::now();
    for (&index, outcome) in indices.iter().zip(&outcomes) {
        let ok = state
            .handle(
                &FabricRequest::Outcome {
                    fleet: fleet.to_string(),
                    index: index as u64,
                    outcome: *outcome,
                },
                now,
            )
            .expect("outcome accepted");
        assert_eq!(
            ok,
            FabricResponse::Ok {
                token: index as u64
            }
        );
    }
    let done = state
        .handle(&FabricRequest::Done { lease }, now)
        .expect("done accepted");
    assert_eq!(done, FabricResponse::Ok { token: lease });
}

fn lease_of(state: &mut FabricState, worker: u64, now: Instant) -> FabricResponse {
    state
        .handle(
            &FabricRequest::Lease {
                worker,
                sweep: "e6".to_string(),
                k_max: 4,
                trials: 0,
            },
            now,
        )
        .expect("lease handled")
}

#[test]
fn lease_machine_grants_steals_expires_and_verifies_done() {
    let spec = spec_e6(4);
    let reference = reference_rows(spec);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            lease_size: total.div_ceil(2),
            lease_ttl: Duration::from_secs(60),
            ..FabricConfig::default()
        },
    )
    .expect("state");
    assert_eq!(state.remaining(), total);
    let now = Instant::now();

    // A mismatched sweep identity is refused outright.
    let err = state
        .handle(
            &FabricRequest::Lease {
                worker: 1,
                sweep: "e6".to_string(),
                k_max: 9,
                trials: 0,
            },
            now,
        )
        .expect_err("wrong k_max");
    assert!(err.contains("does not match"), "{err}");

    // Two chunks cover the fleet; worker 1 takes both.
    let FabricResponse::Grant {
        lease: l1,
        fleet,
        start: s1,
        end: e1,
    } = lease_of(&mut state, 1, now)
    else {
        panic!("first grant")
    };
    let FabricResponse::Grant {
        lease: l2,
        start: s2,
        end: e2,
        ..
    } = lease_of(&mut state, 1, now)
    else {
        panic!("second grant")
    };
    assert_eq!((s1 as usize, e2 as usize), (0, total), "contiguous cover");
    assert_eq!(e1, s2, "half-open ranges abut");

    // Worker 1 already holds every chunk: it cannot steal from itself.
    assert_eq!(
        lease_of(&mut state, 1, now),
        FabricResponse::Wait { millis: 200 }
    );
    // Worker 2 can — it duplicates the least-contended chunk (the first).
    let FabricResponse::Grant {
        lease: stolen,
        start,
        ..
    } = lease_of(&mut state, 2, now)
    else {
        panic!("steal grant")
    };
    assert_eq!(start, s1, "steal duplicates the first chunk");

    // DONE before the range is fully reported is a protocol error and
    // retires nothing.
    let err = state
        .handle(&FabricRequest::Done { lease: l1 }, now)
        .expect_err("premature DONE");
    assert!(err.contains("fully reported"), "{err}");

    // Worker 2 finishes the stolen copy; that retires worker 1's lease
    // on the same chunk too, and 1's next RENEW says EXPIRED.
    run_range(&mut state, spec, stolen, &fleet, (s1, e1));
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease: l1 }, now)
            .expect("renew handled"),
        FabricResponse::Expired { lease: l1 }
    );

    // Let worker 1's second lease lapse: after the TTL a HEARTBEAT has
    // nothing to renew and the chunk returns to the open pool...
    let after_ttl = now + Duration::from_secs(61);
    run_range(&mut state, spec, l2, &fleet, (s2, e2));
    // ...unless, as here, it was already completed before the lapse —
    // so the sweep is simply done and further leases answer FINISHED.
    assert_eq!(
        state
            .handle(&FabricRequest::Heartbeat { worker: 1 }, after_ttl)
            .expect("heartbeat handled"),
        FabricResponse::Ok { token: 1 }
    );
    assert!(state.is_complete());
    assert_eq!(lease_of(&mut state, 2, after_ttl), FabricResponse::Finished);
    assert_eq!(state.finish().expect("rows"), reference);
}

#[test]
fn ttl_expiry_reopens_a_lapsed_chunk() {
    let spec = spec_e6(4);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            lease_size: total, // one chunk: the whole fleet
            lease_ttl: Duration::from_millis(100),
            ..FabricConfig::default()
        },
    )
    .expect("state");
    let now = Instant::now();
    let FabricResponse::Grant { lease, .. } = lease_of(&mut state, 1, now) else {
        panic!("grant")
    };
    // Renewed in time, the lease survives...
    let later = now + Duration::from_millis(80);
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease }, later)
            .expect("renew handled"),
        FabricResponse::Ok { token: lease }
    );
    // ...but after a silent TTL it lapses, and the whole chunk is open
    // again for the next worker — a fresh lease id on the same range.
    let lapsed = later + Duration::from_millis(101);
    let FabricResponse::Grant {
        lease: release,
        start,
        end,
        ..
    } = lease_of(&mut state, 2, lapsed)
    else {
        panic!("re-grant")
    };
    assert_ne!(release, lease);
    assert_eq!((start as usize, end as usize), (0, total));
    assert_eq!(
        state
            .handle(&FabricRequest::Renew { lease }, lapsed)
            .expect("renew handled"),
        FabricResponse::Expired { lease }
    );
}

#[test]
fn store_backed_fabric_resumes_and_refuses_fresh_reuse() {
    let spec = spec_e6(4);
    let reference = reference_rows(spec);
    let total = spec.fleets().iter().map(|&(_, n)| n).sum::<usize>();
    let store = temp_path("resume.cps");
    let _ = std::fs::remove_file(&store);
    let half = total.div_ceil(2);
    let durable = FabricConfig {
        lease_size: half,
        lease_ttl: Duration::from_secs(60),
        store_path: Some(store.clone()),
        ..FabricConfig::default()
    };

    // First coordinator: complete exactly one chunk, then "crash" (drop).
    {
        let mut state = FabricState::new(spec, durable.clone()).expect("fresh state");
        let now = Instant::now();
        let FabricResponse::Grant {
            lease,
            fleet,
            start,
            end,
        } = lease_of(&mut state, 1, now)
        else {
            panic!("grant")
        };
        run_range(&mut state, spec, lease, &fleet, (start, end));
        assert_eq!(state.remaining(), total - half);
    }

    // A fresh (non-resume) run over the leftover store must refuse it.
    let err = FabricState::new(spec, durable.clone());
    assert!(err.is_err(), "stale store accepted by a fresh run");

    // Resume: the persisted chunk is already retired, only the second
    // half is leased out, and the final rows are identical.
    let mut state = FabricState::new(
        spec,
        FabricConfig {
            resume: true,
            ..durable
        },
    )
    .expect("resume state");
    assert_eq!(state.remaining(), total - half);
    let now = Instant::now();
    let FabricResponse::Grant {
        lease,
        fleet,
        start,
        end,
    } = lease_of(&mut state, 2, now)
    else {
        panic!("resume grant")
    };
    assert_eq!(
        (start as usize, end as usize),
        (half, total),
        "resume leases only the unfinished half"
    );
    run_range(&mut state, spec, lease, &fleet, (start, end));
    assert!(state.is_complete());
    assert_eq!(state.finish().expect("rows"), reference);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn fabric_instance_ids_round_trip() {
    for (fleet, index) in [(0, 0), (1, 1), (3, (1 << 48) - 1), (7, 123_456_789)] {
        let id = oqsc_bench::fabric_instance_id(fleet, index);
        assert_eq!(split_fabric_instance_id(id), (fleet, index));
    }
}
