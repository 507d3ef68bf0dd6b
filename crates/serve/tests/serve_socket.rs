//! End-to-end: a server under a churn-forcing budget — on a Unix socket
//! or a TCP port, fed per-token or batched — driven through the text
//! protocol must reproduce direct runs byte for byte; with a spill
//! store attached, even across a shutdown/restart. The in-process
//! version of the CI serve smokes.

use oqsc_serve::{
    demo_fleet, direct_outcome_lines, drive_fleet, drive_socket, shutdown_socket, stats_socket,
    DrivePhase, FeedMode, MuxConfig, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

fn socket_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "oqsc-serve-test-{}-{name}.sock",
            std::process::id()
        ))
        .display()
        .to_string()
}

/// The identity tests' churn-forcing sizing.
fn tight_config(threads: usize, live_bytes_budget: usize) -> ServerConfig {
    ServerConfig {
        threads,
        mux: MuxConfig {
            live_bytes_budget,
            warm_bytes_budget: 1 << 30,
            shards: 4,
        },
        ..ServerConfig::default()
    }
}

#[test]
fn served_fleet_matches_direct_runs_byte_for_byte() {
    const SEED: u64 = 0xD21F7; // deterministic driver seed
    let path = socket_path("identity");
    // Tight enough that the demo fleet churns through the warm tier
    // constantly.
    let server = Server::bind(&path, tight_config(3, 2 << 10)).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let served = drive_socket(&path, SEED).expect("drive");
    let direct = direct_outcome_lines(SEED);
    assert_eq!(served, direct);

    let stats = stats_socket(&path).expect("stats");
    assert!(stats.starts_with("STATS "), "bad stats line: {stats}");

    shutdown_socket(&path).expect("shutdown");
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.finished, direct.len() as u64);
    assert!(
        !std::path::Path::new(&path).exists(),
        "socket file should be removed on shutdown"
    );
}

/// The same identity over TCP: an address with a `:` binds a TCP
/// listener (port 0 → kernel-chosen), and the transcript is identical
/// to the Unix-socket one because the protocol never sees the
/// transport.
#[test]
fn tcp_served_fleet_matches_direct_runs_byte_for_byte() {
    const SEED: u64 = 0xD21F7;
    let server = Server::bind("127.0.0.1:0", tight_config(3, 2 << 10)).expect("bind tcp");
    let addr = server.local_addr();
    assert!(addr.contains(':'), "dialable TCP address, got {addr}");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let served = drive_socket(&addr, SEED).expect("drive over tcp");
    assert_eq!(served, direct_outcome_lines(SEED));

    shutdown_socket(&addr).expect("shutdown");
    handle.join().expect("server thread");
}

/// Batched `FEEDS` driving is byte-identical to per-token `FEED`
/// driving across the budget × thread grid — including budget 0, where
/// every batch straddles a full evict + rehydrate cycle.
#[test]
fn batched_feeds_match_per_token_feeds_over_the_socket() {
    const SEED: u64 = 0xD21F7;
    let direct = direct_outcome_lines(SEED);
    for live_budget in [0usize, 4 << 10] {
        for threads in [1usize, 8] {
            let mut transcripts = Vec::new();
            for mode in [FeedMode::Chunks, FeedMode::Batched] {
                let path = socket_path(&format!("batched-{live_budget}-{threads}-{mode:?}"));
                let server = Server::bind(&path, tight_config(threads, live_budget)).expect("bind");
                let handle = std::thread::spawn(move || server.run().expect("serve"));
                let served = drive_fleet(&path, SEED, mode, DrivePhase::Full).expect("drive fleet");
                shutdown_socket(&path).expect("shutdown");
                handle.join().expect("server thread");
                transcripts.push(served);
            }
            assert_eq!(
                transcripts[0], direct,
                "per-token FEED, budget {live_budget}, threads {threads}"
            );
            assert_eq!(
                transcripts[1], direct,
                "batched FEEDS, budget {live_budget}, threads {threads}"
            );
        }
    }
}

/// With a spill store attached, a graceful shutdown mid-stream loses
/// nothing: a restarted server on the same store hydrates every session
/// at its exact position, and the finished outcomes still match direct
/// runs byte for byte.
#[test]
fn restart_from_spill_resumes_mid_stream_sessions() {
    const SEED: u64 = 0xD21F7;
    let path = socket_path("restart");
    let store = std::env::temp_dir().join(format!(
        "oqsc-serve-test-{}-restart.cps",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let config = ServerConfig {
        spill_store: Some(store.clone()),
        ..tight_config(3, 2 << 10)
    };

    let server = Server::bind(&path, config.clone()).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let none =
        drive_fleet(&path, SEED, FeedMode::Batched, DrivePhase::FirstHalf).expect("first half");
    assert!(none.is_empty(), "FirstHalf leaves every session mid-stream");
    shutdown_socket(&path).expect("shutdown");
    handle.join().expect("server thread");

    let server = Server::bind(&path, config).expect("rebind on the same store");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let served =
        drive_fleet(&path, SEED, FeedMode::Batched, DrivePhase::SecondHalf).expect("second half");
    assert_eq!(served, direct_outcome_lines(SEED));
    shutdown_socket(&path).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert!(
        stats.spill_hydrations > 0,
        "second-half sessions must have hydrated from the store: {stats:?}"
    );
    let _ = std::fs::remove_file(&store);
}

/// A client writing one byte every 60 ms crosses the server's 50 ms
/// read poll in the middle of every single request line. The
/// already-read prefix must survive each timeout — before the fix, the
/// handler cleared its buffer at the top of the loop and such a client
/// saw its requests truncated into garbage.
#[test]
fn byte_at_a_time_slow_writer_is_never_corrupted() {
    const SEED: u64 = 0xD21F7; // same fleet as the identity test
    let path = socket_path("slow-writer");
    let server = Server::bind(&path, ServerConfig::default()).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut writer = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut trickle = |line: &str| -> String {
        for byte in format!("{line}\n").bytes() {
            writer.write_all(&[byte]).expect("write byte");
            writer.flush().expect("flush");
            // Longer than the server's 50 ms poll: every request line is
            // interrupted by several read timeouts mid-bytes.
            std::thread::sleep(Duration::from_millis(60));
        }
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim().to_string()
    };

    let (id, kind, seed, word) = demo_fleet(SEED).into_iter().next().expect("fleet");
    let open = trickle(&format!("OPEN {id} {} {seed}", kind.name()));
    assert_eq!(open, format!("OK {id} 0"));
    let text = oqsc_lang::token::to_string(&word);
    let feed = trickle(&format!("FEED {id} {text}"));
    assert!(feed.starts_with(&format!("OK {id} ")), "got: {feed}");
    let outcome = trickle(&format!("FINISH {id}"));
    assert_eq!(
        outcome,
        direct_outcome_lines(SEED)[id as usize],
        "a 1-byte-per-60ms client must see the exact direct-run outcome"
    );

    shutdown_socket(&path).expect("shutdown");
    handle.join().expect("server thread");
}

/// Binding replaces a *stale* socket file (dead server) and only a
/// stale one: a live server is refused, and a path that is not a socket
/// is never touched.
#[test]
fn bind_replaces_stale_sockets_but_refuses_live_servers_and_files() {
    // Stale: a socket file whose listener is gone accepts the bind.
    let stale = socket_path("stale");
    let dead = UnixListener::bind(&stale).expect("first bind");
    drop(dead); // closes the fd, leaves the socket file behind
    assert!(
        std::path::Path::new(&stale).exists(),
        "dead listener leaves its socket file"
    );
    let server = Server::bind(&stale, ServerConfig::default()).expect("stale file is replaced");
    drop(server);
    let _ = std::fs::remove_file(&stale);

    // Live: a served socket is refused instead of clobbered.
    let live = socket_path("live");
    let server = Server::bind(&live, ServerConfig::default()).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let err = match Server::bind(&live, ServerConfig::default()) {
        Ok(_) => panic!("live server must be refused"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The refusal must not have unlinked the live server's socket.
    shutdown_socket(&live).expect("still serving after refused bind");
    handle.join().expect("server thread");

    // Not a socket: refused and preserved.
    let file = socket_path("plain-file");
    std::fs::write(&file, b"precious").expect("write");
    let err = match Server::bind(&file, ServerConfig::default()) {
        Ok(_) => panic!("regular file must be refused"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "{err}");
    assert_eq!(std::fs::read(&file).expect("still there"), b"precious");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let path = socket_path("errors");
    let server = Server::bind(&path, ServerConfig::default()).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut writer = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut ask = |line: &str| -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim().to_string()
    };

    assert!(ask("NONSENSE").starts_with("ERR "));
    assert!(ask("FEED 99 1#0").starts_with("ERR unknown session"));
    assert_eq!(ask("OPEN 1 format 0"), "OK 1 0");
    assert!(ask("OPEN 1 format 0").starts_with("ERR "), "duplicate open");
    assert_eq!(ask("FEED 1 1#01"), "OK 1 4");
    assert!(ask("FEEDS 1 3 01").starts_with("ERR "), "truncated batch");
    assert_eq!(ask("FEEDS 1 2 1# 01"), "OK 1 8", "batched feed");
    let outcome = ask("FINISH 1");
    assert!(outcome.starts_with("OUTCOME 1 "), "got: {outcome}");
    assert!(ask("FINISH 1").starts_with("ERR "), "double finish");

    assert_eq!(ask("SHUTDOWN"), "OK shutdown");
    handle.join().expect("server thread");
}
