//! Hostile-line battery: every malformed input — overlong lines,
//! non-UTF8 bytes, truncated `FEEDS` counts, absurd declared counts —
//! earns a typed `ERR` line and leaves the connection usable. Never a
//! panic, never a dropped connection, never an allocation proportional
//! to what the client *claims* to be sending. Each battery runs against
//! a server and against a router fronting one.

use oqsc_serve::{Router, RouterConfig, Server, ServerConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

fn socket_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "oqsc-robust-test-{}-{name}.sock",
            std::process::id()
        ))
        .display()
        .to_string()
}

struct RawClient {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl RawClient {
    fn connect(path: &str) -> RawClient {
        let writer = UnixStream::connect(path).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawClient { writer, reader }
    }

    /// Sends raw bytes (not necessarily a valid line) and reads one
    /// response line.
    fn send_raw(&mut self, bytes: &[u8]) -> String {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(
            response.ends_with('\n'),
            "server must answer a full line, got {response:?}"
        );
        response.trim().to_string()
    }

    fn ask(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes())
    }
}

/// Runs `battery` on a fresh connection to a server — or, when
/// `routed`, to a router fronting that server — then shuts the stack
/// down with one `SHUTDOWN` (a router broadcasts it).
fn run_battery(name: &str, routed: bool, battery: fn(&mut RawClient)) {
    let engine = socket_path(&format!("{name}-engine"));
    let server = Server::bind(&engine, ServerConfig::default()).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let (front, router) = if routed {
        let front = socket_path(&format!("{name}-front"));
        let router = Router::bind(&front, vec![engine], RouterConfig::default()).expect("bind");
        (
            front,
            Some(std::thread::spawn(move || router.run().expect("route"))),
        )
    } else {
        (engine, None)
    };
    let mut client = RawClient::connect(&front);
    battery(&mut client);
    assert_eq!(client.ask("SHUTDOWN"), "OK shutdown");
    if let Some(router) = router {
        router.join().expect("router thread");
    }
    handle.join().expect("server thread");
}

fn hostile_lines(client: &mut RawClient) {
    // A line crossing the cap without a newline: one bounded ERR once
    // the newline finally arrives, then business as usual.
    let mut overlong = vec![b'x'; MAX_LINE_BYTES + 4096];
    overlong.push(b'\n');
    let response = client.send_raw(&overlong);
    assert!(response.starts_with("ERR line too long"), "got: {response}");

    // Non-UTF8 bytes in an otherwise well-framed line.
    let response = client.send_raw(b"FEED 1 \xff\xfe\x80\n");
    assert!(
        response.starts_with("ERR request is not valid UTF-8"),
        "got: {response}"
    );

    // Truncated FEEDS batches: fewer chunks than declared.
    for bad in [
        "FEEDS 1 2 01",
        "FEEDS 1 1",
        // A count chosen to bankrupt a server that preallocates by it.
        "FEEDS 1 18446744073709551615 01",
        "FEEDS 1 9999999999 01 10",
        // Excess chunks and garbage counts.
        "FEEDS 1 1 01 10",
        "FEEDS 1 -3 01",
        "FEEDS 1 zz 01",
        // Garbage words inside a well-counted batch.
        "FEEDS 1 2 01 0x2",
    ] {
        let response = client.ask(bad);
        assert!(response.starts_with("ERR "), "{bad:?} got: {response}");
    }

    // Assorted malformed frames.
    for bad in [
        "OPEN 1 format",
        "OPEN 99999999999999999999999999 format 0",
        "FEED",
        "FINISH one",
        "STATS now",
        "\u{1F980} 1", // a verb from outside ASCII entirely
    ] {
        let response = client.ask(bad);
        assert!(response.starts_with("ERR "), "{bad:?} got: {response}");
    }

    // After all of that abuse, the same connection still serves a
    // session end to end.
    assert_eq!(client.ask("OPEN 5 format 0"), "OK 5 0");
    assert_eq!(client.ask("FEEDS 5 2 1# 01"), "OK 5 4");
    let outcome = client.ask("FINISH 5");
    assert!(outcome.starts_with("OUTCOME 5 "), "got: {outcome}");
}

/// Two overlong lines back to back, with a pipelined valid request
/// behind them: the resync must swallow exactly one line per ERR.
fn oversized_line_resync(client: &mut RawClient) {
    let mut blob = Vec::new();
    for _ in 0..2 {
        blob.extend_from_slice(&vec![b'y'; MAX_LINE_BYTES + 100]);
        blob.push(b'\n');
    }
    blob.extend_from_slice(b"OPEN 1 format 0\n");
    let first = client.send_raw(&blob);
    assert!(first.starts_with("ERR line too long"), "got: {first}");
    let mut next = String::new();
    client.reader.read_line(&mut next).expect("second response");
    assert!(
        next.starts_with("ERR line too long"),
        "second oversized line, got: {next}"
    );
    let mut open = String::new();
    client.reader.read_line(&mut open).expect("third response");
    assert_eq!(open.trim(), "OK 1 0", "the valid request behind the junk");
}

#[test]
fn hostile_lines_get_typed_errors_and_the_connection_survives() {
    run_battery("battery", false, hostile_lines);
}

#[test]
fn hostile_lines_through_a_router_get_typed_errors() {
    run_battery("routed-battery", true, hostile_lines);
}

#[test]
fn oversized_line_resync_is_exact() {
    run_battery("resync", false, oversized_line_resync);
}

#[test]
fn oversized_line_resync_through_a_router_is_exact() {
    run_battery("routed-resync", true, oversized_line_resync);
}
