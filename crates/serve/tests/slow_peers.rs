//! Peers that stop reading: a client that pipelines requests and never
//! reads its responses blocks only its own connection, and never holds
//! a `SHUTDOWN` from another client.

use oqsc_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn socket_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("oqsc-slow-test-{}-{name}.sock", std::process::id()))
        .display()
        .to_string()
}

fn ask(stream: &mut UnixStream, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("write");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read");
    line.trim().to_string()
}

#[test]
fn a_peer_that_never_reads_does_not_hang_shutdown() {
    let path = socket_path("never-reads");
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(&path, config).expect("bind");
    let (done, returned) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = done.send(server.run().map_err(|e| e.to_string()));
    });

    // Client A pipelines `STATS` lines and never reads. Its answers
    // (26 bytes per 6-byte request) overfill both socket buffers, the
    // server's writes to A block, and the server stops reading A. Once
    // A's own send buffer has stayed full for 200 ms, the server is
    // stuck on A.
    let mut a = UnixStream::connect(&path).expect("connect A");
    a.set_nonblocking(true).expect("non-blocking A");
    let lines = b"STATS\n".repeat(1000);
    let mut at = 0;
    let mut refused_since = None;
    loop {
        match a.write(&lines[at..]) {
            Ok(n) => {
                at = (at + n) % lines.len();
                refused_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *refused_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_millis(200) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("client A write: {e}"),
        }
    }

    // Client B is answered meanwhile, and its SHUTDOWN stops the server
    // while A is still connected.
    let mut b = UnixStream::connect(&path).expect("connect B");
    b.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    assert!(ask(&mut b, "STATS").starts_with("STATS "));
    assert_eq!(ask(&mut b, "SHUTDOWN"), "OK shutdown");
    // A timeout fails the test instead of hanging it on a join.
    let served = returned
        .recv_timeout(Duration::from_secs(2))
        .expect("Server::run returns within 2 s while A is connected");
    assert!(served.is_ok(), "{served:?}");
    handle.join().expect("server thread");
    drop(a);
}
