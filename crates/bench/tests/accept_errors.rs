//! A failed accept is transient. A `--serve` process started under a
//! 16-descriptor soft limit runs out of descriptors during a burst of
//! connections (its accepts fail with EMFILE); once the limit is raised
//! it must still serve its full `--workers` connection cap.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills and reaps the server however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn connect_all(sock: &str, n: usize) -> Vec<UnixStream> {
    (0..n)
        .map(|_| UnixStream::connect(sock).expect("connect"))
        .collect()
}

#[test]
fn accept_errors_do_not_shrink_the_connection_cap() {
    let sock = std::env::temp_dir()
        .join(format!("oqsc-accept-{}.sock", std::process::id()))
        .display()
        .to_string();
    let _ = std::fs::remove_file(&sock);
    let mut server = Reaped(
        Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -Sn 16 && exec "$0" --serve "$1" --workers 24"#)
            .arg(env!("CARGO_BIN_EXE_experiments"))
            .arg(&sock)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&sock).is_err() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Two descriptors per served connection: a burst of 12 exhausts the
    // limit, and the accepts behind it fail with EMFILE.
    let burst = connect_all(&sock, 12);
    std::thread::sleep(Duration::from_millis(300));
    let raised = Command::new("prlimit")
        .arg(format!("--pid={}", server.0.id()))
        .arg("--nofile=256:")
        .status()
        .expect("run prlimit");
    assert!(raised.success(), "prlimit failed: {raised}");
    drop(burst);

    // Ten idle clients hold ten of the 24 slots; an eleventh is served.
    let idle = connect_all(&sock, 10);
    let mut client = UnixStream::connect(&sock).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let mut ask = |request: &str| {
        let mut line = String::new();
        client
            .write_all(format!("{request}\n").as_bytes())
            .expect("write");
        let _ = reader.read_line(&mut line);
        line
    };
    let stats = ask("STATS");
    assert!(
        stats.starts_with("STATS "),
        "the 11th client got no STATS reply within 3 s: {stats:?}"
    );
    assert_eq!(ask("SHUTDOWN").trim(), "OK shutdown");
    drop(idle);
    let status = server.0.wait().expect("wait for server");
    assert!(status.success(), "server exited with {status}");
}
