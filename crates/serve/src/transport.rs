//! The one line service behind every line-protocol endpoint — the
//! server, the router and the distributed sweep fabric's coordinator —
//! plus its client. Unix domain sockets and TCP sit behind one
//! listener/stream pair.
//!
//! Addresses containing `:` are TCP `host:port`; everything else is a
//! Unix socket path. That one rule is shared by the serving tier, the
//! router and the distributed sweep fabric, so `--serve`, `--drive`,
//! `--route` and `--fabric-*` all accept either form interchangeably.
//!
//! [`serve_lines`] owns the accept loop and the connection loop; an
//! endpoint supplies only a request → response handler. The line reader
//! is deliberately hostile-input-proof: a request line is read through
//! a hard [`MAX_LINE_BYTES`] cap, so a client streaming gigabytes
//! without a newline costs the server one bounded buffer and one `ERR`
//! response, never an unbounded allocation.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::Duration;

/// Longest accepted request line in bytes, newline included. Generous —
/// a maximal `FEEDS` line is a few KiB — but a hard wall against
/// hostile clients.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How often a blocked connection read wakes to check the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// The accept loop's first pause when no connection is waiting, or
/// after a transient accept error (EMFILE, ECONNABORTED). Every
/// accepted connection resets the pause to this, so a client that
/// dials just after the loop starts, or just after another client, is
/// accepted within a fraction of a millisecond.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(100);

/// Each miss in a row doubles the pause, up to this: an idle listener
/// wakes 200 times a second.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(5);

/// `host:port` (TCP) vs socket path (Unix): addresses with a `:` dial
/// TCP, everything else names a filesystem socket.
pub fn is_tcp_addr(addr: &str) -> bool {
    addr.contains(':')
}

/// Binds a Unix socket at `path`, replacing a *stale* socket file left
/// by a dead server — and only a stale one. A leftover path is
/// probe-connected first: if a live server answers, binding fails with
/// [`AddrInUse`](std::io::ErrorKind::AddrInUse) instead of silently
/// clobbering it out from under its clients, and a path that is not a
/// socket at all (a regular file, a directory) is never removed.
///
/// [`Listener::bind`] uses it for every Unix address, so every
/// line-protocol endpoint in the workspace gets the same stale-vs-live
/// discipline.
pub fn bind_unix_socket(path: &Path) -> std::io::Result<UnixListener> {
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        use std::os::unix::fs::FileTypeExt;
        if !meta.file_type().is_socket() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "{} exists and is not a socket; refusing to replace it",
                    path.display()
                ),
            ));
        }
        if UnixStream::connect(path).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!(
                    "a live server is already listening on {}; shut it down first",
                    path.display()
                ),
            ));
        }
        // Nothing answered: a stale socket file from a dead server.
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// A listening endpoint on either transport.
pub enum Listener {
    /// A Unix socket listener plus the path it owns (removed when
    /// [`serve_lines`] returns).
    Unix(UnixListener, PathBuf),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr` on the transport its shape selects. Unix paths get
    /// the stale-vs-live discipline of [`bind_unix_socket`].
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        if is_tcp_addr(addr) {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        } else {
            let path = PathBuf::from(addr);
            let listener = bind_unix_socket(&path)?;
            Ok(Listener::Unix(listener, path))
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// The bound address in the same shape [`Listener::bind`] accepts —
    /// for TCP the *actual* address, so binding port `0` reports the
    /// kernel-chosen port a client can dial.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Unix(_, path) => path.display().to_string(),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
        }
    }
}

/// One connection on either transport.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr` on the transport its shape selects.
    fn connect(addr: &str) -> std::io::Result<Stream> {
        if is_tcp_addr(addr) {
            TcpStream::connect(addr).map(Stream::Tcp)
        } else {
            UnixStream::connect(addr).map(Stream::Unix)
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(Some(dur)),
            Stream::Tcp(s) => s.set_read_timeout(Some(dur)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What one bounded line read produced.
#[derive(Debug, PartialEq, Eq)]
enum LineStatus {
    /// A complete line is in the buffer (newline-terminated, or the
    /// final unterminated line before EOF).
    Line,
    /// Clean EOF with nothing buffered.
    Closed,
    /// The line crossed [`MAX_LINE_BYTES`] without a newline; the rest
    /// of it is still unread. Respond `ERR` and [`discard_line`].
    Overflow,
}

/// Reads one request line into `buf` through the [`MAX_LINE_BYTES`]
/// cap. Timeouts (`WouldBlock`/`TimedOut`) surface as `Err` with the
/// partial line preserved in `buf` — the caller checks its shutdown
/// flag and calls again; a client writing one byte per 60 ms must never
/// see its request truncated at a timeout boundary.
fn read_line_bounded<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<LineStatus> {
    loop {
        // Read at most one byte past the cap: enough to tell "exactly
        // at the limit" from "over it", never an unbounded append.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len());
        if room == 0 {
            return Ok(LineStatus::Overflow);
        }
        let n = reader.by_ref().take(room as u64).read_until(b'\n', buf)?;
        if n == 0 {
            return Ok(if buf.is_empty() {
                LineStatus::Closed
            } else {
                LineStatus::Line
            });
        }
        if buf.last() == Some(&b'\n') {
            return Ok(LineStatus::Line);
        }
        // Filled `room` bytes without a newline; loop to flag overflow.
    }
}

/// Consumes the remainder of an oversized line in bounded chunks.
/// Returns `true` once the newline has been swallowed (the connection
/// is back in sync), `false` on EOF. Timeouts surface as `Err`, same
/// contract as [`read_line_bounded`].
fn discard_line<R: BufRead>(reader: &mut R) -> std::io::Result<bool> {
    let mut scratch = Vec::with_capacity(1024);
    loop {
        scratch.clear();
        let n = reader.by_ref().take(1024).read_until(b'\n', &mut scratch)?;
        if n == 0 {
            return Ok(false);
        }
        if scratch.last() == Some(&b'\n') {
            return Ok(true);
        }
    }
}

/// What happens to open connections once a [`serve_lines`] service's
/// stop flag is set. Either way the service stops accepting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnStop {
    /// Close each connection after its next response or at its next
    /// read poll, so one `SHUTDOWN` stops the whole endpoint.
    Close,
    /// Keep serving each connection until its peer hangs up — the fabric
    /// coordinator's workers still receive `FINISHED`.
    Drain,
}

/// Serves the line protocol on `listener` until `stop` is set and the
/// open connections have ended as `on_stop` says, then removes a Unix
/// socket file and returns.
///
/// Each accepted connection gets a scoped thread and a fresh handler
/// from `connection` (per-connection state, such as the router's
/// backend links, lives in that closure). The handler maps each
/// non-empty request line, trimmed, to its response line; the service
/// writes it back with one write. At most `max_connections` (at least
/// one) are served at once: later clients wait in the listen backlog. A
/// line over [`MAX_LINE_BYTES`] or one that is not UTF-8 earns an `ERR`
/// and the connection stays usable. A handler that panics closes only
/// its own connection and frees its slot. An accept error is transient:
/// the loop backs off (at most 5 ms) and retries. Handlers set `stop`
/// themselves.
pub fn serve_lines<F, H>(
    listener: Listener,
    max_connections: usize,
    stop: &AtomicBool,
    on_stop: OnStop,
    connection: F,
) -> std::io::Result<()>
where
    F: Fn() -> H + Sync,
    H: FnMut(&str) -> String,
{
    listener.set_nonblocking()?;
    let open = AtomicUsize::new(0);
    let acceptor = std::thread::current();
    let mut backoff = ACCEPT_BACKOFF_MIN;
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            if open.load(Ordering::SeqCst) >= max_connections.max(1) {
                // At the cap there is nothing to do until a connection
                // ends, and each one unparks this thread as it ends.
                std::thread::park();
                continue;
            }
            match listener.accept() {
                Ok(stream) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    let slot = Slot::take(&open, &acceptor);
                    let connection = &connection;
                    scope.spawn(move || {
                        let _slot = slot;
                        // A panicking handler ends its own connection, not
                        // the service: the engine's locks recover from
                        // poisoning, and the slot is freed either way.
                        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                            serve_connection(stream, stop, on_stop, connection())
                        }));
                    });
                }
                // Nobody waiting (WouldBlock), or out of descriptors for
                // now (EMFILE): the next attempt may succeed either way.
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
            }
        }
    });
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// One of [`serve_lines`]' `max_connections` slots, held by a
/// connection's thread: dropping it, however the thread ends, frees the
/// slot and wakes an acceptor parked at the cap.
struct Slot<'a> {
    open: &'a AtomicUsize,
    acceptor: &'a Thread,
}

impl<'a> Slot<'a> {
    fn take(open: &'a AtomicUsize, acceptor: &'a Thread) -> Self {
        open.fetch_add(1, Ordering::SeqCst);
        Slot { open, acceptor }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
        self.acceptor.unpark();
    }
}

/// Serves one connection until the peer hangs up, an I/O error ends
/// it, or `stop` closes it under [`OnStop::Close`].
fn serve_connection(
    stream: Stream,
    stop: &AtomicBool,
    on_stop: OnStop,
    mut respond: impl FnMut(&str) -> String,
) {
    let closing = || on_stop == OnStop::Close && stop.load(Ordering::SeqCst);
    // Blocked reads wake every READ_POLL to check `closing`; a partial
    // line survives the wake-up in `buf`.
    if stream.set_read_timeout(READ_POLL).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let Some(status) = poll(|| read_line_bounded(&mut reader, &mut buf), &closing) else {
            return;
        };
        let mut response = match status {
            LineStatus::Closed => return, // an unterminated partial dies with the peer
            LineStatus::Overflow => {
                if poll(|| discard_line(&mut reader), &closing) != Some(true) {
                    return;
                }
                format!("ERR line too long (max {MAX_LINE_BYTES} bytes)")
            }
            LineStatus::Line => match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => {
                    buf.clear();
                    continue;
                }
                Ok(request) => respond(request),
                Err(_) => "ERR request is not valid UTF-8".to_string(),
            },
        };
        buf.clear();
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() || closing() {
            return;
        }
    }
}

/// Retries `read` through read-poll timeouts. `None` closes the
/// connection: the read failed, or `closing` held at a timeout.
fn poll<T>(mut read: impl FnMut() -> std::io::Result<T>, closing: &impl Fn() -> bool) -> Option<T> {
    loop {
        match read() {
            Ok(value) => return Some(value),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if closing() {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// A line-protocol client: one request line out, one response line in.
/// Works over either transport; reads block (no timeout) because the
/// far side always answers every request line.
pub struct LineClient {
    writer: Stream,
    reader: std::io::BufReader<Stream>,
}

/// Request lines in flight per pipeline window — small enough that the
/// un-read responses can never fill both socket buffers and deadlock
/// the writer, large enough to amortize the round trip.
const PIPELINE_WINDOW: usize = 64;

impl LineClient {
    /// Connects to a line-protocol endpoint at `addr`.
    pub fn connect(addr: &str) -> std::io::Result<LineClient> {
        let writer = Stream::connect(addr)?;
        let reader = std::io::BufReader::new(writer.try_clone()?);
        Ok(LineClient { writer, reader })
    }

    /// Reads one non-empty response line.
    fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("server closed the connection"));
            }
            if !line.trim().is_empty() {
                return Ok(line.trim().to_string());
            }
        }
    }

    /// Sends one request line and reads its response line verbatim
    /// (`ERR` responses included — the router relays them untouched).
    pub fn ask(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.writer.flush()?;
        self.recv_line()
    }

    /// Pipelines `requests`: writes them in windows of a few dozen
    /// lines, then reads the matching responses, so `n` requests cost
    /// ~`n / window` round trips instead of `n`. Responses come back in
    /// request order (the protocol is strictly one line per request).
    pub fn pipeline(&mut self, requests: &[String]) -> std::io::Result<Vec<String>> {
        let mut responses = Vec::with_capacity(requests.len());
        for window in requests.chunks(PIPELINE_WINDOW) {
            for request in window {
                self.writer.write_all(format!("{request}\n").as_bytes())?;
            }
            self.writer.flush()?;
            for _ in window {
                responses.push(self.recv_line()?);
            }
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reads_cap_hostile_lines_and_resync() {
        // A normal line, an oversized one, then a normal one again.
        let mut data = Vec::new();
        data.extend_from_slice(b"FIRST\n");
        data.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 500]);
        data.push(b'\n');
        data.extend_from_slice(b"SECOND\n");
        let mut reader = Cursor::new(data);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"FIRST\n");
        buf.clear();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Overflow
        );
        assert!(
            buf.len() <= MAX_LINE_BYTES + 1,
            "allocation must stay bounded"
        );
        buf.clear();
        assert!(discard_line(&mut reader).unwrap(), "resync on the newline");
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"SECOND\n");
        buf.clear();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Closed
        );
    }

    #[test]
    fn final_unterminated_line_is_still_delivered() {
        let mut reader = Cursor::new(b"TAIL".to_vec());
        let mut buf = Vec::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf).unwrap(),
            LineStatus::Line
        );
        assert_eq!(buf, b"TAIL");
    }

    /// Sends one line on a fresh connection and returns the response
    /// line, or `None` if none arrives within two seconds.
    fn ask_once(addr: &str, request: &str) -> Option<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        stream.write_all(format!("{request}\n").as_bytes()).ok()?;
        let mut line = String::new();
        match BufReader::new(stream).read_line(&mut line) {
            Ok(n) if n > 0 => Some(line.trim().to_string()),
            _ => None,
        }
    }

    #[test]
    fn a_panicking_handler_frees_its_connection_slot() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let (done, finished) = std::sync::mpsc::channel();
        // A detached thread, so a regression fails this test instead of
        // hanging it on a scope join.
        let service_stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let served = serve_lines(listener, 1, &service_stop, OnStop::Close, || {
                |request: &str| {
                    assert_ne!(request, "BOOM", "handler bug");
                    format!("PONG {request}")
                }
            });
            let _ = done.send(served.map_err(|e| e.to_string()));
        });
        // The only slot's handler panics: its connection closes unanswered.
        assert_eq!(ask_once(&addr, "BOOM"), None);
        assert_eq!(
            ask_once(&addr, "PING").as_deref(),
            Some("PONG PING"),
            "the next client must get the freed slot"
        );
        stop.store(true, Ordering::SeqCst);
        let served = finished
            .recv_timeout(Duration::from_secs(2))
            .expect("serve_lines returns instead of panicking");
        assert_eq!(served, Ok(()));
    }

    #[test]
    fn address_shapes_pick_the_transport() {
        assert!(is_tcp_addr("127.0.0.1:7700"));
        assert!(is_tcp_addr("[::1]:7700"));
        assert!(!is_tcp_addr("/tmp/server.sock"));
        assert!(!is_tcp_addr("relative.sock"));
    }
}
