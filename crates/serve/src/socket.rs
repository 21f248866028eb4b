//! Transports for the job-server protocol: a Unix-domain socket for
//! resident operation and a stdin/stdout oneshot mode for scripting.
//!
//! Both read requests through one bounded line reader: a line is
//! collected as bytes and decoded once it is complete, so a read that
//! ends inside a multi-byte UTF-8 character loses nothing. A line that
//! is not UTF-8 is answered with an error and the session goes on; a
//! line longer than [`MAX_LINE_BYTES`] is answered with a typed error
//! and ends the session. The socket serves at most [`MAX_CONNECTIONS`]
//! connections at once and refuses the rest with a typed line.

use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
use momsynth_sync::sync::mpsc;
#[cfg(unix)]
use momsynth_sync::sync::Arc;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

use serde_json::{json, Value};

use crate::protocol::{handle_line, to_line, Reply};
use crate::server::Server;

/// The longest request line either transport accepts, in bytes, its
/// newline included: 1 MiB, ~33× the ~31 KB compact `submit` line of
/// the smartphone and ~12× that of a generated 32-mode, 629-task system.
/// A longer line is answered with `{"ok":false,"error":…,"limit":
/// "line_bytes","max":…}` and the session ends, so one client can
/// buffer at most this much.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most Unix-socket connections served at once. One more is sent
/// `{"ok":false,"error":…,"limit":"connections","max":…}` and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// The typed reply to a request that broke a transport limit.
fn limit_reply(limit: &str, max: usize, error: String) -> Value {
    json!({"ok": false, "error": error, "limit": limit, "max": max})
}

/// One request line from a [`LineReader`].
enum Line {
    /// A complete UTF-8 line, newline stripped.
    Text(String),
    /// A complete line that is not UTF-8.
    NotUtf8,
    /// [`MAX_LINE_BYTES`] bytes without a newline.
    TooLong,
}

/// Reads newline-terminated request lines as bytes, at most
/// [`MAX_LINE_BYTES`] per line. Bytes read before an error (a read
/// timeout) stay buffered, so the next call completes the line.
struct LineReader<R> {
    input: BufReader<R>,
    line: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    fn new(input: R) -> Self {
        Self { input: BufReader::new(input), line: Vec::new() }
    }

    /// The next line, or `None` at end of input. A final line without a
    /// newline still counts.
    fn next_line(&mut self) -> std::io::Result<Option<Line>> {
        let room = (MAX_LINE_BYTES - self.line.len()) as u64;
        (&mut self.input).take(room).read_until(b'\n', &mut self.line)?;
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        } else if self.line.len() == MAX_LINE_BYTES {
            self.line.clear();
            return Ok(Some(Line::TooLong));
        } else if self.line.is_empty() {
            return Ok(None);
        }
        Ok(Some(match String::from_utf8(std::mem::take(&mut self.line)) {
            Ok(text) => Line::Text(text),
            Err(_) => Line::NotUtf8,
        }))
    }
}

/// Forwards streamed subscription lines to `out` until the subscribed
/// job is terminal, the peer hangs up, or `stop` is raised.
fn pump_stream(
    server: &Server,
    out: &mut impl Write,
    rx: &mpsc::Receiver<String>,
    job: Option<&str>,
    stop: &AtomicBool,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Some(id) = job {
            let terminal = server.status(id).is_none_or(|s| s.record.state.is_terminal());
            if terminal {
                // Drain whatever the worker already broadcast.
                while let Ok(line) = rx.try_recv() {
                    if writeln!(out, "{line}").is_err() {
                        return;
                    }
                }
                let _ = out.flush();
                return;
            }
        }
    }
}

/// Serves the protocol on `input`/`output` — stdin/stdout in oneshot
/// mode, or one Unix-socket connection — line by line until end of
/// input, an I/O error, an over-long line, `stop`, or a `shutdown`
/// command; returns whether a `shutdown` command ended it. Read
/// timeouts are retried, keeping any partial line, so `stop` is
/// observed between them.
pub fn serve_session(
    server: &Server,
    input: impl Read,
    mut output: impl Write,
    stop: &AtomicBool,
) -> bool {
    let mut lines = LineReader::new(input);
    loop {
        let line = lines.next_line();
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let reply = match line {
            Ok(Some(Line::Text(line))) if line.trim().is_empty() => continue,
            Ok(Some(Line::Text(line))) => handle_line(server, &line),
            Ok(Some(Line::NotUtf8)) => {
                Reply::Line(json!({"ok": false, "error": "request line is not UTF-8"}))
            }
            Ok(Some(Line::TooLong)) => {
                let error = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let _ = send(&mut output, &limit_reply("line_bytes", MAX_LINE_BYTES, error));
                return false;
            }
            Ok(None) => return false,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return false,
        };
        match reply {
            Reply::Line(v) => {
                if send(&mut output, &v).is_err() {
                    return false;
                }
            }
            Reply::Stream { ack, rx, job } => {
                if send(&mut output, &ack).is_err() {
                    return false;
                }
                pump_stream(server, &mut output, &rx, job.as_deref(), stop);
            }
            Reply::Shutdown(v) => {
                let _ = send(&mut output, &v);
                return true;
            }
        }
    }
}

/// Writes one response line and flushes it.
fn send(output: &mut impl Write, value: &Value) -> std::io::Result<()> {
    writeln!(output, "{}", to_line(value))?;
    output.flush()
}

/// Accepts connections on a Unix-domain socket at `path` and serves the
/// protocol to each on its own thread, until `stop` is raised (SIGTERM,
/// Ctrl-C, or a client's `shutdown` command). At most
/// [`MAX_CONNECTIONS`] are served at once; a connection beyond that is
/// sent a typed refusal line and closed. Removes a stale socket file
/// before binding and cleans up on exit.
///
/// # Errors
///
/// Fails when the socket cannot be bound.
#[cfg(unix)]
pub fn serve_unix(
    server: &Arc<Server>,
    path: &std::path::Path,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    std::fs::remove_file(path).ok();
    let listener = UnixListener::bind(path)?;
    // Nonblocking accept so the loop can observe `stop` promptly: a
    // blocking accept would pin the thread until the next client.
    listener.set_nonblocking(true)?;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();

    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _addr)) => {
                connections.retain(|c| !c.is_finished());
                if connections.len() >= MAX_CONNECTIONS {
                    let error = format!("server is at its limit of {MAX_CONNECTIONS} connections");
                    stream.set_write_timeout(Some(Duration::from_millis(200))).ok();
                    let _ = send(&mut stream, &limit_reply("connections", MAX_CONNECTIONS, error));
                    continue;
                }
                let server = Arc::clone(server);
                let stop = Arc::clone(stop);
                connections.push(std::thread::spawn(move || {
                    // A read deadline keeps idle connections from
                    // outliving a server shutdown.
                    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
                    // A `shutdown` command ends the accept loop and
                    // every other connection.
                    if serve_session(&server, &stream, &stream, &stop) {
                        stop.store(true, Ordering::Release);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
    std::fs::remove_file(path).ok();
    Ok(())
}
