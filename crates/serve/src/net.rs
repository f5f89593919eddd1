//! Socket transport for the serve protocol: Unix-domain and TCP
//! listeners, a nonblocking accept loop with a clean shutdown path, and
//! the one-shot client used by `cqa request`, the tests and CI.
//!
//! The accept loop hands each connection to a scoped worker thread,
//! bounded by the vendored `rayon_lite` width resolution (the same
//! `CQA_THREADS`-aware clamp the solver's batch sharding uses); when every
//! worker slot is busy the connection is served inline on the accept
//! thread — natural backpressure, never an unbounded queue. After a
//! `shutdown` request the loop drains in-flight connections, then dumps
//! the metrics snapshot.

use crate::service::Service;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the server listens (and the client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7411`.
    Tcp(String),
}

impl Endpoint {
    /// Resolves the CLI's `--socket PATH` / `--tcp ADDR` pair (exactly one
    /// must be given).
    pub fn from_flags(socket: Option<&str>, tcp: Option<&str>) -> Result<Endpoint, String> {
        match (socket, tcp) {
            (Some(path), None) => Ok(Endpoint::Unix(PathBuf::from(path))),
            (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_string())),
            (Some(_), Some(_)) => Err("pass --socket or --tcp, not both".to_string()),
            (None, None) => Err("missing --socket PATH or --tcp ADDR".to_string()),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// One accepted connection, unified over both transports.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a dead server blocks bind;
                // nothing is listening on it, so remove it.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Conn::Unix(stream))
            }
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Conn::Tcp(stream))
            }
        }
    }
}

/// Runs the accept loop until a `shutdown` request lands, then drains
/// in-flight connections and (if `metrics_out` is given) writes the final
/// metrics snapshot there as pretty-printed JSON.
///
/// Worker width follows the `rayon_lite` resolution (`CQA_THREADS`-aware,
/// clamped to the machine); connections beyond that width are handled
/// inline on the accept thread rather than queued.
pub fn serve(
    service: &Arc<Service>,
    endpoint: &Endpoint,
    metrics_out: Option<&Path>,
) -> io::Result<()> {
    let listener = Listener::bind(endpoint)?;
    let width = rayon_lite::current_num_threads().max(1);
    let active = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        while !service.shutdown_requested() {
            match listener.accept() {
                Ok(conn) => {
                    if active.load(Ordering::SeqCst) < width {
                        active.fetch_add(1, Ordering::SeqCst);
                        let service = Arc::clone(service);
                        let active = &active;
                        scope.spawn(move || {
                            handle_connection(&service, conn);
                            active.fetch_sub(1, Ordering::SeqCst);
                        });
                    } else {
                        // All worker slots busy: serve inline. The accept
                        // loop pauses, which is the backpressure.
                        handle_connection(service, conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    eprintln!("accept error: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    });

    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    if let Some(path) = metrics_out {
        let snapshot = service.metrics().snapshot();
        let body = serde_json::to_string_pretty(&snapshot).expect("metrics serialize");
        std::fs::write(path, body + "\n")?;
    }
    Ok(())
}

/// Serves one connection: line in, line out, until EOF or a broken pipe.
/// Under a line cap ([`Service::line_cap`]) it buffers at most cap + 1
/// bytes of a line; a longer one is skipped to its newline and refused
/// without being decoded.
fn handle_connection(service: &Service, conn: Conn) {
    let cap = service.line_cap();
    let limit = cap.map_or(u64::MAX, |cap| cap.saturating_add(1) as u64);
    let mut reader = BufReader::new(conn);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let mut reply = match cap {
            Some(cap) if line.len() > cap && !line.ends_with(b"\n") => {
                if reader.skip_until(b'\n').is_err() {
                    return;
                }
                service.refuse_oversize_line(cap)
            }
            _ => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    return;
                };
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                service.handle_line(trimmed)
            }
        };
        // One write per reply: a client reading lines wakes once.
        reply.push('\n');
        let conn = reader.get_mut();
        if conn.write_all(reply.as_bytes()).is_err() || conn.flush().is_err() {
            return;
        }
    }
}

/// One-shot client: connect, send `line`, read the single reply line.
/// This is the whole of `cqa request`.
pub fn request(endpoint: &Endpoint, line: &str) -> io::Result<String> {
    match endpoint {
        Endpoint::Unix(path) => round_trip(UnixStream::connect(path)?, line),
        Endpoint::Tcp(addr) => round_trip(TcpStream::connect(addr.as_str())?, line),
    }
}

fn round_trip<S: Read + Write>(mut stream: S, line: &str) -> io::Result<String> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without replying",
        ));
    }
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use cqa_core::ExecOptions;
    use serde_json::Value;

    #[test]
    fn oversize_line_is_refused_unread_and_the_connection_keeps_serving() {
        let mut socket = std::env::temp_dir();
        socket.push(format!(
            "cqa-serve-net-{}-oversize.sock",
            std::process::id()
        ));
        let endpoint = Endpoint::Unix(socket.clone());
        let service = Arc::new(Service::new(ServeConfig {
            defaults: ExecOptions::sequential(),
            cache_capacity: 4,
            max_facts: Some(100),
        }));
        let cap = service
            .line_cap()
            .expect("a fact ceiling caps request lines");
        let server = {
            let service = Arc::clone(&service);
            let endpoint = endpoint.clone();
            std::thread::spawn(move || serve(&service, &endpoint, None))
        };
        let mut stream = (0..200)
            .find_map(|_| {
                std::thread::sleep(Duration::from_millis(10));
                UnixStream::connect(&socket).ok()
            })
            .expect("server came up");
        let mut replies = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut send = |line: &str| -> Value {
            stream.write_all(line.as_bytes()).expect("send line");
            stream.write_all(b"\n").expect("send newline");
            let mut reply = String::new();
            replies.read_line(&mut reply).expect("read reply");
            serde_json::from_str(&reply).expect("reply parses")
        };
        // `{"op":"ping"}` padded with JSON whitespace to `len` bytes.
        let ping = |len: usize| format!("{{\"op\":\"ping\"{}}}", " ".repeat(len - 13));
        let flag = |reply: &Value, name: &str| reply.get(name).and_then(Value::as_bool);

        let at_cap = send(&ping(cap));
        assert_eq!(flag(&at_cap, "pong"), Some(true), "{at_cap:?}");
        for len in [cap + 1, 8 * cap] {
            let over = send(&ping(len));
            assert_eq!(flag(&over, "ok"), Some(false), "{over:?}");
            assert_eq!(flag(&over, "rejected"), Some(true), "{over:?}");
        }
        // The skipped lines left the stream in step: the same connection
        // answers the next request.
        let after = send(&ping(13));
        assert_eq!(flag(&after, "pong"), Some(true), "{after:?}");
        assert_eq!(flag(&send(r#"{"op":"shutdown"}"#), "shutdown"), Some(true));
        drop((stream, replies));
        server
            .join()
            .expect("server thread exits")
            .expect("serve returns Ok");
        let metrics = service.metrics().snapshot();
        assert_eq!(metrics.get("rejected").and_then(Value::as_u64), Some(2));
    }
}
