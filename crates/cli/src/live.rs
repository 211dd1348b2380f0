//! The live observability endpoint: a minimal std-only HTTP responder
//! serving the latest mid-run payloads over a loopback TCP socket.
//!
//! `vapres sim --live-port N` (and `vapres sweep --live-port N`) start a
//! [`LiveServer`] and publish into it — the sim at every time-series
//! sample boundary, the sweep as each scenario completes. The server
//! answers three paths:
//!
//! * `/metrics` — Prometheus text exposition of the metrics registry;
//! * `/health` — watchdog verdicts in the `vapres sim --health jsonl`
//!   serialization;
//! * `/flight` — the recent flight ring as JSON Lines.
//!
//! The responder is deliberately tiny: one background thread, a
//! non-blocking accept loop, one request per connection
//! (`Connection: close`), no keep-alive, no TLS, loopback only. It is
//! an inspection hatch for a long-running simulation, not a web server.
//! Port `0` binds an ephemeral port (tests probe via
//! [`LiveServer::port`]).

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The latest published payload per endpoint path.
#[derive(Debug, Default)]
pub struct Payloads {
    /// Body served at `/metrics`.
    pub metrics: String,
    /// Body served at `/health`.
    pub health: String,
    /// Body served at `/flight`.
    pub flight: String,
}

/// A running live endpoint: background accept thread plus the shared
/// payload slot publishers write into. Dropping the server stops the
/// thread and closes the listener.
pub struct LiveServer {
    payloads: Arc<Mutex<Payloads>>,
    shutdown: Arc<AtomicBool>,
    port: u16,
    thread: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `127.0.0.1:port` (`0` = ephemeral) and starts the accept
    /// loop. Until the first publish, every path serves an empty body.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (e.g. the port is taken).
    pub fn start(port: u16) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let payloads = Arc::new(Mutex::new(Payloads::default()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let payloads = Arc::clone(&payloads);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &payloads),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
        };
        Ok(LiveServer {
            payloads,
            shutdown,
            port,
            thread: Some(thread),
        })
    }

    /// The bound port (useful with `--live-port 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The shared payload slot — clone, move into a sink closure, lock,
    /// overwrite fields. Readers see whatever was published last.
    pub fn payloads(&self) -> Arc<Mutex<Payloads>> {
        Arc::clone(&self.payloads)
    }

    /// Publishes fresh bodies for all three paths.
    pub fn publish(&self, metrics: String, health: String, flight: String) {
        let mut p = self.payloads.lock().expect("live payload lock");
        p.metrics = metrics;
        p.health = health;
        p.flight = flight;
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Answers one HTTP request on `stream` and closes it. All failure
/// modes (short reads, write errors, poisoned lock) drop the connection
/// — the client retries, the simulation never notices.
fn serve_one(mut stream: std::net::TcpStream, payloads: &Arc<Mutex<Payloads>>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    // Read until the header terminator; the request line is all we use.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&req);
    let path = request_line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("");
    let body = {
        let p = payloads.lock().expect("live payload lock");
        match path {
            "/metrics" => Some(p.metrics.clone()),
            "/health" => Some(p.health.clone()),
            "/flight" => Some(p.flight.clone()),
            _ => None,
        }
    };
    let response = match body {
        Some(body) => format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
        None => {
            let body = "not found (paths: /metrics /health /flight)\n";
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    /// Issues one GET against the server using only std `TcpStream`
    /// (the same probe `scripts/verify.sh` runs — no curl in the loop).
    fn get(port: u16, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect to live server");
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read response");
        let (head, body) = resp.split_once("\r\n\r\n").expect("header terminator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_published_payloads_and_404s_strangers() {
        let server = LiveServer::start(0).expect("bind ephemeral port");
        server.publish(
            "vapres_up 1\n".into(),
            "{\"type\":\"health\",\"healthy\":true,\"breached\":0,\"monitors\":0}\n".into(),
            String::new(),
        );
        let (head, body) = get(server.port(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "got {head}");
        assert!(head.contains("Content-Length: 12"));
        assert_eq!(body, "vapres_up 1\n");

        let (head, body) = get(server.port(), "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"healthy\":true"));

        let (head, body) = get(server.port(), "/flight");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.is_empty(), "flight starts empty");

        let (head, _) = get(server.port(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "got {head}");
    }

    #[test]
    fn later_publishes_replace_earlier_ones() {
        let server = LiveServer::start(0).expect("bind ephemeral port");
        server.publish("a".into(), "b".into(), "c".into());
        server.publish("x".into(), "y".into(), "z".into());
        assert_eq!(get(server.port(), "/metrics").1, "x");
        assert_eq!(get(server.port(), "/health").1, "y");
        assert_eq!(get(server.port(), "/flight").1, "z");
    }
}
