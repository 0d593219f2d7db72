//! The zero-dependency HTTP/SSE observability front end.
//!
//! [`WebServer`] is a std-only (`TcpListener` + threads, no HTTP crate)
//! window onto the serving runtime, built for the live demo
//! (`ft2-repro serve --web`):
//!
//! * `GET /` — an embedded single-page viewer (one static HTML/JS string,
//!   no npm, no build step): tokens animate in colored by their step's
//!   [`AnomalyVerdict`](ft2_model::AnomalyVerdict), with a per-block
//!   bound-hit heatmap, rollback/repair/eviction markers, replica-health
//!   badges, and fault-injection buttons.
//! * `GET /events` — a Server-Sent-Events stream of [`ServeEvent`]s
//!   (`event: <kind>` / `data: <json>` frames). Client slots are bounded
//!   (`FT2_WEB_MAX_CLIENTS`); a full house answers `503`. Dead clients are
//!   detected by write failure (events or keepalive pings) and their slots
//!   freed.
//! * `POST /inject` — the live fault control: a form-encoded body
//!   (`kind=flip&block=2`) parses into an [`ft2_fault::LiveFault`] and is
//!   forwarded to the harness over a channel; the HTTP layer never touches
//!   the decode path itself.
//!
//! **Observation only.** The server consumes an event `Receiver` and
//! produces a fault `Sender` — it holds no scheduler, no model, and no
//! lock shared with the decode loop, so streamed tokens are bit-identical
//! to an unobserved run by construction. A graceful [`WebServer::shutdown`]
//! drains pending events, sends every open stream a final typed
//! `event: shutdown` frame, closes the streams, and joins both service
//! threads — repeated start/stop cycles leak no threads.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::ServeEvent;
use ft2_fault::LiveFault;
use ft2_parallel::lock_clean;

/// Request heads larger than this are rejected (the demo endpoints need a
/// few hundred bytes at most).
const MAX_HEAD: usize = 8 * 1024;

/// Injection bodies larger than this are rejected.
const MAX_BODY: usize = 1024;

/// A slow or stuck client gets this long per socket read/write before the
/// connection is abandoned — the accept loop must never wedge.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Broadcast-loop tick; keepalive pings go out every [`PING_TICKS`] ticks
/// so dead client slots are reclaimed even on a quiet stream.
const TICK: Duration = Duration::from_millis(50);

/// Ticks between `: ping` keepalives (~1 s).
const PING_TICKS: u32 = 20;

/// Web front-end configuration (knobs `FT2_WEB_ADDR` and
/// `FT2_WEB_MAX_CLIENTS` feed these fields at the harness level).
#[derive(Clone, Debug)]
pub struct WebConfig {
    /// Bind address; port `0` picks an ephemeral port (CI smoke).
    pub addr: String,
    /// Maximum concurrent SSE clients; further `GET /events` get `503`.
    pub max_clients: usize,
}

impl Default for WebConfig {
    fn default() -> WebConfig {
        WebConfig {
            addr: "127.0.0.1:8472".to_string(),
            max_clients: 16,
        }
    }
}

/// Append one SSE frame (`event: <kind>` + `data: <data>` + blank line) to
/// `w`. `write_all` loops over partial writes, so a frame is emitted whole
/// or errors — event boundaries never split across a failed client.
pub fn write_frame<W: Write>(w: &mut W, kind: &str, data: &str) -> io::Result<()> {
    let frame = format!("event: {kind}\ndata: {data}\n\n");
    w.write_all(frame.as_bytes())
}

/// State shared between the accept and broadcast threads.
struct Shared {
    clients: Mutex<Vec<TcpStream>>,
    max_clients: usize,
    injects: Sender<LiveFault>,
    stop: AtomicBool,
}

impl Shared {
    /// Write one frame to every client, dropping clients whose write
    /// fails (their slot frees immediately).
    fn broadcast(&self, kind: &str, data: &str) {
        // ft2: blocking-ok (frame writes are bounded by IO_TIMEOUT; a failed
        // write drops the client, which is the dead-slot reclaim mechanism)
        let mut clients = lock_clean(&self.clients);
        clients.retain_mut(|c| write_frame(c, kind, data).and_then(|_| c.flush()).is_ok());
    }

    /// Keepalive comment — detects dead clients on quiet streams.
    fn ping(&self) {
        // ft2: blocking-ok (keepalive writes are bounded by IO_TIMEOUT)
        let mut clients = lock_clean(&self.clients);
        clients.retain_mut(|c| c.write_all(b": ping\n\n").and_then(|_| c.flush()).is_ok());
    }
}

/// The HTTP/SSE server. Dropping it (or calling [`WebServer::shutdown`])
/// performs the graceful drain.
pub struct WebServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    broadcast: Option<JoinHandle<()>>,
}

impl WebServer {
    /// Bind `config.addr` and start serving: events drained from `events`
    /// fan out to every SSE client; faults posted to `/inject` are
    /// forwarded into `injects`.
    pub fn start(
        config: WebConfig,
        events: Receiver<ServeEvent>,
        injects: Sender<LiveFault>,
    ) -> io::Result<WebServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            clients: Mutex::new(Vec::new()),
            max_clients: config.max_clients.max(1),
            injects,
            stop: AtomicBool::new(false),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ft2-web-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // Served inline: requests are tiny, and per-socket
                        // timeouts bound how long one client can hold the
                        // loop.
                        let _ = handle_conn(stream, &accept_shared);
                    }
                }
            })?;

        let bcast_shared = Arc::clone(&shared);
        let broadcast = std::thread::Builder::new()
            .name("ft2-web-broadcast".to_string())
            .spawn(move || {
                let mut ticks = 0u32;
                loop {
                    if bcast_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match events.recv_timeout(TICK) {
                        Ok(ev) => bcast_shared.broadcast(ev.kind(), &ev.to_json()),
                        Err(RecvTimeoutError::Timeout) => {
                            ticks += 1;
                            if ticks >= PING_TICKS {
                                bcast_shared.ping();
                                ticks = 0;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                // Graceful drain: flush whatever is still queued, then
                // close every stream with a final typed event.
                while let Ok(ev) = events.try_recv() {
                    bcast_shared.broadcast(ev.kind(), &ev.to_json());
                }
                let shutdown = ServeEvent::Shutdown;
                // ft2: blocking-ok (final shutdown frames, IO_TIMEOUT-bounded;
                // the accept loop is already stopped so nothing else contends)
                let mut clients = lock_clean(&bcast_shared.clients);
                for c in clients.iter_mut() {
                    let _ = write_frame(c, shutdown.kind(), &shutdown.to_json())
                        .and_then(|_| c.flush());
                }
                clients.clear();
            })?;

        Ok(WebServer {
            addr,
            shared,
            accept: Some(accept),
            broadcast: Some(broadcast),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connected SSE clients right now.
    pub fn clients(&self) -> usize {
        lock_clean(&self.shared.clients).len()
    }

    /// Graceful drain: stop accepting, flush pending events, send every
    /// open stream the final `shutdown` frame, and join both threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the (blocking) accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.broadcast.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WebServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read the request head (+ body for POST), route, respond. I/O errors
/// just drop the connection; an oversized or malformed head gets a typed
/// `431`/`400` and the connection is closed without reading the rest.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // The whole head (request line + headers) is read through one
    // `MAX_HEAD`-byte `Take`, so no line — terminated or not — can make the
    // server buffer more than that.
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_HEAD as u64));
    let mut stream = stream;

    let mut request_line = String::new();
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return refuse(&mut stream, 400, "request head is not UTF-8");
            }
            Err(e) => return Err(e),
        }
        if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
            return refuse(&mut stream, 431, "request head too large");
        }
        if line.trim().is_empty() {
            break; // blank line, or the client stopped sending
        }
        if request_line.is_empty() {
            request_line = std::mem::take(&mut line);
        } else if let Some((k, v)) = line.split_once(':') {
            // Of the headers only Content-Length matters.
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return refuse(&mut stream, 400, "malformed request line");
    };

    match (method, path) {
        ("GET", "/") | ("GET", "/index.html") => {
            respond(&mut stream, 200, "text/html; charset=utf-8", VIEWER_HTML)
        }
        ("GET", "/events") => {
            // ft2: blocking-ok (holding the slot lock across the IO_TIMEOUT-
            // bounded handshake writes is what makes slot reservation atomic)
            let mut clients = lock_clean(&shared.clients);
            if clients.len() >= shared.max_clients {
                drop(clients);
                return refuse(&mut stream, 503, "client slots full");
            }
            stream.write_all(
                b"HTTP/1.1 200 OK\r\n\
                  Content-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\n\
                  Connection: close\r\n\r\n",
            )?;
            stream.write_all(b": connected\n\n")?;
            stream.flush()?;
            clients.push(stream);
            Ok(())
        }
        ("POST", "/inject") => {
            let n = content_length.min(MAX_BODY);
            let mut body = vec![0u8; n];
            // The head is done; the limit now bounds the body instead
            // (bytes the `BufReader` already holds are served first).
            reader.get_mut().set_limit(n as u64);
            reader.read_exact(&mut body)?;
            let body = String::from_utf8_lossy(&body);
            match LiveFault::parse(&body) {
                Ok(fault) => {
                    let what = fault.describe();
                    if shared.injects.send(fault).is_ok() {
                        respond(
                            &mut stream,
                            200,
                            "application/json",
                            &format!(r#"{{"ok":true,"what":"{what}"}}"#),
                        )
                    } else {
                        refuse(&mut stream, 503, "injector gone")
                    }
                }
                Err(e) => refuse(&mut stream, 400, &e),
            }
        }
        _ => refuse(&mut stream, 404, "not found"),
    }
}

/// A typed JSON refusal: `{"ok":false,"error":"<error>"}` under `status`.
/// `error` may quote bytes of the request, so it is escaped as a JSON
/// string here — the one place a refusal is built.
fn refuse(stream: &mut TcpStream, status: u16, error: &str) -> io::Result<()> {
    let mut body = String::from(r#"{"ok":false,"error":""#);
    for c in error.chars() {
        match c {
            '"' | '\\' => body.extend(['\\', c]),
            c if c.is_control() => body.push_str(&format!("\\u{:04x}", c as u32)),
            c => body.push(c),
        }
    }
    body.push_str("\"}");
    respond(stream, status, "application/json", &body)
}

fn respond(stream: &mut TcpStream, status: u16, ctype: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The embedded single-page viewer (no npm, no build step): tokens stream
/// in colored by verdict, a per-block heatmap accumulates bound hits,
/// recovery markers and replica health render inline, and the inject
/// buttons drive `POST /inject`.
const VIEWER_HTML: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ft2 live token stream</title>
<style>
  body { background:#0b0e14; color:#cdd6f4; font:14px/1.5 monospace; margin:0; padding:1rem 2rem; }
  h1 { font-size:1.1rem; color:#89b4fa; }
  #replicas span { display:inline-block; margin-right:.6rem; padding:.1rem .5rem; border-radius:3px; background:#313244; }
  #replicas .Healthy { background:#1d4030; } #replicas .Suspect { background:#5a4a1a; }
  #replicas .Quarantined { background:#5a1a1a; } #replicas .Rebuilding { background:#1a3a5a; }
  #heat { display:grid; grid-template-columns:repeat(32,1fr); gap:2px; margin:.6rem 0; }
  #heat div { height:14px; background:#1e2030; border-radius:2px; font-size:8px; text-align:center; color:#6c7086; }
  #stream { background:#11131c; border:1px solid #313244; border-radius:4px; padding:.6rem; min-height:8rem; max-height:45vh; overflow-y:auto; word-break:break-all; }
  .tok { display:inline-block; margin:1px; padding:0 3px; border-radius:2px; background:#1e2030; }
  .tok.Clean { color:#a6e3a1; } .tok.Corrected { color:#f9e2af; background:#3a3320; }
  .tok.Storm { color:#f38ba8; background:#451a24; font-weight:bold; }
  .mark { display:inline-block; margin:1px 2px; padding:0 4px; border-radius:2px; font-weight:bold; }
  .mark.rollback { background:#704214; color:#fab387; } .mark.repair { background:#14465a; color:#89dceb; }
  .mark.evicted { background:#5a1a1a; color:#f38ba8; } .mark.completed { background:#1d4030; color:#a6e3a1; }
  .mark.inject { background:#4a1a5a; color:#cba6f7; }
  button { background:#313244; color:#cdd6f4; border:1px solid #45475a; border-radius:3px; padding:.3rem .7rem; margin-right:.4rem; font:inherit; cursor:pointer; }
  button:hover { background:#45475a; }
  #log { color:#6c7086; font-size:12px; margin-top:.6rem; }
</style>
</head>
<body>
<h1>ft2 — live detection &middot; escalation &middot; recovery</h1>
<div id="replicas"></div>
<div>per-block bound hits</div>
<div id="heat"></div>
<div id="stream"></div>
<div style="margin-top:.8rem">
  <button onclick="inject('kind=flip&block=2')">flip a bit in block 2</button>
  <button onclick="inject('kind=storm&block=0')">storm block 0</button>
  <button onclick="inject('kind=crash&replica=1')">crash replica 1</button>
</div>
<div id="log"></div>
<script>
const stream = document.getElementById('stream');
const log = document.getElementById('log');
const heatEl = document.getElementById('heat');
const heat = new Array(32).fill(0);
for (let i = 0; i < 32; i++) { const d = document.createElement('div'); d.title = 'block ' + i; heatEl.appendChild(d); }
function renderHeat() {
  for (let i = 0; i < 32; i++) {
    const h = heat[i];
    const a = h === 0 ? 0 : Math.min(1, 0.25 + Math.log2(1 + h) / 8);
    heatEl.children[i].style.background = h === 0 ? '#1e2030' : 'rgba(243,139,168,' + a + ')';
    heatEl.children[i].textContent = h > 0 ? h : '';
  }
}
const replicas = {};
function renderReplicas() {
  document.getElementById('replicas').innerHTML = Object.entries(replicas)
    .map(([r, s]) => '<span class="' + s + '">replica ' + r + ': ' + s + '</span>').join('');
}
function append(el) { stream.appendChild(el); stream.scrollTop = stream.scrollHeight; }
function mark(cls, text) { const s = document.createElement('span'); s.className = 'mark ' + cls; s.textContent = text; append(s); }
const es = new EventSource('/events');
es.addEventListener('token', e => {
  const t = JSON.parse(e.data);
  const s = document.createElement('span');
  s.className = 'tok ' + t.verdict;
  s.title = 'req ' + t.id + ' step ' + t.step + ' verdict ' + t.verdict;
  s.textContent = t.token;
  append(s);
  for (const [b, h] of t.block_hits) { heat[Math.min(b, 31)] += h; }
  if (t.block_hits.length) renderHeat();
});
es.addEventListener('rollback', e => {
  const d = JSON.parse(e.data);
  mark('rollback', '↩ rollback s' + d.step);
  for (const [b, h] of d.block_hits) { heat[Math.min(b, 31)] += h; }
  if (d.block_hits.length) renderHeat();
});
es.addEventListener('repair', e => { const d = JSON.parse(e.data); mark('repair', '⚒ repair ' + d.positions); });
es.addEventListener('evicted', e => { const d = JSON.parse(e.data); mark('evicted', '✕ evicted ' + d.id); });
es.addEventListener('completed', e => { const d = JSON.parse(e.data); mark('completed', '✓ ' + d.id + (d.storms ? ' (' + d.storms + ' storms)' : '')); });
es.addEventListener('inject', e => { const d = JSON.parse(e.data); mark('inject', '⚡ ' + d.what); });
es.addEventListener('health', e => { const d = JSON.parse(e.data); replicas[d.replica] = d.state; renderReplicas(); });
es.addEventListener('admitted', e => { const d = JSON.parse(e.data); log.textContent = 'admitted request ' + d.id; });
es.addEventListener('shutdown', () => { log.textContent = 'server shut down'; es.close(); });
es.onerror = () => { log.textContent = 'stream disconnected'; };
function inject(body) {
  fetch('/inject', { method: 'POST', headers: {'Content-Type': 'application/x-www-form-urlencoded'}, body })
    .then(r => r.json()).then(r => { log.textContent = r.ok ? 'injected: ' + r.what : 'inject failed: ' + r.error; });
}
renderHeat();
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSink;
    use ft2_model::hooks::StepReport;
    use proptest::prelude::*;
    use std::time::Instant;

    /// A writer that accepts at most `max` bytes per `write` call —
    /// exercises `write_all`'s partial-write loop.
    struct ChunkedWriter {
        buf: Vec<u8>,
        max: usize,
    }

    impl Write for ChunkedWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let n = data.len().min(self.max);
            self.buf.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_are_whole_under_partial_writes() {
        let mut w = ChunkedWriter {
            buf: Vec::new(),
            max: 3,
        };
        let ev = ServeEvent::Token {
            replica: 0,
            id: 1,
            step: 2,
            token: 7,
            report: StepReport::default(),
            t_ns: 10,
        };
        write_frame(&mut w, ev.kind(), &ev.to_json()).unwrap();
        write_frame(&mut w, "shutdown", r#"{"ev":"shutdown"}"#).unwrap();
        let text = String::from_utf8(w.buf).unwrap();
        let frames: Vec<&str> = text.split("\n\n").filter(|f| !f.is_empty()).collect();
        assert_eq!(frames.len(), 2, "two complete frames: {text:?}");
        assert!(frames[0].starts_with("event: token\ndata: {"));
        assert!(frames[1].starts_with("event: shutdown\ndata: "));
    }

    fn start_test_server(max_clients: usize) -> (WebServer, EventSink, Receiver<LiveFault>) {
        let (sink, events) = EventSink::channel();
        let (inj_tx, inj_rx) = std::sync::mpsc::channel();
        let server = WebServer::start(
            WebConfig {
                addr: "127.0.0.1:0".to_string(),
                max_clients,
            },
            events,
            inj_tx,
        )
        .expect("bind ephemeral port");
        (server, sink, inj_rx)
    }

    fn http_get(addr: SocketAddr, path: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        s
    }

    fn read_until(s: &mut TcpStream, needle: &str, deadline: Duration) -> String {
        let start = Instant::now();
        let mut text = String::new();
        let mut buf = [0u8; 4096];
        while start.elapsed() < deadline {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    text.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if text.contains(needle) {
                        return text;
                    }
                }
                Err(_) => break,
            }
        }
        text
    }

    #[test]
    fn viewer_page_and_event_stream_serve_end_to_end() {
        let (server, sink, _inj) = start_test_server(4);
        let addr = server.addr();

        let mut page = http_get(addr, "/");
        let html = read_until(&mut page, "</html>", Duration::from_secs(5));
        assert!(html.starts_with("HTTP/1.1 200"));
        assert!(html.contains("EventSource('/events')"));
        assert!(html.contains("kind=flip&block=2"));

        let mut es = http_get(addr, "/events");
        let head = read_until(&mut es, ": connected", Duration::from_secs(5));
        assert!(head.contains("text/event-stream"), "got {head:?}");

        let mut report = StepReport::default();
        report.record_block_hit(2);
        sink.emit(ServeEvent::Token {
            replica: 0,
            id: 42,
            step: 1,
            token: 7,
            report,
            t_ns: 99,
        });
        let frame = read_until(&mut es, "\n\n", Duration::from_secs(5));
        assert!(frame.contains("event: token"), "got {frame:?}");
        assert!(frame.contains(r#""block_hits":[[2,1]]"#), "got {frame:?}");

        let mut missing = http_get(addr, "/nope");
        let resp = read_until(&mut missing, "}", Duration::from_secs(5));
        assert!(resp.starts_with("HTTP/1.1 404"));

        server.shutdown();
        let rest = read_until(&mut es, "event: shutdown", Duration::from_secs(5));
        assert!(rest.contains("event: shutdown"), "got {rest:?}");
    }

    #[test]
    fn inject_endpoint_forwards_typed_faults() {
        let (server, _sink, inj) = start_test_server(4);
        let addr = server.addr();

        let body = "kind=flip&block=2";
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "POST /inject HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let resp = read_until(&mut s, "}", Duration::from_secs(5));
        assert!(resp.starts_with("HTTP/1.1 200"), "got {resp:?}");
        assert!(resp.contains(r#""what":"flip block 2""#));
        assert_eq!(
            inj.recv_timeout(Duration::from_secs(5)).unwrap(),
            LiveFault::Flip { block: 2 }
        );

        // Garbage is a 400, not a silent default — and the refusal is a
        // JSON document the viewer can parse, whatever request bytes the
        // error text quotes.
        for (body, refusal) in [
            ("kind=meteor", r#"{"ok":false,"error":"unknown fault kind \"meteor\""}"#),
            ("kind=flip&block=\"", r#"{"ok":false,"error":"bad block \"\\\"\""}"#),
        ] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(
                s,
                "POST /inject HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let resp = read_until(&mut s, "\"}", Duration::from_secs(5));
            assert!(resp.starts_with("HTTP/1.1 400"), "got {resp:?}");
            let (_, got) = resp.split_once("\r\n\r\n").expect("a head, then a body");
            assert_eq!(got, refusal, "refusal for {body:?}");
        }
        server.shutdown();
    }

    #[test]
    fn oversized_and_malformed_heads_get_a_typed_reply_without_being_drained() {
        let (server, _sink, _inj) = start_test_server(2);
        let addr = server.addr();
        let pad = "a".repeat(1 << 20);
        for (head, status) in [
            (format!("GET /{pad}"), "HTTP/1.1 431"), // newline-free request line
            (format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"), "HTTP/1.1 431"),
            ("nonsense\r\n\r\n".to_string(), "HTTP/1.1 400"),
        ] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
            let start = Instant::now();
            // The server answers after MAX_HEAD bytes and closes, so the
            // tail of the megabyte may fail to send; only the reply counts.
            let _ = s.write_all(head.as_bytes());
            let resp = read_until(&mut s, "}", Duration::from_secs(5));
            assert!(
                resp.starts_with(status),
                "want {status} for a {}-byte head, got {resp:?}",
                head.len()
            );
            assert!(
                start.elapsed() < IO_TIMEOUT,
                "reply took {:?}: the server kept reading past MAX_HEAD",
                start.elapsed()
            );
        }

        let mut page = http_get(addr, "/");
        let html = read_until(&mut page, "</html>", Duration::from_secs(5));
        assert!(html.starts_with("HTTP/1.1 200"), "got {html:?}");
        server.shutdown();
    }

    /// A hostile request head: lossy random text, a cut request line, a
    /// head with no CR or LF at all, one past `MAX_HEAD`, raw non-UTF-8
    /// bytes, or a `POST` whose `Content-Length` is absurd, negative or
    /// past `u64::MAX`.
    fn hostile_head() -> impl Strategy<Value = Vec<u8>> {
        let lengths = ["-1", "18446744073709551616", "99999999999999999999999", "4294967296", "+7", ""];
        let parts = (0u8..6, prop::collection::vec(any::<u8>(), 0..600), 0usize..4096);
        (parts, prop::sample::select(lengths.to_vec())).prop_map(|((kind, bytes, cut), length)| {
            let request = b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n";
            let lossy = String::from_utf8_lossy(&bytes).into_owned();
            match kind {
                0 => lossy.into_bytes(),
                1 => request[..cut % request.len()].to_vec(),
                2 => format!("GET /{}", lossy.replace(['\r', '\n'], " ")).into_bytes(),
                3 => format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD + cut)).into_bytes(),
                4 => [b"GET /".as_slice(), &bytes, &[0xff, 0xfe], b" HTTP/1.1\r\n\r\n"].concat(),
                _ => format!("POST /inject HTTP/1.1\r\nContent-Length: {length}\r\n\r\nkind=flip&block=1")
                    .into_bytes(),
            }
        })
    }

    /// The reply's status line, or `""` when the server closed (or reset)
    /// the connection without one. A silent, open connection fails.
    fn status_line(s: &mut TcpStream) -> String {
        let mut text = Vec::new();
        let mut buf = [0u8; 1024];
        while !text.windows(2).any(|w| w == b"\r\n") {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => text.extend_from_slice(&buf[..n]),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    panic!("no reply and no close: {e}")
                }
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&text).lines().next().unwrap_or_default().to_string()
    }

    /// One server, many hostile heads: each gets a typed status or a clean
    /// close, and the next visitor still gets the viewer page.
    #[test]
    fn hostile_heads_get_a_typed_reply_or_a_clean_close() {
        let (server, _sink, _inj) = start_test_server(2);
        let addr = server.addr();
        let heads = hostile_head();
        let mut gen = test_runner::Gen::for_test("hostile_heads");
        for _ in 0..test_runner::cases() {
            let head = heads.generate(&mut gen);
            let shown = String::from_utf8_lossy(&head[..head.len().min(80)]).into_owned();
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
            // Past MAX_HEAD the server replies and closes mid-send, so the
            // send may fail; shutting the write side ends every other head
            // without waiting out IO_TIMEOUT.
            let _ = s.write_all(&head);
            let _ = s.shutdown(std::net::Shutdown::Write);
            let status = status_line(&mut s);
            let typed = ["200", "400", "404", "431", "503"]
                .iter()
                .any(|code| status.starts_with(&format!("HTTP/1.1 {code} ")));
            assert!(status.is_empty() || typed, "{status:?} for a {}-byte head {shown:?}", head.len());

            let mut page = http_get(addr, "/");
            let html = read_until(&mut page, "</html>", Duration::from_secs(5));
            assert!(html.starts_with("HTTP/1.1 200"), "after {shown:?}: {html:?}");
        }
        server.shutdown();
    }

    #[test]
    fn full_house_rejects_and_disconnect_frees_the_slot() {
        let (server, sink, _inj) = start_test_server(1);
        let addr = server.addr();

        let mut first = http_get(addr, "/events");
        read_until(&mut first, ": connected", Duration::from_secs(5));
        assert_eq!(server.clients(), 1);

        let mut second = http_get(addr, "/events");
        let resp = read_until(&mut second, "}", Duration::from_secs(5));
        assert!(resp.starts_with("HTTP/1.1 503"), "got {resp:?}");

        // Disconnect the first client; event writes must detect the dead
        // socket and free the slot (first write may land in the OS buffer,
        // so emit until the retain sweep catches it).
        drop(first);
        let start = Instant::now();
        while server.clients() > 0 && start.elapsed() < Duration::from_secs(10) {
            sink.emit(ServeEvent::Shutdown);
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.clients(), 0, "dead client slot was not reclaimed");

        let mut third = http_get(addr, "/events");
        let head = read_until(&mut third, ": connected", Duration::from_secs(5));
        assert!(head.contains("HTTP/1.1 200"), "freed slot refused: {head:?}");
        server.shutdown();
    }

    /// Threads alive in this process (the PR 8 leak assertion pattern).
    fn live_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }

    #[test]
    fn a_gone_sink_closes_streams_and_a_gone_injector_refuses() {
        let (server, sink, inj) = start_test_server(2);
        let addr = server.addr();

        // A POST whose injector has hung up is refused, not unwrapped.
        drop(inj);
        let body = "kind=flip&block=2";
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "POST /inject HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let resp = read_until(&mut s, "\"}", Duration::from_secs(5));
        assert!(resp.starts_with("HTTP/1.1 503"), "got {resp:?}");

        // Dropping the last event sender ends the broadcast loop through
        // its disconnect arm, which still closes every stream with the
        // final typed frame — no `shutdown()` call needed.
        let mut es = http_get(addr, "/events");
        read_until(&mut es, ": connected", Duration::from_secs(5));
        drop(sink);
        let tail = read_until(&mut es, "event: shutdown", Duration::from_secs(5));
        assert!(tail.contains("event: shutdown"), "got {tail:?}");
        server.shutdown();
    }

    #[test]
    fn repeated_start_shutdown_cycles_leak_no_threads() {
        let baseline = live_threads();
        for _ in 0..3 {
            let (server, sink, _inj) = start_test_server(2);
            let mut es = http_get(server.addr(), "/events");
            read_until(&mut es, ": connected", Duration::from_secs(5));
            sink.emit(ServeEvent::Shutdown);
            server.shutdown();
            let tail = read_until(&mut es, "event: shutdown", Duration::from_secs(5));
            assert!(
                tail.contains("event: shutdown"),
                "drain must close streams with the final typed event, got {tail:?}"
            );
        }
        // Joined threads can take a beat to vanish from /proc.
        let start = Instant::now();
        while live_threads() > baseline && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            live_threads() <= baseline,
            "thread leak: {} > baseline {}",
            live_threads(),
            baseline
        );
    }
}
