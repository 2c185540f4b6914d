//! TCP transport: the accept loop and per-connection frame pumps.
//!
//! The listener accepts connections on a dedicated thread per connection
//! (connection count is small — clients multiplex many sessions over one
//! connection); each frame's *work* runs on the thread that read it,
//! under one of the pool's `workers` slots, so a frame costs what its
//! work costs and at most `workers` frames execute at once however
//! clients map sessions to connections.
//!
//! Two wire dialects share the port:
//!
//! * frames (the default): 4-byte big-endian length prefix + JSON, as in
//!   [`super::proto`];
//! * plain HTTP `GET`: a 4-byte peek of `"GET "` switches the connection
//!   to a one-shot plaintext metrics response, so
//!   `curl http://host:port/metrics` works with no client tooling.

use super::pool::WorkPool;
use super::proto::{
    is_timeout, read_frame, read_frame_into, write_frame, write_pair, ErrorKind, Frame, ProtoError,
};
use super::state::ServerEngine;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (port `0` picks a free one).
    pub listen: String,
    /// Width of the shared pool: how many frames execute at once.
    pub workers: usize,
    /// Close a connection after this long with no frame activity
    /// (`0` disables the idle timeout). Sessions opened through a
    /// reaped connection survive — they are addressable from any
    /// connection — so reaping idle connections only reclaims threads,
    /// never tenant state.
    pub idle_timeout_ms: u64,
    /// Root directory for the persistent artifact and stitched-code
    /// caches (`--persist-root`). `None` keeps everything in-process.
    pub persist_root: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            listen: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            idle_timeout_ms: 0,
            persist_root: None,
        }
    }
}

/// The read-timeout tick connection threads poll at: how often an idle
/// connection checks the shutdown flag and its idle budget.
const READ_TICK: Duration = Duration::from_millis(200);

/// A running server: listener + pool + engine.
pub struct Server {
    engine: Arc<ServerEngine>,
    pool: Arc<WorkPool>,
    listener: TcpListener,
    idle_timeout_ms: u64,
}

impl Server {
    /// Bind the listener and size the pool.
    ///
    /// # Errors
    /// I/O errors binding the address.
    pub fn bind(options: &ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.listen)?;
        // Nonblocking accept lets the loop poll the shutdown flag.
        listener.set_nonblocking(true)?;
        Ok(Server {
            engine: Arc::new(ServerEngine::with_persist_root(
                options.persist_root.as_ref().map(std::path::PathBuf::from),
            )),
            pool: Arc::new(WorkPool::new(options.workers)),
            listener,
            idle_timeout_ms: options.idle_timeout_ms,
        })
    }

    /// The bound address (useful with port `0`).
    ///
    /// # Errors
    /// I/O errors querying the socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared engine (for in-process inspection in tests).
    pub fn engine(&self) -> Arc<ServerEngine> {
        Arc::clone(&self.engine)
    }

    /// Serve until a `shutdown` request is accepted, then drain
    /// gracefully: the listener stops accepting, every connection
    /// handler finishes its in-flight frame (the 200 ms read tick means
    /// even idle handlers notice within one tick) and is joined (the pool
    /// owns no thread of its own). Persistent-cache writes need no extra
    /// flushing — every store is synchronous (temp file + fsync +
    /// rename) inside the call that produced it, so joining the handlers
    /// is the flush. Blocks the calling thread.
    pub fn serve(self) {
        let mut handlers = Vec::new();
        loop {
            if self.engine.shutdown_requested() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    let engine = Arc::clone(&self.engine);
                    let pool = Arc::clone(&self.pool);
                    let idle_ms = self.idle_timeout_ms;
                    if let Ok(h) = std::thread::Builder::new()
                        .name("dynccd-conn".to_string())
                        .spawn(move || handle_connection(stream, &engine, &pool, idle_ms))
                    {
                        handlers.push(h);
                    }
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// Pump frames on one connection until EOF, a framing error, the idle
/// timeout, or server shutdown. A framing error (oversized prefix,
/// truncation, mid-frame stall) is answered when the stream is still
/// writable, then the connection drops — framing is unrecoverable — but
/// sessions opened through it survive and stay addressable from other
/// connections; the same holds for an idle-reaped connection.
///
/// Reads tick at [`READ_TICK`], so a quiet connection re-checks the
/// shutdown flag (graceful drain) and its idle budget a few times a
/// second without burning CPU — from its first byte on: a client that
/// connects and sends nothing ticks in the dialect peek exactly as it
/// would between frames. An in-flight frame is always finished and
/// answered before either exit path is taken.
fn handle_connection(
    mut stream: TcpStream,
    engine: &ServerEngine,
    pool: &WorkPool,
    idle_timeout_ms: u64,
) {
    // A response is one small segment the client is waiting for: never
    // hold it back for coalescing.
    let _ = stream.set_nodelay(true);
    // Best-effort: without the tick the loops cannot poll shutdown or
    // idleness, but blocking reads still serve frames correctly.
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut idle = Duration::ZERO;
    // One quiet tick: whether it spent the idle budget.
    let reaped = |idle: &mut Duration| {
        *idle += READ_TICK;
        idle_timeout_ms > 0 && *idle >= Duration::from_millis(idle_timeout_ms)
    };
    // Peek the dialect: an HTTP GET gets the one-shot metrics document.
    let mut head = [0u8; 4];
    loop {
        if engine.shutdown_requested() {
            return;
        }
        match stream.peek(&mut head) {
            Ok(4) if &head == b"GET " => return serve_http_metrics(&mut stream, engine, pool),
            Err(e) if is_timeout(&e) => {
                if reaped(&mut idle) {
                    return;
                }
            }
            Ok(_) | Err(_) => break,
        }
    }
    let mut request = Vec::new();
    loop {
        if engine.shutdown_requested() {
            return;
        }
        match read_frame_into(&mut stream, &mut request) {
            Ok(Frame::Eof) => return,
            Ok(Frame::Idle) => {
                if reaped(&mut idle) {
                    return; // quiet past the configured budget
                }
            }
            Ok(Frame::Body(body)) => {
                idle = Duration::ZERO;
                let response = pool.run(|| engine.handle(body));
                if write_frame(&mut stream, response.as_bytes()).is_err() {
                    return; // client went away mid-response
                }
            }
            Err(e) => {
                let _ = write_frame(&mut stream, e.to_json().as_bytes());
                return;
            }
        }
    }
}

fn serve_http_metrics(stream: &mut TcpStream, engine: &ServerEngine, pool: &WorkPool) {
    // Drain the request head (best effort; we answer any GET with the
    // metrics document).
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let body = engine.metrics_text(Some(pool.stats()));
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = write_pair(stream, head.as_bytes(), body.as_bytes());
}

/// A minimal frame client for `dyncc --connect` and the test suites:
/// one request frame out, one response frame back.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a `dynccd` listener.
    ///
    /// # Errors
    /// I/O errors connecting.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Send one request body and read the response body.
    ///
    /// # Errors
    /// [`ProtoError`] on framing failures or a server that hung up.
    pub fn request(&mut self, body: &str) -> Result<String, ProtoError> {
        write_frame(&mut self.stream, body.as_bytes())?;
        loop {
            match read_frame(&mut self.stream)? {
                Frame::Body(b) => {
                    return String::from_utf8(b)
                        .map_err(|_| ProtoError::new(ErrorKind::BadJson, "response is not UTF-8"))
                }
                // Only possible if the caller configured a read timeout
                // on the stream; keep waiting for the response.
                Frame::Idle => {}
                Frame::Eof => {
                    return Err(ProtoError::new(
                        ErrorKind::BadRequest,
                        "server closed the connection before responding",
                    ))
                }
            }
        }
    }

    /// The underlying stream (for tests that need to misbehave:
    /// truncated frames, abrupt disconnects).
    #[doc(hidden)]
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
