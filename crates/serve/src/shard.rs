//! A thin consistent-hash front for a fleet of `veribug serve` backends.
//!
//! The front owns no localization logic. It reads one request, derives a
//! shard key from the design bytes (the `golden` field for
//! `/v1/localize` and `/v1/explain`, `design` for `/v1/analyze`, the raw
//! body otherwise), walks a consistent-hash ring of backends, and relays
//! the first healthy backend's response verbatim — plus an
//! `x-veribug-shard` header naming who answered. Because the key is the
//! same FNV-1a content hash the design cache uses, every request for a
//! given design lands on the same backend and each backend's LRU (and
//! persistent store) holds a clean partition of the design corpus.
//!
//! Failure handling is layered:
//!
//! 1. a background thread polls every backend's `/healthz` and flips an
//!    `AtomicBool` per backend;
//! 2. a forward that fails mid-flight marks the backend down immediately
//!    and re-routes to the next distinct backend on the ring;
//! 3. when no backend is reachable, the front answers from a private
//!    in-process [`Server`] (`x-veribug-shard: local`), so a dead fleet
//!    degrades to single-node service, not an error storm.
//!
//! Consistent hashing (`replicas` virtual nodes per backend) keeps the
//! partition stable under membership change: losing one backend of N
//! moves only ~1/N of the keyspace.
//!
//! Forwards and health probes go through [`http`]'s client half, and the
//! front's own errors (413, 400, 429, 503) are [`ApiError`] bodies, the
//! same schema a backend answers with.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use store::hash::fnv1a;

use crate::api::ApiError;
use crate::http::{self, ReadError, Request, Response};
use crate::listen;
use crate::server::{Server, ServerConfig, ServerHandle};

static SHARD_REQUESTS: obs::LazyCounter = obs::LazyCounter::new("shard.requests");
static SHARD_FORWARDED: obs::LazyCounter = obs::LazyCounter::new("shard.forwarded");
static SHARD_REROUTED: obs::LazyCounter = obs::LazyCounter::new("shard.rerouted");
static SHARD_LOCAL: obs::LazyCounter = obs::LazyCounter::new("shard.local_fallback");
static SHARD_BACKEND_DOWN: obs::LazyCounter = obs::LazyCounter::new("shard.backend_down");

const CONTENT_JSON: &str = "application/json";

/// Shard-front tunables.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bind address for the front; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend addresses (`host:port` of running `veribug serve`
    /// processes). May be empty, in which case every request is answered
    /// locally.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub replicas: usize,
    /// How often the health thread polls each backend's `/healthz`.
    pub health_interval: Duration,
    /// Connect timeout for forwards and health checks.
    pub connect_timeout: Duration,
    /// Read/write timeout on forwarded requests.
    pub io_timeout: Duration,
    /// Largest accepted request body (beyond this, `413`).
    pub max_body_bytes: usize,
    /// Configuration for the private local-fallback server (its `addr`
    /// is ignored; it always binds an ephemeral localhost port).
    pub local: ServerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            replicas: 64,
            health_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(30),
            max_body_bytes: 4 * 1024 * 1024,
            local: ServerConfig::default(),
        }
    }
}

struct Backend {
    addr: String,
    healthy: AtomicBool,
}

struct ShardState {
    config: ShardConfig,
    backends: Vec<Backend>,
    /// `(point, backend index)` sorted by point: the consistent-hash ring.
    ring: Vec<(u64, usize)>,
    local: ServerHandle,
    shutdown: AtomicBool,
    /// The front listener's bound address, which
    /// [`ShardState::begin_shutdown`] connects to so a blocked `accept`
    /// returns.
    addr: SocketAddr,
    /// Live client connections (bounds the thread-per-connection model).
    inflight: AtomicUsize,
}

impl ShardState {
    /// Stops the accept loop: sets the flag, then wakes the listener.
    /// [`ShardFront::run`] stops the local fallback server on its way out.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        listen::wake(self.addr);
    }
}

/// A bound, not-yet-running shard front.
pub struct ShardFront {
    listener: TcpListener,
    state: Arc<ShardState>,
    local_thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// A cloneable remote control for a running [`ShardFront`].
#[derive(Clone)]
pub struct ShardHandle {
    state: Arc<ShardState>,
}

impl ShardHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Begins shutdown, equivalent to `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }
}

impl ShardFront {
    /// Binds the front and its private local-fallback server, builds the
    /// hash ring, and starts the health-check thread.
    ///
    /// # Errors
    ///
    /// I/O errors from binding either listener, or from the fallback
    /// server's model/store setup.
    pub fn bind(config: ShardConfig) -> std::io::Result<ShardFront> {
        obs::enable();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut local_config = config.local.clone();
        local_config.addr = "127.0.0.1:0".to_owned();
        let local_server = Server::bind(local_config)?;
        let local = local_server.handle();
        let local_thread = std::thread::spawn(move || local_server.run());

        let backends: Vec<Backend> = config
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                healthy: AtomicBool::new(true),
            })
            .collect();
        let mut ring = Vec::with_capacity(backends.len() * config.replicas.max(1));
        for (i, b) in backends.iter().enumerate() {
            for r in 0..config.replicas.max(1) {
                ring.push((fnv1a(format!("{}#{r}", b.addr).as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let state = Arc::new(ShardState {
            config,
            backends,
            ring,
            local,
            shutdown: AtomicBool::new(false),
            addr,
            inflight: AtomicUsize::new(0),
        });
        spawn_health_thread(Arc::clone(&state));
        Ok(ShardFront {
            listener,
            state,
            local_thread,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the front from another thread.
    pub fn handle(&self) -> ShardHandle {
        ShardHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested, then stops the local fallback
    /// server, joins its thread, and returns. Blocks the calling thread.
    ///
    /// The accept loop is the one [`Server::run`] uses: a blocking
    /// `accept` that `/v1/shutdown` or [`ShardHandle::shutdown`] wakes with
    /// a connection to the front's own address. Each accepted connection
    /// gets its own thread, at most 256 at once; beyond that the loop
    /// answers `429` itself.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are contained.
    /// The local fallback server is stopped either way.
    pub fn run(self) -> std::io::Result<()> {
        let result = listen::accept_until(&self.listener, &self.state.shutdown, |stream| {
            let state = Arc::clone(&self.state);
            if state.inflight.fetch_add(1, Ordering::SeqCst) >= 256 {
                state.inflight.fetch_sub(1, Ordering::SeqCst);
                let mut stream = stream;
                let limit =
                    ApiError::new(429, "overloaded", "shard front connection limit reached");
                respond_error(&mut stream, "", limit);
                return;
            }
            std::thread::spawn(move || {
                let mut stream = stream;
                handle_connection(&state, &mut stream);
                state.inflight.fetch_sub(1, Ordering::SeqCst);
            });
        });
        self.state.local.shutdown();
        let _ = self.local_thread.join();
        result
    }
}

fn spawn_health_thread(state: Arc<ShardState>) {
    std::thread::spawn(move || {
        while !state.shutdown.load(Ordering::SeqCst) {
            for b in &state.backends {
                let up = probe_health(&b.addr, &state.config);
                b.healthy.store(up, Ordering::SeqCst);
            }
            std::thread::sleep(state.config.health_interval);
        }
    });
}

/// One `GET /healthz` round-trip; any failure means "down".
fn probe_health(addr: &str, config: &ShardConfig) -> bool {
    connect(addr, config)
        .and_then(|mut stream| {
            http::write_request(&mut stream, "GET", "/healthz", &[("host", addr)], b"")?;
            http::read_response(&mut stream)
        })
        .is_ok_and(|resp| resp.status == 200)
}

fn connect(addr: &str, config: &ShardConfig) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address");
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, config.connect_timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(config.io_timeout))?;
                stream.set_write_timeout(Some(config.io_timeout))?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn handle_connection(state: &ShardState, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let req = match http::read_request(stream, state.config.max_body_bytes) {
        Ok(r) => r,
        // The request never parsed, so there is no client ID to echo.
        Err(e @ ReadError::TooLarge { .. }) => {
            respond_error(
                stream,
                "",
                ApiError::new(413, "body_too_large", e.to_string()),
            );
            return;
        }
        Err(ReadError::BadRequest(detail)) => {
            respond_error(stream, "", ApiError::new(400, "bad_request", detail));
            return;
        }
        Err(ReadError::Io(_)) => return,
    };
    SHARD_REQUESTS.incr();
    let rid = req
        .header("x-veribug-request-id")
        .unwrap_or_default()
        .to_owned();
    let path = req.path.split('?').next().unwrap_or("").to_owned();
    match (req.method.as_str(), path.as_str()) {
        ("GET", "/healthz") | ("GET", "/statusz") => {
            let body = front_status(state);
            let _ =
                http::write_response(stream, 200, CONTENT_JSON, &id_header(&rid), body.as_bytes());
        }
        ("GET", "/metricsz") => {
            obs::flush_thread();
            let body = obs::export::metricsz(&obs::snapshot());
            let _ =
                http::write_response(stream, 200, CONTENT_JSON, &id_header(&rid), body.as_bytes());
        }
        ("POST", "/v1/shutdown") => {
            state.begin_shutdown();
            let _ = http::write_response(
                stream,
                200,
                CONTENT_JSON,
                &id_header(&rid),
                b"{\"status\":\"shutting_down\"}\n",
            );
        }
        _ => route(state, &req, &rid, stream),
    }
}

fn id_header(rid: &str) -> Vec<(&'static str, &str)> {
    if rid.is_empty() {
        Vec::new()
    } else {
        vec![("x-veribug-request-id", rid)]
    }
}

/// Answers with `err`'s body, in the same schema a backend uses, echoing
/// the client's request ID (header and body) when one was sent.
fn respond_error(stream: &mut TcpStream, rid: &str, err: ApiError) {
    let err = if rid.is_empty() {
        err
    } else {
        err.with_request_id(rid)
    };
    let body = err.body();
    let _ = http::write_response(
        stream,
        err.status,
        CONTENT_JSON,
        &id_header(rid),
        body.as_bytes(),
    );
}

/// The front's own `/healthz` / `/statusz` body: role, per-backend
/// health, ring size, and the local fallback address.
fn front_status(state: &ShardState) -> String {
    let mut out = String::from("{\"status\":\"ok\",\"role\":\"shard-front\",\"backends\":[");
    for (i, b) in state.backends.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"addr\":");
        obs::json::write_str(&mut out, &b.addr);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(",\"healthy\":{}}}", b.healthy.load(Ordering::SeqCst)),
        );
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "],\"replicas\":{},\"ring_points\":{},\"local\":",
            state.config.replicas,
            state.ring.len()
        ),
    );
    obs::json::write_str(&mut out, &state.local.addr().to_string());
    out.push_str("}\n");
    out
}

/// Derives the shard key for a request: the design source the backend
/// will cache under the very same hash, so routing and cache partitioning
/// agree. Falls back to hashing the whole body for unknown shapes.
fn shard_key(req: &Request) -> u64 {
    if let Ok(text) = std::str::from_utf8(&req.body) {
        if let Ok(parsed) = obs::json::parse(text) {
            for field in ["golden", "design"] {
                if let Some(src) = parsed.get(field).and_then(|v| v.as_str()) {
                    return fnv1a(src.as_bytes());
                }
            }
        }
    }
    fnv1a(&req.body)
}

/// Backend candidate order for `key`: distinct backends in ring order
/// starting from the first point at or after the key.
fn candidates(state: &ShardState, key: u64) -> Vec<usize> {
    let mut order = Vec::new();
    if state.ring.is_empty() {
        return order;
    }
    let start = state.ring.partition_point(|&(p, _)| p < key) % state.ring.len();
    for off in 0..state.ring.len() {
        let (_, idx) = state.ring[(start + off) % state.ring.len()];
        if !order.contains(&idx) {
            order.push(idx);
            if order.len() == state.backends.len() {
                break;
            }
        }
    }
    order
}

fn route(state: &ShardState, req: &Request, rid: &str, stream: &mut TcpStream) {
    let key = shard_key(req);
    let order = candidates(state, key);
    let mut rerouted = false;
    for (nth, idx) in order.iter().enumerate() {
        let backend = &state.backends[*idx];
        if !backend.healthy.load(Ordering::SeqCst) {
            rerouted = true;
            continue;
        }
        match forward(&backend.addr, req, rid, &state.config) {
            Ok(resp) => {
                SHARD_FORWARDED.incr();
                if nth > 0 || rerouted {
                    SHARD_REROUTED.incr();
                }
                respond_as_shard(stream, &resp, rid, &backend.addr);
                return;
            }
            Err(_) => {
                // Mark down now; the health thread will bring it back.
                backend.healthy.store(false, Ordering::SeqCst);
                SHARD_BACKEND_DOWN.incr();
                rerouted = true;
            }
        }
    }
    // No backend answered: serve from the private local server.
    SHARD_LOCAL.incr();
    match forward(&state.local.addr().to_string(), req, rid, &state.config) {
        Ok(resp) => respond_as_shard(stream, &resp, rid, "local"),
        Err(_) => {
            let err = ApiError::new(
                503,
                "unavailable",
                "no backend reachable and local fallback failed",
            );
            respond_error(stream, rid, err);
        }
    }
}

/// Relays a backend's status, content-type and body byte for byte, plus
/// `x-veribug-shard` naming who answered.
fn respond_as_shard(stream: &mut TcpStream, resp: &Response, rid: &str, shard: &str) {
    let mut headers: Vec<(&str, &str)> = vec![("x-veribug-shard", shard)];
    if !rid.is_empty() {
        headers.push(("x-veribug-request-id", rid));
    }
    let content_type = resp.header("content-type").unwrap_or(CONTENT_JSON);
    let _ = http::write_response(stream, resp.status, content_type, &headers, &resp.body);
}

/// Relays one request to `addr` and reads the backend's whole response
/// (backends answer `Connection: close`).
fn forward(
    addr: &str,
    req: &Request,
    rid: &str,
    config: &ShardConfig,
) -> std::io::Result<Response> {
    let mut stream = connect(addr, config)?;
    let mut headers = vec![("host", addr)];
    if let Some(ct) = req.header("content-type") {
        headers.push(("content-type", ct));
    } else if !req.body.is_empty() {
        headers.push(("content-type", CONTENT_JSON));
    }
    if !rid.is_empty() {
        headers.push(("x-veribug-request-id", rid));
    }
    http::write_request(&mut stream, &req.method, &req.path, &headers, &req.body)?;
    http::read_response(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(backends: &[&str], replicas: usize) -> Arc<ShardState> {
        // Build the pieces `candidates` and `shard_key` need without
        // binding sockets: a ring plus backend slots.
        let backends: Vec<Backend> = backends
            .iter()
            .map(|a| Backend {
                addr: (*a).to_owned(),
                healthy: AtomicBool::new(true),
            })
            .collect();
        let mut ring = Vec::new();
        for (i, b) in backends.iter().enumerate() {
            for r in 0..replicas {
                ring.push((fnv1a(format!("{}#{r}", b.addr).as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let local_cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(local_cfg).unwrap();
        let local = server.handle();
        local.shutdown();
        let _ = std::thread::spawn(move || server.run());
        Arc::new(ShardState {
            config: ShardConfig::default(),
            backends,
            ring,
            local,
            shutdown: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().unwrap(),
            inflight: AtomicUsize::new(0),
        })
    }

    #[test]
    fn candidate_order_is_stable_and_covers_all_backends() {
        let state = state_with(&["a:1", "b:2", "c:3"], 64);
        for key in [0u64, 1, u64::MAX, fnv1a(b"some design")] {
            let order = candidates(&state, key);
            assert_eq!(order.len(), 3, "every backend appears once");
            assert_eq!(order, candidates(&state, key), "deterministic");
        }
    }

    #[test]
    fn ring_distributes_keys_across_backends() {
        let state = state_with(&["a:1", "b:2", "c:3"], 64);
        let mut counts = [0usize; 3];
        for i in 0..600u64 {
            let key = fnv1a(format!("design-{i}").as_bytes());
            counts[candidates(&state, key)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 60, "backend {i} owns a real share, got {c}/600");
        }
    }

    #[test]
    fn losing_a_backend_only_moves_its_own_keys() {
        let full = state_with(&["a:1", "b:2", "c:3"], 64);
        let reduced = state_with(&["a:1", "b:2"], 64);
        for i in 0..300u64 {
            let key = fnv1a(format!("design-{i}").as_bytes());
            let owner = candidates(&full, key)[0];
            if owner != 2 {
                let still = candidates(&reduced, key)[0];
                assert_eq!(
                    full.backends[owner].addr, reduced.backends[still].addr,
                    "keys not owned by the removed backend stay put"
                );
            }
        }
    }

    #[test]
    fn shard_key_prefers_design_fields_over_raw_body() {
        let req = |body: &str| Request {
            method: "POST".to_owned(),
            path: "/v1/localize".to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let a = req("{\"golden\":\"module m; endmodule\",\"buggy\":\"x\",\"target\":\"t\"}");
        let b = req("{\"golden\":\"module m; endmodule\",\"buggy\":\"y\",\"target\":\"t\"}");
        assert_eq!(
            shard_key(&a),
            shard_key(&b),
            "same golden design routes identically regardless of other fields"
        );
        assert_eq!(shard_key(&a), fnv1a(b"module m; endmodule"));
        let raw = req("not json at all");
        assert_eq!(shard_key(&raw), fnv1a(b"not json at all"));
    }
}
