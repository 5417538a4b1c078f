//! The accept loop, router, and request lifecycle.
//!
//! One thread accepts connections and hands each to the bounded
//! [`Pool`]; backpressure (queue full) is answered with `429` on a
//! short-lived thread that reads the request first, at most
//! [`MAX_REJECTING`] at once; past that cap the connection is closed
//! unanswered. Workers read the request, route it, and write exactly one
//! response. Every request runs under a `serve.request` span with
//! per-stage child spans (`stimgen`, `simulate`, `buggy_pass`, `explain`
//! come from the localize pipeline itself; a memoized golden reference
//! skips the first two, and a memoized explainer state skips building the
//! explainer and every model evaluation it has already made), a panic
//! inside a handler answers `500` without
//! killing the worker, and a fired deadline answers `504`.
//!
//! Every request carries a **request ID** — honored from an
//! `x-veribug-request-id` header when the client sends a well-formed one,
//! minted otherwise — echoed on every response (error paths included) and
//! attached to structured error bodies. The whole request runs under a
//! live trace ([`obs::live`]): its span tree and counter deltas, including
//! work fanned out through `veribug-par`, are attributed to the ID and
//! tail-sampled into the `/tracez` ring, and its latency/status/stage
//! breakdown feeds the rolling window `/statusz` serves.
//!
//! A server configured with [`ServerConfig::backends`] is a **shard
//! front**: the design routes (`POST /v1/localize`, `/v1/explain`,
//! `/v1/analyze`) go to a backend on a consistent-hash ring under a
//! `shard.forward` span, with the front's request ID, and come back
//! relayed byte for byte. When every backend fails, the front runs the
//! request through its own handlers and tags the response
//! `x-veribug-shard: local`. Every other route, and every admission
//! error, is the plain server's.
//!
//! The accept loop blocks in `accept`, so a connection reaches the pool
//! as soon as it is accepted. Shutdown is cooperative:
//! `POST /v1/shutdown` (or [`ServerHandle::shutdown`]) sets a flag and
//! wakes the blocked `accept` with a connection to the server's own
//! address; the loop drops that connection and stops accepting, the pool
//! drains queued and in-flight work, and [`Server::run`] returns.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sim::CancelToken;
use store::Store;
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::{ExplainerState, GoldenKey, GoldenRef, LocalizeReport, VeriBugError};
use verilog::Module;

use obs::live;

use crate::api::{self, ApiError};
use crate::cache::{BuildError, DesignCache};
use crate::http::{self, ReadError, Request};
use crate::listen;
use crate::pool::{Pool, Slot};
use crate::shard::{self, Ring, Routed};
use crate::telemetry;

static REQUESTS: obs::LazyCounter = obs::LazyCounter::new("serve.requests");
static REJECTED_FULL: obs::LazyCounter = obs::LazyCounter::new("serve.rejected.queue_full");
static REJECTED_DROPPED: obs::LazyCounter = obs::LazyCounter::new("serve.rejected.dropped");
static RESP_2XX: obs::LazyCounter = obs::LazyCounter::new("serve.responses.2xx");
static RESP_4XX: obs::LazyCounter = obs::LazyCounter::new("serve.responses.4xx");
static RESP_5XX: obs::LazyCounter = obs::LazyCounter::new("serve.responses.5xx");
static PANICS: obs::LazyCounter = obs::LazyCounter::new("serve.panics");
static DEADLINES: obs::LazyCounter = obs::LazyCounter::new("serve.deadline_exceeded");
static REQUEST_SECONDS: obs::LazyHistogram =
    obs::LazyHistogram::new_micros("serve.request.seconds");

const CONTENT_JSON: &str = "application/json";

/// Most `429` answers in flight at once. Each one is a thread that reads
/// the request (up to 2 s) before answering; past this many, the accept
/// loop closes a rejected connection unanswered.
pub const MAX_REJECTING: usize = 64;

/// Server tunables. [`Default`] is suitable for localhost use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads. Defaults to [`par::max_threads`], so
    /// `VERIBUG_THREADS` sizes the pool. On a shard front this is one
    /// share: the pool gets `workers × (backends + 1)` threads, and at most
    /// `workers` requests wait on any one backend or run locally.
    pub workers: usize,
    /// Pending-request queue bound (beyond this, `429`). On a shard front
    /// it scales with the pool, to `queue_capacity × (backends + 1)`.
    pub queue_capacity: usize,
    /// Compiled designs kept in the LRU cache.
    pub cache_capacity: usize,
    /// Default per-request deadline (a request's `options.deadline_ms`
    /// overrides it).
    pub deadline: Duration,
    /// Largest accepted request body (beyond this, `413`).
    pub max_body_bytes: usize,
    /// Optional path to a trained model (`veribug train --out ...`).
    /// Without one, an untrained deterministic model is used.
    pub model_path: Option<String>,
    /// Live request telemetry (trace IDs into the `/tracez` ring, rolling
    /// `/statusz` windows). Always on in `veribug serve`; exists as a
    /// knob so `serve_bench` can measure its overhead A/B.
    pub telemetry: bool,
    /// Emit one structured JSON line per request to stderr
    /// (`--access-log`).
    pub access_log: bool,
    /// Enable `GET /debugz/panic` (a handler that panics on purpose), so
    /// tests and operators can verify 500-path behavior end to end.
    pub debug_endpoints: bool,
    /// Optional root of a persistent [`store::Store`]. When set, the
    /// design cache writes successful builds through to it and preloads
    /// from it at bind, so a restarted server answers its first request
    /// warm. The byte budget comes from `VERIBUG_STORE_BUDGET` (default
    /// [`store::DEFAULT_BUDGET`]). `veribug serve` resolves `--store`,
    /// then the `VERIBUG_STORE` environment variable, into this field.
    pub store_path: Option<String>,
    /// Backend addresses (`host:port` of running `veribug serve`
    /// processes). When non-empty the server is a shard front: it routes
    /// the design endpoints across these backends by consistent hash and
    /// answers them itself only when no backend does. A forward waits at
    /// most the request's deadline plus a short grace for each read or
    /// write.
    pub backends: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = par::max_threads();
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_capacity: workers.saturating_mul(4).max(4),
            cache_capacity: 64,
            deadline: Duration::from_secs(10),
            max_body_bytes: 4 * 1024 * 1024,
            model_path: None,
            telemetry: true,
            access_log: false,
            debug_endpoints: false,
            store_path: None,
            backends: Vec::new(),
        }
    }
}

pub(crate) struct ServerState {
    config: ServerConfig,
    model: VeriBugModel,
    /// Content hash of the loaded weights (computed once at bind), so
    /// `/healthz` and `/statusz` can say which model this box serves.
    weights_hash: String,
    cache: DesignCache,
    /// The persistent artifact store behind the cache, when configured.
    store: Option<Arc<Store>>,
    /// Designs compiled into the cache from the store at bind.
    preloaded: usize,
    /// The backends' hash ring, when this server is a shard front.
    ring: Option<Ring>,
    pool: Arc<Pool>,
    /// Live `429` threads, capped at [`MAX_REJECTING`].
    rejecting: Arc<AtomicUsize>,
    shutdown: AtomicBool,
    /// The listener's bound address, which [`ServerState::begin_shutdown`]
    /// connects to so a blocked `accept` returns.
    addr: SocketAddr,
    started: Instant,
}

impl ServerState {
    /// Stops the accept loop: sets the flag, then wakes the listener.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        listen::wake(self.addr);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Begins graceful shutdown, equivalent to `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }
}

impl Server {
    /// Binds the listener, loads the model (if configured), spawns the
    /// worker pool, and enables obs collection (the service's `/metricsz`
    /// is only useful with metrics on). With backends configured it also
    /// builds the hash ring and sizes the pool and queue to one share per
    /// backend plus one (see [`ServerConfig::workers`]).
    ///
    /// # Errors
    ///
    /// I/O errors from binding; a model that fails to load surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn bind(mut config: ServerConfig) -> std::io::Result<Server> {
        obs::enable();
        let model = match &config.model_path {
            Some(path) => veribug::persist::load(path).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("cannot load model `{path}`: {e}"),
                )
            })?,
            None => VeriBugModel::new(ModelConfig::default()),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let ring = (!config.backends.is_empty()).then(|| {
            let ring = Ring::new(&config.backends, config.workers);
            let shares = config.backends.len() + 1;
            config.workers = config.workers.saturating_mul(shares);
            config.queue_capacity = config.queue_capacity.saturating_mul(shares);
            ring
        });
        let pool = Arc::new(Pool::new(config.workers, config.queue_capacity));
        let weights_hash = veribug::persist::content_hash_hex(&model);
        let store = match &config.store_path {
            Some(path) => Some(Arc::new(Store::open(path, store::env_budget()?)?)),
            None => None,
        };
        let cache = match &store {
            Some(s) => DesignCache::with_store(config.cache_capacity, Arc::clone(s)),
            None => DesignCache::new(config.cache_capacity),
        };
        // Compile persisted designs back into the LRU before accepting
        // traffic: the restart is warm — parse → levelize → compile for
        // returning designs happens here, off the request path. The flush
        // merges the preload's `store.*` counter shard out of this thread's
        // TLS so `/metricsz` sees the hits even before any request lands.
        let preloaded = cache.preload();
        obs::flush_thread();
        let state = Arc::new(ServerState {
            cache,
            store,
            preloaded,
            ring,
            model,
            weights_hash,
            pool,
            rejecting: Arc::default(),
            config,
            shutdown: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested, then drains queued and
    /// in-flight requests and returns. Blocks the calling thread. A shard
    /// front polls its backends' health on a thread that lives exactly as
    /// long as the accept loop.
    ///
    /// # Errors
    ///
    /// Fatal listener errors, or a health thread that cannot start;
    /// per-connection errors are handled in-line.
    pub fn run(self) -> std::io::Result<()> {
        let health = match self.state.ring {
            Some(_) => Some(spawn_health_thread(Arc::clone(&self.state))?),
            None => None,
        };
        let accepted = listen::accept_until(&self.listener, &self.state.shutdown, |stream| {
            // The accept loop is the only producer, so this
            // check-then-submit cannot race another submit; workers only
            // shrink the queue in between.
            if self.state.pool.is_full() {
                reject(&self.state, stream);
                return;
            }
            let state = Arc::clone(&self.state);
            let _ = self.state.pool.submit(move || {
                handle_connection(&state, stream);
                obs::flush_thread();
            });
        });
        if let Some(health) = health {
            // Also stops it when the accept loop failed.
            self.state.shutdown.store(true, Ordering::SeqCst);
            health.thread().unpark();
            let _ = health.join();
        }
        accepted?;
        obs::progress!("serve: draining in-flight requests");
        self.state.pool.shutdown();
        obs::flush_thread();
        // Renders only under `--obs`, and at most once per process: the
        // CLI's own at-exit `report()` is a no-op after this.
        let _ = obs::report();
        obs::progress!("serve: drained, listener closed");
        Ok(())
    }
}

/// Polls the backends' health every [`shard::HEALTH_INTERVAL`] until the
/// shutdown flag is set; [`Server::run`] unparks it then, so it need not
/// sleep out the interval.
fn spawn_health_thread(state: Arc<ServerState>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("veribug-serve-health".to_owned())
        .spawn(move || {
            let Some(ring) = &state.ring else { return };
            while !state.shutdown.load(Ordering::SeqCst) {
                ring.check_health();
                std::thread::park_timeout(shard::HEALTH_INTERVAL);
            }
        })
}

/// Answers a connection the pool never saw (backpressure rejections) on a
/// short-lived throwaway thread: the request is read before the error is
/// written, so the client never races a connection reset while still
/// sending — and the accept loop never blocks on a slow client's socket.
/// Reading the request also recovers the client's request ID (if any), so
/// even a `429` is echoed and lands in the `/tracez` ring. At most
/// [`MAX_REJECTING`] such threads live at once; past that the connection
/// is closed unanswered and counted in `serve.rejected.dropped`.
fn reject(state: &Arc<ServerState>, stream: TcpStream) {
    let Some(slot) = Slot::take(&state.rejecting, MAX_REJECTING) else {
        REJECTED_DROPPED.incr();
        obs::flush_thread();
        return;
    };
    REJECTED_FULL.incr();
    track_status(429);
    obs::flush_thread();
    let shared = Arc::clone(state);
    let _ = std::thread::Builder::new()
        .name("veribug-serve-reject".to_owned())
        .spawn(move || {
            let _slot = slot;
            let started = Instant::now();
            let mut stream = stream;
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let (rid, method, label) =
                match http::read_request(&mut stream, shared.config.max_body_bytes) {
                    Ok(req) => (request_id(&req), req.method.clone(), route_label(&req)),
                    Err(_) => (live::mint_id(), "-".to_owned(), "other"),
                };
            Reply::new(&mut stream, &rid).error(
                &[],
                ApiError::new(429, "queue_full", "request queue is full"),
            );
            if shared.config.telemetry {
                live::record_untraced(
                    &rid,
                    &method,
                    label,
                    429,
                    started.elapsed().as_micros() as u64,
                );
            }
            if shared.config.access_log {
                access_log_line(&rid, &method, label, 429, started.elapsed(), false);
            }
        });
}

fn track_status(status: u16) {
    match status / 100 {
        2 => RESP_2XX.incr(),
        4 => RESP_4XX.incr(),
        _ => RESP_5XX.incr(),
    }
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    REQUESTS.incr();
    let req = match http::read_request(&mut stream, state.config.max_body_bytes) {
        Ok(r) => r,
        Err(ReadError::TooLarge { limit, declared }) => {
            // The request never parsed, so no client ID is available; mint
            // one anyway so even this response is correlatable.
            let rid = live::mint_id();
            let err = ApiError::new(
                413,
                "body_too_large",
                format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            );
            Reply::new(&mut stream, &rid).error(&[], err);
            finish_request(state, &rid, "-", "other", 413, started, None);
            return;
        }
        Err(ReadError::BadRequest(detail)) => {
            let rid = live::mint_id();
            Reply::new(&mut stream, &rid).error(&[], ApiError::new(400, "bad_request", detail));
            finish_request(state, &rid, "-", "other", 400, started, None);
            return;
        }
        Err(ReadError::Io(_)) => return,
    };
    let rid = request_id(&req);
    let label = route_label(&req);
    // Introspection routes say nothing about the pipeline: no span tree,
    // so a slow `/tracez` cannot take the slow-set place of what it lists.
    let traced = !matches!(
        label,
        "/healthz" | "/metricsz" | "/statusz" | "/tracez" | "/tracez/export"
    );
    let scope = (state.config.telemetry && traced).then(|| live::begin(&rid, &req.method, label));
    let status = {
        // The root span must drop before `scope.finish` so it lands in the
        // trace's span tree.
        let _span = traced.then(|| obs::span("serve.request"));
        let mut reply = Reply::new(&mut stream, &rid);
        match catch_unwind(AssertUnwindSafe(|| route(state, &req, &mut reply))) {
            Ok(status) => status,
            Err(_) => {
                PANICS.incr();
                reply.error(&[], ApiError::new(500, "panic", "request handler panicked"))
            }
        }
    };
    let elapsed = finish_request(state, &rid, &req.method, label, status, started, scope);
    obs::progress!(
        "serve: {} {} -> {} in {:.1}ms [{}]",
        req.method,
        req.path,
        status,
        elapsed.as_secs_f64() * 1e3,
        rid
    );
}

/// Books a finished request into counters, the ring and the access log; one
/// without a trace `scope` enters the ring as a span-less digest.
fn finish_request(
    state: &ServerState,
    rid: &str,
    method: &str,
    label: &str,
    status: u16,
    started: Instant,
    scope: Option<live::TraceScope>,
) -> Duration {
    let traced = scope.is_some();
    let sampled = scope
        .and_then(|s| s.finish(status))
        .is_some_and(|t| t.sampled());
    track_status(status);
    let elapsed = started.elapsed();
    REQUEST_SECONDS.record_f64(elapsed.as_secs_f64());
    if state.config.telemetry && !traced {
        live::record_untraced(rid, method, label, status, elapsed.as_micros() as u64);
    }
    if state.config.access_log {
        access_log_line(rid, method, label, status, elapsed, sampled);
    }
    elapsed
}

/// The request's ID: the client's `x-veribug-request-id` when well-formed,
/// a freshly minted one otherwise.
fn request_id(req: &Request) -> String {
    req.header("x-veribug-request-id")
        .filter(|v| live::valid_id(v))
        .map(str::to_owned)
        .unwrap_or_else(live::mint_id)
}

/// Maps a request path onto a bounded label for the rolling window: known
/// routes verbatim, anything else `"other"`, so hostile or misspelled
/// paths cannot blow up per-endpoint cardinality.
fn route_label(req: &Request) -> &'static str {
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match path {
        "/v1/localize" => "/v1/localize",
        "/v1/explain" => "/v1/explain",
        "/v1/analyze" => "/v1/analyze",
        "/v1/shutdown" => "/v1/shutdown",
        "/healthz" => "/healthz",
        "/metricsz" => "/metricsz",
        "/statusz" => "/statusz",
        "/tracez" => "/tracez",
        "/tracez/export" => "/tracez/export",
        "/debugz/panic" => "/debugz/panic",
        _ => "other",
    }
}

/// One structured access-log line per request, on stderr.
fn access_log_line(
    rid: &str,
    method: &str,
    path: &str,
    status: u16,
    elapsed: Duration,
    sampled: bool,
) {
    use std::fmt::Write as _;
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut line = format!("{{\"ts_ms\":{ts_ms},\"id\":");
    obs::json::write_str(&mut line, rid);
    line.push_str(",\"method\":");
    obs::json::write_str(&mut line, method);
    line.push_str(",\"path\":");
    obs::json::write_str(&mut line, path);
    let _ = write!(
        line,
        ",\"status\":{status},\"dur_us\":{},\"sampled\":{sampled}}}",
        elapsed.as_micros()
    );
    eprintln!("{line}");
}

/// Dispatches one request, writes one response, returns the status. A
/// shard front first offers the design routes to its backends and handles
/// them here only when none answers and its local share has room.
fn route(state: &ServerState, req: &Request, reply: &mut Reply) -> u16 {
    let path = req.path.split('?').next().unwrap_or(&req.path);
    if let Some(ring) = &state.ring {
        if req.method == "POST" && matches!(path, "/v1/localize" | "/v1/explain" | "/v1/analyze") {
            let routed = {
                let _span = obs::span("shard.forward");
                ring.relay(req, reply.rid, reply.stream, state.config.deadline)
            };
            match routed {
                Routed::Relayed(status) => return status,
                Routed::Local(slot) => reply.local = Some(slot),
                Routed::Busy => {
                    REJECTED_FULL.incr();
                    let err = ApiError::new(429, "queue_full", "request queue is full");
                    return reply.error(&[], err);
                }
            }
        }
    }
    match (req.method.as_str(), path) {
        ("POST", "/v1/localize") => handle_localize(state, &req.body, reply, render_suspects),
        ("POST", "/v1/explain") => handle_localize(state, &req.body, reply, render_attributions),
        ("POST", "/v1/analyze") => handle_analyze(&req.body, reply),
        ("POST", "/v1/shutdown") => {
            state.begin_shutdown();
            reply.send(200, &[], "{\"status\":\"draining\"}\n")
        }
        ("GET", "/healthz") => handle_healthz(state, reply),
        ("GET", "/metricsz") => {
            obs::flush_thread();
            let body = obs::export::metricsz(&obs::snapshot());
            reply.send(200, &[], &body)
        }
        ("GET", "/statusz") => handle_statusz(state, reply),
        ("GET", "/tracez") => handle_tracez(req, reply),
        ("GET", "/tracez/export") => handle_tracez_export(req, reply),
        ("GET", "/debugz/panic") if state.config.debug_endpoints => {
            panic!("debug panic endpoint")
        }
        (
            "GET" | "POST",
            "/v1/localize" | "/v1/explain" | "/v1/analyze" | "/v1/shutdown" | "/healthz"
            | "/metricsz" | "/statusz" | "/tracez" | "/tracez/export",
        ) => {
            let err = ApiError::new(
                405,
                "method_not_allowed",
                format!("{} is not supported on {path}", req.method),
            );
            reply.error(&[], err)
        }
        _ => reply.error(
            &[],
            ApiError::new(404, "not_found", format!("no route for {path}")),
        ),
    }
}

/// The one response a connection gets: every response carries the request
/// ID, and one a shard front answers itself for a design route also carries
/// `x-veribug-shard: local`.
struct Reply<'a> {
    stream: &'a mut TcpStream,
    rid: &'a str,
    /// The local-fallback slot a shard front holds while it answers a
    /// design route itself.
    local: Option<Slot>,
}

impl<'a> Reply<'a> {
    fn new(stream: &'a mut TcpStream, rid: &'a str) -> Reply<'a> {
        Reply {
            stream,
            rid,
            local: None,
        }
    }

    /// Writes the response and returns its status.
    fn write(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &str,
    ) -> u16 {
        let mut headers: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 2);
        headers.push(("x-veribug-request-id", self.rid));
        if self.local.is_some() {
            headers.push(("x-veribug-shard", "local"));
        }
        headers.extend_from_slice(extra);
        let _ = http::write_response(self.stream, status, content_type, &headers, body.as_bytes());
        status
    }

    /// A JSON response.
    fn send(&mut self, status: u16, extra: &[(&str, &str)], body: &str) -> u16 {
        self.write(status, CONTENT_JSON, extra, body)
    }

    /// `err`'s body, tagged with the request ID.
    fn error(&mut self, extra: &[(&str, &str)], err: ApiError) -> u16 {
        let err = err.with_request_id(self.rid);
        self.send(err.status, extra, &err.body())
    }
}

fn build_error(which: &'static str, e: BuildError) -> ApiError {
    match e {
        BuildError::Parse(p) => ApiError::new(
            422,
            "verilog_parse",
            format!("{which} design does not parse: {p}"),
        )
        .at(p.span()),
        BuildError::Elab(s) => ApiError::new(
            422,
            "elaboration",
            format!("{which} design does not elaborate: {s}"),
        ),
    }
}

/// `POST /v1/localize` and `POST /v1/explain`: one localize pipeline,
/// answered by `render` — the suspect list
/// ([`api::render_report`]) or per-operand attention attributions
/// ([`veribug::AttributionReport::to_json`], the exact string
/// `veribug explain --attention --json` prints, so CLI and service
/// attributions are identical by construction).
///
/// The golden reference comes from the golden design's cache entry
/// ([`DesignCache::golden_ref`]) and the explainer state from the buggy
/// design's ([`DesignCache::explainer`]); their status travels in the
/// `x-veribug-golden-ref` and `x-veribug-explainer` headers, like
/// design-cache status in `x-veribug-cache`, so bodies stay
/// byte-identical hit or miss.
fn handle_localize(
    state: &ServerState,
    body: &[u8],
    reply: &mut Reply,
    render: fn(&VeriBugModel, &Module, &LocalizeReport) -> String,
) -> u16 {
    let parsed = match api::parse_localize(body) {
        Ok(p) => p,
        Err(e) => return reply.error(&[], e),
    };
    let (mut golden, mut buggy) = {
        let _span = obs::span("serve.cache");
        let golden = match state.cache.get(&parsed.golden) {
            Ok(d) => d,
            Err(e) => return reply.error(&[], build_error("golden", e)),
        };
        let buggy = match state.cache.get(&parsed.buggy) {
            Ok(d) => d,
            Err(e) => return reply.error(&[], build_error("buggy", e)),
        };
        (golden, buggy)
    };
    let deadline = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(state.config.deadline);
    let cancel = CancelToken::with_deadline(Instant::now() + deadline);
    let key = GoldenKey::new(&parsed.target, &parsed.opts);
    let reference = state.cache.golden_ref(&parsed.golden, &key, || {
        GoldenRef::build(&mut golden.sim, &parsed.target, &parsed.opts, &cancel)
    });
    let memo_note = match &reference {
        Ok((_, true)) => "hit",
        _ => "miss",
    };
    let mut explainer_hit = false;
    // `run` holds `buggy.sim` mutably; `build` and `render` read this handle.
    let netlist = Arc::clone(buggy.sim.netlist());
    let result = reference.and_then(|(reference, _)| {
        let build = || {
            let _span = obs::span("explain");
            ExplainerState::new(&netlist, &parsed.target)
        };
        let (result, hit) = state.cache.explainer(
            &parsed.buggy,
            &parsed.target,
            &state.weights_hash,
            build,
            |explainer| {
                veribug::localize::run_with_sims(
                    &state.model,
                    &reference,
                    &mut buggy.sim,
                    explainer,
                    &parsed.target,
                    &parsed.opts,
                    &cancel,
                )
            },
        );
        explainer_hit = hit;
        result
    });
    // Cache status travels in headers, never the body, so identical
    // requests stay byte-identical cold or warm.
    let cache_note = format!(
        "golden={},buggy={}",
        if golden.hit { "hit" } else { "miss" },
        if buggy.hit { "hit" } else { "miss" }
    );
    let extra: &[(&str, &str)] = &[
        ("x-veribug-cache", &cache_note),
        ("x-veribug-golden-ref", memo_note),
        (
            "x-veribug-explainer",
            if explainer_hit { "hit" } else { "miss" },
        ),
    ];
    match result {
        Ok(report) => reply.send(200, extra, &render(&state.model, &netlist.module, &report)),
        Err(VeriBugError::Sim(sim::SimError::Cancelled { at_cycle })) => {
            DEADLINES.incr();
            let e = ApiError::new(
                504,
                "deadline",
                format!(
                    "deadline of {}ms exceeded (cancelled at cycle {at_cycle}); partial work discarded",
                    deadline.as_millis()
                ),
            );
            reply.error(extra, e)
        }
        Err(VeriBugError::UnknownTarget { target }) => {
            let e = ApiError::new(
                422,
                "unknown_target",
                format!("target `{target}` is not a signal of the golden design"),
            );
            reply.error(extra, e)
        }
        Err(other) => reply.error(extra, ApiError::new(422, "localize", other.to_string())),
    }
}

/// The `/v1/localize` 200 body.
fn render_suspects(_: &VeriBugModel, _: &Module, report: &LocalizeReport) -> String {
    api::render_report(report)
}

/// The `/v1/explain` 200 body.
fn render_attributions(model: &VeriBugModel, buggy: &Module, report: &LocalizeReport) -> String {
    veribug::AttributionReport::from_localize(model, buggy, report).to_json()
}

fn handle_analyze(body: &[u8], reply: &mut Reply) -> u16 {
    let parsed = match api::parse_analyze(body) {
        Ok(p) => p,
        Err(e) => return reply.error(&[], e),
    };
    let module = match verilog::parse(&parsed.design) {
        Ok(m) => m.top().clone(),
        Err(p) => {
            let e = ApiError::new(422, "verilog_parse", format!("design does not parse: {p}"))
                .at(p.span());
            return reply.error(&[], e);
        }
    };
    let _span = obs::span("serve.analyze");
    let body = api::render_analyze(&api::analyze(&module, &parsed.target, parsed.depth));
    reply.send(200, &[], &body)
}

fn handle_healthz(state: &ServerState, reply: &mut Reply) -> u16 {
    let uptime = state.started.elapsed();
    let body = format!(
        "{{\"status\":\"ok\",\"version\":\"{}\",\"engines\":[\"batch\"],\"weights_hash\":\"{}\",\"model_format\":\"{}\",\"uptime_ms\":{},\"uptime_s\":{},\"workers\":{},\"queue_capacity\":{},\"cache_entries\":{},\"cache_capacity\":{}{}}}\n",
        env!("CARGO_PKG_VERSION"),
        state.weights_hash,
        veribug::persist::format_version(),
        uptime.as_millis(),
        uptime.as_secs(),
        state.config.workers,
        state.config.queue_capacity,
        state.cache.len(),
        state.config.cache_capacity,
        shard_fields(state),
    );
    reply.send(200, &[], &body)
}

/// The hash ring's `backends` and `ring_points` fields for a shard front's
/// `/healthz` and `/statusz`; empty otherwise.
fn shard_fields(state: &ServerState) -> String {
    state
        .ring
        .as_ref()
        .map(Ring::status_fields)
        .unwrap_or_default()
}

fn handle_statusz(state: &ServerState, reply: &mut Reply) -> u16 {
    let (queued, running) = state.pool.depth();
    // Flush this worker's metric shards so the model counters below see
    // evaluations recorded by this very request's predecessors.
    obs::flush_thread();
    let snapshot = obs::snapshot();
    let info = telemetry::StatusInfo {
        uptime_s: state.started.elapsed().as_secs(),
        workers: state.config.workers,
        queue_capacity: state.config.queue_capacity,
        queued,
        running,
        cache_entries: state.cache.len(),
        cache_capacity: state.config.cache_capacity,
        store: state.store.as_ref().map(|s| {
            // One scan gives both occupancy figures.
            let listing = s.list().unwrap_or_default();
            telemetry::StoreStatus {
                path: s.root().display().to_string(),
                budget: s.budget(),
                entries: listing.len(),
                bytes: listing.iter().map(|e| e.bytes).sum(),
                preloaded: state.preloaded,
                stats: s.stats(),
            }
        }),
        shard_fields: shard_fields(state),
        weights_hash: state.weights_hash.clone(),
        model_format: veribug::persist::format_version(),
        evals: snapshot
            .counters
            .get("model.evals")
            .copied()
            .unwrap_or_default(),
        score_margin: snapshot.histograms.get("model.score_margin").copied(),
    };
    let body = telemetry::statusz_json(&info, obs::rolling::WINDOW_SECONDS);
    reply.send(200, &[], &body)
}

fn handle_tracez(req: &Request, reply: &mut Reply) -> u16 {
    let limit = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .clamp(1, 512);
    if req.query_param("fmt") == Some("text") {
        let body = telemetry::tracez_text(limit);
        reply.write(200, "text/plain; charset=utf-8", &[], &body)
    } else {
        reply.send(200, &[], &telemetry::tracez_json(limit))
    }
}

fn handle_tracez_export(req: &Request, reply: &mut Reply) -> u16 {
    let Some(id) = req.query_param("id") else {
        let err = ApiError::new(
            400,
            "missing_param",
            "`/tracez/export` needs an `id` query parameter",
        );
        return reply.error(&[], err);
    };
    let Some(trace) = live::find(id) else {
        let err = ApiError::new(
            404,
            "trace_not_found",
            format!("no retained trace with id `{id}` (evicted or never recorded)"),
        );
        return reply.error(&[], err);
    };
    if !trace.sampled() {
        let err = ApiError::new(
            404,
            "trace_not_sampled",
            format!("trace `{id}` was retained as a digest; only error and slow traces keep a span tree"),
        );
        return reply.error(&[], err);
    }
    reply.send(200, &[], &live::chrome_trace_of(&trace))
}
