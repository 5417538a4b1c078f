//! Consistent-hash routing over a fleet of `veribug serve` backends.
//!
//! A [`Server`](crate::Server) whose config names backends
//! ([`ServerConfig::backends`](crate::ServerConfig::backends)) is a shard
//! front: it forwards `POST /v1/localize`, `/v1/explain` and `/v1/analyze`
//! through the [`Ring`] here and answers every other route itself. The
//! shard key is derived from the design bytes (the `golden` field for
//! `/v1/localize` and `/v1/explain`, `design` for `/v1/analyze`, the raw
//! body otherwise); the first backend in ring order that answers has its
//! response relayed verbatim, plus an `x-veribug-shard` header naming it.
//! Because the key is the same FNV-1a content hash the design cache uses,
//! every request for a given design lands on the same backend and each
//! backend's LRU (and persistent store) holds a clean partition of the
//! design corpus.
//!
//! The front's worker pool is split into equal **shares**, one per backend
//! and one for in-process fallback. A backend whose share is busy is
//! skipped, so a stalled backend ties up only its own share and a hot
//! design spills onto the next backend in ring order.
//!
//! Failure handling is layered:
//!
//! 1. a background thread polls every backend's `/healthz`
//!    ([`Ring::check_health`]) and flips an `AtomicBool` per backend;
//! 2. a forward that fails mid-flight (including one that waits longer
//!    than the request's deadline plus [`FORWARD_GRACE`]) marks the
//!    backend down immediately and re-routes to the next distinct backend
//!    on the ring;
//! 3. when no backend answers, the front runs the request through its own
//!    handlers in process (`x-veribug-shard: local`), so a dead fleet
//!    degrades to single-node service, not an error storm; past the local
//!    share it answers `429 queue_full`.
//!
//! Consistent hashing ([`REPLICAS`] virtual nodes per backend) keeps the
//! partition stable under membership change: losing one backend of N
//! moves only ~1/N of the keyspace. Forwards and health probes go through
//! [`http`]'s client half.

use std::fmt::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obs::json::Json;
use store::hash::fnv1a;

use crate::http::{self, Request, Response};
use crate::pool::Slot;

static SHARD_FORWARDED: obs::LazyCounter = obs::LazyCounter::new("shard.forwarded");
static SHARD_REROUTED: obs::LazyCounter = obs::LazyCounter::new("shard.rerouted");
static SHARD_LOCAL: obs::LazyCounter = obs::LazyCounter::new("shard.local_fallback");
static SHARD_BACKEND_DOWN: obs::LazyCounter = obs::LazyCounter::new("shard.backend_down");
static SHARD_BACKEND_BUSY: obs::LazyCounter = obs::LazyCounter::new("shard.backend_busy");

/// Virtual nodes per backend on the hash ring.
const REPLICAS: usize = 64;
/// How often the health thread polls each backend's `/healthz`.
pub(crate) const HEALTH_INTERVAL: Duration = Duration::from_millis(250);
/// Connect timeout for forwards and health probes.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Read/write timeout on a health probe; a backend slower than this to
/// answer `/healthz` is marked down.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// How much longer than the request's deadline a forward waits for the
/// backend, which needs that deadline plus its parse and compile time to
/// answer (a `504` included).
const FORWARD_GRACE: Duration = Duration::from_secs(2);

const CONTENT_JSON: &str = "application/json";

struct Backend {
    addr: String,
    healthy: AtomicBool,
    /// Forwards to this backend in flight, at most [`Ring::share`].
    inflight: Arc<AtomicUsize>,
}

/// The backends, their consistent-hash ring, and the front's in-flight
/// shares.
pub(crate) struct Ring {
    backends: Vec<Backend>,
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, usize)>,
    /// Most requests in flight on one backend, and most run locally.
    share: usize,
    /// Requests running in process because no backend answered.
    local: Arc<AtomicUsize>,
}

/// Where [`Ring::relay`] sent a request.
pub(crate) enum Routed {
    /// A backend answered; its status was relayed.
    Relayed(u16),
    /// No backend answered: the caller serves the request in process
    /// while holding this slot of the local share.
    Local(Slot),
    /// No backend answered and the local share is full.
    Busy,
}

/// SplitMix64's finalizer. FNV-1a of addresses that differ only in a few
/// port digits leaves the ring points clustered, so that one backend can own
/// most of the keyspace; the finalizer spreads them evenly. Shard keys stay
/// plain FNV-1a, the design cache's key.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Ring {
    /// A ring of [`REPLICAS`] points per backend, each backend and the
    /// local fallback allowed `share` requests in flight; every backend
    /// starts healthy.
    pub(crate) fn new(addrs: &[String], share: usize) -> Ring {
        let backends: Vec<Backend> = addrs
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                healthy: AtomicBool::new(true),
                inflight: Arc::default(),
            })
            .collect();
        let mut points = Vec::with_capacity(backends.len() * REPLICAS);
        for (i, b) in backends.iter().enumerate() {
            for r in 0..REPLICAS {
                let point = fnv1a(format!("{}#{r}", b.addr).as_bytes());
                points.push((mix(point), i));
            }
        }
        points.sort_unstable();
        Ring {
            backends,
            points,
            share: share.max(1),
            local: Arc::default(),
        }
    }

    /// Probes every backend's `/healthz` once and records the verdicts.
    pub(crate) fn check_health(&self) {
        for b in &self.backends {
            b.healthy.store(probe_health(&b.addr), Ordering::SeqCst);
        }
    }

    /// Backend candidate order for `key`: distinct backends in ring order
    /// starting from the first point at or after the key.
    fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::new();
        if self.points.is_empty() {
            return order;
        }
        let n = self.points.len();
        let start = self.points.partition_point(|&(p, _)| p < key) % n;
        for off in 0..n {
            let (_, idx) = self.points[(start + off) % n];
            if !order.contains(&idx) {
                order.push(idx);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }

    /// Forwards `req` under request ID `rid` to the first backend, in ring
    /// order from its shard key, that is healthy, has room in its share
    /// and answers, and relays that response to `stream`. A forward waits
    /// at most the request's `options.deadline_ms` (else `deadline`) plus
    /// [`FORWARD_GRACE`] for each read or write.
    pub(crate) fn relay(
        &self,
        req: &Request,
        rid: &str,
        stream: &mut TcpStream,
        deadline: Duration,
    ) -> Routed {
        let doc = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|text| obs::json::parse(text).ok());
        let wait = request_deadline(doc.as_ref())
            .unwrap_or(deadline)
            .saturating_add(FORWARD_GRACE);
        // Set once any candidate is skipped or fails.
        let mut rerouted = false;
        for idx in self.candidates(shard_key(req, doc.as_ref())) {
            let backend = &self.backends[idx];
            if !backend.healthy.load(Ordering::SeqCst) {
                rerouted = true;
                continue;
            }
            let Some(_slot) = Slot::take(&backend.inflight, self.share) else {
                SHARD_BACKEND_BUSY.incr();
                rerouted = true;
                continue;
            };
            match forward(&backend.addr, req, rid, wait) {
                Ok(resp) => {
                    SHARD_FORWARDED.incr();
                    if rerouted {
                        SHARD_REROUTED.incr();
                    }
                    respond_as_shard(stream, &resp, rid, &backend.addr);
                    return Routed::Relayed(resp.status);
                }
                Err(_) => {
                    // Mark down now; the health thread will bring it back.
                    backend.healthy.store(false, Ordering::SeqCst);
                    SHARD_BACKEND_DOWN.incr();
                    rerouted = true;
                }
            }
        }
        match Slot::take(&self.local, self.share) {
            Some(slot) => {
                SHARD_LOCAL.incr();
                Routed::Local(slot)
            }
            None => Routed::Busy,
        }
    }

    /// `,"backends":[{"addr":…,"healthy":…},…],"ring_points":N`: the
    /// fields a front adds to its `/healthz` and `/statusz` objects.
    pub(crate) fn status_fields(&self) -> String {
        let mut out = String::from(",\"backends\":[");
        for (i, b) in self.backends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"addr\":");
            obs::json::write_str(&mut out, &b.addr);
            let _ = write!(out, ",\"healthy\":{}}}", b.healthy.load(Ordering::SeqCst));
        }
        let _ = write!(out, "],\"ring_points\":{}", self.points.len());
        out
    }
}

/// One `GET /healthz` round-trip; any failure means "down".
fn probe_health(addr: &str) -> bool {
    connect(addr, PROBE_TIMEOUT)
        .and_then(|mut stream| {
            http::write_request(&mut stream, "GET", "/healthz", &[("host", addr)], b"")?;
            http::read_response(&mut stream)
        })
        .is_ok_and(|resp| resp.status == 200)
}

fn connect(addr: &str, io_timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address");
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_read_timeout(Some(io_timeout))?;
                stream.set_write_timeout(Some(io_timeout))?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Derives the shard key for a request from its parsed body `doc`: the
/// design source the backend will cache under the very same hash, so
/// routing and cache partitioning agree. Falls back to hashing the whole
/// body for unknown shapes.
fn shard_key(req: &Request, doc: Option<&Json>) -> u64 {
    for field in ["golden", "design"] {
        if let Some(src) = doc.and_then(|d| d.get(field)).and_then(|v| v.as_str()) {
            return fnv1a(src.as_bytes());
        }
    }
    fnv1a(&req.body)
}

/// The request's own `options.deadline_ms`, when it sets one.
fn request_deadline(doc: Option<&Json>) -> Option<Duration> {
    let ms = doc?.get("options")?.get("deadline_ms")?.as_num()?;
    // `as` saturates, so a negative or absurd value cannot panic here.
    Some(Duration::from_millis(ms as u64))
}

/// Relays a backend's status, content-type and body byte for byte, plus
/// `x-veribug-shard` naming who answered and the front's request ID.
fn respond_as_shard(stream: &mut TcpStream, resp: &Response, rid: &str, shard: &str) {
    let headers = [("x-veribug-shard", shard), ("x-veribug-request-id", rid)];
    let content_type = resp.header("content-type").unwrap_or(CONTENT_JSON);
    let _ = http::write_response(stream, resp.status, content_type, &headers, &resp.body);
}

/// Sends one request to `addr` under request ID `rid` and reads the
/// backend's whole response (backends answer `Connection: close`), waiting
/// at most `wait` for each read or write.
fn forward(addr: &str, req: &Request, rid: &str, wait: Duration) -> std::io::Result<Response> {
    let mut stream = connect(addr, wait)?;
    let content_type = req.header("content-type").unwrap_or(CONTENT_JSON);
    let headers = [
        ("host", addr),
        ("content-type", content_type),
        ("x-veribug-request-id", rid),
    ];
    http::write_request(&mut stream, &req.method, &req.path, &headers, &req.body)?;
    http::read_response(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(addrs: &[&str]) -> Ring {
        Ring::new(
            &addrs.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>(),
            1,
        )
    }

    #[test]
    fn candidate_order_is_stable_and_covers_all_backends() {
        let ring = ring_of(&["a:1", "b:2", "c:3"]);
        for key in [0u64, 1, u64::MAX, fnv1a(b"some design")] {
            let order = ring.candidates(key);
            assert_eq!(order.len(), 3, "every backend appears once");
            assert_eq!(order, ring.candidates(key), "deterministic");
        }
    }

    #[test]
    fn ring_distributes_keys_across_backends() {
        let ring = ring_of(&["a:1", "b:2", "c:3"]);
        let mut counts = [0usize; 3];
        for i in 0..600u64 {
            let key = fnv1a(format!("design-{i}").as_bytes());
            counts[ring.candidates(key)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 60, "backend {i} owns a real share, got {c}/600");
        }
    }

    /// Each backend's share of the 64-bit keyspace: a point owns the keys
    /// from just past the previous point up to itself.
    fn keyspace_shares(ring: &Ring) -> Vec<f64> {
        let mut owned = vec![0u128; ring.backends.len()];
        let mut prev = ring.points.last().expect("points").0;
        for &(point, idx) in &ring.points {
            owned[idx] += u128::from(point.wrapping_sub(prev));
            prev = point;
        }
        let total = owned.iter().sum::<u128>() as f64;
        owned.iter().map(|&o| o as f64 / total).collect()
    }

    #[test]
    fn no_loopback_backend_owns_most_of_the_keyspace() {
        // Loopback backends differ only in their ephemeral port.
        let mut port = 40_961u32;
        let mut next_port = || {
            port = (port * 7_919 + 104_729) % 28_000;
            32_768 + port
        };
        for _ in 0..40 {
            let addrs: Vec<String> = (0..3)
                .map(|_| format!("127.0.0.1:{}", next_port()))
                .collect();
            let shares = keyspace_shares(&Ring::new(&addrs, 1));
            let max = shares.iter().copied().fold(0.0, f64::max);
            assert!(max <= 0.5, "{addrs:?} split the keyspace {shares:?}");
        }
    }

    #[test]
    fn losing_a_backend_only_moves_its_own_keys() {
        let full = ring_of(&["a:1", "b:2", "c:3"]);
        let reduced = ring_of(&["a:1", "b:2"]);
        for i in 0..300u64 {
            let key = fnv1a(format!("design-{i}").as_bytes());
            let owner = full.candidates(key)[0];
            if owner != 2 {
                let still = reduced.candidates(key)[0];
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
        let key = |r: &Request| {
            let doc = obs::json::parse(std::str::from_utf8(&r.body).unwrap()).ok();
            shard_key(r, doc.as_ref())
        };
        let a = req("{\"golden\":\"module m; endmodule\",\"buggy\":\"x\",\"target\":\"t\"}");
        let b = req("{\"golden\":\"module m; endmodule\",\"buggy\":\"y\",\"target\":\"t\"}");
        assert_eq!(
            key(&a),
            key(&b),
            "same golden design routes identically regardless of other fields"
        );
        assert_eq!(key(&a), fnv1a(b"module m; endmodule"));
        let raw = req("not json at all");
        assert_eq!(key(&raw), fnv1a(b"not json at all"));
    }

    #[test]
    fn request_deadline_reads_the_options_override() {
        let deadline = |text: &str| request_deadline(obs::json::parse(text).ok().as_ref());
        assert_eq!(
            deadline("{\"options\":{\"deadline_ms\":250}}"),
            Some(Duration::from_millis(250))
        );
        assert_eq!(deadline("{\"options\":{}}"), None);
        assert_eq!(deadline("not json"), None);
        assert_eq!(
            deadline("{\"options\":{\"deadline_ms\":-5}}"),
            Some(Duration::ZERO)
        );
    }
}
