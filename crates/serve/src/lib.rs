//! # veribug-serve
//!
//! A zero-dependency HTTP/1.1 bug-localization service built on
//! `std::net::TcpListener`. The server exposes the same localization
//! pipeline as the `veribug localize` CLI command (both call
//! [`veribug::localize`]), wrapped in the machinery a long-running process
//! needs:
//!
//! - a **bounded worker pool** ([`Pool`]) fed by a bounded queue —
//!   saturation answers `429` instead of queueing unboundedly;
//! - a **content-addressed LRU cache** ([`cache`]) of parsed, elaborated,
//!   and compiled designs — repeat requests skip parse → levelize →
//!   compile and fork the cached bytecode instead, and reuse the golden
//!   reference (stimuli plus golden target values) memoized in the golden
//!   design's entry instead of re-simulating the golden design;
//! - **per-request deadlines** via [`sim::CancelToken`], threaded into the
//!   simulator's cycle loop — an expired deadline answers `504` and
//!   discards partial work;
//! - **request isolation** — malformed JSON answers `400`, Verilog parse
//!   errors `422` (with line/column), oversized bodies `413`, and a
//!   panicking handler answers `500` without taking down the listener;
//!   every error body is an [`api::ApiError`];
//! - **one HTTP/1.1 reader and writer** ([`http`]) for both directions —
//!   the server reads requests and writes responses with it, and the
//!   shard routing, `serve_bench` and the test suites write requests and
//!   read responses with its client half;
//! - **one blocking accept loop and one admission path** — a connection
//!   reaches the bounded pool the moment it is accepted, with no poll
//!   interval; a full queue answers `429` on a capped set of threads; an
//!   accept error that concerns one connection (an aborted handshake, fd
//!   exhaustion) is counted in `serve.accept_errors` instead of ending the
//!   loop;
//! - **graceful shutdown** — `POST /v1/shutdown` sets a flag and wakes the
//!   blocked accept with a connection to the server's own address; the
//!   loop stops accepting, drains queued and in-flight requests, then
//!   returns from [`server::Server::run`];
//! - **live request telemetry** — every request gets a trace ID (honored
//!   from `x-veribug-request-id` or minted), echoed on every response and
//!   attached to error bodies; completed requests are tail-sampled into an
//!   in-memory ring of span trees and folded into rolling per-endpoint
//!   windows, served by the `/tracez` and `/statusz` debug pages;
//! - **warm restarts** — with a persistent `veribug-store` root
//!   configured, the design cache writes sources through to disk and a
//!   restarted server precompiles them before accepting traffic, so the
//!   first request after a restart is already a cache hit;
//! - **horizontal scale** — a server configured with backends
//!   ([`ServerConfig::backends`]) is a shard front: it consistent-hashes
//!   design bytes across them with health-checked failover, so each
//!   backend's cache (and store) holds a clean partition of the corpus,
//!   relays backend responses byte for byte, and handles a request itself
//!   when no backend answers.
//!
//! ## Endpoints
//!
//! | Route                 | Meaning                                           |
//! |-----------------------|---------------------------------------------------|
//! | `POST /v1/localize`   | golden+buggy source → ranked suspect statements   |
//! | `POST /v1/analyze`    | design source → dependencies, slice, COI summary  |
//! | `GET /healthz`        | liveness + build info + pool/cache occupancy      |
//! | `GET /metricsz`       | `veribug-obs` counters/gauges/histograms as JSON  |
//! | `GET /statusz`        | rolling per-endpoint latency/status/stage window  |
//! | `GET /tracez`         | recent tail-sampled traces (`?n=`, `&fmt=text`)   |
//! | `GET /tracez/export`  | one trace (`?id=`) as a Perfetto chrome-trace     |
//! | `POST /v1/shutdown`   | begin graceful drain                              |
//!
//! Responses are deterministic: two identical `/v1/localize` requests
//! produce byte-identical bodies whether they hit the design cache or not
//! (cache status travels in the `x-veribug-cache` response *header*, memo
//! status in `x-veribug-golden-ref` and `x-veribug-explainer`, and the
//! request ID in `x-veribug-request-id` — never a 200 body).

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod http;
mod listen;
mod pool;
pub mod server;
mod shard;
mod telemetry;

pub use cache::DesignCache;
pub use pool::{Pool, SubmitError};
pub use server::{Server, ServerConfig, ServerHandle};
