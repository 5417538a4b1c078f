//! Fixtures shared by the serve integration suites: a server on its own
//! thread, one-request clients over `veribug_serve::http`, and the
//! golden/buggy design pair most tests localize.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::thread::JoinHandle;

use obs::json::{self, Json};
use veribug_serve::http::{self, Response};
use veribug_serve::{Server, ServerConfig, ServerHandle};

pub const GOLDEN: &str = "module m(input a, input b, input c, output y);\n\
                          wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule";
pub const BUGGY: &str = "module m(input a, input b, input c, output y);\n\
                         wire t;\nassign t = a | b;\nassign y = t | c;\nendmodule";

/// `s` as a JSON string literal.
pub fn encode(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// A `/v1/localize` body for [`GOLDEN`]/[`BUGGY`] against `y`.
pub fn localize_body(runs: usize, cycles: usize) -> String {
    format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":{runs},\"cycles\":{cycles}}}}}",
        encode(GOLDEN),
        encode(BUGGY)
    )
}

pub fn start(config: ServerConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

pub fn stop(handle: &ServerHandle, join: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("clean exit");
}

/// One request over a fresh connection (the server is connection-per-request).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    request_with(addr, method, path, &[], body)
}

/// [`request`] with extra request headers.
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    http::send(addr, method, path, headers, body.as_bytes()).expect("well-formed response")
}

/// Test-side views of a response.
pub trait ResponseExt {
    /// The body parsed as JSON.
    fn json(&self) -> Json;
    /// The echoed `x-veribug-request-id`.
    fn request_id(&self) -> &str;
}

impl ResponseExt for Response {
    fn json(&self) -> Json {
        json::parse(&self.text()).expect("response body is JSON")
    }

    fn request_id(&self) -> &str {
        self.header("x-veribug-request-id")
            .expect("every response carries x-veribug-request-id")
    }
}
