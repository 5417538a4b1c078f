//! The accept loop behind [`Server::run`](crate::Server::run), its one
//! caller; a shard front is a `Server` with backends, so it is the same
//! loop.
//!
//! The listener stays blocking, so a connection is handed on the moment
//! the kernel completes it: there is no poll interval for a request to
//! wait out. Shutdown sets the stop flag and then calls [`wake`], which
//! connects to the listener once so the blocked `accept` returns and the
//! loop sees the flag. The loop drops that wake connection unserved.
//!
//! An accept error ends the loop only when the listener itself is
//! unusable ([`accept_error_is_fatal`]). Anything else (an aborted
//! handshake, a signal, fd exhaustion during a connection burst) is
//! counted in `serve.accept_errors` and the loop carries on, backing off
//! briefly when out of file descriptors so it does not spin.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static ACCEPT_ERRORS: obs::LazyCounter = obs::LazyCounter::new("serve.accept_errors");

/// `EBADF`: the listener's descriptor is gone (9 on every Unix).
const EBADF: i32 = 9;
/// `ENFILE` / `EMFILE`: the system or the process is out of file
/// descriptors (23 / 24 on Linux, macOS and the BSDs).
const FD_EXHAUSTED: [i32; 2] = [23, 24];

/// How long the loop waits after fd exhaustion before accepting again,
/// giving in-flight connections time to close.
const FD_BACKOFF: Duration = Duration::from_millis(1);

/// How long [`wake`] waits for its connection to complete.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Accepts connections and hands each to `on_conn` until `stop` is set.
///
/// `stop` is checked before the first `accept` (so a shutdown that came
/// before `run` returns at once) and after every accept; a stream accepted
/// once `stop` is set is the [`wake`] connection, or arrived with it, and
/// is dropped unserved.
///
/// # Errors
///
/// Only the errors [`accept_error_is_fatal`] classifies as fatal.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut on_conn: impl FnMut(TcpStream),
) -> io::Result<()> {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                on_conn(stream);
            }
            Err(e) if accept_error_is_fatal(&e) => return Err(e),
            Err(e) => {
                ACCEPT_ERRORS.incr();
                obs::flush_thread();
                if is_fd_exhaustion(&e) {
                    std::thread::sleep(FD_BACKOFF);
                }
            }
        }
    }
    Ok(())
}

/// Whether an `accept` error means the listener itself is unusable, so
/// the loop must end. Only `EINVAL` (the socket is not listening, surfaced
/// as [`io::ErrorKind::InvalidInput`]) and `EBADF` are; every other error
/// concerns one connection, a signal, or a passing resource shortage.
fn accept_error_is_fatal(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::InvalidInput || (cfg!(unix) && e.raw_os_error() == Some(EBADF))
}

fn is_fd_exhaustion(e: &io::Error) -> bool {
    cfg!(unix) && e.raw_os_error().is_some_and(|n| FD_EXHAUSTED.contains(&n))
}

/// Connects to the listener bound at `addr` once, so a blocked
/// [`accept_until`] returns and sees its stop flag. An unspecified bind
/// address (`0.0.0.0` / `::`) is reached through the loopback address of
/// the same family. Failure is ignored: a second shutdown finds the
/// listener already closed, and a first one that fails to connect is
/// still seen at the next accepted connection.
pub(crate) fn wake(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, WAKE_TIMEOUT);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_connection_errors_are_not_fatal() {
        assert!(!accept_error_is_fatal(&io::Error::from(
            io::ErrorKind::ConnectionAborted
        )));
        assert!(!accept_error_is_fatal(&io::Error::from(
            io::ErrorKind::Interrupted
        )));
        assert!(accept_error_is_fatal(&io::Error::from(
            io::ErrorKind::InvalidInput
        )));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_exhaustion_is_not_fatal_and_backs_off() {
        for errno in [23, 24] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(!accept_error_is_fatal(&e), "errno {errno}");
            assert!(is_fd_exhaustion(&e), "errno {errno}");
        }
        assert!(accept_error_is_fatal(&io::Error::from_raw_os_error(9)));
        assert!(accept_error_is_fatal(&io::Error::from_raw_os_error(22)));
        assert!(!is_fd_exhaustion(&io::Error::from(
            io::ErrorKind::ConnectionAborted
        )));
    }

    #[test]
    fn wake_unblocks_accept_on_an_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let (served_tx, served_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let loop_stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0;
            let result = accept_until(&listener, &loop_stop, |_| {
                served += 1;
                let _ = served_tx.send(());
            });
            let _ = done_tx.send(result.map(|()| served));
        });
        // One real connection first, so the loop is known to be running
        // and back in a blocking `accept` when the stop lands.
        wake(addr);
        served_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first connection served");
        stop.store(true, Ordering::SeqCst);
        wake(addr);
        let served = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the wake ends the loop")
            .unwrap();
        assert_eq!(served, 1, "the wake connection is never served");
    }
}
