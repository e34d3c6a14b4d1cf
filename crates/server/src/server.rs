//! The `swifi serve` accept loop.
//!
//! One connection carries one request. `ping` and `shutdown` are
//! answered inline; a `submit` spawns a handler thread so a long
//! campaign does not block further submissions (or the shutdown probe
//! a supervisor sends to tear the daemon down). Shutdown is graceful:
//! the loop stops accepting and joins every in-flight campaign before
//! returning.
//!
//! The request line is read inline too, so it is bounded in time
//! ([`REQUEST_TIMEOUT`] per read) and size ([`MAX_REQUEST_BYTES`]): a
//! silent or endless peer gets an `error` event instead of stalling
//! every later connection.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::job::{run_campaign, JobConfig};
use crate::protocol::{parse_request, Event, Request};

/// Serve requests on `listener` until a `shutdown` request arrives.
///
/// # Errors
///
/// Returns accept-loop I/O failures; per-connection failures are
/// answered on that connection and do not stop the server.
pub fn serve(listener: TcpListener, cfg: JobConfig) -> Result<(), String> {
    let cfg = Arc::new(cfg);
    let mut campaigns = Vec::new();
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept failed: {e}"))?;
        match read_request(&stream) {
            Err(e) => {
                // A malformed line still gets a diagnosis before the
                // connection closes (best effort: the peer may be gone).
                let _ = send(&stream, &Event::Error { message: e });
            }
            Ok(Request::Ping) => {
                let _ = send(&stream, &Event::Pong);
            }
            Ok(Request::Shutdown) => {
                let _ = send(&stream, &Event::Done);
                break;
            }
            Ok(Request::Submit(req)) => {
                let cfg = Arc::clone(&cfg);
                campaigns.push(std::thread::spawn(move || {
                    let mut dead = false;
                    let mut emit = |e: Event| {
                        // A vanished client stops the stream but never
                        // the campaign: the checkpoints on disk stay
                        // resumable either way.
                        if !dead && send(&stream, &e).is_err() {
                            dead = true;
                        }
                    };
                    match run_campaign(&req, &cfg, &mut emit) {
                        Ok(()) => emit(Event::Done),
                        Err(message) => emit(Event::Error { message }),
                    }
                }));
            }
        }
    }
    for handle in campaigns {
        let _ = handle.join();
    }
    Ok(())
}

/// How long a read of the request line may wait for data.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request line accepted, newline included.
pub const MAX_REQUEST_BYTES: u64 = 64 << 10;

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| format!("cannot set request timeout: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    )
    .take(MAX_REQUEST_BYTES);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            format!("no request line within {}s", REQUEST_TIMEOUT.as_secs())
        }
        _ => format!("cannot read request: {e}"),
    })?;
    if !line.ends_with('\n') && line.len() as u64 >= MAX_REQUEST_BYTES {
        return Err(format!(
            "request line longer than {MAX_REQUEST_BYTES} bytes"
        ));
    }
    if line.trim().is_empty() {
        return Err("empty request".to_string());
    }
    parse_request(&line)
}

fn send(mut stream: &TcpStream, event: &Event) -> std::io::Result<()> {
    // One write per line keeps events unfragmented enough for a
    // line-buffered reader; flush so progress streams in real time.
    stream.write_all(event.render().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}
