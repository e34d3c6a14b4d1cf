//! The `swifi serve` accept loop.
//!
//! One connection carries one request. `ping` and `shutdown` are
//! answered inline; a `submit` spawns a handler thread so a long
//! campaign does not block further submissions (or the shutdown probe
//! a supervisor sends to tear the daemon down). At most
//! [`MAX_CONCURRENT_CAMPAIGNS`] campaigns run at once: a submit over the
//! cap gets an `error` event, and finished campaigns' threads are
//! reaped before each submit is admitted. A submit of a campaign that is
//! already in flight gets an `error` event too: both would share the
//! shard files named by [`crate::protocol::CampaignRequest::tag`], and
//! one could read the other's half-written checkpoint. Shutdown is
//! graceful: the loop stops accepting and joins every in-flight campaign
//! before returning.
//!
//! The request line is read inline too, so it is bounded in time
//! ([`REQUEST_TIMEOUT`] for the whole line) and size
//! ([`MAX_REQUEST_BYTES`]): a silent, trickling or endless peer gets an
//! `error` event instead of stalling every later connection.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    let in_flight: Arc<Mutex<HashSet<String>>> = Arc::default();
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
                campaigns.retain(|c: &JoinHandle<()>| !c.is_finished());
                if campaigns.len() >= MAX_CONCURRENT_CAMPAIGNS {
                    let message = format!(
                        "server busy: {MAX_CONCURRENT_CAMPAIGNS} campaigns in flight (the limit); \
                         resubmit when one finishes"
                    );
                    let _ = send(&stream, &Event::Error { message });
                    continue;
                }
                let tag = req.tag();
                if !in_flight
                    .lock()
                    .expect("no thread panics holding the in-flight set")
                    .insert(tag.clone())
                {
                    let message =
                        format!("campaign `{tag}` is already in flight; resubmit when it finishes");
                    let _ = send(&stream, &Event::Error { message });
                    continue;
                }
                let claim = InFlight(Arc::clone(&in_flight), tag);
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
                    let result = run_campaign(&req, &cfg, &mut emit);
                    // Release the tag before the final event, so a client
                    // that resubmits on `done` is never refused.
                    drop(claim);
                    match result {
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

/// A campaign tag held in the server's in-flight set until dropped, which
/// also happens when its campaign thread panics.
struct InFlight(Arc<Mutex<HashSet<String>>>, String);

impl Drop for InFlight {
    fn drop(&mut self) {
        if let Ok(mut tags) = self.0.lock() {
            tags.remove(&self.1);
        }
    }
}

/// Most campaigns one server runs at once. Each campaign already fans
/// out over its own worker pool, so more would only oversubscribe the
/// host and hold more campaign state in memory.
pub const MAX_CONCURRENT_CAMPAIGNS: usize = 4;

/// How long the whole request line may take to arrive, however the peer
/// paces its bytes.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request line accepted, newline included.
pub const MAX_REQUEST_BYTES: u64 = 64 << 10;

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(Deadline {
        stream,
        at: Instant::now() + REQUEST_TIMEOUT,
    })
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

/// A connection whose reads all end by one instant: each read waits at
/// most the time left, so a peer that sends a byte just inside every
/// timeout still runs out of time.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn send(mut stream: &TcpStream, event: &Event) -> std::io::Result<()> {
    // One write per line keeps events unfragmented enough for a
    // line-buffered reader; flush so progress streams in real time.
    stream.write_all(event.render().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}
