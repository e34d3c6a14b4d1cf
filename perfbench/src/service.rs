//! The `sharded-service` workload: a local `swifi serve` with process
//! workers, driven over its line protocol. All service times come from
//! the arrival times of the `swifi submit` event stream.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use swifi_server::protocol::{CampaignRequest, Driver, Event, Request};

/// A running `swifi serve`, shut down and reaped on drop.
pub struct Server {
    child: Child,
    workdir: PathBuf,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Start `swifi serve` on a free local port with its checkpoints in
    /// `workdir`, and wait for its `serving on ADDR` handshake.
    ///
    /// # Errors
    ///
    /// Spawn failures and a server that exits before the handshake.
    pub fn start(swifi: &Path, workdir: &Path) -> Result<Server, String> {
        let mut child = Command::new(swifi)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workdir")
            .arg(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{} serve`: {e}", swifi.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("serving on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                workdir: workdir.to_path_buf(),
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "`swifi serve` did not report its address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }
}

impl Server {
    /// Delete the checkpoints earlier submissions left in the server's
    /// workdir, so that the next submission is a first one: a
    /// resubmitted campaign deletes its old shard files before its
    /// first `shard_start`.
    ///
    /// # Errors
    ///
    /// Files that cannot be listed or removed.
    pub fn clear_workdir(&self) -> Result<(), String> {
        let err = |e: std::io::Error| format!("cannot clear `{}`: {e}", self.workdir.display());
        for entry in std::fs::read_dir(&self.workdir).map_err(err)? {
            let path = entry.map_err(err)?.path();
            if path.is_dir() {
                std::fs::remove_dir_all(&path).map_err(err)?;
            } else {
                std::fs::remove_file(&path).map_err(err)?;
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if swifi_server::request(&self.addr, &Request::Shutdown, |_| {}).is_err() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The request for one program of the workload: a class campaign in two
/// shards, two worker processes at a time.
pub fn request(target: &str, seed: u64, inputs: usize) -> CampaignRequest {
    CampaignRequest {
        driver: Driver::Class,
        target: target.to_string(),
        seed,
        inputs,
        mutants: 1,
        shards: 2,
        pool: 2,
        want_trace: false,
        want_metrics: false,
    }
}

/// Arrival times of one submission's events, in seconds after submit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// `accepted`.
    pub accepted: Option<f64>,
    /// `shard_start` per shard index.
    pub shard_start: Vec<(u64, f64)>,
    /// `shard_done` per shard index, with its `ok` flag.
    pub shard_done: Vec<(u64, f64, bool)>,
    /// `merged`.
    pub merged: Option<f64>,
    /// `report`.
    pub report: Option<f64>,
    /// `done`.
    pub done: Option<f64>,
    /// Abnormal items the server reported.
    pub abnormal: u64,
    /// The report text.
    pub text: String,
}

impl Timeline {
    /// Fold one event that arrived `at` seconds after submit.
    pub fn observe(&mut self, at: f64, event: &Event) {
        match event {
            Event::Accepted { .. } => self.accepted = Some(at),
            Event::ShardStart { shard } => self.shard_start.push((*shard, at)),
            Event::ShardDone { shard, ok, .. } => self.shard_done.push((*shard, at, *ok)),
            Event::Merged { .. } => self.merged = Some(at),
            Event::Abnormal { .. } => self.abnormal += 1,
            Event::Report { text } => {
                self.report = Some(at);
                self.text.clone_from(text);
            }
            Event::Done => self.done = Some(at),
            Event::Phase { .. } | Event::Metrics { .. } | Event::Trace { .. } => {}
            Event::Error { .. } | Event::Pong => {}
        }
    }

    /// Whether the stream is complete: every event seen, every shard ok,
    /// in protocol order.
    pub fn complete(&self) -> bool {
        let (Some(a), Some(m), Some(r), Some(d)) =
            (self.accepted, self.merged, self.report, self.done)
        else {
            return false;
        };
        let shards_ok = !self.shard_done.is_empty()
            && self.shard_done.len() == self.shard_start.len()
            && self.shard_done.iter().all(|&(_, _, ok)| ok);
        shards_ok
            && a <= self.first_shard_start()
            && self.last_shard_done() <= m
            && m <= r
            && r <= d
    }

    /// Set-up: submit to the first `shard_start`.
    pub fn first_shard_start(&self) -> f64 {
        self.shard_start
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min)
    }

    /// The last `shard_done`.
    pub fn last_shard_done(&self) -> f64 {
        self.shard_done.iter().map(|s| s.1).fold(0.0, f64::max)
    }

    /// Wall-clock of each shard, `shard_start` to its `shard_done`.
    pub fn shard_secs(&self) -> Vec<f64> {
        self.shard_start
            .iter()
            .filter_map(|&(k, start)| {
                self.shard_done
                    .iter()
                    .find(|d| d.0 == k)
                    .map(|d| d.1 - start)
            })
            .collect()
    }
}

/// Submit one campaign and record its event timeline.
///
/// # Errors
///
/// Connection failures and `error` events.
pub fn submit(addr: &str, req: CampaignRequest) -> Result<Timeline, String> {
    let t0 = Instant::now();
    let mut timeline = Timeline::default();
    swifi_server::request(addr, &Request::Submit(req), |event| {
        timeline.observe(t0.elapsed().as_secs_f64(), event);
    })?;
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<(f64, Event)> {
        vec![
            (
                0.001,
                Event::parse(r#"{"event":"accepted","campaign":"class-JB.team6-s7","shards":2}"#)
                    .unwrap(),
            ),
            (0.002, Event::ShardStart { shard: 0 }),
            (0.003, Event::ShardStart { shard: 1 }),
            (
                0.500,
                Event::ShardDone {
                    shard: 1,
                    ok: true,
                    detail: String::new(),
                },
            ),
            (
                0.700,
                Event::ShardDone {
                    shard: 0,
                    ok: true,
                    detail: String::new(),
                },
            ),
            (
                0.710,
                Event::Merged {
                    shards_read: 2,
                    shards_missing: 0,
                    records: 29,
                    duplicates: 0,
                },
            ),
            (
                0.711,
                Event::Phase {
                    name: "assign".to_string(),
                    runs: 20,
                },
            ),
            (
                0.750,
                Event::Report {
                    text: "total runs: 87, dormant: 0\n".to_string(),
                },
            ),
            (0.751, Event::Done),
        ]
    }

    #[test]
    fn timeline_reads_every_service_time_from_the_stream() {
        let mut t = Timeline::default();
        for (at, e) in stream() {
            t.observe(at, &e);
        }
        assert!(t.complete());
        assert_eq!(t.accepted, Some(0.001));
        assert_eq!(t.first_shard_start(), 0.002);
        assert_eq!(t.last_shard_done(), 0.700);
        let secs = t.shard_secs();
        assert_eq!(secs.len(), 2);
        assert!((secs[0] - 0.698).abs() < 1e-9 && (secs[1] - 0.497).abs() < 1e-9);
        assert_eq!(
            (t.merged, t.report, t.done),
            (Some(0.710), Some(0.750), Some(0.751))
        );
        assert_eq!(t.text, "total runs: 87, dormant: 0\n");
    }

    #[test]
    fn an_incomplete_or_failed_stream_is_not_complete() {
        let events = stream();
        let mut missing_done = Timeline::default();
        for (at, e) in &events[..events.len() - 1] {
            missing_done.observe(*at, e);
        }
        assert!(!missing_done.complete());
        let mut failed_shard = Timeline::default();
        for (at, e) in &events {
            let e = match e {
                Event::ShardDone { shard: 1, .. } => Event::ShardDone {
                    shard: 1,
                    ok: false,
                    detail: "killed".to_string(),
                },
                other => other.clone(),
            };
            failed_shard.observe(*at, &e);
        }
        assert!(!failed_shard.complete());
    }

    #[test]
    fn the_wire_format_parses_into_the_timeline() {
        let mut t = Timeline::default();
        for (at, line) in [
            (0.1, r#"{"event":"shard_start","shard":0}"#),
            (
                0.4,
                r#"{"event":"shard_done","shard":0,"ok":true,"detail":""}"#,
            ),
        ] {
            t.observe(at, &Event::parse(line).expect("protocol line"));
        }
        assert_eq!(t.shard_start, vec![(0, 0.1)]);
        assert_eq!(t.shard_done, vec![(0, 0.4, true)]);
    }
}
