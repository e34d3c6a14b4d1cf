//! End-to-end service tests over real TCP on a loopback port.
//!
//! The server runs with [`WorkerMode::InProcess`] so the tests exercise
//! the whole protocol — accept loop, event stream, shard orchestration,
//! checkpoint merge, report rendering — without depending on a built
//! `swifi` binary (process-mode fan-out is covered by
//! `scripts/server_smoke.sh`, which drives the real executable).

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use swifi_campaign::report::{class_campaign_report, source_campaign_report};
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::CampaignOptions;
use swifi_server::protocol::{CampaignRequest, Driver, Event, Request};
use swifi_server::{request, serve, JobConfig, WorkerMode};

/// Drop the wall-clock lines (throughput, cache effectiveness, phase
/// timing) that legitimately differ between a replaying merge pass and
/// a fresh run — the same exclusion `resume_smoke.sh` and
/// `server_smoke.sh` apply. Everything else must match byte for byte.
fn stable_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            ![
                "throughput:",
                "icache:",
                "blocks:",
                "prefix-fork:",
                "phases:",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swifi-server-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start an in-process-mode server on a fresh loopback port; returns
/// the address and the join handle (joined via a `shutdown` request).
fn start_server(tag: &str) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let workdir = temp_dir(tag);
    let cfg = JobConfig {
        workdir: workdir.clone(),
        mode: WorkerMode::InProcess,
    };
    let handle = std::thread::spawn(move || serve(listener, cfg).unwrap());
    (addr, handle, workdir)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>, workdir: &PathBuf) {
    request(addr, &Request::Shutdown, |_| {}).unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(workdir).ok();
}

fn submit(addr: &str, req: CampaignRequest) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    request(addr, &Request::Submit(req), |e| events.push(e.clone()))?;
    Ok(events)
}

fn class_request(shards: u64) -> CampaignRequest {
    CampaignRequest {
        driver: Driver::Class,
        target: "SOR".to_string(),
        seed: 77,
        inputs: 2,
        mutants: 1,
        shards,
        pool: 2,
        want_trace: false,
        want_metrics: false,
    }
}

#[test]
fn ping_pong() {
    let (addr, handle, workdir) = start_server("ping");
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    stop_server(&addr, handle, &workdir);
}

#[test]
fn unknown_target_is_a_streamed_error() {
    let (addr, handle, workdir) = start_server("badtarget");
    let mut req = class_request(2);
    req.target = "nope".to_string();
    let err = submit(&addr, req).unwrap_err();
    assert!(err.contains("unknown program `nope`"), "{err}");
    stop_server(&addr, handle, &workdir);
}

#[test]
fn malformed_request_lines_get_a_diagnosis() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle, workdir) = start_server("garbage");
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"not json at all\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    match Event::parse(&line).unwrap() {
        Event::Error { message } => assert!(message.contains("bad request line"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    stop_server(&addr, handle, &workdir);
}

/// Read one event line from `stream` and return its `error` message.
fn error_event(stream: TcpStream) -> String {
    use std::io::{BufRead, BufReader};
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    match Event::parse(&line).unwrap() {
        Event::Error { message } => message,
        other => panic!("expected error event, got {other:?}"),
    }
}

#[test]
fn an_over_bound_submission_is_refused_and_the_server_keeps_serving() {
    use swifi_server::protocol::MAX_SHARDS;
    let (addr, handle, workdir) = start_server("overbound");
    let err = submit(&addr, class_request(MAX_SHARDS + 1)).unwrap_err();
    assert!(err.contains("`shards`") && err.contains("limit"), "{err}");
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    stop_server(&addr, handle, &workdir);
}

#[test]
fn an_idle_connection_delays_a_ping_by_at_most_the_request_timeout() {
    use std::time::{Duration, Instant};
    use swifi_server::server::REQUEST_TIMEOUT;
    let (addr, handle, workdir) = start_server("idle");
    // Connected but silent: the accept loop reaches it first.
    let idle = TcpStream::connect(&addr).unwrap();
    let t0 = Instant::now();
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    let waited = t0.elapsed();
    assert!(
        waited < REQUEST_TIMEOUT + Duration::from_secs(2),
        "ping waited {waited:?}"
    );
    let message = error_event(idle);
    assert!(message.contains("no request line"), "{message}");
    stop_server(&addr, handle, &workdir);
}

#[test]
fn an_over_long_request_line_gets_an_error_event() {
    use std::io::Write;
    use swifi_server::server::MAX_REQUEST_BYTES;
    let (addr, handle, workdir) = start_server("overlong");
    let mut stream = TcpStream::connect(&addr).unwrap();
    // The limit's worth of bytes and still no newline.
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES as usize])
        .unwrap();
    let message = error_event(stream);
    assert!(message.contains("longer than"), "{message}");
    stop_server(&addr, handle, &workdir);
}

/// A C.team10 campaign: its deep recursion keeps it running for seconds,
/// long after a following submit has been answered. Each seed is its
/// own campaign, with its own shard files in the workdir.
fn long(seed: u64) -> CampaignRequest {
    CampaignRequest {
        target: "C.team10".to_string(),
        seed,
        inputs: 1,
        shards: 1,
        pool: 1,
        ..class_request(1)
    }
}

/// Submit `req` and return the stream once its `accepted` event arrived.
fn submit_accepted(addr: &str, req: CampaignRequest) -> impl Iterator<Item = String> {
    use std::io::{BufRead, BufReader, Write};
    let line = swifi_server::protocol::render_request(&Request::Submit(req));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut lines = BufReader::new(stream).lines().map(Result::unwrap);
    let accepted = Event::parse(&lines.next().unwrap()).unwrap();
    assert!(matches!(accepted, Event::Accepted { .. }), "{accepted:?}");
    lines
}

#[test]
fn a_submit_over_the_concurrency_cap_gets_an_error_event() {
    use swifi_server::server::MAX_CONCURRENT_CAMPAIGNS;
    let (addr, handle, workdir) = start_server("busy");
    let in_flight: Vec<_> = (0..MAX_CONCURRENT_CAMPAIGNS as u64)
        .map(|seed| submit_accepted(&addr, long(seed)))
        .collect();

    let err = submit(&addr, long(99)).unwrap_err();
    assert!(err.contains("busy"), "{err}");

    // Every admitted campaign still completes, and once they have, the
    // finished ones are reaped and a submit is admitted again.
    for lines in in_flight {
        assert_eq!(Event::parse(&lines.last().unwrap()).unwrap(), Event::Done);
    }
    let events = submit(&addr, class_request(1)).unwrap();
    assert_eq!(events.last(), Some(&Event::Done));
    stop_server(&addr, handle, &workdir);
}

#[test]
fn a_duplicate_in_flight_submit_gets_an_error_event() {
    let (addr, handle, workdir) = start_server("duplicate");
    let first = submit_accepted(&addr, long(5));
    let err = submit(&addr, long(5)).unwrap_err();
    assert!(err.contains("already in flight"), "{err}");
    // The first campaign is untouched, and a resubmit sent the moment its
    // final event arrives is admitted.
    let last = (first.map(|l| Event::parse(&l).unwrap()))
        .find(|e| matches!(e, Event::Done | Event::Error { .. }));
    assert_eq!(last, Some(Event::Done));
    let events = submit(&addr, long(5)).unwrap();
    assert_eq!(events.last(), Some(&Event::Done));
    stop_server(&addr, handle, &workdir);
}

#[test]
fn in_flight_submits_that_differ_only_in_inputs_both_run() {
    // The input count is part of the campaign tag: the two submissions
    // write different shard files, so neither is refused.
    let (addr, handle, workdir) = start_server("inputs");
    let first = submit_accepted(&addr, long(6));
    let events = submit(
        &addr,
        CampaignRequest {
            inputs: 2,
            ..long(6)
        },
    )
    .unwrap();
    assert_eq!(events.last(), Some(&Event::Done));
    let last = (first.map(|l| Event::parse(&l).unwrap()))
        .find(|e| matches!(e, Event::Done | Event::Error { .. }));
    assert_eq!(last, Some(Event::Done));
    stop_server(&addr, handle, &workdir);
}

#[test]
fn sharded_class_campaign_reports_byte_identically() {
    let direct = class_campaign_with(
        &swifi_programs::program("SOR").unwrap(),
        CampaignScale {
            inputs_per_fault: 2,
        },
        77,
        &CampaignOptions::default(),
    )
    .unwrap();
    let expected = class_campaign_report(&direct);

    let (addr, handle, workdir) = start_server("classeq");
    let events = submit(&addr, class_request(3)).unwrap();
    stop_server(&addr, handle, &workdir);

    // The stream tells the whole story, in order.
    assert!(matches!(events[0], Event::Accepted { shards: 3, .. }));
    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::ShardStart { .. }))
        .count();
    let clean = events
        .iter()
        .filter(|e| matches!(e, Event::ShardDone { ok: true, .. }))
        .count();
    assert_eq!((starts, clean), (3, 3));
    let merged = events
        .iter()
        .find_map(|e| match e {
            Event::Merged {
                records,
                shards_missing,
                duplicates,
                ..
            } => Some((*records, *shards_missing, *duplicates)),
            _ => None,
        })
        .expect("merged event");
    assert_eq!(merged.1, 0, "no shard went missing");
    assert_eq!(merged.2, 0, "shard ranges are disjoint");
    let phase_runs: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { runs, .. } => Some(*runs),
            _ => None,
        })
        .sum();
    assert_eq!(phase_runs, merged.0, "phase counts tile the records");
    assert_eq!(events.last(), Some(&Event::Done));

    // The oracle: the streamed report is byte-identical to the
    // single-process run.
    let report = events
        .iter()
        .find_map(|e| match e {
            Event::Report { text } => Some(text.clone()),
            _ => None,
        })
        .expect("report event");
    assert_eq!(stable_lines(&report), stable_lines(&expected));
}

#[test]
fn sharded_source_campaign_reports_byte_identically() {
    let direct = source_campaign_with(
        &swifi_programs::program("SOR").unwrap(),
        SourceScale {
            mutant_budget: 4,
            inputs_per_mutant: 2,
        },
        9,
        &CampaignOptions::default(),
    )
    .unwrap();
    let expected = source_campaign_report(&direct);

    let (addr, handle, workdir) = start_server("sourceeq");
    let events = submit(
        &addr,
        CampaignRequest {
            driver: Driver::Source,
            target: "SOR".to_string(),
            seed: 9,
            inputs: 2,
            mutants: 4,
            shards: 2,
            pool: 1,
            want_trace: false,
            want_metrics: false,
        },
    )
    .unwrap();
    stop_server(&addr, handle, &workdir);

    let report = events
        .iter()
        .find_map(|e| match e {
            Event::Report { text } => Some(text.clone()),
            _ => None,
        })
        .expect("report event");
    assert_eq!(stable_lines(&report), stable_lines(&expected));
}

#[test]
fn requested_telemetry_streams_back_merged_and_valid() {
    let (addr, handle, workdir) = start_server("telemetry");
    let mut req = class_request(2);
    req.want_trace = true;
    req.want_metrics = true;
    let events = submit(&addr, req).unwrap();
    stop_server(&addr, handle, &workdir);

    let metrics = events
        .iter()
        .find_map(|e| match e {
            Event::Metrics { text } => Some(text.clone()),
            _ => None,
        })
        .expect("metrics event");
    // The merged registry parses back and saw runs from both shards —
    // merging it exercises the histogram bucket-union path end to end.
    let registry = swifi_trace::metrics::MetricsRegistry::from_json(&metrics).unwrap();
    let snapshot = registry.to_json();
    assert!(snapshot.contains("run_latency_us"), "{snapshot}");
    assert!(snapshot.contains("\"runs\""), "{snapshot}");

    let trace = events
        .iter()
        .find_map(|e| match e {
            Event::Trace { text } => Some(text.clone()),
            _ => None,
        })
        .expect("trace event");
    // The merged trace is schema-valid and timestamp-ordered.
    swifi_trace::validate_chrome_trace(&trace).unwrap();
}
