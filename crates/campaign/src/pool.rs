//! A minimal deterministic parallel-map over independent runs.
//!
//! Campaign runs are embarrassingly parallel; wall-clock matters because a
//! full reproduction executes 10⁴–10⁵ VM runs. Results are returned in
//! input order regardless of scheduling, and each worker thread can carry
//! reusable state (a warm [`crate::session::RunSession`]) across the items
//! it processes — the warm-reboot engine's "one session per worker, not
//! per run" contract.
//!
//! A panicking item is caught and returned as data with the index of the
//! item that failed, so one broken run cannot take the campaign down.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The outcome of one item under [`parallel_map_resilient`]: the closure's
/// return value, or the message of the panic it raised, plus the item's
/// wall-clock cost. A panicking run is *data*, not a process abort.
#[derive(Debug)]
pub struct CaughtRun<R> {
    /// Wall-clock time spent inside the closure for this item (including
    /// an unwinding run's time up to the panic).
    pub elapsed: Duration,
    /// The closure's result, or the panic message (`Err`).
    pub result: Result<R, String>,
}

/// Render a caught panic payload as a message for [`CaughtRun::result`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<opaque panic payload>".to_string())
}

/// Map `f` over `items` on up to `available_parallelism` worker threads,
/// returning results in input order plus the final worker states.
///
/// Each worker thread owns a state value built once by `init` and
/// threaded through every item that worker processes (one per worker
/// actually spawned; callers wanting aggregate counters fold over them).
/// Results must not depend on which worker handled which item — the
/// warm-reboot equivalence property is exactly what licenses this.
///
/// A panicking item is caught and returned as data (`Err(message)` in its
/// [`CaughtRun`]) instead of being re-raised. A reproduction that injects
/// faults should survive the faults it injects: one wedged or panicking
/// run must not discard the 10⁴ completed ones; the campaign engine turns
/// it into an abnormal record.
///
/// Semantics on a caught panic:
///
/// - the item's slot carries the panic message and elapsed time;
/// - the worker *retires* its state (the unwound closure may have left it
///   mid-run) and continues the remaining items on a fresh `init()` state;
/// - retired states are still returned, so per-session counters survive.
///
/// `on_complete` is invoked on the **calling thread** as each item's
/// result arrives (completion order, not input order) — the checkpoint
/// hook: a campaign killed mid-flight keeps every completed record.
///
/// # Panics
///
/// A panic inside `init` itself is not an item failure and is re-raised
/// (it means the run engine cannot be built at all).
pub fn parallel_map_resilient<T, S, R, I, F, C>(
    items: &[T],
    init: I,
    f: F,
    mut on_complete: C,
) -> (Vec<CaughtRun<R>>, Vec<S>)
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
    C: FnMut(usize, &CaughtRun<R>),
{
    let run_one = |state: &mut S, item: &T| -> CaughtRun<R> {
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| f(state, item)))
            .map_err(|payload| panic_message(payload.as_ref()));
        CaughtRun {
            elapsed: t0.elapsed(),
            result,
        }
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workers = workers.min(items.len().max(1));
    if workers <= 1 || items.len() < 2 {
        let mut states = Vec::new();
        let mut state = init();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let run = run_one(&mut state, item);
            if run.result.is_err() {
                states.push(std::mem::replace(&mut state, init()));
            }
            on_complete(i, &run);
            out.push(run);
        }
        states.push(state);
        return (out, states);
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CaughtRun<R>)>();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let run_one = &run_one;
            handles.push(scope.spawn(move || {
                let mut retired = Vec::new();
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let run = run_one(&mut state, &items[i]);
                    if run.result.is_err() {
                        // The unwound state may be arbitrary; retire it
                        // (its counters still matter) and continue fresh.
                        retired.push(std::mem::replace(&mut state, init()));
                    }
                    if tx.send((i, run)).is_err() {
                        break;
                    }
                }
                retired.push(state);
                retired
            }));
        }
        drop(tx);

        let mut out: Vec<Option<CaughtRun<R>>> = (0..items.len()).map(|_| None).collect();
        for (i, run) in rx {
            on_complete(i, &run);
            out[i] = Some(run);
        }
        let mut states = Vec::new();
        let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(s) => states.extend(s),
                Err(payload) => worker_panic = Some(payload),
            }
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        let results = out
            .into_iter()
            .map(|r| r.expect("every index yields a caught run"))
            .collect();
        (results, states)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Map `f` statelessly and unwrap every item, failing on the first
    /// panicked one.
    fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let (runs, _) = parallel_map_resilient(items, || (), |(), x| f(x), |_, _| {});
        unwrap_all(runs)
    }

    fn unwrap_all<R>(runs: Vec<CaughtRun<R>>) -> Vec<R> {
        runs.into_iter()
            .enumerate()
            .map(|(i, run)| {
                (run.result)
                    .unwrap_or_else(|m| panic!("parallel_map worker panicked on item {i}: {m}"))
            })
            .collect()
    }

    fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .expect("unwrap_all panics with a formatted message")
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn works_on_tiny_inputs() {
        assert_eq!(map(&[5u32], |&x| x + 1), vec![6]);
        assert_eq!(map::<u32, u32>(&[], |&x| x), Vec::<u32>::new());
    }

    #[test]
    fn handles_heavier_work() {
        let items: Vec<u64> = (0..64).collect();
        let out = map(&items, |&x| (0..10_000).fold(x, |a, b| a.wrapping_add(b)));
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], (0..10_000).sum::<u64>());
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Each worker counts how many items it processed; the counts must
        // sum to the item count no matter how the scheduler split them.
        let items: Vec<u32> = (0..500).collect();
        let (out, states) = parallel_map_resilient(
            &items,
            || 0u32,
            |count, &x| {
                *count += 1;
                x + 1
            },
            |_, _| {},
        );
        assert_eq!(unwrap_all(out), (1..=500).collect::<Vec<u32>>());
        assert_eq!(states.iter().sum::<u32>(), 500);
        assert!(!states.is_empty());
    }

    #[test]
    fn propagates_panic_with_item_index() {
        let items: Vec<u32> = (0..256).collect();
        let err = std::panic::catch_unwind(|| {
            map(&items, |&x| {
                if x == 97 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .expect_err("panic must fail the call");
        let msg = panic_text(err);
        assert!(
            msg.contains("item 97"),
            "message should name the item: {msg}"
        );
        assert!(
            msg.contains("boom at 97"),
            "message should keep the cause: {msg}"
        );
    }

    #[test]
    fn propagates_panic_on_sequential_path() {
        let err = std::panic::catch_unwind(|| map(&[1u32], |_| -> u32 { panic!("single") }))
            .expect_err("panic must fail the call");
        let msg = panic_text(err);
        assert!(
            msg.contains("item 0") && msg.contains("single"),
            "got: {msg}"
        );
    }

    #[test]
    fn propagates_panic_through_stateful_path() {
        // A run blowing up in a stateful worker must also name the
        // failing item, not just the bare payload.
        let items: Vec<u32> = (0..128).collect();
        let err = std::panic::catch_unwind(|| {
            let (runs, _) = parallel_map_resilient(
                &items,
                || 0u64,
                |count, &x| {
                    *count += 1;
                    if x == 42 {
                        panic!("session wedged on {x}");
                    }
                    x
                },
                |_, _| {},
            );
            unwrap_all(runs)
        })
        .expect_err("panic must fail the call");
        let msg = panic_text(err);
        assert!(
            msg.contains("item 42") && msg.contains("session wedged on 42"),
            "got: {msg}"
        );
    }

    #[test]
    fn resilient_map_turns_panics_into_data() {
        let items: Vec<u32> = (0..256).collect();
        let (out, states) = parallel_map_resilient(
            &items,
            || 0u64,
            |count, &x| {
                *count += 1;
                if x % 100 == 97 {
                    panic!("boom at {x}");
                }
                x * 2
            },
            |_, _| {},
        );
        assert_eq!(out.len(), 256);
        for (i, run) in out.iter().enumerate() {
            if i % 100 == 97 {
                let msg = run.result.as_ref().expect_err("item must have panicked");
                assert!(msg.contains(&format!("boom at {i}")), "got: {msg}");
            } else {
                assert_eq!(*run.result.as_ref().expect("item succeeded"), i as u32 * 2);
            }
        }
        // Every item was attempted exactly once: retired states (from the
        // panicked items) plus live states account for all 256 attempts.
        assert_eq!(states.iter().sum::<u64>(), 256);
    }

    #[test]
    fn resilient_map_reports_completions_in_arrival_order() {
        let items: Vec<u32> = (0..64).collect();
        let mut seen = Vec::new();
        let (out, _) = parallel_map_resilient(
            &items,
            || (),
            |(), &x| x,
            |i, run| {
                assert!(run.result.is_ok());
                seen.push(i);
            },
        );
        assert_eq!(out.len(), 64);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<usize>>(), "each item once");
    }

    #[test]
    fn resilient_map_survives_single_item_panic() {
        // The sequential path (1 item) must also catch, not abort.
        let (out, states) = parallel_map_resilient(
            &[7u32],
            || 1u32,
            |_, _| -> u32 { panic!("single wedge") },
            |_, _| {},
        );
        assert!(out[0].result.as_ref().unwrap_err().contains("single wedge"));
        // One retired (wedged) state plus the fresh replacement.
        assert_eq!(states.len(), 2);
    }
}
