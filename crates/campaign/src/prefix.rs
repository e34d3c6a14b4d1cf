//! The prefix-fork cache: share the fault-free prefix across injected
//! runs.
//!
//! A §6 campaign runs one fault against many inputs, and many faults
//! against the *same* inputs. For the dominant fault shape — an
//! [`swifi_core::fault::Trigger::OpcodeFetch`] trigger with a
//! non-memory target — every architectural effect of the fault is
//! confined to the suffix that starts at the trigger's first firing
//! occurrence: the prefix up to that point is bit-identical to the
//! fault-free (golden) run. Re-executing that prefix for every injected
//! run is pure waste.
//!
//! A [`PrefixCache`] eliminates it. For each `(input, trigger-pc,
//! firing-occurrence)` key the first run pays for a golden execution
//! paused at the trigger ([`swifi_vm::Machine::run_to_fetch`]) and
//! captures a sparse [`ForkSnapshot`]; every later run with the same
//! key restores the snapshot ([`swifi_vm::Machine::restore_fork`]) and
//! executes only the divergent suffix. Several memoizations ride along:
//!
//! - **golden runs** — a capture run whose trigger never fires *is* a
//!   complete fault-free run; its outcome and retired-instruction count
//!   are recorded per input, so later clean runs (and dormant
//!   classifications) are answered without executing;
//! - **trigger totals** — the same finished capture (or a def-use
//!   traced run) proves how many times the trigger PC executes in the
//!   golden run, so any fault needing a later occurrence is classified
//!   dormant outright (the planner's never-arrives verdict);
//! - **def-use traces** — one dedicated clean run per input records a
//!   [`DefUseTrace`] over the campaign's candidate trigger PCs
//!   ([`PrefixCache::set_watch_pcs`]), the evidence base for provable
//!   dormancy and the run planner (`plan.rs`), memoized per
//!   (input, fault) as the planner's trace verdict.
//!
//! The cache is owned by the campaign driver and shared across the
//! worker pool behind an [`Arc`]: all sessions of one phase run the
//! same compiled program with the same [`swifi_vm::MachineConfig`], so
//! a snapshot captured by one worker restores onto any other worker's
//! machine (a tested VM invariant). A cache is only valid for the
//! `(program, config)` pair it was created for — drivers build one per
//! compiled target and never share it across programs.
//!
//! Inputs are interned to a small integer id on first write and every
//! key embeds the id, so the hot lookups (`snapshot`, `golden`,
//! `total_occurrences`, …) hash a few machine words instead of cloning
//! a full [`TestInput`] per probe.
//!
//! Snapshot storage is bounded ([`PrefixCache::with_capacity`]) with
//! FIFO eviction: once full, the oldest retained snapshot is dropped to
//! admit the new one, so a pathological campaign cannot exhaust memory.
//! The golden, total, trace and plan memos are a few words per key and
//! unbounded.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::plan::RunPlan;
use swifi_core::fault::{FaultSpec, Trigger};
use swifi_programs::input::TestInput;
use swifi_vm::defuse::DefUseTrace;
use swifi_vm::machine::RunOutcome;
use swifi_vm::ForkSnapshot;

/// A memoized fault-free run of the cached program on one input.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// How the fault-free run ended.
    pub outcome: RunOutcome,
    /// Guest instructions the fault-free run retired.
    pub retired: u64,
}

/// Default bound on retained fork snapshots.
const DEFAULT_MAX_SNAPSHOTS: usize = 1024;

/// (interned input, trigger pc, firing occurrence).
type SnapKey = (u32, u32, u64);

#[derive(Default)]
struct Inner {
    /// Input → small dense id; assigned on first write touching the
    /// input. Read paths that find no id know the cache holds nothing
    /// for that input.
    ids: HashMap<TestInput, u32>,
    /// (input id, trigger pc, firing occurrence) → paused golden state.
    snapshots: HashMap<SnapKey, Arc<ForkSnapshot>>,
    /// Insertion order of `snapshots` keys, for FIFO eviction.
    snap_order: VecDeque<SnapKey>,
    /// input id → memoized fault-free run.
    golden: HashMap<u32, GoldenRun>,
    /// (input id, trigger pc) → exact trigger-arrival count in the
    /// golden run (recorded by a def-use traced run for every watched
    /// pc, or by a capture run that finishes without hitting).
    totals: HashMap<(u32, u32), u64>,
    /// input id → host-oracle expected output, shared across sessions.
    expected: HashMap<u32, Arc<Vec<u8>>>,
    /// input id → def-use trace of the dedicated clean run. `Some(None)`
    /// memoizes a failed attempt (e.g. the clean run hit the watchdog)
    /// so it is not retried per fault.
    traces: HashMap<u32, Option<Arc<DefUseTrace>>>,
    /// (input id, fault spec) → the def-use trace's plan verdict
    /// ([`crate::plan::trace_plan`]). The plan is a pure function of the
    /// first-writer-wins def-use trace, so one occurrence walk serves
    /// every later run of the same pair.
    plans: HashMap<(u32, FaultSpec), RunPlan>,
    /// Candidate trigger PCs the campaign will inject at — the def-use
    /// recorder watches exactly these during the traced clean run.
    watch: Arc<Vec<u32>>,
}

impl Inner {
    fn id(&self, input: &TestInput) -> Option<u32> {
        self.ids.get(input).copied()
    }

    fn intern(&mut self, input: &TestInput) -> u32 {
        if let Some(&id) = self.ids.get(input) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(input.clone(), id);
        id
    }
}

/// Bounded, shared store of golden prefixes for one compiled program.
///
/// All methods take `&self`; the cache is internally locked and is
/// shared across the worker pool via [`Arc`].
pub struct PrefixCache {
    inner: Mutex<Inner>,
    max_snapshots: usize,
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        f.debug_struct("PrefixCache")
            .field("snapshots", &inner.snapshots.len())
            .field("golden", &inner.golden.len())
            .field("max_snapshots", &self.max_snapshots)
            .finish()
    }
}

impl Default for PrefixCache {
    fn default() -> PrefixCache {
        PrefixCache::new()
    }
}

impl PrefixCache {
    /// A cache with the default snapshot bound.
    pub fn new() -> PrefixCache {
        PrefixCache::with_capacity(DEFAULT_MAX_SNAPSHOTS)
    }

    /// A cache retaining at most `max_snapshots` fork snapshots (FIFO
    /// eviction beyond that). Golden, trigger-total, trace and plan memos
    /// are not bounded the same way (they are a few words per key).
    pub fn with_capacity(max_snapshots: usize) -> PrefixCache {
        PrefixCache {
            inner: Mutex::new(Inner::default()),
            max_snapshots,
        }
    }

    /// A fresh cache wrapped for sharing across a worker pool.
    pub fn shared() -> Arc<PrefixCache> {
        Arc::new(PrefixCache::new())
    }

    /// Number of distinct inputs interned so far.
    pub fn interned_inputs(&self) -> usize {
        self.inner.lock().expect("prefix cache poisoned").ids.len()
    }

    /// The cached fork snapshot for `(input, pc, occurrence)`, if any.
    pub fn snapshot(&self, input: &TestInput, pc: u32, occ: u64) -> Option<Arc<ForkSnapshot>> {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.id(input)?;
        inner.snapshots.get(&(id, pc, occ)).cloned()
    }

    /// Retain a fork snapshot, evicting the oldest retained one when the
    /// bound is reached. Returns whether the snapshot was stored (an
    /// equal key may already be present when two workers raced on the
    /// same miss; the first one wins and the duplicate is dropped).
    pub fn insert_snapshot(
        &self,
        input: &TestInput,
        pc: u32,
        occ: u64,
        snapshot: Arc<ForkSnapshot>,
    ) -> bool {
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        let key = (id, pc, occ);
        if inner.snapshots.contains_key(&key) {
            return false;
        }
        while inner.snapshots.len() >= self.max_snapshots {
            match inner.snap_order.pop_front() {
                Some(oldest) => {
                    inner.snapshots.remove(&oldest);
                }
                // max_snapshots == 0: nothing to evict, nothing retained.
                None => return false,
            }
        }
        inner.snapshots.insert(key, snapshot);
        inner.snap_order.push_back(key);
        true
    }

    /// The memoized fault-free run for `input`, if one was recorded.
    pub fn golden(&self, input: &TestInput) -> Option<GoldenRun> {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.id(input)?;
        inner.golden.get(&id).cloned()
    }

    /// Record the fault-free run for `input` (first writer wins; a
    /// duplicate from a racing worker is identical by determinism).
    pub fn record_golden(&self, input: &TestInput, run: GoldenRun) {
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        inner.golden.entry(id).or_insert(run);
    }

    /// The exact number of golden-run arrivals at trigger `pc` on
    /// `input`, if a traced run or a finished capture run observed it.
    pub fn total_occurrences(&self, input: &TestInput, pc: u32) -> Option<u64> {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.id(input)?;
        inner.totals.get(&(id, pc)).copied()
    }

    /// Record the golden-run arrival count for `(input, pc)`.
    pub fn record_total(&self, input: &TestInput, pc: u32, total: u64) {
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        inner.totals.entry((id, pc)).or_insert(total);
    }

    /// The def-use trace of `input`'s clean run: `None` if no traced run
    /// happened yet, `Some(None)` if one was attempted and memoized as
    /// unusable, `Some(Some(trace))` otherwise.
    #[allow(clippy::option_option)]
    pub fn trace(&self, input: &TestInput) -> Option<Option<Arc<DefUseTrace>>> {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.id(input)?;
        inner.traces.get(&id).cloned()
    }

    /// Record the def-use trace of `input`'s clean run (first writer
    /// wins). Pass `None` to memoize a failed attempt so it is not
    /// retried for every fault.
    pub fn record_trace(&self, input: &TestInput, trace: Option<Arc<DefUseTrace>>) {
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        inner.traces.entry(id).or_insert(trace);
    }

    /// The memoized trace verdict for `(input, spec)`, if one was
    /// recorded ([`PrefixCache::record_plan`]).
    pub fn plan_memo(&self, input: &TestInput, spec: &FaultSpec) -> Option<RunPlan> {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.id(input)?;
        inner.plans.get(&(id, *spec)).cloned()
    }

    /// Memoize the trace verdict for `(input, spec)`. The verdict
    /// derives from the input's def-use trace, which is first-writer-wins
    /// and immutable once recorded — so one occurrence walk serves every
    /// later run of the pair, across all workers.
    pub fn record_plan(&self, input: &TestInput, spec: &FaultSpec, plan: RunPlan) {
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        inner.plans.insert((id, *spec), plan);
    }

    /// Declare the campaign's candidate trigger PCs. The traced clean
    /// run watches exactly these; drivers call this once, after
    /// generating the fault set and before starting the pool.
    pub fn set_watch_pcs(&self, mut pcs: Vec<u32>) {
        pcs.sort_unstable();
        pcs.dedup();
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        inner.watch = Arc::new(pcs);
    }

    /// The declared candidate trigger PCs (empty until
    /// [`PrefixCache::set_watch_pcs`]).
    pub fn watch_pcs(&self) -> Arc<Vec<u32>> {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .watch
            .clone()
    }

    /// The host-oracle expected output for `input`, computed once across
    /// all sessions sharing this cache.
    pub fn expected_output(&self, input: &TestInput) -> Arc<Vec<u8>> {
        {
            let inner = self.inner.lock().expect("prefix cache poisoned");
            if let Some(v) = inner.id(input).and_then(|id| inner.expected.get(&id)) {
                return v.clone();
            }
        }
        // Compute outside the lock: the oracle run can be slow and two
        // workers racing here produce identical bytes.
        let computed = Arc::new(input.expected_output());
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let id = inner.intern(input);
        inner.expected.entry(id).or_insert(computed).clone()
    }

    /// Number of fork snapshots currently retained.
    pub fn snapshot_count(&self) -> usize {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .snapshots
            .len()
    }
}

/// The distinct [`Trigger::OpcodeFetch`] PCs of a fault set — the watch
/// list campaign drivers hand to [`PrefixCache::set_watch_pcs`]. Faults
/// with other trigger shapes contribute nothing: the def-use machinery
/// only reasons about fetch-triggered corruption.
pub fn watch_pcs_of<'a>(specs: impl IntoIterator<Item = &'a FaultSpec>) -> Vec<u32> {
    specs
        .into_iter()
        .filter_map(|s| match s.trigger {
            Trigger::OpcodeFetch(pc) => Some(pc),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_lang::compile;
    use swifi_programs::program;
    use swifi_vm::inspect::Noop;
    use swifi_vm::machine::{Machine, MachineConfig};

    fn tiny_fork(src: &str) -> ForkSnapshot {
        let image = swifi_vm::asm::assemble(src).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        m.run(&mut Noop);
        m.fork_snapshot()
    }

    #[test]
    fn snapshot_store_evicts_fifo_at_the_bound() {
        let target = program("JB.team11").unwrap();
        let _ = compile(target.source_correct).unwrap();
        let inputs = target.family.test_case(3, 1);
        let cache = PrefixCache::with_capacity(2);
        let snap = Arc::new(tiny_fork("li r3, 0\nhalt"));
        assert!(cache.insert_snapshot(&inputs[0], 0x100, 1, snap.clone()));
        assert!(
            !cache.insert_snapshot(&inputs[0], 0x100, 1, snap.clone()),
            "duplicate key is dropped"
        );
        assert!(cache.insert_snapshot(&inputs[1], 0x100, 1, snap.clone()));
        assert!(
            cache.insert_snapshot(&inputs[2], 0x100, 1, snap.clone()),
            "bound reached: oldest is evicted, newcomer admitted"
        );
        assert_eq!(cache.snapshot_count(), 2);
        assert!(
            cache.snapshot(&inputs[0], 0x100, 1).is_none(),
            "FIFO evicts the oldest key"
        );
        assert!(cache.snapshot(&inputs[1], 0x100, 1).is_some());
        assert!(cache.snapshot(&inputs[2], 0x100, 1).is_some());
        assert!(cache.snapshot(&inputs[1], 0x104, 1).is_none());

        let empty = PrefixCache::with_capacity(0);
        assert!(
            !empty.insert_snapshot(&inputs[0], 0x100, 1, snap),
            "zero capacity retains nothing"
        );
    }

    #[test]
    fn golden_and_totals_memoize_first_writer() {
        let target = program("JB.team11").unwrap();
        let input = &target.family.test_case(1, 2)[0];
        let cache = PrefixCache::new();
        assert!(cache.golden(input).is_none());
        assert!(cache.total_occurrences(input, 0x100).is_none());
        cache.record_total(input, 0x100, 7);
        cache.record_total(input, 0x100, 99);
        assert_eq!(cache.total_occurrences(input, 0x100), Some(7));
        let expected = cache.expected_output(input);
        assert_eq!(*expected, input.expected_output());
        assert!(Arc::ptr_eq(&expected, &cache.expected_output(input)));
    }

    #[test]
    fn inputs_intern_to_stable_ids() {
        let target = program("JB.team11").unwrap();
        let inputs = target.family.test_case(2, 1);
        let cache = PrefixCache::new();
        assert_eq!(cache.interned_inputs(), 0);
        cache.record_total(&inputs[0], 0x100, 3);
        cache.record_golden(
            &inputs[0],
            GoldenRun {
                outcome: RunOutcome::Hang { output: Vec::new() },
                retired: 1,
            },
        );
        cache.record_total(&inputs[1], 0x100, 5);
        assert_eq!(cache.interned_inputs(), 2, "repeat writes reuse the id");
        assert_eq!(cache.total_occurrences(&inputs[0], 0x100), Some(3));
        assert_eq!(cache.total_occurrences(&inputs[1], 0x100), Some(5));
        assert!(cache.golden(&inputs[0]).is_some());
        assert!(cache.golden(&inputs[1]).is_none());
    }

    #[test]
    fn trace_and_watch_memos() {
        let target = program("JB.team11").unwrap();
        let input = &target.family.test_case(1, 2)[0];
        let cache = PrefixCache::new();
        assert!(cache.watch_pcs().is_empty());
        cache.set_watch_pcs(vec![0x10C, 0x104, 0x10C]);
        assert_eq!(*cache.watch_pcs(), vec![0x104, 0x10C]);

        assert!(cache.trace(input).is_none(), "no traced run yet");
        cache.record_trace(input, None);
        assert!(
            matches!(cache.trace(input), Some(None)),
            "failed attempt memoized, not retried"
        );
        // First writer wins: a later success does not overwrite.
        let dummy = {
            let image = swifi_vm::asm::assemble("li r3, 0\nhalt").unwrap();
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            let rec = swifi_vm::DefUseRecorder::new(
                m.core(0),
                &image.code,
                &[],
                swifi_vm::InputTape::new(),
            );
            let mut rec = rec;
            let out = m.run(&mut rec);
            Arc::new(rec.finish(&out))
        };
        cache.record_trace(input, Some(dummy));
        assert!(matches!(cache.trace(input), Some(None)));
    }
}
