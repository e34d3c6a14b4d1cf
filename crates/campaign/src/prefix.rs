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
//! A [`PrefixCache`] eliminates it. Each `(input, trigger-pc,
//! firing-occurrence)` key can hold a *rung*: a sparse [`ForkSnapshot`]
//! of the golden run paused just before that trigger occurrence. A run
//! with the key restores the rung ([`swifi_vm::Machine::restore_fork`])
//! and executes only the divergent suffix. Rungs come from two places:
//!
//! - **the golden pass** — once a driver lists the campaign's trigger
//!   PCs ([`PrefixCache::set_watch_pcs`]), the first run that needs an
//!   input claims it and makes one clean run that pauses at the first
//!   arrival of every watched PC ([`swifi_vm::Machine::run_to_watch`]),
//!   storing a rung wherever [`crate::plan::worth_forking`] says the
//!   prefix pays. The same run *is* the golden run: its outcome and
//!   retired count are recorded, and every watched PC it never reached
//!   gets a trigger total of 0, so the planner's never-arrives verdict is
//!   known on first sight;
//! - **capture runs** — a run whose key has no rung (no watch list, a
//!   later occurrence, a worker that lost the race for the pass) runs
//!   the clean prefix to its trigger, stores a rung if it pays, and
//!   continues as the injected run. A capture run whose trigger never
//!   arrives is a complete golden run and records the same memos.
//!
//! The watch list also says how many faults will fork from each `(input,
//! pc)` rung (a PC listed `n` times serves `n` faults per input), so a
//! rung is dropped after its last use.
//!
//! The cache is owned by the campaign driver and shared across the
//! worker pool behind an [`Arc`]: all sessions of one phase run the
//! same compiled program with the same [`swifi_vm::MachineConfig`], so
//! a snapshot captured by one worker restores onto any other worker's
//! machine (a tested VM invariant). A cache is only valid for the
//! `(program, config)` pair it was created for — drivers build one per
//! compiled target and never share it across programs.
//!
//! Inputs are interned to a small integer id on first sight and every
//! key embeds the id, so the hot lookups hash a few machine words
//! instead of cloning a full [`TestInput`] per probe.
//!
//! Everything the cache retains — rungs ([`ForkSnapshot::byte_count`])
//! and the golden, trigger-total and expected-output memos — is charged
//! to one byte budget ([`PrefixCache::with_budget`]). An insertion that
//! would exceed it is refused, and the run that wanted it simply
//! executes more; dropping used-up rungs frees room for later captures.

use std::collections::{HashMap, HashSet};
use std::mem::size_of;
use std::sync::{Arc, Mutex};

use swifi_core::fault::FaultSpec;
use swifi_programs::input::TestInput;
use swifi_vm::machine::RunOutcome;
use swifi_vm::ForkSnapshot;

use crate::plan::{self, RunPlan};

/// A memoized fault-free run of the cached program on one input.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// How the fault-free run ended.
    pub outcome: RunOutcome,
    /// Guest instructions the fault-free run retired.
    pub retired: u64,
}

/// Default byte budget: 4 MiB. A C.team10 rung is 6 pages (24 KiB), so
/// this holds the golden passes of a 10-input C.team10 campaign (17
/// watched PCs); a JB.team6 rung is one page, and at 300 inputs its
/// passes would want twice the budget for rungs that save 1–2 µs a fork.
const DEFAULT_BUDGET: usize = 4 << 20;

/// (interned input, trigger pc, firing occurrence).
type SnapKey = (u32, u32, u64);

/// A stored fork snapshot and the forks it still serves.
struct Rung {
    snapshot: Arc<ForkSnapshot>,
    /// Forks left before the rung is dropped; `None` when no watch list
    /// counts its uses (kept until the cache is dropped).
    uses: Option<u32>,
}

#[derive(Default)]
struct Inner {
    /// Input → small dense id, assigned on first sight.
    ids: HashMap<TestInput, u32>,
    rungs: HashMap<SnapKey, Rung>,
    /// input id → memoized fault-free run.
    golden: HashMap<u32, GoldenRun>,
    /// (input id, trigger pc) → exact trigger-arrival count in the
    /// golden run. Only recorded next to a golden memo.
    totals: HashMap<(u32, u32), u64>,
    /// input id → host-oracle expected output, shared across sessions.
    expected: HashMap<u32, Arc<Vec<u8>>>,
    /// Watched trigger PCs, sorted, each with the faults that fork from
    /// its `(input, pc, 1)` rung per input.
    watch: Arc<[(u32, u32)]>,
    /// Inputs whose golden pass has been claimed.
    passes: HashSet<u32>,
    /// Bytes charged to the budget, and their high-water mark.
    bytes: usize,
    peak_bytes: usize,
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

    /// Charge `bytes` to the budget, or refuse if they do not fit.
    fn charge(&mut self, bytes: usize, budget: usize) -> bool {
        if self.bytes + bytes > budget {
            return false;
        }
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        true
    }

    /// Store a rung unless it serves no fork, its key is taken, or it
    /// does not fit the budget.
    fn insert(
        &mut self,
        key: SnapKey,
        snapshot: Arc<ForkSnapshot>,
        uses: Option<u32>,
        budget: usize,
    ) -> bool {
        if uses == Some(0)
            || self.rungs.contains_key(&key)
            || !self.charge(rung_bytes(&snapshot), budget)
        {
            return false;
        }
        self.rungs.insert(key, Rung { snapshot, uses });
        true
    }

    /// Spend one use of the rung at `key`, dropping it after its last,
    /// and return its snapshot.
    fn spend(&mut self, key: SnapKey) -> Option<Arc<ForkSnapshot>> {
        let rung = self.rungs.get_mut(&key)?;
        let snapshot = rung.snapshot.clone();
        let spent = rung.uses.as_mut().is_some_and(|uses| {
            *uses = uses.saturating_sub(1);
            *uses == 0
        });
        if spent {
            self.rungs.remove(&key);
            self.bytes -= rung_bytes(&snapshot);
        }
        Some(snapshot)
    }

    /// Forks each `(input, pc, 1)` rung serves per the watch list.
    fn watched_uses(&self, pc: u32) -> Option<u32> {
        let i = self.watch.binary_search_by_key(&pc, |&(p, _)| p).ok()?;
        Some(self.watch[i].1)
    }
}

fn rung_bytes(snapshot: &ForkSnapshot) -> usize {
    size_of::<(SnapKey, Rung)>() + snapshot.byte_count()
}

fn golden_bytes(run: &GoldenRun) -> usize {
    size_of::<(u32, GoldenRun)>() + run.outcome.output().len()
}

const TOTAL_BYTES: usize = size_of::<((u32, u32), u64)>();

/// Byte-bounded, shared store of golden prefixes for one compiled program.
///
/// All methods take `&self`; the cache is internally locked and is
/// shared across the worker pool via [`Arc`].
pub struct PrefixCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("PrefixCache")
            .field("rungs", &inner.rungs.len())
            .field("golden", &inner.golden.len())
            .field("bytes", &inner.bytes)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Default for PrefixCache {
    fn default() -> PrefixCache {
        PrefixCache::new()
    }
}

impl PrefixCache {
    /// A cache with the default byte budget.
    pub fn new() -> PrefixCache {
        PrefixCache::with_budget(DEFAULT_BUDGET)
    }

    /// A cache retaining at most `budget` bytes of rungs and memos.
    pub fn with_budget(budget: usize) -> PrefixCache {
        PrefixCache {
            inner: Mutex::new(Inner::default()),
            budget,
        }
    }

    /// A fresh cache wrapped for sharing across a worker pool.
    pub fn shared() -> Arc<PrefixCache> {
        Arc::new(PrefixCache::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("prefix cache poisoned")
    }

    /// Number of distinct inputs interned so far.
    pub fn interned_inputs(&self) -> usize {
        self.lock().ids.len()
    }

    /// Set the trigger PCs of the runs still to come, one entry per fault
    /// (see [`watch_pcs_of`]). A non-empty list turns the golden pass on;
    /// a PC listed `n` times makes each of its rungs serve `n` forks.
    pub fn set_watch_pcs(&self, mut pcs: Vec<u32>) {
        pcs.sort_unstable();
        let mut watch: Vec<(u32, u32)> = Vec::new();
        for pc in pcs {
            match watch.last_mut() {
                Some((last, n)) if *last == pc => *n += 1,
                _ => watch.push((pc, 1)),
            }
        }
        self.lock().watch = watch.into();
    }

    /// The watch list: sorted trigger PCs, each with its use count.
    pub fn watched(&self) -> Arc<[(u32, u32)]> {
        self.lock().watch.clone()
    }

    /// Claim the golden pass for `input`: true for the first caller only,
    /// and never without a watch list.
    pub fn claim_pass(&self, input: &TestInput) -> bool {
        let mut inner = self.lock();
        if inner.watch.is_empty() {
            return false;
        }
        let id = inner.intern(input);
        inner.passes.insert(id)
    }

    /// Plan the run of a fault whose fork point is `(pc, occ)` on `input`,
    /// under one lock: [`RunPlan::GoldenPass`] when this call claims the
    /// input's pass, then the never-arrives verdict, then a fork from a
    /// stored rung (spending one of its uses), else a capture.
    pub fn plan(&self, input: &TestInput, pc: u32, occ: u64) -> RunPlan {
        let mut inner = self.lock();
        let id = inner.intern(input);
        if !inner.watch.is_empty() && inner.passes.insert(id) {
            return RunPlan::GoldenPass;
        }
        if inner.golden.contains_key(&id) {
            if let Some(plan) = plan::never_arrives(occ, inner.totals.get(&(id, pc)).copied()) {
                return plan;
            }
        }
        inner
            .spend((id, pc, occ))
            .map_or(RunPlan::Capture, RunPlan::Fork)
    }

    /// The forks a rung stored at `(pc, occ)` by a capture run would still
    /// serve: the watch list's count minus the capture run itself, or
    /// `None` when no watch list counts this key.
    pub fn capture_uses(&self, pc: u32, occ: u64) -> Option<u32> {
        if occ != 1 {
            return None;
        }
        self.lock().watched_uses(pc).map(|n| n.saturating_sub(1))
    }

    /// The stored rung for `(input, pc, occurrence)`, if any, without
    /// spending a use.
    pub fn snapshot(&self, input: &TestInput, pc: u32, occ: u64) -> Option<Arc<ForkSnapshot>> {
        let inner = self.lock();
        let id = inner.id(input)?;
        inner.rungs.get(&(id, pc, occ)).map(|r| r.snapshot.clone())
    }

    /// Store a rung serving `uses` forks (`None`: uncounted). Returns
    /// whether it was stored: an equal key may already be present when
    /// two workers raced on the same miss (the first one wins), and a
    /// rung that does not fit the budget is refused.
    pub fn insert_snapshot(
        &self,
        input: &TestInput,
        pc: u32,
        occ: u64,
        snapshot: Arc<ForkSnapshot>,
        uses: Option<u32>,
    ) -> bool {
        let mut inner = self.lock();
        let key = (inner.intern(input), pc, occ);
        inner.insert(key, snapshot, uses, self.budget)
    }

    /// Store a capture run's rung ([`PrefixCache::insert_snapshot`];
    /// `None` when the cost rule vetoed one). The capture run is one of
    /// the rung's uses, so when another run stored the key after this
    /// one was planned — a golden pass that claimed the input first, or
    /// a racing capture — this run spends a use of that rung instead and
    /// nothing is stored.
    pub fn insert_capture(
        &self,
        input: &TestInput,
        pc: u32,
        occ: u64,
        snapshot: Option<Arc<ForkSnapshot>>,
        uses: Option<u32>,
    ) -> bool {
        let mut inner = self.lock();
        let key = (inner.intern(input), pc, occ);
        if inner.spend(key).is_some() {
            return false;
        }
        snapshot.is_some_and(|s| inner.insert(key, s, uses, self.budget))
    }

    /// The memoized fault-free run for `input`, if one was recorded.
    pub fn golden(&self, input: &TestInput) -> Option<GoldenRun> {
        let inner = self.lock();
        let id = inner.id(input)?;
        inner.golden.get(&id).cloned()
    }

    /// Record the fault-free run for `input` and the golden-run arrival
    /// count of each `(pc, total)` in `totals` (first writer wins; a
    /// duplicate from a racing worker is identical by determinism).
    /// Totals are kept only next to a golden memo, which the never-arrives
    /// verdict replays.
    pub fn record_golden(
        &self,
        input: &TestInput,
        run: GoldenRun,
        totals: impl IntoIterator<Item = (u32, u64)>,
    ) {
        let mut inner = self.lock();
        let id = inner.intern(input);
        if !inner.golden.contains_key(&id) {
            if !inner.charge(golden_bytes(&run), self.budget) {
                return;
            }
            inner.golden.insert(id, run);
        }
        for (pc, total) in totals {
            if !inner.totals.contains_key(&(id, pc)) && inner.charge(TOTAL_BYTES, self.budget) {
                inner.totals.insert((id, pc), total);
            }
        }
    }

    /// The exact number of golden-run arrivals at trigger `pc` on
    /// `input`, if a finished golden run observed it.
    pub fn total_occurrences(&self, input: &TestInput, pc: u32) -> Option<u64> {
        let inner = self.lock();
        let id = inner.id(input)?;
        inner.totals.get(&(id, pc)).copied()
    }

    /// The host-oracle expected output for `input`, computed once across
    /// all sessions sharing this cache.
    pub fn expected_output(&self, input: &TestInput) -> Arc<Vec<u8>> {
        {
            let inner = self.lock();
            if let Some(v) = inner.id(input).and_then(|id| inner.expected.get(&id)) {
                return v.clone();
            }
        }
        // Compute outside the lock: the oracle run can be slow and two
        // workers racing here produce identical bytes.
        let computed = Arc::new(input.expected_output());
        let mut inner = self.lock();
        let id = inner.intern(input);
        if let Some(v) = inner.expected.get(&id) {
            return v.clone();
        }
        let bytes = size_of::<(u32, Arc<Vec<u8>>)>() + computed.len();
        if inner.charge(bytes, self.budget) {
            inner.expected.insert(id, computed.clone());
        }
        computed
    }

    /// Number of rungs currently retained.
    pub fn snapshot_count(&self) -> usize {
        self.lock().rungs.len()
    }

    /// Bytes currently charged to the budget.
    pub fn retained_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The most bytes ever charged to the budget at once.
    pub fn peak_bytes(&self) -> usize {
        self.lock().peak_bytes
    }
}

/// The watch list of a fault set, for [`PrefixCache::set_watch_pcs`]: the
/// trigger PC of every fault that forks from a first-arrival rung, once
/// per fault.
pub fn watch_pcs_of<'a>(specs: impl IntoIterator<Item = &'a FaultSpec>) -> Vec<u32> {
    specs
        .into_iter()
        .filter_map(|s| match s.fork_point() {
            Some((pc, 1)) => Some(pc),
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
    fn rungs_fit_one_byte_budget_and_drop_after_their_last_use() {
        let target = program("JB.team11").unwrap();
        let _ = compile(target.source_correct).unwrap();
        let inputs = target.family.test_case(3, 1);
        let snap = Arc::new(tiny_fork("li r3, 0\nhalt"));
        let cache = PrefixCache::with_budget(2 * rung_bytes(&snap));
        assert!(cache.insert_snapshot(&inputs[0], 0x100, 1, snap.clone(), Some(2)));
        assert!(
            !cache.insert_snapshot(&inputs[0], 0x100, 1, snap.clone(), Some(2)),
            "duplicate key is dropped"
        );
        assert!(cache.insert_snapshot(&inputs[1], 0x100, 1, snap.clone(), None));
        assert!(
            !cache.insert_snapshot(&inputs[2], 0x100, 1, snap.clone(), None),
            "a rung past the budget is refused"
        );
        assert_eq!(cache.snapshot_count(), 2);
        assert_eq!(cache.retained_bytes(), 2 * rung_bytes(&snap));

        // Two uses, then the rung is gone and its bytes are free again;
        // an uncounted rung stays.
        for _ in 0..2 {
            assert!(matches!(cache.plan(&inputs[0], 0x100, 1), RunPlan::Fork(_)));
        }
        assert!(matches!(cache.plan(&inputs[0], 0x100, 1), RunPlan::Capture));
        assert!(matches!(cache.plan(&inputs[1], 0x100, 1), RunPlan::Fork(_)));
        assert!(cache.snapshot(&inputs[1], 0x100, 1).is_some());
        assert_eq!(cache.retained_bytes(), rung_bytes(&snap));
        assert_eq!(cache.peak_bytes(), 2 * rung_bytes(&snap));
        assert!(cache.insert_snapshot(&inputs[2], 0x100, 1, snap.clone(), None));

        assert!(
            !cache.insert_snapshot(&inputs[0], 0x104, 1, snap.clone(), Some(0)),
            "a rung nobody will use is not stored"
        );
        let empty = PrefixCache::with_budget(0);
        assert!(
            !empty.insert_snapshot(&inputs[0], 0x100, 1, snap, None),
            "zero budget retains nothing"
        );
        empty.record_golden(&inputs[0], hang(1), [(0x100, 3)]);
        assert!(empty.golden(&inputs[0]).is_none());
        assert!(empty.total_occurrences(&inputs[0], 0x100).is_none());
    }

    #[test]
    fn a_capture_that_loses_the_race_to_the_pass_spends_its_use() {
        let target = program("JB.team11").unwrap();
        let input = &target.family.test_case(1, 1)[0];
        let snap = Arc::new(tiny_fork("li r3, 0\nhalt"));
        let cache = PrefixCache::new();
        cache.set_watch_pcs(vec![0x100, 0x100]);
        // Another worker claims the pass; this run is planned a capture.
        assert!(cache.claim_pass(input));
        assert!(matches!(cache.plan(input, 0x100, 1), RunPlan::Capture));
        // The pass stores the rung for both faults before the capture
        // arrives at the trigger.
        assert!(cache.insert_snapshot(input, 0x100, 1, snap.clone(), Some(2)));
        let uses = cache.capture_uses(0x100, 1);
        assert!(!cache.insert_capture(input, 0x100, 1, Some(snap.clone()), uses));
        assert!(matches!(cache.plan(input, 0x100, 1), RunPlan::Fork(_)));
        assert_eq!(cache.snapshot_count(), 0, "the rung's last use is spent");
        assert_eq!(cache.retained_bytes(), 0);

        // A capture the cost rule vetoed spends its use all the same; a
        // pass's refused insert spends none.
        assert!(cache.insert_snapshot(input, 0x100, 2, snap.clone(), Some(2)));
        assert!(!cache.insert_snapshot(input, 0x100, 2, snap.clone(), Some(2)));
        assert!(!cache.insert_capture(input, 0x100, 2, None, None));
        assert!(matches!(cache.plan(input, 0x100, 2), RunPlan::Fork(_)));
        assert_eq!(cache.snapshot_count(), 0);
        // With no rung to lose to, a capture stores its own.
        assert!(cache.insert_capture(input, 0x100, 3, Some(snap), Some(1)));
        assert_eq!(cache.snapshot_count(), 1);
    }

    #[test]
    fn golden_pass_is_claimed_once_per_input_and_only_with_a_watch_list() {
        let target = program("JB.team11").unwrap();
        let inputs = target.family.test_case(2, 3);
        let cache = PrefixCache::new();
        assert!(!cache.claim_pass(&inputs[0]), "no watch list, no pass");
        assert!(matches!(cache.plan(&inputs[0], 0x104, 1), RunPlan::Capture));
        assert_eq!(cache.capture_uses(0x104, 1), None);

        cache.set_watch_pcs(vec![0x104, 0x100, 0x104]);
        assert_eq!(&*cache.watched(), &[(0x100, 1), (0x104, 2)]);
        assert!(cache.claim_pass(&inputs[0]));
        assert!(!cache.claim_pass(&inputs[0]));
        assert!(matches!(
            cache.plan(&inputs[1], 0x104, 1),
            RunPlan::GoldenPass
        ));
        assert!(matches!(cache.plan(&inputs[1], 0x104, 1), RunPlan::Capture));
        // A capture run is one of its PC's uses; later occurrences and
        // unwatched PCs are not counted.
        assert_eq!(cache.capture_uses(0x104, 1), Some(1));
        assert_eq!(cache.capture_uses(0x104, 2), None);
        assert_eq!(cache.capture_uses(0x108, 1), None);
    }

    #[test]
    fn golden_and_totals_memoize_first_writer() {
        let target = program("JB.team11").unwrap();
        let input = &target.family.test_case(1, 2)[0];
        let cache = PrefixCache::new();
        assert!(cache.golden(input).is_none());
        assert!(cache.total_occurrences(input, 0x100).is_none());
        cache.record_golden(input, hang(1), [(0x100, 7)]);
        cache.record_golden(input, hang(2), [(0x100, 99), (0x104, 0)]);
        assert_eq!(cache.golden(input).unwrap().retired, 1);
        assert_eq!(cache.total_occurrences(input, 0x100), Some(7));
        assert_eq!(cache.total_occurrences(input, 0x104), Some(0));
        // Occurrence 8 never arrives; occurrence 7 does.
        assert!(matches!(cache.plan(input, 0x100, 8), RunPlan::NeverArrives));
        assert!(matches!(cache.plan(input, 0x100, 7), RunPlan::Capture));
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
        cache.record_golden(&inputs[0], hang(1), [(0x100, 3)]);
        cache.record_golden(&inputs[0], hang(1), []);
        cache.record_golden(&inputs[1], hang(1), [(0x100, 5)]);
        assert_eq!(cache.interned_inputs(), 2, "repeat writes reuse the id");
        assert_eq!(cache.total_occurrences(&inputs[0], 0x100), Some(3));
        assert_eq!(cache.total_occurrences(&inputs[1], 0x100), Some(5));
    }

    fn hang(retired: u64) -> GoldenRun {
        GoldenRun {
            outcome: RunOutcome::Hang { output: Vec::new() },
            retired,
        }
    }
}
