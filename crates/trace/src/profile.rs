//! Sampling guest hot-PC profiler.
//!
//! The block interpreter retires most instructions in translated-block
//! batches; [`ProfiledInspector`] turns each batch retirement into one
//! weighted sample (the whole block attributed to its first PC) and
//! samples every N-th slow-path retirement, so profiling cost stays
//! proportional to dispatches rather than instructions. Samples land in a
//! [`PcHistogram`]; attribution to guest functions happens offline
//! against address ranges extracted from `swifi-lang` debug info (passed
//! in as plain [`FuncRange`]s so this crate stays independent of the
//! compiler).

use std::collections::HashMap;

use swifi_vm::inspect::{FetchPolicy, Inspector};

/// Weighted histogram of sampled guest PCs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcHistogram {
    samples: HashMap<u32, u64>,
    total: u64,
}

impl PcHistogram {
    /// An empty histogram.
    pub fn new() -> PcHistogram {
        PcHistogram::default()
    }

    /// Record `weight` samples at `pc`.
    #[inline]
    pub fn record(&mut self, pc: u32, weight: u64) {
        *self.samples.entry(pc).or_insert(0) += weight;
        self.total += weight;
    }

    /// Total sample weight recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct sampled PCs.
    pub fn distinct_pcs(&self) -> usize {
        self.samples.len()
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, other: &PcHistogram) {
        for (&pc, &w) in &other.samples {
            *self.samples.entry(pc).or_insert(0) += w;
        }
        self.total += other.total;
    }

    /// Iterate over `(pc, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.samples.iter().map(|(&pc, &w)| (pc, w))
    }
}

/// A guest function's address range, `[start, end]` inclusive —
/// the shape of `swifi-lang`'s `FunctionInfo` without the dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncRange {
    /// Function name as it should appear in profiles.
    pub name: String,
    /// First code address of the function.
    pub start: u32,
    /// Last code address of the function (inclusive).
    pub end: u32,
}

impl FuncRange {
    /// Whether `addr` falls inside this function.
    pub fn contains(&self, addr: u32) -> bool {
        self.start <= addr && addr <= self.end
    }
}

/// One row of an attributed profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSamples {
    /// Function name, or `"<unknown>"` for PCs outside every range.
    pub name: String,
    /// Total sample weight attributed to the function.
    pub samples: u64,
    /// Share of the histogram's total weight, in percent.
    pub pct: f64,
    /// The single hottest sampled PC inside the function.
    pub hottest_pc: u32,
}

/// Attribute a PC histogram to guest functions, hottest first.
///
/// Ties are broken by name so the rendering is deterministic across runs
/// and `HashMap` iteration orders.
pub fn attribute(hist: &PcHistogram, funcs: &[FuncRange]) -> Vec<FuncSamples> {
    #[derive(Default)]
    struct Acc {
        samples: u64,
        hottest_pc: u32,
        hottest_weight: u64,
    }
    let mut by_func: HashMap<usize, Acc> = HashMap::new();
    let mut unknown = Acc::default();
    for (pc, w) in hist.iter() {
        let acc = match funcs.iter().position(|f| f.contains(pc)) {
            Some(i) => by_func.entry(i).or_default(),
            None => &mut unknown,
        };
        acc.samples += w;
        if w > acc.hottest_weight || (w == acc.hottest_weight && pc < acc.hottest_pc) {
            acc.hottest_weight = w;
            acc.hottest_pc = pc;
        }
    }
    let total = hist.total().max(1) as f64;
    let mut rows: Vec<FuncSamples> = by_func
        .into_iter()
        .map(|(i, acc)| FuncSamples {
            name: funcs[i].name.clone(),
            samples: acc.samples,
            pct: acc.samples as f64 * 100.0 / total,
            hottest_pc: acc.hottest_pc,
        })
        .collect();
    if unknown.samples > 0 {
        rows.push(FuncSamples {
            name: "<unknown>".to_string(),
            samples: unknown.samples,
            pct: unknown.samples as f64 * 100.0 / total,
            hottest_pc: unknown.hottest_pc,
        });
    }
    rows.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));
    rows
}

/// Render the top-`n` rows as a fixed-width table (the `--profile`
/// printout).
pub fn top_table(rows: &[FuncSamples], n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>12} {:>7}  {:>10}\n",
        "function", "samples", "%", "hottest pc"
    ));
    for row in rows.iter().take(n) {
        out.push_str(&format!(
            "{:<24} {:>12} {:>6.1}%  {:>#10x}\n",
            row.name, row.samples, row.pct, row.hottest_pc
        ));
    }
    out
}

/// Render the profile as collapsed stacks (`program;function weight`,
/// one frame deep — the guest has no sampled call stacks), the input
/// format of `flamegraph.pl` and speedscope.
pub fn collapsed_stacks(program: &str, rows: &[FuncSamples]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("{program};{} {}\n", row.name, row.samples));
    }
    out
}

/// An [`Inspector`] adapter that forwards every hook to `inner`
/// unchanged while sampling retirements into a [`PcHistogram`].
///
/// Forwarding keeps injection behaviour bit-identical: the machine sees
/// the same fetch policy, the same hook effects, and the same
/// block-quiescence answers, so a profiled campaign classifies exactly
/// like an unprofiled one (pinned by the campaign equality tests).
pub struct ProfiledInspector<'a, I: Inspector> {
    inner: &'a mut I,
    hist: &'a mut PcHistogram,
    every: u32,
    countdown: u32,
}

impl<'a, I: Inspector> ProfiledInspector<'a, I> {
    /// Wrap `inner`, sampling every `every`-th slow-path retirement (and
    /// every block retirement, weighted by block length) into `hist`.
    pub fn new(
        inner: &'a mut I,
        hist: &'a mut PcHistogram,
        every: u32,
    ) -> ProfiledInspector<'a, I> {
        let every = every.max(1);
        ProfiledInspector {
            inner,
            hist,
            every,
            countdown: every,
        }
    }
}

impl<I: Inspector> Inspector for ProfiledInspector<'_, I> {
    fn fetch_policy(&self) -> FetchPolicy {
        self.inner.fetch_policy()
    }

    #[inline]
    fn on_fetch(&mut self, core: usize, pc: u32, word: &mut u32) {
        self.inner.on_fetch(core, pc, word);
    }

    #[inline]
    fn on_load_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        self.inner.on_load_addr(core, pc, addr);
    }

    #[inline]
    fn on_load_value(&mut self, core: usize, pc: u32, addr: u32, value: &mut u32) {
        self.inner.on_load_value(core, pc, addr, value);
    }

    #[inline]
    fn on_store_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        self.inner.on_store_addr(core, pc, addr);
    }

    #[inline]
    fn on_store_value(&mut self, core: usize, pc: u32, addr: u32, value: &mut u32) {
        self.inner.on_store_value(core, pc, addr, value);
    }

    #[inline]
    fn on_reg_write(&mut self, core: usize, pc: u32, reg: u8, value: &mut u32) {
        self.inner.on_reg_write(core, pc, reg, value);
    }

    #[inline]
    fn on_retire(&mut self, core: usize, pc: u32) {
        self.inner.on_retire(core, pc);
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.every;
            self.hist.record(pc, self.every as u64);
        }
    }

    #[inline]
    fn block_quiescent(&self, core: usize, first_pc: u32, last_pc: u32) -> bool {
        self.inner.block_quiescent(core, first_pc, last_pc)
    }

    #[inline]
    fn on_block_retire(&mut self, core: usize, first_pc: u32, n: u32) {
        self.inner.on_block_retire(core, first_pc, n);
        self.hist.record(first_pc, n as u64);
    }
}

/// The slow-path sampling period of campaign profiling: cheap enough to
/// leave on for whole campaigns, dense enough that short JamesB runs
/// still collect samples.
pub const DEFAULT_SAMPLE_EVERY: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_vm::Noop;

    fn funcs() -> Vec<FuncRange> {
        vec![
            FuncRange {
                name: "main".to_string(),
                start: 0x1000,
                end: 0x10fc,
            },
            FuncRange {
                name: "helper".to_string(),
                start: 0x1100,
                end: 0x11fc,
            },
        ]
    }

    #[test]
    fn attribution_sorts_hottest_first_and_buckets_unknown() {
        let mut h = PcHistogram::new();
        h.record(0x1004, 10);
        h.record(0x1104, 90);
        h.record(0x9000, 5);
        let rows = attribute(&h, &funcs());
        assert_eq!(rows[0].name, "helper");
        assert_eq!(rows[0].samples, 90);
        assert_eq!(rows[0].hottest_pc, 0x1104);
        assert_eq!(rows[1].name, "main");
        assert_eq!(rows[2].name, "<unknown>");
        let pct: f64 = rows.iter().map(|r| r.pct).sum();
        assert!((pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn renderings_contain_every_row() {
        let mut h = PcHistogram::new();
        h.record(0x1004, 3);
        h.record(0x1104, 7);
        let rows = attribute(&h, &funcs());
        let table = top_table(&rows, 10);
        assert!(table.contains("helper"), "{table}");
        assert!(table.contains("main"), "{table}");
        let stacks = collapsed_stacks("JB.team11", &rows);
        assert_eq!(stacks, "JB.team11;helper 7\nJB.team11;main 3\n");
    }

    #[test]
    fn top_table_truncates_to_n() {
        let mut h = PcHistogram::new();
        h.record(0x1004, 3);
        h.record(0x1104, 7);
        let rows = attribute(&h, &funcs());
        let table = top_table(&rows, 1);
        assert!(table.contains("helper"));
        assert!(!table.contains("main"));
    }

    #[test]
    fn profiled_inspector_samples_blocks_and_slow_path() {
        let mut h = PcHistogram::new();
        let mut noop = Noop;
        let mut p = ProfiledInspector::new(&mut noop, &mut h, 2);
        // A 5-instruction quiescent block: one weighted sample.
        assert!(p.block_quiescent(0, 0x1000, 0x1010));
        p.on_block_retire(0, 0x1000, 5);
        // Four slow-path retirements at period 2: two samples of weight 2.
        for i in 0..4u32 {
            p.on_retire(0, 0x2000 + i * 4);
        }
        assert_eq!(h.total(), 5 + 4);
        assert_eq!(h.distinct_pcs(), 3);
    }

    #[test]
    fn histogram_merge_adds_weights() {
        let mut a = PcHistogram::new();
        let mut b = PcHistogram::new();
        a.record(0x10, 1);
        b.record(0x10, 2);
        b.record(0x20, 3);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.distinct_pcs(), 2);
    }
}
