//! A small metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Workers accumulate into private registries (no shared-state writes on
//! the run path) which the telemetry hub merges on worker retirement; the
//! merged registry snapshots into the campaign report and the
//! `--metrics-out` JSON. Buckets are fixed at registration so registries
//! from different workers merge bucket-by-bucket.

use std::collections::BTreeMap;

use serde::Value;

/// A fixed-bucket histogram with sum/count/min/max summary statistics.
///
/// `bounds` are inclusive upper bounds; an implicit overflow bucket
/// catches everything above the last bound, so `counts.len() ==
/// bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over the given inclusive upper bounds
    /// (ascending). An overflow bucket is appended automatically.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Exponential bucket bounds: `start, start*factor, ...` (`n` bounds).
    pub fn exponential(start: f64, factor: f64, n: usize) -> Histogram {
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram in.
    ///
    /// # Errors
    ///
    /// Merging only makes sense between registries built from the same
    /// registration; mismatched bucket bounds are reported (not panicked)
    /// so a campaign can surface the bad shard as an abnormal record
    /// instead of dying.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "bucket bounds mismatch ({} vs {} bounds)",
                self.bounds.len(),
                other.bounds.len()
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Snapshot as a JSON value: bounds, counts, count, sum, mean,
    /// min/max (null when empty).
    pub fn to_value(&self) -> Value {
        let num = |v: f64| {
            if self.count == 0 {
                Value::Null
            } else {
                Value::F64(v)
            }
        };
        Value::Object(vec![
            (
                "bounds".to_string(),
                Value::Array(self.bounds.iter().map(|&b| Value::F64(b)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Array(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            ),
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::F64(self.sum)),
            ("mean".to_string(), Value::F64(self.mean())),
            ("min".to_string(), num(self.min)),
            ("max".to_string(), num(self.max)),
        ])
    }

    /// Parse a histogram back out of its [`Histogram::to_value`] snapshot
    /// (the shard→hub direction of the metrics wire format).
    ///
    /// # Errors
    ///
    /// Reports the first malformed field.
    pub fn from_value(v: &Value) -> Result<Histogram, String> {
        let obj = v.as_object().ok_or("histogram snapshot is not an object")?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("histogram snapshot missing `{name}`"))
        };
        let bounds = field("bounds")?
            .as_array()
            .ok_or("histogram `bounds` is not an array")?
            .iter()
            .map(|b| num_f64(b).ok_or_else(|| "non-numeric histogram bound".to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        let counts = field("counts")?
            .as_array()
            .ok_or("histogram `counts` is not an array")?
            .iter()
            .map(|c| num_u64(c).ok_or_else(|| "non-integer histogram count".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram has {} counts for {} bounds (want bounds+1)",
                counts.len(),
                bounds.len()
            ));
        }
        let count = num_u64(field("count")?).ok_or("histogram `count` is not an integer")?;
        let sum = num_f64(field("sum")?).ok_or("histogram `sum` is not a number")?;
        // min/max render as Null when the histogram is empty.
        let min = num_f64(field("min")?).unwrap_or(f64::INFINITY);
        let max = num_f64(field("max")?).unwrap_or(f64::NEG_INFINITY);
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        })
    }
}

fn num_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

fn num_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(u) => Some(*u),
        Value::I64(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Register a histogram under `name` (no-op when already present, so
    /// workers can register idempotently).
    pub fn register_histogram(&mut self, name: &str, hist: Histogram) {
        self.histograms.entry(name.to_string()).or_insert(hist);
    }

    /// Record an observation into a registered histogram; observations to
    /// unregistered names are dropped (the disabled-telemetry contract
    /// never reaches here, this guards partial registration).
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        }
    }

    /// A registered histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold another registry in: counters add, gauges overwrite (last
    /// writer wins — campaign-level gauges are set once at snapshot
    /// time), histograms merge bucket-wise (registered on demand).
    ///
    /// # Errors
    ///
    /// A histogram bucket-bound mismatch reports the offending metric by
    /// name. Counters and gauges merged before the mismatch stay merged;
    /// the caller is expected to surface the error and drop `other`.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), String> {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine
                    .merge(h)
                    .map_err(|e| format!("cannot merge histogram `{k}`: {e}"))?,
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        Ok(())
    }

    /// Snapshot the whole registry as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Snapshot as pretty-printed JSON (the `--metrics-out` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("metrics always serialize")
    }

    /// Parse a registry back out of its [`MetricsRegistry::to_value`]
    /// snapshot. This is how shard worker processes report their
    /// registries to the server for the campaign-wide merge.
    ///
    /// # Errors
    ///
    /// Reports the first malformed section or histogram by name.
    pub fn from_value(v: &Value) -> Result<MetricsRegistry, String> {
        let obj = v.as_object().ok_or("metrics snapshot is not an object")?;
        let section = |name: &str| -> Result<&Vec<(String, Value)>, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("metrics snapshot missing `{name}`"))?
                .as_object()
                .ok_or_else(|| format!("metrics `{name}` is not an object"))
        };
        let mut reg = MetricsRegistry::new();
        for (k, v) in section("counters")? {
            let n = num_u64(v).ok_or_else(|| format!("counter `{k}` is not an integer"))?;
            reg.counters.insert(k.clone(), n);
        }
        for (k, v) in section("gauges")? {
            let n = num_f64(v).ok_or_else(|| format!("gauge `{k}` is not a number"))?;
            reg.gauges.insert(k.clone(), n);
        }
        for (k, v) in section("histograms")? {
            let h = Histogram::from_value(v).map_err(|e| format!("histogram `{k}`: {e}"))?;
            reg.histograms.insert(k.clone(), h);
        }
        Ok(reg)
    }

    /// Parse a registry from [`MetricsRegistry::to_json`] text.
    ///
    /// # Errors
    ///
    /// Reports JSON parse failures and malformed snapshots.
    pub fn from_json(text: &str) -> Result<MetricsRegistry, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("metrics JSON parse error: {e:?}"))?;
        MetricsRegistry::from_value(&v)
    }
}

/// Histogram names the campaign layer records (kept in one place so the
/// session, the exporter, and the tests agree).
pub mod names {
    /// Wall-clock latency of one classified run, in microseconds.
    pub const RUN_LATENCY_US: &str = "run_latency_us";
    /// Retired guest instructions per run (as a full run would report).
    pub const RETIRED_INSTRS_PER_RUN: &str = "retired_instrs_per_run";
    /// Prefix-fork cache hit rate over injected runs (campaign gauge).
    pub const PREFIX_HIT_RATE: &str = "prefix_hit_rate";
    /// Most bytes the prefix cache held at once: rungs plus golden,
    /// trigger-total and expected-output memos (campaign gauge).
    pub const PREFIX_CACHE_BYTES: &str = "prefix_cache_bytes";
    /// Block-cache hit rate over block dispatches (campaign gauge).
    pub const BLOCK_CACHE_HIT_RATE: &str = "block_cache_hit_rate";
}

/// The standard per-run histograms, registered by every worker.
pub fn register_run_histograms(reg: &mut MetricsRegistry) {
    // 1µs .. ~1s in half-decade steps.
    reg.register_histogram(names::RUN_LATENCY_US, Histogram::exponential(1.0, 4.0, 10));
    // 1 .. ~1e9 retired instructions.
    reg.register_histogram(
        names::RETIRED_INSTRS_PER_RUN,
        Histogram::exponential(1.0, 8.0, 10),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_summary() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 562.5).abs() < 1e-9);
        assert!((h.mean() - 112.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new(vec![1.0, 2.0]);
        let mut b = Histogram::new(vec![1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        a.merge(&b).unwrap();
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_merge_rejects_different_bounds() {
        let mut a = Histogram::new(vec![1.0]);
        let b = Histogram::new(vec![2.0, 3.0]);
        let err = a.merge(&b).unwrap_err();
        assert!(err.contains("bucket bounds mismatch"), "{err}");
        // The failed merge left the receiver untouched.
        assert_eq!(a, Histogram::new(vec![1.0]));
    }

    #[test]
    fn registry_merge_names_offending_histogram() {
        let mut a = MetricsRegistry::new();
        a.register_histogram("lat", Histogram::new(vec![1.0]));
        let mut b = MetricsRegistry::new();
        b.register_histogram("lat", Histogram::new(vec![2.0]));
        let err = a.merge(&b).unwrap_err();
        assert!(err.contains("`lat`"), "{err}");
    }

    #[test]
    fn registry_counters_gauges_and_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("runs", 2);
        a.gauge_set("rate", 0.5);
        register_run_histograms(&mut a);
        a.observe(names::RUN_LATENCY_US, 3.0);

        let mut b = MetricsRegistry::new();
        b.counter_add("runs", 3);
        register_run_histograms(&mut b);
        b.observe(names::RUN_LATENCY_US, 7.0);

        a.merge(&b).unwrap();
        assert_eq!(a.counter("runs"), 5);
        assert_eq!(a.histogram(names::RUN_LATENCY_US).unwrap().count(), 2);

        // Snapshot parses back as JSON.
        let v: serde::Value = serde_json::from_str(&a.to_json()).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.iter().any(|(k, _)| k == "histograms"));
    }

    #[test]
    fn registry_json_round_trips() {
        let mut a = MetricsRegistry::new();
        a.counter_add("runs", 7);
        a.gauge_set("rate", 0.25);
        register_run_histograms(&mut a);
        a.observe(names::RUN_LATENCY_US, 3.0);
        a.observe(names::RUN_LATENCY_US, 900.0);

        let back = MetricsRegistry::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);

        // Empty histograms (Null min/max) round-trip too.
        let empty = MetricsRegistry::from_json(&MetricsRegistry::new().to_json()).unwrap();
        assert_eq!(empty, MetricsRegistry::new());
    }

    #[test]
    fn registry_from_json_rejects_malformed_snapshots() {
        assert!(MetricsRegistry::from_json("not json").is_err());
        assert!(MetricsRegistry::from_json("{}").is_err());
        let err = MetricsRegistry::from_json(
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1.0],"counts":[0],"count":0,"sum":0.0,"mean":0.0,"min":null,"max":null}}}"#,
        )
        .unwrap_err();
        assert!(err.contains("`h`"), "{err}");
    }

    #[test]
    fn empty_histogram_snapshot_has_null_extrema() {
        let h = Histogram::new(vec![1.0]);
        let v = h.to_value();
        let obj = v.as_object().unwrap();
        let min = obj.iter().find(|(k, _)| k == "min").unwrap().1.clone();
        assert_eq!(min, Value::Null);
    }

    #[test]
    fn observations_to_unregistered_histograms_are_dropped() {
        let mut r = MetricsRegistry::new();
        r.observe("nope", 1.0);
        assert!(r.histogram("nope").is_none());
    }
}
