//! Summary statistics, metric naming and the result line.

/// Percentiles tried for a timing's tail, lowest first, in hundredths
/// of a percent (integers, so the rank arithmetic is exact).
const TAIL_LADDER: [u64; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SAMPLES_BEYOND: u64 = 10;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest rank (1-based) of percentile `hundredths / 100` among `n`.
fn rank(hundredths: u64, n: u64) -> u64 {
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// The highest percentile of the ladder that has at least ten of `n`
/// samples beyond its nearest rank; `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_LADDER
        .iter()
        .rfind(|&&p| n >= TAIL_SAMPLES_BEYOND && n - rank(p, n) >= TAIL_SAMPLES_BEYOND)
        .map(|&p| p as f64 / 100.0)
}

/// Nearest-rank percentile `p` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let r = rank((p * 100.0).round() as u64, s.len() as u64);
    s[r as usize - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or unit: a benchmark bug.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` of `{name}`");
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric `{name}` emitted twice"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// Value of `name`, if emitted.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    /// One human-readable `name value unit` line per metric.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("{n:<40} {} {u}\n", number(*v)))
            .collect()
    }
}

/// A JSON number with all its digits (integers without a fraction).
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in [
            "runs_per_s",
            "session.full.run_us.p50",
            "tier.no_prune.runs_per_s",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn an_invalid_name_is_refused() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("runs_per_s", 1234.5678, "1/s");
        m.put("runs", 42.0, "count");
        assert_eq!(
            m.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"runs_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"runs\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
    }
}
