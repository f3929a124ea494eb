//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q` quantile (0..=1) of `values`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of whole-µs readings that were truncated from real
/// times: within the median's unit interval `[k, k+1)`, interpolates by
/// how far into the tied readings the middle falls.
pub fn truncated_median(values: &[u64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable();
    let half = v.len() as f64 / 2.0;
    let k = v[v.len() / 2];
    let below = v.partition_point(|&x| x < k) as f64;
    let at = (v.partition_point(|&x| x <= k) as f64 - below).max(1.0);
    k as f64 + ((half - below) / at).clamp(0.0, 1.0)
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN; a metric that was not measured fails the run.
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
