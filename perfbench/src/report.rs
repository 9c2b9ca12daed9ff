//! Sample statistics and the one-line JSON result.

use std::fmt::Write;

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Median and p90 of a latency class, in ms. Every class reports
    /// both; the sample count goes to stderr so a thin tail is visible.
    pub fn latency(&mut self, class: &str, samples_ms: &[f64]) {
        eprintln!("{class}: {} samples", samples_ms.len());
        self.put(format!("{class}_p50_ms"), median(samples_ms), "ms");
        self.put(format!("{class}_p90_ms"), quantile(samples_ms, 0.9), "ms");
    }

    /// Metrics that came out non-finite (a class with no samples).
    pub fn missing(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; `missing` makes the run
            // fail before they could be read as numbers.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(out, r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn the_result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.0 / 3.0, "ms");
        let line = m.result_line(true, 3, 0);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0"#));
        assert!(line.contains(r#""a_ms": {"value": 0.3333333333333333, "unit": "ms"}"#));
    }
}
