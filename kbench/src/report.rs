//! Named metrics and the one-line JSON result.

use std::fmt::Write as _;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (not rounded).
    pub value: f64,
    /// Unit, e.g. `ms`, `us`, `1/s`, `count`.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric. A non-finite value (an empty ratio) is stored
    /// as 0 so the JSON stays valid.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // Debug formatting keeps every digit and always writes a
        // decimal point or exponent, so the value reads back exactly.
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034567, "ms");
        m.push("count", 12.0, "count");
        m.push("empty", f64::NAN, "ratio");
        assert_eq!(
            result_json(true, 10, 1, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034567, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 12.0, \"unit\": \"count\"}, \
             \"empty\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(m.get("count"), Some(12.0));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
