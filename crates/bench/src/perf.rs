//! The perf-trajectory metric schema shared by the throughput benches.
//!
//! `query_throughput`, `runtime_scaling`, `fault_resilience`, `contention`,
//! `retrieval` and `storage` all emit flat JSON lines of the form
//!
//! ```json
//! {"bench":"query_throughput","case":"mih","metric":"queries_per_s","value":4423.758662}
//! ```
//!
//! via `--json-out`. Throughput-shaped metrics (**higher is better**,
//! `*_per_s`, `speedup_*`) omit the direction key; cost-shaped metrics
//! (**lower is better**, e.g. the robustness experiment's wasted joules)
//! carry an explicit `"dir":"lower"` so `scripts/perf_check.py` can flip
//! its tolerance band per line when comparing a fresh run against the
//! checked-in `BENCH_baseline.json`. See `DESIGN.md` §10 for how to read
//! and update the baseline.

use std::path::Path;

/// One measured value: `(bench, case, metric) -> value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Bench binary name (`query_throughput`, ...).
    pub bench: String,
    /// Workload case within the bench (`mih`, `mih_sharded4`, ...).
    pub case: String,
    /// Metric name; by convention ends in a unit suffix
    /// (`*_per_s`, `*_joules`, ...).
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// Whether a *smaller* value is the improvement (energy, latency).
    /// Defaults to `false`: throughputs and speedups grow when they get
    /// better.
    pub lower_is_better: bool,
}

impl Metric {
    /// Builds a higher-is-better metric line (throughputs, speedups).
    pub fn new(
        bench: impl Into<String>,
        case: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        Metric {
            bench: bench.into(),
            case: case.into(),
            metric: metric.into(),
            value,
            lower_is_better: false,
        }
    }

    /// Builds a lower-is-better metric line (costs: joules, seconds of
    /// delay). `perf_check.py` inverts its tolerance band for these.
    pub fn lower(
        bench: impl Into<String>,
        case: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        Metric {
            lower_is_better: true,
            ..Metric::new(bench, case, metric, value)
        }
    }

    /// One JSON object (no trailing newline), hand-rolled like the fleet
    /// report's writer. The
    /// `dir` key only appears on lower-is-better lines, so existing
    /// higher-is-better baselines stay byte-identical.
    pub fn to_json(&self) -> String {
        let dir = if self.lower_is_better {
            ",\"dir\":\"lower\""
        } else {
            ""
        };
        format!(
            "{{\"bench\":\"{}\",\"case\":\"{}\",\"metric\":\"{}\",\"value\":{:.6}{dir}}}",
            self.bench, self.case, self.metric, self.value
        )
    }
}

/// Renders metrics as JSON lines.
pub fn to_json_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&m.to_json());
        out.push('\n');
    }
    out
}

/// Writes metrics as JSON lines to `path`, warning (not failing) on IO
/// errors to match the experiment binaries' `--json-out` behavior.
pub fn write_json_lines(path: &Path, metrics: &[Metric]) {
    if let Err(e) = std::fs::write(path, to_json_lines(metrics)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_flat_and_stable() {
        let m = Metric::new("query_throughput", "mih", "queries_per_s", 123.5);
        assert_eq!(
            m.to_json(),
            "{\"bench\":\"query_throughput\",\"case\":\"mih\",\
             \"metric\":\"queries_per_s\",\"value\":123.500000}"
        );
    }

    #[test]
    fn lower_is_better_lines_carry_the_direction_key() {
        let m = Metric::lower("fault_resilience", "bees", "wasted_joules", 2.25);
        assert_eq!(
            m.to_json(),
            "{\"bench\":\"fault_resilience\",\"case\":\"bees\",\
             \"metric\":\"wasted_joules\",\"value\":2.250000,\"dir\":\"lower\"}"
        );
    }

    #[test]
    fn json_lines_end_with_newline() {
        let lines = to_json_lines(&[
            Metric::new("a", "b", "c", 1.0),
            Metric::new("d", "e", "f", 2.0),
        ]);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.ends_with('\n'));
    }
}
