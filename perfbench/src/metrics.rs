//! The metric registry, the result line, and process resource usage.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` lists the same names and units (a unit test keeps
//! the two in step). An untraced run prints every [`END_TO_END`] metric, a
//! traced run every [`PER_LAYER`] metric — a layer a workload never reaches
//! reads 0 there.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the library sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s"),
    def("records_per_s", "1/s"),
    def("cpu_s", "s"),
    def("peak_rss_mb", "MB"),
    def("setup_s", "s"),
];

/// Self times, counts and ratios of single layers, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("stats.mvn_s", "s"),
    def("noise.disguise_s", "s"),
    def("data.csv_read_s", "s"),
    def("data.csv_read_mb", "MB"),
    def("data.csv_write_s", "s"),
    def("data.csv_write_mb", "MB"),
    def("core.pass1_s", "s"),
    def("core.pass2_s", "s"),
    def("core.chunks", "count"),
    def("core.prepare_s", "s"),
    def("core.pass1_compute_s", "s"),
    def("core.map_s", "s"),
    def("core.sink_s", "s"),
    def("parallel.sink_wait_s", "s"),
    def("parallel.read_share", "ratio"),
    def("stats.posterior_quadrature_s", "s"),
    def("experiments.cells_rest_s", "s"),
    def("experiments.plan_s", "s"),
    def("experiments.shard_max_s", "s"),
    def("experiments.shard_skew", "ratio"),
    def("experiments.reduce_s", "s"),
    def("experiments.spawn_s", "s"),
    def("experiments.journal_mb", "MB"),
    def("experiments.datasets", "count"),
    def("trace.overhead", "ratio"),
    def("trace.unattributed_s", "s"),
    def("trace.depth1_wall_s", "s"),
];

/// Metric values of one run, keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one benchmark run: the last line it prints.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (stream runs, or sweep cells).
    pub attempted: usize,
    /// Operations whose output check failed.
    pub failed: usize,
    /// Each declared metric with its value, in declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Report {
    /// Pairs every metric of `defs` with its value. A missing, unknown or
    /// non-finite value is a bug in the benchmark and is reported as such.
    pub fn new(
        defs: &[MetricDef],
        values: &Values,
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<Report, String> {
        if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
            return Err(format!("metric '{extra}' is not declared for this run"));
        }
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            match values.get(d.name) {
                Some(v) if v.is_finite() => metrics.push((*d, *v)),
                Some(v) => return Err(format!("metric '{}' is not finite: {v}", d.name)),
                None => return Err(format!("metric '{}' was not measured", d.name)),
            }
        }
        if attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Every metric of `defs` at 0: the values of a layer a workload never
/// reaches.
pub fn zeroed(defs: &[MetricDef]) -> Values {
    defs.iter().map(|d| (d.name, 0.0)).collect()
}

/// The per-key median of several samples of the same metrics.
pub fn median_values(samples: &[Values]) -> Values {
    let mut out = Values::new();
    for key in samples[0].keys() {
        let column: Vec<f64> = samples.iter().map(|s| s[key]).collect();
        out.insert(*key, median(&column));
    }
    out
}

/// CPU time and peak resident set of a process (or of its waited-for
/// children), from `getrusage(2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub max_rss_mb: f64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

fn rusage(who: i32) -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked by the cfg above), and `who` is RUSAGE_SELF or
    // RUSAGE_CHILDREN, so the kernel writes only within it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: seconds(&ru.ru_utime) + seconds(&ru.ru_stime),
        max_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// This process, all threads.
pub fn own_usage() -> Usage {
    rusage(0)
}

/// All children this process has waited for.
pub fn children_usage() -> Usage {
    rusage(-1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid metric name: starts with a letter or digit, at most 64 letters,
    /// digits, `_`, `.` and `-`.
    fn is_valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn is_valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_unique_and_has_a_unit() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(is_valid_name(d.name), "invalid metric name {}", d.name);
            assert!(
                is_valid_unit(d.unit),
                "invalid unit {} of {}",
                d.unit,
                d.name
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.contains(&def("setup_s", "s")));
    }

    #[test]
    fn every_metric_and_workload_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::cli::Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn report_requires_every_declared_metric() {
        let mut values = Values::new();
        values.insert("wall_s", 1.5);
        assert!(Report::new(END_TO_END, &values, true, 1, 0).is_err());
        for d in END_TO_END {
            values.insert(d.name, 2.0);
        }
        let report = Report::new(END_TO_END, &values, true, 3, 0).expect("complete");
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"));
        values.insert("stats.mvn_s", 1.0);
        assert!(Report::new(END_TO_END, &values, true, 1, 0).is_err());
    }

    #[test]
    fn usage_is_measured() {
        let u = own_usage();
        assert!(u.cpu_s > 0.0 && u.max_rss_mb > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
