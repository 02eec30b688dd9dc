//! Rendering and persisting experiment results: figure series (console
//! table / CSV), and fail-soft **outcome** reports (console table / CSV /
//! JSON — the one report sink of every sweep), where failed cells render
//! alongside the completed ones instead of vanishing. [`sanity_checks`]
//! holds a finished sweep to finite RMSEs and cross-engine agreement.

use crate::config::ExperimentSeries;
use crate::error::{ExperimentError, Result};
use crate::scenario::{MetricKind, ScenarioOutcome, ScenarioResult};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// `File::create` with the failure located at the path it hit.
fn create_file(path: &Path) -> Result<std::fs::File> {
    std::fs::File::create(path).map_err(|e| ExperimentError::IoAt {
        path: path.to_path_buf(),
        source: e,
    })
}

fn write_all_at(file: &mut std::fs::File, path: &Path, bytes: &[u8]) -> Result<()> {
    file.write_all(bytes).map_err(|e| ExperimentError::IoAt {
        path: path.to_path_buf(),
        source: e,
    })
}

/// Writes an experiment series to a CSV file.
pub fn write_series_csv<P: AsRef<Path>>(series: &ExperimentSeries, path: P) -> Result<()> {
    let path = path.as_ref();
    let mut file = create_file(path)?;
    write_all_at(&mut file, path, series.to_csv().as_bytes())
}

/// Renders a set of series as one console report, separated by blank lines.
pub fn render_report(series: &[ExperimentSeries]) -> String {
    let mut out = String::new();
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&s.to_table());
    }
    out
}

/// Writes every series to `<dir>/<slug>.csv`, creating the directory if
/// needed, and returns the written paths.
pub fn write_report_csvs<P: AsRef<Path>>(
    series: &[ExperimentSeries],
    dir: P,
) -> Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(&dir).map_err(|e| ExperimentError::IoAt {
        path: dir.as_ref().to_path_buf(),
        source: e,
    })?;
    let mut paths = Vec::with_capacity(series.len());
    for s in series {
        let slug: String = s
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|p| !p.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let path = dir.as_ref().join(format!("{slug}.csv"));
        write_series_csv(s, &path)?;
        paths.push(path);
    }
    Ok(paths)
}

// ---------------------------------------------------------------------------
// Scenario-runner results
// ---------------------------------------------------------------------------

/// The metric columns every scenario report carries (blank when a scenario
/// did not request that metric).
const METRIC_COLUMNS: [MetricKind; 3] = [
    MetricKind::Rmse,
    MetricKind::Mse,
    MetricKind::NormalizedRmse,
];

/// RFC-4180 field escaping for the report CSVs: a field containing a comma,
/// a double quote, or a line break is wrapped in double quotes with embedded
/// quotes doubled; anything else passes through unchanged. Labels, attack
/// names, and error messages therefore round-trip exactly through any
/// RFC-4180 reader ([`randrecon_data::csv::parse_csv_text`] included).
fn csv_escape(field: &str) -> std::borrow::Cow<'_, str> {
    if !field.contains(['"', ',', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(field);
    }
    let mut out = String::with_capacity(field.len() + 2);
    out.push('"');
    for c in field.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
    std::borrow::Cow::Owned(out)
}

/// Renders an `f64` as a JSON token. Finite values print with `{v}`
/// round-trip formatting; non-finite values (NaN, ±inf) have no JSON number
/// representation and render as `null` — a bare `NaN` token would make the
/// whole document unparseable.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fnv64(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A deterministic digest of an outcome list: labels, `x` bits, record and
/// trial counts, metric kinds with exact value bits, degradation warnings,
/// and failure error/classification/attempt fields, folded into one FNV-1a
/// hash. Wall-clock `seconds` is excluded — the only nondeterministic field
/// — so two sweeps of the same grid hash identically whether run
/// single-process, resumed from a journal, or merged from shard journals
/// (watchdog restarts included). The `scenarios` binary prints this as
/// `outcome hash: <16 hex>` and CI compares the sharded and single-process
/// lines byte for byte.
pub fn outcomes_hash(outcomes: &[ScenarioOutcome]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let hash_result = |hash: &mut u64, r: &ScenarioResult| {
        fnv64(hash, r.label.bytes());
        fnv64(hash, r.x.to_bits().to_le_bytes());
        fnv64(hash, (r.n_records as u64).to_le_bytes());
        for (kind, value) in &r.metrics {
            fnv64(hash, format!("{kind:?}").bytes());
            fnv64(hash, value.to_bits().to_le_bytes());
        }
    };
    for outcome in outcomes {
        match outcome {
            ScenarioOutcome::Completed(r) => hash_result(&mut hash, r),
            ScenarioOutcome::Degraded(r) => {
                hash_result(&mut hash, r);
                // A degraded cell must never hash like a clean one.
                fnv64(&mut hash, *b"degraded");
                for w in &r.warnings {
                    fnv64(&mut hash, w.bytes());
                }
            }
            ScenarioOutcome::Failed(f) => {
                fnv64(&mut hash, f.label.bytes());
                fnv64(&mut hash, f.error.bytes());
                fnv64(
                    &mut hash,
                    [
                        u8::from(f.transient),
                        u8::from(f.timed_out),
                        f.attempts as u8,
                    ],
                );
            }
        }
    }
    hash
}

/// Renders scenario results as a fixed-width console table, one row per
/// scenario in runner order.
pub fn results_table(results: &[ScenarioResult]) -> String {
    let label_width = results
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<label_width$} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "scenario", "engine", "records", "rmse", "seconds", "kept"
    );
    for r in results {
        let rmse = r
            .rmse()
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|| "-".to_string());
        let kept = r
            .components_kept
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<label_width$} {:>10} {:>10} {:>12} {:>12.4} {:>8}",
            r.label, r.engine, r.n_records, rmse, r.seconds, kept
        );
    }
    out
}

/// Escapes a string for a JSON string literal (the workspace serde is an
/// offline stub, so JSON is emitted by hand).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fail-soft outcome reports
// ---------------------------------------------------------------------------

/// Renders fail-soft outcomes: the completed **and degraded** cells as the
/// usual results table, then — each section only when non-empty — a
/// degraded section listing every cell that finished through a numerical
/// fallback with its warnings, and a failure section listing each dead cell
/// with its error, attempt count, and classification
/// (`deterministic` / `transient` / `timed-out`). A sweep where every cell
/// completed cleanly renders identically to [`results_table`].
pub fn outcomes_table(outcomes: &[ScenarioOutcome]) -> String {
    let completed: Vec<ScenarioResult> = outcomes
        .iter()
        .filter_map(|o| o.as_completed().cloned())
        .collect();
    let mut out = results_table(&completed);
    let degraded: Vec<_> = outcomes
        .iter()
        .filter_map(|o| match o {
            ScenarioOutcome::Degraded(r) => Some(r),
            _ => None,
        })
        .collect();
    if !degraded.is_empty() {
        let _ = writeln!(
            out,
            "\ndegraded scenarios ({} of {}):",
            degraded.len(),
            outcomes.len()
        );
        for r in degraded {
            let _ = writeln!(out, "  {} [{} / {}]:", r.label, r.attack, r.engine);
            for w in &r.warnings {
                let _ = writeln!(out, "    {w}");
            }
        }
    }
    let failures: Vec<_> = outcomes
        .iter()
        .filter_map(|o| match o {
            ScenarioOutcome::Failed(f) => Some(f),
            _ => None,
        })
        .collect();
    if !failures.is_empty() {
        let _ = writeln!(
            out,
            "\nfailed scenarios ({} of {}):",
            failures.len(),
            outcomes.len()
        );
        for f in failures {
            let _ = writeln!(
                out,
                "  {} [{} / {}]: {} ({}, {} attempt{})",
                f.label,
                f.attack,
                f.engine,
                f.error,
                f.classification(),
                f.attempts,
                if f.attempts == 1 { "" } else { "s" }
            );
        }
    }
    out
}

/// Renders fail-soft outcomes as CSV: the results columns plus `status`
/// (`completed` / `degraded` / `failed`), `classification`
/// (`deterministic` / `transient` / `timed-out`, failed cells only),
/// `attempts`, and `error` — the last column carries the semicolon-joined
/// degradation warnings for degraded cells and the error message for failed
/// ones.
pub fn outcomes_to_csv(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from("label,x,scheme,attack,engine,records,trials,components_kept");
    for metric in METRIC_COLUMNS {
        out.push(',');
        out.push_str(metric.label());
    }
    out.push_str(",status,classification,attempts,error\n");
    for outcome in outcomes {
        match outcome {
            ScenarioOutcome::Completed(r) | ScenarioOutcome::Degraded(r) => {
                let _ = write!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    csv_escape(&r.label),
                    r.x,
                    r.scheme.map(|s| s.label()).unwrap_or(""),
                    csv_escape(&r.attack),
                    r.engine,
                    r.n_records,
                    r.trials,
                    r.components_kept.map(|p| p.to_string()).unwrap_or_default(),
                );
                for metric in METRIC_COLUMNS {
                    out.push(',');
                    if let Some(v) = r.metric(metric) {
                        let _ = write!(out, "{v}");
                    }
                }
                if matches!(outcome, ScenarioOutcome::Degraded(_)) {
                    let _ = writeln!(out, ",degraded,,,{}", csv_escape(&r.warnings.join("; ")));
                } else {
                    out.push_str(",completed,,,\n");
                }
            }
            ScenarioOutcome::Failed(f) => {
                let _ = write!(
                    out,
                    "{},,,{},{},,,",
                    csv_escape(&f.label),
                    csv_escape(&f.attack),
                    f.engine,
                );
                for _ in METRIC_COLUMNS {
                    out.push(',');
                }
                let _ = writeln!(
                    out,
                    ",failed,{},{},{}",
                    f.classification(),
                    f.attempts,
                    csv_escape(&f.error)
                );
            }
        }
    }
    out
}

/// Renders fail-soft outcomes as a JSON array; completed cells carry
/// `"status": "completed"` plus the usual result fields, degraded cells the
/// same fields with `"status": "degraded"` and a `"warnings"` array, and
/// failed cells `"status": "failed"` with the error, classification flags,
/// and attempt count.
pub fn outcomes_to_json(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from("[\n");
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ScenarioOutcome::Completed(r) | ScenarioOutcome::Degraded(r) => {
                let status = if matches!(outcome, ScenarioOutcome::Degraded(_)) {
                    "degraded"
                } else {
                    "completed"
                };
                let _ = write!(
                    out,
                    "  {{\"status\": \"{status}\", \"label\": \"{}\", \"x\": {}, \
                     \"scheme\": {}, \"attack\": \"{}\", \"engine\": \"{}\", \
                     \"records\": {}, \"trials\": {}, \"components_kept\": {}, \
                     \"seconds\": {}",
                    json_escape(&r.label),
                    json_f64(r.x),
                    r.scheme
                        .map(|s| format!("\"{}\"", s.label()))
                        .unwrap_or_else(|| "null".to_string()),
                    json_escape(&r.attack),
                    r.engine,
                    r.n_records,
                    r.trials,
                    r.components_kept
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "null".to_string()),
                    json_f64(r.seconds),
                );
                for &(metric, value) in &r.metrics {
                    let _ = write!(out, ", \"{}\": {}", metric.label(), json_f64(value));
                }
                if !r.warnings.is_empty() {
                    out.push_str(", \"warnings\": [");
                    for (j, w) in r.warnings.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{}\"", json_escape(w));
                    }
                    out.push(']');
                }
                out.push('}');
            }
            ScenarioOutcome::Failed(f) => {
                let _ = write!(
                    out,
                    "  {{\"status\": \"failed\", \"label\": \"{}\", \"attack\": \"{}\", \
                     \"engine\": \"{}\", \"error\": \"{}\", \"transient\": {}, \
                     \"timed_out\": {}, \"classification\": \"{}\", \"attempts\": {}}}",
                    json_escape(&f.label),
                    json_escape(&f.attack),
                    f.engine,
                    json_escape(&f.error),
                    f.transient,
                    f.timed_out,
                    f.classification(),
                    f.attempts,
                );
            }
        }
        if i + 1 < outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// One-line sweep summary: completed/failed counts — with a degraded count
/// inserted whenever any cell finished through a numerical fallback — plus
/// how many cells were resumed from a journal when `resumed > 0`.
pub fn outcomes_summary(outcomes: &[ScenarioOutcome], resumed: usize) -> String {
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let degraded = outcomes.iter().filter(|o| o.is_degraded()).count();
    let completed = outcomes.len() - failed - degraded;
    let mut out = format!(
        "{} scenario{}: {completed} completed, ",
        outcomes.len(),
        if outcomes.len() == 1 { "" } else { "s" },
    );
    if degraded > 0 {
        let _ = write!(out, "{degraded} degraded, ");
    }
    let _ = write!(out, "{failed} failed");
    if resumed > 0 {
        let _ = write!(out, " ({resumed} resumed from journal)");
    }
    out
}

/// Writes fail-soft outcomes as CSV to `path`.
pub fn write_outcomes_csv<P: AsRef<Path>>(outcomes: &[ScenarioOutcome], path: P) -> Result<()> {
    let path = path.as_ref();
    let mut file = create_file(path)?;
    write_all_at(&mut file, path, outcomes_to_csv(outcomes).as_bytes())
}

/// Writes fail-soft outcomes as JSON to `path`.
pub fn write_outcomes_json<P: AsRef<Path>>(outcomes: &[ScenarioOutcome], path: P) -> Result<()> {
    let path = path.as_ref();
    let mut file = create_file(path)?;
    write_all_at(&mut file, path, outcomes_to_json(outcomes).as_bytes())
}

/// Largest relative RMSE gap allowed between two cells that differ only in
/// their engine. The engines share estimators but not noise streams (the
/// disguise realizations differ), so agreement is statistical — within a
/// few percent at smoke sizes, not bitwise.
pub const ENGINE_AGREEMENT: f64 = 0.15;

/// What [`sanity_checks`] found in a finished sweep.
#[derive(Debug, Default)]
pub struct SanityChecks {
    /// Cross-engine pairs compared.
    pub pairs: usize,
    /// One line per problem, naming the cell(s).
    pub problems: Vec<String>,
}

/// Sanity checks over the cells of a sweep that produced a result: every
/// RMSE must be finite, and every two cells whose labels differ only in
/// their `engine=` segment must agree within [`ENGINE_AGREEMENT`] of the
/// first cell's RMSE. Failed cells are skipped (they are reported as
/// failures), as are non-finite cells once flagged.
pub fn sanity_checks(outcomes: &[ScenarioOutcome]) -> SanityChecks {
    let mut checks = SanityChecks::default();
    // Cells keyed by their label minus the engine segment, in grid order.
    let mut groups: Vec<(String, Vec<(&str, f64)>)> = Vec::new();
    for r in outcomes.iter().filter_map(ScenarioOutcome::as_completed) {
        let rmse = r.rmse().unwrap_or(f64::NAN);
        if !rmse.is_finite() {
            checks
                .problems
                .push(format!("non-finite RMSE in {}", r.label));
            continue;
        }
        let segments: Vec<&str> = r.label.split('/').collect();
        let key: Vec<&str> = segments
            .iter()
            .copied()
            .filter(|seg| !seg.starts_with("engine="))
            .collect();
        if key.len() == segments.len() {
            continue;
        }
        let key = key.join("/");
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cells)) => cells.push((&r.label, rmse)),
            None => groups.push((key, vec![(&r.label, rmse)])),
        }
    }
    for (_, cells) in &groups {
        for (i, &(a, rmse_a)) in cells.iter().enumerate() {
            for &(b, rmse_b) in &cells[i + 1..] {
                checks.pairs += 1;
                let gap = (rmse_a - rmse_b).abs() / rmse_a;
                let agree = gap < ENGINE_AGREEMENT;
                if !agree {
                    checks.problems.push(format!(
                        "engines disagree: {a} RMSE {rmse_a} vs {b} RMSE {rmse_b} \
                         ({:.1}% apart, limit {:.0}%)",
                        gap * 100.0,
                        ENGINE_AGREEMENT * 100.0
                    ));
                }
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeKind, SeriesPoint};

    fn sample() -> ExperimentSeries {
        ExperimentSeries {
            name: "Figure 9: made up".to_string(),
            x_label: "x".to_string(),
            points: vec![SeriesPoint {
                x: 1.0,
                rmse: vec![(SchemeKind::Udr, 2.0)],
            }],
        }
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("randrecon_report_test");
        let paths = write_report_csvs(&[sample()], &dir).unwrap();
        assert_eq!(paths.len(), 1);
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.contains("UDR"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_report_concatenates() {
        let text = render_report(&[sample(), sample()]);
        assert_eq!(text.matches("Figure 9").count(), 2);
    }

    fn sample_outcomes() -> Vec<ScenarioOutcome> {
        use crate::scenario::ScenarioFailure;
        vec![
            ScenarioOutcome::Completed(ScenarioResult {
                label: "grid/ok".to_string(),
                x: 1.0,
                scheme: Some(SchemeKind::BeDr),
                attack: "BE-DR".to_string(),
                engine: "in-memory",
                n_records: 100,
                trials: 1,
                metrics: vec![(MetricKind::Rmse, 2.5)],
                components_kept: None,
                seconds: 0.01,
                warnings: Vec::new(),
            }),
            ScenarioOutcome::Failed(ScenarioFailure {
                label: "grid/dead".to_string(),
                attack: "fault[Error]".to_string(),
                engine: "in-memory",
                error: "injected fault, with a comma".to_string(),
                transient: false,
                timed_out: false,
                attempts: 1,
            }),
        ]
    }

    fn sample_degraded() -> ScenarioOutcome {
        let ScenarioOutcome::Completed(mut r) = sample_outcomes().remove(0) else {
            unreachable!("first sample outcome is Completed");
        };
        r.label = "grid/repaired".to_string();
        r.warnings = vec!["BE-DR: Cholesky failed; recovered via SPD repair".to_string()];
        ScenarioOutcome::Degraded(r)
    }

    #[test]
    fn outcomes_table_lists_failures() {
        let text = outcomes_table(&sample_outcomes());
        assert!(text.contains("grid/ok"));
        assert!(text.contains("failed scenarios (1 of 2)"));
        assert!(text.contains("grid/dead"));
        assert!(text.contains("deterministic"));
        // No failure section when everything completed.
        let all_ok = vec![sample_outcomes().remove(0)];
        assert!(!outcomes_table(&all_ok).contains("failed scenarios"));
    }

    #[test]
    fn outcomes_csv_and_json_carry_status() {
        let outcomes = sample_outcomes();
        let csv = outcomes_to_csv(&outcomes);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("status,classification,attempts,error"));
        assert!(csv.contains(",completed,,,"));
        // The comma-bearing error is RFC-4180 quoted, not flattened.
        assert!(csv.contains(",failed,deterministic,1,\"injected fault, with a comma\""));
        let json = outcomes_to_json(&outcomes);
        assert!(json.contains("\"status\": \"completed\""));
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"transient\": false"));
        assert!(json.contains("\"timed_out\": false"));
        assert!(json.contains("\"classification\": \"deterministic\""));
        // Completed cells carry no warnings array.
        assert!(!json.contains("\"warnings\""));
    }

    #[test]
    fn degraded_outcomes_render_distinctly_everywhere() {
        let mut outcomes = sample_outcomes();
        outcomes.push(sample_degraded());
        let table = outcomes_table(&outcomes);
        // The degraded cell sits in the results table *and* its own section.
        assert!(table.contains("grid/repaired"));
        assert!(table.contains("degraded scenarios (1 of 3):"));
        assert!(table.contains("recovered via SPD repair"));
        let csv = outcomes_to_csv(&outcomes);
        assert!(csv.contains(",degraded,,,BE-DR: Cholesky failed; recovered via SPD repair"));
        let json = outcomes_to_json(&outcomes);
        assert!(json.contains("\"status\": \"degraded\""));
        assert!(
            json.contains("\"warnings\": [\"BE-DR: Cholesky failed; recovered via SPD repair\"]")
        );
    }

    #[test]
    fn timed_out_failures_are_classified_in_reports() {
        let mut outcomes = sample_outcomes();
        if let ScenarioOutcome::Failed(f) = &mut outcomes[1] {
            f.timed_out = true;
            f.error = "cancelled: cell deadline exceeded".to_string();
        }
        assert!(outcomes_table(&outcomes).contains("(timed-out, 1 attempt)"));
        assert!(outcomes_to_csv(&outcomes).contains(",failed,timed-out,1,"));
        assert!(outcomes_to_json(&outcomes).contains("\"classification\": \"timed-out\""));
    }

    #[test]
    fn csv_escape_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape(""), "");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
    }

    #[test]
    fn csv_fields_roundtrip_through_shared_parser() {
        // Adversarial label/attack/error strings survive emit → parse exactly.
        use randrecon_data::csv::parse_csv_text;
        let mut outcomes = sample_outcomes();
        if let ScenarioOutcome::Completed(r) = &mut outcomes[0] {
            r.label = "grid,with \"quotes\"\nand newline".to_string();
            r.attack = "BE-DR, tuned".to_string();
        }
        if let ScenarioOutcome::Failed(f) = &mut outcomes[1] {
            f.error = "line one\nline two, with comma and \"quote\"".to_string();
        }
        let records = parse_csv_text(&outcomes_to_csv(&outcomes)).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1][0], "grid,with \"quotes\"\nand newline");
        assert_eq!(records[1][3], "BE-DR, tuned");
        assert_eq!(
            records[2].last().unwrap(),
            "line one\nline two, with comma and \"quote\""
        );
    }

    #[test]
    fn json_renders_non_finite_as_null() {
        let mut outcomes = sample_outcomes();
        if let ScenarioOutcome::Completed(r) = &mut outcomes[0] {
            r.metrics = vec![
                (MetricKind::Rmse, f64::NAN),
                (MetricKind::Mse, f64::INFINITY),
            ];
            r.x = f64::NEG_INFINITY;
        }
        let json = outcomes_to_json(&outcomes);
        assert!(json.contains("\"rmse\": null"), "{json}");
        assert!(json.contains("\"mse\": null"), "{json}");
        assert!(json.contains("\"x\": null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn outcome_hash_ignores_seconds_but_sees_everything_else() {
        let a = sample_outcomes();
        let mut b = sample_outcomes();
        if let ScenarioOutcome::Completed(r) = &mut b[0] {
            r.seconds += 123.0;
        }
        assert_eq!(outcomes_hash(&a), outcomes_hash(&b));
        if let ScenarioOutcome::Completed(r) = &mut b[0] {
            r.metrics[0].1 += 1e-12;
        }
        assert_ne!(outcomes_hash(&a), outcomes_hash(&b));
        let mut c = sample_outcomes();
        if let ScenarioOutcome::Failed(f) = &mut c[1] {
            f.attempts += 1;
        }
        assert_ne!(outcomes_hash(&a), outcomes_hash(&c));
        // The timed-out flag and the degraded marker both change the hash.
        let mut d = sample_outcomes();
        if let ScenarioOutcome::Failed(f) = &mut d[1] {
            f.timed_out = true;
        }
        assert_ne!(outcomes_hash(&a), outcomes_hash(&d));
        let ScenarioOutcome::Degraded(degraded) = sample_degraded() else {
            unreachable!()
        };
        let clean = ScenarioOutcome::Completed(ScenarioResult {
            warnings: Vec::new(),
            ..degraded.clone()
        });
        assert_ne!(
            outcomes_hash(&[ScenarioOutcome::Degraded(degraded)]),
            outcomes_hash(&[clean])
        );
    }

    fn cell(label: &str, rmse: f64) -> ScenarioOutcome {
        let ScenarioOutcome::Completed(mut r) = sample_outcomes().remove(0) else {
            unreachable!("first sample outcome is Completed");
        };
        r.label = label.to_string();
        r.metrics = vec![(MetricKind::Rmse, rmse)];
        ScenarioOutcome::Completed(r)
    }

    #[test]
    fn sanity_checks_pair_cells_that_differ_only_in_engine() {
        let outcomes = vec![
            cell("g/noise=a/engine=in-memory/scheme=UDR", 2.0),
            cell("g/noise=a/engine=in-memory/scheme=BE-DR", 1.0),
            cell("g/noise=a/engine=streaming(256)/scheme=UDR", 2.1),
            cell("g/noise=a/engine=streaming(256)/scheme=BE-DR", 1.05),
            // No engine twin: never paired.
            cell("g/noise=b/engine=in-memory/scheme=UDR", 9.0),
            // No engine segment at all: never paired.
            cell("figure1/m=0:5/scheme=UDR", 3.0),
            sample_outcomes().remove(1),
        ];
        let checks = sanity_checks(&outcomes);
        assert_eq!(checks.pairs, 2);
        assert!(checks.problems.is_empty(), "{:?}", checks.problems);
    }

    #[test]
    fn sanity_checks_name_the_cells_of_each_problem() {
        let outcomes = vec![
            cell("g/engine=in-memory/scheme=UDR", 2.0),
            cell("g/engine=streaming(256)/scheme=UDR", 2.5),
            cell("g/engine=in-memory/scheme=SF", f64::NAN),
            cell("g/engine=streaming(256)/scheme=SF", 1.0),
        ];
        let checks = sanity_checks(&outcomes);
        // The NaN cell is flagged and left out of its pair.
        assert_eq!(checks.pairs, 1);
        assert_eq!(
            checks.problems,
            vec![
                "non-finite RMSE in g/engine=in-memory/scheme=SF".to_string(),
                "engines disagree: g/engine=in-memory/scheme=UDR RMSE 2 vs \
                 g/engine=streaming(256)/scheme=UDR RMSE 2.5 (25.0% apart, limit 15%)"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn summary_counts_and_resume_note() {
        let outcomes = sample_outcomes();
        assert_eq!(
            outcomes_summary(&outcomes, 0),
            "2 scenarios: 1 completed, 1 failed"
        );
        assert_eq!(
            outcomes_summary(&outcomes, 5),
            "2 scenarios: 1 completed, 1 failed (5 resumed from journal)"
        );
        let mut with_degraded = sample_outcomes();
        with_degraded.push(sample_degraded());
        assert_eq!(
            outcomes_summary(&with_degraded, 0),
            "3 scenarios: 1 completed, 1 degraded, 1 failed"
        );
    }
}
