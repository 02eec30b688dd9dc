//! Report-format invariants, checked through *independent* parsers:
//!
//! * **CSV column-count invariant** — every row the outcome renderer emits
//!   (completed, degraded and failed cells, with and without optional fields,
//!   adversarial labels full of commas/quotes/newlines) parses through the
//!   shared RFC-4180 record parser in `randrecon-data` to exactly the
//!   header's column count. This is the regression fence for the old lossy
//!   `replace(',', ";")` escaping, which silently changed field contents
//!   and could not round-trip embedded quotes or newlines at all.
//! * **JSON validity under non-finite metrics** — a hand-rolled
//!   recursive-descent JSON parser (no external deps in this workspace)
//!   accepts every emitted document even when metrics, x, or seconds are
//!   NaN/±inf, which the emitters must render as `null` (bare `NaN` is not
//!   JSON and breaks every downstream consumer).

use randrecon_data::csv::parse_csv_text;
use randrecon_experiments::report::{outcomes_to_csv, outcomes_to_json};
use randrecon_experiments::scenario::{
    MetricKind, ScenarioFailure, ScenarioOutcome, ScenarioResult,
};
use randrecon_experiments::SchemeKind;

/// A completed cell with every pathological field the CSV layer must
/// survive: label/attack with commas, double quotes, newlines, CR, and a
/// metric set that includes non-finite values.
fn adversarial_result(tag: &str, components: Option<usize>, metric: f64) -> ScenarioResult {
    ScenarioResult {
        label: format!("cell \"{tag}\", with, commas\nand a newline"),
        x: 8.0,
        scheme: Some(SchemeKind::Udr),
        attack: "scheme=UDR, variant=\"quoted\"\r\nwindows line".to_string(),
        engine: "in-memory",
        n_records: 2_000,
        trials: 3,
        metrics: vec![
            (MetricKind::Rmse, metric),
            (MetricKind::Mse, metric * metric),
        ],
        components_kept: components,
        seconds: 0.25,
        warnings: Vec::new(),
    }
}

fn adversarial_failure(tag: &str) -> ScenarioFailure {
    ScenarioFailure {
        label: format!("failed \"{tag}\", cell"),
        attack: "fault, injected".to_string(),
        engine: "streaming",
        error: "boom: expected \"x\", got \"y\",\nthen the disk\r\nwent away".to_string(),
        transient: true,
        timed_out: false,
        attempts: 3,
    }
}

/// A degraded cell whose warnings carry the same CSV-hostile characters as
/// the adversarial labels.
fn adversarial_degraded(tag: &str) -> ScenarioResult {
    let mut r = adversarial_result(tag, Some(1), 0.5);
    r.warnings = vec![
        "BE-DR: Cholesky failed (\"not positive definite\"),\nrepaired".to_string(),
        "second warning, with commas".to_string(),
    ];
    r
}

fn mixed_outcomes() -> Vec<ScenarioOutcome> {
    vec![
        ScenarioOutcome::Completed(adversarial_result("a", Some(4), 1.5)),
        ScenarioOutcome::Completed(adversarial_result("b", None, f64::NAN)),
        ScenarioOutcome::Failed(adversarial_failure("c")),
        ScenarioOutcome::Completed(adversarial_result("d", Some(2), f64::INFINITY)),
        ScenarioOutcome::Failed(adversarial_failure("e")),
        ScenarioOutcome::Degraded(adversarial_degraded("g")),
    ]
}

/// Parses `csv` with the shared reader and asserts every record — header
/// included — has exactly the header's field count.
fn assert_rectangular(csv: &str, what: &str) -> Vec<Vec<String>> {
    let records = parse_csv_text(csv)
        .unwrap_or_else(|e| panic!("{what}: emitted CSV failed the shared parser: {e}"));
    let width = records[0].len();
    for (i, record) in records.iter().enumerate() {
        assert_eq!(
            record.len(),
            width,
            "{what}: record {i} has {} fields, header has {width}",
            record.len()
        );
    }
    records
}

#[test]
fn outcomes_csv_rows_match_header_column_count() {
    let outcomes = mixed_outcomes();
    let records = assert_rectangular(&outcomes_to_csv(&outcomes), "outcomes_to_csv");
    // results columns + status, classification, attempts, error.
    assert_eq!(records[0].len(), 15);
    assert_eq!(records.len(), outcomes.len() + 1);
    // Completed rows round-trip their label and attack unmangled.
    let ScenarioOutcome::Completed(first) = &outcomes[0] else {
        unreachable!("mixed_outcomes starts with a completed cell");
    };
    assert_eq!(records[1][0], first.label);
    assert_eq!(records[1][3], first.attack);
    // Failed rows round-trip their error text exactly — newlines and all.
    let failed = &records[3];
    assert_eq!(failed[11], "failed");
    assert_eq!(failed[12], "transient");
    assert_eq!(failed[13], "3");
    assert_eq!(
        failed[14],
        "boom: expected \"x\", got \"y\",\nthen the disk\r\nwent away"
    );
    // Completed rows carry empty classification/error fields, not missing
    // ones.
    assert_eq!(records[1][11], "completed");
    assert_eq!(records[1][12], "");
    assert_eq!(records[1][14], "");
    // Degraded rows put their semicolon-joined warnings — CSV-hostile
    // characters included — in the error column, round-tripped exactly.
    let degraded = &records[6];
    assert_eq!(degraded[11], "degraded");
    assert_eq!(
        degraded[14],
        "BE-DR: Cholesky failed (\"not positive definite\"),\nrepaired; \
         second warning, with commas"
    );
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validity checker. Accepts exactly the
// RFC 8259 grammar (objects, arrays, strings with escapes, numbers, the
// three literals) — so a bare `NaN`/`Infinity` token fails it.
// ---------------------------------------------------------------------------

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn check(text: &'a str) -> Result<(), String> {
        let mut p = Json {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err("bad \\u escape".to_string()),
                                }
                            }
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                Some(0x00..=0x1F) => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("number with no digits at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

#[test]
fn json_checker_rejects_bare_nan() {
    assert!(Json::check(r#"{"x": 1.5e-3, "y": [null, true]}"#).is_ok());
    assert!(Json::check(r#"{"x": NaN}"#).is_err());
    assert!(Json::check(r#"{"x": Infinity}"#).is_err());
    assert!(Json::check(r#"{"x": -inf}"#).is_err());
}

/// NaN, +inf, and -inf in metrics / x / seconds must yield documents a
/// strict JSON parser accepts (rendered as `null`).
#[test]
fn emitted_json_is_valid_with_non_finite_values() {
    let mut weird = adversarial_result("nan", None, f64::NAN);
    weird.x = f64::INFINITY;
    weird.seconds = f64::NEG_INFINITY;
    weird
        .metrics
        .push((MetricKind::NormalizedRmse, f64::NEG_INFINITY));
    let outcomes = vec![
        ScenarioOutcome::Completed(adversarial_result("ok", Some(3), 2.0)),
        ScenarioOutcome::Completed(weird),
        ScenarioOutcome::Failed(adversarial_failure("f")),
        ScenarioOutcome::Degraded(adversarial_degraded("g")),
    ];
    let doc = outcomes_to_json(&outcomes);
    Json::check(&doc)
        .unwrap_or_else(|e| panic!("outcomes_to_json emitted invalid JSON: {e}\n{doc}"));
    assert!(doc.contains("null"), "non-finite values should become null");
}
