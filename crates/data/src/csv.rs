//! Minimal CSV serialization for [`DataTable`]s.
//!
//! The examples persist generated and reconstructed data sets so they can be
//! inspected with external tooling; a hand-rolled writer/reader keeps the
//! workspace free of extra dependencies. The writer emits the plain subset
//! (no quoting — it only ever writes numbers), while the reader understands
//! RFC-4180 quoting: fields wrapped in double quotes may contain commas,
//! doubled quotes, and line breaks. [`split_csv_fields`] and
//! [`parse_csv_text`] expose that field-level layer for non-numeric CSV
//! (the experiment report files), so every CSV consumer in the workspace
//! shares one grammar.
//!
//! Two access granularities share one parser:
//!
//! * [`read_csv`] / [`from_csv_string`] build the whole [`DataTable`] — fine
//!   for the paper-scale experiments.
//! * [`CsvChunkReader`] iterates the same format `chunk_rows` records at a
//!   time and implements [`RecordChunkSource`], so the streaming attack
//!   engine can sweep a file twice with bounded memory. [`CsvChunkWriter`]
//!   is the matching buffered sink: header once, then appended chunks.

use crate::chunks::RecordChunkSource;
use crate::error::{DataError, Result};
use crate::schema::{Attribute, Schema};
use crate::table::DataTable;
use randrecon_linalg::Matrix;
use std::io::{BufRead, BufReader, BufWriter, Lines, Read, Write};
use std::path::{Path, PathBuf};

/// Serializes a table to CSV text (header + one line per record).
pub fn to_csv_string(table: &DataTable) -> String {
    let mut out = String::new();
    out.push_str(&table.schema().names().join(","));
    out.push('\n');
    for record in table.records() {
        let row: Vec<String> = record.iter().map(|v| format!("{v}")).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Writes a table as CSV to any writer.
pub fn write_csv<W: Write>(table: &DataTable, writer: &mut W) -> Result<()> {
    writer.write_all(to_csv_string(table).as_bytes())?;
    Ok(())
}

/// Writes a table as CSV to a file path.
pub fn write_csv_file<P: AsRef<Path>>(table: &DataTable, path: P) -> Result<()> {
    let mut file = std::fs::File::create(&path).map_err(|source| DataError::IoAt {
        path: path.as_ref().to_path_buf(),
        source,
    })?;
    write_csv(table, &mut file)
}

/// Splits one CSV record into its fields, RFC-4180 style: a field wrapped
/// in double quotes may contain commas, line breaks, and doubled (`""`)
/// quotes; unquoted fields pass through verbatim. Structural violations —
/// an unterminated quote, a stray quote inside an unquoted field, or text
/// after a closing quote — return `Err(reason)`; callers attach the line
/// location they know and this layer does not.
pub fn split_csv_fields(record: &str) -> std::result::Result<Vec<String>, String> {
    #[derive(PartialEq)]
    enum State {
        FieldStart,
        Unquoted,
        Quoted,
        QuoteClosed,
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut state = State::FieldStart;
    let mut chars = record.chars().peekable();
    while let Some(c) = chars.next() {
        match state {
            State::FieldStart => match c {
                '"' => state = State::Quoted,
                ',' => fields.push(std::mem::take(&mut field)),
                c => {
                    field.push(c);
                    state = State::Unquoted;
                }
            },
            State::Unquoted => match c {
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    state = State::FieldStart;
                }
                '"' => return Err("quote inside unquoted field".to_string()),
                c => field.push(c),
            },
            State::Quoted => match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => state = State::QuoteClosed,
                c => field.push(c),
            },
            State::QuoteClosed => match c {
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    state = State::FieldStart;
                }
                other => return Err(format!("unexpected '{other}' after closing quote")),
            },
        }
    }
    if state == State::Quoted {
        return Err("unterminated quoted field".to_string());
    }
    fields.push(field);
    Ok(fields)
}

/// Parses a full CSV text into records of string fields, RFC-4180 style:
/// record boundaries are newlines *outside* quotes, so a quoted field may
/// span physical lines. Blank records are skipped (matching the numeric
/// reader); errors are located at the record's first physical line. This is
/// the field-level entry point the experiment report tests round-trip
/// through — the numeric [`read_csv`] path shares [`split_csv_fields`].
pub fn parse_csv_text(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut start = 0usize;
    let mut line = 1usize;
    let mut inner_newlines = 0usize;
    let mut in_quotes = false;
    fn push_record(raw: &str, line: usize, records: &mut Vec<Vec<String>>) -> Result<()> {
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        if raw.is_empty() {
            return Ok(());
        }
        let fields = split_csv_fields(raw).map_err(|reason| DataError::Parse { line, reason })?;
        records.push(fields);
        Ok(())
    }
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                push_record(&text[start..i], line, &mut records)?;
                start = i + 1;
                line += inner_newlines + 1;
                inner_newlines = 0;
            }
            b'\n' => inner_newlines += 1,
            _ => {}
        }
    }
    push_record(&text[start..], line, &mut records)?;
    Ok(records)
}

/// Parses a header line into a schema (every attribute marked sensitive).
fn parse_header(header: &str) -> Result<Schema> {
    let names: Vec<String> = if header.contains('"') {
        split_csv_fields(header).map_err(|reason| DataError::Parse { line: 1, reason })?
    } else {
        header.split(',').map(|s| s.trim().to_string()).collect()
    };
    if names.iter().any(|n| n.is_empty()) {
        return Err(DataError::Parse {
            line: 1,
            reason: "header contains an empty attribute name".to_string(),
        });
    }
    Schema::new(names.iter().map(Attribute::sensitive).collect())
}

/// Parses one record line into `m` numbers, appending them to `out`.
/// `line_no` is the 1-based physical line for error reporting; malformed
/// values are located by their 1-based column too. Rust's `f64` parser
/// accepts `NaN` and `inf`; such cells are rejected here, at the source
/// boundary, rather than flowing silently into the moments. On any error
/// the partial row is rolled back, so `out` always holds whole rows.
fn parse_record(line: &str, m: usize, line_no: usize, out: &mut Vec<f64>) -> Result<()> {
    let start = out.len();
    let push = |col: usize, f: &str, out: &mut Vec<f64>| -> Result<()> {
        let problem = match f.parse::<f64>() {
            Ok(v) if v.is_finite() => {
                out.push(v);
                return Ok(());
            }
            Ok(_) => "is not a finite number",
            Err(_) => "is not a number",
        };
        out.truncate(start);
        Err(DataError::Parse {
            line: line_no,
            reason: format!("column {}: '{f}' {problem}", col + 1),
        })
    };
    if line.contains('"') {
        // Quoted (RFC-4180) row: split field-aware, then parse each field.
        let fields = split_csv_fields(line).map_err(|reason| DataError::Parse {
            line: line_no,
            reason,
        })?;
        if fields.len() != m {
            return Err(DataError::Parse {
                line: line_no,
                reason: format!("expected {m} fields, found {}", fields.len()),
            });
        }
        for (col, f) in fields.iter().enumerate() {
            push(col, f.trim(), out)?;
        }
        return Ok(());
    }
    let fields = line.split(',').count();
    if fields != m {
        return Err(DataError::Parse {
            line: line_no,
            reason: format!("expected {m} fields, found {fields}"),
        });
    }
    for (col, f) in line.split(',').enumerate() {
        push(col, f.trim(), out)?;
    }
    Ok(())
}

/// Parses a table from CSV text.
pub fn from_csv_string(text: &str) -> Result<DataTable> {
    read_csv(&mut text.as_bytes())
}

/// Reads a table from any reader producing CSV.
pub fn read_csv<R: Read>(reader: &mut R) -> Result<DataTable> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => {
            return Err(DataError::Parse {
                line: 1,
                reason: "empty input (missing header row)".to_string(),
            })
        }
    };
    let schema = parse_header(&header)?;
    let m = schema.len();

    let mut data: Vec<f64> = Vec::new();
    let mut n = 0usize;
    for (idx, line) in lines.enumerate() {
        let line = line?;
        let line_no = idx + 2;
        if line.trim().is_empty() {
            continue;
        }
        parse_record(&line, m, line_no, &mut data)?;
        n += 1;
    }
    if n == 0 {
        return Err(DataError::Parse {
            line: 2,
            reason: "no data rows".to_string(),
        });
    }
    let values = Matrix::from_flat(n, m, data)?;
    DataTable::new(schema, values)
}

/// Reads a table from a CSV file.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<DataTable> {
    let mut file = std::fs::File::open(&path).map_err(|source| DataError::IoAt {
        path: path.as_ref().to_path_buf(),
        source,
    })?;
    read_csv(&mut file)
}

/// Chunked CSV reader: iterates a CSV file `chunk_rows` records at a time
/// through the same parser as [`read_csv`].
///
/// Implements [`RecordChunkSource`]; [`reset`](RecordChunkSource::reset)
/// reopens the file, so the two-pass streaming engine can sweep it twice.
/// Unlike [`read_csv`], a file with a header and zero data rows is not an
/// error here — the stream is simply empty (the attack engines reject
/// sources with fewer than two records themselves).
#[derive(Debug)]
pub struct CsvChunkReader {
    path: PathBuf,
    chunk_rows: usize,
    schema: Schema,
    lines: Lines<BufReader<std::fs::File>>,
    /// 1-based physical line number of the last line consumed (header = 1).
    line_no: usize,
}

impl CsvChunkReader {
    /// Opens a CSV file and parses its header.
    pub fn open<P: AsRef<Path>>(path: P, chunk_rows: usize) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(DataError::Stream {
                reason: "chunk_rows must be at least 1".to_string(),
            });
        }
        let path = path.as_ref().to_path_buf();
        let (schema, lines) = Self::open_file(&path)?;
        Ok(CsvChunkReader {
            path,
            chunk_rows,
            schema,
            lines,
            line_no: 1,
        })
    }

    fn open_file(path: &Path) -> Result<(Schema, Lines<BufReader<std::fs::File>>)> {
        let file = std::fs::File::open(path).map_err(|source| DataError::IoAt {
            path: path.to_path_buf(),
            source,
        })?;
        let mut lines = BufReader::new(file).lines();
        let header = match lines.next() {
            Some(h) => h?,
            None => {
                return Err(DataError::Parse {
                    line: 1,
                    reason: "empty input (missing header row)".to_string(),
                })
            }
        };
        Ok((parse_header(&header)?, lines))
    }

    /// The schema parsed from the header row.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

impl RecordChunkSource for CsvChunkReader {
    fn n_attributes(&self) -> usize {
        self.schema.len()
    }

    fn n_records_hint(&self) -> Option<usize> {
        None
    }

    fn reset(&mut self) -> Result<()> {
        let (schema, lines) = Self::open_file(&self.path)?;
        if schema != self.schema {
            return Err(DataError::Stream {
                reason: format!(
                    "file '{}' changed schema between sweeps",
                    self.path.display()
                ),
            });
        }
        self.lines = lines;
        self.line_no = 1;
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<Matrix>> {
        let m = self.schema.len();
        let mut data: Vec<f64> = Vec::with_capacity(self.chunk_rows * m);
        let mut rows = 0usize;
        while rows < self.chunk_rows {
            let line = match self.lines.next() {
                Some(l) => l?,
                None => break,
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            parse_record(&line, m, self.line_no, &mut data)?;
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(Matrix::from_flat(rows, m, data)?))
    }
}

/// Buffered chunk-wise CSV writer: header once at construction, then rows
/// appended chunk by chunk — the file sink of the streaming attack engine.
#[derive(Debug)]
pub struct CsvChunkWriter<W: Write> {
    writer: W,
    n_attributes: usize,
    rows_written: usize,
}

impl CsvChunkWriter<BufWriter<std::fs::File>> {
    /// Creates (truncating) a CSV file and writes the header row.
    pub fn create<P: AsRef<Path>>(path: P, schema: &Schema) -> Result<Self> {
        let file = std::fs::File::create(&path).map_err(|source| DataError::IoAt {
            path: path.as_ref().to_path_buf(),
            source,
        })?;
        CsvChunkWriter::new(BufWriter::new(file), schema)
    }
}

impl<W: Write> CsvChunkWriter<W> {
    /// Wraps any writer (callers supply their own buffering) and writes the
    /// header row immediately.
    pub fn new(mut writer: W, schema: &Schema) -> Result<Self> {
        writer.write_all(schema.names().join(",").as_bytes())?;
        writer.write_all(b"\n")?;
        Ok(CsvChunkWriter {
            writer,
            n_attributes: schema.len(),
            rows_written: 0,
        })
    }

    /// Appends one chunk of records (columns must match the schema width).
    pub fn write_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        if chunk.cols() != self.n_attributes {
            return Err(DataError::SchemaMismatch {
                reason: format!(
                    "chunk has {} columns but the header has {} attributes",
                    chunk.cols(),
                    self.n_attributes
                ),
            });
        }
        let mut line = String::new();
        for row in chunk.row_iter() {
            line.clear();
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{v}"));
            }
            line.push('\n');
            self.writer.write_all(line.as_bytes())?;
        }
        self.rows_written += chunk.rows();
        Ok(())
    }

    /// Total record rows written so far (excluding the header).
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataTable {
        DataTable::from_named_columns(&[("x", vec![1.0, 2.5, -3.0]), ("y", vec![0.5, 0.0, 10.0])])
            .unwrap()
    }

    #[test]
    fn roundtrip_through_string() {
        let t = sample();
        let text = to_csv_string(&t);
        assert!(text.starts_with("x,y\n"));
        let parsed = from_csv_string(&text).unwrap();
        assert!(parsed.approx_eq(&t, 1e-12));
    }

    #[test]
    fn roundtrip_through_file() {
        let t = sample();
        let dir = std::env::temp_dir();
        let path = dir.join("randrecon_csv_roundtrip_test.csv");
        write_csv_file(&t, &path).unwrap();
        let parsed = read_csv_file(&path).unwrap();
        assert!(parsed.approx_eq(&t, 1e-12));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(matches!(
            from_csv_string(""),
            Err(DataError::Parse { line: 1, .. })
        ));
        let bad_field = "a,b\n1.0,2.0\n1.0,not_a_number\n";
        match from_csv_string(bad_field) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        let wrong_arity = "a,b\n1.0\n";
        assert!(matches!(
            from_csv_string(wrong_arity),
            Err(DataError::Parse { line: 2, .. })
        ));
        assert!(from_csv_string("a,b\n").is_err());
        assert!(from_csv_string("a,,c\n1,2,3\n").is_err());
    }

    #[test]
    fn split_csv_fields_rfc4180() {
        assert_eq!(split_csv_fields("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_csv_fields("").unwrap(), vec![""]);
        assert_eq!(split_csv_fields("a,,c").unwrap(), vec!["a", "", "c"]);
        assert_eq!(
            split_csv_fields("\"a,b\",c").unwrap(),
            vec!["a,b".to_string(), "c".to_string()]
        );
        assert_eq!(
            split_csv_fields("\"he said \"\"hi\"\"\",2").unwrap(),
            vec!["he said \"hi\"".to_string(), "2".to_string()]
        );
        assert_eq!(
            split_csv_fields("\"line\nbreak\",x").unwrap(),
            vec!["line\nbreak".to_string(), "x".to_string()]
        );
        assert_eq!(split_csv_fields("\"\",\"\"").unwrap(), vec!["", ""]);
        assert!(split_csv_fields("\"open").is_err());
        assert!(split_csv_fields("ab\"cd").is_err());
        assert!(split_csv_fields("\"done\"trailing").is_err());
    }

    #[test]
    fn parse_csv_text_handles_quoted_newlines_and_locates_errors() {
        let text = "label,value\n\"a,b\",1\n\"multi\nline\",2\nplain,3\n";
        let records = parse_csv_text(text).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[1], vec!["a,b", "1"]);
        assert_eq!(records[2], vec!["multi\nline", "2"]);
        assert_eq!(records[3], vec!["plain", "3"]);

        // CRLF line endings and a missing trailing newline both parse.
        let crlf = parse_csv_text("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(crlf, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);

        // Errors are located at the record's first physical line, counting
        // the newlines embedded in earlier quoted fields.
        let bad = "h\n\"two\nlines\"\noops\"\n";
        match parse_csv_text(bad) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected located parse error, got {other:?}"),
        }
        // An unterminated quote surfaces as an error, not an infinite record.
        assert!(parse_csv_text("h\n\"never closed\n").is_err());
    }

    #[test]
    fn numeric_reader_accepts_quoted_fields() {
        // Quoted numbers and quoted header names parse through the same
        // field grammar as the report CSVs.
        let t = from_csv_string("\"a\",b\n\"1.5\",2\n3,\"4\"\n").unwrap();
        assert_eq!(t.schema().names(), vec!["a", "b"]);
        assert_eq!(t.record(0), &[1.5, 2.0]);
        assert_eq!(t.record(1), &[3.0, 4.0]);
        // Arity and value errors still located on the quoted path.
        assert!(matches!(
            from_csv_string("a,b\n\"1\"\n"),
            Err(DataError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            from_csv_string("a,b\n\"x\",2\n"),
            Err(DataError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "a,b\n1,2\n\n3,4\n";
        let t = from_csv_string(text).unwrap();
        assert_eq!(t.n_records(), 2);
        assert_eq!(t.record(1), &[3.0, 4.0]);
    }

    #[test]
    fn duplicate_header_names_rejected() {
        assert!(from_csv_string("a,a\n1,2\n").is_err());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("randrecon_csv_{name}_{}.csv", std::process::id()))
    }

    #[test]
    fn chunked_reader_matches_whole_file_parse() {
        // 11 records in chunks of 4 → sizes 4, 4, 3; same values as read_csv.
        let values = Matrix::from_fn(11, 3, |i, j| (i as f64) * 1.5 - (j as f64) * 0.25);
        let t = DataTable::from_matrix(values).unwrap();
        let path = temp_path("chunked_roundtrip");
        write_csv_file(&t, &path).unwrap();

        let mut reader = CsvChunkReader::open(&path, 4).unwrap();
        assert_eq!(reader.n_attributes(), 3);
        assert_eq!(reader.schema().names(), t.schema().names());
        assert_eq!(reader.n_records_hint(), None);
        let mut sizes = Vec::new();
        let mut rows: Vec<f64> = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            sizes.push(chunk.rows());
            rows.extend_from_slice(chunk.as_slice());
        }
        assert_eq!(sizes, vec![4, 4, 3]);
        let streamed = Matrix::from_flat(11, 3, rows).unwrap();
        let whole = read_csv_file(&path).unwrap();
        assert!(streamed.approx_eq(whole.values(), 0.0));

        // Reset replays the identical sweep (the two-pass engine contract).
        reader.reset().unwrap();
        let first_again = reader.next_chunk().unwrap().unwrap();
        assert!(first_again.approx_eq(&whole.values().submatrix(0, 4, 0, 3).unwrap(), 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_reports_malformed_rows_with_line_numbers() {
        let path = temp_path("malformed");
        std::fs::write(&path, "a,b\n1,2\n3,4\n5,not_a_number\n7,8\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        // First chunk (lines 2-3) parses fine.
        assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);
        // Second chunk hits the malformed value on physical line 4.
        match reader.next_chunk() {
            Err(DataError::Parse { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("not_a_number"));
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }

        // Wrong arity is also located, and blank lines don't shift the count.
        std::fs::write(&path, "a,b\n1,2\n\n3\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 8).unwrap();
        match reader.next_chunk() {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected a located parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_reset_after_malformed_row_reopens_cleanly() {
        let path = temp_path("reset_after_malformed");
        std::fs::write(&path, "a,b\n1,2\n3,4\n5,oops\n7,8\n9,10\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);
        assert!(matches!(
            reader.next_chunk(),
            Err(DataError::Parse { line: 4, .. })
        ));

        // Reset rewinds the physical-line bookkeeping too: the replay parses
        // the same leading rows and relocates the same error at line 4.
        reader.reset().unwrap();
        let first = reader.next_chunk().unwrap().unwrap();
        assert_eq!(first.row(0), &[1.0, 2.0]);
        assert_eq!(first.row(1), &[3.0, 4.0]);
        assert!(matches!(
            reader.next_chunk(),
            Err(DataError::Parse { line: 4, .. })
        ));

        // Once the file is repaired (same schema), a reset sweep succeeds
        // end to end — the reader carries no poisoned state.
        std::fs::write(&path, "a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n").unwrap();
        reader.reset().unwrap();
        let mut rows = 0;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            rows += chunk.rows();
        }
        assert_eq!(rows, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_locates_row_and_column_across_chunk_boundaries() {
        // The malformed value sits in column 3 of physical line 6, behind a
        // blank line and two chunk boundaries (chunk_rows = 2): both
        // coordinates must survive the chunking.
        let path = temp_path("row_column_location");
        std::fs::write(&path, "a,b,c\n1,2,3\n\n4,5,6\n7,8,9\n10,11,bad\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);
        match reader.next_chunk() {
            Err(DataError::Parse { line, reason }) => {
                assert_eq!(line, 6);
                assert!(reason.contains("column 3"), "reason: {reason}");
                assert!(reason.contains("bad"), "reason: {reason}");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The located error a non-finite cell must produce.
    fn assert_non_finite_error(result: Result<impl std::fmt::Debug>, line: usize, cell: &str) {
        match result {
            Err(DataError::Parse { line: at, reason }) => {
                assert_eq!(at, line, "reason: {reason}");
                assert!(
                    reason.ends_with(&format!("'{cell}' is not a finite number")),
                    "reason: {reason}"
                );
            }
            other => panic!("expected a located parse error for {cell}, got {other:?}"),
        }
    }

    #[test]
    fn read_csv_rejects_non_finite_cells() {
        for cell in ["NaN", "nan", "inf", "-infinity", "+Infinity"] {
            let text = format!("a,b\n1,2\n3,{cell}\n");
            assert_non_finite_error(from_csv_string(&text), 3, cell);
        }
        // The quoted path rejects them too, and names the column.
        match from_csv_string("a,b\n\"inf\",2\n") {
            Err(DataError::Parse { line: 2, reason }) => {
                assert_eq!(reason, "column 1: 'inf' is not a finite number");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
    }

    #[test]
    fn chunked_reader_rejects_non_finite_cells() {
        let path = temp_path("non_finite");
        std::fs::write(&path, "a,b,c\n1,2,3\n4,5,6\n7,\"inf\",9\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);
        match reader.next_chunk() {
            Err(DataError::Parse { line: 4, reason }) => {
                assert_eq!(reason, "column 2: 'inf' is not a finite number");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
        std::fs::write(&path, "a,b,c\n1,NaN,3\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        assert_non_finite_error(reader.next_chunk(), 2, "NaN");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_open_validation() {
        let path = temp_path("open_validation");
        std::fs::write(&path, "a,b\n1,2\n").unwrap();
        assert!(CsvChunkReader::open(&path, 0).is_err());
        assert!(CsvChunkReader::open(temp_path("does_not_exist"), 4).is_err());
        // Header-only file opens fine and yields an empty stream.
        std::fs::write(&path, "a,b\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 4).unwrap();
        assert!(reader.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_writer_roundtrips_through_chunk_reader() {
        let t = sample();
        let path = temp_path("writer");
        let mut writer = CsvChunkWriter::create(&path, t.schema()).unwrap();
        // Write the three records as two chunks.
        writer
            .write_chunk(&t.values().submatrix(0, 2, 0, 2).unwrap())
            .unwrap();
        writer
            .write_chunk(&t.values().submatrix(2, 3, 0, 2).unwrap())
            .unwrap();
        assert_eq!(writer.rows_written(), 3);
        // Wrong width rejected before anything is written.
        assert!(writer.write_chunk(&Matrix::zeros(1, 3)).is_err());
        writer.finish().unwrap();

        let parsed = read_csv_file(&path).unwrap();
        assert!(parsed.approx_eq(&t, 1e-12));
        std::fs::remove_file(&path).ok();
    }
}
