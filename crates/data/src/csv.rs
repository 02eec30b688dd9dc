//! Minimal CSV serialization for [`DataTable`]s.
//!
//! The examples persist generated and reconstructed data sets so they can be
//! inspected with external tooling; a hand-rolled writer/reader keeps the
//! workspace free of extra dependencies. The writer emits numbers in their
//! `Display` form and quotes a header name only when it holds a comma, a
//! double quote, CR or LF, while the reader understands RFC-4180 quoting:
//! fields wrapped in double quotes may contain commas, doubled quotes, and
//! line breaks (a quoted header name may span physical lines; a numeric
//! record is one line). [`split_csv_fields`] and [`parse_csv_text`] expose
//! that field-level layer for non-numeric CSV (the experiment report
//! files), so every CSV consumer in the workspace shares one grammar.
//!
//! Two access granularities share one codec:
//!
//! * [`read_csv`] / [`from_csv_string`] build the whole [`DataTable`], and
//!   [`to_csv_string`] / [`write_csv`] write one — fine for the paper-scale
//!   experiments.
//! * [`CsvChunkReader`] iterates the same format `chunk_rows` records at a
//!   time and implements [`RecordChunkSource`], so the streaming attack
//!   engine can sweep a file twice with bounded memory. [`CsvChunkWriter`]
//!   is the matching buffered sink: header once, then appended chunks.
//!
//! # The codec: bands on the pool
//!
//! Records are parsed and formatted in **bands** of [`BAND_ROWS`] records on
//! the shared `randrecon-parallel` pool, one wave of `max_threads()` bands
//! at a time:
//!
//! * **Reading.** A line collector appends a wave's non-blank lines to one
//!   recycled byte buffer with `read_until`, recording each line's span and
//!   physical line number; the bands then parse straight into the rows of
//!   the output buffer. A line is blank when `str::trim` leaves nothing, a
//!   trailing `\n` or `\r\n` is stripped as `BufRead::lines` strips it, and
//!   a line that is not UTF-8 fails with the error `BufRead::lines` gives.
//! * **Writing.** Each band formats its records into a recycled byte
//!   buffer that it owns for the call — moved out of the writer's list and
//!   put back afterwards, because formatting through a shared list would
//!   write its neighbours' cache line on every push — and the buffers are
//!   written out in band order.
//!
//! Neither side allocates per line or per value, and neither holds more
//! than one wave of text: never a whole chunk. Bands never reorder
//! anything, so output bytes, parsed bits and errors are the same at every
//! pool width. Errors keep one precedence: on one line a wrong field count
//! wins over a bad value, and across bands the first bad line in file
//! order is the one reported.
//!
//! # Float text
//!
//! `<f64 as Display>` and `str::parse::<f64>` define the text; the codec
//! reaches them by its own shorter routes (the crate-private `float_text`
//! module) and keeps std's as the references it is pinned against.
//!
//! * **Writing.** Every finite value is written with the shortest digits
//!   that read back to the same bits (Ryū), laid out as `Display` lays them
//!   out — positional, no exponent, `-0` kept — and an exact tie between
//!   two shortest candidates rounds up, as `Display` rounds it. So the
//!   bytes are `Display`'s. [`to_csv_string`] writes the non-finite values
//!   only it may write through `Display` itself.
//! * **Reading.** A record line is first read in one pass over its bytes,
//!   with no per-field `&str`, trim or UTF-8 pass: it must be exactly the
//!   schema's count of comma-separated plain fields `-?digits[.digits]`,
//!   each with at most 19 digits after its leading zeros, converted exactly
//!   (Clinger's path or Eisel–Lemire). Every other line — padding, quotes, `+`,
//!   exponents, `inf`/`NaN`, longer mantissas, a value Eisel–Lemire leaves
//!   undecided, any non-ASCII byte, anything malformed — is decoded and
//!   read field by field with `str::parse`, as before. Both routes round
//!   correctly, so the bits are `str::parse`'s; and since only the second
//!   route can fail, every accepted spelling and every located error is
//!   std's.

use crate::chunks::RecordChunkSource;
use crate::error::{DataError, Result};
use crate::float_text::{parse_decimal, write_f64};
use crate::schema::{Attribute, Schema};
use crate::table::DataTable;
use randrecon_linalg::parallel::{max_threads, parallel_chunks_mut, parallel_row_chunks_mut};
use randrecon_linalg::Matrix;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Records per band: the unit of parsing and formatting work handed to one
/// pool thread. A wave is `max_threads()` bands.
pub const BAND_ROWS: usize = 256;

/// Serializes a table to CSV text (header + one line per record). Unlike
/// [`CsvChunkWriter`], it writes a non-finite value as `Display` shows it.
pub fn to_csv_string(table: &DataTable) -> String {
    let mut header = String::new();
    push_header(&mut header, table.schema());
    let mut out = header.into_bytes();
    format_records(
        table.values().as_slice(),
        table.n_attributes(),
        &mut Vec::new(),
        |text| {
            out.extend_from_slice(text);
            Ok(())
        },
    )
    .expect("appending to a Vec cannot fail");
    String::from_utf8(out).expect("the header is a String and the records ASCII")
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

/// Appends the header line: the schema's names, comma-separated. A name
/// holding a comma, a double quote, CR or LF is quoted RFC-4180 style, its
/// quotes doubled, so the readers give it back whole.
fn push_header(out: &mut String, schema: &Schema) {
    for (j, name) in schema.names().into_iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        if name.contains([',', '"', '\r', '\n']) {
            out.push('"');
            out.push_str(&name.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(name);
        }
    }
    out.push('\n');
}

/// Appends one record as a CSV line: its values in `Display` form,
/// comma-separated.
fn push_record(out: &mut Vec<u8>, record: &[f64]) {
    for (j, &v) in record.iter().enumerate() {
        if j > 0 {
            out.push(b',');
        }
        if v.is_finite() {
            write_f64(out, v);
        } else {
            write!(out, "{v}").expect("writing to a Vec cannot fail");
        }
    }
    out.push(b'\n');
}

/// Formats `values`, whole records of `m` values each, one wave of bands at
/// a time: each band on the pool into a buffer of `bands` (resized to the
/// pool width and kept for the next call), then every band's text to
/// `emit` in record order.
fn format_records(
    values: &[f64],
    m: usize,
    bands: &mut Vec<Vec<u8>>,
    mut emit: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let band_values = BAND_ROWS * m;
    bands.resize_with(max_threads(), Vec::new);
    for wave in values.chunks(bands.len() * band_values) {
        let n_bands = wave.len().div_ceil(band_values);
        parallel_chunks_mut(&mut bands[..n_bands], 1, n_bands, |band, slot| {
            // Format into a buffer this band owns for the call, not through
            // `slot`: every push would write the shared list's cache line.
            let mut text = std::mem::take(&mut slot[0]);
            text.clear();
            for record in wave[band * band_values..].chunks(m).take(BAND_ROWS) {
                push_record(&mut text, record);
            }
            slot[0] = text;
        });
        for text in &bands[..n_bands] {
            emit(text)?;
        }
    }
    Ok(())
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

/// Parses a header record into a schema (every attribute marked sensitive).
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

/// Parses one record line into `out`, one value per attribute. `line_no` is
/// the 1-based physical line for error reporting; a malformed value is
/// located by its 1-based column too. Rust's `f64` parser accepts `NaN` and
/// `inf`; such cells are rejected here, at the source boundary, rather than
/// flowing silently into the moments.
fn parse_record(line: &str, line_no: usize, out: &mut [f64]) -> Result<()> {
    let mut result = parse_fields(line.split(','), out);
    if result.is_err() && line.contains('"') {
        // A quoted (RFC-4180) field may hold a comma: split field-aware. A
        // quote can never parse as a number, so an unquoted split of such a
        // line always fails and lands here.
        result = split_csv_fields(line)
            .and_then(|fields| parse_fields(fields.iter().map(String::as_str), out));
    }
    result.map_err(|reason| DataError::Parse {
        line: line_no,
        reason,
    })
}

/// Parses a record line of plain fields straight from its bytes: exactly
/// `out.len()` comma-separated values `-?digits[.digits]` and nothing else,
/// each one [`parse_decimal`] converts. Returns `false` on any other line,
/// with `out` partly written; [`parse_record`] then reads the line.
fn parse_plain_record(line: &[u8], out: &mut [f64]) -> bool {
    let mut rest = line;
    for (j, slot) in out.iter_mut().enumerate() {
        if j > 0 {
            match rest.split_first() {
                Some((b',', tail)) => rest = tail,
                _ => return false,
            }
        }
        let Some((value, len)) = parse_decimal(rest) else {
            return false;
        };
        *slot = value;
        rest = &rest[len..];
    }
    rest.is_empty()
}

/// Parses `fields` (trimmed) into `out`, or gives the reason they do not
/// fit: a wrong field count wins over a bad value, and the first bad value
/// wins over later ones.
fn parse_fields<'a>(
    fields: impl Iterator<Item = &'a str>,
    out: &mut [f64],
) -> std::result::Result<(), String> {
    let mut count = 0;
    let mut bad = None;
    for field in fields {
        if let (None, Some(slot)) = (&bad, out.get_mut(count)) {
            match field.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => *slot = v,
                Ok(_) => bad = Some((count, field, "is not a finite number")),
                Err(_) => bad = Some((count, field, "is not a number")),
            }
        }
        count += 1;
    }
    if count != out.len() {
        return Err(format!("expected {} fields, found {count}", out.len()));
    }
    match bad {
        Some((col, field, problem)) => {
            Err(format!("column {}: '{}' {problem}", col + 1, field.trim()))
        }
        None => Ok(()),
    }
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn decode(line: &[u8]) -> Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
        .into()
    })
}

/// Whether a record line is blank, i.e. `str::trim` leaves nothing.
fn is_blank(line: &[u8]) -> Result<bool> {
    match line.first() {
        // Nearly every record starts with a digit or a sign: no need to
        // decode the whole line to see that it is not blank.
        Some(&b) if b.is_ascii() && !(b as char).is_whitespace() => Ok(false),
        _ => Ok(decode(line)?.trim().is_empty()),
    }
}

/// Removes a trailing `\n` or `\r\n`, as `BufRead::lines` does.
fn line_end(text: &[u8], start: usize) -> usize {
    let mut end = text.len();
    if end > start && text[end - 1] == b'\n' {
        end -= 1;
        if end > start && text[end - 1] == b'\r' {
            end -= 1;
        }
    }
    end
}

/// Where one collected record line sits in the wave's text buffer.
#[derive(Clone, Copy)]
struct LineSpan {
    start: usize,
    end: usize,
    /// 1-based physical line number.
    line: usize,
}

/// The record lines of a CSV input after its header: collected a wave at a
/// time into one recycled text buffer, then parsed in bands on the pool.
struct RecordLines<R> {
    input: R,
    /// 1-based physical line number of the last line consumed (the header
    /// ends at line 1 unless a quoted name spans lines).
    line_no: usize,
    text: Vec<u8>,
    spans: Vec<LineSpan>,
}

impl<R> std::fmt::Debug for RecordLines<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordLines")
            .field("line_no", &self.line_no)
            .finish_non_exhaustive()
    }
}

impl<R: BufRead> RecordLines<R> {
    /// Reads the header record, which a quoted name may carry over several
    /// physical lines, and parses it into a schema.
    fn open(mut input: R) -> Result<(Schema, Self)> {
        let mut text = Vec::new();
        let mut line_no = 0;
        let mut quoted = false;
        loop {
            let start = text.len();
            if input.read_until(b'\n', &mut text)? == 0 {
                break;
            }
            line_no += 1;
            let quotes = text[start..].iter().filter(|&&b| b == b'"').count();
            quoted ^= quotes % 2 == 1;
            if !quoted {
                break;
            }
        }
        if line_no == 0 {
            return Err(DataError::Parse {
                line: 1,
                reason: "empty input (missing header row)".to_string(),
            });
        }
        let end = line_end(&text, 0);
        let schema = parse_header(decode(&text[..end])?)?;
        text.clear();
        let lines = RecordLines {
            input,
            line_no,
            text,
            spans: Vec::new(),
        };
        Ok((schema, lines))
    }

    /// Reads up to `max_rows` records of `m` values, appending them to
    /// `data`, and returns how many it read: fewer only at the end of the
    /// input. The first error in file order stops it.
    fn read_records(&mut self, m: usize, max_rows: usize, data: &mut Vec<f64>) -> Result<usize> {
        let wave = max_threads() * BAND_ROWS;
        let mut rows = 0;
        while rows < max_rows {
            let want = wave.min(max_rows - rows);
            let stopped = self.collect(want);
            let n = self.spans.len();
            let base = data.len();
            data.resize(base + n * m, 0.0);
            self.parse(m, &mut data[base..])?;
            rows += n;
            match stopped {
                Some(error) => return Err(error),
                None if n < want => break,
                None => {}
            }
        }
        Ok(rows)
    }

    /// Collects up to `max` non-blank lines, skipping blank ones. A read or
    /// decoding error stops it and is returned: it belongs after every line
    /// collected, so their own errors go first.
    fn collect(&mut self, max: usize) -> Option<DataError> {
        self.text.clear();
        self.spans.clear();
        while self.spans.len() < max {
            let start = self.text.len();
            match self.input.read_until(b'\n', &mut self.text) {
                Ok(0) => break,
                Ok(_) => self.line_no += 1,
                Err(e) => return Some(e.into()),
            }
            let end = line_end(&self.text, start);
            match is_blank(&self.text[start..end]) {
                Ok(true) => self.text.truncate(start),
                Ok(false) => self.spans.push(LineSpan {
                    start,
                    end,
                    line: self.line_no,
                }),
                Err(e) => return Some(e),
            }
        }
        None
    }

    /// Parses the collected lines into `out`, `m` values per line, in bands
    /// on the pool. The first bad line in file order is reported, whichever
    /// band finds it.
    fn parse(&self, m: usize, out: &mut [f64]) -> Result<()> {
        let (text, spans) = (&self.text, &self.spans);
        let first_error: Mutex<Option<(usize, DataError)>> = Mutex::new(None);
        let bands = spans.len().div_ceil(BAND_ROWS);
        parallel_row_chunks_mut(out, m, BAND_ROWS, bands, |first, rows| {
            for (i, row) in rows.chunks_exact_mut(m).enumerate() {
                let span = spans[first + i];
                let line = &text[span.start..span.end];
                if parse_plain_record(line, row) {
                    continue;
                }
                let parsed = decode(line).and_then(|line| parse_record(line, span.line, row));
                if let Err(error) = parsed {
                    // Only this update touches the slot, and it leaves it
                    // whole, so a poisoned lock still holds valid data.
                    let mut slot = first_error.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.as_ref().is_none_or(|(at, _)| first + i < *at) {
                        *slot = Some((first + i, error));
                    }
                    return;
                }
            }
        });
        match first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some((_, error)) => Err(error),
            None => Ok(()),
        }
    }
}

/// Parses a table from CSV text.
pub fn from_csv_string(text: &str) -> Result<DataTable> {
    read_csv(&mut text.as_bytes())
}

/// Reads a table from any reader producing CSV.
pub fn read_csv<R: Read>(reader: &mut R) -> Result<DataTable> {
    let (schema, mut lines) = RecordLines::open(BufReader::new(reader))?;
    let m = schema.len();
    let mut data = Vec::new();
    let n = lines.read_records(m, usize::MAX, &mut data)?;
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
/// through the same codec as [`read_csv`].
///
/// Implements [`RecordChunkSource`]; [`reset`](RecordChunkSource::reset)
/// reopens the file, so the two-pass streaming engine can sweep it twice.
/// Unlike [`read_csv`], a file with a header and zero data rows is not an
/// error here — the stream is simply empty (the attack engines reject
/// sources with fewer than two records themselves). After an error the
/// read position is past the bad line by up to a wave; `reset` to sweep
/// again.
#[derive(Debug)]
pub struct CsvChunkReader {
    path: PathBuf,
    chunk_rows: usize,
    schema: Schema,
    lines: RecordLines<BufReader<std::fs::File>>,
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
        })
    }

    fn open_file(path: &Path) -> Result<(Schema, RecordLines<BufReader<std::fs::File>>)> {
        let file = std::fs::File::open(path).map_err(|source| DataError::IoAt {
            path: path.to_path_buf(),
            source,
        })?;
        RecordLines::open(BufReader::new(file))
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
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<Matrix>> {
        let m = self.schema.len();
        let mut data = Vec::with_capacity(self.chunk_rows * m);
        let rows = self.lines.read_records(m, self.chunk_rows, &mut data)?;
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
    /// Recycled text buffers, one per band of a wave.
    bands: Vec<Vec<u8>>,
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
        let mut header = String::new();
        push_header(&mut header, schema);
        writer.write_all(header.as_bytes())?;
        Ok(CsvChunkWriter {
            writer,
            n_attributes: schema.len(),
            rows_written: 0,
            bands: Vec::new(),
        })
    }

    /// Appends one chunk of records (columns must match the schema width).
    /// A `NaN` or infinite value, which the readers would refuse, fails the
    /// chunk with [`DataError::NonFinite`] before any of it is written.
    pub fn write_chunk(&mut self, chunk: &Matrix) -> Result<()> {
        let m = self.n_attributes;
        if chunk.cols() != m {
            return Err(DataError::SchemaMismatch {
                reason: format!(
                    "chunk has {} columns but the header has {m} attributes",
                    chunk.cols(),
                ),
            });
        }
        let values = chunk.as_slice();
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            return Err(DataError::NonFinite {
                record: self.rows_written + at / m + 1,
                column: at % m + 1,
                value: values[at],
            });
        }
        let writer = &mut self.writer;
        format_records(values, m, &mut self.bands, |text| writer.write_all(text))?;
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

    #[test]
    fn chunk_writer_refuses_non_finite_values_before_writing_the_chunk() {
        let schema = Schema::anonymous(3).unwrap();
        let mut writer = CsvChunkWriter::new(Vec::new(), &schema).unwrap();
        writer
            .write_chunk(&Matrix::from_fn(2, 3, |i, j| (i + j) as f64))
            .unwrap();
        for (value, shown) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            let mut chunk = Matrix::from_fn(4, 3, |i, j| (i * j) as f64);
            chunk.set(2, 1, value);
            // Row 3 of the second chunk is record 5; counted across chunks.
            match writer.write_chunk(&chunk) {
                Err(
                    e @ DataError::NonFinite {
                        record: 5,
                        column: 2,
                        ..
                    },
                ) => assert_eq!(
                    e.to_string(),
                    format!(
                        "CSV write error at record 5: column 2: '{shown}' is not a finite number"
                    )
                ),
                other => panic!("expected a located non-finite error, got {other:?}"),
            }
        }
        assert_eq!(writer.rows_written(), 2);
        let text = String::from_utf8(writer.finish().unwrap()).unwrap();
        assert_eq!(text, "a0,a1,a2\n0,1,2\n1,2,3\n");
    }

    #[test]
    fn quoted_header_names_round_trip_through_both_writers_and_readers() {
        let names = ["a,b", "say \"hi\"", ",", "two\nlines", "cr\rname", "plain"];
        let schema = Schema::new(names.into_iter().map(Attribute::sensitive).collect()).unwrap();
        let values = Matrix::from_fn(3, names.len(), |i, j| (i * 7 + j) as f64 - 0.5);
        let table = DataTable::new(schema.clone(), values.clone()).unwrap();
        let header = "\"a,b\",\"say \"\"hi\"\"\",\",\",\"two\nlines\",\"cr\rname\",plain\n";

        let text = to_csv_string(&table);
        assert!(text.starts_with(header), "{text:?}");
        let mut writer = CsvChunkWriter::new(Vec::new(), &schema).unwrap();
        writer.write_chunk(&values).unwrap();
        assert_eq!(String::from_utf8(writer.finish().unwrap()).unwrap(), text);

        let parsed = from_csv_string(&text).unwrap();
        assert_eq!(parsed.schema(), &schema);
        assert!(parsed.values().approx_eq(&values, 0.0));
        let path = temp_path("quoted_header");
        std::fs::write(&path, &text).unwrap();
        let mut reader = CsvChunkReader::open(&path, 2).unwrap();
        assert_eq!(reader.schema(), &schema);
        let mut rows: Vec<f64> = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            rows.extend_from_slice(chunk.as_slice());
        }
        assert_eq!(rows, values.as_slice());
        reader.reset().unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);

        // The header spans two physical lines, so the second record is on
        // line 4.
        std::fs::write(&path, format!("{header}1,2,3,4,5,6\n1,x,3,4,5,6\n")).unwrap();
        let mut reader = CsvChunkReader::open(&path, 8).unwrap();
        assert!(matches!(
            reader.next_chunk(),
            Err(DataError::Parse { line: 4, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// `n` good records of three values, one line each.
    fn good_lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i},{i}.5,-{i}")).collect()
    }

    /// The `(line, reason)` both readers report for `lines` under the
    /// header `a,b,c`; they must agree.
    fn first_error(name: &str, lines: &[String]) -> (usize, String) {
        let text = format!("a,b,c\n{}\n", lines.join("\n"));
        let whole = match from_csv_string(&text) {
            Err(DataError::Parse { line, reason }) => (line, reason),
            other => panic!("expected a located parse error, got {other:?}"),
        };
        let path = temp_path(name);
        std::fs::write(&path, &text).unwrap();
        let mut reader = CsvChunkReader::open(&path, 8192).unwrap();
        let chunked = loop {
            match reader.next_chunk() {
                Ok(Some(_)) => {}
                Err(DataError::Parse { line, reason }) => break (line, reason),
                other => panic!("expected a located parse error, got {other:?}"),
            }
        };
        std::fs::remove_file(&path).ok();
        assert_eq!(whole, chunked);
        whole
    }

    #[test]
    fn csv_codec_locates_errors_at_band_and_wave_edges() {
        let wave = max_threads() * BAND_ROWS;
        let n = 2 * wave + 10;
        let bad_lines = [
            ("1,oops,3", "column 2: 'oops' is not a number"),
            ("1,2", "expected 3 fields, found 2"),
            ("1,2,inf", "column 3: 'inf' is not a finite number"),
            // A wrong field count wins over a bad value on the same line.
            ("oops,2", "expected 3 fields, found 2"),
        ];
        for (bad, reason) in bad_lines {
            // The first line of a band and the last line of a wave; record
            // `k` sits on physical line `k + 2`.
            for k in [BAND_ROWS, wave - 1] {
                let mut lines = good_lines(n);
                lines[k] = bad.to_string();
                assert_eq!(first_error("edge", &lines), (k + 2, reason.to_string()));
            }
            // Behind blank lines that straddle the first band boundary: two
            // before the band's last record and three after it, one of them
            // holding only U+00A0.
            let mut lines = good_lines(n);
            lines[BAND_ROWS] = bad.to_string();
            lines.splice(BAND_ROWS..BAND_ROWS, ["", " ", "\u{a0}"].map(String::from));
            lines.splice(BAND_ROWS - 1..BAND_ROWS - 1, ["\t", ""].map(String::from));
            assert_eq!(
                first_error("blanks", &lines),
                (BAND_ROWS + 7, reason.to_string())
            );
        }
        // Two bad lines in different bands: the earlier one wins, although
        // the later band reaches its bad line first.
        let mut lines = good_lines(n);
        lines[BAND_ROWS - 1] = "1,2,NaN".to_string();
        lines[BAND_ROWS] = "x,y,z".to_string();
        assert_eq!(
            first_error("two_bands", &lines),
            (
                BAND_ROWS + 1,
                "column 3: 'NaN' is not a finite number".to_string()
            )
        );
    }

    #[test]
    fn csv_codec_fails_a_chunk_holding_invalid_utf8() {
        // The error `BufRead::lines` gives, which both readers keep.
        let expected = std::io::BufRead::lines(&b"\xff\n"[..])
            .next()
            .unwrap()
            .unwrap_err();
        let utf8_error = |result: Result<Option<Matrix>>| match result {
            Err(DataError::Io(e)) => {
                assert_eq!(e.kind(), expected.kind());
                assert_eq!(e.to_string(), expected.to_string());
            }
            other => panic!("expected an invalid-UTF-8 error, got {other:?}"),
        };
        let path = temp_path("invalid_utf8");
        // On a record line, and on a line that starts like a blank one.
        for bad in [&b"5,\xff\n"[..], &b" \xff\n"[..]] {
            let mut bytes = b"a,b\n1,2\n3,4\n".to_vec();
            bytes.extend_from_slice(bad);
            bytes.extend_from_slice(b"7,8\n");
            std::fs::write(&path, &bytes).unwrap();
            let mut reader = CsvChunkReader::open(&path, 2).unwrap();
            assert_eq!(reader.next_chunk().unwrap().unwrap().rows(), 2);
            utf8_error(reader.next_chunk());
            assert!(matches!(read_csv_file(&path), Err(DataError::Io(_))));
        }
        // A bad value on an earlier line of the same chunk goes first.
        std::fs::write(&path, b"a,b\n1,x\n \xff\n").unwrap();
        let mut reader = CsvChunkReader::open(&path, 8).unwrap();
        assert!(matches!(
            reader.next_chunk(),
            Err(DataError::Parse { line: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
