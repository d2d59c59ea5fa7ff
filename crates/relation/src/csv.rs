//! Minimal CSV reader/writer (RFC-4180 subset) — no external dependency.
//!
//! Supports quoted fields with embedded separators, quotes (`""` escape) and
//! newlines; configurable separator and NULL tokens; optional header row.
//!
//! Reading runs on every core ([`crate::pool::par_map`]) in two steps.
//! The input is cut into one run of whole records per worker, at `\n`
//! bytes outside quotes (found by quote parity), and each run is scanned
//! in one pass that classifies every field as it is emitted, so each field
//! is read once. While a run's column holds only integers and NULLs it is
//! stored as one `i64` per row with its NULL rows noted aside; from its
//! first other field on, each field is appended as a slice of the input —
//! copied only when a `""` escape or a dropped `\r` splits its content —
//! and classified when it is encoded. Then the columns are handed out one
//! at a time, most field bytes first, and each is rank encoded straight
//! from its runs in run order: the integer stores copied whole, the
//! slices cell by cell. Text under 40,000 bytes is read on one worker,
//! where a second thread costs more than it saves. No record matrix and
//! no per-cell `String` or [`crate::Value`] is built; only distinct values
//! are copied. If any run reports a syntax error or a ragged record, the
//! whole input is scanned again on one thread, so the relation and every
//! error are the same at every thread count.

use crate::column::{CellSource, Column, Run};
use crate::datatype::TypingMode;
use crate::error::{Error, Result};
use crate::pool::{ingest_threads, par_map, SERIAL_CSV_BYTES};
use crate::relation::Relation;
use crate::value::{Cell, Value};
use std::borrow::Cow;
use std::fmt::Write;
use std::io::Read;
use std::path::Path;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header of column names (default true;
    /// otherwise columns are named `col0`, `col1`, ...).
    pub has_header: bool,
    /// Tokens parsed as NULL (default: empty string, `?`, `NULL`).
    pub null_tokens: Vec<String>,
    /// Typing mode applied when building the relation.
    pub typing: TypingMode,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            null_tokens: vec![String::new(), "?".to_owned(), "NULL".to_owned()],
            typing: TypingMode::Infer,
        }
    }
}

/// The content of the field being scanned: a span of the input while it
/// is contiguous there, an owned copy once an escape or a dropped `\r`
/// splits it.
enum Field {
    Span(usize, usize),
    Owned(String),
}

impl Field {
    fn is_empty(&self) -> bool {
        match self {
            Field::Span(from, to) => from == to,
            Field::Owned(s) => s.is_empty(),
        }
    }

    /// Append `text[from..to]` (both ends on char boundaries).
    fn add_span(&mut self, text: &str, from: usize, to: usize) {
        if from == to {
            return;
        }
        match self {
            Field::Span(start, end) if start == end => *self = Field::Span(from, to),
            Field::Span(_, end) if *end == from => *end = to,
            Field::Span(start, end) => {
                let mut owned = String::with_capacity(*end - *start + to - from);
                owned.push_str(&text[*start..*end]);
                owned.push_str(&text[from..to]);
                *self = Field::Owned(owned);
            }
            Field::Owned(s) => s.push_str(&text[from..to]),
        }
    }

    /// The finished field, leaving an empty one behind.
    fn take_text<'a>(&mut self, text: &'a str) -> Cow<'a, str> {
        match std::mem::replace(self, Field::Span(0, 0)) {
            Field::Span(from, to) => Cow::Borrowed(&text[from..to]),
            Field::Owned(s) => Cow::Owned(s),
        }
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Split `text` into fields in one pass, calling `emit(field, ends_record)`
/// for each.
///
/// A `"` opens a quoted section only at the start of a field's content
/// (`""` inside it is one quote; text after the closing quote still
/// belongs to the field). Outside quotes `\r` is dropped and `\n` ends the
/// record; a final record without a trailing newline counts unless it is
/// a single empty field. Syntax errors carry their physical line.
fn scan<'a>(text: &'a str, sep: char, mut emit: impl FnMut(Cow<'a, str>, bool)) -> Result<()> {
    let bytes = text.as_bytes();
    let mut sep_buf = [0u8; 4];
    let sep = sep.encode_utf8(&mut sep_buf).as_bytes();
    // The bytes that can end an unquoted run: quote, CR, LF and the
    // separator's first byte (a lead byte when it is multi-byte, so it
    // only ever matches at a char boundary).
    let mut stop = [false; 256];
    for b in [b'"', b'\r', b'\n', sep[0]] {
        stop[usize::from(b)] = true;
    }
    let mut field = Field::Span(0, 0);
    let mut record_open = false;
    let mut line = 1usize;
    // Start of the unquoted run not yet appended to `field`.
    let mut run = 0usize;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        if !stop[usize::from(b)] {
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                field.add_span(text, run, i);
                if !field.is_empty() {
                    return Err(Error::Csv {
                        line,
                        message: "quote inside unquoted field".into(),
                    });
                }
                i += 1;
                loop {
                    let Some(close) = bytes[i..].iter().position(|&c| c == b'"') else {
                        return Err(Error::Csv {
                            line: line + count_newlines(&bytes[i..]),
                            message: "unterminated quoted field".into(),
                        });
                    };
                    let close = i + close;
                    line += count_newlines(&bytes[i..close]);
                    if bytes.get(close + 1) == Some(&b'"') {
                        field.add_span(text, i, close + 1);
                        i = close + 2;
                    } else {
                        field.add_span(text, i, close);
                        i = close + 1;
                        break;
                    }
                }
                run = i;
            }
            b'\r' => {
                field.add_span(text, run, i);
                i += 1;
                run = i;
            }
            b'\n' => {
                field.add_span(text, run, i);
                emit(field.take_text(text), true);
                record_open = false;
                line += 1;
                i += 1;
                run = i;
            }
            _ if bytes[i..].starts_with(sep) => {
                field.add_span(text, run, i);
                emit(field.take_text(text), false);
                record_open = true;
                i += sep.len();
                run = i;
            }
            _ => i += 1,
        }
    }
    field.add_span(text, run, bytes.len());
    if !field.is_empty() || record_open {
        emit(field.take_text(text), true);
    }
    Ok(())
}

/// One column's fields in one run, as scanned. While they are all
/// integers or NULL they are stored classified: one `i64` per row (0 on a
/// NULL row) with the NULL rows noted aside. From the first other field
/// on, each field is a slice of the input, or `""` with its copy noted by
/// row when its content had to be copied. A `Vec<Cow<str>>` would take 24
/// bytes per field instead of 16, which is most of ingest's peak memory
/// on a large input.
#[derive(Default)]
struct Tokens<'a> {
    /// The leading integer or NULL fields.
    ints: Vec<i64>,
    /// The rows of `ints` that are NULL, ascending.
    null_rows: Vec<usize>,
    /// The fields from the first other one on.
    slices: Vec<&'a str>,
    /// The copied fields among `slices`, by index into it.
    copied: Vec<(usize, String)>,
    /// Bytes in the fields.
    bytes: usize,
}

impl<'a> Tokens<'a> {
    /// Add the next field, classified as [`crate::Value::parse`] would
    /// while every field so far is an integer or NULL.
    fn add_field(&mut self, field: Cow<'a, str>, null_tokens: &[&str]) {
        self.bytes += field.len();
        if self.slices.is_empty() {
            match Cell::parse(&field, null_tokens) {
                Cell::Int(i) => return self.ints.push(i),
                Cell::Null => {
                    self.null_rows.push(self.ints.len());
                    return self.ints.push(0);
                }
                Cell::Float(_) | Cell::Str(_) => {}
            }
        }
        match field {
            Cow::Borrowed(slice) => self.slices.push(slice),
            Cow::Owned(copy) => {
                self.copied.push((self.slices.len(), copy));
                self.slices.push("");
            }
        }
    }

    fn rows(&self) -> usize {
        self.ints.len() + self.slices.len()
    }

    /// Every field in row order, classified as [`crate::Value::parse`]
    /// would: the integer store, then the slices.
    fn runs<'s>(&'s self, null_tokens: &'s [&str]) -> [Run<'s, impl Iterator<Item = Cell<'s>>>; 2] {
        let mut copied = self.copied.iter().peekable();
        let rest = self.slices.iter().enumerate().map(move |(at, &slice)| {
            let field = match copied.next_if(|(copy_at, _)| *copy_at == at) {
                Some((_, copy)) => copy.as_str(),
                None => slice,
            };
            Cell::parse(field, null_tokens)
        });
        [
            Run::Ints {
                keys: &self.ints,
                null_rows: &self.null_rows,
            },
            Run::Cells(rest),
        ]
    }
}

/// One column's fields: one [`Tokens`] per chunk, read in chunk order
/// without concatenating them.
struct ColumnFields<'a, 'n> {
    chunks: Vec<Tokens<'a>>,
    null_tokens: &'n [&'n str],
}

impl ColumnFields<'_, '_> {
    /// Bytes in the column's fields: what its encoding costs, roughly.
    fn bytes(&self) -> usize {
        self.chunks.iter().map(|tokens| tokens.bytes).sum()
    }
}

impl CellSource for ColumnFields<'_, '_> {
    fn rows(&self) -> usize {
        self.chunks.iter().map(Tokens::rows).sum()
    }

    fn runs(&self) -> impl Iterator<Item = Run<'_, impl Iterator<Item = Cell<'_>>>> {
        self.chunks
            .iter()
            .flat_map(|tokens| tokens.runs(self.null_tokens))
    }
}

/// A run of whole records, scanned into per-column fields.
struct Records<'a> {
    /// The first record's fields, when that record is the header.
    header: Vec<String>,
    /// Per column, the fields of every other record. The first record
    /// sets the number of columns.
    columns: Vec<Tokens<'a>>,
    /// The first record whose field count differs from the first
    /// record's, numbered from 1 at the first record.
    ragged: Option<Error>,
}

/// Scan `text` into per-column fields, classifying them against
/// `null_tokens`; its first record is the header when `header` is set.
fn scan_records<'a>(
    text: &'a str,
    sep: char,
    null_tokens: &[&str],
    header: bool,
) -> Result<Records<'a>> {
    let mut out = Records {
        header: Vec::new(),
        columns: Vec::new(),
        ragged: None,
    };
    // Completed records and fields of the current one.
    let mut records = 0usize;
    let mut fields = 0usize;
    scan(text, sep, |field, ends_record| {
        if records == 0 && header {
            out.header.push(field.into_owned());
        } else if records == 0 {
            let mut column = Tokens::default();
            column.add_field(field, null_tokens);
            out.columns.push(column);
        } else if out.ragged.is_none() {
            if let Some(column) = out.columns.get_mut(fields) {
                column.add_field(field, null_tokens);
            }
        }
        fields += 1;
        if ends_record {
            if records == 0 {
                out.columns.resize_with(fields, Tokens::default);
            } else if fields != out.columns.len() && out.ragged.is_none() {
                out.ragged = Some(Error::Csv {
                    line: records + 1,
                    message: format!("expected {} fields, found {fields}", out.columns.len()),
                });
            }
            records += 1;
            fields = 0;
        }
    })?;
    Ok(out)
}

/// Cut `text` into at most `pieces` runs of whole records, of about equal
/// length. A cut follows a `\n` outside quotes, found by quote parity:
/// every valid quoted field holds an even number of `"`, so a `\n` with
/// an even number of `"` before it ends a record. The first run holds the
/// first record. In invalid input a cut can land inside a record; the
/// reader then reads the text whole.
fn record_chunks(text: &str, pieces: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let step = bytes.len() / pieces.max(1);
    let mut chunks = Vec::with_capacity(pieces);
    // Start of the current run, the byte reached, and the quotes before it.
    let (mut start, mut at, mut quotes) = (0usize, 0usize, 0usize);
    for k in 1..pieces {
        let target = step * k;
        if target <= at {
            continue;
        }
        quotes += bytes[at..target].iter().filter(|&&b| b == b'"').count();
        at = target;
        while let Some(&b) = bytes.get(at) {
            at += 1;
            if b == b'"' {
                quotes += 1;
            } else if b == b'\n' && quotes % 2 == 0 {
                break;
            }
        }
        if at == bytes.len() {
            break;
        }
        chunks.push(&text[start..at]);
        start = at;
    }
    chunks.push(&text[start..]);
    chunks
}

/// Parse CSV text into a [`Relation`], on every core the host offers, or
/// on one for text under 40,000 bytes (see [`crate::pool`]); the relation
/// and every error are the same at every thread count.
///
/// Ragged records are reported with their record number (the header is
/// line 1), after any syntax error anywhere in the input.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Relation> {
    read_csv_on(text, opts, ingest_threads(text.len() < SERIAL_CSV_BYTES))
}

/// [`read_csv_str`] on `threads` workers. The text is cut into up to
/// `threads` runs of whole records ([`record_chunks`]), each scanned into
/// its own per-column fields; then every column is classified from its
/// runs in order, without concatenating them, and rank encoded.
pub(crate) fn read_csv_on(text: &str, opts: &CsvOptions, threads: usize) -> Result<Relation> {
    let sep = opts.separator;
    let null_tokens: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
    let chunks: Vec<(bool, &str)> = record_chunks(text, threads)
        .into_iter()
        .enumerate()
        .map(|(k, chunk)| (k == 0 && opts.has_header, chunk))
        .collect();
    let mut parts = par_map(chunks, threads, |&(header, chunk)| {
        scan_records(chunk, sep, &null_tokens, header)
    });
    let arity = match parts.first() {
        Some(Ok(first)) => first.columns.len(),
        _ => 0,
    };
    let whole = |part: &Result<Records<'_>>| {
        part.as_ref()
            .is_ok_and(|p| p.ragged.is_none() && p.columns.len() == arity)
    };
    if !parts.iter().all(whole) {
        // Re-read serially, so every error keeps its kind, text and line.
        parts = vec![scan_records(text, sep, &null_tokens, opts.has_header)];
    }

    let mut names = Vec::new();
    let mut columns: Vec<Vec<Tokens<'_>>> = Vec::new();
    for (k, part) in parts.into_iter().enumerate() {
        let part = part?;
        if let Some(err) = part.ragged {
            return Err(err);
        }
        if k == 0 {
            names = part.header;
            // lint: allow(hot-loop-alloc, once per read: only the first run sizes the columns)
            columns.resize_with(part.columns.len(), Vec::new);
        }
        for (column, tokens) in columns.iter_mut().zip(part.columns) {
            column.push(tokens);
        }
    }
    if !opts.has_header {
        names = (0..columns.len()).map(|c| format!("col{c}")).collect();
    }

    let columns: Vec<(String, ColumnFields<'_, '_>)> = names
        .into_iter()
        .zip(columns)
        .map(|(name, chunks)| {
            let fields = ColumnFields {
                chunks,
                null_tokens: &null_tokens,
            };
            (name, fields)
        })
        .collect();
    let num_rows = columns.first().map_or(0, |(_, fields)| fields.rows());
    // Hand out the columns with the most field bytes first, so the
    // costliest encodes start early instead of one of them running alone
    // at the end; then put the encoded columns back in schema order.
    let mut columns: Vec<(usize, (String, ColumnFields<'_, '_>))> =
        columns.into_iter().enumerate().collect();
    columns.sort_by_key(|(_, (_, fields))| std::cmp::Reverse(fields.bytes()));
    let (slots, columns): (Vec<usize>, Vec<_>) = columns.into_iter().unzip();
    let mut encoded: Vec<(usize, Column)> = slots
        .into_iter()
        .zip(Column::encode_all(columns, opts.typing, threads))
        .collect();
    encoded.sort_unstable_by_key(|&(slot, _)| slot);
    let columns = encoded.into_iter().map(|(_, column)| column).collect();
    Ok(Relation::from_encoded(columns, num_rows))
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Relation> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    read_csv_str(&text, opts)
}

/// Append `field` to `out`, quoted (with `""` escapes) when it holds a
/// comma, a quote or a newline.
fn push_field(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (k, part) in field.split('"').enumerate() {
        if k > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Serialize a relation back to CSV text (header included), writing each
/// field straight into the output.
pub fn write_csv(rel: &Relation) -> String {
    let mut out = String::new();
    for (c, name) in rel.column_names().into_iter().enumerate() {
        if c > 0 {
            out.push(',');
        }
        push_field(&mut out, name);
    }
    out.push('\n');
    for row in 0..rel.num_rows() {
        for c in 0..rel.num_columns() {
            if c > 0 {
                out.push(',');
            }
            match rel.value(row, c) {
                Value::Str(text) => push_field(&mut out, text),
                // A number's display form holds no comma, quote or newline,
                // and NULL's is empty.
                value => {
                    let _ = write!(out, "{value}");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn basic_parse_with_header() {
        let r = read_csv_str("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column_names(), vec!["a", "b"]);
        assert_eq!(r.value(0, 0), &Value::Int(1));
        assert_eq!(r.value(1, 1), &Value::Str("y".into()));
    }

    #[test]
    fn no_header_names_columns() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let r = read_csv_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(r.column_names(), vec!["col0", "col1"]);
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn quoted_fields_with_separator_and_quotes() {
        let r = read_csv_str(
            "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.value(0, 0), &Value::Str("x,y".into()));
        assert_eq!(r.value(0, 1), &Value::Str("he said \"hi\"".into()));
    }

    #[test]
    fn quoted_field_with_newline() {
        let r = read_csv_str("a\n\"line1\nline2\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.value(0, 0), &Value::Str("line1\nline2".into()));
    }

    #[test]
    fn null_tokens_become_null() {
        let r = read_csv_str("a,b,c\n1,?,\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.value(0, 1), &Value::Null);
        assert_eq!(r.value(0, 2), &Value::Null);
    }

    #[test]
    fn crlf_tolerated() {
        let r = read_csv_str("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 1), &Value::Int(2));
    }

    #[test]
    fn missing_final_newline_ok() {
        let r = read_csv_str("a\n1\n2", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn ragged_record_is_error() {
        let err = read_csv_str("a,b\n1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(read_csv_str("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn empty_input_empty_relation() {
        let r = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_columns(), 0);
    }

    #[test]
    fn alternative_separator() {
        let opts = CsvOptions {
            separator: ';',
            ..CsvOptions::default()
        };
        let r = read_csv_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(r.value(0, 1), &Value::Int(2));
    }

    #[test]
    fn write_then_read_round_trip() {
        let src = "a,b\n1,x\n2,\"y,z\"\n";
        let r = read_csv_str(src, &CsvOptions::default()).unwrap();
        let text = write_csv(&r);
        let r2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(r2.num_rows(), r.num_rows());
        for row in 0..r.num_rows() {
            for col in 0..r.num_columns() {
                assert_eq!(r.value(row, col), r2.value(row, col));
            }
        }
    }

    #[test]
    fn null_round_trips_as_empty() {
        let r = read_csv_str("a\n?\n", &CsvOptions::default()).unwrap();
        let text = write_csv(&r);
        assert_eq!(text, "a\n\n");
        let r2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(r2.value(0, 0), &Value::Null);
    }

    #[test]
    fn integers_above_2_pow_53_stay_distinct_through_csv() {
        let text = "big\n9007199254740992\n9007199254740993\n";
        let r = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(r.meta(0).distinct, 2);
        assert!(!r.meta(0).is_constant());
        assert_eq!(r.codes(0), &[0, 1]);
        assert_eq!(r.value(1, 0), &Value::Int(9_007_199_254_740_993));
        assert_eq!(write_csv(&r), text);
    }

    #[test]
    fn quoted_field_escapes_and_stray_cr_are_unescaped() {
        // `""` escapes, text after a closing quote, and a `\r` outside
        // quotes (dropped) vs inside quotes (kept).
        let r = read_csv_str(
            "a,b\n\"x\"\"y\"z,p\rq\n\"c\rr\",\"\"\r\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.value(0, 0), &Value::Str("x\"yz".into()));
        assert_eq!(r.value(0, 1), &Value::Str("pq".into()));
        assert_eq!(r.value(1, 0), &Value::Str("c\rr".into()));
        assert_eq!(r.value(1, 1), &Value::Null);
    }

    #[test]
    fn csv_errors_keep_their_lines_and_precedence() {
        let err = |text: &str| {
            let want = read_csv_on(text, &CsvOptions::default(), 1)
                .unwrap_err()
                .to_string();
            for threads in 2..=4 {
                let got = read_csv_on(text, &CsvOptions::default(), threads).unwrap_err();
                assert_eq!(got.to_string(), want, "{threads} threads");
            }
            want
        };
        assert_eq!(
            err("a,b\n1,2\n3\n4,5\n"),
            "CSV error at line 3: expected 2 fields, found 1"
        );
        // Records, not physical lines: the quoted newline does not count.
        assert_eq!(
            err("a,b\n\"1\n1\",2\n3,4,5\n"),
            "CSV error at line 3: expected 2 fields, found 3"
        );
        assert_eq!(
            err("a\nx\"y\n"),
            "CSV error at line 2: quote inside unquoted field"
        );
        // A syntax error anywhere wins over an earlier ragged record.
        assert_eq!(
            err("a,b\n1\n\"open\n\n"),
            "CSV error at line 5: unterminated quoted field"
        );
    }
}

/// The ingest path the single-pass reader replaced, kept as the
/// differential oracle of `read_csv_str` and
/// `Relation::from_columns_typed`: a record matrix of owned strings, one
/// `Value` per cell via the original `Value::parse`, `homogenize`, then
/// dense ranks from a `Value::cmp` sort.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::column::{counted, ColumnMeta, NarrowCodes};
    use crate::datatype::{homogenize, infer_type};
    use crate::manifest::manifest_hash;
    use crate::value::Value;
    use proptest::prelude::*;

    /// Split raw CSV text into records of string fields.
    fn parse_records(text: &str, sep: char) -> Result<Vec<Vec<String>>> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut line = 1usize;
        let mut chars = text.chars().peekable();
        let mut saw_any = false;

        while let Some(c) = chars.next() {
            saw_any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push(c);
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => {
                        if !field.is_empty() {
                            return Err(Error::Csv {
                                line,
                                message: "quote inside unquoted field".into(),
                            });
                        }
                        in_quotes = true;
                    }
                    '\r' => {} // tolerate CRLF
                    '\n' => {
                        line += 1;
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    c if c == sep => record.push(std::mem::take(&mut field)),
                    _ => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(Error::Csv {
                line,
                message: "unterminated quoted field".into(),
            });
        }
        // Final record without trailing newline.
        if saw_any && (!field.is_empty() || !record.is_empty()) {
            record.push(field);
            records.push(record);
        }
        Ok(records)
    }

    /// `Value::parse` as it was before classification moved to `Cell`:
    /// NULL token, then `i64`, then `f64` (NaN is NULL), then text.
    fn parse_value(token: &str, null_tokens: &[&str]) -> Value {
        if null_tokens.contains(&token) {
            return Value::Null;
        }
        if let Ok(i) = token.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = token.parse::<f64>() {
            if f.is_nan() {
                return Value::Null;
            }
            return Value::Float(f);
        }
        Value::Str(token.to_owned())
    }

    /// Rank-encode already homogenized values by sorting them with
    /// [`Value::cmp`].
    fn encode(name: String, values: Vec<Value>) -> Column {
        let data_type = infer_type(values.iter());
        let has_nulls = values.iter().any(Value::is_null);
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_unstable_by(|&a, &b| values[a].cmp(&values[b]));
        let mut codes = vec![0u32; values.len()];
        let mut dictionary: Vec<Value> = Vec::new();
        for &row in &order {
            if dictionary.last() != Some(&values[row]) {
                dictionary.push(values[row].clone());
            }
            codes[row] = dictionary.len() as u32 - 1;
        }
        let distinct = dictionary.len();
        let narrow = NarrowCodes::build(&codes, distinct);
        Column {
            codes,
            dictionary,
            narrow,
            meta: ColumnMeta {
                name,
                data_type,
                distinct,
                has_nulls,
            },
        }
    }

    /// The reference [`Relation::from_columns_typed`].
    fn from_columns_typed(named: Vec<(String, Vec<Value>)>, mode: TypingMode) -> Relation {
        let num_rows = named.first().map_or(0, |(_, v)| v.len());
        let columns = named
            .into_iter()
            .map(|(name, mut vals)| {
                homogenize(&mut vals, mode);
                encode(name, vals)
            })
            .collect();
        Relation::from_encoded(columns, num_rows)
    }

    /// The reference [`read_csv_str`].
    fn read_csv_reference(text: &str, opts: &CsvOptions) -> Result<Relation> {
        let records = parse_records(text, opts.separator)?;
        let mut iter = records.into_iter();
        let (names, first_data): (Vec<String>, Option<Vec<String>>) = match iter.next() {
            None => return Ok(from_columns_typed(vec![], opts.typing)),
            Some(h) if opts.has_header => (h, None),
            Some(first) => (
                (0..first.len()).map(|i| format!("col{i}")).collect(),
                Some(first),
            ),
        };
        let arity = names.len();
        let null_refs: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
        let mut data: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let first_line = if opts.has_header { 2 } else { 1 };
        for (line, record) in (first_line..).zip(first_data.into_iter().chain(iter)) {
            if record.len() != arity {
                return Err(Error::Csv {
                    line,
                    message: format!("expected {arity} fields, found {}", record.len()),
                });
            }
            for (col, tok) in record.into_iter().enumerate() {
                data[col].push(parse_value(&tok, &null_refs));
            }
        }
        Ok(from_columns_typed(
            names.into_iter().zip(data).collect(),
            opts.typing,
        ))
    }

    /// Equal codes, metadata, narrow mirrors, manifest and (under `==`)
    /// dictionaries, or the first difference.
    fn same_relation(got: &Relation, want: &Relation) -> std::result::Result<(), String> {
        if got.num_rows() != want.num_rows() || got.num_columns() != want.num_columns() {
            return Err(format!(
                "shape {}x{} != {}x{}",
                got.num_rows(),
                got.num_columns(),
                want.num_rows(),
                want.num_columns()
            ));
        }
        for c in 0..got.num_columns() {
            if got.meta(c) != want.meta(c) {
                return Err(format!(
                    "col {c}: meta {:?} != {:?}",
                    got.meta(c),
                    want.meta(c)
                ));
            }
            if got.codes(c) != want.codes(c) {
                return Err(format!(
                    "col {c}: codes {:?} != {:?}",
                    got.codes(c),
                    want.codes(c)
                ));
            }
            if got.narrow_codes(c) != want.narrow_codes(c) {
                return Err(format!("col {c}: narrow mirrors differ"));
            }
            for r in 0..got.num_rows() {
                if got.value(r, c) != want.value(r, c) {
                    return Err(format!(
                        "cell ({r}, {c}): {:?} != {:?}",
                        got.value(r, c),
                        want.value(r, c)
                    ));
                }
            }
        }
        if manifest_hash(got) != manifest_hash(want) {
            return Err("manifest hashes differ".into());
        }
        Ok(())
    }

    /// SplitMix64 stream driving the CSV text generator.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn percent(&mut self, p: u64) -> bool {
            self.next() % 100 < p
        }

        fn pick<'t>(&mut self, from: &[&'t str]) -> &'t str {
            from[self.below(from.len())]
        }
    }

    /// Integer-looking tokens, the NULL tokens and the `i64`/`2^53` edges.
    const INT_TOKENS: &[&str] = &[
        "0",
        "01",
        "-0",
        "+2",
        "2",
        "-7",
        "1000",
        "-9223372036854775808",
        "9223372036854775807",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "",
        "?",
        "NULL",
        "NA",
    ];

    /// Float-looking tokens, including the ones that parse to NULL or to
    /// values equal to an integer.
    const FLOAT_TOKENS: &[&str] = &[
        "2.0",
        "2.5",
        "-0.0",
        "0.0",
        "1e3",
        "1E3",
        ".5",
        "inf",
        "-inf",
        "infinity",
        "NaN",
        "nan",
        "9223372036854775808",
        "9007199254740992.0",
        "9007199254740993.0",
    ];

    /// Text, including fields that need quoting or escapes.
    const TEXT_TOKENS: &[&str] = &[
        "abc",
        "b",
        "a b",
        " 7",
        "x,y",
        "x;y",
        "x\ty",
        "x│y",
        "he said \"hi\"",
        "\"",
        "line1\nline2",
        "cr\rin",
        "é",
    ];

    const SEPARATORS: [char; 4] = [',', ';', '\t', '│'];

    /// Append one field: quoted when it must be (or by chance), with stray
    /// `\r`s outside and, unless `exact`, inside quotes, or with its tail
    /// after the closing quote of its quoted head. An `exact` field reads
    /// back as `token`.
    fn write_field(out: &mut String, token: &str, sep: char, exact: bool, g: &mut Gen) {
        let must_quote = token.contains(sep) || token.contains('"') || token.contains('\n');
        let cut = |g: &mut Gen| {
            token
                .char_indices()
                .map(|(i, _)| i)
                .nth(g.below(token.chars().count()))
                .unwrap_or(0)
        };
        if must_quote || g.percent(15) {
            out.push('"');
            out.push_str(&token.replace('"', "\"\""));
            if g.percent(5) && !exact {
                out.push('\r'); // kept: inside quotes
            }
            out.push('"');
        } else if token.chars().count() > 1 && g.percent(5) {
            // Text after a closing quote still belongs to the field.
            let at = cut(g).max(token.chars().next().map_or(0, char::len_utf8));
            out.push('"');
            out.push_str(&token[..at]);
            out.push('"');
            out.push_str(&token[at..]);
        } else if !token.is_empty() && g.percent(5) {
            let at = cut(g);
            out.push_str(&token[..at]);
            out.push('\r'); // dropped: outside quotes
            out.push_str(&token[at..]);
        } else {
            out.push_str(token);
        }
        if g.percent(2) {
            out.push('\r'); // dropped: after the closing quote or the text
        }
    }

    /// Where [`generate_csv`] puts the record at which a column's integer
    /// fields end, relative to the runs [`record_chunks`] cuts at `threads`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fallback {
        /// Inside the first run.
        FirstRun,
        /// The first record of a later run.
        OnCut,
        /// Inside a later run.
        LaterRun,
    }

    /// A column of a generated document that holds integer and NULL
    /// fields up to a record and any field from there on.
    #[derive(Debug)]
    struct Switch {
        column: usize,
        /// The first field that is neither, as a data record index.
        record: usize,
        placement: Fallback,
        /// The thread count whose runs the record is placed in.
        threads: usize,
        /// Whether the record landed where it was placed.
        landed: bool,
    }

    /// A generated CSV document, the options to read it with, and its
    /// switching column, if it has one.
    fn generate_csv(seed: u64) -> (String, CsvOptions, Option<Switch>) {
        let mut g = Gen(seed);
        let sep = SEPARATORS[g.below(SEPARATORS.len())];
        let opts = CsvOptions {
            separator: sep,
            has_header: g.percent(70),
            null_tokens: if g.percent(20) {
                vec!["NA".to_owned()]
            } else {
                CsvOptions::default().null_tokens
            },
            typing: if g.percent(30) {
                TypingMode::ForceLexicographic
            } else {
                TypingMode::Infer
            },
        };
        let arity = 1 + g.below(4);
        let rows = g.below(40);
        // Ragged records and syntax errors only in some documents, so most
        // documents of 40 rows still parse.
        let dirty = g.percent(40);
        // Per column: integers only, numbers, or anything.
        let pools: Vec<Vec<&str>> = (0..arity)
            .map(|_| match g.below(3) {
                0 => INT_TOKENS.to_vec(),
                1 => [INT_TOKENS, FLOAT_TOKENS].concat(),
                _ => [INT_TOKENS, FLOAT_TOKENS, TEXT_TOKENS].concat(),
            })
            .collect();
        // The column that switches: integer and NULL fields (NaN is NULL)
        // up to its fallback record, which is neither, and anything after.
        let switch = g.percent(50).then(|| g.below(arity));
        let nulls: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
        let classified =
            |token: &&str| matches!(Cell::parse(token, &nulls), Cell::Int(_) | Cell::Null);
        let any = [INT_TOKENS, FLOAT_TOKENS, TEXT_TOKENS].concat();
        let leading: Vec<&str> = any.iter().copied().filter(classified).collect();
        let fallback: Vec<&str> = any.iter().copied().filter(|t| !classified(t)).collect();

        let mut header = String::new();
        let newline = |out: &mut String, g: &mut Gen| {
            out.push_str(if g.percent(30) { "\r\n" } else { "\n" });
        };
        if opts.has_header {
            for c in 0..arity {
                if c > 0 {
                    header.push(sep);
                }
                let name = format!("c{c}{}", g.pick(&["", "x", ",", " y", "\"q\""]));
                write_field(&mut header, &name, sep, false, &mut g);
            }
            newline(&mut header, &mut g);
        }
        // Each record as the text before and after its switch field (all
        // of it before when it has none), and that field written as a
        // leading, a fallback and an any field.
        let mut records: Vec<(String, [String; 3], String)> = Vec::new();
        for _ in 0..rows {
            let fields = match g.below(if dirty { 60 } else { 1 }) {
                1 => arity.saturating_sub(1).max(1),
                2 => arity + 1,
                _ => arity,
            };
            let (mut before, mut variants, mut after) =
                (String::new(), <[String; 3]>::default(), String::new());
            for c in 0..fields {
                let out = if switch.is_some_and(|s| s < c) {
                    &mut after
                } else {
                    &mut before
                };
                if c > 0 {
                    out.push(sep);
                }
                if switch == Some(c) {
                    let fork = g.next();
                    let pools = [&leading, &fallback, &any];
                    for ((variant, pool), exact) in
                        variants.iter_mut().zip(pools).zip([true, false, false])
                    {
                        let mut g = Gen(fork);
                        let token = g.pick(pool);
                        write_field(variant, token, sep, exact, &mut g);
                    }
                } else {
                    let token = g.pick(&pools[c.min(arity - 1)]);
                    write_field(out, token, sep, false, &mut g);
                }
            }
            let out = if switch.is_some_and(|s| s < fields) {
                &mut after
            } else {
                &mut before
            };
            match g.below(if dirty { 150 } else { 1 }) {
                1 => out.push_str("x\"y"),    // quote inside an unquoted field
                2 => out.push_str(",\"open"), // unterminated quoted field
                _ => {}
            }
            newline(out, &mut g);
            records.push((before, variants, after));
        }
        let end_early = g.percent(30);
        // Record `row`'s text when the switch column falls back at `k`.
        let record = |row: usize, k: usize| {
            let (before, variants, after) = &records[row];
            [
                before,
                &variants[usize::from(row >= k) + usize::from(row > k)],
                after,
            ]
        };
        // The document whose switch column falls back at record `k`.
        let document = |k: usize| {
            let mut out = header.clone();
            for row in 0..rows {
                out.extend(record(row, k).map(String::as_str));
            }
            if end_early {
                out.pop(); // no trailing newline
            }
            out
        };
        let Some(column) = switch.filter(|_| rows > 0) else {
            return (document(rows), opts, None);
        };
        // Place the fallback record: cut the document at `k` into runs,
        // move `k` to where the placement wants it in those runs, and
        // repeat while that moves the cuts.
        let placement = [Fallback::FirstRun, Fallback::OnCut, Fallback::LaterRun][g.below(3)];
        let threads = 2 + g.below(3);
        let pick = g.next();
        let mut k = rows / 2;
        for _ in 0..8 {
            let text = document(k);
            // The data record each run starts at (the first run, header
            // included, at record 0); runs that start inside a record
            // (only in invalid documents) round down.
            let mut starts: Vec<usize> = Vec::new();
            let (mut at, mut row, mut bytes) = (0usize, 0usize, header.len());
            for chunk in record_chunks(&text, threads) {
                while row < rows && bytes < at {
                    bytes += record(row, k).iter().map(|part| part.len()).sum::<usize>();
                    row += 1;
                }
                starts.push(if at == 0 || bytes == at { row } else { row - 1 });
                at += chunk.len();
            }
            starts.push(rows);
            let runs = starts.len() - 1;
            let later = 1 + (pick as usize) % runs.saturating_sub(1).max(1);
            let (from, to) = match placement {
                Fallback::FirstRun => (starts[0], starts[1]),
                _ if runs < 2 => (starts[0], starts[1]),
                _ => (starts[later], starts[later + 1]),
            };
            let next = match placement {
                Fallback::OnCut => from,
                _ => from + 1 + (pick as usize) % (to - from).max(2).saturating_sub(1),
            }
            .min(rows - 1);
            if next == k {
                let landed = match placement {
                    Fallback::OnCut => runs >= 2 && starts[1..runs].contains(&k),
                    Fallback::FirstRun => k < starts[1],
                    Fallback::LaterRun => runs >= 2 && k > starts[1] && !starts.contains(&k),
                };
                let switch = Switch {
                    column,
                    record: k,
                    placement,
                    threads,
                    landed,
                };
                return (text, opts, Some(switch));
            }
            k = next;
        }
        let switch = Switch {
            column,
            record: k,
            placement,
            threads,
            landed: false,
        };
        (document(k), opts, Some(switch))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        #[test]
        fn single_pass_reader_matches_reference(seed in 0u64..u64::MAX) {
            let (text, opts, _) = generate_csv(seed);
            let want = read_csv_reference(&text, &opts);
            let null_tokens: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
            for threads in 1..=4 {
                // On valid input every cut is a record boundary, so no run
                // fails and the reader never falls back to one thread.
                if want.is_ok() {
                    for chunk in record_chunks(&text, threads) {
                        let clean = scan_records(chunk, opts.separator, &null_tokens, false)
                            .is_ok_and(|run| run.ragged.is_none());
                        prop_assert!(clean, "{text:?} {threads} threads: run {chunk:?}");
                    }
                }
                match (read_csv_on(&text, &opts, threads), &want) {
                    (Ok(got), Ok(want)) => {
                        let same = same_relation(&got, want);
                        prop_assert!(
                            same.is_ok(),
                            "{text:?} {opts:?} {threads} threads: {}",
                            same.unwrap_err()
                        );
                        prop_assert_eq!(got.column_names(), want.column_names());
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(
                        got.to_string(),
                        want.to_string(),
                        "{} threads",
                        threads
                    ),
                    (got, want) => prop_assert!(
                        false,
                        "{text:?} {opts:?} {threads} threads: {:?} vs {:?}",
                        got.map(|r| r.num_rows()),
                        want.as_ref().map(|r| r.num_rows())
                    ),
                }
            }
        }

        #[test]
        fn encoder_matches_reference_on_value_columns(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let rows = g.below(12);
            let mode = if g.percent(30) {
                TypingMode::ForceLexicographic
            } else {
                TypingMode::Infer
            };
            let named: Vec<(String, Vec<Value>)> = (0..1 + g.below(3))
                .map(|c| {
                    // A random non-empty subset of the four kinds per column.
                    let kinds: Vec<usize> = loop {
                        let mask = g.below(16);
                        if mask != 0 {
                            break (0..4).filter(|k| mask & (1 << k) != 0).collect();
                        }
                    };
                    let vals = (0..rows)
                        .map(|_| match kinds[g.below(kinds.len())] {
                            0 => Value::Int([0, 2, -7, 1 << 53, (1 << 53) + 1, i64::MAX][g.below(6)]),
                            1 => Value::Float([0.0, -0.0, 2.0, 2.5, 9_007_199_254_740_992.0][g.below(5)]),
                            2 => Value::Null,
                            _ => Value::Str(g.pick(&["a", "2", "-0", "b"]).to_owned()),
                        })
                        .collect();
                    (format!("c{c}"), vals)
                })
                .collect();
            let slices = || named.iter().map(|(name, vals)| (name.as_str(), vals.as_slice()));
            let want = from_columns_typed(named.clone(), mode);
            for threads in 1..=4 {
                let got = Relation::from_column_slices_on(slices(), mode, threads).unwrap();
                let same = same_relation(&got, &want);
                prop_assert!(same.is_ok(), "{threads} threads: {}", same.unwrap_err());
                prop_assert_eq!(got.column_names(), want.column_names());
            }
        }
    }

    /// An `Int` column of `rows` rows whose non-NULL keys span exactly
    /// `span` values from `lo` (a span of 0 stands for all of `i64`), with
    /// both ends present when there are two keys or more; `nulls` is the
    /// percentage of NULL rows. Also returns whether the counting rank
    /// applies: some key, and a span of at most the cut-off times the keys,
    /// worked out from the keys themselves.
    fn int_column(g: &mut Gen, rows: usize, nulls: u64, lo: i64, span: u64) -> (Vec<Value>, bool) {
        let mut vals: Vec<Value> = (0..rows)
            .map(|_| {
                if g.percent(nulls) {
                    Value::Null
                } else {
                    let offset = if span == 0 { g.next() } else { g.next() % span };
                    Value::Int(lo.wrapping_add_unsigned(offset))
                }
            })
            .collect();
        let keyed: Vec<usize> = (0..rows).filter(|&r| !vals[r].is_null()).collect();
        if let [.., at_lo, at_hi] = keyed[..] {
            vals[at_lo] = Value::Int(lo);
            vals[at_hi] = Value::Int(lo.wrapping_add_unsigned(span.wrapping_sub(1)));
        }
        let keys = keyed.iter().map(|&r| match vals[r] {
            Value::Int(key) => key,
            _ => unreachable!("keyed rows hold integers"),
        });
        let (min, max) = (keys.clone().min(), keys.max());
        let cut = crate::column::COUNTING_SPAN_ROWS as u128 * keyed.len() as u128;
        let counted = min
            .zip(max)
            // A span of max − min + 1 within the cut-off.
            .is_some_and(|(min, max)| u128::from(max.abs_diff(min)) < cut);
        (vals, counted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `Int` columns whose span lies below, at or just above the
        /// counting cut-off or far above it (all of `i64` included), with
        /// negative keys, one distinct key, NULLs among the keys or only
        /// NULLs, ranked through `Relation::from_columns` and through CSV
        /// text at 1–4 threads: each equals the reference, dictionary
        /// variants included, and is ranked by counting exactly when the
        /// span is within the cut-off.
        #[test]
        fn int_ranking_matches_reference_across_the_cut_off(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let rows = 1 + g.below(48);
            let nulls = [0, 0, 25, 60, 100][g.below(5)];
            let cut = crate::column::COUNTING_SPAN_ROWS as u64 * rows as u64;
            let span = match g.below(8) {
                0 => 1,
                1 => cut.saturating_sub(1).max(1),
                2 => cut,
                3 => cut + 1,
                4 => 1 + g.next() % cut,
                5 => cut + 1 + g.next() % (1 << 40),
                6 => 0,
                _ => 1 + g.next() % 64,
            };
            let lo = match (span, g.below(4)) {
                (0, _) => i64::MIN,
                (_, 0) => i64::MIN,
                (_, 1) => i64::MAX.wrapping_sub_unsigned(span - 1),
                (_, 2) => -(g.below(1000) as i64),
                _ => (g.next() >> 2) as i64 - (1 << 61),
            };
            let (vals, counts) = int_column(&mut g, rows, nulls, lo, span);
            let want = from_columns_typed(vec![("k".to_owned(), vals.clone())], TypingMode::Infer);
            let (got, counted) = counted::during(|| {
                Relation::from_columns(vec![("k".to_owned(), vals.clone())]).unwrap()
            });
            let same_values = |got: &Relation| {
                (0..rows).all(|r| format!("{:?}", got.value(r, 0)) == format!("{:?}", want.value(r, 0)))
            };
            let same = same_relation(&got, &want);
            prop_assert!(same.is_ok(), "from_columns: {}", same.unwrap_err());
            prop_assert!(same_values(&got));
            prop_assert_eq!(counted, usize::from(counts));
            let text: String = std::iter::once("k".to_owned())
                .chain(vals.iter().map(Value::to_string))
                .map(|field| field + "\n")
                .collect();
            for threads in 1..=4 {
                let (got, counted) =
                    counted::during(|| read_csv_on(&text, &CsvOptions::default(), threads).unwrap());
                let same = same_relation(&got, &want);
                prop_assert!(same.is_ok(), "{threads} threads: {}", same.unwrap_err());
                prop_assert!(same_values(&got), "{} threads", threads);
                prop_assert_eq!(counted, usize::from(counts), "{} threads", threads);
            }
        }
    }

    /// Most generated switching columns land where they were placed, and
    /// in a valid document the typed scan of each run up to the fallback
    /// record's keeps exactly the switching column's fields before that
    /// record as integers.
    #[test]
    fn generated_fallbacks_land_where_placed() {
        let mut asked = [0usize; 3];
        let mut landed = [0usize; 3];
        for seed in 0..600 {
            let (text, opts, Some(switch)) = generate_csv(seed) else {
                continue;
            };
            asked[switch.placement as usize] += 1;
            landed[switch.placement as usize] += usize::from(switch.landed);
            if read_csv_reference(&text, &opts).is_err() {
                continue;
            }
            let nulls: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
            let mut first = 0;
            for (k, chunk) in record_chunks(&text, switch.threads).into_iter().enumerate() {
                let run =
                    scan_records(chunk, opts.separator, &nulls, k == 0 && opts.has_header).unwrap();
                let tokens = &run.columns[switch.column];
                if first <= switch.record {
                    let leading = (switch.record - first).min(tokens.rows());
                    assert_eq!(tokens.ints.len(), leading, "seed {seed}: {switch:?}");
                }
                first += tokens.rows();
            }
        }
        for (asked, landed) in asked.into_iter().zip(landed) {
            assert!(landed * 2 >= asked, "{landed} of {asked}");
        }
    }

    /// `write_csv` as it was before it wrote fields in place: one `String`
    /// per field and a `join` per record.
    fn write_csv_reference(rel: &Relation) -> String {
        let quote_field = |field: &str| {
            if field.contains(',') || field.contains('"') || field.contains('\n') {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_owned()
            }
        };
        let mut out = String::new();
        let header: Vec<String> = rel.column_names().iter().map(|n| quote_field(n)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in 0..rel.num_rows() {
            let fields: Vec<String> = (0..rel.num_columns())
                .map(|c| quote_field(&rel.value(row, c).to_string()))
                .collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `write_csv` writes the bytes the one-`String`-per-field writer
        /// wrote, on tables of every type whose names and text need quotes.
        #[test]
        fn writer_matches_the_per_field_writer(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let rows = g.below(20);
            let named: Vec<(String, Vec<Value>)> = (0..1 + g.below(4))
                .map(|c| {
                    let kind = g.below(4);
                    let vals = (0..rows)
                        .map(|_| match (kind, g.below(4)) {
                            (_, 0) => Value::Null,
                            (0, _) => Value::Int([0, -7, i64::MIN, i64::MAX, 1 << 53][g.below(5)]),
                            (1, _) => Value::Float([-0.0, 2.5, 1e300, 5e-324, f64::INFINITY, f64::NEG_INFINITY][g.below(6)]),
                            _ => Value::Str(g.pick(TEXT_TOKENS).to_owned()),
                        })
                        .collect();
                    (format!("c{c}{}", g.pick(&["", ",", "\"q\"", "a\nb"])), vals)
                })
                .collect();
            let mode = if g.percent(30) { TypingMode::ForceLexicographic } else { TypingMode::Infer };
            let rel = Relation::from_columns_typed(named, mode).unwrap();
            prop_assert_eq!(write_csv(&rel), write_csv_reference(&rel));
        }
    }

    #[test]
    fn multi_byte_separator_uses_the_same_scanner() {
        let opts = CsvOptions {
            separator: '│',
            ..CsvOptions::default()
        };
        let text = "a│b\n1│\"x│y\"\n2│é\n";
        let got = read_csv_str(text, &opts).unwrap();
        same_relation(&got, &read_csv_reference(text, &opts).unwrap()).unwrap();
        assert_eq!(got.value(0, 1), &Value::Str("x│y".into()));
    }

    #[test]
    fn generated_workload_tables_round_trip_like_the_reference() {
        // A table with every type, NULLs and quoting needs, written and read
        // back through both readers.
        let mut named = Vec::new();
        named.push((
            "i".to_owned(),
            (0..50).map(|i| Value::Int(i * 7 % 13)).collect::<Vec<_>>(),
        ));
        named.push((
            "f".to_owned(),
            (0..50)
                .map(|i| Value::Float(f64::from(i) / 4.0))
                .collect::<Vec<_>>(),
        ));
        named.push((
            "s".to_owned(),
            (0..50)
                .map(|i| match i % 4 {
                    0 => Value::Null,
                    1 => Value::Str(format!("v,{i}")),
                    2 => Value::Int(i64::from(i)),
                    _ => Value::Str(format!("q\"{i}")),
                })
                .collect::<Vec<_>>(),
        ));
        let rel = Relation::from_columns(named).unwrap();
        let text = write_csv(&rel);
        let opts = CsvOptions::default();
        same_relation(
            &read_csv_str(&text, &opts).unwrap(),
            &read_csv_reference(&text, &opts).unwrap(),
        )
        .unwrap();
    }
}
