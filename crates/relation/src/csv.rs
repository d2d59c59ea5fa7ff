//! Minimal CSV reader/writer (RFC-4180 subset) — no external dependency.
//!
//! Supports quoted fields with embedded separators, quotes (`""` escape) and
//! newlines; configurable separator and NULL tokens; optional header row.
//!
//! Reading is one pass over the input bytes that appends every field to its
//! column as a slice of the input — copied only when a `""` escape or a
//! dropped `\r` splits the field's content — after which each column is rank
//! encoded straight from those slices. No record matrix and no per-cell
//! `String` or [`crate::Value`] is built; only distinct values are copied.

use crate::column::Column;
use crate::datatype::TypingMode;
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::value::Cell;
use std::borrow::Cow;
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

/// One column's fields as scanned: slices of the input, plus the few
/// fields whose content had to be copied, by row (their slice is `""`).
/// A `Vec<Cow<str>>` would take 24 bytes per field instead of 16, which
/// is most of ingest's peak memory on a large input.
#[derive(Default)]
struct Tokens<'a> {
    slices: Vec<&'a str>,
    copied: Vec<(usize, String)>,
}

impl<'a> Tokens<'a> {
    fn add_field(&mut self, field: Cow<'a, str>) {
        match field {
            Cow::Borrowed(slice) => self.slices.push(slice),
            Cow::Owned(copy) => {
                self.copied.push((self.slices.len(), copy));
                self.slices.push("");
            }
        }
    }

    /// Every field classified as [`crate::Value::parse`] would.
    fn classify(&self, null_tokens: &[&str]) -> Vec<Cell<'_>> {
        let mut cells: Vec<Cell<'_>> = self
            .slices
            .iter()
            .map(|slice| Cell::parse(slice, null_tokens))
            .collect();
        for (row, copy) in &self.copied {
            cells[*row] = Cell::parse(copy, null_tokens);
        }
        cells
    }
}

/// Parse CSV text into a [`Relation`].
///
/// Ragged records are reported with their record number (the header is
/// line 1), after any syntax error anywhere in the input.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Relation> {
    let mut names: Vec<String> = Vec::new();
    let mut columns: Vec<Tokens<'_>> = Vec::new();
    // Completed records (header included) and fields of the current one.
    let mut records = 0usize;
    let mut fields = 0usize;
    let mut ragged = None;
    scan(text, opts.separator, |field, ends_record| {
        if records == 0 {
            if opts.has_header {
                names.push(field.into_owned());
            } else {
                names.push(format!("col{fields}"));
                let mut column = Tokens::default();
                column.add_field(field);
                columns.push(column);
            }
        } else if ragged.is_none() {
            if let Some(column) = columns.get_mut(fields) {
                column.add_field(field);
            }
        }
        fields += 1;
        if ends_record {
            if records == 0 {
                columns.resize_with(fields, Tokens::default);
            } else if fields != names.len() && ragged.is_none() {
                ragged = Some(Error::Csv {
                    line: records + 1,
                    message: format!("expected {} fields, found {fields}", names.len()),
                });
            }
            records += 1;
            fields = 0;
        }
    })?;
    if let Some(err) = ragged {
        return Err(err);
    }

    let num_rows = columns.first().map_or(0, |column| column.slices.len());
    let null_tokens: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
    let columns = names
        .into_iter()
        .zip(columns)
        .map(|(name, tokens)| {
            Column::encode_cells(name, &tokens.classify(&null_tokens), opts.typing)
        })
        .collect();
    Ok(Relation::from_encoded(columns, num_rows))
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Relation> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    read_csv_str(&text, opts)
}

/// Quote a field if it contains the separator, quotes or newlines.
fn quote_field(field: &str, sep: char) -> String {
    if field.contains(sep) || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serialize a relation back to CSV text (header included).
pub fn write_csv(rel: &Relation) -> String {
    let sep = ',';
    let mut out = String::new();
    let header: Vec<String> = rel
        .column_names()
        .iter()
        .map(|n| quote_field(n, sep))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..rel.num_rows() {
        let fields: Vec<String> = (0..rel.num_columns())
            .map(|c| quote_field(&rel.value(row, c).to_string(), sep))
            .collect();
        out.push_str(&fields.join(","));
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
            read_csv_str(text, &CsvOptions::default())
                .unwrap_err()
                .to_string()
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
    use crate::column::{ColumnMeta, NarrowCodes};
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
    /// `\r`s outside and inside quotes.
    fn write_field(out: &mut String, token: &str, sep: char, g: &mut Gen) {
        let must_quote = token.contains(sep) || token.contains('"') || token.contains('\n');
        if must_quote || g.percent(15) {
            out.push('"');
            out.push_str(&token.replace('"', "\"\""));
            if g.percent(5) {
                out.push('\r'); // kept: inside quotes
            }
            out.push('"');
        } else if !token.is_empty() && g.percent(5) {
            let cut = token
                .char_indices()
                .map(|(i, _)| i)
                .nth(g.below(token.chars().count()));
            let cut = cut.unwrap_or(0);
            out.push_str(&token[..cut]);
            out.push('\r'); // dropped: outside quotes
            out.push_str(&token[cut..]);
        } else {
            out.push_str(token);
        }
        if g.percent(2) {
            out.push('\r'); // dropped: after the closing quote or the text
        }
    }

    /// A generated CSV document and the options to read it with.
    fn generate_csv(seed: u64) -> (String, CsvOptions) {
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
        let rows = g.below(10);
        // Per column: integers only, numbers, or anything.
        let pools: Vec<Vec<&str>> = (0..arity)
            .map(|_| match g.below(3) {
                0 => INT_TOKENS.to_vec(),
                1 => [INT_TOKENS, FLOAT_TOKENS].concat(),
                _ => [INT_TOKENS, FLOAT_TOKENS, TEXT_TOKENS].concat(),
            })
            .collect();
        let mut out = String::new();
        let newline = |out: &mut String, g: &mut Gen| {
            out.push_str(if g.percent(30) { "\r\n" } else { "\n" });
        };
        if opts.has_header {
            for c in 0..arity {
                if c > 0 {
                    out.push(sep);
                }
                let name = format!("c{c}{}", g.pick(&["", "x", ",", " y", "\"q\""]));
                write_field(&mut out, &name, sep, &mut g);
            }
            newline(&mut out, &mut g);
        }
        for _ in 0..rows {
            let fields = match g.below(25) {
                0 => arity.saturating_sub(1).max(1),
                1 => arity + 1,
                _ => arity,
            };
            for c in 0..fields {
                if c > 0 {
                    out.push(sep);
                }
                let token = g.pick(&pools[c.min(arity - 1)]);
                write_field(&mut out, token, sep, &mut g);
            }
            match g.below(60) {
                0 => out.push_str("x\"y"),    // quote inside an unquoted field
                1 => out.push_str(",\"open"), // unterminated quoted field
                _ => {}
            }
            newline(&mut out, &mut g);
        }
        if g.percent(30) {
            out.pop(); // no trailing newline
        }
        (out, opts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        #[test]
        fn single_pass_reader_matches_reference(seed in 0u64..u64::MAX) {
            let (text, opts) = generate_csv(seed);
            match (read_csv_str(&text, &opts), read_csv_reference(&text, &opts)) {
                (Ok(got), Ok(want)) => {
                    let same = same_relation(&got, &want);
                    prop_assert!(same.is_ok(), "{text:?} {opts:?}: {}", same.unwrap_err());
                    prop_assert_eq!(got.column_names(), want.column_names());
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => prop_assert!(
                    false,
                    "{text:?} {opts:?}: {:?} vs {:?}",
                    got.map(|r| r.num_rows()),
                    want.map(|r| r.num_rows())
                ),
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
            let got = Relation::from_columns_typed(named.clone(), mode).unwrap();
            let want = from_columns_typed(named, mode);
            let same = same_relation(&got, &want);
            prop_assert!(same.is_ok(), "{}", same.unwrap_err());
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
