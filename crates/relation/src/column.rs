//! Rank-encoded columns.
//!
//! Every column of a [`crate::Relation`] is compiled to a vector of dense
//! `u32` rank codes over the column's sorted distinct values (NULL, which
//! sorts first, always gets code 0 when present). Order comparisons between
//! two cells of the same column then reduce to integer comparisons, which is
//! what makes the candidate checker's inner loop cheap.
//!
//! The ranks are dense: an `Int` column whose keys span at most
//! `COUNTING_SPAN_ROWS` (32) values per key is ranked by counting (a bitmap
//! over the span and a popcount per row), every other column by sorting
//! its `(key, row)` pairs.

use crate::datatype::{infer_type, DataType, TypingMode};
use crate::pool::par_map;
use crate::value::{Cell, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Physical storage width of a column's rank codes.
///
/// Codes are always available at full `u32` width ([`Column::codes`]);
/// when the distinct count fits a narrower integer the column *also*
/// carries a narrowed mirror ([`NarrowCodes`]), so the blockwise scan
/// kernels ([`crate::scan`]) read 4×/2× more codes per cache line on
/// low-cardinality columns. The width is a storage property only — the
/// dense ranks are identical at every width, so comparisons (and thus
/// every check outcome) are width-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CodeWidth {
    /// Distinct count ≤ 256: every code fits one byte.
    U8,
    /// Distinct count ≤ 65 536: every code fits two bytes.
    U16,
    /// Full-width codes only.
    U32,
}

impl CodeWidth {
    /// Short lowercase label (`"u8"` / `"u16"` / `"u32"`) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CodeWidth::U8 => "u8",
            CodeWidth::U16 => "u16",
            CodeWidth::U32 => "u32",
        }
    }
}

/// Width-adaptive mirror of a column's rank codes (see [`CodeWidth`]).
#[derive(Debug, Clone, PartialEq)]
pub enum NarrowCodes {
    /// Byte-wide mirror: `narrow[r] == codes[r]` for every row.
    U8(Vec<u8>),
    /// Two-byte mirror: `narrow[r] == codes[r]` for every row.
    U16(Vec<u16>),
    /// No mirror — codes exist only at full width.
    U32,
}

impl NarrowCodes {
    /// Build the narrowest mirror that fits `distinct` dense ranks
    /// (ranks are `0..distinct`, so `distinct ≤ 2^w` fits width `w`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "codes are dense ranks < distinct, and distinct <= 2^8 on the u8 arm and <= 2^16 on the u16 arm, so each fits"
    )]
    pub(crate) fn build(codes: &[u32], distinct: usize) -> NarrowCodes {
        if distinct <= 1 << 8 {
            NarrowCodes::U8(codes.iter().map(|&c| c as u8).collect())
        } else if distinct <= 1 << 16 {
            NarrowCodes::U16(codes.iter().map(|&c| c as u16).collect())
        } else {
            NarrowCodes::U32
        }
    }

    /// The width this mirror stores.
    pub fn width(&self) -> CodeWidth {
        match self {
            NarrowCodes::U8(_) => CodeWidth::U8,
            NarrowCodes::U16(_) => CodeWidth::U16,
            NarrowCodes::U32 => CodeWidth::U32,
        }
    }
}

/// Metadata describing one column of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name (header).
    pub name: String,
    /// Inferred (or forced) data type used for ordering.
    pub data_type: DataType,
    /// Number of distinct values, counting NULL as one class.
    pub distinct: usize,
    /// Whether the column contains at least one NULL.
    pub has_nulls: bool,
}

impl ColumnMeta {
    /// A column is constant when every row carries the same value
    /// (an empty column is constant by convention).
    #[inline]
    pub fn is_constant(&self) -> bool {
        self.distinct <= 1
    }
}

/// One rank-encoded column: codes plus the decoded dictionary.
#[derive(Debug, Clone)]
pub struct Column {
    /// Per-row dense rank codes; `codes[r] < codes[s]` iff row `r`'s value
    /// sorts strictly before row `s`'s in this column.
    pub codes: Vec<u32>,
    /// Sorted distinct values; `dictionary[code]` decodes a rank.
    pub dictionary: Vec<Value>,
    /// Narrowed mirror of `codes` when the distinct count fits (see
    /// [`CodeWidth`]); kept in sync by every constructor and by
    /// [`Column::widen_code_width`].
    pub narrow: NarrowCodes,
    /// Column metadata.
    pub meta: ColumnMeta,
}

/// A column's values as the rank encoder reads them: CSV fields (each
/// run's integer store, then its slices) or stored [`Value`]s.
pub(crate) trait CellSource: Send {
    /// The number of rows.
    fn rows(&self) -> usize;

    /// Every row, in row order, in runs.
    fn runs(&self) -> impl Iterator<Item = Run<'_, impl Iterator<Item = Cell<'_>>>>;

    /// Every row's cell, in row order.
    fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        self.runs().flat_map(Run::into_cells)
    }
}

/// A stretch of a column's rows, as a [`CellSource`] hands it over.
pub(crate) enum Run<'a, C> {
    /// Rows whose cells are all `Int` or NULL: one `i64` per row (any
    /// value on a NULL row) and the NULL rows, ascending, counted from
    /// the run's first row. The encoder copies them whole.
    Ints {
        keys: &'a [i64],
        null_rows: &'a [usize],
    },
    /// Rows as cells.
    Cells(C),
}

impl<'a, C: Iterator<Item = Cell<'a>>> Run<'a, C> {
    /// The run's cells, in row order.
    fn into_cells(self) -> impl Iterator<Item = Cell<'a>> {
        let (ints, cells) = match self {
            Run::Ints { keys, null_rows } => (Some(int_cells(keys, null_rows)), None),
            Run::Cells(cells) => (None, Some(cells)),
        };
        ints.into_iter()
            .flatten()
            .chain(cells.into_iter().flatten())
    }
}

/// The cells of integer keys stored one per row, `null_rows` (ascending)
/// being NULL.
fn int_cells<'k, 'c>(
    keys: &'k [i64],
    null_rows: &'k [usize],
) -> impl Iterator<Item = Cell<'c>> + 'k {
    let mut nulls = null_rows.iter().peekable();
    keys.iter().enumerate().map(
        move |(row, &key)| match nulls.next_if(|&&null| null == row) {
            Some(_) => Cell::Null,
            None => Cell::Int(key),
        },
    )
}

impl CellSource for &[Value] {
    fn rows(&self) -> usize {
        self.len()
    }

    fn runs(&self) -> impl Iterator<Item = Run<'_, impl Iterator<Item = Cell<'_>>>> {
        std::iter::once(Run::Cells(self.iter().map(Cell::of)))
    }
}

/// Column `col` of row-major rows, each holding more than `col` values.
pub(crate) struct RowsColumn<'a> {
    pub(crate) rows: &'a [Vec<Value>],
    pub(crate) col: usize,
}

impl CellSource for RowsColumn<'_> {
    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn runs(&self) -> impl Iterator<Item = Run<'_, impl Iterator<Item = Cell<'_>>>> {
        let cells = self
            .rows
            .iter()
            .map(|row| row.get(self.col).map_or(Cell::Null, Cell::of));
        std::iter::once(Run::Cells(cells))
    }
}

/// A column's decoded values followed by a batch's cells: what
/// [`Column::append`] re-encodes when it cannot merge.
struct Extended<'a, S> {
    column: &'a Column,
    batch: &'a S,
}

impl<S: CellSource + Sync> CellSource for Extended<'_, S> {
    fn rows(&self) -> usize {
        self.column.len() + self.batch.rows()
    }

    fn runs(&self) -> impl Iterator<Item = Run<'_, impl Iterator<Item = Cell<'_>>>> {
        let Column {
            codes, dictionary, ..
        } = self.column;
        let cells = codes
            .iter()
            // lint: allow(panic-reachability, codes are dense ranks below the dictionary length)
            .map(|&code: &u32| Cell::of(&dictionary[code as usize]))
            .chain(self.batch.cells());
        std::iter::once(Run::Cells(cells))
    }
}

impl Column {
    /// The rank encoder: every column of every relation — CSV ingest and
    /// [`crate::Relation::from_columns_typed`] — is built here from its
    /// source's [`Run`]s, read once in row order: integer runs copied
    /// whole, other rows as borrowed [`Cell`]s.
    ///
    /// The column's type is the narrowest of `Int ⊂ Float ⊂ Str` covering
    /// the non-NULL cells (`Str` when there are none, and always `Str`
    /// under [`TypingMode::ForceLexicographic`]); in a `Str` column every
    /// number is ranked and stored as its [`Value`] display form.
    ///
    /// Non-NULL rows are ranked on a primitive key — the `i64` of an `Int`
    /// column, the text of a `Str` column, the [`Value`] order of a `Float`
    /// column — and each distinct key becomes one dense rank (NULL, when
    /// present, is rank 0). The keys are collected at the narrowest type
    /// seen so far and widened when a wider cell arrives, so no cell is
    /// stored. `Int` keys whose span is at most [`COUNTING_SPAN_ROWS`]
    /// times their number are ranked by counting, the others sorted. Only
    /// distinct values are copied into the dictionary. Where distinct
    /// values compare equal (`Int(2)`/`Float(2.0)`, `0`/`-0.0`, only
    /// possible in a `Float` column), the dictionary keeps the value of the
    /// *lowest* row.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row < m <= u32::MAX by the assert at the top"
    )]
    pub(crate) fn encode(name: String, source: &impl CellSource, typing: TypingMode) -> Column {
        // Row ids are u32 across the whole pipeline; encoding is where a
        // column's rows first get ids, so the bound is enforced here.
        let m = source.rows();
        assert!(
            m <= u32::MAX as usize,
            "row ids are u32: {m} rows exceed the supported maximum"
        );
        let mut keys = match typing {
            TypingMode::Infer => Keys::Int {
                keys: Vec::with_capacity(m),
                null_rows: Vec::new(),
            },
            TypingMode::ForceLexicographic => Keys::Text(Vec::with_capacity(m)),
        };
        let mut nulls = 0usize;
        let mut row = 0usize;
        for run in source.runs() {
            match run {
                Run::Ints {
                    keys: ints,
                    null_rows,
                } => {
                    nulls += null_rows.len();
                    keys.extend_ints(ints, null_rows, row);
                    row += ints.len();
                }
                Run::Cells(cells) => {
                    for cell in cells {
                        nulls += usize::from(matches!(cell, Cell::Null));
                        keys.push(cell, row as u32);
                        row += 1;
                    }
                }
            }
        }
        debug_assert_eq!(row, m, "a source yields one cell per row");
        let data_type = match &keys {
            Keys::Int { keys, null_rows } if keys.len() > null_rows.len() => DataType::Int,
            Keys::Float(_) => DataType::Float,
            Keys::Int { .. } | Keys::Text(_) => DataType::Str,
        };

        let mut codes = vec![0u32; m];
        let mut dictionary = Vec::new();
        if nulls > 0 {
            dictionary.push(Value::Null);
        }
        keys.rank(&mut codes, &mut dictionary);

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
                has_nulls: nulls > 0,
            },
        }
    }

    /// Encode every named column with [`Column::encode`] on up to
    /// `threads` workers of [`crate::pool::par_map`], one column at a
    /// time; each source is freed as soon as its column is encoded. The
    /// columns come back in input order, the same at every thread count.
    /// Both encoder entry points — CSV ingest and
    /// [`crate::Relation::from_column_slices`] — go through here.
    pub(crate) fn encode_all<S: CellSource>(
        sources: Vec<(String, S)>,
        typing: TypingMode,
        threads: usize,
    ) -> Vec<Column> {
        par_map(sources, threads, |(name, source)| {
            Column::encode(name.clone(), source, typing)
        })
    }

    /// The column restricted to the rows of `keep` (in that order),
    /// re-ranked densely without re-sorting: the parent's codes already
    /// order the values, so the codes in use are marked, prefix-summed
    /// into new ranks, and only their dictionary entries are copied. Type,
    /// NULL flag and distinct count are re-derived from those entries,
    /// which gives exactly what re-encoding the selected values would.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the dictionary has at most one entry per parent row, and rows <= u32::MAX by the encode assert"
    )]
    pub(crate) fn select(&self, keep: &[usize]) -> Column {
        // Mark the codes in use (1), then overwrite each mark with its
        // exclusive prefix sum: the number of used codes below it.
        let mut rank = vec![0u32; self.dictionary.len()];
        for &row in keep {
            rank[self.codes[row] as usize] = 1;
        }
        let mut dictionary = Vec::new();
        for (value, slot) in self.dictionary.iter().zip(rank.iter_mut()) {
            if *slot == 1 {
                *slot = dictionary.len() as u32;
                // lint: allow(hot-loop-alloc, once per distinct value in use: the copy is the new column's dictionary entry)
                dictionary.push(value.clone());
            }
        }
        let codes: Vec<u32> = keep
            .iter()
            .map(|&row| rank[self.codes[row] as usize])
            .collect();
        let distinct = dictionary.len();
        let narrow = NarrowCodes::build(&codes, distinct);
        Column {
            codes,
            narrow,
            meta: ColumnMeta {
                name: self.meta.name.clone(),
                data_type: infer_type(&dictionary),
                distinct,
                has_nulls: dictionary.first().is_some_and(Value::is_null),
            },
            dictionary,
        }
    }

    /// Append the rows of `batch`, leaving the column [`Column::encode`]
    /// builds from this column's decoded values followed by the batch.
    ///
    /// The batch is ranked alone — as text when the column is already
    /// `Str`, so numbers are keyed by display form — and its dictionary is
    /// merged into this one in one pass in [`Value`] order; where an old
    /// and a new value compare equal, the old one stays. Old codes are
    /// remapped only when a new value sorts below an old one (a first
    /// NULL always does). A column that the batch retypes (a string in an
    /// `Int` or `Float` column), or that held no non-NULL value, is
    /// re-encoded from its decoded values followed by the batch.
    pub(crate) fn append(&mut self, batch: &(impl CellSource + Sync)) {
        let holds_values = self.dictionary.len() > usize::from(self.meta.has_nulls);
        if holds_values {
            let typing = match self.meta.data_type {
                DataType::Str => TypingMode::ForceLexicographic,
                DataType::Int | DataType::Float => TypingMode::Infer,
            };
            let added = Column::encode(String::new(), batch, typing);
            let added_values = added.dictionary.len() > usize::from(added.meta.has_nulls);
            let retypes = added_values
                && added.meta.data_type == DataType::Str
                && self.meta.data_type != DataType::Str;
            if !retypes {
                // The type covers the decoded values and the batch's
                // cells. Decoded, a `Float` column whose every value
                // equals an `Int` holds only `Int`s.
                let mut data_type = match self.meta.data_type {
                    DataType::Float => infer_type(&self.dictionary),
                    other => other,
                };
                if added_values {
                    data_type = data_type.widen(added.meta.data_type);
                }
                self.meta.data_type = data_type;
                self.merge(added);
                return;
            }
        }
        let extended = Extended {
            column: &*self,
            batch,
        };
        *self = Column::encode(self.meta.name.clone(), &extended, TypingMode::Infer);
    }

    /// Merge the codes and dictionary of `added`, the batch ranked alone,
    /// into this column (see [`Column::append`]).
    fn merge(&mut self, added: Column) {
        // Walk both sorted dictionaries once, recording the merged rank of
        // every old and every added code.
        let old_values = std::mem::take(&mut self.dictionary);
        let mut old_rank = Vec::with_capacity(old_values.len());
        let mut added_rank = Vec::with_capacity(added.dictionary.len());
        let mut dictionary = Vec::with_capacity(old_values.len() + added.dictionary.len());
        let mut old = old_values.into_iter().peekable();
        let mut new = added.dictionary.into_iter().peekable();
        loop {
            let order = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the dictionary holds at most one entry per row, and rows <= u32::MAX by the append_rows assert"
            )]
            let code = dictionary.len() as u32;
            match order {
                Ordering::Less => {
                    old_rank.push(code);
                    dictionary.extend(old.next());
                }
                Ordering::Greater => {
                    added_rank.push(code);
                    dictionary.extend(new.next());
                }
                Ordering::Equal => {
                    old_rank.push(code);
                    added_rank.push(code);
                    dictionary.extend(old.next());
                    new.next();
                }
            }
        }
        // Merged ranks rise strictly and never fall below the old ones, so
        // the old codes keep their ranks iff the last one does.
        if old_rank
            .last()
            .is_some_and(|&rank: &u32| rank as usize + 1 != old_rank.len())
        {
            for code in &mut self.codes {
                *code = old_rank[*code as usize];
            }
        }
        self.codes
            .extend(added.codes.iter().map(|&c| added_rank[c as usize]));
        self.meta.has_nulls |= added.meta.has_nulls;
        self.meta.distinct = dictionary.len();
        self.narrow = NarrowCodes::build(&self.codes, self.meta.distinct);
        self.dictionary = dictionary;
    }

    /// The column ranked in reverse: code `distinct − 1 − c` for code `c`
    /// and the dictionary reversed, so the values and the metadata stay
    /// and NULL sorts last.
    pub(crate) fn reversed(&self) -> Column {
        // Codes are dense ranks below the dictionary length.
        let top = u32::try_from(self.dictionary.len().saturating_sub(1)).unwrap_or(u32::MAX);
        let codes: Vec<u32> = self.codes.iter().map(|&c| top - c).collect();
        Column {
            narrow: NarrowCodes::build(&codes, self.meta.distinct),
            codes,
            dictionary: self.dictionary.iter().rev().cloned().collect(),
            meta: self.meta.clone(),
        }
    }

    /// Storage width of this column's narrowest code mirror.
    #[inline]
    pub fn code_width(&self) -> CodeWidth {
        self.narrow.width()
    }

    /// Widen the narrow mirror to at least `min` (no-op when the natural
    /// width is already ≥ `min`); widening to [`CodeWidth::U32`] drops
    /// the mirror entirely.
    ///
    /// Checks are width-independent by construction; this exists so the
    /// determinism matrix and the kernel benches can sweep widths over
    /// the *same* data.
    pub fn widen_code_width(&mut self, min: CodeWidth) {
        if self.narrow.width() >= min {
            return;
        }
        self.narrow = match min {
            CodeWidth::U8 => NarrowCodes::build(&self.codes, self.meta.distinct),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "widening only: the current mirror is U8, so every code fits u8 and a fortiori u16"
            )]
            CodeWidth::U16 => NarrowCodes::U16(self.codes.iter().map(|&c| c as u16).collect()),
            CodeWidth::U32 => NarrowCodes::U32,
        };
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Decode the value of row `row`.
    #[inline]
    pub fn value(&self, row: usize) -> &Value {
        &self.dictionary[self.codes[row] as usize]
    }
}

/// The ranking keys of a column's non-NULL rows, at the narrowest type
/// that covers every cell pushed.
enum Keys<'a> {
    /// Every non-NULL cell so far is an `Int`: one key per row (0 on a
    /// NULL row) and the NULL rows, ascending.
    Int {
        keys: Vec<i64>,
        null_rows: Vec<usize>,
    },
    /// Numbers, at least one a `Float`, as `(key, row)` pairs in row
    /// order; ordered as [`Value`]s.
    Float(Vec<(Cell<'a>, u32)>),
    /// Text, as `(key, row)` pairs in row order: a `Str` cell arrived
    /// (numbers are keyed by their display form), or the typing forces it.
    Text(Vec<(Cow<'a, str>, u32)>),
}

/// A `Str` column's key for a non-NULL cell: its text, or a number's
/// [`Value`] display form.
fn text_key(cell: Cell<'_>) -> Cow<'_, str> {
    match cell {
        Cell::Str(s) => Cow::Borrowed(s),
        Cell::Int(i) => Cow::Owned(i.to_string()),
        Cell::Float(f) => Cow::Owned(f.to_string()),
        Cell::Null => Cow::Borrowed(""),
    }
}

impl<'a> Keys<'a> {
    /// Add row `row`'s cell (rows arrive in order, NULLs included), first
    /// widening the keys one type at a time until they cover it.
    fn push(&mut self, cell: Cell<'a>, row: u32) {
        match (&mut *self, cell) {
            (Keys::Int { keys, null_rows }, Cell::Null) => {
                null_rows.push(keys.len());
                keys.push(0);
            }
            (Keys::Int { keys, .. }, Cell::Int(i)) => keys.push(i),
            (_, Cell::Null) => {}
            (Keys::Float(keys), Cell::Int(_) | Cell::Float(_)) => keys.push((cell, row)),
            (Keys::Text(keys), _) => keys.push((text_key(cell), row)),
            (Keys::Int { keys, null_rows }, _) => {
                *self = Keys::Float(
                    int_pairs(keys, null_rows)
                        .map(|(i, row)| (Cell::Int(i), row))
                        .collect(),
                );
                self.push(cell, row);
            }
            (Keys::Float(keys), _) => {
                *self = Keys::Text(rekey(keys, |&c| text_key(c)));
                self.push(cell, row);
            }
        }
    }

    /// Add the rows of an [`Run::Ints`] run starting at row `first`:
    /// copied whole while every key so far is an `Int`, pushed as cells
    /// otherwise.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row < m <= u32::MAX by the encode assert"
    )]
    fn extend_ints(&mut self, ints: &[i64], null_rows: &[usize], first: usize) {
        if let Keys::Int {
            keys,
            null_rows: all,
        } = self
        {
            all.extend(null_rows.iter().map(|&row| first + row));
            keys.extend_from_slice(ints);
            return;
        }
        for (row, cell) in (first..).zip(int_cells(ints, null_rows)) {
            self.push(cell, row as u32);
        }
    }

    /// Give each distinct key the next dense rank, in key order.
    ///
    /// `Int` keys are ranked by counting ([`rank_by_counting`]) when their
    /// span is at most [`COUNTING_SPAN_ROWS`] times their number, and
    /// sorted otherwise. `Int` and `Text` keys sort by the key alone:
    /// equal keys decode to the same [`Value`], so their order changes no
    /// code and no dictionary entry. Equal `Float` keys can be distinct
    /// values (`Int(2)`/`Float(2.0)`, `0`/`-0.0`), so they tie by row,
    /// which puts the lowest row's value first for the representative
    /// rule.
    fn rank(self, codes: &mut [u32], dictionary: &mut Vec<Value>) {
        match self {
            Keys::Int {
                mut keys,
                null_rows,
            } => {
                // The NULL rows take the first non-NULL row's key, so every
                // key lies in the span; their codes are reset to 0 below.
                let Some((fill, _)) = int_pairs(&keys, &null_rows).next() else {
                    return;
                };
                for &row in &null_rows {
                    // lint: allow(panic-reachability, the NULL rows are rows of the keys, one key per row)
                    keys[row] = fill;
                }
                let (lo, hi) = keys
                    .iter()
                    .fold((fill, fill), |(lo, hi), &key| (lo.min(key), hi.max(key)));
                // The span is hi − lo + 1, computed without overflow.
                let ranked = keys.len() - null_rows.len();
                let counted = usize::try_from(hi.abs_diff(lo))
                    .is_ok_and(|below_hi| below_hi < COUNTING_SPAN_ROWS * ranked);
                if counted {
                    rank_by_counting(&keys, lo, hi, codes, dictionary);
                } else {
                    let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(ranked);
                    pairs.extend(int_pairs(&keys, &null_rows));
                    drop(keys);
                    pairs.sort_unstable_by_key(|&(key, _)| key);
                    rank_runs(&pairs, |a, b| a == b, |&i| Value::Int(i), codes, dictionary);
                }
                for row in null_rows {
                    // lint: allow(panic-reachability, the NULL rows are rows of the column, and codes holds one code per row)
                    codes[row] = 0;
                }
            }
            Keys::Float(mut keys) => {
                keys.sort_unstable_by(|a, b| a.0.order(&b.0).then(a.1.cmp(&b.1)));
                rank_runs(
                    &keys,
                    |a, b| a.order(b) == Ordering::Equal,
                    |cell| cell.to_value(),
                    codes,
                    dictionary,
                );
            }
            Keys::Text(mut keys) => {
                keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                rank_runs(
                    &keys,
                    |a, b| a == b,
                    |text| Value::Str(text.as_ref().to_owned()),
                    codes,
                    dictionary,
                );
            }
        }
    }
}

/// The `(key, row)` pairs of the non-NULL rows of `keys`, one key per
/// row, in row order; `null_rows` are the NULL rows, ascending.
fn int_pairs<'k>(keys: &'k [i64], null_rows: &'k [usize]) -> impl Iterator<Item = (i64, u32)> + 'k {
    (0u32..)
        .zip(int_cells(keys, null_rows))
        .filter_map(|(row, cell)| match cell {
            Cell::Int(key) => Some((key, row)),
            _ => None,
        })
}

/// `Int` keys whose span (max − min + 1) is at most this many times the
/// number of keys are ranked by counting ([`rank_by_counting`]); wider
/// spans are sorted.
///
/// Timed on uniform random keys against the `(key, row)` pair sort it
/// replaces (2-vCPU x86-64 host, best of nine), counting took 0.18, 0.18,
/// 0.21, 0.27, 0.38, 0.56, 1.05 and 1.11 of the sort's time at 200,000
/// keys and span/keys = ¼, 1, 4, 16, 32, 64, 128 and 256; at 60,000 and
/// 1,000,000 keys it took 0.14–0.51 and 0.16–0.45 up to 64 and 0.90–1.38
/// from 128 on. At 32 its bitmap and word counts take 3/16 of a byte per
/// span value, 6 bytes per key, so with its 8-byte key it holds less than
/// the sort's 16-byte pairs; at 64 it would hold more.
pub(crate) const COUNTING_SPAN_ROWS: usize = 32;

/// Rank `keys`, all in `lo..=hi`, by counting: mark each key in a bitmap
/// over the span, take each 64-bit word's count of marks before it, and
/// read a key's rank as its word's count plus the marks below it in the
/// word. The distinct keys are appended to `dictionary` in order, and each
/// key's code is its rank after the entries already there.
#[expect(
    clippy::cast_possible_wrap,
    reason = "at <= hi − lo <= 2^37, so the cast is exact and lo + at <= hi"
)]
// lint: allow(panic-reachability, every key lies in lo..=hi, so its offset indexes a word of the bitmap over the span)
fn rank_by_counting(
    keys: &[i64],
    lo: i64,
    hi: i64,
    codes: &mut [u32],
    dictionary: &mut Vec<Value>,
) {
    #[cfg(test)]
    counted::note();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the span is at most COUNTING_SPAN_ROWS × rows <= 2^37, so offsets fit usize"
    )]
    let offset = |key: i64| key.abs_diff(lo) as usize;
    let mut marks = vec![0u64; offset(hi) / 64 + 1];
    for &key in keys {
        let at = offset(key);
        marks[at / 64] |= 1 << (at % 64);
    }
    let mut before = Vec::with_capacity(marks.len());
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the dictionary holds at most one entry per row, and rows <= u32::MAX by the encode assert"
    )]
    let mut seen = dictionary.len() as u32;
    for (word, &bits) in marks.iter().enumerate() {
        before.push(seen);
        seen += bits.count_ones();
        let mut rest = bits;
        while rest != 0 {
            let at = word * 64 + rest.trailing_zeros() as usize;
            dictionary.push(Value::Int(lo + at as i64));
            rest &= rest - 1;
        }
    }
    for (code, &key) in codes.iter_mut().zip(keys) {
        let at = offset(key);
        *code = before[at / 64] + (marks[at / 64] & ((1 << (at % 64)) - 1)).count_ones();
    }
}

/// Columns ranked by counting on the test's thread, so a test can tell
/// which path ranked its keys.
#[cfg(test)]
pub(crate) mod counted {
    thread_local! {
        static COUNTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Count one column ranked by counting.
    pub(super) fn note() {
        COUNTED.with(|c| c.set(c.get() + 1));
    }

    /// What `f` returns, and the columns ranked by counting while it ran.
    pub(crate) fn during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = COUNTED.with(std::cell::Cell::get);
        let out = f();
        (out, COUNTED.with(std::cell::Cell::get) - before)
    }
}

/// `keys` with every key mapped by `f`, rows and order kept.
fn rekey<A, B>(keys: &[(A, u32)], f: impl Fn(&A) -> B) -> Vec<(B, u32)> {
    keys.iter().map(|(key, row)| (f(key), *row)).collect()
}

/// Give each run of equal keys in `sorted` the next dense rank, appending
/// the run's first key to the dictionary (for `Float` keys, which tie by
/// row, the lowest row's).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the dictionary holds at most one entry per row, and rows <= u32::MAX by the encode assert"
)]
// lint: allow(panic-reachability, every row is a row id below the encoded column's row count, so row < codes.len())
fn rank_runs<K>(
    sorted: &[(K, u32)],
    same: impl Fn(&K, &K) -> bool,
    decode: impl Fn(&K) -> Value,
    codes: &mut [u32],
    dictionary: &mut Vec<Value>,
) {
    let mut run: Option<&K> = None;
    let mut code = 0u32;
    for (key, row) in sorted {
        if !run.is_some_and(|first| same(first, key)) {
            code = dictionary.len() as u32;
            dictionary.push(decode(key));
            run = Some(key);
        }
        codes[*row as usize] = code;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn encode(name: &str, values: Vec<Value>) -> Column {
        Column::encode(name.to_owned(), &values.as_slice(), TypingMode::Infer)
    }

    #[test]
    fn encode_assigns_dense_ranks_in_value_order() {
        let col = encode("a", ints(&[30, 10, 20, 10]));
        assert_eq!(col.codes, vec![2, 0, 1, 0]);
        assert_eq!(col.meta.distinct, 3);
        assert_eq!(col.dictionary, ints(&[10, 20, 30]));
    }

    #[test]
    fn encode_null_gets_rank_zero() {
        let col = encode("a", vec![Value::Int(5), Value::Null, Value::Int(1)]);
        assert_eq!(col.codes[1], 0, "NULL sorts first");
        assert!(col.meta.has_nulls);
        assert_eq!(col.dictionary[0], Value::Null);
    }

    #[test]
    fn encode_preserves_comparison_order() {
        let values = vec![
            Value::Str("b".into()),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let col = encode("s", values.clone());
        for i in 0..values.len() {
            for j in 0..values.len() {
                assert_eq!(
                    values[i].cmp(&values[j]),
                    col.codes[i].cmp(&col.codes[j]),
                    "codes must mirror value order for rows {i},{j}"
                );
            }
        }
    }

    #[test]
    fn constant_column_detected() {
        let col = encode("c", ints(&[7, 7, 7]));
        assert!(col.meta.is_constant());
        let col = encode("c", vec![Value::Null, Value::Null]);
        assert!(col.meta.is_constant());
        let col = encode("c", Vec::new());
        assert!(col.meta.is_constant());
    }

    #[test]
    fn narrow_mirror_matches_full_width_codes() {
        // 3 distinct -> u8 mirror.
        let col = encode("a", ints(&[30, 10, 20, 10]));
        assert_eq!(col.code_width(), CodeWidth::U8);
        match &col.narrow {
            NarrowCodes::U8(n) => {
                assert!(n.iter().zip(&col.codes).all(|(&a, &b)| a as u32 == b));
            }
            other => panic!("expected u8 mirror, got {other:?}"),
        }
        // 300 distinct -> u16 mirror.
        let col = encode("b", ints(&(0..300).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U16);
        match &col.narrow {
            NarrowCodes::U16(n) => {
                assert!(n.iter().zip(&col.codes).all(|(&a, &b)| a as u32 == b));
            }
            other => panic!("expected u16 mirror, got {other:?}"),
        }
    }

    #[test]
    fn width_boundaries_are_exact() {
        let col = encode("a", ints(&(0..256).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U8, "256 distinct fits u8");
        let col = encode("a", ints(&(0..257).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U16, "257 distinct needs u16");
    }

    #[test]
    fn widen_code_width_only_widens() {
        let mut col = encode("a", ints(&[1, 2, 1]));
        assert_eq!(col.code_width(), CodeWidth::U8);
        col.widen_code_width(CodeWidth::U16);
        assert_eq!(col.code_width(), CodeWidth::U16);
        col.widen_code_width(CodeWidth::U8); // no-op: never narrows
        assert_eq!(col.code_width(), CodeWidth::U16);
        col.widen_code_width(CodeWidth::U32);
        assert_eq!(col.code_width(), CodeWidth::U32);
        assert_eq!(col.narrow, NarrowCodes::U32);
    }

    #[test]
    fn duplicate_heavy_column_small_dictionary() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 3)).collect();
        let col = encode("q", vals);
        assert_eq!(col.meta.distinct, 3);
        assert_eq!(col.dictionary.len(), 3);
        assert_eq!(col.len(), 1000);
    }

    #[test]
    fn text_ranks_key_numbers_by_display_form() {
        let vals = [
            Value::Int(10),
            Value::Str("9".into()),
            Value::Null,
            Value::Float(-0.0),
            Value::Str("10".into()),
        ];
        let col = encode("t", vals.to_vec());
        assert_eq!(col.meta.data_type, DataType::Str);
        // NULL < "-0" < "10" (twice: Int(10) displays as "10") < "9".
        assert_eq!(col.codes, vec![2, 3, 0, 1, 2]);
        assert_eq!(col.dictionary[1], Value::Str("-0".into()));
        assert_eq!(col.meta.distinct, 4);
    }
}
