//! Rank-encoded columns.
//!
//! Every column of a [`crate::Relation`] is compiled to a vector of dense
//! `u32` rank codes over the column's sorted distinct values (NULL, which
//! sorts first, always gets code 0 when present). Order comparisons between
//! two cells of the same column then reduce to integer comparisons, which is
//! what makes the candidate checker's inner loop cheap.

use crate::datatype::{infer_type, DataType, TypingMode};
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
    pub(crate) fn build(codes: &[u32], distinct: usize) -> NarrowCodes {
        if distinct <= 1 << 8 {
            // lint: allow(lossy-cast, codes are dense ranks < distinct <= 2^8 on this arm, so each fits u8)
            NarrowCodes::U8(codes.iter().map(|&c| c as u8).collect())
        } else if distinct <= 1 << 16 {
            // lint: allow(lossy-cast, codes are dense ranks < distinct <= 2^16 on this arm, so each fits u16)
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

impl Column {
    /// The rank encoder: every column of every relation — CSV ingest and
    /// [`crate::Relation::from_columns_typed`] — is built here from
    /// borrowed [`Cell`]s.
    ///
    /// The column's type is the narrowest of `Int ⊂ Float ⊂ Str` covering
    /// the non-NULL cells (`Str` when there are none, and always `Str`
    /// under [`TypingMode::ForceLexicographic`]); in a `Str` column every
    /// number is ranked and stored as its [`Value`] display form.
    ///
    /// Non-NULL rows are ranked on a primitive key — the `i64` of an `Int`
    /// column, the text of a `Str` column, the [`Value`] order of a `Float`
    /// column — and each distinct key becomes one dense rank (NULL, when
    /// present, is rank 0). Only distinct values are copied into the
    /// dictionary. Where distinct values compare equal (`Int(2)`/
    /// `Float(2.0)`, `0`/`-0.0`, only possible in a `Float` column), the
    /// dictionary keeps the value of the *lowest* row.
    pub(crate) fn encode_cells(name: String, cells: &[Cell<'_>], typing: TypingMode) -> Column {
        // Row ids are u32 across the whole pipeline; encoding is where a
        // column's rows first get ids, so the bound is enforced here.
        let m = cells.len();
        assert!(
            m <= u32::MAX as usize,
            "row ids are u32: {m} rows exceed the supported maximum"
        );
        let (mut nulls, mut ints, mut floats, mut strs) = (0usize, 0usize, 0usize, 0usize);
        for cell in cells {
            match cell {
                Cell::Null => nulls += 1,
                Cell::Int(_) => ints += 1,
                Cell::Float(_) => floats += 1,
                Cell::Str(_) => strs += 1,
            }
        }
        let data_type =
            if typing == TypingMode::ForceLexicographic || strs > 0 || ints + floats == 0 {
                DataType::Str
            } else if floats > 0 {
                DataType::Float
            } else {
                DataType::Int
            };

        let mut codes = vec![0u32; m];
        let mut dictionary = Vec::new();
        if nulls > 0 {
            dictionary.push(Value::Null);
        }
        match data_type {
            DataType::Int => rank_ints(cells, &mut codes, &mut dictionary),
            DataType::Float => rank_floats(cells, &mut codes, &mut dictionary),
            DataType::Str => rank_text(cells, &mut codes, &mut dictionary),
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
                has_nulls: nulls > 0,
            },
        }
    }

    /// The column restricted to the rows of `keep` (in that order),
    /// re-ranked densely without re-sorting: the parent's codes already
    /// order the values, so the codes in use are marked, prefix-summed
    /// into new ranks, and only their dictionary entries are copied. Type,
    /// NULL flag and distinct count are re-derived from those entries,
    /// which gives exactly what re-encoding the selected values would.
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
                // lint: allow(lossy-cast, the dictionary has at most one entry per parent row, and rows <= u32::MAX by the encode assert)
                *slot = dictionary.len() as u32;
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
            // lint: allow(lossy-cast, widening only: the current mirror is U8, so every code fits u8 and a fortiori u16)
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

/// Rank an `Int` column's cells by sorting `(key, row)` pairs.
fn rank_ints(cells: &[Cell<'_>], codes: &mut [u32], dictionary: &mut Vec<Value>) {
    let mut keys: Vec<(i64, u32)> = Vec::with_capacity(cells.len());
    for (row, cell) in cells.iter().enumerate() {
        if let Cell::Int(i) = *cell {
            // lint: allow(lossy-cast, row is an enumerate index < cells.len() <= u32::MAX by the encode assert)
            keys.push((i, row as u32));
        }
    }
    keys.sort_unstable();
    rank_runs(&keys, |a, b| a == b, |&i| Value::Int(i), codes, dictionary);
}

/// Rank a `Str` column's cells by sorting `(text, row)` pairs; numbers
/// are keyed by their display form.
fn rank_text(cells: &[Cell<'_>], codes: &mut [u32], dictionary: &mut Vec<Value>) {
    let mut keys: Vec<(Cow<'_, str>, u32)> = Vec::with_capacity(cells.len());
    for (row, cell) in cells.iter().enumerate() {
        let text = match *cell {
            Cell::Null => continue,
            Cell::Str(s) => Cow::Borrowed(s),
            Cell::Int(i) => Cow::Owned(i.to_string()),
            Cell::Float(f) => Cow::Owned(f.to_string()),
        };
        // lint: allow(lossy-cast, row is an enumerate index < cells.len() <= u32::MAX by the encode assert)
        keys.push((text, row as u32));
    }
    keys.sort_unstable();
    rank_runs(
        &keys,
        |a, b| a == b,
        |text| Value::Str(text.as_ref().to_owned()),
        codes,
        dictionary,
    );
}

/// Rank a `Float` column's cells (`Int` and `Float`) by sorting
/// `(cell, row)` pairs in [`Value`] order.
fn rank_floats(cells: &[Cell<'_>], codes: &mut [u32], dictionary: &mut Vec<Value>) {
    let mut keys: Vec<(Cell<'_>, u32)> = Vec::with_capacity(cells.len());
    for (row, cell) in cells.iter().enumerate() {
        if !matches!(cell, Cell::Null) {
            // lint: allow(lossy-cast, row is an enumerate index < cells.len() <= u32::MAX by the encode assert)
            keys.push((*cell, row as u32));
        }
    }
    keys.sort_unstable_by(|a, b| a.0.order(&b.0).then(a.1.cmp(&b.1)));
    rank_runs(
        &keys,
        |a, b| a.order(b) == Ordering::Equal,
        |cell| cell.to_value(),
        codes,
        dictionary,
    );
}

/// Give each run of equal keys in `sorted` the next dense rank, appending
/// the run's first key — its lowest row, as ties sort by row — to the
/// dictionary.
// lint: allow(panic-reachability, every row is an enumerate index of the encoded column, so row < cells.len() == codes.len())
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
            // lint: allow(lossy-cast, the dictionary holds at most one entry per row, and rows <= u32::MAX by the encode assert)
            code = dictionary.len() as u32;
            dictionary.push(decode(key));
            run = Some(key);
        }
        // lint: allow(lossy-cast, row is a u32 row id in [0, u32::MAX], so the cast to usize widens)
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
        let cells: Vec<Cell<'_>> = values.iter().map(Cell::of).collect();
        Column::encode_cells(name.to_owned(), &cells, TypingMode::Infer)
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
        let cells: Vec<Cell<'_>> = vals.iter().map(Cell::of).collect();
        let col = Column::encode_cells("t".into(), &cells, TypingMode::Infer);
        assert_eq!(col.meta.data_type, DataType::Str);
        // NULL < "-0" < "10" (twice: Int(10) displays as "10") < "9".
        assert_eq!(col.codes, vec![2, 3, 0, 1, 2]);
        assert_eq!(col.dictionary[1], Value::Str("-0".into()));
        assert_eq!(col.meta.distinct, 4);
    }
}
