//! The [`Relation`] type: an immutable, rank-encoded, column-major table.

use crate::column::{CodeWidth, Column, ColumnMeta, NarrowCodes, RowsColumn};
use crate::datatype::TypingMode;
use crate::error::{Error, Result};
use crate::pool::{ingest_threads, SERIAL_CELLS};
use crate::sort::RankOrder;
use crate::value::Value;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Index of a column within a relation (attribute identifier).
pub type ColumnId = usize;

/// The row ids `0..m` of an `m`-row relation. Row ids are `u32`: encoding
/// and appends refuse more than `u32::MAX` rows, so every row count fits.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "row ids are u32 by the relation contract"
)]
pub fn row_ids(m: usize) -> Range<u32> {
    debug_assert!(
        m <= u32::MAX as usize,
        "row ids are u32 by the relation contract"
    );
    0..m as u32
}

/// An immutable instance `r` of a relation `R`, stored column-major with
/// rank-encoded cells.
///
/// Built through [`RelationBuilder`] (row-wise) or
/// [`Relation::from_columns`] (column-wise).
#[derive(Debug, Clone)]
pub struct Relation {
    columns: Vec<Column>,
    num_rows: usize,
    orders: RankOrders,
}

/// Each column's [`RankOrder`], built on its first read
/// ([`Relation::rank_order`]). Clones of a relation share the slots: their
/// codes are equal until one of them appends rows, which gives that one
/// new, empty slots.
#[derive(Clone)]
struct RankOrders(Arc<[OnceLock<RankOrder>]>);

impl RankOrders {
    /// One empty slot per column.
    fn new(columns: usize) -> RankOrders {
        RankOrders((0..columns).map(|_| OnceLock::new()).collect())
    }
}

impl std::fmt::Debug for RankOrders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let built = self.0.iter().filter(|slot| slot.get().is_some()).count();
        write!(f, "RankOrders({built} of {} built)", self.0.len())
    }
}

impl Relation {
    /// Build a relation from named value columns, re-typing each column
    /// under the given [`TypingMode`] before rank encoding (see
    /// [`Relation::from_column_slices`]).
    ///
    /// All columns must have the same length.
    pub fn from_columns_typed(
        named: Vec<(String, Vec<Value>)>,
        mode: TypingMode,
    ) -> Result<Relation> {
        Self::from_column_slices(
            named
                .iter()
                .map(|(name, vals)| (name.as_str(), vals.as_slice())),
            mode,
        )
    }

    /// [`Relation::from_columns_typed`] with the default [`TypingMode::Infer`].
    pub fn from_columns(named: Vec<(String, Vec<Value>)>) -> Result<Relation> {
        Self::from_columns_typed(named, TypingMode::Infer)
    }

    /// Build a relation from borrowed named value columns: each column is
    /// typed as the narrowest of `Int ⊂ Float ⊂ Str` covering its non-NULL
    /// values (always `Str` under [`TypingMode::ForceLexicographic`]),
    /// numbers in a `Str` column are stored as their display strings, and
    /// the column is rank encoded. Only distinct values are copied.
    ///
    /// The columns are encoded on every core the host offers, one column
    /// per worker at a time, or on one worker below 10,000 cells (see
    /// [`crate::pool`]); the relation is the same at every thread count.
    ///
    /// All columns must have the same length.
    pub fn from_column_slices<'a>(
        named: impl IntoIterator<Item = (&'a str, &'a [Value])>,
        mode: TypingMode,
    ) -> Result<Relation> {
        let named: Vec<(&str, &[Value])> = named.into_iter().collect();
        let cells: usize = named.iter().map(|(_, vals)| vals.len()).sum();
        Self::from_column_slices_on(named, mode, ingest_threads(cells < SERIAL_CELLS))
    }

    /// [`Relation::from_column_slices`] on `threads` workers.
    pub(crate) fn from_column_slices_on<'a>(
        named: impl IntoIterator<Item = (&'a str, &'a [Value])>,
        mode: TypingMode,
        threads: usize,
    ) -> Result<Relation> {
        let named: Vec<(String, &[Value])> = named
            .into_iter()
            .map(|(name, vals)| (name.to_owned(), vals))
            .collect();
        let num_rows = named.first().map_or(0, |(_, v)| v.len());
        for (_, vals) in &named {
            if vals.len() != num_rows {
                return Err(Error::ArityMismatch {
                    expected: num_rows,
                    got: vals.len(),
                });
            }
        }
        let columns = Column::encode_all(named, mode, threads);
        Ok(Relation::from_encoded(columns, num_rows))
    }

    /// Append `rows`, each holding one value per column in schema order.
    ///
    /// The result is [`Relation::from_columns`] over this relation's
    /// decoded values followed by the batch. Each column ranks the batch
    /// alone and merges it into its sorted dictionary, remapping the old
    /// codes only when a new value sorts below an old one (a first NULL
    /// always does); a column the batch retypes (a string in an `Int` or
    /// `Float` column) or that held no non-NULL value is encoded again
    /// from its decoded values followed by the batch. Decoding keeps one
    /// value per run of equal ones, so a `Float` column holding both `0`
    /// and `-0.0` that a string later retypes ranks one `"0"` (or `"-0"`,
    /// whichever its dictionary kept), not both.
    ///
    /// Every column must rank its values in ascending order, as every
    /// constructor but [`Relation::with_descending_twins`] leaves it. A
    /// row of the wrong arity is an [`Error::ArityMismatch`], returned
    /// before any column changes. The rank orders built so far are
    /// dropped; each is built again from the new codes on its next read.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        let arity = self.columns.len();
        if let Some(row) = rows.iter().find(|row| row.len() != arity) {
            return Err(Error::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
        let grown = self.num_rows + rows.len();
        assert!(
            grown <= u32::MAX as usize,
            "row ids are u32: {grown} rows exceed the supported maximum"
        );
        for (col, column) in self.columns.iter_mut().enumerate() {
            column.append(&RowsColumn { rows, col });
        }
        self.num_rows = self.columns.first().map_or(0, Column::len);
        self.orders = RankOrders::new(arity);
        Ok(())
    }

    /// A relation over already-encoded columns of `num_rows` rows each.
    pub(crate) fn from_encoded(columns: Vec<Column>, num_rows: usize) -> Relation {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        Relation {
            orders: RankOrders::new(columns.len()),
            columns,
            num_rows,
        }
    }

    /// Number of tuples `|r|`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes `|U|`.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Metadata of column `col`.
    #[inline]
    // lint: allow(panic-reachability, ColumnId contract: callers pass col < num_columns())
    pub fn meta(&self, col: ColumnId) -> &ColumnMeta {
        &self.columns[col].meta
    }

    /// All column metadata in schema order.
    pub fn schema(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.columns.iter().map(|c| &c.meta)
    }

    /// Rank code of cell `(row, col)`. The hot accessor: two loads, no branch.
    #[inline(always)]
    // lint: allow(panic-reachability, ColumnId/row contract: col < num_columns() and row < num_rows() — this is the documented two-load no-branch accessor)
    pub fn code(&self, row: usize, col: ColumnId) -> u32 {
        self.columns[col].codes[row]
    }

    /// The full code vector of a column (for tight loops over one column).
    #[inline]
    // lint: allow(panic-reachability, ColumnId contract: callers pass col < num_columns())
    pub fn codes(&self, col: ColumnId) -> &[u32] {
        &self.columns[col].codes
    }

    /// Column `col`'s rank order: its rows grouped by code, in row order
    /// inside each class — `sort_index_by(self, &[col])` cut into its
    /// classes. One counting sort builds it on the first read, which
    /// concurrent readers wait for, and the relation keeps it until
    /// [`Relation::append_rows`] changes the codes.
    pub fn rank_order(&self, col: ColumnId) -> &RankOrder {
        self.orders.0[col].get_or_init(|| RankOrder::new(self.codes(col), self.meta(col).distinct))
    }

    /// Storage width of column `col`'s narrowest code mirror.
    #[inline]
    pub fn code_width(&self, col: ColumnId) -> CodeWidth {
        self.columns[col].code_width()
    }

    /// The narrowed code mirror of column `col` (see [`NarrowCodes`]) —
    /// what the blockwise scan kernels gather from.
    #[inline]
    // lint: allow(panic-reachability, ColumnId contract: callers pass col < num_columns())
    pub fn narrow_codes(&self, col: ColumnId) -> &NarrowCodes {
        &self.columns[col].narrow
    }

    /// Widen every column's code mirror to at least `min` (see
    /// [`Column::widen_code_width`]); checks are width-independent, so
    /// this only changes which kernels run, never what they return.
    pub fn widen_code_width(&mut self, min: CodeWidth) {
        for c in &mut self.columns {
            c.widen_code_width(min);
        }
    }

    /// Decode the original value of cell `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: ColumnId) -> &Value {
        self.columns[col].value(row)
    }

    /// Find a column id by name.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.meta.name == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_owned()))
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.meta.name.as_str()).collect()
    }

    /// A new relation containing only `cols` (in the given order), sharing
    /// no storage with `self`. Used by the column-scalability experiments.
    pub fn project(&self, cols: &[ColumnId]) -> Result<Relation> {
        let mut columns = Vec::with_capacity(cols.len());
        for &c in cols {
            let col = self.columns.get(c).ok_or(Error::ColumnOutOfRange {
                index: c,
                len: self.columns.len(),
            })?;
            columns.push(col.clone());
        }
        Ok(Relation::from_encoded(columns, self.num_rows))
    }

    /// A new relation in which every column is followed by its descending
    /// twin: column `2c` is column `c`, and column `2c + 1` holds the same
    /// values ranked in reverse (NULL last), with the same metadata.
    /// Bidirectional discovery searches this relation.
    pub fn with_descending_twins(&self) -> Relation {
        let columns = self
            .columns
            .iter()
            .flat_map(|c| [c.clone(), c.reversed()])
            .collect();
        Relation::from_encoded(columns, self.num_rows)
    }

    /// A new relation containing only the first `n` rows.
    /// Columns are re-encoded so ranks stay dense. Used by the
    /// row-scalability experiments.
    pub fn head(&self, n: usize) -> Relation {
        let rows: Vec<u32> = row_ids(n.min(self.num_rows)).collect();
        self.select_rows(&rows)
    }

    /// A new relation containing exactly the rows of `rows` (parent row
    /// ids, in the given order; ids past the last row are skipped).
    /// Columns are re-ranked so ranks stay dense over the selected
    /// subset — the invariant every checker and the manifest hash rely
    /// on — by remapping the parent's codes, not by re-sorting values;
    /// the result equals [`Relation::from_columns`] over the selected
    /// values. This is the row-map materialization primitive of
    /// [`crate::sample`].
    pub fn select_rows(&self, rows: &[u32]) -> Relation {
        let keep: Vec<usize> = rows
            .iter()
            .map(|&r| r as usize)
            .filter(|&r| r < self.num_rows)
            .collect();
        let columns = self.columns.iter().map(|c| c.select(&keep)).collect();
        Relation::from_encoded(columns, keep.len())
    }
}

/// Row-wise builder for [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    names: Vec<String>,
    data: Vec<Vec<Value>>, // column-major
    mode: TypingMode,
}

impl RelationBuilder {
    /// Start a builder with the given column names.
    pub fn new<S: Into<String>>(names: Vec<S>) -> RelationBuilder {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let data = names.iter().map(|_| Vec::new()).collect();
        RelationBuilder {
            names,
            data,
            mode: TypingMode::Infer,
        }
    }

    /// Override the typing mode (default: [`TypingMode::Infer`]).
    pub fn typing_mode(mut self, mode: TypingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Append one row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.names.len() {
            return Err(Error::ArityMismatch {
                expected: self.names.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.data.iter_mut().zip(row) {
            col.push(v);
        }
        Ok(())
    }

    /// Finish building, consuming the builder.
    pub fn finish(self) -> Relation {
        let named = self.names.into_iter().zip(self.data).collect();
        // lint: allow(no-panic, proven invariant: push_row rejects rows of the wrong arity, so all columns have equal length here)
        Relation::from_columns_typed(named, self.mode).expect("builder enforces equal lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn sample() -> Relation {
        let mut b = RelationBuilder::new(vec!["a", "b", "c"]);
        b.push_row(vec![Value::Int(1), Value::Str("x".into()), Value::Int(7)])
            .unwrap();
        b.push_row(vec![Value::Int(3), Value::Str("y".into()), Value::Int(7)])
            .unwrap();
        b.push_row(vec![Value::Int(2), Value::Null, Value::Int(7)])
            .unwrap();
        b.finish()
    }

    #[test]
    fn builder_round_trip() {
        let r = sample();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.num_columns(), 3);
        assert_eq!(r.value(0, 0), &Value::Int(1));
        assert_eq!(r.value(2, 1), &Value::Null);
        assert_eq!(r.column_names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn builder_rejects_wrong_arity() {
        let mut b = RelationBuilder::new(vec!["a", "b"]);
        let err = b.push_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            Error::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn codes_reflect_column_order() {
        let r = sample();
        // column a: values 1,3,2 -> codes 0,2,1
        assert_eq!(r.codes(0), &[0, 2, 1]);
        // column c is constant -> all codes 0
        assert_eq!(r.codes(2), &[0, 0, 0]);
        assert!(r.meta(2).is_constant());
    }

    #[test]
    fn code_width_accessors_mirror_columns() {
        let r = sample();
        // 3 distinct values everywhere -> u8 mirrors.
        for c in 0..r.num_columns() {
            assert_eq!(r.code_width(c), CodeWidth::U8);
            match r.narrow_codes(c) {
                NarrowCodes::U8(n) => {
                    assert!(n.iter().zip(r.codes(c)).all(|(&a, &b)| a as u32 == b));
                }
                other => panic!("expected u8 mirror, got {other:?}"),
            }
        }
        let mut wide = r.clone();
        wide.widen_code_width(CodeWidth::U32);
        for c in 0..wide.num_columns() {
            assert_eq!(wide.code_width(c), CodeWidth::U32);
            // Full-width codes are untouched by widening.
            assert_eq!(wide.codes(c), r.codes(c));
        }
    }

    #[test]
    fn column_id_lookup() {
        let r = sample();
        assert_eq!(r.column_id("b").unwrap(), 1);
        assert!(matches!(r.column_id("zz"), Err(Error::UnknownColumn(_))));
    }

    #[test]
    fn project_selects_and_reorders() {
        let r = sample();
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.column_names(), vec!["c", "a"]);
        assert_eq!(p.value(1, 1), &Value::Int(3));
        assert!(r.project(&[9]).is_err());
    }

    #[test]
    fn descending_twins_reverse_ranks_and_keep_values() {
        let r = sample();
        let t = r.with_descending_twins();
        assert_eq!((t.num_rows(), t.num_columns()), (3, 6));
        for c in 0..r.num_columns() {
            assert_eq!(t.codes(2 * c), r.codes(c));
            assert_eq!(t.meta(2 * c + 1), r.meta(c), "metadata kept");
            for row in 0..3 {
                assert_eq!(t.value(row, 2 * c + 1), r.value(row, c), "values decode");
            }
        }
        // Column a: 1, 3, 2 ranks 0, 2, 1 and its twin 2, 0, 1.
        assert_eq!(t.codes(1), &[2, 0, 1]);
        // Column b: x, y, NULL ranks 1, 2, 0; in the twin NULL sorts last.
        assert_eq!(t.codes(3), &[1, 0, 2]);
        assert_eq!(t.code_width(3), CodeWidth::U8);
        // The constant column stays constant.
        assert_eq!(t.codes(5), &[0, 0, 0]);
    }

    #[test]
    fn head_truncates_and_reencodes() {
        let r = sample();
        let h = r.head(2);
        assert_eq!(h.num_rows(), 2);
        // After truncation 'a' has values 1,3 -> dense codes 0,1.
        assert_eq!(h.codes(0), &[0, 1]);
        // head(n) with n > rows is a no-op copy.
        assert_eq!(r.head(10).num_rows(), 3);
    }

    #[test]
    fn from_columns_rejects_ragged_input() {
        let named = vec![
            ("a".to_string(), vec![Value::Int(1)]),
            ("b".to_string(), vec![Value::Int(1), Value::Int(2)]),
        ];
        assert!(Relation::from_columns(named).is_err());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::from_columns(vec![]).unwrap();
        assert_eq!(r.num_rows(), 0);
        assert_eq!(r.num_columns(), 0);
    }

    #[test]
    fn force_lexicographic_changes_ordering() {
        let named = vec![("n".to_string(), vec![Value::Int(10), Value::Int(9)])];
        let nat = Relation::from_columns_typed(named.clone(), TypingMode::Infer).unwrap();
        let lex = Relation::from_columns_typed(named, TypingMode::ForceLexicographic).unwrap();
        // Natural: 9 < 10. Lexicographic: "10" < "9".
        assert!(nat.code(1, 0) < nat.code(0, 0));
        assert!(lex.code(0, 0) < lex.code(1, 0));
    }

    /// A 20-row relation with an Int column, a Float column mixing equal
    /// Int/Float and `0`/`-0.0` values, a Str column with stringified
    /// numbers, and an all-NULL column.
    fn mixed(mode: TypingMode) -> Relation {
        let ints = (0..20).map(|i| Value::Int((i * 7) % 11 - 3)).collect();
        let floats = (0..20)
            .map(|i| match i % 5 {
                0 => Value::Int(2),
                1 => Value::Float(2.0),
                2 => Value::Float(-0.0),
                3 => Value::Null,
                _ => Value::Float(f64::from(i) / 8.0),
            })
            .collect();
        let strs = (0..20)
            .map(|i| match i % 4 {
                0 => Value::Str(format!("s{}", i % 3)),
                1 => Value::Int(i64::from(i)),
                2 => Value::Null,
                _ => Value::Float(0.5),
            })
            .collect();
        let nulls = vec![Value::Null; 20];
        Relation::from_columns_typed(
            vec![
                ("i".into(), ints),
                ("f".into(), floats),
                ("s".into(), strs),
                ("n".into(), nulls),
            ],
            mode,
        )
        .unwrap()
    }

    /// `got` and `want` agree in rows, codes, dictionaries (variant and
    /// sign included, so `Int(2)` differs from `Float(2.0)`), metadata,
    /// narrow mirrors and manifest hash.
    fn same_relation(
        got: &Relation,
        want: &Relation,
    ) -> std::result::Result<(), proptest::TestCaseError> {
        proptest::prop_assert_eq!(got.num_rows(), want.num_rows());
        proptest::prop_assert_eq!(got.num_columns(), want.num_columns());
        for (g, w) in got.columns.iter().zip(&want.columns) {
            proptest::prop_assert_eq!(&g.codes, &w.codes);
            proptest::prop_assert_eq!(format!("{:?}", g.dictionary), format!("{:?}", w.dictionary));
            proptest::prop_assert_eq!(&g.meta, &w.meta);
            proptest::prop_assert_eq!(&g.narrow, &w.narrow);
        }
        proptest::prop_assert_eq!(
            crate::manifest::manifest_hash(got),
            crate::manifest::manifest_hash(want)
        );
        Ok(())
    }

    /// [`Relation::from_columns`] over `rel`'s decoded values followed by
    /// `batch`: the defined result of [`Relation::append_rows`].
    fn reencoded(rel: &Relation, batch: &[Vec<Value>]) -> Relation {
        let named = (0..rel.num_columns())
            .map(|c| {
                let vals = (0..rel.num_rows())
                    .map(|r| rel.value(r, c).clone())
                    .chain(batch.iter().map(|row| row[c].clone()))
                    .collect();
                (rel.meta(c).name.clone(), vals)
            })
            .collect();
        Relation::from_columns(named).unwrap()
    }

    /// A random cell: NULL, an `Int` in `-span..=span`, a `Float` (`2.0`,
    /// `0.0` and `-0.0` among them, equal to `Int`s) within about the same
    /// range or, when `text`, a string (some of them numerals).
    fn random_cell(rng: &mut rand::rngs::StdRng, span: i64, text: bool) -> Value {
        use rand::RngExt;
        const FLOATS: [f64; 7] = [2.0, 0.0, -0.0, 0.5, -1.5, 4.5, -3.5];
        const TEXTS: [&str; 5] = ["a", "10", "9", "-0", "2"];
        match rng.random_range(0..10) {
            0 | 1 => Value::Null,
            2..=5 => Value::Int(rng.random_range(-span..=span)),
            6 | 7 => {
                let f = FLOATS[rng.random_range(0..FLOATS.len())];
                // Keep the initial relation's floats inside its Int range.
                Value::Float(if f.abs() > span as f64 { f / 2.0 } else { f })
            }
            _ if text => Value::Str(TEXTS[rng.random_range(0..TEXTS.len())].into()),
            _ => Value::Int(rng.random_range(-span..=span)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn select_rows_equals_from_columns_over_the_selected_values(
            rows in proptest::collection::vec(0u32..24, 0..40)
        ) {
            for mode in [TypingMode::Infer, TypingMode::ForceLexicographic] {
                let parent = mixed(mode);
                let got = parent.select_rows(&rows);
                let kept: Vec<usize> = rows.iter().map(|&r| r as usize).filter(|&r| r < 20).collect();
                let named = (0..parent.num_columns())
                    .map(|c| {
                        let vals = kept.iter().map(|&r| parent.value(r, c).clone()).collect();
                        (parent.meta(c).name.clone(), vals)
                    })
                    .collect();
                let want = Relation::from_columns(named).unwrap();
                same_relation(&got, &want)?;
            }
        }

        /// Starting relations of 0–5 rows whose columns hold only `Int`s
        /// (no NULL, so a first NULL remaps), mixed numbers with NULLs,
        /// strings, or only NULLs; then 1–4 batches of 0–3 rows whose
        /// numbers reach twice as far out (new minima and maxima, values
        /// between and equal to old ones, `Int` → `Float`) and which put a
        /// string into a column a quarter of the time. Every column's rank
        /// order is read before each batch and must be the grown codes'
        /// after it. The `Int`-only columns are ranked by counting.
        #[test]
        fn append_equals_from_columns_over_decoded_values_and_batch(seed in 0u64..u64::MAX) {
            use rand::{RngExt, SeedableRng};
            let _counters = crate::sort::kernel_stats::counters_guard();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rows = if rng.random_bool(0.2) { 0 } else { rng.random_range(1..6) };
            let kinds: Vec<u32> = (0..4).map(|_| rng.random_range(0..4)).collect();
            let named = kinds
                .iter()
                .enumerate()
                .map(|(c, &kind)| {
                    let vals = (0..rows)
                        .map(|_| match kind {
                            0 => Value::Int(rng.random_range(-2..=2)),
                            1 => random_cell(&mut rng, 2, false),
                            2 => random_cell(&mut rng, 2, true),
                            _ => Value::Null,
                        })
                        .collect();
                    (format!("c{c}"), vals)
                })
                .collect();
            let mode = if rng.random_bool(0.2) {
                TypingMode::ForceLexicographic
            } else {
                TypingMode::Infer
            };
            let (mut got, counted) = crate::column::counted::during(|| {
                Relation::from_columns_typed(named, mode).unwrap()
            });
            // Every `Int`-only column is ranked by counting (its span is at
            // most 5), so the appends below merge onto counted columns.
            if mode == TypingMode::Infer && rows > 0 {
                let int_only = kinds.iter().filter(|&&kind| kind == 0).count();
                proptest::prop_assert!(counted >= int_only, "{counted} < {int_only}");
            }
            for _ in 0..rng.random_range(1..=4) {
                let text: Vec<bool> = (0..4).map(|_| rng.random_bool(0.25)).collect();
                let batch: Vec<Vec<Value>> = (0..rng.random_range(0..4))
                    .map(|_| text.iter().map(|&t| random_cell(&mut rng, 4, t)).collect())
                    .collect();
                let want = reencoded(&got, &batch);
                for c in 0..got.num_columns() {
                    got.rank_order(c);
                }
                got.append_rows(&batch).unwrap();
                same_relation(&got, &want)?;
                for c in 0..got.num_columns() {
                    let (rows, ends) = stable_order(got.codes(c), got.meta(c).distinct);
                    proptest::prop_assert_eq!(got.rank_order(c).rows(), &rows[..]);
                    proptest::prop_assert_eq!(got.rank_order(c).ends(), &ends[..]);
                }
            }
        }
    }

    /// The rows of a column with `codes`, dense ranks below `distinct`, in
    /// a stable sort by code, and one past the last position of each code.
    fn stable_order(codes: &[u32], distinct: usize) -> (Vec<u32>, Vec<u32>) {
        let mut rows: Vec<u32> = (0..codes.len() as u32).collect();
        rows.sort_by_key(|&r| codes[r as usize]);
        let ends = (0..distinct.max(1) as u32)
            .map(|code| codes.iter().filter(|&&c| c <= code).count() as u32)
            .collect();
        (rows, ends)
    }

    #[test]
    fn append_remaps_old_codes_only_below_an_old_value() {
        let mut r =
            Relation::from_columns(vec![("a".into(), vec![Value::Int(5), Value::Int(1)])]).unwrap();
        // New maxima and repeats leave the old codes as they were.
        r.append_rows(&[vec![Value::Int(9)], vec![Value::Int(1)]])
            .unwrap();
        assert_eq!(r.codes(0), &[1, 0, 2, 0]);
        // A value between old ones moves the codes above it.
        r.append_rows(&[vec![Value::Float(2.5)]]).unwrap();
        assert_eq!(r.codes(0), &[2, 0, 3, 0, 1]);
        assert_eq!(r.meta(0).data_type, DataType::Float);
        // A first NULL moves every code.
        r.append_rows(&[vec![Value::Null]]).unwrap();
        assert_eq!(r.codes(0), &[3, 1, 4, 1, 2, 0]);
        assert!(r.meta(0).has_nulls);
        // A row of the wrong arity changes nothing.
        let before = crate::manifest::manifest_hash(&r);
        let err = r
            .append_rows(&[vec![Value::Int(1)], vec![Value::Int(1), Value::Int(2)]])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::ArityMismatch {
                expected: 1,
                got: 2
            }
        ));
        assert_eq!(crate::manifest::manifest_hash(&r), before);
    }

    #[test]
    fn a_retyping_append_ranks_decoded_values() {
        // `0` and `-0.0` are one value of the Float column, kept as the
        // first row's `Int(0)`, so the string that retypes the column
        // meets one "0", not "0" and "-0".
        let mut r = Relation::from_columns(vec![(
            "f".into(),
            vec![Value::Int(0), Value::Float(-0.0), Value::Float(0.5)],
        )])
        .unwrap();
        r.append_rows(&[vec![Value::Str("x".into())]]).unwrap();
        assert_eq!(r.meta(0).data_type, DataType::Str);
        assert_eq!(r.meta(0).distinct, 3);
        assert_eq!(r.codes(0), &[0, 0, 1, 2]);
        assert_eq!(r.value(1, 0), &Value::Str("0".into()));
    }

    #[test]
    fn from_column_slices_matches_owned_constructor() {
        let named = vec![
            (
                "a".to_string(),
                vec![Value::Int(3), Value::Null, Value::Int(1)],
            ),
            (
                "b".to_string(),
                vec![Value::Str("x".into()), Value::Int(10), Value::Int(9)],
            ),
        ];
        let owned = Relation::from_columns(named.clone()).unwrap();
        let borrowed = Relation::from_column_slices(
            named.iter().map(|(n, v)| (n.as_str(), v.as_slice())),
            TypingMode::Infer,
        )
        .unwrap();
        assert_eq!(
            crate::manifest::manifest_hash(&owned),
            crate::manifest::manifest_hash(&borrowed)
        );
        // "10" < "9" < "x" once the mixed column is re-typed as Str.
        assert_eq!(borrowed.codes(1), &[2, 0, 1]);
        assert_eq!(borrowed.value(1, 1), &Value::Str("10".into()));
    }

    #[test]
    fn equal_values_keep_the_lowest_rows_representative() {
        let named = vec![(
            "f".to_string(),
            vec![
                Value::Float(-0.0),
                Value::Int(2),
                Value::Int(0),
                Value::Float(2.0),
            ],
        )];
        let r = Relation::from_columns(named).unwrap();
        assert_eq!(r.meta(0).distinct, 2);
        assert_eq!(r.value(2, 0).to_string(), "-0");
        assert_eq!(r.value(3, 0).to_string(), "2");
        assert!(matches!(r.value(3, 0), Value::Int(2)));
    }
}
