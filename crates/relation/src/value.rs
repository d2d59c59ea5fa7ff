//! Dynamically typed cell values with the paper's comparison semantics.
//!
//! §4.3 of the paper fixes the semantics for real-world data: `NULL` compares
//! equal to `NULL` (`SET ANSI_NULLS ON`) and sorts before every non-NULL
//! value (`NULLS FIRST`). Numeric columns use the natural numeric order,
//! exact for every `i64` (integers are never rounded through `f64`);
//! string columns use lexicographic (byte-wise UTF-8) order.

use std::cmp::Ordering;
use std::fmt;

/// A single typed cell value.
///
/// A [`Value`] forms a **total order** within its own type. Heterogeneous
/// comparisons rank by type (`Null < Int/Float < Str`) so that a column that
/// failed strict type inference still has a deterministic total order; in
/// practice columns are homogenised by type inference before comparisons
/// happen (see [`crate::datatype`]).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Equal to itself, smaller than everything else.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised to [`Value::Null`] at parse time, so
    /// stored floats are always comparable.
    Float(f64),
    /// UTF-8 string, compared lexicographically.
    Str(String),
}

impl Value {
    /// True if this value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parse a raw text token into a value, trying `Int`, then `Float`,
    /// then falling back to `Str`. `null_tokens` (e.g. `""`, `"?"`,
    /// `"NULL"`) map to [`Value::Null`]. Float NaN parses to NULL to keep
    /// the total-order invariant.
    pub fn parse(token: &str, null_tokens: &[&str]) -> Value {
        Cell::parse(token, null_tokens).to_value()
    }
}

/// A borrowed, classified cell: what [`Value::parse`] decides about a
/// token, without owning its text. The rank encoder
/// ([`crate::column`]) sorts these, so CSV fields and `Value::Str`
/// payloads are ranked in place and only distinct values are copied.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Non-NaN 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Str(&'a str),
}

impl<'a> Cell<'a> {
    /// Classify a raw token exactly as [`Value::parse`] documents.
    pub(crate) fn parse(token: &'a str, null_tokens: &[&str]) -> Cell<'a> {
        if null_tokens.contains(&token) {
            return Cell::Null;
        }
        if let Ok(i) = token.parse::<i64>() {
            return Cell::Int(i);
        }
        if let Ok(f) = token.parse::<f64>() {
            if f.is_nan() {
                return Cell::Null;
            }
            return Cell::Float(f);
        }
        Cell::Str(token)
    }

    /// The borrowed view of a stored value.
    #[inline]
    pub(crate) fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// An owned value equal to this cell.
    pub(crate) fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// Numeric rank of the type used to order heterogeneous values.
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Int(_) | Cell::Float(_) => 1,
            Cell::Str(_) => 2,
        }
    }

    /// The [`Value`] order: `NULL` first, numbers by exact numeric value,
    /// strings byte-wise, heterogeneous values by type.
    pub(crate) fn order(&self, other: &Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Float(b)) => cmp_int_float(*a, *b),
            (Cell::Float(a), Cell::Int(b)) => cmp_int_float(*b, *a).reverse(),
            // Stored floats are never NaN, so partial_cmp cannot fail.
            // lint: allow(no-panic, proven invariant: Value construction rejects NaN, so partial_cmp of stored floats is total)
            (Cell::Float(a), Cell::Float(b)) => a.partial_cmp(b).expect("no NaN stored in Value"),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

/// `2^63` as an `f64` (exact): the first float above every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact order of an integer against a non-NaN float. Converting `i` to
/// `f64` would round above `2^53` and make distinct values tie, so the
/// float is split into its integral part (exact as an `i64` inside the
/// `i64` range) and its fraction instead.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "whole is integral and in [-2^63, 2^63) by the two guards above, so the cast is exact"
    )]
    let whole_int = whole as i64;
    let fraction = f - whole;
    let by_fraction = 0.0f64
        .partial_cmp(&fraction)
        // lint: allow(no-panic, proven invariant: Value construction rejects NaN, so the fraction of a stored float is comparable)
        .expect("no NaN stored in Value");
    i.cmp(&whole_int).then(by_fraction)
}

impl PartialEq for Value {
    /// Equality consistent with [`Ord`]: `Int(2) == Float(2.0)`.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        Cell::of(self).order(&Cell::of(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the branch guard pins f to an integral value within [-2^63, 2^63), so the cast is exact"
            )]
            Value::Float(f) => {
                // Hash consistent with Ord/Eq: an integral float in the
                // i64 range hashes like the equal Int (Int(2) == Float(2.0)
                // under our Ord); no other float equals an Int.
                if f.fract() == 0.0 && *f >= -TWO_POW_63 && *f < TWO_POW_63 {
                    1u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_equals_null_and_sorts_first() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn numeric_order_is_natural_not_lexicographic() {
        assert!(Value::Int(9) < Value::Int(10)); // "10" < "9" lexicographically
        assert!(Value::Float(2.5) < Value::Int(3));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn mixed_int_float_compare_numerically() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Float(1.999) < Value::Int(2));
    }

    #[test]
    fn string_order_is_lexicographic() {
        assert!(Value::Str("10".into()) < Value::Str("9".into()));
        assert!(Value::Str("abc".into()) < Value::Str("abd".into()));
    }

    #[test]
    fn numbers_sort_before_strings() {
        assert!(Value::Int(999) < Value::Str("0".into()));
    }

    #[test]
    fn parse_infers_int_then_float_then_str() {
        assert_eq!(Value::parse("42", &[]), Value::Int(42));
        assert_eq!(Value::parse("-7", &[]), Value::Int(-7));
        assert_eq!(Value::parse("2.75", &[]), Value::Float(2.75));
        assert_eq!(Value::parse("1e3", &[]), Value::Float(1000.0));
        assert_eq!(Value::parse("abc", &[]), Value::Str("abc".into()));
    }

    #[test]
    fn parse_null_tokens() {
        assert_eq!(Value::parse("", &[""]), Value::Null);
        assert_eq!(Value::parse("?", &["", "?"]), Value::Null);
        assert_eq!(Value::parse("NULL", &["NULL"]), Value::Null);
        // Not a null token -> string.
        assert_eq!(Value::parse("?", &[""]), Value::Str("?".into()));
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Value::parse("NaN", &[]), Value::Null);
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn ord_is_total_on_samples() {
        let vals = [
            Value::Null,
            Value::Int(-5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                match i.cmp(&j) {
                    Ordering::Less => assert!(a < b, "{a:?} < {b:?}"),
                    Ordering::Equal => assert_eq!(a, b),
                    Ordering::Greater => assert!(a > b, "{a:?} > {b:?}"),
                }
            }
        }
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn display_round_trip_for_common_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn integers_order_exactly_above_2_pow_53() {
        let two_53 = 1i64 << 53;
        // As f64 these all round to 2^53 and used to tie.
        assert!(Value::Int(two_53) < Value::Int(two_53 + 1));
        assert_ne!(Value::Int(two_53), Value::Int(two_53 + 1));
        assert!(Value::Int(i64::MAX - 1) < Value::Int(i64::MAX));
        // Int vs Float is exact too.
        assert!(Value::Int(two_53 + 1) > Value::Float(9_007_199_254_740_992.0));
        assert_eq!(Value::Int(two_53), Value::Float(9_007_199_254_740_992.0));
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert!(Value::Int(i64::MIN) == Value::Float(-9_223_372_036_854_775_808.0));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(-1) < Value::Float(-0.5));
        assert!(Value::Int(0) > Value::Float(-0.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
    }

    #[test]
    fn hash_consistent_with_exact_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        let two_53 = 1i64 << 53;
        assert_ne!(h(&Value::Int(two_53)), h(&Value::Int(two_53 + 1)));
        assert_eq!(
            h(&Value::Int(two_53)),
            h(&Value::Float(9_007_199_254_740_992.0))
        );
        assert_eq!(h(&Value::Int(0)), h(&Value::Float(-0.0)));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
    }
}
