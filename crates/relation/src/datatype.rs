//! Column data types and type inference.
//!
//! ORDER and OCDDISCOVER "perform type inference over the datasets provided,
//! and use the natural ordering for real and integer numbers" (§5.2.2), while
//! FASTOD "considers all columns as if they contain data of type String".
//! Both behaviours are supported here through [`TypingMode`].

use crate::value::Value;

/// The inferred type of a column, forming the widening chain
/// `Int ⊂ Float ⊂ Str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// All non-NULL values parse as 64-bit integers.
    Int,
    /// All non-NULL values parse as numbers, at least one needs a float.
    Float,
    /// Anything else.
    Str,
}

impl DataType {
    /// Widen `self` to also accommodate a value of type `other`.
    #[inline]
    pub fn widen(self, other: DataType) -> DataType {
        self.max(other)
    }

    /// Type of a single non-NULL value.
    pub fn of(v: &Value) -> Option<DataType> {
        match v {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }
}

/// How raw text tokens are interpreted when loading data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TypingMode {
    /// Infer `Int`/`Float`/`Str` per column; numbers get natural ordering.
    /// This is what ORDER and OCDDISCOVER do.
    #[default]
    Infer,
    /// Treat every token as a string (lexicographic ordering everywhere).
    /// This reproduces FASTOD's behaviour (§5.2.2).
    ForceLexicographic,
}

/// Infer the narrowest [`DataType`] covering every value in `values`.
///
/// NULLs do not influence the type; an all-NULL column is typed `Str` by
/// convention (it is constant anyway and removed by column reduction).
pub fn infer_type<'a>(values: impl IntoIterator<Item = &'a Value>) -> DataType {
    let mut ty: Option<DataType> = None;
    for v in values {
        if let Some(t) = DataType::of(v) {
            ty = Some(match ty {
                None => t,
                Some(prev) => prev.widen(t),
            });
            if ty == Some(DataType::Str) {
                break; // cannot widen further
            }
        }
    }
    ty.unwrap_or(DataType::Str)
}

/// Re-type a column's values for a given [`TypingMode`].
///
/// Under [`TypingMode::Infer`], if the column-wide inferred type is `Str`
/// then numeric-looking values that coexist with strings are converted to
/// their string form so the whole column orders lexicographically (this is
/// what a relational system with a `VARCHAR` column would do). Under
/// [`TypingMode::ForceLexicographic`] every non-NULL value becomes a string.
///
/// The rank encoder applies this rule on the fly without materializing
/// the strings; this form is the reference the differential tests check
/// it against.
#[cfg(test)]
pub(crate) fn homogenize(values: &mut [Value], mode: TypingMode) {
    let target = match mode {
        TypingMode::ForceLexicographic => DataType::Str,
        TypingMode::Infer => infer_type(values.iter()),
    };
    if target != DataType::Str {
        return; // Int/Float mix orders numerically already.
    }
    for v in values.iter_mut() {
        match v {
            Value::Int(_) | Value::Float(_) => {
                // lint: allow(hot-loop-alloc, load-time homogenization; the string becomes the column's owned value)
                *v = Value::Str(v.to_string());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_chain() {
        assert_eq!(DataType::Int.widen(DataType::Int), DataType::Int);
        assert_eq!(DataType::Int.widen(DataType::Float), DataType::Float);
        assert_eq!(DataType::Float.widen(DataType::Int), DataType::Float);
        assert_eq!(DataType::Float.widen(DataType::Str), DataType::Str);
        assert_eq!(DataType::Str.widen(DataType::Int), DataType::Str);
    }

    #[test]
    fn infer_pure_int() {
        let vals = [Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(infer_type(vals.iter()), DataType::Int);
    }

    #[test]
    fn infer_mixed_numeric_is_float() {
        let vals = [Value::Int(1), Value::Float(2.5)];
        assert_eq!(infer_type(vals.iter()), DataType::Float);
    }

    #[test]
    fn infer_any_string_wins() {
        let vals = [Value::Int(1), Value::Str("x".into())];
        assert_eq!(infer_type(vals.iter()), DataType::Str);
    }

    #[test]
    fn infer_all_null_defaults_to_str() {
        let vals = [Value::Null, Value::Null];
        assert_eq!(infer_type(vals.iter()), DataType::Str);
    }

    #[test]
    fn homogenize_mixed_column_stringifies_numbers() {
        let mut vals = vec![Value::Int(10), Value::Str("9".into()), Value::Null];
        homogenize(&mut vals, TypingMode::Infer);
        assert_eq!(vals[0], Value::Str("10".into()));
        assert_eq!(vals[2], Value::Null);
        // Now "10" < "9" lexicographically.
        assert!(vals[0] < vals[1]);
    }

    #[test]
    fn homogenize_keeps_numeric_column_numeric() {
        let mut vals = vec![Value::Int(10), Value::Int(9)];
        homogenize(&mut vals, TypingMode::Infer);
        assert_eq!(vals, vec![Value::Int(10), Value::Int(9)]);
    }

    #[test]
    fn force_lexicographic_stringifies_everything() {
        let mut vals = vec![Value::Int(10), Value::Int(9), Value::Null];
        homogenize(&mut vals, TypingMode::ForceLexicographic);
        assert_eq!(vals[0], Value::Str("10".into()));
        assert_eq!(vals[1], Value::Str("9".into()));
        assert!(vals[0] < vals[1], "lexicographic: \"10\" < \"9\"");
        assert_eq!(vals[2], Value::Null);
    }
}
