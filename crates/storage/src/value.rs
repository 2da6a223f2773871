//! Typed scalar values and data types used throughout the engine.
//!
//! Values are small, cheaply clonable (strings are `Arc<str>`), totally
//! ordered (floats via IEEE total order) and hashable, so they can serve as
//! hash-join and group-by keys directly.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The data types supported by the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (used for prices, discounts and other decimals).
    Float,
    /// UTF-8 string.
    Str,
    /// Date stored as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Average in-memory width in bytes used by the cost model for
    /// materialization estimates.
    pub fn width(&self) -> usize {
        match self {
            DataType::Int | DataType::Float | DataType::Date => 8,
            DataType::Bool => 1,
            DataType::Str => 24,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Date => "DATE",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i32),
    Bool(bool),
}

impl Value {
    /// String constructor that interns into an `Arc<str>`.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Parse a `YYYY-MM-DD` literal into a [`Value::Date`].
    pub fn date(s: &str) -> Option<Value> {
        crate::dates::parse_date(s).map(Value::Date)
    }

    /// The dynamic type of this value, if it is not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and aggregation: ints and dates
    /// promote to float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// In-memory width estimate for materialization costing.
    pub fn width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len().max(8),
        }
    }

    /// Three-valued-logic comparison: NULL compares as unknown (`None`),
    /// numeric types compare cross-type.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Some(a.total_cmp(&b))
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Value {
    /// Total order used for sorting and map keys: NULLs first, then by type
    /// tag, then by value. Distinct from [`Value::sql_cmp`], which implements
    /// SQL's three-valued comparison semantics. Two strings that share one
    /// allocation are equal without a look at their bytes: a domain value
    /// the generator or a decoded table stores once compares in O(1).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2, // ints and floats share a numeric class
                Value::Date(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => tag(self).cmp(&tag(other)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integral floats must hash like the equal integer because the
            // total order treats them as equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "{}", crate::dates::format_date(*d)),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    /// The pointer test is a shortcut, not the definition: equal text in
    /// two allocations is still equal and hashes alike, and one allocation
    /// is equal to itself.
    #[test]
    fn strings_compare_by_content_whether_shared_or_not() {
        let (a, b) = (Value::str("MAIL"), Value::str("MAIL"));
        let (Value::Str(x), Value::Str(y)) = (&a, &b) else {
            unreachable!()
        };
        assert!(!Arc::ptr_eq(x, y));
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        assert_eq!(a, a.clone());
        assert_eq!(a.total_cmp(&Value::str("AIR")), Ordering::Greater);
        assert_eq!(Value::str("AIR").total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn total_order_is_consistent() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(-5),
            Value::Float(2.5),
            Value::Int(3),
            Value::str("abc"),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        // Sorting must be stable under repetition (i.e. a valid total order).
        let mut again = sorted.clone();
        again.sort();
        assert_eq!(sorted, again);
    }

    #[test]
    fn date_roundtrip() {
        let v = Value::date("1996-07-01").unwrap();
        assert_eq!(v.to_string(), "1996-07-01");
        assert!(Value::date("1996-06-30").unwrap() < v);
    }

    #[test]
    fn width_estimates() {
        assert_eq!(Value::Int(1).width(), 8);
        assert!(Value::str("hello world too long").width() >= 8);
    }
}
