//! Typed scalar values and data types used throughout the engine.
//!
//! Values are sixteen bytes, cheaply clonable (a string is a [`Text`], one
//! shared pointer), totally ordered (floats via IEEE total order) and
//! hashable, so they can serve as hash-join and group-by keys directly.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// What one held column value is charged as: a stored, held or spooled
/// row of `n` columns counts `n` cells.
pub const CELL_BYTES: usize = std::mem::size_of::<Value>();

// Every row is a run of values, so a wider variant widens every row: make
// it a build error rather than a silent cost.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Option<Value>>() == 16);
const _: () = assert!(std::mem::size_of::<Text>() == 8);

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

/// An immutable shared string, one pointer wide: the text lives in a box
/// behind the count, so a [`Value`] holding it stays sixteen bytes where a
/// fat `Arc<str>` would make it twenty-four. Clones share the text; equality,
/// order and hash go by content, like `str`'s.
#[derive(Clone)]
pub struct Text(Arc<Box<str>>);

impl Text {
    /// Whether `a` and `b` are clones of one allocation: a shortcut for
    /// equality, never its definition.
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Arc::new(s.into()))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(Arc::new(s.into_boxed_str()))
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

/// Hashes like the `str` it holds, as [`Borrow<str>`] requires.
impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A runtime scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    Int(i64),
    Float(f64),
    Str(Text),
    /// Days since the Unix epoch.
    Date(i32),
    Bool(bool),
}

impl Value {
    /// String constructor: allocates a new [`Text`].
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Text::from(s.as_ref()))
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

    /// Three-valued-logic comparison: NULL compares as unknown (`None`),
    /// numeric types compare cross-type.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            // Exactly, as `total_cmp` does: index narrowing relies on the two
            // orders agreeing within INT/FLOAT.
            (Value::Int(a), Value::Float(b)) => Some(int_float_cmp(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(int_float_cmp(*b, *a).reverse()),
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
            (Value::Str(a), Value::Str(b)) if Text::ptr_eq(a, b) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => tag(self).cmp(&tag(other)),
        }
    }
}

/// `i` against `f` exactly, in `f64::total_cmp`'s order: `-0.0` below every
/// zero, NaN past every number by its sign. Rounding `i` to `f64` keeps any
/// strict order, so only a tie can hide a difference, and a tie makes `f`
/// an integer of at most 2^63 in magnitude, compared as one.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    match (i as f64).total_cmp(&f) {
        // 2^63 itself is past `i64::MAX`; `f as i64` is exact below it.
        Ordering::Equal if f >= -(i64::MIN as f64) => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        strict => strict,
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
            // total order treats them as equal. An `Int` past 2^53 hashes
            // like its rounded `f64`, which it may not equal: a collision,
            // never two hashes for one value.
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
    use std::collections::HashSet;

    fn h(v: &impl Hash) -> u64 {
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
        assert!(!Text::ptr_eq(x, y));
        assert!(Text::ptr_eq(x, &x.clone()));
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        assert_eq!((x, h(x)), (y, h(y)));
        assert_eq!(a, a.clone());
        // The durable decoder finds a stored `Text` by the `&str` it read.
        let set: HashSet<Text> = [y.clone()].into();
        assert!(set.get(&**x).is_some_and(|t| Text::ptr_eq(t, y)));
        assert!(!set.contains("AIR"));
        assert_eq!(a.total_cmp(&Value::str("AIR")), Ordering::Greater);
        assert_eq!(Value::str("AIR").total_cmp(&a), Ordering::Less);
    }

    /// An `Int` meets a `Float` exactly: past 2^53, where `i as f64`
    /// rounds, equality stays transitive and equal values hash alike.
    #[test]
    fn int_float_equality_is_exact_and_transitive() {
        let p53 = 1i64 << 53;
        let (int, float) = (Value::Int, Value::Float);
        assert_ne!(int(p53 + 1), float(p53 as f64));
        assert_eq!(float(p53 as f64), int(p53));
        assert_ne!(int(p53 + 1), int(p53));
        assert!(int(p53 + 1) > float(p53 as f64) && float(p53 as f64) < int(p53 + 1));
        assert!(int(p53 - 1) < float(p53 as f64));
        assert!(int(i64::MAX) < float(i64::MAX as f64)); // 2^63
        assert!(float(i64::MAX as f64) > int(i64::MAX));
        assert_eq!(int(i64::MIN), float(i64::MIN as f64)); // -2^63
        assert!(int(i64::MIN + 1) > float(i64::MIN as f64));
        let vals = [
            int(p53 - 1),
            int(p53),
            int(p53 + 1),
            float(p53 as f64),
            float((p53 + 2) as f64),
            int(i64::MIN),
            int(i64::MIN + 1),
            float(i64::MIN as f64),
            int(i64::MAX),
            int(i64::MAX - 1),
            float(i64::MAX as f64),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(h(a), h(b), "{a:?} == {b:?} hash alike");
                }
                for c in &vals {
                    if a == b && b == c {
                        assert_eq!(a, c, "{a:?} == {b:?} == {c:?}");
                    }
                    if a < b && b < c {
                        assert!(a < c, "{a:?} < {b:?} < {c:?}");
                    }
                }
            }
        }
        // SQL's comparison agrees.
        let (a, b) = (int(p53 + 1), float(p53 as f64));
        assert_eq!(
            (a.sql_cmp(&b), b.sql_cmp(&a)),
            (Some(Ordering::Greater), Some(Ordering::Less))
        );
        // Unchanged where i as f64 is exact: -0.0 below every zero, NaN past
        // every number by its sign.
        assert!(float(-0.0) < int(0) && int(0) == float(0.0));
        assert!(int(i64::MAX) < float(f64::NAN) && float(-f64::NAN) < int(i64::MIN));
        assert!(int(p53) < float(f64::INFINITY) && float(f64::NEG_INFINITY) < int(i64::MIN));
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
    fn strings_print_their_text() {
        assert_eq!(format!("{}", Value::str("MAIL")), "'MAIL'");
        assert_eq!(format!("{:?}", Value::str("MAIL")), "Str(\"MAIL\")");
        assert_eq!(
            format!("{:>6}|{:?}", Text::from("AIR"), Text::from("AIR")),
            "   AIR|\"AIR\""
        );
    }
}
