//! Binary codec for WAL payloads: little-endian, length-prefixed, no
//! self-description (the frame CRC is what detects corruption; the codec
//! only needs to fail cleanly on garbage that happens to checksum).
//!
//! Encoded shapes: [`Value`], rows, [`Schema`], [`Table`], [`DeltaTable`]
//! and finally [`CatalogMutation`], which is what one WAL record carries.

use crate::DurableError;
use cse_storage::delta::DeltaTable;
use cse_storage::schema::{ColumnDef, Schema};
use cse_storage::table::Table;
use cse_storage::value::{DataType, Text, Value};
use cse_storage::CatalogMutation;
use std::collections::HashSet;

/// Decode cursor over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &'static str) -> DurableError {
    DurableError::Codec { what }
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DurableError> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
        if end > self.buf.len() {
            return Err(truncated(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DurableError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DurableError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DurableError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self, what: &'static str) -> Result<String, DurableError> {
        Ok(self.text(what)?.to_string())
    }

    fn text(&mut self, what: &'static str) -> Result<&'a str, DurableError> {
        let len = self.u32(what)? as usize;
        let b = self.take(len, what)?;
        std::str::from_utf8(b).map_err(|_| truncated(what))
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn data_type_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::Bool => 4,
    }
}

fn data_type_of(tag: u8) -> Result<DataType, DurableError> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        4 => DataType::Bool,
        _ => return Err(truncated("data-type tag")),
    })
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(4);
            put_u32(out, *d as u32);
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(*b as u8);
        }
    }
}

/// The strings one decoded mutation has stored so far: each distinct text
/// is allocated once, however many rows repeat it.
type Strings = HashSet<Text>;

fn read_value(r: &mut Reader, strings: &mut Strings) -> Result<Value, DurableError> {
    Ok(match r.u8("value tag")? {
        0 => Value::Null,
        1 => Value::Int(r.u64("int value")? as i64),
        2 => Value::Float(f64::from_bits(r.u64("float value")?)),
        3 => {
            let text = r.text("string value")?;
            Value::Str(strings.get(text).cloned().unwrap_or_else(|| {
                let s = Text::from(text);
                strings.insert(s.clone());
                s
            }))
        }
        4 => Value::Date(r.u32("date value")? as i32),
        5 => Value::Bool(r.u8("bool value")? != 0),
        _ => return Err(truncated("value tag")),
    })
}

fn put_schema(out: &mut Vec<u8>, s: &Schema) {
    put_u32(out, s.len() as u32);
    for c in s.columns() {
        put_str(out, &c.name);
        out.push(data_type_tag(c.data_type));
        out.push(c.nullable as u8);
    }
}

fn read_schema(r: &mut Reader) -> Result<Schema, DurableError> {
    let n = r.u32("schema column count")? as usize;
    if n > 1 << 16 {
        return Err(truncated("schema column count"));
    }
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("column name")?;
        let dt = data_type_of(r.u8("column type")?)?;
        let nullable = r.u8("column nullable flag")? != 0;
        let mut c = ColumnDef::new(name, dt);
        if nullable {
            c = c.nullable();
        }
        cols.push(c);
    }
    Ok(Schema::new(cols))
}

fn put_rows(out: &mut Vec<u8>, t: &Table) {
    put_u32(out, t.row_count() as u32);
    for r in t.scan() {
        for v in r {
            put_value(out, v);
        }
    }
}

/// Decode rows straight into `t`'s slab.
fn read_rows(r: &mut Reader, t: &mut Table, strings: &mut Strings) -> Result<(), DurableError> {
    let n = r.u32("row count")? as usize;
    let mut vals = Vec::with_capacity(t.schema().len());
    for _ in 0..n {
        for _ in 0..t.schema().len() {
            vals.push(read_value(r, strings)?);
        }
        t.push_values(vals.drain(..));
    }
    Ok(())
}

fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, t.name());
    put_schema(out, t.schema());
    put_rows(out, t);
}

fn read_table(r: &mut Reader) -> Result<Table, DurableError> {
    let name = r.str("table name")?;
    let mut table = Table::new(name, read_schema(r)?);
    read_rows(r, &mut table, &mut Strings::new())?;
    Ok(table)
}

/// Serialize one catalog mutation into a WAL payload.
pub fn encode_mutation(m: &CatalogMutation) -> Vec<u8> {
    let mut out = Vec::new();
    match m {
        CatalogMutation::RegisterTable { table } => {
            out.push(0);
            put_table(&mut out, table);
        }
        CatalogMutation::ReplaceTable { table } => {
            out.push(1);
            put_table(&mut out, table);
        }
        CatalogMutation::DropTable { name } => {
            out.push(2);
            put_str(&mut out, name);
        }
        CatalogMutation::CreateBtreeIndex { table, column } => {
            out.push(3);
            put_str(&mut out, table);
            put_str(&mut out, column);
        }
        CatalogMutation::CreateHashIndex { table, column } => {
            out.push(4);
            put_str(&mut out, table);
            put_str(&mut out, column);
        }
        CatalogMutation::RegisterView {
            name,
            definition_sql,
        } => {
            out.push(5);
            put_str(&mut out, name);
            put_str(&mut out, definition_sql);
        }
        CatalogMutation::ApplyDelta { delta } => {
            out.push(6);
            put_str(&mut out, &delta.base);
            put_schema(&mut out, delta.inserts.schema());
            put_rows(&mut out, &delta.inserts);
            put_rows(&mut out, &delta.deletes);
        }
    }
    out
}

/// Decode one catalog mutation from a WAL payload. The payload has already
/// passed the frame CRC; decode errors therefore indicate corruption that
/// happened to checksum, and are reported, never ignored.
pub fn decode_mutation(payload: &[u8]) -> Result<CatalogMutation, DurableError> {
    let mut r = Reader::new(payload);
    let m = match r.u8("mutation tag")? {
        0 => CatalogMutation::RegisterTable {
            table: read_table(&mut r)?,
        },
        1 => CatalogMutation::ReplaceTable {
            table: read_table(&mut r)?,
        },
        2 => CatalogMutation::DropTable {
            name: r.str("table name")?,
        },
        3 => CatalogMutation::CreateBtreeIndex {
            table: r.str("table name")?,
            column: r.str("column name")?,
        },
        4 => CatalogMutation::CreateHashIndex {
            table: r.str("table name")?,
            column: r.str("column name")?,
        },
        5 => CatalogMutation::RegisterView {
            name: r.str("view name")?,
            definition_sql: r.str("view definition")?,
        },
        6 => {
            let base = r.str("delta base")?;
            let mut delta = DeltaTable::new(base, &read_schema(&mut r)?);
            let mut strings = Strings::new();
            read_rows(&mut r, &mut delta.inserts, &mut strings)?;
            read_rows(&mut r, &mut delta.deletes, &mut strings)?;
            CatalogMutation::ApplyDelta { delta }
        }
        _ => return Err(truncated("mutation tag")),
    };
    if !r.is_done() {
        return Err(truncated("trailing bytes after mutation"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::delta::DeltaAction;
    use cse_storage::table::row;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("s", DataType::Str).nullable(),
            ColumnDef::new("d", DataType::Date),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("b", DataType::Bool),
        ]);
        let mut t = Table::new("Mixed", schema.clone());
        t.push(row(vec![
            Value::Int(-3),
            Value::str("héllo"),
            Value::Date(9876),
            Value::Float(1.25),
            Value::Bool(true),
        ]))
        .unwrap();
        t.push(row(vec![
            Value::Int(7),
            Value::Null,
            Value::Date(-12),
            Value::Float(f64::NEG_INFINITY),
            Value::Bool(false),
        ]))
        .unwrap();
        t
    }

    fn roundtrip(m: &CatalogMutation) -> CatalogMutation {
        decode_mutation(&encode_mutation(m)).unwrap()
    }

    #[test]
    fn table_mutations_roundtrip() {
        let m = roundtrip(&CatalogMutation::RegisterTable {
            table: sample_table(),
        });
        let CatalogMutation::RegisterTable { table } = m else {
            panic!("wrong variant");
        };
        let orig = sample_table();
        assert_eq!(table.name(), orig.name());
        assert_eq!(table.schema().as_ref(), orig.schema().as_ref());
        assert_eq!(table.rows(), orig.rows());
    }

    /// Decoding allocates each distinct string of a table once: rows that
    /// repeat a text share it, whether or not the encoded table did.
    #[test]
    fn decoded_equal_strings_share_one_allocation() {
        let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]);
        let texts = ["MAIL", "SHIP", "MAIL", "AIR", "SHIP", "MAIL"];
        let rows = texts.iter().map(|t| [Value::str(t), Value::str(t)]);
        let table = Table::with_rows("t", schema, rows);
        let m = roundtrip(&CatalogMutation::RegisterTable { table });
        let CatalogMutation::RegisterTable { table } = m else {
            panic!("wrong variant");
        };
        let mut seen: Vec<Text> = Vec::new();
        for (r, text) in table.scan().zip(texts) {
            for v in r {
                let Value::Str(s) = v else { panic!("a string") };
                assert_eq!(&**s, text);
                match seen.iter().find(|x| ***x == **s) {
                    Some(first) => assert!(Text::ptr_eq(first, s), "{text} twice"),
                    None => seen.push(s.clone()),
                }
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn scalar_mutations_roundtrip() {
        assert!(matches!(
            roundtrip(&CatalogMutation::DropTable { name: "x".into() }),
            CatalogMutation::DropTable { name } if name == "x"
        ));
        assert!(matches!(
            roundtrip(&CatalogMutation::CreateBtreeIndex {
                table: "t".into(),
                column: "c".into()
            }),
            CatalogMutation::CreateBtreeIndex { table, column } if table == "t" && column == "c"
        ));
        assert!(matches!(
            roundtrip(&CatalogMutation::RegisterView {
                name: "v".into(),
                definition_sql: "select 1".into()
            }),
            CatalogMutation::RegisterView { name, .. } if name == "v"
        ));
    }

    #[test]
    fn delta_roundtrips() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut d = DeltaTable::new("base", &schema);
        d.record(DeltaAction::Insert, row(vec![Value::Int(1)]))
            .unwrap();
        d.record(DeltaAction::Delete, row(vec![Value::Int(2)]))
            .unwrap();
        let m = roundtrip(&CatalogMutation::ApplyDelta { delta: d });
        let CatalogMutation::ApplyDelta { delta } = m else {
            panic!("wrong variant");
        };
        assert_eq!(delta.base, "base");
        assert_eq!(delta.insert_count(), 1);
        assert_eq!(delta.delete_count(), 1);
    }

    #[test]
    fn garbage_fails_cleanly() {
        assert!(decode_mutation(&[]).is_err());
        assert!(decode_mutation(&[99]).is_err());
        assert!(decode_mutation(&[2, 255, 255, 255, 255]).is_err());
        // Trailing junk after a valid mutation is corruption, not slack.
        let mut bytes = encode_mutation(&CatalogMutation::DropTable { name: "t".into() });
        bytes.push(0);
        assert!(decode_mutation(&bytes).is_err());
    }
}
