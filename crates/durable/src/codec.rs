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
pub(crate) fn encode_mutation(m: &CatalogMutation) -> Vec<u8> {
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
            // An empty delete section: the layout every log was written in.
            put_u32(&mut out, 0);
        }
    }
    out
}

/// Decode one catalog mutation from a WAL payload. The payload has already
/// passed the frame CRC; decode errors therefore indicate corruption that
/// happened to checksum, and are reported, never ignored.
pub(crate) fn decode_mutation(payload: &[u8]) -> Result<CatalogMutation, DurableError> {
    let mut r = Reader::new(payload);
    let m = match r.u8("mutation tag")? {
        0 => CatalogMutation::RegisterTable {
            table: read_table(&mut r)?,
        },
        1 => CatalogMutation::ReplaceTable {
            table: read_table(&mut r)?,
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
            read_rows(&mut r, &mut delta.inserts, &mut Strings::new())?;
            if r.u32("delete count")? != 0 {
                return Err(truncated("delta deletes"));
            }
            CatalogMutation::ApplyDelta { delta }
        }
        // Tag 2, a table drop, is no longer written and never reused.
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
    use crate::wal::{encode_frame, scan_wal};
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
        d.record(row(vec![Value::Int(1)])).unwrap();
        let m = roundtrip(&CatalogMutation::ApplyDelta { delta: d });
        let CatalogMutation::ApplyDelta { delta } = m else {
            panic!("wrong variant");
        };
        assert_eq!(delta.base, "base");
        assert_eq!(delta.insert_count(), 1);
    }

    #[test]
    fn garbage_fails_cleanly() {
        assert!(decode_mutation(&[]).is_err());
        assert!(decode_mutation(&[99]).is_err());
        assert!(decode_mutation(&[2, 255, 255, 255, 255]).is_err());
        // Trailing junk after a valid mutation is corruption, not slack.
        let mut bytes = encode_mutation(&CatalogMutation::RegisterView {
            name: "v".into(),
            definition_sql: "select 1".into(),
        });
        bytes.push(0);
        assert!(decode_mutation(&bytes).is_err());
    }

    /// One frame of each record kind, as the log has always written it
    /// (`len crc lsn | tag | fields`, little-endian): the encoder must
    /// write these bytes exactly and the decoder must read them back, so
    /// every existing log and snapshot still recovers.
    const PINNED: [&str; 6] = [
        "35000000 d29f25d3 0100000000000000 | 00 | 01000000 74 | 02000000 \
         01000000 6b 00 00 | 01000000 73 02 01 | 02000000 \
         01 0100000000000000 03 01000000 78 | 01 feffffffffffffff 00",
        "33000000 28109cc9 0200000000000000 | 01 | 01000000 75 | 03000000 \
         01000000 64 03 00 | 01000000 66 01 00 | 01000000 62 04 00 | 01000000 \
         04 fbffffff 02 000000000000f83f 05 01",
        "0b000000 4e9ccd78 0300000000000000 | 03 | 01000000 74 | 01000000 6b",
        "0b000000 d09aa408 0400000000000000 | 04 | 01000000 74 | 01000000 73",
        "19000000 2f8c8e31 0500000000000000 | 05 | 01000000 76 \
         0f000000 73656c656374206b2066726f6d2074",
        "2f000000 779b81ea 0600000000000000 | 06 | 01000000 74 | 02000000 \
         01000000 6b 00 00 | 01000000 73 02 01 | 01000000 \
         01 0400000000000000 03 01000000 79 | 00000000",
    ];

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
        let pair = |p: &[u8]| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap();
        digits.chunks(2).map(pair).collect()
    }

    fn pinned_mutations() -> [CatalogMutation; 6] {
        let two = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("s", DataType::Str).nullable(),
        ]);
        let three = Schema::from_pairs(&[
            ("d", DataType::Date),
            ("f", DataType::Float),
            ("b", DataType::Bool),
        ]);
        let mut delta = DeltaTable::new("t", &two);
        delta.record([Value::Int(4), Value::str("y")]).unwrap();
        let rows = [
            [Value::Int(1), Value::str("x")],
            [Value::Int(-2), Value::Null],
        ];
        let row = [[Value::Date(-5), Value::Float(1.5), Value::Bool(true)]];
        [
            CatalogMutation::RegisterTable {
                table: Table::with_rows("t", two, rows),
            },
            CatalogMutation::ReplaceTable {
                table: Table::with_rows("u", three, row),
            },
            CatalogMutation::CreateBtreeIndex {
                table: "t".into(),
                column: "k".into(),
            },
            CatalogMutation::CreateHashIndex {
                table: "t".into(),
                column: "s".into(),
            },
            CatalogMutation::RegisterView {
                name: "v".into(),
                definition_sql: "select k from t".into(),
            },
            CatalogMutation::ApplyDelta { delta },
        ]
    }

    #[test]
    fn record_bytes_are_pinned() {
        let mut log = Vec::new();
        for (lsn, (m, pinned)) in (1..).zip(pinned_mutations().iter().zip(PINNED)) {
            let frame = encode_frame(lsn, &encode_mutation(m));
            assert_eq!(frame, hex(pinned), "{}", m.kind());
            log.extend(frame);
        }
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.records.len(), 6);
        for ((_, payload), m) in scan.records.iter().zip(pinned_mutations()) {
            let decoded = decode_mutation(payload).unwrap();
            assert_eq!(decoded.kind(), m.kind());
            assert_eq!(encode_mutation(&decoded), *payload, "{}", m.kind());
        }
        // Tag 2, the table drop no catalog writes, and a delta with a
        // delete row are both corrupt payloads.
        let codec = |p: &[u8]| decode_mutation(p).unwrap_err().code();
        assert_eq!(codec(&hex("02 01000000 74")), "WAL_CODEC");
        let mut delta = scan.records[5].1.clone();
        let n = delta.len();
        delta.splice(n - 4.., hex("01000000 01 0500000000000000 03 01000000 7a"));
        assert_eq!(codec(&delta), "WAL_CODEC");
    }
}
