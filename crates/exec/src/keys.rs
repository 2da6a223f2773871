//! Group-by and join keys hashed in place.
//!
//! A key is a set of positions in a borrowed row: it is hashed with
//! [`Value::hash`] straight from the row and compared column by column
//! only on a hash hit, so no per-row key vector is built. Equality is
//! [`Value`]'s total-order equality — `Int(3)` equals `Float(3.0)` and
//! NULL equals NULL (group-by wants one NULL group; joins skip NULL keys
//! before they get here). A group table whose key columns each hold one of
//! `Int`, `Date`, `Bool` and `Str` keeps its keys as machine words
//! ([`WordKeys`]; a string is a code local to the table, [`StrCodes`]),
//! which is the same equality for such columns at a word's price.

#![expect(
    clippy::indexing_slicing,
    reason = "slot index masked by the power-of-two table length; stored ids are < hashes.len() by construction; key positions and row numbers are the caller's, resolved against the rows they index; a word key is k + 1 >= 1 words at a stored id's offset; a string code is < texts.len(), pushed when it was assigned"
)]

use cse_storage::{Text, Value};
use std::hash::{Hash, Hasher};

/// Word hasher with a final avalanche: each word is a [`mix_word`] step,
/// as in [`WordKeys`]. `Value::hash` feeds integers as `f64` bits, whose low
/// ~40 bits are zero for small values; without the finalizer every such
/// key would land in the same slot of a power-of-two table.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = mix_word(self.0, x);
    }
}

impl Hasher for KeyHasher {
    /// One word per 8 bytes, little-endian; a shorter last chunk is the word
    /// of its bytes, the first lowest.
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.mix(u64::from_le_bytes(*word));
        }
        if !rest.is_empty() {
            self.mix(rest.iter().rev().fold(0, |x, b| (x << 8) | u64::from(*b)));
        }
    }
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
    /// The 64-bit finalizer of MurmurHash3.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hash of the key columns `pos` of `row`.
#[inline]
pub(crate) fn key_hash(row: &[Value], pos: &[usize]) -> u64 {
    let mut h = KeyHasher::default();
    pos.iter().for_each(|p| row[*p].hash(&mut h));
    h.finish()
}

/// Are the key columns `pa` of `a` equal to the key columns `pb` of `b`?
#[inline]
pub(crate) fn key_eq(a: &[Value], pa: &[usize], b: &[Value], pb: &[usize]) -> bool {
    pa.iter().zip(pb).all(|(x, y)| a[*x] == b[*y])
}

/// One multiply-xorshift step of [`WordKeys`]' hash: the shift folds the
/// product's well-mixed high half into the low bits a power-of-two table
/// indexes by, so sequential keys and multiples of a power of two spread.
#[inline]
fn mix_word(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 31)
}

/// The variant a word-keyed column holds.
#[derive(Clone, Copy, PartialEq)]
enum WordKind {
    Int,
    Date,
    Bool,
    /// A string, as its [`StrCodes`] code.
    Str,
}

/// How many texts a [`StrCodes`] holds beside the first-seen ones. Past
/// it, a string key is refused and the group table converts to values.
const MAX_PINS: usize = 4_096;

/// String codes by content, local to one group table: code `c` stands for
/// `texts[c]`, the first text seen with its bytes, so equal text in two
/// allocations has one code. An index from a text's address to its code
/// skips hashing and comparing bytes when an allocation comes again — the
/// rule, since the generator and the durable decoder store one [`Text`]
/// per distinct value. The address is a shortcut, never the definition:
/// every address indexed is that of a text this table holds a clone of (a
/// first-seen text or a pin), so it cannot be freed and reused for other
/// bytes while the table lives.
struct StrCodes {
    /// Code by the [`KeyHasher`] hash of the bytes.
    by_text: KeyTable,
    texts: Vec<Text>,
    /// Later allocations of a coded text, held so their addresses stay theirs.
    pins: Vec<Text>,
    /// `(address, code)` of every text held: open addressing over a
    /// power-of-two array at most half full, address 0 marking an empty
    /// slot. One load finds a hot text.
    by_addr: Vec<(usize, u32)>,
}

impl StrCodes {
    fn new() -> Self {
        StrCodes {
            by_text: KeyTable::with_capacity(0),
            texts: Vec::new(),
            pins: Vec::new(),
            by_addr: vec![(0, 0); 256],
        }
    }

    /// The code of `text`, assigned if its bytes are new; `None`, with
    /// nothing added, if it is a new allocation of a coded text and the
    /// pins are full.
    #[inline]
    fn code(&mut self, text: &Text) -> Option<u64> {
        let addr = text.as_ptr() as usize;
        let slot = self.addr_slot(addr);
        match self.by_addr[slot] {
            (held, code) if held == addr => Some(u64::from(code)),
            _ => self.add(text, slot),
        }
    }

    /// [`StrCodes::code`] for an allocation not indexed yet, whose address
    /// goes in `slot`: out of line, so that the hot path stays small.
    #[cold]
    #[inline(never)]
    fn add(&mut self, text: &Text, slot: usize) -> Option<u64> {
        let mut h = KeyHasher::default();
        (**text).hash(&mut h);
        let texts = &self.texts;
        let (code, added) = self
            .by_text
            .find_or_insert(h.finish(), |c| *texts[c] == **text);
        if added {
            self.texts.push(text.clone());
        } else {
            if self.pins.len() == MAX_PINS {
                return None;
            }
            self.pins.push(text.clone());
        }
        self.by_addr[slot] = (text.as_ptr() as usize, code as u32);
        if (self.texts.len() + self.pins.len()) * 2 > self.by_addr.len() {
            let grown = vec![(0, 0); self.by_addr.len() * 2];
            let old = std::mem::replace(&mut self.by_addr, grown);
            for (addr, code) in old.into_iter().filter(|(addr, _)| *addr != 0) {
                let slot = self.addr_slot(addr);
                self.by_addr[slot] = (addr, code);
            }
        }
        Some(code as u64)
    }

    /// The slot of `by_addr` holding `addr`, or the empty one where it goes.
    /// The home slot is the address in 16-byte units, folded once: the texts
    /// of one domain are allocated together, so they get distinct slots,
    /// where a multiplicative hash put two hot ones in one slot in some
    /// processes and not in others.
    #[inline]
    fn addr_slot(&self, addr: usize) -> usize {
        let mask = self.by_addr.len() - 1;
        let mut slot = ((addr >> 4) ^ (addr >> 16)) & mask;
        while self.by_addr[slot].0 != addr && self.by_addr[slot].0 != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }
}

/// Group keys held as machine words, while every key column holds one
/// variant — `Int`, `Date`, `Bool` or `Str` — or NULL. Key `g` is the
/// `k + 1` words `keys[g * (k + 1)..]`: a mask with bit `j` set where column
/// `j` is NULL, then one word per column (0 for NULL; a string's code).
/// Within one variant, equal words are equal values, so grouping is what
/// [`Value`] keys give.
pub(crate) struct WordKeys {
    /// The variant each key column holds; `None` while it has held only NULL.
    kinds: Vec<Option<WordKind>>,
    keys: Vec<u64>,
    /// The key being looked up, laid out as a stored one.
    probe: Vec<u64>,
    /// The codes of the string columns, once one has held a string.
    strs: Option<StrCodes>,
}

impl WordKeys {
    /// Keys of `k` columns; `None` past the 64 columns a mask holds.
    pub(crate) fn new(k: usize) -> Option<Self> {
        (k <= 64).then(|| WordKeys {
            kinds: vec![None; k],
            keys: Vec::new(),
            probe: vec![0; k + 1],
            strs: None,
        })
    }

    /// [`KeyTable::find_or_insert`] for the key columns `pos` of `row`; an
    /// added key is stored under its id. `None`, with no key added, if one
    /// of them is a float or another variant than its column holds, or a
    /// string [`StrCodes`] refuses.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        table: &mut KeyTable,
        row: &[Value],
        pos: &[usize],
    ) -> Option<(usize, bool)> {
        let (mut hash, mut mask) = (0, 0);
        let words = self.probe.iter_mut().skip(1);
        for (j, ((p, kind), word)) in pos.iter().zip(&mut self.kinds).zip(words).enumerate() {
            let (is, w) = match &row[*p] {
                Value::Int(i) => (Some(WordKind::Int), *i as u64),
                Value::Date(d) => (Some(WordKind::Date), *d as u64),
                Value::Bool(b) => (Some(WordKind::Bool), u64::from(*b)),
                Value::Str(s) => {
                    let strs = self.strs.get_or_insert_with(StrCodes::new);
                    (Some(WordKind::Str), strs.code(s)?)
                }
                Value::Float(_) => return None,
                // A NULL fits any column.
                Value::Null => {
                    mask |= 1 << j;
                    (*kind, 0)
                }
            };
            if kind.is_some() && *kind != is {
                return None;
            }
            (*kind, *word) = (is, w);
            hash = mix_word(hash, w);
        }
        self.probe[0] = mask;
        let (n, keys, probe) = (self.probe.len(), &self.keys, &self.probe);
        let found = table.find_or_insert(hash, |g| {
            keys[g * n..][..n].iter().zip(probe).all(|(a, b)| a == b)
        });
        if found.1 {
            self.keys.extend_from_slice(probe);
        }
        Some(found)
    }

    /// Key `g`'s values, each in the variant its column holds; a string is
    /// the first-seen text of its code.
    pub(crate) fn decode(&self, g: usize) -> impl Iterator<Item = Value> + '_ {
        let key = &self.keys[g * self.probe.len()..][..self.probe.len()];
        let (mask, words) = (key[0], &key[1..]);
        let words = self.kinds.iter().zip(words).enumerate();
        words.map(move |(j, (kind, w))| match kind {
            _ if mask >> j & 1 == 1 => Value::Null,
            Some(WordKind::Int) => Value::Int(*w as i64),
            Some(WordKind::Date) => Value::Date(*w as i32),
            Some(WordKind::Bool) => Value::Bool(*w != 0),
            Some(WordKind::Str) => self
                .strs
                .as_ref()
                .map_or(Value::Null, |s| Value::Str(s.texts[*w as usize].clone())),
            None => Value::Null,
        })
    }
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing index from key hash to dense entry ids `0, 1, 2, …`
/// (insertion order). The caller keeps what an entry *is* — a group's
/// first row, a build-side chain — in vectors indexed by the id, and
/// supplies the key comparison for a hash hit.
pub(crate) struct KeyTable {
    /// Power-of-two slot array holding entry ids, at most half full.
    slots: Vec<u32>,
    /// Full hash of every entry, by id: filters comparisons, feeds regrowth.
    hashes: Vec<u64>,
}

impl KeyTable {
    pub(crate) fn with_capacity(entries: usize) -> Self {
        KeyTable {
            slots: vec![EMPTY; (entries * 2).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(entries),
        }
    }

    /// The id of the entry with this `hash` for which `eq(id)` holds
    /// (`Ok`), or the empty slot where it would go (`Err`).
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot] as usize;
            if id == EMPTY as usize {
                return Err(slot);
            }
            if self.hashes[id] == hash && eq(id) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// How many entries there are: the next id.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    #[inline]
    pub(crate) fn find(&self, hash: u64, eq: impl FnMut(usize) -> bool) -> Option<usize> {
        self.probe(hash, eq).ok()
    }

    /// Find the entry as [`KeyTable::find`] does, or add it under the next
    /// id; the flag says whether it was added.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        eq: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(hash, eq) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = self.hashes.len();
                self.slots[slot] = id as u32;
                self.hashes.push(hash);
                (id, true)
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        for id in 0..self.hashes.len() {
            if let Err(slot) = self.probe(self.hashes[id], |_| false) {
                self.slots[slot] = id as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Longest run of occupied slots a lookup may have to walk.
    fn longest_probe(t: &KeyTable) -> usize {
        let (mut run, mut longest) = (0, 0);
        for s in t.slots.iter().chain(t.slots.iter()) {
            run = if *s == EMPTY { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest
    }

    fn table_of(keys: impl Iterator<Item = Value>) -> KeyTable {
        let rows: Vec<Vec<Value>> = keys.map(|k| vec![k]).collect();
        let mut t = KeyTable::with_capacity(0);
        for (i, r) in rows.iter().enumerate() {
            let h = key_hash(r, &[0]);
            let (id, added) = t.find_or_insert(h, |id| key_eq(&rows[id], &[0], r, &[0]));
            assert!(added && id == i, "sequential keys are distinct");
        }
        for (i, r) in rows.iter().enumerate() {
            let found = t.find(key_hash(r, &[0]), |id| key_eq(&rows[id], &[0], r, &[0]));
            assert_eq!(found, Some(i));
        }
        t
    }

    /// Small ints are hashed as `f64` bits (low bits all zero) and dates as
    /// a bare `i32`: both must still spread over a power-of-two table.
    #[test]
    fn sequential_int_and_date_keys_do_not_pile_up() {
        let ints = table_of((0..10_000).map(Value::Int));
        assert!(longest_probe(&ints) <= 32, "{}", longest_probe(&ints));
        let dates = table_of((8_000..18_000).map(Value::Date));
        assert!(longest_probe(&dates) <= 32, "{}", longest_probe(&dates));
    }

    /// A table of one-column word keys, each new and found again.
    fn word_table_of(keys: impl Iterator<Item = Value>) -> KeyTable {
        let rows: Vec<[Value; 1]> = keys.map(|k| [k]).collect();
        let (mut t, mut words) = (KeyTable::with_capacity(0), WordKeys::new(1).unwrap());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0]), Some((i, true)));
        }
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0]), Some((i, false)));
        }
        t
    }

    /// One multiply-xorshift per word must spread what a power-of-two table
    /// indexes badly: sequential ints and dates, and multiples of 1 024,
    /// whose low ten bits are all zero.
    #[test]
    fn sequential_and_strided_word_keys_do_not_pile_up() {
        for (what, t) in [
            ("ints", word_table_of((0..10_000).map(Value::Int))),
            ("dates", word_table_of((8_000..18_000).map(Value::Date))),
            (
                "x1024",
                word_table_of((0..10_000).map(|i| Value::Int(i * 1024))),
            ),
        ] {
            assert!(longest_probe(&t) <= 32, "{what}: {}", longest_probe(&t));
        }
    }

    /// Keys decode to the variants they were stored from, NULL included; a
    /// float or a second variant in a column — a string in a bool column —
    /// is refused and adds nothing.
    #[test]
    fn word_keys_decode_what_they_stored_and_refuse_what_does_not_fit() {
        let rows = [
            [Value::Int(-1), Value::Null, Value::Date(-5)],
            [Value::Null, Value::Bool(true), Value::Date(3)],
            [Value::Int(i64::MIN), Value::Bool(false), Value::Null],
            [Value::Int(i64::MAX), Value::Null, Value::Null],
        ];
        let (mut t, mut words) = (KeyTable::with_capacity(0), WordKeys::new(3).unwrap());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0, 1, 2]), Some((i, true)));
            let decoded: Vec<Value> = words.decode(i).collect();
            assert_eq!(format!("{decoded:?}"), format!("{r:?}"), "variants too");
        }
        for misfit in [
            [Value::Float(1.0), Value::Null, Value::Null],
            [Value::Null, Value::str("x"), Value::Null],
            [Value::Date(0), Value::Null, Value::Null],
            [Value::Null, Value::Int(1), Value::Null],
        ] {
            assert_eq!(words.find_or_insert(&mut t, &misfit, &[0, 1, 2]), None);
        }
        assert_eq!(t.len(), rows.len());
        // Key columns read their own positions; NULL meets NULL.
        let r = [Value::Null, Value::Date(3), Value::Bool(true)];
        assert_eq!(
            words.find_or_insert(&mut t, &r, &[0, 2, 1]),
            Some((1, false))
        );
    }

    /// One text in two allocations is one key, decoded as the first-seen
    /// allocation; another text is another key.
    #[test]
    fn a_text_in_two_allocations_gets_one_code() {
        let (first, again) = (Value::str("MAIL"), Value::str("MAIL"));
        let (mut t, mut words) = (KeyTable::with_capacity(0), WordKeys::new(2).unwrap());
        let key = |s: &Value| [s.clone(), Value::Int(1)];
        assert_eq!(
            words.find_or_insert(&mut t, &key(&first), &[0, 1]),
            Some((0, true))
        );
        assert_eq!(
            words.find_or_insert(&mut t, &key(&again), &[0, 1]),
            Some((0, false))
        );
        let ship = Value::str("SHIP");
        assert_eq!(
            words.find_or_insert(&mut t, &key(&ship), &[0, 1]),
            Some((1, true))
        );
        let (Value::Str(a), [Value::Str(b), _]) =
            (&first, &words.decode(0).collect::<Vec<_>>()[..])
        else {
            panic!("a string key decodes to a string");
        };
        assert!(Text::ptr_eq(a, b), "decoded as the first-seen text");
        assert_eq!(words.strs.as_ref().unwrap().pins.len(), 1);
    }

    /// Enough distinct texts that both indexes grow, each seen as its
    /// first allocation and as a fresh one: every code resolves, and the
    /// fresh allocations are pinned, not coded anew.
    #[test]
    fn codes_resolve_as_the_indexes_grow() {
        let n = 768;
        let texts: Vec<[Value; 1]> = (0..n).map(|i| [Value::str(format!("t{i}"))]).collect();
        let (mut t, mut words) = (KeyTable::with_capacity(0), WordKeys::new(1).unwrap());
        for (i, r) in texts.iter().enumerate() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0]), Some((i, true)));
        }
        for (i, r) in texts.iter().enumerate().rev() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0]), Some((i, false)));
            let fresh = [Value::str(format!("t{i}"))];
            assert_eq!(words.find_or_insert(&mut t, &fresh, &[0]), Some((i, false)));
            assert_eq!(
                format!("{:?}", words.decode(i).collect::<Vec<_>>()),
                format!("{r:?}")
            );
        }
        let strs = words.strs.as_ref().unwrap();
        assert_eq!((strs.texts.len(), strs.pins.len()), (n, n));
    }

    /// Past `MAX_PINS` fresh allocations of coded texts, a string key is
    /// refused and adds nothing; the allocations seen first still resolve.
    #[test]
    fn full_pins_refuse_a_fresh_allocation() {
        let firsts: Vec<[Value; 1]> = (0..10).map(|i| [Value::str(format!("t{i}"))]).collect();
        let (mut t, mut words) = (KeyTable::with_capacity(0), WordKeys::new(1).unwrap());
        for r in &firsts {
            words.find_or_insert(&mut t, r, &[0]).unwrap();
        }
        // Held, so no allocation's address is reused for the next.
        let fresh: Vec<[Value; 1]> = (0..MAX_PINS)
            .map(|i| [Value::str(format!("t{}", i % 10))])
            .collect();
        for (i, r) in fresh.iter().enumerate() {
            assert_eq!(words.find_or_insert(&mut t, r, &[0]), Some((i % 10, false)));
        }
        assert_eq!(
            words.find_or_insert(&mut t, &[Value::str("t3")], &[0]),
            None
        );
        assert_eq!(
            words.find_or_insert(&mut t, &firsts[3], &[0]),
            Some((3, false))
        );
        assert_eq!(t.len(), 10);
    }

    /// Whole words read as little-endian `u64`s hash exactly as the byte
    /// fold they replaced.
    #[test]
    fn word_reads_hash_as_the_byte_fold() {
        struct Fold(KeyHasher);
        impl Hasher for Fold {
            fn write(&mut self, bytes: &[u8]) {
                for chunk in bytes.chunks(8) {
                    self.0
                        .mix(chunk.iter().rev().fold(0, |x, b| (x << 8) | u64::from(*b)));
                }
            }
            fn finish(&self) -> u64 {
                self.0.finish()
            }
        }
        let bytes: Vec<u8> = (0..17u8).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for len in 0..=17 {
            let (mut new, mut old) = (KeyHasher::default(), Fold(KeyHasher::default()));
            new.write(&bytes[..len]);
            old.write(&bytes[..len]);
            assert_eq!(new.finish(), old.finish(), "{len} bytes");
        }
    }

    /// `Customer#000000001` and its neighbours differ in the high bytes of
    /// one word and the low bytes of the next: all 1 500 must hash apart.
    #[test]
    fn strings_that_differ_in_two_words_hash_apart() {
        let key = |k| key_hash(&[Value::str(format!("Customer#{k:09}"))], &[0]);
        let hashes: std::collections::HashSet<u64> = (0..1500).map(key).collect();
        assert_eq!(hashes.len(), 1500);
    }

    #[test]
    fn numeric_equal_keys_meet_and_null_is_a_key() {
        let (a, b) = ([Value::Int(3)], [Value::Float(3.0)]);
        assert_eq!(key_hash(&a, &[0]), key_hash(&b, &[0]));
        assert!(key_eq(&a, &[0], &b, &[0]));
        assert!(!key_eq(&a, &[0], &[Value::Float(3.5)], &[0]));
        assert!(key_eq(&[Value::Null], &[0], &[Value::Null], &[0]));
        // Multi-column keys read their own positions on each side.
        let l = [Value::str("x"), Value::Date(9)];
        let r = [Value::Date(9), Value::Int(0), Value::str("x")];
        assert_eq!(key_hash(&l, &[0, 1]), key_hash(&r, &[2, 0]));
        assert!(key_eq(&l, &[0, 1], &r, &[2, 0]));
    }
}
