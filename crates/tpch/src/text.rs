//! Text pools for string-valued columns.
//!
//! Low-cardinality columns draw from the exact dbgen domains (segments,
//! priorities, ship modes, part types, ...), each value allocated once.
//! Free-text comments draw from a pregenerated pool of phrases.
//! Either way a stored string is a [`Text`] clone, not an allocation.

use crate::rng::SplitMix64;
use cse_storage::Text;

pub const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

pub const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub const SHIP_MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const SHIP_INSTRUCT: &[&str] = &[
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

pub const RETURN_FLAGS: &[&str] = &["R", "A", "N"];
pub const LINE_STATUS: &[&str] = &["O", "F"];
pub const ORDER_STATUS: &[&str] = &["O", "F", "P"];

pub const TYPE_SYLL_1: &[&str] = &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
pub const TYPE_SYLL_2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
pub const TYPE_SYLL_3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

pub const CONTAINERS_1: &[&str] = &["SM", "LG", "MED", "JUMBO", "WRAP"];
pub const CONTAINERS_2: &[&str] = &["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

pub const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const WORDS: &[&str] = &[
    "furious",
    "silent",
    "careful",
    "pending",
    "express",
    "regular",
    "final",
    "special",
    "ironic",
    "bold",
    "quick",
    "even",
    "blithe",
    "daring",
    "dogged",
    "unusual",
    "packages",
    "deposits",
    "accounts",
    "requests",
    "instructions",
    "theodolites",
    "pinto",
    "beans",
    "foxes",
    "ideas",
    "platelets",
    "asymptotes",
    "courts",
    "dolphins",
    "excuses",
];

/// The values of one enumerated domain, each allocated once.
#[derive(Debug, Clone)]
pub(crate) struct Domain {
    values: Vec<Text>,
    /// The choices of each draw a pick makes, first draw first; `values`
    /// lists the domain in the order of the draws' mixed-radix number.
    draws: Vec<usize>,
}

impl Domain {
    fn new(draws: &[usize], values: impl Iterator<Item = String>) -> Self {
        let values: Vec<Text> = values.map(Text::from).collect();
        debug_assert_eq!(values.len(), draws.iter().product::<usize>());
        Domain {
            values,
            draws: draws.to_vec(),
        }
    }

    fn list(items: &[&str]) -> Self {
        Domain::new(&[items.len()], items.iter().map(|s| s.to_string()))
    }

    /// A uniform value, from one draw of `rng` per factor of the domain:
    /// the draws that picked the value's parts before they were joined.
    pub(crate) fn pick(&self, rng: &mut SplitMix64) -> Text {
        let i = self.draws.iter().fold(0, |i, n| i * n + rng.index(*n));
        self.values[i].clone()
    }
}

/// Every enumerated string domain the generator draws from.
#[derive(Debug, Clone)]
pub(crate) struct Domains {
    pub(crate) segments: Domain,
    pub(crate) priorities: Domain,
    pub(crate) order_status: Domain,
    pub(crate) clerks: Domain,
    pub(crate) return_flags: Domain,
    pub(crate) line_status: Domain,
    pub(crate) ship_instruct: Domain,
    pub(crate) ship_modes: Domain,
    pub(crate) mfgrs: Domain,
    pub(crate) brands: Domain,
    pub(crate) types: Domain,
    pub(crate) containers: Domain,
}

impl Domains {
    fn new() -> Self {
        let digit = || 1..=5;
        Domains {
            segments: Domain::list(SEGMENTS),
            priorities: Domain::list(PRIORITIES),
            order_status: Domain::list(ORDER_STATUS),
            clerks: Domain::new(&[1000], (1..=1000).map(|k| format!("Clerk#{k:09}"))),
            return_flags: Domain::list(RETURN_FLAGS),
            line_status: Domain::list(LINE_STATUS),
            ship_instruct: Domain::list(SHIP_INSTRUCT),
            ship_modes: Domain::list(SHIP_MODES),
            mfgrs: Domain::new(&[5], digit().map(|m| format!("Manufacturer#{m}"))),
            brands: Domain::new(
                &[5, 5],
                digit().flat_map(|a| digit().map(move |b| format!("Brand#{a}{b}"))),
            ),
            types: Domain::new(
                &[TYPE_SYLL_1.len(), TYPE_SYLL_2.len(), TYPE_SYLL_3.len()],
                TYPE_SYLL_1.iter().flat_map(|a| {
                    TYPE_SYLL_2
                        .iter()
                        .flat_map(move |b| TYPE_SYLL_3.iter().map(move |c| format!("{a} {b} {c}")))
                }),
            ),
            containers: Domain::new(
                &[CONTAINERS_1.len(), CONTAINERS_2.len()],
                CONTAINERS_1
                    .iter()
                    .flat_map(|a| CONTAINERS_2.iter().map(move |b| format!("{a} {b}"))),
            ),
        }
    }
}

/// The shared strings of a generation run: a pool of pregenerated comment
/// strings, and beside it every enumerated domain.
#[derive(Debug, Clone)]
pub struct CommentPool {
    pool: Vec<Text>,
    domains: Domains,
}

impl CommentPool {
    /// Build a pool of `size` comments with lengths ~20-60 characters.
    pub fn new(seed: u64, size: usize) -> Self {
        let mut rng = SplitMix64::derive(seed, "comments");
        let mut pool = Vec::with_capacity(size);
        for _ in 0..size {
            let words = rng.int_range(3, 8) as usize;
            let mut s = String::with_capacity(48);
            for w in 0..words {
                if w > 0 {
                    s.push(' ');
                }
                s.push_str(rng.pick::<&str>(WORDS));
            }
            pool.push(Text::from(s));
        }
        CommentPool {
            pool,
            domains: Domains::new(),
        }
    }

    pub(crate) fn domains(&self) -> &Domains {
        &self.domains
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> Text {
        self.pool[(rng.next_u64() % self.pool.len() as u64) as usize].clone()
    }
}

/// dbgen-style synthetic phone number for a nation key.
pub fn phone(rng: &mut SplitMix64, nationkey: i64) -> String {
    format!(
        "{}-{}-{}-{}",
        10 + nationkey,
        rng.int_range(100, 999),
        rng.int_range(100, 999),
        rng.int_range(1000, 9999)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nations_match_tpch() {
        assert_eq!(NATIONS.len(), 25);
        assert_eq!(REGIONS.len(), 5);
        // All region keys in range.
        assert!(NATIONS.iter().all(|(_, r)| (0..5).contains(r)));
    }

    #[test]
    fn comment_pool_is_deterministic() {
        let a = CommentPool::new(1, 16);
        let b = CommentPool::new(1, 16);
        let mut ra = SplitMix64::new(5);
        let mut rb = SplitMix64::new(5);
        for _ in 0..32 {
            assert_eq!(a.pick(&mut ra), b.pick(&mut rb));
        }
    }

    /// A domain pick makes the draws, and yields the text, that picking
    /// its parts one by one did.
    #[test]
    fn domain_picks_draw_like_their_parts() {
        let d = Domains::new();
        let (mut a, mut b) = (SplitMix64::new(9), SplitMix64::new(9));
        for _ in 0..200 {
            let parts = format!(
                "{} {} {}",
                a.pick(TYPE_SYLL_1),
                a.pick(TYPE_SYLL_2),
                a.pick(TYPE_SYLL_3)
            );
            assert_eq!(*d.types.pick(&mut b), parts);
            let brand = format!("Brand#{}{}", a.int_range(1, 5), a.int_range(1, 5));
            assert_eq!(*d.brands.pick(&mut b), brand);
            let clerk = format!("Clerk#{:09}", a.int_range(1, 1000));
            assert_eq!(*d.clerks.pick(&mut b), clerk);
            assert_eq!(*d.ship_modes.pick(&mut b), **a.pick(SHIP_MODES));
        }
    }

    #[test]
    fn phone_shape() {
        let mut r = SplitMix64::new(3);
        let p = phone(&mut r, 7);
        assert!(p.starts_with("17-"));
        assert_eq!(p.split('-').count(), 4);
    }
}
