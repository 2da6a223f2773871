//! The eight TPC-H table schemas.

use cse_storage::{DataType, Schema};

/// Identifies one of the eight TPC-H tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchTable {
    Region,
    Nation,
    Supplier,
    Customer,
    Part,
    PartSupp,
    Orders,
    Lineitem,
}

impl TpchTable {
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Customer,
        TpchTable::Part,
        TpchTable::PartSupp,
        TpchTable::Orders,
        TpchTable::Lineitem,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            TpchTable::Region => "region",
            TpchTable::Nation => "nation",
            TpchTable::Supplier => "supplier",
            TpchTable::Customer => "customer",
            TpchTable::Part => "part",
            TpchTable::PartSupp => "partsupp",
            TpchTable::Orders => "orders",
            TpchTable::Lineitem => "lineitem",
        }
    }

    /// Base cardinality at scale factor 1 (lineitem is approximate: dbgen
    /// produces ~6M rows as 1-7 lines per order).
    pub(crate) fn base_rows(&self) -> u64 {
        match self {
            TpchTable::Region => 5,
            TpchTable::Nation => 25,
            TpchTable::Supplier => 10_000,
            TpchTable::Customer => 150_000,
            TpchTable::Part => 200_000,
            TpchTable::PartSupp => 800_000,
            TpchTable::Orders => 1_500_000,
            TpchTable::Lineitem => 6_000_000,
        }
    }

    pub fn schema(&self) -> Schema {
        use DataType::*;
        match self {
            TpchTable::Region => {
                Schema::from_pairs(&[("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)])
            }
            TpchTable::Nation => Schema::from_pairs(&[
                ("n_nationkey", Int),
                ("n_name", Str),
                ("n_regionkey", Int),
                ("n_comment", Str),
            ]),
            TpchTable::Supplier => Schema::from_pairs(&[
                ("s_suppkey", Int),
                ("s_name", Str),
                ("s_address", Str),
                ("s_nationkey", Int),
                ("s_phone", Str),
                ("s_acctbal", Float),
                ("s_comment", Str),
            ]),
            TpchTable::Customer => Schema::from_pairs(&[
                ("c_custkey", Int),
                ("c_name", Str),
                ("c_address", Str),
                ("c_nationkey", Int),
                ("c_phone", Str),
                ("c_acctbal", Float),
                ("c_mktsegment", Str),
                ("c_comment", Str),
            ]),
            TpchTable::Part => Schema::from_pairs(&[
                ("p_partkey", Int),
                ("p_name", Str),
                ("p_mfgr", Str),
                ("p_brand", Str),
                ("p_type", Str),
                ("p_size", Int),
                ("p_container", Str),
                ("p_retailprice", Float),
                ("p_comment", Str),
            ]),
            TpchTable::PartSupp => Schema::from_pairs(&[
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", Float),
                ("ps_comment", Str),
            ]),
            TpchTable::Orders => Schema::from_pairs(&[
                ("o_orderkey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Str),
                ("o_totalprice", Float),
                ("o_orderdate", Date),
                ("o_orderpriority", Str),
                ("o_clerk", Str),
                ("o_shippriority", Int),
                ("o_comment", Str),
            ]),
            TpchTable::Lineitem => Schema::from_pairs(&[
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", Float),
                ("l_extendedprice", Float),
                ("l_discount", Float),
                ("l_tax", Float),
                ("l_returnflag", Str),
                ("l_linestatus", Str),
                ("l_shipdate", Date),
                ("l_commitdate", Date),
                ("l_receiptdate", Date),
                ("l_shipinstruct", Str),
                ("l_shipmode", Str),
                ("l_comment", Str),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_expected_arity() {
        assert_eq!(TpchTable::Region.schema().len(), 3);
        assert_eq!(TpchTable::Nation.schema().len(), 4);
        assert_eq!(TpchTable::Customer.schema().len(), 8);
        assert_eq!(TpchTable::Orders.schema().len(), 9);
        assert_eq!(TpchTable::Lineitem.schema().len(), 16);
        assert_eq!(TpchTable::Part.schema().len(), 9);
        assert_eq!(TpchTable::PartSupp.schema().len(), 5);
        assert_eq!(TpchTable::Supplier.schema().len(), 7);
    }

    #[test]
    fn names_are_lowercase() {
        for t in TpchTable::ALL {
            assert_eq!(t.name(), t.name().to_ascii_lowercase());
        }
    }

    #[test]
    fn key_columns_resolve() {
        assert_eq!(TpchTable::Customer.schema().index_of("c_custkey"), Some(0));
        assert_eq!(TpchTable::Orders.schema().index_of("o_orderdate"), Some(4));
        assert_eq!(
            TpchTable::Lineitem.schema().index_of("l_extendedprice"),
            Some(5)
        );
    }
}
