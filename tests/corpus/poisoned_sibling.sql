-- ROADMAP 1a, the first reproducer: the Table 1 batch Q1;Q2 with Q2's
-- cut-off written as a string that is not a date. Q2's comparison is
-- DATE vs STRING — NULL for every row, so Q2 is empty — and the covering
-- predicate the two statements share must not adopt that bound: Q1 returns
-- what it returns alone (tests/sql_correctness.rs compares it with
-- no_cse()). qlint flags the literal; the batch still executes. One
-- request: no blank line between the statements.

select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01'
  and c_nationkey > 0 and c_nationkey < 20
group by c_nationkey, c_mktsegment;
select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-13-26'
  and c_nationkey > 5 and c_nationkey < 25
group by c_nationkey;
