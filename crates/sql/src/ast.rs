//! Abstract syntax tree for the supported SQL subset.
//!
//! Every expression node carries the byte [`Span`] of the source text it
//! was parsed from, so downstream analyzers (the `cse-lint` frontend
//! linter in particular) can point diagnostics at exact offsets. Spans
//! are *metadata*: equality of AST nodes deliberately ignores them, so
//! a statement parsed from re-rendered SQL compares equal to the
//! original.

use crate::span::Span;

/// Binary operators in the AST (comparisons and arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    Sum,
    Count,
    Min,
    Max,
    Avg,
}

/// Expression shapes (the payload of [`Expr`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `qualifier.column` or bare `column`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>, /*negated=*/ bool),
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
        negated: bool,
    },
    /// `SUM(x)`, `COUNT(*)`, ...
    Agg {
        func: AggName,
        arg: Option<Box<Expr>>, // None = COUNT(*)
    },
    /// Uncorrelated scalar subquery.
    Subquery(Box<SelectStmt>),
}

/// An expression together with the source span it was parsed from.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Does this expression, or any expression below it in the same query
    /// block, satisfy `hit`? (A subquery is a node; its body is not
    /// entered.)
    pub fn any(&self, hit: &dyn Fn(&ExprKind) -> bool) -> bool {
        hit(&self.kind)
            || match &self.kind {
                ExprKind::Binary(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                    a.any(hit) || b.any(hit)
                }
                ExprKind::Not(a) | ExprKind::IsNull(a, _) => a.any(hit),
                ExprKind::Between { expr, lo, hi, .. } => {
                    expr.any(hit) || lo.any(hit) || hi.any(hit)
                }
                ExprKind::Agg { arg, .. } => arg.as_deref().is_some_and(|a| a.any(hit)),
                _ => false,
            }
    }
}

// Equality ignores spans: the same expression parsed from different
// offsets (or from re-rendered SQL) compares equal.
impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// expression with optional alias
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM.
#[derive(Debug, Clone)]
pub struct FromItem {
    pub table: String,
    pub alias: Option<String>,
    /// Span of `table [AS alias]` in the source.
    pub span: Span,
}

impl PartialEq for FromItem {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.alias == other.alias
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, Default)]
pub struct SelectStmt {
    pub select: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<(Expr, /*desc=*/ bool)>,
    /// Span of the whole statement in the source.
    pub span: Span,
}

impl PartialEq for SelectStmt {
    fn eq(&self, other: &Self) -> bool {
        self.select == other.select
            && self.from == other.from
            && self.where_clause == other.where_clause
            && self.group_by == other.group_by
            && self.having == other.having
            && self.order_by == other.order_by
    }
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `CREATE MATERIALIZED VIEW name AS SELECT ...`
    CreateMaterializedView {
        name: String,
        query: SelectStmt,
    },
}
