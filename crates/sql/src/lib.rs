//! # cse-sql
//!
//! SQL front end for the supported subset: lexer, recursive-descent
//! parser, and lowering into logical plans over globally-identified
//! columns. Batches share one plan context so similar subexpressions in
//! different statements can be detected and covered.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod span;

pub use ast::{AggName, BinOp, Expr, ExprKind, FromItem, SelectItem, SelectStmt, Statement};
pub use error::SqlError;
pub use lexer::{LexError, Token};
pub use lower::{lower_batch, lower_batch_sql, LowerTrace, SqlLowerer};
pub use parser::{
    parse_batch, parse_batch_recovering, parse_one, ParseError, ParsedBatch, ParsedStatement,
};
pub use span::Span;
