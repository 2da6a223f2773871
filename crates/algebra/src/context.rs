//! The plan context: table-instance registry shared by planner, memo,
//! optimizer and executor for one statement or batch.

use crate::ids::{BlockId, ColRef, RelId};
use cse_storage::{DataType, SchemaRef};
use std::sync::Arc;

/// What kind of relation a [`RelId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    /// A table from the catalog: a base table, materialized-view contents,
    /// or a delta work table driving view maintenance (§6.4), which gets
    /// its own signature from its own table name.
    Base,
    /// Synthetic outputs of an aggregate operator: column `i` of the rel is
    /// the i-th aggregation expression's result.
    AggOutput,
}

/// Metadata for one table instance.
#[derive(Debug, Clone)]
pub struct RelInfo {
    pub kind: RelKind,
    /// Table name in the catalog (for `Base`), or a synthetic
    /// name for aggregate outputs.
    pub name: String,
    /// The alias used in the query text, for diagnostics.
    pub alias: String,
    /// Schema of the instance's columns. For `AggOutput` rels this is the
    /// synthesized schema of the aggregate results.
    pub schema: SchemaRef,
    /// The query block this instance belongs to.
    pub block: BlockId,
}

/// Allocates and resolves [`RelId`]s for one optimization. Every query of a
/// batch shares one context so that covering subexpressions can span
/// queries.
#[derive(Debug, Default, Clone)]
pub struct PlanContext {
    rels: Vec<RelInfo>,
    next_block: u32,
}

impl PlanContext {
    pub fn new() -> Self {
        PlanContext::default()
    }

    /// Allocate a fresh query-block id.
    pub fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.next_block);
        self.next_block += 1;
        b
    }

    /// Register a base-table instance.
    pub fn add_base_rel(
        &mut self,
        name: impl Into<String>,
        alias: impl Into<String>,
        schema: SchemaRef,
        block: BlockId,
    ) -> RelId {
        self.push(RelInfo {
            kind: RelKind::Base,
            name: name.into(),
            alias: alias.into(),
            schema,
            block,
        })
    }

    /// Register the synthetic output rel of an aggregate operator. The
    /// schema names are `agg0`, `agg1`, ... with the given types.
    pub fn add_agg_output(&mut self, types: &[DataType], block: BlockId) -> RelId {
        let schema = cse_storage::Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| cse_storage::ColumnDef::new(format!("agg{i}"), *t))
                .collect(),
        );
        self.push(RelInfo {
            kind: RelKind::AggOutput,
            name: format!("γ{}", self.rels.len()),
            alias: String::new(),
            schema: Arc::new(schema),
            block,
        })
    }

    fn push(&mut self, info: RelInfo) -> RelId {
        assert!(
            (self.rels.len() as u32) < crate::ids::MAX_RELS,
            "too many table instances"
        );
        let id = RelId(self.rels.len() as u32);
        self.rels.push(info);
        id
    }

    pub fn rel(&self, id: RelId) -> &RelInfo {
        &self.rels[id.0 as usize]
    }

    pub fn rels(&self) -> impl Iterator<Item = (RelId, &RelInfo)> {
        self.rels
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), r))
    }

    /// Human-readable name of a column, e.g. `customer.c_custkey`.
    pub fn col_name(&self, c: ColRef) -> String {
        let info = self.rel(c.rel);
        match info.schema.columns().get(c.col as usize) {
            Some(cd) => format!("{}.{}", info.alias_or_name(), cd.name),
            None => format!("{}.<{}>", info.alias_or_name(), c.col),
        }
    }

    /// Data type of a column.
    pub fn col_type(&self, c: ColRef) -> DataType {
        self.rel(c.rel).schema.column(c.col as usize).data_type
    }

    /// Infer the result type of a scalar expression.
    pub fn scalar_type(&self, s: &crate::scalar::Scalar) -> DataType {
        use crate::scalar::Scalar;
        match s {
            Scalar::Col(c) => self.col_type(*c),
            Scalar::Lit(v) => v.data_type().unwrap_or(DataType::Int),
            Scalar::Cmp(..)
            | Scalar::And(_)
            | Scalar::Or(_)
            | Scalar::Not(_)
            | Scalar::IsNull(_) => DataType::Bool,
            Scalar::Arith(_, a, b) => {
                let (ta, tb) = (self.scalar_type(a), self.scalar_type(b));
                if ta == DataType::Float || tb == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
        }
    }

    /// Result type of an aggregate expression.
    pub fn agg_type(&self, a: &crate::agg::AggExpr) -> DataType {
        use crate::agg::AggFunc;
        match a.func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => a
                .arg
                .as_ref()
                .map(|arg| self.scalar_type(arg))
                .unwrap_or(DataType::Int),
        }
    }

    /// Resolve `column_name` within the instance `rel`.
    pub fn resolve_col(&self, rel: RelId, column: &str) -> Option<ColRef> {
        self.rel(rel)
            .schema
            .index_of(column)
            .map(|i| ColRef::new(rel, i as u16))
    }
}

impl RelInfo {
    pub(crate) fn alias_or_name(&self) -> &str {
        if self.alias.is_empty() {
            &self.name
        } else {
            &self.alias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::Schema;

    fn schema() -> SchemaRef {
        Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
        ]))
    }

    #[test]
    fn allocate_and_resolve() {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let r = ctx.add_base_rel("t", "t1", schema(), b);
        assert_eq!(ctx.rel(r).name, "t");
        assert_eq!(ctx.resolve_col(r, "B"), Some(ColRef::new(r, 1)));
        assert_eq!(ctx.resolve_col(r, "zz"), None);
        assert_eq!(ctx.col_name(ColRef::new(r, 0)), "t1.a");
        assert_eq!(ctx.col_type(ColRef::new(r, 1)), DataType::Str);
    }

    #[test]
    fn agg_output_rel() {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let r = ctx.add_agg_output(&[DataType::Float, DataType::Int], b);
        assert_eq!(ctx.rel(r).kind, RelKind::AggOutput);
        assert_eq!(ctx.rel(r).schema.len(), 2);
        assert_eq!(ctx.col_type(ColRef::new(r, 0)), DataType::Float);
    }

    #[test]
    fn blocks_are_distinct() {
        let mut ctx = PlanContext::new();
        assert_ne!(ctx.new_block(), ctx.new_block());
    }
}
