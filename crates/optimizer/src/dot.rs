//! Graphviz (DOT) export of physical plans: one cluster per statement,
//! one cluster per spool definition, and dashed edges from every
//! `CseRead` to the spool it consumes — which makes the sharing structure
//! of a covering-subexpression plan visible at a glance.

use crate::physical::{FullPlan, PhysicalPlan};
use std::fmt::Write as _;

/// Render a full plan as a DOT digraph.
pub fn to_dot(plan: &FullPlan) -> String {
    let mut out = String::from("digraph plan {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n");
    let mut next_id = 0usize;
    let mut spool_anchor: std::collections::BTreeMap<crate::physical::CseId, usize> =
        std::collections::BTreeMap::new();
    let mut pending_edges: Vec<(usize, crate::physical::CseId)> = Vec::new();

    // Spool definition clusters first so reads can point at them.
    for (id, def) in &plan.spools {
        let _ = writeln!(out, "  subgraph cluster_spool_{} {{", id.0);
        let _ = writeln!(out, "    label=\"spool {id} (≈{:.0} rows)\";", def.est_rows);
        let _ = writeln!(out, "    style=filled; color=lightgrey;");
        let anchor = emit(&def.plan, &mut out, &mut next_id, &mut pending_edges);
        spool_anchor.insert(*id, anchor);
        let _ = writeln!(out, "  }}");
    }

    match &plan.root {
        PhysicalPlan::Batch { children } => {
            for (i, c) in children.iter().enumerate() {
                let _ = writeln!(out, "  subgraph cluster_stmt_{i} {{");
                let _ = writeln!(out, "    label=\"statement {}\";", i + 1);
                emit(c, &mut out, &mut next_id, &mut pending_edges);
                let _ = writeln!(out, "  }}");
            }
        }
        other => {
            emit(other, &mut out, &mut next_id, &mut pending_edges);
        }
    }
    for (node, cse) in pending_edges {
        if let Some(anchor) = spool_anchor.get(&cse) {
            let _ = writeln!(
                out,
                "  n{anchor} -> n{node} [style=dashed, label=\"spool {cse}\"];"
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Emit one subtree; returns this node's id. Edges point child -> parent
/// (dataflow direction, rankdir=BT draws leaves at the bottom).
fn emit(
    plan: &PhysicalPlan,
    out: &mut String,
    next_id: &mut usize,
    pending: &mut Vec<(usize, crate::physical::CseId)>,
) -> usize {
    let id = *next_id;
    *next_id += 1;
    let label = match plan {
        PhysicalPlan::TableScan { rel, .. } => format!("TableScan r{}", rel.0),
        PhysicalPlan::IndexRangeScan { rel, col, .. } => {
            format!("IndexRangeScan r{}\\non {col}", rel.0)
        }
        PhysicalPlan::Filter { pred, .. } => format!("Filter\\n{}", escape(&pred.to_string())),
        PhysicalPlan::HashJoin { keys, .. } => {
            let ks: Vec<String> = keys.iter().map(|(a, b)| format!("{a}={b}")).collect();
            format!("HashJoin\\n{}", escape(&ks.join(", ")))
        }
        PhysicalPlan::IndexNlJoin { rel, key, .. } => {
            format!("IndexNlJoin r{}\\n{}={}", rel.0, key.0, key.1)
        }
        PhysicalPlan::NlJoin { pred, .. } => format!("NlJoin\\n{}", escape(&pred.to_string())),
        PhysicalPlan::HashAggregate { keys, aggs, .. } => {
            format!("HashAggregate\\nkeys={} aggs={}", keys.len(), aggs.len())
        }
        PhysicalPlan::Project { exprs, .. } => {
            let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
            format!("Project\\n{}", escape(&names.join(", ")))
        }
        PhysicalPlan::Sort { .. } => "Sort".to_string(),
        PhysicalPlan::CseRead {
            cse, filter, reagg, ..
        } => {
            pending.push((id, *cse));
            let mut l = format!("CseRead {cse}");
            if let Some(f) = filter {
                let _ = write!(l, "\\nσ {}", escape(&f.to_string()));
            }
            if reagg.is_some() {
                l.push_str("\\n+ re-aggregate");
            }
            l
        }
        PhysicalPlan::Batch { .. } => "Batch".to_string(),
    };
    let _ = writeln!(out, "    n{id} [label=\"{label}\"];");
    let children: Vec<usize> = plan
        .children()
        .map(|c| emit(c, out, next_id, pending))
        .collect();
    for child in children {
        let _ = writeln!(out, "    n{child} -> n{id};");
    }
    id
}

fn escape(s: &str) -> String {
    let mut e = s.replace('"', "\\\"");
    if e.len() > 60 {
        e.truncate(57);
        e.push_str("...");
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{CseId, SpoolDef};
    use cse_algebra::{ColRef, RelId, Scalar};
    use std::collections::BTreeMap;

    #[test]
    fn dot_contains_spool_cluster_and_dashed_edges() {
        let scan = PhysicalPlan::TableScan {
            rel: RelId(0),
            layout: vec![ColRef::new(RelId(0), 0)],
        };
        let read = PhysicalPlan::CseRead {
            cse: CseId(0),
            filter: Some(Scalar::true_()),
            reagg: None,
            output_map: vec![],
            layout: vec![],
        };
        let plan = FullPlan {
            root: PhysicalPlan::Batch {
                children: vec![read.clone(), read],
            },
            spools: BTreeMap::from([(
                CseId(0),
                SpoolDef {
                    plan: scan,
                    layout: vec![ColRef::new(RelId(0), 0)],
                    est_rows: 10.0,
                },
            )]),
            cost: 1.0,
        };
        let dot = to_dot(&plan);
        assert!(dot.contains("cluster_spool_0"));
        assert!(dot.contains("style=dashed"));
        assert_eq!(dot.matches("CseRead E0").count(), 2);
        assert!(dot.starts_with("digraph plan {"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn labels_are_escaped_and_truncated() {
        let long = "x".repeat(100);
        assert!(escape(&long).len() <= 60);
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
