//! Graphviz (DOT) export of Field Layout Graphs.
//!
//! The paper's tool is *semi-automatic*: a kernel engineer reads the
//! graph before trusting a layout. A rendered FLG makes the trade-off
//! visible at a glance — green edges pull fields together (CycleGain),
//! red edges push them apart (CycleLoss), node size tracks hotness, and
//! cluster membership is drawn as subgraph boxes.

use crate::cluster::Clustering;
use crate::flg::Flg;
use slopt_ir::types::{FieldIdx, RecordType};
use std::fmt::Write as _;

/// Options for DOT rendering.
#[derive(Copy, Clone, Debug)]
pub struct DotOptions {
    /// Omit edges with `|w| <` this value (absolute weight), keeping the
    /// graph legible for 100+-field records.
    pub min_edge_weight: f64,
    /// Omit fields that are cold (hotness 0) *and* have no kept edges.
    pub hide_isolated: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            min_edge_weight: 0.0,
            hide_isolated: true,
        }
    }
}

/// Renders the FLG (and optionally its clustering) as a DOT digraph.
pub fn to_dot(
    record: &RecordType,
    flg: &Flg,
    clustering: Option<&Clustering>,
    opts: DotOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph flg_{} {{", record.name());
    let _ = writeln!(out, "  graph [overlap=false, splines=true];");
    let _ = writeln!(
        out,
        "  node [shape=ellipse, style=filled, fillcolor=white];"
    );

    let kept_edges: Vec<(FieldIdx, FieldIdx, f64)> = flg
        .edges()
        .into_iter()
        .filter(|e| e.2.abs() >= opts.min_edge_weight)
        .collect();
    let mut visible = vec![false; record.field_count()];
    for &(a, b, _) in &kept_edges {
        visible[a.index()] = true;
        visible[b.index()] = true;
    }
    for f in record.field_indices() {
        if flg.hotness(f) > 0 {
            visible[f.index()] = true;
        }
    }

    let max_hot = record
        .field_indices()
        .map(|f| flg.hotness(f))
        .max()
        .unwrap_or(0)
        .max(1);

    let node = |out: &mut String, f: FieldIdx| {
        let h = flg.hotness(f);
        // Hotter fields get a warmer fill.
        let heat = (h as f64 / max_hot as f64 * 9.0).round() as u32;
        let _ = writeln!(
            out,
            "    f{} [label=\"{}\\nh={}\", fillcolor=\"/ylorrd9/{}\"];",
            f.0,
            record.field(f).name(),
            h,
            heat.clamp(1, 9)
        );
    };

    match clustering {
        Some(c) => {
            for (ci, cluster) in c.clusters().iter().enumerate() {
                let members: Vec<FieldIdx> = cluster
                    .iter()
                    .copied()
                    .filter(|f| !opts.hide_isolated || visible[f.index()])
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "  subgraph cluster_{ci} {{");
                let _ = writeln!(out, "    label=\"line cluster {ci}\";");
                for f in members {
                    node(&mut out, f);
                }
                let _ = writeln!(out, "  }}");
            }
        }
        None => {
            for f in record.field_indices() {
                if !opts.hide_isolated || visible[f.index()] {
                    node(&mut out, f);
                }
            }
        }
    }

    for (a, b, w) in kept_edges {
        if opts.hide_isolated && (!visible[a.index()] || !visible[b.index()]) {
            continue;
        }
        let (color, style) = if w >= 0.0 {
            ("forestgreen", "solid")
        } else {
            ("crimson", "bold")
        };
        let _ = writeln!(
            out,
            "  f{} -- f{} [label=\"{:+.0}\", color={color}, style={style}];",
            a.0, b.0, w
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use slopt_ir::types::{FieldType, PrimType, RecordId};
    use slopt_obs::Obs;

    fn setup() -> (RecordType, Flg) {
        let rec = RecordType::new(
            "S",
            vec![
                ("hot", FieldType::Prim(PrimType::U64)),
                ("warm", FieldType::Prim(PrimType::U64)),
                ("counter", FieldType::Prim(PrimType::U64)),
                ("dead", FieldType::Prim(PrimType::U64)),
            ],
        );
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 50, 40, 0],
            vec![
                (FieldIdx(0), FieldIdx(1), 30.0),
                (FieldIdx(0), FieldIdx(2), -80.0),
            ],
        );
        (rec, flg)
    }

    #[test]
    fn dot_contains_nodes_edges_and_colors() {
        let (rec, flg) = setup();
        let dot = to_dot(&rec, &flg, None, DotOptions::default());
        assert!(dot.starts_with("graph flg_S {"));
        assert!(dot.contains("hot"));
        assert!(dot.contains("counter"));
        assert!(dot.contains("forestgreen"), "positive edge must be green");
        assert!(dot.contains("crimson"), "negative edge must be red");
        assert!(dot.contains("+30") && dot.contains("-80"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn isolated_cold_fields_are_hidden_by_default() {
        let (rec, flg) = setup();
        let dot = to_dot(&rec, &flg, None, DotOptions::default());
        assert!(!dot.contains("dead"));
        let dot_all = to_dot(
            &rec,
            &flg,
            None,
            DotOptions {
                hide_isolated: false,
                ..Default::default()
            },
        );
        assert!(dot_all.contains("dead"));
    }

    #[test]
    fn clustering_renders_subgraph_boxes() {
        let (rec, flg) = setup();
        let c = cluster(&flg, &rec, 128, &Obs::disabled());
        let dot = to_dot(&rec, &flg, Some(&c), DotOptions::default());
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("line cluster"));
    }

    #[test]
    fn weight_filter_drops_small_edges() {
        let (rec, flg) = setup();
        let dot = to_dot(
            &rec,
            &flg,
            None,
            DotOptions {
                min_edge_weight: 50.0,
                ..Default::default()
            },
        );
        assert!(!dot.contains("+30"));
        assert!(dot.contains("-80"));
    }
}
