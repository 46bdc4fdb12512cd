//! The advisory report — what the paper's semi-automatic tool prints.
//!
//! Along with the suggested layout the tool outputs "the key factors
//! contributing to the layout decisions": intra- and inter-cluster edge
//! weights, and the edges with large positive or negative weight. A kernel
//! engineer uses this to accept the layout or hand-edit the original one.

use crate::cluster::Clustering;
use crate::flg::Flg;
use slopt_ir::types::{FieldIdx, RecordType};
use std::fmt;

/// A labelled edge of the report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportEdge {
    /// First field.
    pub f1: FieldIdx,
    /// Second field.
    pub f2: FieldIdx,
    /// First field's name.
    pub name1: String,
    /// Second field's name.
    pub name2: String,
    /// FLG edge weight.
    pub weight: f64,
}

/// The layout advisory for one record.
#[derive(Clone, Debug)]
pub struct LayoutReport {
    /// Record name.
    pub record_name: String,
    /// Per-cluster field names with hotness.
    pub clusters: Vec<Vec<(String, u64)>>,
    /// Sum of intra-cluster edge weights, per cluster.
    pub intra_weights: Vec<f64>,
    /// Inter-cluster weight sums, `(cluster_a, cluster_b, weight)` for
    /// `a < b`, only non-zero entries.
    pub inter_weights: Vec<(usize, usize, f64)>,
    /// The largest positive edges (descending).
    pub top_positive: Vec<ReportEdge>,
    /// The most negative edges (ascending weight, i.e. worst first).
    pub top_negative: Vec<ReportEdge>,
}

/// How many edges each of the top lists carries.
const REPORT_EDGES: usize = 10;

impl LayoutReport {
    /// Builds the report for a clustering of `record` under `flg`.
    pub fn build(record: &RecordType, flg: &Flg, clustering: &Clustering) -> Self {
        let clusters: Vec<Vec<(String, u64)>> = clustering
            .clusters()
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&f| (record.field(f).name().to_string(), flg.hotness(f)))
                    .collect()
            })
            .collect();

        let intra_weights = clustering
            .clusters()
            .iter()
            .map(|c| {
                let mut w = 0.0;
                for (i, &a) in c.iter().enumerate() {
                    for &b in &c[i + 1..] {
                        w += flg.weight(a, b);
                    }
                }
                w
            })
            .collect();

        let k = clustering.len();
        let mut inter_weights = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                let mut w = 0.0;
                for &fa in &clustering.clusters()[a] {
                    for &fb in &clustering.clusters()[b] {
                        w += flg.weight(fa, fb);
                    }
                }
                if w != 0.0 {
                    inter_weights.push((a, b, w));
                }
            }
        }

        let mk = |(f1, f2, weight): (FieldIdx, FieldIdx, f64)| ReportEdge {
            f1,
            f2,
            name1: record.field(f1).name().to_string(),
            name2: record.field(f2).name().to_string(),
            weight,
        };
        let edges = flg.edges();
        let top_positive: Vec<ReportEdge> = edges
            .iter()
            .filter(|e| e.2 > 0.0)
            .take(REPORT_EDGES)
            .map(|&e| mk(e))
            .collect();
        let mut negative: Vec<&(FieldIdx, FieldIdx, f64)> =
            edges.iter().filter(|e| e.2 < 0.0).collect();
        negative.reverse(); // edges() is descending; worst (most negative) last
        let top_negative: Vec<ReportEdge> = negative
            .into_iter()
            .take(REPORT_EDGES)
            .map(|&e| mk(e))
            .collect();

        LayoutReport {
            record_name: record.name().to_string(),
            clusters,
            intra_weights,
            inter_weights,
            top_positive,
            top_negative,
        }
    }
}

impl fmt::Display for LayoutReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== layout advisory for struct {} ===", self.record_name)?;
        for (i, cluster) in self.clusters.iter().enumerate() {
            let names: Vec<String> = cluster.iter().map(|(n, h)| format!("{n}(h={h})")).collect();
            writeln!(
                f,
                "cluster {i}: [{}]  intra-weight {:.1}",
                names.join(", "),
                self.intra_weights[i]
            )?;
        }
        if !self.inter_weights.is_empty() {
            writeln!(f, "inter-cluster weights:")?;
            for (a, b, w) in &self.inter_weights {
                writeln!(f, "  {a} -- {b}: {w:.1}")?;
            }
        }
        if !self.top_positive.is_empty() {
            writeln!(f, "strongest affinities (co-locate):")?;
            for e in &self.top_positive {
                writeln!(f, "  {} -- {}: {:+.1}", e.name1, e.name2, e.weight)?;
            }
        }
        if !self.top_negative.is_empty() {
            writeln!(f, "strongest false sharing (separate):")?;
            for e in &self.top_negative {
                writeln!(f, "  {} -- {}: {:+.1}", e.name1, e.name2, e.weight)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use slopt_ir::types::{FieldType, PrimType, RecordId};
    use slopt_obs::Obs;

    fn setup() -> (RecordType, Flg, Clustering) {
        let rec = RecordType::new(
            "proc",
            vec![
                ("pid", FieldType::Prim(PrimType::U64)),
                ("state", FieldType::Prim(PrimType::U64)),
                ("nsyscalls", FieldType::Prim(PrimType::U64)),
            ],
        );
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 80, 60],
            vec![
                (FieldIdx(0), FieldIdx(1), 40.0),
                (FieldIdx(0), FieldIdx(2), -70.0),
            ],
        );
        let c = cluster(&flg, &rec, 128, &Obs::disabled());
        (rec, flg, c)
    }

    #[test]
    fn report_contents() {
        let (rec, flg, c) = setup();
        let r = LayoutReport::build(&rec, &flg, &c);
        assert_eq!(r.record_name, "proc");
        assert_eq!(r.clusters.len(), c.len());
        // Cluster 0 = {pid, state}: intra weight 40.
        assert_eq!(r.intra_weights[0], 40.0);
        // Inter weight between cluster 0 and the nsyscalls cluster is -70.
        assert!(r.inter_weights.iter().any(|&(_, _, w)| w == -70.0));
        assert_eq!(r.top_positive.len(), 1);
        assert_eq!(r.top_positive[0].weight, 40.0);
        assert_eq!(r.top_negative.len(), 1);
        assert_eq!(r.top_negative[0].name2, "nsyscalls");
    }

    #[test]
    fn display_mentions_fields_and_weights() {
        let (rec, flg, c) = setup();
        let text = LayoutReport::build(&rec, &flg, &c).to_string();
        assert!(text.contains("struct proc"));
        assert!(text.contains("pid"));
        assert!(text.contains("nsyscalls"));
        assert!(text.contains("separate"));
        assert!(text.contains("co-locate"));
    }

    #[test]
    fn negative_edges_sorted_worst_first() {
        let rec = RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
                ("c", FieldType::Prim(PrimType::U64)),
            ],
        );
        let flg = Flg::from_parts(
            RecordId(0),
            vec![1, 1, 1],
            vec![
                (FieldIdx(0), FieldIdx(1), -5.0),
                (FieldIdx(0), FieldIdx(2), -50.0),
            ],
        );
        let c = cluster(&flg, &rec, 128, &Obs::disabled());
        let r = LayoutReport::build(&rec, &flg, &c);
        assert_eq!(r.top_negative[0].weight, -50.0);
        assert_eq!(r.top_negative[1].weight, -5.0);
    }
}
