//! The §5.2 "best performance" mode: clustering an important-edge subgraph
//! and applying the result as constraints on the original layout.
//!
//! For a heavily hand-tuned structure the fully automatic layout can lose
//! to the baseline (the greedy algorithm is not optimal, and large field
//! counts hurt it). The paper's remedy: keep only the *important* edges —
//! all negative edges plus the top-K positive ones — drop isolated nodes,
//! cluster the small remaining subgraph, and edit the original layout just
//! enough to satisfy the resulting constraints:
//!
//! * two fields in the same cluster must share a line;
//! * two fields in different clusters must not.

use crate::cluster::{cluster, Clustering};
use crate::flg::Flg;
use slopt_ir::layout::{LayoutError, StructLayout};
use slopt_ir::types::{FieldIdx, RecordType};
use slopt_obs::Obs;

/// Parameters of the importance filter.
#[derive(Copy, Clone, Debug)]
pub struct SubgraphParams {
    /// How many of the largest positive edges to keep (paper: 20).
    pub top_positive: usize,
    /// Negative edges are kept only if their magnitude is at least this
    /// fraction of the most negative edge's magnitude. The paper says "all
    /// negative weight edges"; with sampled CycleLoss a relative floor is
    /// needed so that single-sample noise does not force edits of a
    /// hand-tuned layout.
    pub negative_floor: f64,
}

impl Default for SubgraphParams {
    fn default() -> Self {
        SubgraphParams {
            top_positive: 20,
            negative_floor: 0.01,
        }
    }
}

/// The important-edge subgraph: the significant negative edges + the top-K
/// positive edges. Node set and hotness are preserved (isolated nodes
/// simply have no edges; the constraint extraction ignores them).
pub fn important_subgraph(flg: &Flg, params: SubgraphParams) -> Flg {
    let most_negative = flg.edges().iter().map(|e| e.2).fold(0.0f64, f64::min);
    let floor = most_negative.abs() * params.negative_floor;
    let mut kept: Vec<(FieldIdx, FieldIdx, f64)> = Vec::new();
    let mut positive_kept = 0;
    for (f1, f2, w) in flg.edges() {
        // edges() is sorted descending, so positives come first.
        if w > 0.0 {
            if positive_kept < params.top_positive {
                kept.push((f1, f2, w));
                positive_kept += 1;
            }
        } else if w < 0.0 && -w >= floor {
            kept.push((f1, f2, w));
        }
    }
    let hotness = (0..flg.field_count() as u32)
        .map(|i| flg.hotness(FieldIdx(i)))
        .collect();
    Flg::from_parts(flg.record(), hotness, kept)
}

/// The constraints extracted from clustering the subgraph: only clusters
/// whose fields participate in an important edge.
#[derive(Clone, Debug)]
pub struct Constraints {
    /// Groups of fields that must be co-located, mutually separated from
    /// the other groups.
    pub groups: Vec<Vec<FieldIdx>>,
}

impl Constraints {
    /// Extracts constraints from a subgraph clustering: clusters that
    /// contain at least one field with a non-zero subgraph edge.
    pub fn from_clustering(sub: &Flg, clustering: &Clustering) -> Self {
        let has_edge = |f: FieldIdx| {
            (0..sub.field_count() as u32)
                .map(FieldIdx)
                .any(|g| g != f && sub.weight(f, g) != 0.0)
        };
        let groups = clustering
            .clusters()
            .iter()
            .filter(|c| c.iter().any(|&f| has_edge(f)))
            .cloned()
            .collect();
        Constraints { groups }
    }

    /// All constrained fields.
    pub fn fields(&self) -> impl Iterator<Item = FieldIdx> + '_ {
        self.groups.iter().flatten().copied()
    }
}

/// Applies constraints as a **minimal edit** of the original layout — the
/// paper's "we then alter the original layout so that these constraints
/// are met". If the original (hand-tuned) layout already satisfies every
/// constraint, it is returned unchanged; otherwise:
///
/// 1. each constraint cluster's members are gathered at the original
///    position of its first member (other fields keep their relative
///    order);
/// 2. line-break boundaries are inserted, one at a time, until no two
///    fields of *different* clusters share a cache line and every cluster
///    that can fit a line starts on one.
///
/// # Errors
///
/// Returns a [`LayoutError`] if the constraint groups are not disjoint
/// subsets of the record's fields.
pub fn constrained_layout(
    record: &RecordType,
    original: &StructLayout,
    constraints: &Constraints,
    line_size: u64,
) -> Result<StructLayout, LayoutError> {
    use std::collections::{BTreeSet, HashMap, HashSet};

    // Which cluster each constrained field belongs to.
    let mut cluster_of: HashMap<FieldIdx, usize> = HashMap::new();
    for (ci, group) in constraints.groups.iter().enumerate() {
        for &f in group {
            cluster_of.insert(f, ci);
        }
    }

    // 1. Gather cluster members at the first member's original position.
    let mut order: Vec<FieldIdx> = Vec::with_capacity(original.order().len());
    let mut emitted: HashSet<FieldIdx> = HashSet::new();
    for &f in original.order() {
        if emitted.contains(&f) {
            continue;
        }
        if let Some(&ci) = cluster_of.get(&f) {
            for &m in &constraints.groups[ci] {
                if emitted.insert(m) {
                    order.push(m);
                }
            }
        } else {
            emitted.insert(f);
            order.push(f);
        }
    }

    // 2. Insert line breaks until the constraints hold.
    let pos_of: HashMap<FieldIdx, usize> = order.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut breaks: BTreeSet<usize> = BTreeSet::new();
    loop {
        let groups = split_at(&order, &breaks);
        let layout = StructLayout::from_groups(record, &groups, line_size)?;
        let Some(fix) = first_violation(&layout, constraints, &cluster_of, &pos_of) else {
            return Ok(layout);
        };
        if fix == 0 || !breaks.insert(fix) {
            // Unfixable (cluster larger than a line, or already split
            // here): return the best effort rather than looping.
            return Ok(layout);
        }
    }
}

fn split_at(order: &[FieldIdx], breaks: &std::collections::BTreeSet<usize>) -> Vec<Vec<FieldIdx>> {
    let mut groups: Vec<Vec<FieldIdx>> = vec![Vec::new()];
    for (i, &f) in order.iter().enumerate() {
        if breaks.contains(&i) {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("non-empty groups").push(f);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Finds the order-position at which to insert a line break to fix the
/// first constraint violation, or `None` if all constraints hold.
fn first_violation(
    layout: &StructLayout,
    constraints: &Constraints,
    cluster_of: &std::collections::HashMap<FieldIdx, usize>,
    pos_of: &std::collections::HashMap<FieldIdx, usize>,
) -> Option<usize> {
    // Separation: fields of different clusters must not share a line.
    let all: Vec<FieldIdx> = constraints.fields().collect();
    for (i, &f) in all.iter().enumerate() {
        for &g in &all[i + 1..] {
            if cluster_of[&f] != cluster_of[&g] && layout.share_line(f, g) {
                // Break before whichever comes later in the order.
                return Some(pos_of[&f].max(pos_of[&g]));
            }
        }
    }
    // Togetherness: a cluster's fields must share a line; if a gathered
    // cluster straddles a boundary, align its start to a fresh line.
    for group in &constraints.groups {
        let straddles = group
            .iter()
            .any(|&f| group.iter().any(|&g| !layout.share_line(f, g)));
        if straddles {
            let start = group
                .iter()
                .map(|f| pos_of[f])
                .min()
                .expect("non-empty cluster");
            return Some(start);
        }
    }
    None
}

/// Convenience: run the whole §5.2 flow — filter, cluster, constrain,
/// apply.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn best_effort_layout(
    record: &RecordType,
    original: &StructLayout,
    flg: &Flg,
    params: SubgraphParams,
    line_size: u64,
) -> Result<StructLayout, LayoutError> {
    let sub = important_subgraph(flg, params);
    let clustering = cluster(&sub, record, line_size, &Obs::disabled());
    let constraints = Constraints::from_clustering(&sub, &clustering);
    constrained_layout(record, original, &constraints, line_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::types::{FieldType, PrimType, RecordId};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    fn sample_flg() -> Flg {
        Flg::from_parts(
            RecordId(0),
            vec![50, 40, 30, 20, 10, 5],
            vec![
                (FieldIdx(0), FieldIdx(1), 100.0),
                (FieldIdx(2), FieldIdx(3), 80.0),
                (FieldIdx(0), FieldIdx(4), -500.0),
                (FieldIdx(1), FieldIdx(2), 1.0),
                (FieldIdx(3), FieldIdx(5), 0.5),
            ],
        )
    }

    #[test]
    fn filter_keeps_negatives_and_top_k_positives() {
        let flg = sample_flg();
        let sub = important_subgraph(
            &flg,
            SubgraphParams {
                top_positive: 2,
                ..SubgraphParams::default()
            },
        );
        assert_eq!(sub.weight(FieldIdx(0), FieldIdx(1)), 100.0);
        assert_eq!(sub.weight(FieldIdx(2), FieldIdx(3)), 80.0);
        assert_eq!(sub.weight(FieldIdx(0), FieldIdx(4)), -500.0);
        // Below-threshold positives dropped.
        assert_eq!(sub.weight(FieldIdx(1), FieldIdx(2)), 0.0);
        assert_eq!(sub.weight(FieldIdx(3), FieldIdx(5)), 0.0);
    }

    #[test]
    fn constraints_ignore_isolated_fields() {
        let flg = sample_flg();
        let sub = important_subgraph(
            &flg,
            SubgraphParams {
                top_positive: 2,
                ..SubgraphParams::default()
            },
        );
        let rec = record_u64(6);
        let clustering = cluster(&sub, &rec, 128, &Obs::disabled());
        let constraints = Constraints::from_clustering(&sub, &clustering);
        let constrained: Vec<FieldIdx> = constraints.fields().collect();
        // f5 has no important edge; it must stay unconstrained.
        assert!(!constrained.contains(&FieldIdx(5)));
        assert!(constrained.contains(&FieldIdx(0)));
        assert!(constrained.contains(&FieldIdx(4)));
    }

    #[test]
    fn constrained_layout_satisfies_constraints() {
        let flg = sample_flg();
        let rec = record_u64(6);
        let original = StructLayout::declaration_order(&rec, 128).unwrap();
        let layout = best_effort_layout(
            &rec,
            &original,
            &flg,
            SubgraphParams {
                top_positive: 2,
                ..SubgraphParams::default()
            },
            128,
        )
        .unwrap();
        // Together: {0,1} and {2,3}.
        assert!(layout.share_line(FieldIdx(0), FieldIdx(1)));
        assert!(layout.share_line(FieldIdx(2), FieldIdx(3)));
        // Separate: 0 vs 4 (the false-sharing pair) and cross-cluster.
        assert!(!layout.share_line(FieldIdx(0), FieldIdx(4)));
        assert!(!layout.share_line(FieldIdx(0), FieldIdx(2)));
        // Permutation.
        let mut order = layout.order().to_vec();
        order.sort();
        assert_eq!(order, rec.field_indices().collect::<Vec<_>>());
    }

    #[test]
    fn unconstrained_fields_keep_original_relative_order() {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![10; 6],
            vec![(FieldIdx(2), FieldIdx(4), -50.0)],
        );
        let rec = record_u64(6);
        let original = StructLayout::declaration_order(&rec, 128).unwrap();
        let layout =
            best_effort_layout(&rec, &original, &flg, SubgraphParams::default(), 128).unwrap();
        let tail: Vec<FieldIdx> = layout
            .order()
            .iter()
            .copied()
            .filter(|f| ![FieldIdx(2), FieldIdx(4)].contains(f))
            .collect();
        assert_eq!(
            tail,
            vec![FieldIdx(0), FieldIdx(1), FieldIdx(3), FieldIdx(5)]
        );
    }

    #[test]
    fn no_important_edges_reduces_to_original_order() {
        let flg = Flg::from_parts(RecordId(0), vec![10; 4], vec![]);
        let rec = record_u64(4);
        let original = StructLayout::declaration_order(&rec, 128).unwrap();
        let layout =
            best_effort_layout(&rec, &original, &flg, SubgraphParams::default(), 128).unwrap();
        assert_eq!(layout.order(), original.order());
        assert_eq!(layout.size(), original.size());
    }
}
