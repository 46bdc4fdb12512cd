//! Property-based invariants spanning crates: random layouts, random
//! clusterings, random coherence traffic — the structural guarantees every
//! component must uphold regardless of input.

use proptest::prelude::*;
use slopt::core::{cluster, layout_from_clusters, random_layout, Flg, LayoutOptions};
use slopt::ir::layout::StructLayout;
use slopt::ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
use slopt::sim::{CacheConfig, CpuId, LatencyModel, MemSystem, Topology};
use slopt_obs::Obs;

/// Strategy: a record of 1..24 fields with varied primitive types.
fn arb_record() -> impl Strategy<Value = RecordType> {
    prop::collection::vec(0u8..6, 1..24).prop_map(|kinds| {
        RecordType::new(
            "R",
            kinds
                .into_iter()
                .enumerate()
                .map(|(i, k)| {
                    let ty = match k {
                        0 => FieldType::Prim(PrimType::U8),
                        1 => FieldType::Prim(PrimType::U16),
                        2 => FieldType::Prim(PrimType::U32),
                        3 => FieldType::Prim(PrimType::U64),
                        4 => FieldType::Prim(PrimType::Ptr),
                        _ => FieldType::Array {
                            elem: PrimType::U32,
                            len: 5,
                        },
                    };
                    (format!("f{i}"), ty)
                })
                .collect(),
        )
    })
}

proptest! {
    /// Any layout of any record: fields never overlap, offsets respect
    /// alignment, size covers everything and respects record alignment.
    #[test]
    fn layouts_are_well_formed(rec in arb_record(), seed in any::<u64>()) {
        let layout = random_layout(&rec, seed, 128).unwrap();
        let mut extents: Vec<(u64, u64)> = Vec::new();
        for (idx, field) in rec.fields() {
            let off = layout.offset(idx);
            prop_assert_eq!(off % field.align(), 0, "field {} misaligned", idx);
            extents.push((off, off + field.size()));
            prop_assert!(off + field.size() <= layout.size());
        }
        extents.sort();
        for w in extents.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "fields overlap: {:?}", w);
        }
        prop_assert_eq!(layout.size() % layout.align(), 0);
    }

    /// Clustering any FLG partitions the fields exactly, and the resulting
    /// layout keeps different clusters on disjoint lines.
    #[test]
    fn clustering_is_a_partition_with_line_separation(
        hotness in prop::collection::vec(0u64..1000, 2..16),
        edges in prop::collection::vec((0u32..16, 0u32..16, -100.0f64..100.0), 0..40),
    ) {
        let n = hotness.len();
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|(a, b, _)| (*a as usize) < n && (*b as usize) < n && a != b)
            .map(|(a, b, w)| (FieldIdx(a), FieldIdx(b), w))
            .collect();
        let flg = Flg::from_parts(RecordId(0), hotness, edges);
        let rec = RecordType::new(
            "R",
            (0..n).map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64))).collect(),
        );
        let clustering = cluster(&flg, &rec, 128, &Obs::disabled());
        // Partition: every field exactly once.
        prop_assert_eq!(clustering.field_count(), n);
        let mut seen: Vec<FieldIdx> = clustering.clusters().iter().flatten().copied().collect();
        seen.sort();
        prop_assert_eq!(seen, (0..n as u32).map(FieldIdx).collect::<Vec<_>>());
        // Line separation in the materialized layout (cold singletons are
        // packed together, so only check clusters with hot fields).
        let layout =
            layout_from_clusters(&rec, &clustering, &flg, LayoutOptions::default()).unwrap();
        let hot_clusters: Vec<&Vec<FieldIdx>> = clustering
            .clusters()
            .iter()
            .filter(|c| c.iter().any(|&f| flg.hotness(f) > 0))
            .collect();
        for (i, ca) in hot_clusters.iter().enumerate() {
            for cb in &hot_clusters[i + 1..] {
                for &fa in ca.iter() {
                    for &fb in cb.iter() {
                        prop_assert!(
                            !layout.share_line(fa, fb),
                            "clusters share a line: {} and {}", fa, fb
                        );
                    }
                }
            }
        }
    }

    /// The MESI directory and caches stay consistent under arbitrary
    /// access sequences, and every access terminates with a sane latency.
    #[test]
    fn coherence_invariants_hold_under_random_traffic(
        ops in prop::collection::vec(
            (0u16..4, 0u64..16, 0u64..120, 1u64..8, any::<bool>()),
            1..300
        ),
    ) {
        let mut mem = MemSystem::new(
            Topology::superdome(4),
            LatencyModel::superdome(),
            CacheConfig { line_size: 128, sets: 4, ways: 2 },
        );
        let mut now = 0u64;
        for (cpu, line, off, size, write) in ops {
            let addr = line * 128 + off.min(120);
            let lat = mem.access(CpuId(cpu), addr, size, write, None, now);
            prop_assert!(lat >= 1, "every access costs at least a cycle");
            now += lat;
        }
        mem.check_invariants();
        let s = mem.stats();
        prop_assert_eq!(
            s.accesses(),
            s.misses()
                + s.class(slopt::sim::AccessClass::Hit).count
                + s.class(slopt::sim::AccessClass::UpgradeHit).count
        );
    }

    /// `from_groups` and `from_order` agree when there is one group.
    #[test]
    fn single_group_equals_plain_order(rec in arb_record(), seed in any::<u64>()) {
        let reference = random_layout(&rec, seed, 64).unwrap();
        let grouped =
            StructLayout::from_groups(&rec, &[reference.order().to_vec()], 64).unwrap();
        prop_assert_eq!(reference, grouped);
    }
}
