//! Property tests for the simulator: cache geometry, MESI consistency and
//! statistics conservation under randomized traffic on several machines.

use proptest::prelude::*;
use slopt_sim::{AccessClass, Cache, CacheConfig, CpuId, LatencyModel, MemSystem, Mesi, Topology};

proptest! {
    /// The cache never holds more lines than its geometry allows, and a
    /// line inserted is resident until evicted or invalidated.
    #[test]
    fn cache_respects_capacity(
        lines in prop::collection::vec(0u64..64, 1..200),
    ) {
        let cfg = CacheConfig { line_size: 64, sets: 4, ways: 2 };
        let mut c = Cache::new(cfg, 1);
        for &l in &lines {
            if c.lookup(0, l).is_none() {
                c.insert(0, l, Mesi::Shared);
            }
            prop_assert!(c.resident(0) <= cfg.sets * cfg.ways);
        }
        // Everything resident is findable.
        for &l in &lines {
            if let Some(state) = c.peek(0, l) {
                prop_assert_eq!(c.lookup(0, l), Some(state));
            }
        }
    }

    /// MESI + directory invariants hold after arbitrary traffic on every
    /// machine shape, with serialization on and off.
    #[test]
    fn mesi_invariants_on_all_machines(
        ops in prop::collection::vec(
            (0u16..8, 0u64..12, 0u64..120, 1u64..8, any::<bool>()),
            1..250
        ),
        serialize in any::<bool>(),
        superdome in any::<bool>(),
    ) {
        let topo = if superdome { Topology::superdome(8) } else { Topology::bus(8) };
        let lat = if superdome { LatencyModel::superdome() } else { LatencyModel::bus() };
        let mut mem = MemSystem::new(topo, lat, CacheConfig { line_size: 128, sets: 4, ways: 2 });
        mem.set_serialize(serialize);
        let mut now = 0u64;
        for &(cpu, line, off, size, write) in &ops {
            now += mem.access(CpuId(cpu), line * 128 + off.min(120), size, write, None, now);
        }
        mem.check_invariants();
        // Conservation: every access is classified exactly once.
        let s = mem.stats();
        let total: u64 = [
            AccessClass::Hit,
            AccessClass::UpgradeHit,
            AccessClass::ColdMiss,
            AccessClass::CapacityMiss,
            AccessClass::TrueSharingMiss,
            AccessClass::FalseSharingMiss,
        ]
        .iter()
        .map(|&c| s.class(c).count)
        .sum();
        prop_assert_eq!(total, s.accesses());
    }

    /// Single-CPU traffic never produces sharing misses or invalidations.
    #[test]
    fn single_cpu_never_shares(
        ops in prop::collection::vec((0u64..32, any::<bool>()), 1..200),
    ) {
        let mut mem = MemSystem::new(
            Topology::bus(1),
            LatencyModel::bus(),
            CacheConfig { line_size: 64, sets: 8, ways: 2 },
        );
        let mut now = 0;
        for &(line, write) in &ops {
            now += mem.access(CpuId(0), line * 64, 8, write, None, now);
        }
        let s = mem.stats();
        prop_assert_eq!(s.class(AccessClass::TrueSharingMiss).count, 0);
        prop_assert_eq!(s.class(AccessClass::FalseSharingMiss).count, 0);
        prop_assert_eq!(s.class(AccessClass::UpgradeHit).count, 0);
        prop_assert_eq!(s.invalidations, 0);
        mem.check_invariants();
    }

    /// Read-only traffic is free of invalidations and sharing misses even
    /// across many CPUs.
    #[test]
    fn read_only_sharing_is_harmless(
        ops in prop::collection::vec((0u16..8, 0u64..16), 1..200),
    ) {
        let mut mem = MemSystem::new(
            Topology::superdome(8),
            LatencyModel::superdome(),
            CacheConfig { line_size: 128, sets: 8, ways: 4 },
        );
        let mut now = 0;
        for &(cpu, line) in &ops {
            now += mem.access(CpuId(cpu), line * 128, 8, false, None, now);
        }
        let s = mem.stats();
        prop_assert_eq!(s.invalidations, 0);
        prop_assert_eq!(s.class(AccessClass::TrueSharingMiss).count, 0);
        prop_assert_eq!(s.class(AccessClass::FalseSharingMiss).count, 0);
        mem.check_invariants();
    }

    /// The paged dense directory is observationally equivalent to the
    /// reference `HashMap` directory: identical per-access latencies and
    /// identical statistics on arbitrary traffic, across machine shapes,
    /// protocols and address ranges (including addresses past the dense
    /// page limit, which exercise the overflow map).
    #[test]
    fn dense_directory_matches_reference(
        ops in prop::collection::vec(
            // flags bit 0: write, bit 1: far (overflow-path address).
            (0u16..8, 0u64..24, 0u64..120, 1u64..8, 0u8..4),
            1..300
        ),
        superdome in any::<bool>(),
        msi in any::<bool>(),
    ) {
        let mk = |reference: bool| {
            let topo = if superdome { Topology::superdome(8) } else { Topology::bus(8) };
            let lat = if superdome { LatencyModel::superdome() } else { LatencyModel::bus() };
            let mut mem = MemSystem::new(topo, lat, CacheConfig { line_size: 128, sets: 4, ways: 2 });
            if msi {
                mem.set_protocol(slopt_sim::Protocol::Msi);
            }
            mem.set_reference_directory(reference);
            mem
        };
        let mut dense = mk(false);
        let mut reference = mk(true);
        let mut now = 0u64;
        for &(cpu, line, off, size, flags) in &ops {
            let (write, far) = (flags & 1 != 0, flags & 2 != 0);
            // `far` pushes the line past the dense limit (1 << 24 lines)
            // into the overflow path.
            let base = if far { (1u64 << 24) * 128 } else { 0 };
            let addr = base + line * 128 + off.min(120);
            let ld = dense.access(CpuId(cpu), addr, size, write, None, now);
            let lr = reference.access(CpuId(cpu), addr, size, write, None, now);
            prop_assert_eq!(ld, lr, "latency diverged at t={}", now);
            now += ld;
        }
        dense.check_invariants();
        reference.check_invariants();
        let (ds, rs) = (dense.stats(), reference.stats());
        prop_assert_eq!(ds.accesses(), rs.accesses());
        prop_assert_eq!(ds.invalidations, rs.invalidations);
        prop_assert_eq!(ds.writebacks, rs.writebacks);
        for class in [
            AccessClass::Hit,
            AccessClass::UpgradeHit,
            AccessClass::ColdMiss,
            AccessClass::CapacityMiss,
            AccessClass::TrueSharingMiss,
            AccessClass::FalseSharingMiss,
        ] {
            prop_assert_eq!(ds.class(class), rs.class(class));
        }
    }

    /// Disjoint per-CPU address spaces never interact: all misses are cold
    /// or capacity.
    #[test]
    fn disjoint_working_sets_never_share(
        ops in prop::collection::vec((0u16..4, 0u64..64, any::<bool>()), 1..300),
    ) {
        let mut mem = MemSystem::new(
            Topology::superdome(4),
            LatencyModel::superdome(),
            CacheConfig { line_size: 128, sets: 4, ways: 2 },
        );
        let mut now = 0;
        for &(cpu, line, write) in &ops {
            // Each CPU owns a private 64-line region.
            let addr = (u64::from(cpu) * 1_000_000) + line * 128;
            now += mem.access(CpuId(cpu), addr, 8, write, None, now);
        }
        let s = mem.stats();
        prop_assert_eq!(s.class(AccessClass::TrueSharingMiss).count, 0);
        prop_assert_eq!(s.class(AccessClass::FalseSharingMiss).count, 0);
        mem.check_invariants();
    }
}
