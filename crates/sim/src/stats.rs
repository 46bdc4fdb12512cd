//! Memory-system statistics, including false-sharing attribution.

use slopt_ir::types::RecordId;
use std::fmt;

/// How a single access was served.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum AccessClass {
    /// Served from the local cache.
    Hit,
    /// Write hit on a Shared line: data was local but other copies had to
    /// be invalidated.
    UpgradeHit,
    /// First-ever access to the line by this CPU.
    ColdMiss,
    /// The CPU held the line before but evicted it for capacity reasons.
    CapacityMiss,
    /// The line was invalidated by another CPU's write to bytes this access
    /// (or an intervening local access) actually uses — true sharing.
    TrueSharingMiss,
    /// The line was invalidated by another CPU's write to *disjoint* bytes —
    /// false sharing, the effect the paper's CycleLoss targets.
    FalseSharingMiss,
}

impl AccessClass {
    /// Every class, in declaration order (the order of `class as usize`).
    pub const ALL: [AccessClass; 6] = [
        AccessClass::Hit,
        AccessClass::UpgradeHit,
        AccessClass::ColdMiss,
        AccessClass::CapacityMiss,
        AccessClass::TrueSharingMiss,
        AccessClass::FalseSharingMiss,
    ];

    /// Whether this class is any kind of miss.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessClass::Hit | AccessClass::UpgradeHit)
    }
}

/// Counters for one class of accesses.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct ClassCounts {
    /// Number of accesses in the class.
    pub count: u64,
    /// Total cycles those accesses cost.
    pub cycles: u64,
}

/// Counters for every access class, indexed by `AccessClass as usize`.
type ClassTable = [ClassCounts; AccessClass::ALL.len()];

fn add(table: &mut ClassTable, class: AccessClass, cycles: u64) {
    let c = &mut table[class as usize];
    c.count += 1;
    c.cycles += cycles;
}

fn merge_table(into: &mut ClassTable, from: &ClassTable) {
    for (c, o) in into.iter_mut().zip(from) {
        c.count += o.count;
        c.cycles += o.cycles;
    }
}

/// Aggregate memory statistics.
///
/// Counters are dense: one [`ClassCounts`] per access class, and one such
/// table per record type indexed by [`RecordId`], grown on first use.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    counts: ClassTable,
    /// Invalidation messages sent (one per remote copy killed).
    pub invalidations: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// MESI line-state changes (insertions, upgrades, demotions, and
    /// invalidations all count one transition each).
    pub state_transitions: u64,
    /// Line accesses that fell past the dense directory range and were
    /// served by the overflow hash map.
    pub dir_overflow_hits: u64,
    /// Per-record breakdown (only for accesses within tagged ranges).
    per_record: Vec<ClassTable>,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of class `class` costing `cycles`, optionally
    /// attributed to a record instance.
    #[inline]
    pub fn record(&mut self, class: AccessClass, cycles: u64, record: Option<RecordId>) {
        add(&mut self.counts, class, cycles);
        if let Some(r) = record {
            let idx = r.0 as usize;
            if idx >= self.per_record.len() {
                self.per_record.resize(idx + 1, ClassTable::default());
            }
            add(&mut self.per_record[idx], class, cycles);
        }
    }

    /// Counters for one access class.
    pub fn class(&self, class: AccessClass) -> ClassCounts {
        self.counts[class as usize]
    }

    /// Counters for one access class restricted to a record.
    pub fn class_for(&self, record: RecordId, class: AccessClass) -> ClassCounts {
        self.per_record
            .get(record.0 as usize)
            .map(|t| t[class as usize])
            .unwrap_or_default()
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().map(|c| c.count).sum()
    }

    /// Total misses (all classes except hits/upgrades).
    pub fn misses(&self) -> u64 {
        AccessClass::ALL
            .iter()
            .filter(|c| c.is_miss())
            .map(|&c| self.class(c).count)
            .sum()
    }

    /// Total cycles spent in the memory system.
    pub fn total_cycles(&self) -> u64 {
        self.counts.iter().map(|c| c.cycles).sum()
    }

    /// False-sharing miss count for a record.
    pub fn false_sharing_for(&self, record: RecordId) -> u64 {
        self.class_for(record, AccessClass::FalseSharingMiss).count
    }

    /// Merges another stats object into this one.
    pub fn merge(&mut self, other: &MemStats) {
        merge_table(&mut self.counts, &other.counts);
        self.invalidations += other.invalidations;
        self.writebacks += other.writebacks;
        self.state_transitions += other.state_transitions;
        self.dir_overflow_hits += other.dir_overflow_hits;
        if other.per_record.len() > self.per_record.len() {
            self.per_record
                .resize(other.per_record.len(), ClassTable::default());
        }
        for (t, o) in self.per_record.iter_mut().zip(&other.per_record) {
            merge_table(t, o);
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory accesses: {}", self.accesses())?;
        for class in AccessClass::ALL {
            let c = self.class(class);
            if c.count > 0 {
                writeln!(f, "  {class:?}: {} ({} cycles)", c.count, c.cycles)?;
            }
        }
        writeln!(f, "  invalidations: {}", self.invalidations)?;
        writeln!(f, "  writebacks: {}", self.writebacks)?;
        writeln!(f, "  state transitions: {}", self.state_transitions)?;
        if self.dir_overflow_hits > 0 {
            writeln!(f, "  directory overflow hits: {}", self.dir_overflow_hits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut s = MemStats::new();
        s.record(AccessClass::Hit, 12, None);
        s.record(AccessClass::Hit, 12, Some(RecordId(0)));
        s.record(AccessClass::FalseSharingMiss, 1000, Some(RecordId(0)));
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.class(AccessClass::Hit).count, 2);
        assert_eq!(s.total_cycles(), 1024);
        assert_eq!(s.false_sharing_for(RecordId(0)), 1);
        assert_eq!(s.false_sharing_for(RecordId(9)), 0);
        assert_eq!(s.class_for(RecordId(0), AccessClass::Hit).count, 1);
    }

    #[test]
    fn class_predicates() {
        assert!(!AccessClass::Hit.is_miss());
        assert!(!AccessClass::UpgradeHit.is_miss());
        assert!(AccessClass::ColdMiss.is_miss());
        assert!(AccessClass::FalseSharingMiss.is_miss());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = MemStats::new();
        let mut b = MemStats::new();
        a.record(AccessClass::Hit, 10, Some(RecordId(1)));
        b.record(AccessClass::Hit, 20, Some(RecordId(1)));
        b.invalidations = 3;
        b.writebacks = 1;
        b.state_transitions = 5;
        b.dir_overflow_hits = 2;
        a.merge(&b);
        assert_eq!(a.class(AccessClass::Hit).count, 2);
        assert_eq!(a.class_for(RecordId(1), AccessClass::Hit).cycles, 30);
        assert_eq!(a.invalidations, 3);
        assert_eq!(a.writebacks, 1);
        assert_eq!(a.state_transitions, 5);
        assert_eq!(a.dir_overflow_hits, 2);
    }

    #[test]
    fn sparse_record_ids_are_counted_exactly() {
        let mut s = MemStats::new();
        s.record(AccessClass::CapacityMiss, 300, Some(RecordId(1000)));
        s.record(AccessClass::CapacityMiss, 200, Some(RecordId(1000)));
        s.record(AccessClass::Hit, 12, Some(RecordId(2)));
        assert_eq!(
            s.class_for(RecordId(1000), AccessClass::CapacityMiss),
            ClassCounts {
                count: 2,
                cycles: 500
            }
        );
        assert_eq!(s.class_for(RecordId(1000), AccessClass::Hit).count, 0);
        // Records below, between and past the recorded ids read as zero.
        for r in [0, 999, 1001, u32::MAX] {
            assert_eq!(
                s.class_for(RecordId(r), AccessClass::CapacityMiss),
                ClassCounts::default()
            );
        }
        assert_eq!(s.class_for(RecordId(2), AccessClass::Hit).cycles, 12);
        assert_eq!(s.accesses(), 3);
    }

    #[test]
    fn merge_of_different_record_ranges() {
        let mut short = MemStats::new();
        short.record(AccessClass::Hit, 10, Some(RecordId(0)));
        let mut long = MemStats::new();
        long.record(AccessClass::Hit, 20, Some(RecordId(0)));
        long.record(AccessClass::FalseSharingMiss, 900, Some(RecordId(40)));

        // Short into long and long into short give the same totals.
        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        for s in [&a, &b] {
            assert_eq!(s.class_for(RecordId(0), AccessClass::Hit).cycles, 30);
            assert_eq!(s.false_sharing_for(RecordId(40)), 1);
            assert_eq!(s.false_sharing_for(RecordId(41)), 0);
            assert_eq!(s.accesses(), 3);
            assert_eq!(s.total_cycles(), 930);
        }
    }

    #[test]
    fn all_lists_every_class_at_its_index() {
        for (i, c) in AccessClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = MemStats::new();
        s.record(AccessClass::ColdMiss, 450, None);
        let txt = s.to_string();
        assert!(txt.contains("ColdMiss"));
        assert!(txt.contains("450"));
    }
}
