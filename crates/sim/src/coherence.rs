//! Directory-based MESI coherence with false-sharing classification.
//!
//! [`MemSystem`] owns the per-CPU caches (one [`Cache`] slab) plus a
//! global directory. Every
//! access is priced in cycles using the machine's [`LatencyModel`]:
//!
//! * hits cost the hit latency;
//! * misses are served from the owning cache (cache-to-cache transfer priced
//!   by hierarchical distance), from a sharer, or from memory;
//! * writes invalidate remote copies, paying the round-trip to the farthest
//!   invalidated CPU.
//!
//! **Miss classification.** When CPU `c` loses a line to another CPU's
//! write, the directory starts accumulating the bytes *other* CPUs write to
//! that line. When `c` next misses on the line, the miss is classified as
//! **false sharing** if the bytes `c` accesses are disjoint from everything
//! written since the invalidation, and **true sharing** otherwise. Misses on
//! never-held lines are **cold**; misses on self-evicted lines are
//! **capacity**. This is the per-access analogue of the classification of
//! Torrellas et al. and is what makes layout effects directly observable in
//! the statistics.

use crate::cache::{Cache, CacheConfig, Mesi};

/// Which invalidation protocol the directory runs (paper §1 lists MESI,
/// MSI, MOSI and MOESI as the common choices; the Itanium machines use
/// MESI-family protocols).
///
/// The observable difference modelled here is the **Exclusive** state:
/// under MESI a sole reader holds the line in E and a subsequent local
/// write upgrades silently; under MSI the same line is merely Shared and
/// the write must consult the directory even with no other sharers.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Hash)]
pub enum Protocol {
    /// MESI (default): silent upgrades for sole owners.
    #[default]
    Mesi,
    /// MSI: every S→M transition pays a directory round trip.
    Msi,
}
use crate::stats::{AccessClass, MemStats};
use crate::topology::{CpuId, LatencyModel, Topology};
use slopt_ir::types::RecordId;
use std::collections::{HashMap, HashSet};

/// One logged sharing miss, for ground-truth analysis of *which bytes*
/// (and hence which fields) actually collided. The paper could not
/// measure this on hardware ("there is no easy way to measure how many
/// cycles are lost due to false sharing on a native execution"); the
/// simulator can, which makes the CycleLoss estimate checkable — see the
/// `validate_cycleloss` binary.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct SharingMissEvent {
    /// The line (byte address / line size) the miss happened on.
    pub line: u64,
    /// The CPU that missed.
    pub reader: CpuId,
    /// Byte bitmap (bit i = byte i of the line) the missing access uses.
    pub reader_mask: u128,
    /// Byte bitmap written by other CPUs since this CPU lost the line.
    pub written_mask: u128,
    /// True if the masks are disjoint (false sharing), false otherwise.
    pub false_sharing: bool,
}

/// Directory state for one line.
#[derive(Clone, Debug, Default)]
struct DirEntry {
    /// CPU holding the line in M or E, if any. Invariant: when set,
    /// `sharers` contains exactly that CPU.
    owner: Option<u16>,
    /// Bitmask of CPUs holding a copy.
    sharers: u128,
    /// CPUs that lost the line to an invalidation, with the bytes written
    /// by other CPUs since — consumed (and classified) at their next miss.
    pending_inval: Vec<(u16, u128)>,
    /// Directory occupancy: coherence transactions on this line serialize
    /// behind this timestamp.
    busy_until: u64,
}

/// Lines per dense directory page (and per [`LineSet`] page).
const DIR_PAGE_LINES: usize = 1024;
const DIR_PAGE_SHIFT: u32 = DIR_PAGE_LINES.trailing_zeros();

/// Line numbers below this live in the dense paged array; anything above
/// (synthetic tests probing far addresses) overflows into a hash map so a
/// single outlier cannot force a huge page vector. 1 << 24 lines of 128
/// bytes covers a 2 GiB simulated address space — far beyond what the
/// arena allocator ([`crate::Arena`]) hands out.
const DENSE_LINE_LIMIT: u64 = 1 << 24;

/// The default directory storage: line number → entry via a paged dense
/// array. The engine's address space is allocator-controlled (instances
/// come from a bump [`crate::Arena`] starting near zero), so line numbers
/// are small and dense — an index computation plus two loads replaces
/// hashing on the hottest path of the simulator.
///
/// A default [`DirEntry`] (no owner, no sharers, nothing pending, never
/// busy) behaves identically to an absent hash-map entry in every
/// directory operation, so presence does not need to be tracked.
#[derive(Debug, Default)]
struct DenseDirectory {
    pages: Vec<Option<Box<[DirEntry]>>>,
    overflow: HashMap<u64, DirEntry>,
}

impl DenseDirectory {
    #[inline]
    fn probe_mut(&mut self, line: u64) -> Option<&mut DirEntry> {
        if line < DENSE_LINE_LIMIT {
            self.pages
                .get_mut((line >> DIR_PAGE_SHIFT) as usize)?
                .as_mut()
                .map(|p| &mut p[(line as usize) & (DIR_PAGE_LINES - 1)])
        } else {
            self.overflow.get_mut(&line)
        }
    }

    #[inline]
    fn entry_mut(&mut self, line: u64) -> &mut DirEntry {
        if line < DENSE_LINE_LIMIT {
            let page_idx = (line >> DIR_PAGE_SHIFT) as usize;
            if page_idx >= self.pages.len() {
                self.pages.resize_with(page_idx + 1, || None);
            }
            let page = self.pages[page_idx].get_or_insert_with(|| {
                vec![DirEntry::default(); DIR_PAGE_LINES].into_boxed_slice()
            });
            &mut page[(line as usize) & (DIR_PAGE_LINES - 1)]
        } else {
            self.overflow.entry(line).or_default()
        }
    }
}

/// Directory storage: the dense paged layout (default) or the original
/// hash map, retained as the equivalence/performance reference
/// ([`MemSystem::set_reference_directory`], `perf_report --reference`,
/// and the property tests in `crates/sim/tests`).
#[derive(Debug)]
enum Directory {
    Dense(DenseDirectory),
    Reference(HashMap<u64, DirEntry>),
}

impl Directory {
    /// The entry for `line` if it may carry state; `None` only when the
    /// line provably has no directory state.
    #[inline]
    fn probe_mut(&mut self, line: u64) -> Option<&mut DirEntry> {
        match self {
            Directory::Dense(d) => d.probe_mut(line),
            Directory::Reference(m) => m.get_mut(&line),
        }
    }

    /// The entry for `line`, created (default) if missing.
    #[inline]
    fn entry_mut(&mut self, line: u64) -> &mut DirEntry {
        match self {
            Directory::Dense(d) => d.entry_mut(line),
            Directory::Reference(m) => m.entry(line).or_default(),
        }
    }

    /// Visits every line that may carry directory state (dense pages
    /// include untouched default entries, which satisfy all invariants
    /// vacuously). The dense walk streams one 1024-entry page at a time
    /// in line order — each page is a contiguous block that fits in L1,
    /// and absent pages are skipped without touching any entry.
    fn for_each(&self, mut f: impl FnMut(u64, &DirEntry)) {
        match self {
            Directory::Dense(d) => {
                for (pi, page) in d.pages.iter().enumerate() {
                    if let Some(p) = page {
                        for (i, entry) in p.iter().enumerate() {
                            f(((pi << DIR_PAGE_SHIFT) + i) as u64, entry);
                        }
                    }
                }
                for (&line, entry) in &d.overflow {
                    f(line, entry);
                }
            }
            Directory::Reference(m) => {
                for (&line, entry) in m {
                    f(line, entry);
                }
            }
        }
    }
}

/// A paged per-CPU set of line numbers (the ever-cached set consulted on
/// every miss for cold-vs-capacity classification): one bit per line for
/// small line numbers, hash-set overflow for outliers.
#[derive(Debug, Default)]
struct LineSet {
    words: Vec<u64>,
    overflow: HashSet<u64>,
}

impl LineSet {
    #[inline]
    fn insert(&mut self, line: u64) {
        if line < DENSE_LINE_LIMIT {
            let idx = (line / 64) as usize;
            if idx >= self.words.len() {
                self.words.resize(idx + 1, 0);
            }
            self.words[idx] |= 1u64 << (line % 64);
        } else {
            self.overflow.insert(line);
        }
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        if line < DENSE_LINE_LIMIT {
            self.words
                .get((line / 64) as usize)
                .is_some_and(|w| w & (1u64 << (line % 64)) != 0)
        } else {
            self.overflow.contains(&line)
        }
    }
}

fn cpu_bit(cpu: CpuId) -> u128 {
    1u128 << cpu.0
}

fn byte_mask(offset_in_line: u64, size: u64) -> u128 {
    debug_assert!(offset_in_line + size <= 128);
    if size >= 128 {
        !0u128
    } else {
        ((1u128 << size) - 1) << offset_in_line
    }
}

/// The multiprocessor memory system.
#[derive(Debug)]
pub struct MemSystem {
    topo: Topology,
    lat: LatencyModel,
    cfg: CacheConfig,
    cache: Cache,
    dir: Directory,
    ever_cached: Vec<LineSet>,
    stats: MemStats,
    serialize: bool,
    log_sharing: bool,
    sharing_log: Vec<SharingMissEvent>,
    protocol: Protocol,
}

impl MemSystem {
    /// Creates a memory system for the given machine.
    ///
    /// # Panics
    ///
    /// Panics on invalid cache geometry.
    pub fn new(topo: Topology, lat: LatencyModel, cfg: CacheConfig) -> Self {
        cfg.validate();
        let n = topo.cpu_count();
        MemSystem {
            topo,
            lat,
            cfg,
            cache: Cache::new(cfg, n),
            dir: Directory::Dense(DenseDirectory::default()),
            ever_cached: (0..n).map(|_| LineSet::default()).collect(),
            stats: MemStats::new(),
            serialize: true,
            log_sharing: false,
            sharing_log: Vec::new(),
            protocol: Protocol::Mesi,
        }
    }

    /// Selects the coherence protocol (default [`Protocol::Mesi`]).
    pub fn set_protocol(&mut self, protocol: Protocol) {
        self.protocol = protocol;
    }

    /// Switches the directory to the retained hash-map reference
    /// implementation (`true`) or back to the default dense paged layout
    /// (`false`). Both are observationally identical; the reference exists
    /// for equivalence tests and the `perf_report` old-vs-new comparison.
    ///
    /// # Panics
    ///
    /// Panics if any access has already been performed — the directory
    /// kind must be chosen while the system is empty.
    pub fn set_reference_directory(&mut self, on: bool) {
        assert_eq!(
            self.stats.accesses(),
            0,
            "directory kind must be chosen before the first access"
        );
        self.dir = if on {
            Directory::Reference(HashMap::new())
        } else {
            Directory::Dense(DenseDirectory::default())
        };
    }

    /// Enables recording of every sharing miss (bytes read vs bytes
    /// written) into a log retrievable via
    /// [`MemSystem::sharing_events`]. Off by default — the log grows with
    /// the number of sharing misses.
    pub fn set_sharing_log(&mut self, on: bool) {
        self.log_sharing = on;
    }

    /// The recorded sharing-miss events (empty unless logging was turned
    /// on with [`MemSystem::set_sharing_log`]).
    pub fn sharing_events(&self) -> &[SharingMissEvent] {
        &self.sharing_log
    }

    /// Enables or disables directory serialization: when enabled (the
    /// default), coherence transactions on one line queue behind each
    /// other, so heavily contended lines serialize their writers — the
    /// mechanism that makes false sharing catastrophic on large machines.
    /// Disable for analytical unit tests that assert exact transfer
    /// latencies.
    pub fn set_serialize(&mut self, on: bool) {
        self.serialize = on;
    }

    /// The line/coherence-block size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.line_size
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-CPU caches.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Performs an access of `size` bytes at `addr` by `cpu`, returning its
    /// total latency in cycles. Accesses spanning multiple lines are split
    /// and each chunk is priced and classified separately (latencies sum —
    /// the engine models them as sequential).
    ///
    /// `record` attributes the access to a record type in the per-record
    /// statistics breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, if `addr + size` wraps past the end of
    /// the address space, or if `cpu` is out of range.
    pub fn access(
        &mut self,
        cpu: CpuId,
        addr: u64,
        size: u64,
        write: bool,
        record: Option<RecordId>,
        now: u64,
    ) -> u64 {
        assert!(size > 0, "zero-size access");
        assert!(
            size <= u64::MAX - addr,
            "access of {size} bytes at {addr:#x} wraps the address space"
        );
        assert!(cpu.index() < self.cache.cpus(), "cpu {cpu} out of range");
        let line_size = self.cfg.line_size;
        let mut total = 0;
        let mut cursor = addr;
        let end = addr + size;
        while cursor < end {
            let line = cursor / line_size;
            let off = cursor % line_size;
            let chunk = (line_size - off).min(end - cursor);
            let mask = byte_mask(off, chunk);
            let (lat, class) = self.access_line(cpu, line, mask, write, now + total);
            self.stats.record(class, lat, record);
            total += lat;
            cursor += chunk;
        }
        total
    }

    /// One access entirely within line `line`, touching the bytes of
    /// `mask`.
    fn access_line(
        &mut self,
        cpu: CpuId,
        line: u64,
        mask: u128,
        write: bool,
        now: u64,
    ) -> (u64, AccessClass) {
        // Counted for both directory kinds (from the line number alone) so
        // dense/reference equivalence is preserved.
        if line >= DENSE_LINE_LIMIT {
            self.stats.dir_overflow_hits += 1;
        }
        let state = self.cache.lookup(cpu.index(), line);
        match state {
            Some(Mesi::Modified) => {
                if write {
                    self.note_write(cpu, line, mask);
                }
                (self.lat.hit, AccessClass::Hit)
            }
            Some(Mesi::Exclusive) => {
                if write {
                    self.cache.set_state(cpu.index(), line, Mesi::Modified);
                    self.stats.state_transitions += 1;
                    let entry = self.dir.entry_mut(line);
                    entry.owner = Some(cpu.0);
                    self.note_write(cpu, line, mask);
                }
                (self.lat.hit, AccessClass::Hit)
            }
            Some(Mesi::Shared) => {
                if write {
                    self.upgrade(cpu, line, mask, now)
                } else {
                    (self.lat.hit, AccessClass::Hit)
                }
            }
            None => self.miss(cpu, line, mask, write, now),
        }
    }

    /// Accumulates written bytes into the pending-invalidation records of
    /// CPUs waiting to re-fetch this line.
    fn note_write(&mut self, writer: CpuId, line: u64, mask: u128) {
        if let Some(entry) = self.dir.probe_mut(line) {
            for (c, bm) in entry.pending_inval.iter_mut() {
                if *c != writer.0 {
                    *bm |= mask;
                }
            }
        }
    }

    /// Write hit on a Shared line: invalidate remote copies and take
    /// ownership.
    ///
    /// Victims are walked straight off the sharer bitmask
    /// (`trailing_zeros`, ascending CPU order — the same order the old
    /// full-CPU scan produced), with no victim list allocation and one
    /// directory probe for the whole batch of pending-invalidation
    /// records instead of one probe per victim.
    fn upgrade(&mut self, cpu: CpuId, line: u64, mask: u128, now: u64) -> (u64, AccessClass) {
        let entry = self.dir.entry_mut(line);
        let others = entry.sharers & !cpu_bit(cpu);
        let mut inval_lat = 0;
        let mut killed = 0;
        if others != 0 {
            let mut rest = others;
            while rest != 0 {
                let v = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                let d = self.topo.distance(cpu, CpuId(v));
                inval_lat = inval_lat.max(self.lat.transfer(d));
                self.cache.invalidate(v as usize, line);
                self.stats.state_transitions += 1;
                killed += 1;
            }
            let entry = self.dir.probe_mut(line).expect("entry exists");
            let mut rest = others;
            while rest != 0 {
                let v = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                entry.pending_inval.push((v, 0));
            }
        }
        let entry = self.dir.probe_mut(line).expect("entry exists");
        entry.owner = Some(cpu.0);
        entry.sharers = cpu_bit(cpu);
        self.cache.set_state(cpu.index(), line, Mesi::Modified);
        self.stats.state_transitions += 1;
        self.stats.invalidations += killed;
        self.note_write(cpu, line, mask);
        if killed > 0 {
            let lat = self.lat.hit + self.queue_delay(line, now, inval_lat);
            (lat, AccessClass::UpgradeHit)
        } else if self.protocol == Protocol::Msi {
            // MSI has no Exclusive state: even a sole holder must ask the
            // directory for ownership.
            let lat = self.lat.hit + self.queue_delay(line, now, self.lat.memory);
            (lat, AccessClass::UpgradeHit)
        } else {
            (self.lat.hit, AccessClass::Hit)
        }
    }

    /// Serializes a coherence transaction of `service` cycles on `line`
    /// starting at `now`: it waits for the directory entry to become free,
    /// then occupies it. Returns the total (wait + service) latency.
    fn queue_delay(&mut self, line: u64, now: u64, service: u64) -> u64 {
        if !self.serialize {
            return service;
        }
        let entry = self.dir.entry_mut(line);
        let wait = entry.busy_until.saturating_sub(now);
        entry.busy_until = now + wait + service;
        wait + service
    }

    /// Read or write miss.
    fn miss(
        &mut self,
        cpu: CpuId,
        line: u64,
        mask: u128,
        write: bool,
        now: u64,
    ) -> (u64, AccessClass) {
        let entry = self.dir.entry_mut(line);

        // Classify before mutating sharer state.
        let mut sharing_event: Option<SharingMissEvent> = None;
        let class = if let Some(pos) = entry.pending_inval.iter().position(|(c, _)| *c == cpu.0) {
            let (_, written) = entry.pending_inval.swap_remove(pos);
            let false_sharing = written & mask == 0;
            if self.log_sharing {
                sharing_event = Some(SharingMissEvent {
                    line,
                    reader: cpu,
                    reader_mask: mask,
                    written_mask: written,
                    false_sharing,
                });
            }
            if false_sharing {
                AccessClass::FalseSharingMiss
            } else {
                AccessClass::TrueSharingMiss
            }
        } else if self.ever_cached[cpu.index()].contains(line) {
            AccessClass::CapacityMiss
        } else {
            AccessClass::ColdMiss
        };

        // Price the data fetch.
        let owner = entry.owner;
        let sharers = entry.sharers;
        let fetch_lat = if let Some(o) = owner {
            let d = self.topo.distance(CpuId(o), cpu);
            self.lat.transfer(d)
        } else if sharers != 0 {
            // Nearest sharer forwards the line; walk the sharer bits
            // directly instead of scanning every CPU.
            let mut best = u64::MAX;
            let mut rest = sharers;
            while rest != 0 {
                let c = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                best = best.min(self.lat.transfer(self.topo.distance(CpuId(c), cpu)));
            }
            best
        } else {
            self.lat.memory
        };

        let lat;
        if write {
            // Read-for-ownership: every remote copy is invalidated.
            // Victims come straight off the sharer bitmask in ascending
            // CPU order, with no victim list allocation.
            let victim_mask = sharers & !cpu_bit(cpu);
            let mut inval_lat = 0;
            let mut rest = victim_mask;
            while rest != 0 {
                let v = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                let d = self.topo.distance(cpu, CpuId(v));
                inval_lat = inval_lat.max(self.lat.transfer(d));
                if self.cache.invalidate(v as usize, line) == Some(Mesi::Modified) {
                    self.stats.writebacks += 1;
                }
                self.stats.invalidations += 1;
                self.stats.state_transitions += 1;
            }
            let entry = self.dir.probe_mut(line).expect("entry exists");
            let mut rest = victim_mask;
            while rest != 0 {
                let v = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                entry.pending_inval.push((v, 0));
            }
            entry.owner = Some(cpu.0);
            entry.sharers = cpu_bit(cpu);
            let had_copies = owner.is_some() || sharers != 0;
            let service = fetch_lat.max(inval_lat);
            lat = if had_copies {
                self.queue_delay(line, now, service)
            } else {
                service
            };
            self.insert_line(cpu, line, Mesi::Modified);
            self.note_write(cpu, line, mask);
        } else {
            // Read: demote an owner to Shared.
            if let Some(o) = owner {
                if self.cache.peek(o as usize, line) == Some(Mesi::Modified) {
                    self.stats.writebacks += 1;
                }
                self.cache.set_state(o as usize, line, Mesi::Shared);
                self.stats.state_transitions += 1;
            }
            let protocol = self.protocol;
            let entry = self.dir.probe_mut(line).expect("entry exists");
            entry.owner = None;
            let new_state = if entry.sharers == 0 && protocol == Protocol::Mesi {
                Mesi::Exclusive
            } else {
                Mesi::Shared
            };
            entry.sharers |= cpu_bit(cpu);
            if new_state == Mesi::Exclusive {
                entry.owner = Some(cpu.0);
            }
            lat = if owner.is_some() {
                // Cache-to-cache transfers occupy the directory entry.
                self.queue_delay(line, now, fetch_lat)
            } else {
                fetch_lat
            };
            self.insert_line(cpu, line, new_state);
        }
        self.ever_cached[cpu.index()].insert(line);
        if let Some(ev) = sharing_event {
            self.sharing_log.push(ev);
        }
        (lat, class)
    }

    /// Inserts a line into a CPU's cache, handling the directory update for
    /// an evicted victim.
    fn insert_line(&mut self, cpu: CpuId, line: u64, state: Mesi) {
        // The inserted line leaves Invalid; an evicted victim enters it.
        self.stats.state_transitions += 1;
        if let Some((victim, vstate)) = self.cache.insert(cpu.index(), line, state) {
            self.stats.state_transitions += 1;
            if vstate == Mesi::Modified {
                self.stats.writebacks += 1;
            }
            if let Some(entry) = self.dir.probe_mut(victim) {
                entry.sharers &= !cpu_bit(cpu);
                if entry.owner == Some(cpu.0) {
                    entry.owner = None;
                }
            }
        }
    }

    /// Checks directory/cache invariants for every line the directory
    /// knows. Intended for tests; O(lines × cpus).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.dir.for_each(|line, entry| {
            if let Some(o) = entry.owner {
                assert_eq!(
                    entry.sharers,
                    1u128 << o,
                    "line {line:#x}: owner {o} must be the only sharer"
                );
                let st = self.cache.peek(o as usize, line);
                assert!(
                    matches!(st, Some(Mesi::Modified) | Some(Mesi::Exclusive)),
                    "line {line:#x}: owner {o} cache state {st:?}"
                );
            }
            for c in 0..self.topo.cpu_count() {
                let has = self.cache.peek(c, line).is_some();
                let marked = entry.sharers & (1u128 << c) != 0;
                assert_eq!(
                    has, marked,
                    "line {line:#x}: cpu {c} cache/directory disagree"
                );
                if has && entry.owner != Some(c as u16) {
                    assert_eq!(
                        self.cache.peek(c, line),
                        Some(Mesi::Shared),
                        "line {line:#x}: non-owner cpu {c} must be Shared"
                    );
                }
                // A CPU with a pending invalidation record must not hold
                // the line.
                if entry.pending_inval.iter().any(|(p, _)| *p as usize == c) {
                    assert!(!has, "line {line:#x}: cpu {c} pending-inval yet resident");
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(cpus: usize) -> MemSystem {
        MemSystem::new(
            Topology::superdome(cpus),
            LatencyModel::superdome(),
            CacheConfig {
                line_size: 128,
                sets: 64,
                ways: 4,
            },
        )
    }

    const REC: Option<RecordId> = None;

    #[test]
    fn cold_miss_then_hit() {
        let mut m = system(2);
        let lat = m.access(CpuId(0), 0x1000, 8, false, REC, 0);
        assert_eq!(lat, LatencyModel::superdome().memory);
        assert_eq!(m.stats().class(AccessClass::ColdMiss).count, 1);
        let lat = m.access(CpuId(0), 0x1000, 8, false, REC, 0);
        assert_eq!(lat, LatencyModel::superdome().hit);
        assert_eq!(m.stats().class(AccessClass::Hit).count, 1);
        m.check_invariants();
    }

    #[test]
    fn read_sharing_is_cheap_and_stable() {
        let mut m = system(4);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 0, 8, false, REC, 0); // fetched from cpu0's cache
        m.access(CpuId(2), 0, 8, false, REC, 0);
        // Everyone can now hit.
        for c in 0..3 {
            let lat = m.access(CpuId(c), 0, 8, false, REC, 0);
            assert_eq!(lat, LatencyModel::superdome().hit);
        }
        assert_eq!(m.stats().invalidations, 0);
        m.check_invariants();
    }

    #[test]
    fn write_invalidates_readers() {
        let mut m = system(2);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 0, 8, false, REC, 0);
        // cpu1 writes: cpu0 must be invalidated.
        m.access(CpuId(1), 0, 8, true, REC, 0);
        assert_eq!(m.stats().invalidations, 1);
        m.check_invariants();
        // cpu0's next read is a coherence miss on the same bytes -> true.
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert_eq!(m.stats().class(AccessClass::TrueSharingMiss).count, 1);
        m.check_invariants();
    }

    #[test]
    fn false_sharing_is_detected() {
        let mut m = system(2);
        // cpu0 reads bytes 0..8; cpu1 writes bytes 64..72 of the same line.
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 64, 8, true, REC, 0);
        // cpu0 re-reads its own bytes: invalidation hit disjoint bytes.
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert_eq!(m.stats().class(AccessClass::FalseSharingMiss).count, 1);
        assert_eq!(m.stats().class(AccessClass::TrueSharingMiss).count, 0);
        m.check_invariants();
    }

    #[test]
    fn true_sharing_when_bytes_overlap() {
        let mut m = system(2);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 4, 8, true, REC, 0); // overlaps bytes 4..8
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert_eq!(m.stats().class(AccessClass::TrueSharingMiss).count, 1);
        m.check_invariants();
    }

    #[test]
    fn accumulated_writes_count_for_classification() {
        let mut m = system(3);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        // cpu1 takes the line writing far bytes, then writes cpu0's bytes
        // in a second access while still owning the line.
        m.access(CpuId(1), 64, 8, true, REC, 0);
        m.access(CpuId(1), 0, 8, true, REC, 0);
        // cpu0 rereads: bytes 0..8 were written since invalidation -> true.
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert_eq!(m.stats().class(AccessClass::TrueSharingMiss).count, 1);
        m.check_invariants();
    }

    #[test]
    fn capacity_miss_after_eviction() {
        let mut m = MemSystem::new(
            Topology::bus(1),
            LatencyModel::bus(),
            CacheConfig {
                line_size: 64,
                sets: 1,
                ways: 2,
            },
        );
        m.access(CpuId(0), 0, 8, false, REC, 0); // line 0
        m.access(CpuId(0), 64, 8, false, REC, 0); // line 1
        m.access(CpuId(0), 128, 8, false, REC, 0); // line 2 evicts line 0
        m.access(CpuId(0), 0, 8, false, REC, 0); // line 0 again: capacity
        assert_eq!(m.stats().class(AccessClass::CapacityMiss).count, 1);
        assert_eq!(m.stats().class(AccessClass::ColdMiss).count, 3);
        m.check_invariants();
    }

    #[test]
    fn upgrade_pays_farthest_sharer() {
        let lat = LatencyModel::superdome();
        let mut m = system(64);
        m.set_serialize(false);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 0, 8, false, REC, 0); // same chip as 0
        m.access(CpuId(33), 0, 8, false, REC, 0); // different crossbar? 33 -> chip 16, cell 4, crossbar 1
        let l = m.access(CpuId(0), 0, 8, true, REC, 0);
        // Upgrade must pay the remote invalidation (cpu33 is crossbar 1).
        assert_eq!(l, lat.hit + lat.remote);
        assert_eq!(m.stats().class(AccessClass::UpgradeHit).count, 1);
        assert_eq!(m.stats().invalidations, 2);
        m.check_invariants();
    }

    #[test]
    fn dirty_transfer_writes_back() {
        let mut m = system(2);
        m.access(CpuId(0), 0, 8, true, REC, 0); // M in cpu0
        m.access(CpuId(1), 0, 8, false, REC, 0); // read from owner
        assert_eq!(m.stats().writebacks, 1);
        // Both now Shared.
        assert_eq!(
            m.access(CpuId(0), 0, 8, false, REC, 0),
            LatencyModel::superdome().hit
        );
        m.check_invariants();
    }

    #[test]
    fn write_write_pingpong_costs_transfers() {
        let mut m = system(2);
        let lat = LatencyModel::superdome();
        m.access(CpuId(0), 0, 8, true, REC, 0);
        let mut expensive = 0;
        for i in 0..10 {
            let cpu = CpuId((i % 2) as u16);
            let l = m.access(CpuId(1 - cpu.0), 0, 8, true, REC, 0);
            if l >= lat.same_chip {
                expensive += 1;
            }
        }
        assert!(
            expensive >= 9,
            "ping-pong writes should mostly miss ({expensive}/10)"
        );
        m.check_invariants();
    }

    #[test]
    fn multi_line_access_is_split() {
        let mut m = system(1);
        // 16 bytes starting 8 before a line boundary -> two chunks.
        let lat = m.access(CpuId(0), 120, 16, false, REC, 0);
        assert_eq!(m.stats().accesses(), 2);
        assert_eq!(lat, 2 * LatencyModel::superdome().memory);
    }

    #[test]
    fn per_record_attribution() {
        let mut m = system(2);
        let rec = Some(RecordId(7));
        m.access(CpuId(0), 0, 8, false, rec, 0);
        m.access(CpuId(1), 64, 8, true, rec, 0);
        m.access(CpuId(0), 0, 8, false, rec, 0);
        assert_eq!(m.stats().false_sharing_for(RecordId(7)), 1);
        assert_eq!(m.stats().false_sharing_for(RecordId(8)), 0);
    }

    #[test]
    fn exclusive_silent_upgrade() {
        let mut m = system(2);
        m.access(CpuId(0), 0, 8, false, REC, 0); // E
        let l = m.access(CpuId(0), 0, 8, true, REC, 0); // E -> M silently
        assert_eq!(l, LatencyModel::superdome().hit);
        assert_eq!(m.stats().invalidations, 0);
        m.check_invariants();
    }

    #[test]
    fn msi_pays_for_sole_owner_upgrades() {
        let lat = LatencyModel::superdome();
        // MESI: read-then-write of private data is two cheap operations.
        let mut mesi = system(2);
        mesi.access(CpuId(0), 0, 8, false, REC, 0);
        let l = mesi.access(CpuId(0), 0, 8, true, REC, 0);
        assert_eq!(l, lat.hit, "MESI silent E->M upgrade");
        assert_eq!(mesi.stats().class(AccessClass::UpgradeHit).count, 0);

        // MSI: the same sequence pays a directory round trip on the write.
        let mut msi = system(2);
        msi.set_protocol(Protocol::Msi);
        msi.access(CpuId(0), 0, 8, false, REC, 0);
        let l = msi.access(CpuId(0), 0, 8, true, REC, 0);
        assert_eq!(l, lat.hit + lat.memory, "MSI ownership request");
        assert_eq!(msi.stats().class(AccessClass::UpgradeHit).count, 1);
        msi.check_invariants();
    }

    #[test]
    fn msi_never_holds_exclusive() {
        let mut m = system(2);
        m.set_protocol(Protocol::Msi);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.check_invariants();
        // Directly peek the cache state through invariants: a sole reader
        // is Shared under MSI, so a second reader's fetch changes nothing
        // about ownership.
        m.access(CpuId(1), 0, 8, false, REC, 0);
        m.check_invariants();
        assert_eq!(m.stats().invalidations, 0);
    }

    #[test]
    fn sharing_log_records_masks() {
        let mut m = system(2);
        m.set_sharing_log(true);
        // cpu0 reads bytes 0..8; cpu1 writes bytes 64..72; cpu0 rereads.
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 64, 8, true, REC, 0);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        let events = m.sharing_events();
        assert_eq!(events.len(), 1);
        let ev = events[0];
        assert!(ev.false_sharing);
        assert_eq!(ev.reader, CpuId(0));
        assert_eq!(ev.reader_mask, 0xFF);
        assert_eq!(ev.written_mask, 0xFFu128 << 64);
        assert_eq!(ev.line, 0);
        // True sharing is logged too, flagged accordingly.
        m.access(CpuId(1), 0, 8, true, REC, 0);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert_eq!(m.sharing_events().len(), 2);
        assert!(!m.sharing_events()[1].false_sharing);
    }

    #[test]
    fn sharing_log_off_by_default() {
        let mut m = system(2);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        m.access(CpuId(1), 64, 8, true, REC, 0);
        m.access(CpuId(0), 0, 8, false, REC, 0);
        assert!(m.sharing_events().is_empty());
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn wrapping_access_rejected() {
        let mut m = system(1);
        m.access(CpuId(0), u64::MAX - 3, 8, false, REC, 0);
    }

    #[test]
    fn access_ending_at_the_top_of_the_address_space_is_priced() {
        let mut m = system(1);
        let lat = m.access(CpuId(0), u64::MAX - 8, 8, false, REC, 0);
        assert_eq!(lat, LatencyModel::superdome().memory);
        assert_eq!(m.stats().accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_access_rejected() {
        let mut m = system(1);
        m.access(CpuId(0), 0, 0, false, REC, 0);
    }
}
