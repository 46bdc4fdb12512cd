//! Per-CPU set-associative caches with LRU replacement.
//!
//! The cache tracks MESI state per resident line; the coherence protocol
//! itself (who to invalidate, where data comes from) lives in
//! [`crate::coherence`]. Addresses handled here are *line numbers*
//! (`byte_addr / line_size`), not byte addresses.

/// MESI state of a resident cache line (the I state is represented by the
/// line's absence).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only, clean copy.
    Exclusive,
    /// Shared: other caches may hold clean copies too.
    Shared,
}

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct CacheConfig {
    /// Line (and coherence block) size in bytes. Must be a power of two,
    /// at most 128 (the byte bitmaps used for false-sharing classification
    /// are 128 bits wide).
    pub line_size: u64,
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A 4 MiB, 8-way cache of 128-byte lines — roughly the 6 MB Itanium 2
    /// L3 of the paper's machines, at the L2 line/coherence granularity.
    pub fn itanium_l2() -> Self {
        CacheConfig {
            line_size: 128,
            sets: 4096,
            ways: 8,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_size * (self.sets * self.ways) as u64
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (zero/odd sizes).
    pub fn validate(&self) {
        assert!(
            self.line_size.is_power_of_two() && self.line_size <= 128,
            "line size {} must be a power of two <= 128",
            self.line_size
        );
        assert!(
            self.sets.is_power_of_two(),
            "set count {} must be a power of two",
            self.sets
        );
        assert!(self.ways > 0, "associativity must be non-zero");
    }
}

/// Largest line number a tag can hold: tags keep the line in their upper
/// 62 bits. Lines come from byte addresses divided by the line size, so
/// every line size of at least 4 bytes stays within range.
pub const MAX_LINE: u64 = u64::MAX >> 2;

impl Mesi {
    /// The state's tag code. Codes are never zero, so a zero tag is
    /// always an empty way.
    fn code(self) -> u64 {
        match self {
            Mesi::Shared => 1,
            Mesi::Exclusive => 2,
            Mesi::Modified => 3,
        }
    }

    fn from_tag(tag: u64) -> Mesi {
        match tag & 3 {
            1 => Mesi::Shared,
            2 => Mesi::Exclusive,
            _ => Mesi::Modified,
        }
    }
}

fn tag(line: u64, state: Mesi) -> u64 {
    line << 2 | state.code()
}

/// Position of `line` in a set. Resident lines fill each set from the
/// front, so the scan stops at the first empty way.
#[inline]
fn find(set: &[u64], line: u64) -> Option<usize> {
    for (i, &t) in set.iter().enumerate() {
        if t == 0 {
            return None;
        }
        if t >> 2 == line {
            return Some(i);
        }
    }
    None
}

/// The caches of every CPU of a machine: set-associative, LRU, indexed by
/// line number.
///
/// All ways of all CPUs live in one zeroed slab of `cpus × sets × ways`
/// `u64` tags, allocated once. A tag of `0` is an empty way; otherwise it
/// holds `line << 2 | state code`. Each set is kept in recency order:
/// a hit rotates its way to the front, an insert goes in front, an
/// invalidation closes the gap behind it, and eviction takes the last
/// way. Least-recently-used replacement therefore needs no timestamps,
/// and resident lines always occupy a prefix of their set.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    cpus: usize,
    tags: Vec<u64>,
}

impl Cache {
    /// Creates empty caches for `cpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`CacheConfig::validate`]) or if
    /// `cpus` is zero.
    pub fn new(cfg: CacheConfig, cpus: usize) -> Self {
        cfg.validate();
        assert!(cpus > 0, "a cache slab needs at least one CPU");
        Cache {
            cfg,
            cpus,
            tags: vec![0; cpus * cfg.sets * cfg.ways],
        }
    }

    /// The geometry of each CPU's cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    #[inline]
    fn set_start(&self, cpu: usize, line: u64) -> usize {
        assert!(cpu < self.cpus, "cpu {cpu} out of range");
        (cpu * self.cfg.sets + ((line as usize) & (self.cfg.sets - 1))) * self.cfg.ways
    }

    #[inline]
    fn set(&self, cpu: usize, line: u64) -> &[u64] {
        let start = self.set_start(cpu, line);
        &self.tags[start..start + self.cfg.ways]
    }

    #[inline]
    fn set_mut(&mut self, cpu: usize, line: u64) -> &mut [u64] {
        let start = self.set_start(cpu, line);
        &mut self.tags[start..start + self.cfg.ways]
    }

    /// Looks up a line in `cpu`'s cache, making it the most recently
    /// used of its set. Returns its state.
    #[inline]
    pub fn lookup(&mut self, cpu: usize, line: u64) -> Option<Mesi> {
        let set = self.set_mut(cpu, line);
        let pos = find(set, line)?;
        let t = set[pos];
        set.copy_within(0..pos, 1);
        set[0] = t;
        Some(Mesi::from_tag(t))
    }

    /// Peeks at a line's state in `cpu`'s cache without touching LRU.
    pub fn peek(&self, cpu: usize, line: u64) -> Option<Mesi> {
        let set = self.set(cpu, line);
        find(set, line).map(|pos| Mesi::from_tag(set[pos]))
    }

    /// Changes the state of a line resident in `cpu`'s cache, without
    /// touching LRU.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident — a coherence protocol bug.
    pub fn set_state(&mut self, cpu: usize, line: u64, state: Mesi) {
        let set = self.set_mut(cpu, line);
        let pos = find(set, line).expect("set_state on non-resident line");
        set[pos] = tag(line, state);
    }

    /// Inserts a line (which must not be resident) into `cpu`'s cache as
    /// the most recently used of its set, evicting the least recently
    /// used line if the set is full. Returns the evicted `(line, state)`,
    /// if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident or exceeds [`MAX_LINE`].
    pub fn insert(&mut self, cpu: usize, line: u64, state: Mesi) -> Option<(u64, Mesi)> {
        assert!(line <= MAX_LINE, "line {line:#x} exceeds the tag range");
        let set = self.set_mut(cpu, line);
        assert!(
            find(set, line).is_none(),
            "insert of resident line {line:#x}"
        );
        let last = set[set.len() - 1];
        set.copy_within(0..set.len() - 1, 1);
        set[0] = tag(line, state);
        (last != 0).then(|| (last >> 2, Mesi::from_tag(last)))
    }

    /// Removes a line from `cpu`'s cache (coherence invalidation or
    /// external eviction). Returns its state if it was resident.
    pub fn invalidate(&mut self, cpu: usize, line: u64) -> Option<Mesi> {
        let set = self.set_mut(cpu, line);
        let pos = find(set, line)?;
        let t = set[pos];
        set.copy_within(pos + 1.., pos);
        set[set.len() - 1] = 0;
        Some(Mesi::from_tag(t))
    }

    /// The lines resident in `cpu`'s cache with their states, set by set,
    /// most recently used first within a set.
    pub fn lines(&self, cpu: usize) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        assert!(cpu < self.cpus, "cpu {cpu} out of range");
        let per_cpu = self.cfg.sets * self.cfg.ways;
        self.tags[cpu * per_cpu..(cpu + 1) * per_cpu]
            .iter()
            .filter(|&&t| t != 0)
            .map(|&t| (t >> 2, Mesi::from_tag(t)))
    }

    /// Number of lines resident in `cpu`'s cache.
    pub fn resident(&self, cpu: usize) -> usize {
        self.lines(cpu).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(
            CacheConfig {
                line_size: 64,
                sets: 2,
                ways: 2,
            },
            1,
        )
    }

    #[test]
    fn insert_lookup_invalidate_roundtrip() {
        let mut c = tiny();
        assert_eq!(c.lookup(0, 10), None);
        assert_eq!(c.insert(0, 10, Mesi::Exclusive), None);
        assert_eq!(c.lookup(0, 10), Some(Mesi::Exclusive));
        c.set_state(0, 10, Mesi::Modified);
        assert_eq!(c.peek(0, 10), Some(Mesi::Modified));
        assert_eq!(c.invalidate(0, 10), Some(Mesi::Modified));
        assert_eq!(c.lookup(0, 10), None);
        assert_eq!(c.invalidate(0, 10), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.insert(0, 0, Mesi::Shared);
        c.insert(0, 2, Mesi::Shared);
        assert_eq!(c.resident(0), 2);
        // Touch 0 so 2 becomes LRU.
        c.lookup(0, 0);
        let evicted = c.insert(0, 4, Mesi::Shared);
        assert_eq!(evicted, Some((2, Mesi::Shared)));
        assert!(c.peek(0, 0).is_some());
        assert!(c.peek(0, 4).is_some());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.insert(0, 0, Mesi::Shared); // set 0
        c.insert(0, 1, Mesi::Shared); // set 1
        c.insert(0, 2, Mesi::Shared); // set 0
        c.insert(0, 3, Mesi::Shared); // set 1
        assert_eq!(c.resident(0), 4);
        // Set 0 full; inserting another even line evicts an even line.
        let (line, _) = c.insert(0, 4, Mesi::Shared).expect("eviction");
        assert!(line % 2 == 0);
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn double_insert_is_a_bug() {
        let mut c = tiny();
        c.insert(0, 0, Mesi::Shared);
        c.insert(0, 0, Mesi::Shared);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_requires_residency() {
        let mut c = tiny();
        c.set_state(0, 0, Mesi::Shared);
    }

    #[test]
    fn config_capacity_and_validation() {
        let cfg = CacheConfig::itanium_l2();
        assert_eq!(cfg.capacity(), 128 * 4096 * 8);
        cfg.validate();
    }

    #[test]
    fn lines_past_zero_and_at_the_tag_limit_round_trip() {
        let mut c = tiny();
        c.insert(0, 0, Mesi::Modified);
        c.insert(0, MAX_LINE - 1, Mesi::Exclusive);
        assert_eq!(c.peek(0, 0), Some(Mesi::Modified));
        assert_eq!(c.peek(0, MAX_LINE - 1), Some(Mesi::Exclusive));
        // A line past the tag range can never alias a resident one.
        assert_eq!(c.peek(0, MAX_LINE + 1), None);
        assert_eq!(c.peek(0, u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "tag range")]
    fn rejects_lines_past_the_tag_range() {
        tiny().insert(0, MAX_LINE + 1, Mesi::Shared);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        Cache::new(
            CacheConfig {
                line_size: 96,
                sets: 2,
                ways: 1,
            },
            1,
        );
    }
}
