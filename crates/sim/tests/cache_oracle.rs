//! The recency-ordered cache slab against an independent LRU oracle.
//!
//! The oracle is the classic formulation: one growable vector of frames
//! per set, each frame stamped with a global tick on every hit or insert,
//! and eviction of the frame with the smallest stamp. The slab keeps each
//! set in recency order instead and never stores a stamp, so agreement on
//! every return value — evicted victims included — shows that the two
//! replacement orders are the same.

use proptest::prelude::*;
use slopt_sim::cache::MAX_LINE;
use slopt_sim::{Cache, CacheConfig, CpuId, LatencyModel, MemSystem, Mesi, Topology};
use std::collections::HashSet;

#[derive(Copy, Clone, Debug)]
struct Frame {
    line: u64,
    state: Mesi,
    lru: u64,
}

/// One CPU's cache as a vector of frame vectors with tick-stamped LRU.
struct TickLru {
    ways: usize,
    sets: Vec<Vec<Frame>>,
    tick: u64,
}

impl TickLru {
    fn new(sets: usize, ways: usize) -> Self {
        TickLru {
            ways,
            sets: vec![Vec::new(); sets],
            tick: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    fn lookup(&mut self, line: u64) -> Option<Mesi> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let frame = self.sets[set].iter_mut().find(|f| f.line == line)?;
        frame.lru = tick;
        Some(frame.state)
    }

    fn peek(&self, line: u64) -> Option<Mesi> {
        self.sets[self.set_of(line)]
            .iter()
            .find(|f| f.line == line)
            .map(|f| f.state)
    }

    fn set_state(&mut self, line: u64, state: Mesi) {
        let set = self.set_of(line);
        let frame = self.sets[set]
            .iter_mut()
            .find(|f| f.line == line)
            .expect("set_state on non-resident line");
        frame.state = state;
    }

    fn insert(&mut self, line: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        assert!(
            set.iter().all(|f| f.line != line),
            "insert of resident line"
        );
        let evicted = if set.len() == ways {
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.lru)
                .expect("non-empty full set");
            let victim = set.swap_remove(pos);
            Some((victim.line, victim.state))
        } else {
            None
        };
        set.push(Frame {
            line,
            state,
            lru: tick,
        });
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|f| f.line == line)?;
        Some(self.sets[set].swap_remove(pos).state)
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

const STATES: [Mesi; 3] = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared];

/// Line bases: small lines, the first line past the dense directory range,
/// a far line, and the top of the tag range.
const BASES: [u64; 4] = [0, 1 << 24, 1 << 40, MAX_LINE - 32];

/// Sets and ways of every geometry each case runs on.
const GEOMETRY: [usize; 3] = [1, 2, 8];

/// Replays `ops` on a slab and an oracle of the given geometry, comparing
/// every return value. An op is `(kind, line base, line offset, state)`.
fn replay_against_oracle(sets: usize, ways: usize, ops: &[(u8, usize, u64, usize)]) {
    let cfg = CacheConfig {
        line_size: 128,
        sets,
        ways,
    };
    let mut slab = Cache::new(cfg, 1);
    let mut oracle = TickLru::new(sets, ways);
    for (step, &(op, base, off, st)) in ops.iter().enumerate() {
        let line = BASES[base] + off;
        let state = STATES[st];
        let ctx = format!("{sets}x{ways}, step {step}, op {op}, line {line:#x}");
        match op {
            0 => assert_eq!(slab.lookup(0, line), oracle.lookup(line), "{ctx}"),
            1 => assert_eq!(slab.peek(0, line), oracle.peek(line), "{ctx}"),
            2 => {
                // Both reject a double insert; refresh the line instead.
                if oracle.peek(line).is_some() {
                    assert_eq!(slab.lookup(0, line), oracle.lookup(line), "{ctx}");
                } else {
                    assert_eq!(
                        slab.insert(0, line, state),
                        oracle.insert(line, state),
                        "{ctx}"
                    );
                }
            }
            3 => assert_eq!(slab.invalidate(0, line), oracle.invalidate(line), "{ctx}"),
            _ => {
                // Both reject a state change of a non-resident line.
                if oracle.peek(line).is_some() {
                    slab.set_state(0, line, state);
                    oracle.set_state(line, state);
                }
                assert_eq!(slab.peek(0, line), oracle.peek(line), "{ctx}");
            }
        }
        assert_eq!(slab.resident(0), oracle.resident(), "{ctx}");
    }
    let mut held: Vec<(u64, Mesi)> = slab.lines(0).collect();
    let mut expected: Vec<(u64, Mesi)> = oracle
        .sets
        .iter()
        .flatten()
        .map(|f| (f.line, f.state))
        .collect();
    held.sort_by_key(|&(l, _)| l);
    expected.sort_by_key(|&(l, _)| l);
    assert_eq!(held, expected, "{sets}x{ways}: final contents");
}

proptest! {
    /// Random operation sequences give the same answer from the slab and
    /// the oracle at every step, on every geometry.
    #[test]
    fn slab_matches_tick_lru_oracle(
        ops in prop::collection::vec((0u8..5, 0usize..4, 0u64..24, 0usize..3), 1..400),
    ) {
        for sets in GEOMETRY {
            for ways in GEOMETRY {
                replay_against_oracle(sets, ways, &ops);
            }
        }
    }

    /// Each CPU's region of the memory system's slab holds only lines that
    /// CPU itself fetched, and exactly the lines the directory records it
    /// as sharing.
    #[test]
    fn slab_regions_never_hold_another_cpus_lines(
        ops in prop::collection::vec((0u16..4, 0u64..40, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let cpus = 4;
        let mut mem = MemSystem::new(
            Topology::superdome(cpus),
            LatencyModel::superdome(),
            CacheConfig { line_size: 128, sets: 4, ways: 2 },
        );
        let mut fetched: Vec<HashSet<u64>> = vec![HashSet::new(); cpus];
        let mut now = 0;
        for &(cpu, idx, private, write) in &ops {
            // Private lines live in a per-CPU region; the rest are shared.
            let line = if private { 1_000 * (u64::from(cpu) + 1) + idx } else { idx };
            fetched[usize::from(cpu)].insert(line);
            now += mem.access(CpuId(cpu), line * 128, 8, write, None, now);
            for (c, seen) in fetched.iter().enumerate() {
                for (l, _) in mem.cache().lines(c) {
                    prop_assert!(
                        seen.contains(&l),
                        "cpu {}'s region holds line {} it never fetched", c, l
                    );
                }
            }
        }
        mem.check_invariants();
    }
}
