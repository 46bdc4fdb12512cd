//! The engine's scheduler: which CPU executes the next basic block.
//!
//! The CPU with the smallest `(clock, cpu)` pair runs next, so ties on the
//! clock go to the lowest CPU index. [`Scheduler`] keeps that order in a
//! winner tournament tree over a dense per-CPU clock array: leaf `i` is
//! CPU `i`, and each internal node holds the winner of its two children.
//! Every node stores its winner as one packed key, `clock << 8 | cpu`, so
//! comparing two keys compares `(clock, cpu)` pairs in one instruction
//! and the root is exactly the minimum pair.
//!
//! [`Scheduler::pop`] only reads the root. The caller then re-keys the
//! popped CPU with [`Scheduler::push`] (its new clock) or
//! [`Scheduler::retire`], and that one leaf-to-root replay — `log2(cpus)`
//! compares, 7 at 128 CPUs, each against the sibling's stored winner — is
//! the whole cost of a step. Compared with a binary heap there is no
//! sift-down and no moving of entries.

/// Bits of a packed key that hold the CPU index.
const CPU_BITS: u32 = 8;

/// Key of a retired (or never pushed) CPU; it is never the minimum while
/// any CPU is active.
const RETIRED: u64 = u64::MAX;

/// Clocks must stay below this so that a packed key never reaches
/// [`RETIRED`] (2⁵⁶ − 1 cycles, about two years at 1 GHz).
pub const MAX_CLOCK: u64 = (1 << (64 - CPU_BITS)) - 1;

/// A winner tournament tree over per-CPU clocks, yielding CPUs in
/// ascending `(clock, cpu)` order.
///
/// Each CPU is either *active* (pushed with a clock) or *retired*. The
/// contract mirrors a min-heap holding at most one `(clock, cpu)` entry
/// per CPU: after [`pop`](Scheduler::pop) returns a CPU, the caller must
/// [`push`](Scheduler::push) or [`retire`](Scheduler::retire) that CPU
/// before popping again.
#[derive(Clone, Debug)]
pub struct Scheduler {
    cpus: usize,
    /// The tree in heap order: node 1 is the root, node `n`'s children
    /// are `2n` and `2n + 1`, and CPU `i`'s leaf is node `leaves + i`
    /// (`leaves` = `keys.len() / 2`, a power of two). Each node holds the
    /// smallest key below it; padding leaves hold [`RETIRED`], node 0 is
    /// unused, and with one leaf the root is that leaf.
    keys: Vec<u64>,
}

impl Scheduler {
    /// A scheduler for `cpus` CPUs, all retired.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` exceeds 256.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus <= 1 << CPU_BITS, "at most 256 CPUs");
        let leaves = cpus.max(1).next_power_of_two();
        Scheduler {
            cpus,
            keys: vec![RETIRED; 2 * leaves],
        }
    }

    /// Activates `cpu` (or re-keys it) with clock `time`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range or `time` is not below
    /// [`MAX_CLOCK`].
    #[inline]
    pub fn push(&mut self, cpu: usize, time: u64) {
        assert!(
            time < MAX_CLOCK,
            "clock {time} exceeds the scheduler's range"
        );
        self.set(cpu, time << CPU_BITS | cpu as u64);
    }

    /// Retires `cpu`: it is never popped again unless pushed.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn retire(&mut self, cpu: usize) {
        self.set(cpu, RETIRED);
    }

    /// The active CPU with the smallest `(clock, cpu)`, as that pair, or
    /// `None` when every CPU is retired. The CPU stays in the tree until
    /// the caller pushes or retires it.
    #[inline]
    pub fn pop(&self) -> Option<(u64, usize)> {
        let key = self.keys[1];
        (key != RETIRED).then_some((key >> CPU_BITS, (key & ((1 << CPU_BITS) - 1)) as usize))
    }

    /// Sets leaf `cpu` to `key` and replays the matches on its path to
    /// the root: each node's winner is the smaller of the winner coming
    /// up and the sibling's stored winner.
    #[inline]
    fn set(&mut self, cpu: usize, key: u64) {
        assert!(cpu < self.cpus, "cpu {cpu} out of range");
        let mut node = self.keys.len() / 2 + cpu;
        let mut winner = key;
        self.keys[node] = winner;
        while node > 1 {
            winner = winner.min(self.keys[node ^ 1]);
            node >>= 1;
            self.keys[node] = winner;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_cpu() {
        let mut s = Scheduler::new(1);
        assert_eq!(s.pop(), None);
        s.push(0, 5);
        assert_eq!(s.pop(), Some((5, 0)));
        s.retire(0);
        assert_eq!(s.pop(), None);
        assert_eq!(Scheduler::new(0).pop(), None);
    }

    #[test]
    fn the_largest_clock_and_cpu_pack_below_retired() {
        let mut s = Scheduler::new(256);
        s.push(255, MAX_CLOCK - 1);
        assert_eq!(s.pop(), Some((MAX_CLOCK - 1, 255)));
    }

    #[test]
    #[should_panic(expected = "exceeds the scheduler's range")]
    fn clocks_past_the_range_are_rejected() {
        Scheduler::new(1).push(0, MAX_CLOCK);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn padding_leaves_are_not_cpus() {
        Scheduler::new(3).push(3, 0);
    }

    #[test]
    fn ties_go_to_the_lowest_cpu() {
        let mut s = Scheduler::new(5);
        for cpu in [4, 2, 3] {
            s.push(cpu, 7);
        }
        assert_eq!(s.pop(), Some((7, 2)));
        s.push(2, 8);
        assert_eq!(s.pop(), Some((7, 3)));
        s.retire(3);
        assert_eq!(s.pop(), Some((7, 4)));
        s.push(4, 9);
        assert_eq!(s.pop(), Some((8, 2)));
    }
}
