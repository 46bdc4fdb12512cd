//! Execution profiles (PBO data): per-block execution counts.
//!
//! The paper's compiler collects precise edge counts in a profile-collect
//! phase and feeds them back ("-ipo + PBO"). Here a [`Profile`] stores
//! block execution counts per function; it is produced either by the
//! reference interpreter ([`crate::interp`]) or by the multiprocessor
//! engine in `slopt-sim`.

use crate::cfg::{BlockId, FuncId};

/// Block execution counts for a program, stored densely: one count per
/// block, in one vector per function, both grown on first use.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    counts: Vec<Vec<u64>>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` executions of `block` in `func`.
    #[inline]
    pub fn record(&mut self, func: FuncId, block: BlockId, n: u64) {
        let f = func.0 as usize;
        if f >= self.counts.len() {
            self.counts.resize_with(f + 1, Vec::new);
        }
        let blocks = &mut self.counts[f];
        let b = block.index();
        if b >= blocks.len() {
            blocks.resize(b + 1, 0);
        }
        blocks[b] += n;
    }

    /// Execution count of `block` in `func` (0 if never executed).
    pub fn count(&self, func: FuncId, block: BlockId) -> u64 {
        self.counts
            .get(func.0 as usize)
            .and_then(|blocks| blocks.get(block.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Merges another profile into this one (summing counts).
    pub fn merge(&mut self, other: &Profile) {
        for ((func, block), n) in other.iter() {
            self.record(func, block, n);
        }
    }

    /// Total number of block executions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Iterates over `((FuncId, BlockId), count)` for every block with a
    /// non-zero count, in ascending `(func, block)` order. These are
    /// exactly the pairs recorded with a non-zero `n`; recording zero
    /// executions adds nothing.
    pub fn iter(&self) -> impl Iterator<Item = ((FuncId, BlockId), u64)> + '_ {
        self.counts.iter().enumerate().flat_map(|(f, blocks)| {
            blocks
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(move |(b, &n)| ((FuncId(f as u32), BlockId(b as u32)), n))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut p = Profile::new();
        let f = FuncId(0);
        p.record(f, BlockId(0), 3);
        p.record(f, BlockId(0), 2);
        p.record(f, BlockId(1), 7);
        assert_eq!(p.count(f, BlockId(0)), 5);
        assert_eq!(p.count(f, BlockId(1)), 7);
        assert_eq!(p.count(f, BlockId(2)), 0);
        assert_eq!(p.count(FuncId(1), BlockId(0)), 0);
        assert_eq!(p.total(), 12);
    }

    #[test]
    fn merge_sums() {
        let mut a = Profile::new();
        let mut b = Profile::new();
        a.record(FuncId(0), BlockId(0), 1);
        b.record(FuncId(0), BlockId(0), 2);
        b.record(FuncId(1), BlockId(3), 4);
        a.merge(&b);
        assert_eq!(a.count(FuncId(0), BlockId(0)), 3);
        assert_eq!(a.count(FuncId(1), BlockId(3)), 4);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn merge_across_different_function_counts() {
        let mut narrow = Profile::new();
        narrow.record(FuncId(0), BlockId(2), 5);
        let mut wide = Profile::new();
        wide.record(FuncId(0), BlockId(0), 1);
        wide.record(FuncId(7), BlockId(9), 3);

        let mut a = narrow.clone();
        a.merge(&wide);
        let mut b = wide.clone();
        b.merge(&narrow);
        for p in [&a, &b] {
            assert_eq!(p.count(FuncId(0), BlockId(0)), 1);
            assert_eq!(p.count(FuncId(0), BlockId(2)), 5);
            assert_eq!(p.count(FuncId(7), BlockId(9)), 3);
            assert_eq!(p.count(FuncId(3), BlockId(0)), 0);
            assert_eq!(p.total(), 9);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn iter_yields_exactly_the_recorded_pairs_in_order() {
        let recorded = [
            ((FuncId(4), BlockId(1)), 2),
            ((FuncId(0), BlockId(3)), 1),
            ((FuncId(4), BlockId(0)), 6),
            ((FuncId(2), BlockId(7)), 9),
        ];
        let mut p = Profile::new();
        for &((f, b), n) in &recorded {
            p.record(f, b, n);
        }
        // Zero executions record nothing.
        p.record(FuncId(9), BlockId(9), 0);
        let mut expected = recorded.to_vec();
        expected.sort();
        assert_eq!(p.iter().collect::<Vec<_>>(), expected);
    }
}
