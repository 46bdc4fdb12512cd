//! The tournament-tree scheduler against a binary-heap oracle.
//!
//! The oracle is the scheduler the engine used to run: a min-heap of
//! `(clock, cpu)` pairs holding at most one entry per active CPU. Both
//! are driven through the engine's protocol — pop the next CPU, then push
//! it back with a new clock or retire it — plus wake-ups of retired CPUs,
//! over 1 to 128 CPUs with clocks drawn from a tiny range so that most
//! pops break a tie. They must yield the same `(clock, cpu)` sequence.

use proptest::prelude::*;
use slopt_sim::Scheduler;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// Each step says what happens to the popped CPU — `kind` 0–5: push
    /// it back `arg` cycles later; 6: re-key it to clock `arg` (possibly
    /// earlier); 7–8: retire it — and, when `wake == 0`, which retired CPU
    /// wakes up with which clock.
    #[test]
    fn tree_pops_in_heap_order(
        cpus in 1usize..129,
        start in prop::collection::vec((0u8..5, 0u64..4), 128),
        steps in prop::collection::vec((0u8..9, 0u64..6, 0u8..5, 0usize..128, 0u64..6), 0..600),
    ) {
        let mut tree = Scheduler::new(cpus);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut active = vec![false; cpus];
        for (cpu, &(skip, t)) in start.iter().take(cpus).enumerate() {
            if skip != 0 {
                tree.push(cpu, t);
                heap.push(Reverse((t, cpu)));
                active[cpu] = true;
            }
        }
        for (kind, arg, wake, wake_cpu, wake_clock) in steps {
            let expected = heap.pop().map(|Reverse(e)| e);
            prop_assert_eq!(tree.pop(), expected);
            if let Some((t, cpu)) = expected {
                let clock = match kind {
                    0..=5 => Some(t + arg),
                    6 => Some(arg),
                    _ => None,
                };
                match clock {
                    Some(c) => {
                        tree.push(cpu, c);
                        heap.push(Reverse((c, cpu)));
                    }
                    None => {
                        tree.retire(cpu);
                        active[cpu] = false;
                    }
                }
            }
            let cpu = wake_cpu % cpus;
            if wake == 0 && !active[cpu] {
                tree.push(cpu, wake_clock);
                heap.push(Reverse((wake_clock, cpu)));
                active[cpu] = true;
            }
        }
        // Drain: the remaining order must agree too.
        while let Some(Reverse((t, cpu))) = heap.pop() {
            prop_assert_eq!(tree.pop(), Some((t, cpu)));
            tree.retire(cpu);
        }
        prop_assert_eq!(tree.pop(), None);
    }
}

#[test]
fn equal_clocks_pop_in_cpu_order_on_a_full_tree() {
    for cpus in [1, 2, 3, 64, 127, 128] {
        let mut tree = Scheduler::new(cpus);
        for cpu in (0..cpus).rev() {
            tree.push(cpu, 42);
        }
        let mut order = Vec::new();
        while let Some((t, cpu)) = tree.pop() {
            assert_eq!(t, 42);
            order.push(cpu);
            tree.retire(cpu);
        }
        assert_eq!(order, (0..cpus).collect::<Vec<_>>());
    }
}
