//! The Code Concurrency fold allocates nothing in proportion to its
//! window or to the span of intervals it has seen.
//!
//! A counting global allocator tallies the bytes requested on the test
//! thread. An empty fold costs the same at any window length, and the
//! unbounded fold over two samples `u64::MAX` cycles apart costs the same
//! whether that span is a handful of intervals or `u64::MAX` of them:
//! the store holds one sorted run of occupied cells, never a slot per
//! interval.

use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::source::SourceLine;
use slopt_obs::Obs;
use slopt_sample::{ConcurrencyConfig, Sample, WindowedConcurrency};
use slopt_sim::CpuId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the bytes it requested.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (value, BYTES.with(Cell::get) - before)
}

fn sample(cpu: u16, time: u64, line: u32) -> Sample {
    Sample {
        cpu: CpuId(cpu),
        time,
        func: FuncId(0),
        block: BlockId(0),
        line: SourceLine(line),
    }
}

/// Far below what one slot per interval would cost at the largest
/// window a daemon accepts (2^20 intervals).
const SMALL: u64 = 64 * 1024;

#[test]
fn an_empty_fold_costs_the_same_at_every_window() {
    let cfg = ConcurrencyConfig { interval: 100 };
    let (_, one) = measured(|| WindowedConcurrency::new(cfg, 1));
    for window in [1u64 << 20, u64::MAX] {
        let (fold, bytes) = measured(|| WindowedConcurrency::new(cfg, window));
        assert_eq!(bytes, one, "window {window}: {bytes} bytes");
        assert_eq!(fold.window(), window);
    }
    assert!(one <= SMALL, "{one} bytes");
}

#[test]
fn the_unbounded_fold_costs_the_same_at_any_interval_span() {
    // Times 0 and u64::MAX: u64::MAX intervals apart at interval 1, four
    // intervals apart at interval 2^62.
    let fold_two = |interval: u64| {
        measured(|| {
            let mut fold = WindowedConcurrency::new(ConcurrencyConfig { interval }, u64::MAX);
            fold.ingest(&[sample(0, 0, 1), sample(1, u64::MAX, 2)]);
            let map = fold.concurrency(1, &Obs::disabled());
            (
                fold.accepted(),
                fold.late_dropped(),
                fold.evicted_samples(),
                fold.window_range(),
                map.is_empty(),
            )
        })
    };
    let (wide, wide_bytes) = fold_two(1);
    let (narrow, narrow_bytes) = fold_two(1 << 62);
    assert_eq!(wide, (2, 0, 0, Some((0, u64::MAX)), true));
    assert_eq!(narrow, (2, 0, 0, Some((0, 3)), true));
    assert_eq!(wide_bytes, narrow_bytes);
    assert!(wide_bytes <= SMALL, "{wide_bytes} bytes");
}
