//! `engine::run` allocates per run, not per invocation or per frame.
//!
//! A counting global allocator tallies the allocations made on the test
//! thread while `run` executes. Doubling the scripts per CPU doubles the
//! invocations, calls and loop activations the engine works through, but
//! must not change that tally: the work queues are flat, the frames and
//! loop counters live on per-CPU stacks that stop growing at the deepest
//! call, and every table the run builds depends on the program and the
//! machine, not on the amount of work.

use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt_ir::cfg::{FuncId, InstanceSlot, Program};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};
use slopt_sim::{
    run, CacheConfig, EngineConfig, LatencyModel, LayoutTable, MemSystem, NullObserver, Topology,
    WorkQueue,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `outer` loops 3 times over a call to `inner`, which loops 4 times over
/// a branchy read/write of the instance in slot 0.
fn program() -> (Program, LayoutTable, FuncId) {
    let mut reg = TypeRegistry::new();
    let s = reg.add_record(RecordType::new(
        "S",
        vec![
            ("a", FieldType::Prim(PrimType::U64)),
            ("b", FieldType::Prim(PrimType::U64)),
        ],
    ));
    let mut pb = ProgramBuilder::new(reg);
    let mut inner = FunctionBuilder::new("inner");
    let i0 = inner.add_block();
    let body = inner.add_block();
    let wr = inner.add_block();
    let latch = inner.add_block();
    let exit = inner.add_block();
    inner.jump(i0, body);
    inner.read(body, s, FieldIdx(0), InstanceSlot(0));
    inner.branch(body, wr, latch, 0.5);
    inner.write(wr, s, FieldIdx(1), InstanceSlot(0));
    inner.jump(wr, latch);
    inner.compute(latch, 2);
    inner.loop_latch(latch, body, exit, 4);
    let inner_id = pb.add(inner, i0);

    let mut outer = FunctionBuilder::new("outer");
    let o0 = outer.add_block();
    let obody = outer.add_block();
    let oexit = outer.add_block();
    outer.jump(o0, obody);
    outer.call(obody, inner_id);
    outer.loop_latch(obody, obody, oexit, 3);
    let outer_id = pb.add(outer, o0);
    let prog = pb.finish();

    let mut layouts = LayoutTable::new();
    layouts.set(
        s,
        StructLayout::declaration_order(prog.registry().record(s), 128).unwrap(),
    );
    (prog, layouts, outer_id)
}

/// Allocations made by one `run` over `scripts` scripts per CPU on 4
/// CPUs, each CPU on its own instance.
fn allocations(scripts: usize) -> u64 {
    let (prog, layouts, outer) = program();
    let cpus = 4;
    let workload: Vec<WorkQueue> = (0..cpus as u64)
        .map(|cpu| {
            let mut q = WorkQueue::new();
            for _ in 0..scripts {
                q.push_invocation(outer, [0x1_0000 + cpu * 0x1000]);
                q.push_invocation(outer, [0x1_0000 + cpu * 0x1000]);
                q.end_script();
            }
            q
        })
        .collect();
    let mut mem = MemSystem::new(
        Topology::superdome(cpus),
        LatencyModel::superdome(),
        CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
    );
    let before = ALLOCS.with(Cell::get);
    let result = run(
        &prog,
        &layouts,
        &mut mem,
        workload,
        &EngineConfig::default(),
        &mut NullObserver,
    )
    .unwrap();
    let after = ALLOCS.with(Cell::get);
    assert_eq!(result.scripts_done, (cpus * scripts) as u64);
    after - before
}

#[test]
fn run_allocations_do_not_grow_with_the_work() {
    let n = allocations(16);
    let n2 = allocations(32);
    assert_eq!(n, n2, "allocations for 16 vs 32 scripts per CPU");
    // A sanity bound: a few dozen tables, not one per invocation
    // (there are 128 invocations per CPU at 16 scripts).
    assert!(n < 100, "{n} allocations");
}
