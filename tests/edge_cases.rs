//! Cross-crate edge cases: degenerate loop trips, extreme branch
//! probabilities, single-field records, minimum machine sizes, empty
//! analyses — the corners a downstream user will eventually hit.

use slopt::core::{cluster, suggest_layout, Flg, ToolParams};
use slopt::ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt::ir::cfg::{BlockId, InstanceSlot, Terminator};
use slopt::ir::interp::profile_invocations;
use slopt::ir::layout::StructLayout;
use slopt::ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType, TypeRegistry};
use slopt::sample::{concurrency_map, ConcurrencyConfig};
use slopt::sim::{
    CacheConfig, EngineConfig, LatencyModel, LayoutTable, MemSystem, Topology, WorkQueue,
};
use slopt_obs::Obs;

#[test]
fn loop_with_trip_one_executes_body_once() {
    let mut pb = ProgramBuilder::new(TypeRegistry::new());
    let mut fb = FunctionBuilder::new("f");
    let b0 = fb.add_block();
    let b1 = fb.add_block();
    fb.loop_latch(b0, b0, b1, 1);
    let id = pb.add(fb, b0);
    let prog = pb.finish();
    let p = profile_invocations(&prog, &[id], 1, 100).unwrap();
    assert_eq!(p.count(id, b0), 1);
    assert_eq!(p.count(id, b1), 1);
}

#[test]
fn loop_with_trip_zero_still_terminates() {
    // trip = 0 is degenerate; the counter reaches 1 >= 0 on first entry,
    // so the body runs once and exits (documented latch semantics).
    let mut pb = ProgramBuilder::new(TypeRegistry::new());
    let mut fb = FunctionBuilder::new("f");
    let b0 = fb.add_block();
    let b1 = fb.add_block();
    fb.loop_latch(b0, b0, b1, 0);
    let id = pb.add(fb, b0);
    let prog = pb.finish();
    let p = profile_invocations(&prog, &[id], 1, 100).unwrap();
    assert_eq!(p.count(id, b1), 1, "must exit");
    assert!(p.count(id, b0) <= 1);
}

#[test]
fn branch_probability_extremes_are_deterministic() {
    for (prob, expect_taken) in [(0.0, false), (1.0, true)] {
        let mut pb = ProgramBuilder::new(TypeRegistry::new());
        let mut fb = FunctionBuilder::new("f");
        let b0 = fb.add_block();
        let taken = fb.add_block();
        let not_taken = fb.add_block();
        fb.branch(b0, taken, not_taken, prob);
        let id = pb.add(fb, b0);
        let prog = pb.finish();
        let p = profile_invocations(&prog, &[id; 50], 9, 10_000).unwrap();
        if expect_taken {
            assert_eq!(p.count(id, taken), 50);
            assert_eq!(p.count(id, not_taken), 0);
        } else {
            assert_eq!(p.count(id, taken), 0);
            assert_eq!(p.count(id, not_taken), 50);
        }
    }
}

#[test]
fn single_field_record_is_trivially_laid_out() {
    let rec = RecordType::new("S", vec![("only", FieldType::Prim(PrimType::U8))]);
    let layout = StructLayout::declaration_order(&rec, 128).unwrap();
    assert_eq!(layout.size(), 1);
    assert_eq!(layout.line_span(), 1);
    let flg = Flg::from_parts(RecordId(0), vec![5], vec![]);
    let clustering = cluster(&flg, &rec, 128, &Obs::disabled());
    assert_eq!(clustering.len(), 1);
    // The whole pipeline handles it too.
    let mut reg = TypeRegistry::new();
    let rid = reg.add_record(rec.clone());
    let mut pb = ProgramBuilder::new(reg);
    let mut fb = FunctionBuilder::new("touch");
    let b = fb.add_block();
    fb.read(b, rid, FieldIdx(0), InstanceSlot(0));
    let f = pb.add(fb, b);
    let prog = pb.finish();
    let profile = profile_invocations(&prog, &[f], 1, 100).unwrap();
    let affinity = slopt::ir::affinity::AffinityGraph::analyze(&prog, &profile, rid);
    let s = suggest_layout(
        &rec,
        &affinity,
        None,
        ToolParams::default(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(s.layout.order(), &[FieldIdx(0)]);
}

#[test]
fn one_cpu_machine_runs_the_engine() {
    let mut reg = TypeRegistry::new();
    let rid = reg.add_record(RecordType::new(
        "S",
        vec![("x", FieldType::Prim(PrimType::U64))],
    ));
    let mut pb = ProgramBuilder::new(reg);
    let mut fb = FunctionBuilder::new("w");
    let b = fb.add_block();
    fb.write(b, rid, FieldIdx(0), InstanceSlot(0));
    let f = pb.add(fb, b);
    let prog = pb.finish();
    let mut layouts = LayoutTable::new();
    layouts.set(
        rid,
        StructLayout::declaration_order(prog.registry().record(rid), 64).unwrap(),
    );
    let mut mem = MemSystem::new(
        Topology::bus(1),
        LatencyModel::bus(),
        CacheConfig {
            line_size: 64,
            sets: 2,
            ways: 1,
        },
    );
    let r = slopt::sim::run(
        &prog,
        &layouts,
        &mut mem,
        vec![{
            let mut queue = WorkQueue::new();
            queue.push_invocation(f, [0x1000]);
            queue.end_script();
            queue
        }],
        &EngineConfig::default(),
        &mut slopt::sim::NullObserver,
    )
    .unwrap();
    assert_eq!(r.scripts_done, 1);
    mem.check_invariants();
}

#[test]
fn empty_sample_set_yields_empty_concurrency() {
    let cm = concurrency_map(&[], &ConcurrencyConfig { interval: 100 });
    assert!(cm.is_empty());
    assert!(cm.top_pairs(5).is_empty());
}

#[test]
fn single_interval_trace_follows_the_minsum_formula() {
    use slopt::ir::cfg::FuncId;
    use slopt::ir::source::SourceLine;
    use slopt::sample::Sample;
    use slopt::sim::CpuId;
    let s = |cpu: u16, time: u64, line: u32| Sample {
        cpu: CpuId(cpu),
        time,
        func: FuncId(0),
        block: BlockId(0),
        line: SourceLine(line),
    };
    // All samples land in interval 0: CPU 0 hits line 1 twice, CPU 1
    // hits line 2 three times. The normalized (line 1, line 2) key
    // accumulates min(2, 3) exactly once across the Σ_{m≠n} CPU sweep.
    let samples = [
        s(0, 10, 1),
        s(0, 20, 1),
        s(1, 30, 2),
        s(1, 40, 2),
        s(1, 50, 2),
    ];
    let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 1_000 });
    assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 2);
    assert_eq!(cm.get(SourceLine(2), SourceLine(1)), 2);
    // Lines never sampled concurrently with themselves across CPUs.
    assert_eq!(cm.get(SourceLine(1), SourceLine(1)), 0);
    assert_eq!(cm.get(SourceLine(2), SourceLine(2)), 0);
    assert_eq!(cm.pairs().len(), 1);
}

#[test]
fn single_cpu_trace_has_no_concurrency() {
    use slopt::ir::cfg::FuncId;
    use slopt::ir::source::SourceLine;
    use slopt::sample::Sample;
    use slopt::sim::CpuId;
    // A serial trace: lots of samples, one CPU. CC requires two distinct
    // CPUs in the same interval, so every pair must stay zero.
    let samples: Vec<Sample> = (0..50)
        .map(|i| Sample {
            cpu: CpuId(0),
            time: i * 37,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine((i % 7) as u32),
        })
        .collect();
    let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
    assert!(cm.pairs().is_empty());
    assert!(cm.top_pairs(3).is_empty());
    for a in 0..7u32 {
        for b in 0..7u32 {
            assert_eq!(cm.get(SourceLine(a), SourceLine(b)), 0);
        }
    }
}

#[test]
fn cpu_count_boundaries() {
    // 128 is the max; the sharer bitmask must work at the edge.
    let mut mem = MemSystem::new(
        Topology::superdome(128),
        LatencyModel::superdome(),
        CacheConfig {
            line_size: 128,
            sets: 4,
            ways: 2,
        },
    );
    let mut now = 0;
    // CPU 127 (highest bit of the u128 mask) reads, CPU 0 writes.
    now += mem.access(slopt::sim::CpuId(127), 0, 8, false, None, now);
    now += mem.access(slopt::sim::CpuId(0), 64, 8, true, None, now);
    let _ = mem.access(slopt::sim::CpuId(127), 0, 8, false, None, now);
    assert_eq!(
        mem.stats()
            .class(slopt::sim::AccessClass::FalseSharingMiss)
            .count,
        1,
        "bit 127 of the sharer mask must be handled"
    );
    mem.check_invariants();
}

#[test]
fn ret_only_function_profiles_cleanly() {
    let mut pb = ProgramBuilder::new(TypeRegistry::new());
    let mut fb = FunctionBuilder::new("nop");
    let b = fb.add_block();
    fb.set_term(b, Terminator::Ret);
    let id = pb.add(fb, b);
    let prog = pb.finish();
    let p = profile_invocations(&prog, &[id, id, id], 1, 100).unwrap();
    assert_eq!(p.count(id, BlockId(0)), 3);
}

#[test]
fn text_format_handles_minimal_program() {
    let prog =
        slopt::ir::text::parse_program("record r { x: u64 }\nfn f { block b { read r.x @0 ret } }")
            .unwrap();
    let printed = slopt::ir::text::print_program(&prog);
    let again = slopt::ir::text::parse_program(&printed).unwrap();
    assert_eq!(again.function_count(), 1);
    assert_eq!(again.registry().len(), 1);
}

#[test]
fn opaque_only_record_survives_the_tool() {
    // A record of two big opaque blobs (e.g. embedded locks): the tool
    // must not panic on fields larger than half a line.
    let rec = RecordType::new(
        "locks",
        vec![
            ("l1", FieldType::Opaque { size: 96, align: 8 }),
            ("l2", FieldType::Opaque { size: 96, align: 8 }),
        ],
    );
    let flg = Flg::from_parts(
        RecordId(0),
        vec![10, 10],
        vec![(FieldIdx(0), FieldIdx(1), -5.0)],
    );
    let clustering = cluster(&flg, &rec, 128, &Obs::disabled());
    assert_eq!(clustering.len(), 2, "negative edge separates the blobs");
    let layout = slopt::core::layout_from_clusters(
        &rec,
        &clustering,
        &flg,
        slopt::core::LayoutOptions::default(),
    )
    .unwrap();
    assert!(!layout.share_line(FieldIdx(0), FieldIdx(1)));
}
