//! End-to-end integration tests: programs with *known* optimal layouts
//! must drive the whole pipeline (profile → sampling → Code Concurrency →
//! CycleLoss → FLG → clustering → layout) to the right answer.

use slopt::core::{suggest_layout, ToolParams};
use slopt::ir::affinity::AffinityGraph;
use slopt::ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt::ir::cfg::{FuncId, InstanceSlot, Program};
use slopt::ir::fmf::FieldMap;
use slopt::ir::layout::StructLayout;
use slopt::ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType, TypeRegistry};
use slopt::sample::{concurrency_map, cycle_loss, ConcurrencyConfig, Sampler, SamplerConfig};
use slopt::sim::{
    CacheConfig, EngineConfig, LatencyModel, LayoutTable, MemSystem, Topology, WorkQueue,
};
use slopt_obs::Obs;

/// Builds a record with `n` u64 fields.
fn record_u64(name: &str, n: usize) -> RecordType {
    RecordType::new(
        name,
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

struct Bench {
    program: Program,
    rec: RecordId,
    funcs: Vec<FuncId>,
}

/// Two writer functions on disjoint fields (false sharing), one scan loop
/// over two other fields (affinity).
fn mixed_workload() -> Bench {
    let mut registry = TypeRegistry::new();
    let rec = registry.add_record(record_u64("S", 8));
    let mut pb = ProgramBuilder::new(registry);
    let mut funcs = Vec::new();

    for field in [0u32, 1] {
        let mut fb = FunctionBuilder::new(format!("w{field}"));
        let e = fb.add_block();
        let body = fb.add_block();
        let x = fb.add_block();
        fb.jump(e, body);
        fb.write(body, rec, FieldIdx(field), InstanceSlot(0))
            .compute(body, 20)
            .loop_latch(body, body, x, 300);
        funcs.push(pb.add(fb, e));
    }
    {
        let mut fb = FunctionBuilder::new("scan");
        let e = fb.add_block();
        let body = fb.add_block();
        let x = fb.add_block();
        fb.jump(e, body);
        fb.read(body, rec, FieldIdx(2), InstanceSlot(0))
            .read(body, rec, FieldIdx(3), InstanceSlot(0))
            .compute(body, 15)
            .loop_latch(body, body, x, 300);
        funcs.push(pb.add(fb, e));
    }
    Bench {
        program: pb.finish(),
        rec,
        funcs,
    }
}

fn run_and_suggest(bench: &Bench) -> slopt::core::Suggestion {
    let ty = bench.program.registry().record(bench.rec).clone();
    let mut layouts = LayoutTable::new();
    layouts.set(
        bench.rec,
        StructLayout::declaration_order(&ty, 128).unwrap(),
    );
    let mut mem = MemSystem::new(
        Topology::superdome(4),
        LatencyModel::superdome(),
        CacheConfig {
            line_size: 128,
            sets: 128,
            ways: 4,
        },
    );
    let shared = 0x4_0000u64;
    // CPU i runs funcs[i % 3] repeatedly against the shared instance.
    let workload: Vec<WorkQueue> = (0..4)
        .map(|cpu: usize| {
            let mut queue = WorkQueue::new();
            for _ in 0..20 {
                queue.push_invocation(bench.funcs[cpu % bench.funcs.len()], [shared]);
                queue.end_script();
            }
            queue
        })
        .collect();
    let mut sampler = Sampler::new(
        4,
        SamplerConfig {
            period: 100,
            max_phase_jitter: 8,
            ..Default::default()
        },
    );
    let result = slopt::sim::run(
        &bench.program,
        &layouts,
        &mut mem,
        workload,
        &EngineConfig::default(),
        &mut sampler,
    )
    .expect("finite workload");
    mem.check_invariants();

    let affinity = AffinityGraph::analyze(&bench.program, &result.profile, bench.rec);
    let cm = concurrency_map(sampler.samples(), &ConcurrencyConfig { interval: 1_000 });
    let fmf = FieldMap::build(&bench.program);
    let loss = cycle_loss(&cm, &fmf, bench.rec);
    suggest_layout(
        &ty,
        &affinity,
        Some(&loss),
        ToolParams::default(),
        &Obs::disabled(),
    )
    .expect("valid record")
}

#[test]
fn contended_writers_are_split_and_scan_pair_colocated() {
    let bench = mixed_workload();
    let s = run_and_suggest(&bench);
    assert!(
        !s.layout.share_line(FieldIdx(0), FieldIdx(1)),
        "concurrently written fields must land on different lines:\n{}",
        s.layout
    );
    assert!(
        s.layout.share_line(FieldIdx(2), FieldIdx(3)),
        "loop-affine fields must share a line:\n{}",
        s.layout
    );
}

#[test]
fn suggested_layout_beats_hotness_packing_under_contention() {
    // Evaluate the suggestion vs a deliberately bad layout (all four hot
    // fields on one line) under the same workload.
    let bench = mixed_workload();
    let ty = bench.program.registry().record(bench.rec).clone();
    let s = run_and_suggest(&bench);

    let run_with = |layout: StructLayout| -> u64 {
        let mut layouts = LayoutTable::new();
        layouts.set(bench.rec, layout);
        let mut mem = MemSystem::new(
            Topology::superdome(4),
            LatencyModel::superdome(),
            CacheConfig {
                line_size: 128,
                sets: 128,
                ways: 4,
            },
        );
        let shared = 0x4_0000u64;
        let workload: Vec<WorkQueue> = (0..4)
            .map(|cpu: usize| {
                let mut queue = WorkQueue::new();
                for _ in 0..20 {
                    queue.push_invocation(bench.funcs[cpu % bench.funcs.len()], [shared]);
                    queue.end_script();
                }
                queue
            })
            .collect();
        slopt::sim::run(
            &bench.program,
            &layouts,
            &mut mem,
            workload,
            &EngineConfig::default(),
            &mut slopt::sim::NullObserver,
        )
        .expect("finite workload")
        .makespan
    };

    let packed = StructLayout::declaration_order(&ty, 128).unwrap();
    let t_suggested = run_with(s.layout.clone());
    let t_packed = run_with(packed);
    assert!(
        t_packed > t_suggested * 3 / 2,
        "suggested layout should clearly beat the packed one: {t_suggested} vs {t_packed}"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let bench = mixed_workload();
    let s1 = run_and_suggest(&bench);
    let s2 = run_and_suggest(&bench);
    assert_eq!(s1.layout.order(), s2.layout.order());
    assert_eq!(s1.clustering, s2.clustering);
}
