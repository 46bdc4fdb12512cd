//! Quickstart: the full pipeline on a small program.
//!
//! We declare a struct whose hot loop reads two fields that the
//! declaration order separates, and whose statistics counter is written
//! concurrently by every CPU. The tool should (a) co-locate the loop pair
//! and (b) isolate the counter.
//!
//! Run with: `cargo run --example quickstart` — add
//! `-- --trace-out quickstart.jsonl` for a machine-readable
//! `slopt-trace/1` run trace and `-- --stats` for an aggregate
//! span/counter summary at exit.

use slopt::core::{suggest_layout, ToolParams};
use slopt::ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt::ir::cfg::InstanceSlot;
use slopt::ir::layout::StructLayout;
use slopt::ir::types::{FieldType, PrimType, RecordType, TypeRegistry};
use slopt::obs::Obs;
use slopt::sample::{ConcurrencyConfig, Sampler, SamplerConfig, WindowedConcurrency};
use slopt::sim::{
    CacheConfig, EngineConfig, LatencyModel, LayoutTable, MemSystem, Topology, WorkQueue,
};
use slopt::workload; // only for the doc pointer below

// `pub` so tests/quickstart_smoke.rs and tests/trace_golden.rs can
// include this file as a module and drive it from the test suite.

/// The whole pipeline, instrumented: every phase runs under an
/// [`Obs`] span and publishes its counters, so the exact same code
/// serves `cargo run --example quickstart`, the smoke test (with a
/// disabled handle, cost: one branch per phase) and the golden trace
/// test (with a capturing handle).
pub fn run(obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the record. Declaration order = current layout.
    let mut registry = TypeRegistry::new();
    let rec = registry.add_record(RecordType::new(
        "counters",
        vec![
            ("head", FieldType::Prim(PrimType::Ptr)), // hot loop
            (
                "pad",
                FieldType::Array {
                    elem: PrimType::U64,
                    len: 18,
                },
            ), // 144B of cold stuff
            ("len", FieldType::Prim(PrimType::U64)),  // hot loop (far from head!)
            ("hits", FieldType::Prim(PrimType::U64)), // written by every CPU
        ],
    ));
    let ty = registry.record(rec).clone();
    let head = ty.field_by_name("head").unwrap();
    let len = ty.field_by_name("len").unwrap();
    let hits = ty.field_by_name("hits").unwrap();

    // 2. Write the kernel code: a scan loop (reads head+len) and a bump
    //    (writes hits), both on a shared instance.
    let mut pb = ProgramBuilder::new(registry);
    let mut scan = FunctionBuilder::new("scan");
    let entry = scan.add_block();
    let body = scan.add_block();
    let exit = scan.add_block();
    scan.jump(entry, body);
    scan.read(body, rec, head, InstanceSlot(0))
        .read(body, rec, len, InstanceSlot(0))
        .compute(body, 20)
        .loop_latch(body, body, exit, 16);
    let scan_id = pb.add(scan, entry);

    let mut bump = FunctionBuilder::new("bump");
    let b0 = bump.add_block();
    bump.write(b0, rec, hits, InstanceSlot(0)).compute(b0, 30);
    let bump_id = pb.add(bump, b0);
    let program = pb.finish();

    // 3. Run it on a simulated 16-way machine with the *current* layout,
    //    collecting a profile and PMU-style samples.
    let current = StructLayout::declaration_order(&ty, 128)?;
    let mut layouts = LayoutTable::new();
    layouts.set(rec, current.clone());
    let mut mem = MemSystem::new(
        Topology::superdome(16),
        LatencyModel::superdome(),
        CacheConfig {
            line_size: 128,
            sets: 256,
            ways: 8,
        },
    );
    let shared = 0x10_000u64;
    // Every CPU runs 50 scripts of (scan, bump) on the shared instance.
    let mut queue = WorkQueue::new();
    for _ in 0..50 {
        queue.push_invocation(scan_id, [shared]);
        queue.push_invocation(bump_id, [shared]);
        queue.end_script();
    }
    let mut sampler = Sampler::new(
        16,
        SamplerConfig {
            period: 200,
            max_phase_jitter: 16,
            ..Default::default()
        },
    );
    let result = {
        let _span = obs.span("measure_run");
        slopt::sim::run(
            &program,
            &layouts,
            &mut mem,
            vec![queue; 16],
            &EngineConfig::default(),
            &mut sampler,
        )?
    };
    slopt::sim::publish_mem_stats(mem.stats(), obs);
    slopt::sim::publish_run_result(&result, obs);
    if obs.enabled() {
        obs.counter("sampler.samples", sampler.samples().len() as u64);
        obs.counter("sampler.dropped", sampler.dropped());
    }
    println!(
        "measurement run: {} scripts in {} cycles ({} samples)",
        result.scripts_done,
        result.makespan,
        sampler.samples().len()
    );

    // 4. Analysis: affinity (CycleGain) + Code Concurrency (CycleLoss).
    let affinity = slopt::ir::affinity::AffinityGraph::analyze(&program, &result.profile, rec);
    let mut fold = WindowedConcurrency::new(ConcurrencyConfig { interval: 2_000 }, u64::MAX);
    fold.ingest(sampler.samples());
    let cm = fold.concurrency(1, obs);
    let fmf = {
        let _span = obs.span("fmf_build");
        slopt::ir::fmf::FieldMap::build(&program)
    };
    let loss = slopt::sample::cycle_loss(&cm, &fmf, rec);

    // 5. Ask the tool for a layout and print the advisory.
    let suggestion = suggest_layout(&ty, &affinity, Some(&loss), ToolParams::default(), obs)?;
    println!("\n{}", suggestion.report);
    println!("suggested layout:\n{}", suggestion.layout);

    // The two loop fields end up together; the contended counter is
    // separated from them.
    assert!(
        suggestion.layout.share_line(head, len),
        "scan pair must co-locate"
    );
    assert!(
        !suggestion.layout.share_line(head, hits),
        "counter must be isolated"
    );
    println!("=> scan pair co-located, counter isolated.");
    println!(
        "(For the full five-struct kernel of the paper, see `{}` and the fig8/fig9/fig10 binaries.)",
        std::any::type_name::<workload::Kernel>()
    );
    Ok(())
}

/// CLI entry point: `--trace-out <path>` writes a `slopt-trace/1` JSONL
/// run trace, `--stats` prints the aggregate span/counter summary.
pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = args
        .windows(2)
        .find(|w| w[0] == "--trace-out")
        .map(|w| w[1].as_str());
    let stats = args.iter().any(|a| a == "--stats");
    let obs = slopt::obs::obs_from_flags(trace_out, stats)?;
    run(&obs)?;
    obs.finish();
    if stats && obs.enabled() {
        println!("=== run stats ===");
        print!("{}", obs.summary());
    }
    if let Some(path) = trace_out {
        eprintln!("[quickstart] trace written to {path}");
    }
    Ok(())
}
