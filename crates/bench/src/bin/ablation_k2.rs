//! Ablation: the CycleLoss constant `k2` (paper §2, `w = k1·CG − k2·CL`).
//!
//! Sweeps `k2` and reports, for struct A (the heavy false-sharing
//! structure), whether the resulting automatic layout still isolates the
//! contended counters from the hot read fields, and the measured
//! throughput difference on the 128-way machine.
//!
//! Expected: with `k2 = 0` the FLG degenerates to the single-threaded
//! affinity layout — counters get packed with the hot fields they are
//! accessed with, and throughput collapses (the sort-by-hotness failure
//! mode). Beyond a modest `k2` the layout stabilizes.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_k2 [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{figure_setup, measure_cells, require_complete, Cell, CommonArgs};
use slopt_core::{suggest_layout, FlgParams, ToolParams};
use slopt_obs::Obs;
use slopt_workload::{analyze, baseline_layouts, layouts_with, loss_for, Machine, STAT_CLASSES};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_k2",
        "CycleLoss constant sweep on struct A (128-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let kernel = &setup.kernel;
    let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
    let a = kernel.records.a;
    let ty = kernel.record_type(a);
    let affinity = slopt_workload::analyze::affinity_for(kernel, &analysis, a);
    let loss = loss_for(kernel, &analysis, a);
    let machine = Machine::superdome(128);
    let k2s = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0];

    // The grid: one baseline cell, then one cell per k2 value. Layout
    // derivation is cheap and stays serial; the measurements dominate.
    let mut cells = vec![Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(kernel, setup.sdet.line_size),
        sdet: setup.sdet.clone(),
        machine: machine.clone(),
    }];
    let mut isolated_flags = Vec::new();
    for k2 in k2s {
        let params = ToolParams {
            flg: FlgParams { k1: 1.0, k2 },
            ..setup.tool
        };
        let suggestion = suggest_layout(ty, &affinity, Some(&loss), params, &Obs::disabled())
            .expect("valid record");
        let flags = kernel.field(a, "flags");
        isolated_flags.push((0..STAT_CLASSES).all(|k| {
            let stat = kernel.field(a, &format!("stat{k}"));
            !suggestion.layout.share_line(stat, flags)
        }));
        cells.push(Cell {
            label: format!("k2={k2}"),
            table: layouts_with(kernel, setup.sdet.line_size, a, suggestion.layout.clone()),
            sdet: setup.sdet.clone(),
            machine: machine.clone(),
        });
    }

    let outcome =
        measure_cells(&ctx, "ablation_k2", kernel, &cells, setup.runs).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let measured = require_complete("ablation_k2", &ctx, &cells, outcome);
    let baseline = &measured[0];

    println!("=== ablation: k2 sweep on struct A (128-way) ===");
    println!(
        "{:>10} {:>22} {:>14}",
        "k2", "counters isolated?", "% vs baseline"
    );
    for ((k2, isolated), t) in k2s.iter().zip(isolated_flags).zip(&measured[1..]) {
        println!(
            "{:>10} {:>22} {:>13.2}%",
            k2,
            if isolated { "yes" } else { "NO" },
            t.pct_vs(baseline)
        );
    }

    ctx.finish();
}
