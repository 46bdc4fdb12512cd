//! Ablation: the Minimum Heuristic (paper §4.1) versus the plain CGO'06
//! group-frequency affinity.
//!
//! The Minimum Heuristic bounds a pair's affinity by the *smaller* of the
//! two fields' access counts in the region (the dynamic weight of any
//! acyclic path containing both). The naive alternative gives every pair
//! in a group the group's execution frequency, overweighting rarely
//! accessed fields that happen to sit in hot loops.
//!
//! We compare the two modes' automatic layouts for every struct on the
//! 128-way machine.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_min_heuristic [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{figure_setup, measure_cells, require_complete, Cell, CommonArgs};
use slopt_core::suggest_layout;
use slopt_ir::affinity::{AffinityGraph, AffinityMode};
use slopt_obs::Obs;
use slopt_workload::{analyze, baseline_layouts, layouts_with, loss_for, Machine};

const MODES: [AffinityMode; 2] = [AffinityMode::Minimum, AffinityMode::GroupFrequency];

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_min_heuristic",
        "Minimum Heuristic vs group-frequency affinity (128-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let kernel = &setup.kernel;
    let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
    let machine = Machine::superdome(128);

    // The grid: one baseline cell, then a (struct × mode) cell block.
    let mut cells = vec![Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(kernel, setup.sdet.line_size),
        sdet: setup.sdet.clone(),
        machine: machine.clone(),
    }];
    for (letter, rec) in kernel.records.all() {
        let ty = kernel.record_type(rec);
        let loss = loss_for(kernel, &analysis, rec);
        for mode in MODES {
            let affinity =
                AffinityGraph::analyze_with_mode(&kernel.program, &analysis.profile, rec, mode);
            let suggestion =
                suggest_layout(ty, &affinity, Some(&loss), setup.tool, &Obs::disabled())
                    .expect("valid record");
            cells.push(Cell {
                label: format!("{letter}/{mode:?}"),
                table: layouts_with(kernel, setup.sdet.line_size, rec, suggestion.layout.clone()),
                sdet: setup.sdet.clone(),
                machine: machine.clone(),
            });
        }
    }

    let outcome = measure_cells(&ctx, "ablation_min_heuristic", kernel, &cells, setup.runs)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let measured = require_complete("ablation_min_heuristic", &ctx, &cells, outcome);
    let baseline = &measured[0];

    println!("=== ablation: Minimum Heuristic vs group-frequency affinity (128-way) ===");
    println!(
        "{:<8} {:>14} {:>18}",
        "struct", "minimum", "group-frequency"
    );
    for (i, (letter, _)) in kernel.records.all().iter().enumerate() {
        let group = &measured[1 + i * MODES.len()..1 + (i + 1) * MODES.len()];
        println!(
            "{letter:<8} {:>13.2}% {:>17.2}%",
            group[0].pct_vs(baseline),
            group[1].pct_vs(baseline)
        );
    }

    ctx.finish();
}
