//! Developer check: with the noise floor disabled, does the §5.2
//! constrained edit reshuffle the hand-tuned baseline of struct A and
//! lose performance? (Referenced in EXPERIMENTS.md.)

use slopt_bench::default_figure_setup;
use slopt_core::{suggest_constrained, SubgraphParams, ToolParams};
use slopt_ir::layout::StructLayout;
use slopt_workload::{analyze, baseline_layouts, layouts_with, loss_for, measure, Machine};

fn main() {
    let setup = default_figure_setup(2);
    let kernel = &setup.kernel;
    let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
    let a = kernel.records.a;
    let ty = kernel.record_type(a);
    let affinity = slopt_workload::analyze::affinity_for(kernel, &analysis, a);
    let loss = loss_for(kernel, &analysis, a);
    let original = StructLayout::declaration_order(ty, 128).unwrap();

    let machine = Machine::superdome(128);
    let base_table = baseline_layouts(kernel, setup.sdet.line_size);
    let baseline = measure(kernel, &base_table, &machine, &setup.sdet, setup.runs, 1);

    for floor in [0.0, 0.01] {
        let params = ToolParams {
            subgraph: SubgraphParams {
                negative_floor: floor,
                ..SubgraphParams::default()
            },
            ..setup.tool
        };
        let layout = suggest_constrained(ty, &original, &affinity, Some(&loss), params).unwrap();
        let unchanged = layout.order() == original.order();
        let table = layouts_with(kernel, setup.sdet.line_size, a, layout);
        let t = measure(kernel, &table, &machine, &setup.sdet, setup.runs, 1);
        println!(
            "negative_floor = {floor}: order unchanged = {unchanged}, {:+.2}% vs baseline",
            t.pct_vs(&baseline)
        );
    }
}
