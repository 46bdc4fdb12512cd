//! Ablation: the intra-procedural approximation vs. inlining (paper
//! §3.1: "we consider only intra-procedural paths … an aggressive
//! inlining phase before this analysis would alleviate this problem").
//!
//! The kernel's `b_open_close` manipulates the vnode refcount through a
//! helper function, so without inlining the analysis cannot see the
//! `v_flags ↔ v_refcnt` affinity (they are referenced in different
//! procedures). We run the analysis on the raw and the inlined program
//! and compare the recovered affinity, the resulting layouts, and their
//! measured throughput.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_inline [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{default_figure_setup, CommonArgs};
use slopt_ir::inline::InlineParams;
use slopt_workload::{analyze, baseline_layouts, layouts_with, measure, suggest_for, Machine};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_inline",
        "intra-procedural analysis vs inlining (struct B)",
        "",
        &[],
    );
    let setup = default_figure_setup(args.scale);
    let raw = &setup.kernel;
    let inlined = raw.inlined(InlineParams::default());

    let machine = Machine::superdome(128);
    let base_table = baseline_layouts(raw, setup.sdet.line_size);
    let baseline = measure(raw, &base_table, &machine, &setup.sdet, setup.runs, 1);

    println!("=== ablation: intra-procedural analysis vs inlining (struct B) ===");
    for (label, kernel) in [("intra-procedural", raw), ("inlined", &inlined)] {
        let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
        let b = kernel.records.b;
        let affinity = slopt_workload::analyze::affinity_for(kernel, &analysis, b);
        let flags = kernel.field(b, "v_flags");
        let refcnt = kernel.field(b, "v_refcnt");
        let suggestion = suggest_for(kernel, &analysis, b, setup.tool);
        // Measure the layout on the *raw* kernel — the transformation
        // applies to the source either way; only the analysis differs.
        let table = layouts_with(raw, setup.sdet.line_size, b, suggestion.layout.clone());
        let t = measure(raw, &table, &machine, &setup.sdet, setup.runs, 1);
        println!(
            "{label:<18}: affinity(v_flags, v_refcnt) = {:>6}, co-located = {}, {:+.2}% vs baseline",
            affinity.weight(flags, refcnt),
            suggestion.layout.share_line(flags, refcnt),
            t.pct_vs(&baseline)
        );
    }
    println!(
        "(the helper-call structure hides the refcount affinity from the\n\
         intra-procedural pass; inlining recovers it, as §3.1 predicts)"
    );
}
