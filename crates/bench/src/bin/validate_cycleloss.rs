//! Validating the CycleLoss *estimate* against measured reality.
//!
//! The paper's central approximation (§3.2) is that Code Concurrency ×
//! Field-Mapping-File join predicts which field pairs would false-share
//! if co-located. The paper could not check this (no hardware measures
//! per-field-pair false sharing); the simulator can. Protocol:
//!
//! 1. Estimate CycleLoss for struct A from a sampled baseline run, as
//!    the tool does.
//! 2. Run the *sort-by-hotness* layout (which actually co-locates the
//!    risky fields) with byte-level sharing-miss logging, and attribute
//!    each false-sharing miss to its (reader field, written field) pair.
//! 3. Compare: does the estimate rank the pairs that actually collide?
//!
//! Usage: `cargo run --release -p slopt-bench --bin validate_cycleloss`

use slopt_bench::{default_figure_setup, parse_scale};
use slopt_obs::Obs;
use slopt_workload::{
    analyze, compute_paper_layouts_jobs_obs, ground_truth_loss, layouts_with, loss_for,
    run_once_logged, LayoutKind, Machine,
};
use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let setup = default_figure_setup(parse_scale(&args));
    let kernel = &setup.kernel;
    let a = kernel.records.a;
    let ty = kernel.record_type(a);

    // 1. The estimate (computed on the baseline layout, before the
    //    dangerous layout exists — exactly the tool's situation).
    let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
    let estimated = loss_for(kernel, &analysis, a);

    // 2. Ground truth under the co-locating layout.
    let paper = compute_paper_layouts_jobs_obs(
        kernel,
        &setup.sdet,
        &setup.analysis,
        setup.tool,
        1,
        &Obs::disabled(),
    );
    let table = layouts_with(
        kernel,
        setup.sdet.line_size,
        a,
        paper.layout(a, LayoutKind::SortByHotness).clone(),
    );
    let machine = Machine::superdome(64);
    let (_, events, instances) = run_once_logged(
        kernel,
        &table,
        &machine,
        &setup.sdet,
        7,
        &mut slopt_sim::NullObserver,
        true,
    );
    let truth = ground_truth_loss(
        &table,
        &instances,
        &events,
        a,
        machine.cpus(),
        setup.sdet.pool_instances,
    );

    println!("=== CycleLoss estimate vs measured false sharing (struct A) ===");
    println!(
        "measured collisions: {} across {} field pairs ({} unresolved)",
        truth.total(),
        truth.pairs().len(),
        truth.unresolved
    );

    println!("\ntop measured pairs vs their estimated CycleLoss:");
    println!(
        "{:<16} {:<16} {:>12} {:>14}",
        "field 1", "field 2", "measured", "estimated"
    );
    for (f1, f2, n) in truth.pairs().iter().take(10) {
        println!(
            "{:<16} {:<16} {:>12} {:>14.1}",
            ty.field(*f1).name(),
            ty.field(*f2).name(),
            n,
            estimated.get(*f1, *f2)
        );
    }

    // 3. Score: recall of the measured top pairs in the estimate's
    //    non-zero set, and top-10 overlap.
    let measured_pairs: Vec<_> = truth.pairs();
    let est_nonzero: HashSet<(u32, u32)> = estimated
        .pairs()
        .into_iter()
        .map(|(x, y, _)| (x.0, y.0))
        .collect();
    let covered = measured_pairs
        .iter()
        .filter(|(x, y, _)| est_nonzero.contains(&(x.0.min(y.0), x.0.max(y.0))))
        .count();
    let recall = if measured_pairs.is_empty() {
        1.0
    } else {
        covered as f64 / measured_pairs.len() as f64
    };
    // The estimate ranks *potential* collisions; ground truth can only
    // contain pairs this particular layout co-located. So restrict the
    // ranking comparison to co-located pairs: of the estimate's top
    // co-located pairs, how many actually collided?
    let layout = table.layout(a);
    let est_top_colocated: Vec<(u32, u32)> = estimated
        .pairs()
        .into_iter()
        .filter(|(x, y, _)| layout.share_line(*x, *y))
        .take(10)
        .map(|(x, y, _)| (x.0, y.0))
        .collect();
    let truth_set: HashSet<(u32, u32)> = measured_pairs
        .iter()
        .map(|(x, y, _)| (x.0.min(y.0), x.0.max(y.0)))
        .collect();
    let precision = if est_top_colocated.is_empty() {
        1.0
    } else {
        est_top_colocated
            .iter()
            .filter(|p| truth_set.contains(p))
            .count() as f64
            / est_top_colocated.len() as f64
    };
    println!(
        "\nestimate covers {:.0}% of measured colliding pairs (recall);",
        recall * 100.0
    );
    println!(
        "of the estimate's top-10 co-located risk pairs, {:.0}% actually collided (precision)",
        precision * 100.0
    );
}
