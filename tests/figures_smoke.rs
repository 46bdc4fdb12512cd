//! Scaled-down versions of the figure experiments, runnable as tests: the
//! paper's headline observations must hold even at test scale.

use slopt::sim::CacheConfig;
use slopt::workload::{
    baseline_layouts, build_kernel, compute_paper_layouts_jobs_obs, layouts_with, measure,
    run_once, AnalysisConfig, Figure, Kernel, LayoutKind, Machine, PaperLayouts, SdetConfig,
    STAT_CLASSES,
};
use slopt_bench::{figure, ExecCtx};
use slopt_obs::Obs;

fn small_sdet() -> SdetConfig {
    SdetConfig {
        scripts_per_cpu: 8,
        invocations_per_script: 10,
        pool_instances: 64,
        cache: CacheConfig {
            line_size: 128,
            sets: 128,
            ways: 4,
        },
        ..SdetConfig::default()
    }
}

/// The kernel, its test-scale workload, and the paper layouts derived
/// from a 16-way measurement run.
fn paper_setup() -> (Kernel, SdetConfig, PaperLayouts) {
    let kernel = build_kernel();
    let sdet = small_sdet();
    let analysis = AnalysisConfig {
        machine: Machine::superdome(16),
        ..AnalysisConfig::default()
    };
    let layouts = compute_paper_layouts_jobs_obs(
        &kernel,
        &sdet,
        &analysis,
        Default::default(),
        1,
        &Obs::disabled(),
    );
    (kernel, sdet, layouts)
}

/// A serial, unsupervised figure grid (2 runs per cell) through the
/// shared runner.
fn measure_figure(
    setup: &(Kernel, SdetConfig, PaperLayouts),
    machine: &Machine,
    kinds: &[LayoutKind],
) -> Figure {
    let (kernel, sdet, layouts) = setup;
    figure(
        &ExecCtx::bare(1),
        "smoke",
        kernel,
        machine,
        sdet,
        2,
        layouts,
        kinds,
        "smoke",
    )
    .expect("no checkpoint, so no I/O")
    .figure
    .expect("no fault plan, so no holes")
}

#[test]
fn fig8_shape_holds_at_test_scale() {
    // A scaled-down "Superdome": 32 CPUs keeps the test fast.
    let machine = Machine::superdome(32);
    let fig = measure_figure(
        &paper_setup(),
        &machine,
        &[LayoutKind::Tool, LayoutKind::SortByHotness],
    );
    let row_a = &fig.rows[0];
    let tool_a = row_a.results[0].1;
    let hotness_a = row_a.results[1].1;
    // At test scale (32 CPUs, tiny scripts) the contention is milder than
    // the full 128-way figure (where the degradation exceeds 2x); the
    // qualitative gap must still be unmistakable.
    assert!(
        hotness_a < -10.0,
        "sort-by-hotness must clearly degrade struct A (got {hotness_a:+.1}%)"
    );
    assert!(
        tool_a - hotness_a > 8.0,
        "the tool layout must beat sort-by-hotness on struct A by a wide margin \
         ({tool_a:+.1}% vs {hotness_a:+.1}%)"
    );
    assert!(
        tool_a > -10.0,
        "the tool layout must stay within a few percent of baseline (got {tool_a:+.1}%)"
    );
    // The other structs must not blow up under the tool layout.
    for row in &fig.rows[1..] {
        let tool = row.results[0].1;
        assert!(
            tool > -10.0,
            "struct {} tool layout regressed by {tool:+.1}%",
            row.letter
        );
    }
}

#[test]
fn tool_layout_always_isolates_struct_a_counters() {
    let (kernel, _, layouts) = paper_setup();
    let a = kernel.records.a;
    let tool = layouts.layout(a, LayoutKind::Tool);
    let flags = kernel.field(a, "flags");
    for k in 0..STAT_CLASSES {
        let stat = kernel.field(a, &format!("stat{k}"));
        assert!(
            !tool.share_line(stat, flags),
            "stat{k} must not share a line with flags"
        );
        for j in (k + 1)..STAT_CLASSES {
            let other = kernel.field(a, &format!("stat{j}"));
            assert!(
                !tool.share_line(stat, other),
                "stat{k} and stat{j} must be separated"
            );
        }
    }
    // And sort-by-hotness does the opposite: at least one counter lands
    // with the hot fields (that is exactly why it collapses).
    let hotness = layouts.layout(a, LayoutKind::SortByHotness);
    let colocated = (0..STAT_CLASSES).any(|k| {
        let stat = kernel.field(a, &format!("stat{k}"));
        hotness.share_line(stat, flags)
            || (0..STAT_CLASSES)
                .any(|j| j != k && hotness.share_line(stat, kernel.field(a, &format!("stat{j}"))))
    });
    assert!(
        colocated,
        "sort-by-hotness must co-locate counters (the failure the paper shows)"
    );
}

#[test]
fn false_sharing_stats_attribute_to_struct_a_under_hotness_layout() {
    let (kernel, sdet, layouts) = paper_setup();
    let a = kernel.records.a;
    let machine = Machine::superdome(32);

    let base_table = baseline_layouts(&kernel, sdet.line_size);
    let hot_table = layouts_with(
        &kernel,
        sdet.line_size,
        a,
        layouts.layout(a, LayoutKind::SortByHotness).clone(),
    );
    // Single-run counts at test scale are tiny (tens of misses), so
    // aggregate a few seeds before comparing: the multiplier then
    // reflects the layout, not one seed's interleaving luck.
    let mut base_misses = 0;
    let mut hot_misses = 0;
    for seed in 5..8 {
        base_misses += run_once(
            &kernel,
            &base_table,
            &machine,
            &sdet,
            seed,
            &mut slopt::sim::NullObserver,
        )
        .stats
        .false_sharing_for(a);
        hot_misses += run_once(
            &kernel,
            &hot_table,
            &machine,
            &sdet,
            seed,
            &mut slopt::sim::NullObserver,
        )
        .stats
        .false_sharing_for(a);
    }

    assert!(
        hot_misses > 20 * base_misses.max(1),
        "hotness layout must multiply struct A's false-sharing misses \
         (baseline {base_misses}, hotness {hot_misses} over 3 seeds)"
    );
}

#[test]
fn fig9_no_blowups_on_small_machine() {
    let fig = measure_figure(&paper_setup(), &Machine::bus(4), &[LayoutKind::Tool]);
    for row in &fig.rows {
        let tool = row.results[0].1;
        assert!(
            tool > -8.0,
            "struct {}: tool layout must not blow up on the 4-way machine ({tool:+.1}%)",
            row.letter
        );
    }
}

#[test]
fn measurement_is_reproducible() {
    let kernel = build_kernel();
    let sdet = small_sdet();
    let machine = Machine::superdome(8);
    let table = baseline_layouts(&kernel, sdet.line_size);
    let a = measure(&kernel, &table, &machine, &sdet, 3, 1);
    let b = measure(&kernel, &table, &machine, &sdet, 3, 1);
    assert_eq!(a.runs, b.runs, "same seeds must give identical run values");
}
