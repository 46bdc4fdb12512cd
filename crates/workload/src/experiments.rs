//! Experiment drivers that regenerate the paper's figures.
//!
//! The paper's flow, reproduced:
//!
//! 1. One instrumented 16-way run produces PBO + Code Concurrency
//!    ([`compute_paper_layouts_jobs_obs`]). From it, for each of structs
//!    A–E, three layouts are derived: the **tool** layout (automatic FLG
//!    clustering, §5.1), the naïve **sort-by-hotness** layout (§5.1), and
//!    the **constrained** layout (§5.2 important-edge subgraph applied to
//!    the baseline).
//! 2. Each layout replaces that one struct's baseline layout and the
//!    SDET-like workload is measured (warm-up + n runs, trimmed mean) on a
//!    target machine; results are reported as % throughput difference
//!    versus the all-baseline configuration. [`figure_tables`] builds
//!    that grid and [`figure_from_throughputs`] assembles the
//!    [`Figure`]; `slopt_bench::figure` measures it.
//!
//! Figure 8 = {Tool, SortByHotness} on the 128-way machine; Figure 9 = the
//! same layouts on the 4-way machine; Figure 10 = best of {Tool,
//! Constrained} per struct on the 128-way machine.

use crate::analyze::{
    analyze_obs, constrained_for, suggest_for_obs, AnalysisConfig, KernelAnalysis,
};
use crate::kernel::Kernel;
use crate::sdet::{baseline_layouts, layouts_with, SdetConfig, Throughput};
use slopt_core::{sort_by_hotness, Suggestion, ToolParams};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::RecordId;
use slopt_sim::LayoutTable;
use std::collections::HashMap;
use std::fmt;

/// Which transformed layout a measurement used.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum LayoutKind {
    /// Automatic FLG clustering (the paper's tool).
    Tool,
    /// The naïve §5.1 sort-by-hotness heuristic.
    SortByHotness,
    /// The §5.2 constrained edit of the baseline.
    Constrained,
    /// Stochastic portfolio search over the FLG objective (see
    /// [`crate::search`]); not part of the paper's figures, used by the
    /// greedy-vs-search comparison.
    Search,
}

impl fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayoutKind::Tool => "tool",
            LayoutKind::SortByHotness => "sort-by-hotness",
            LayoutKind::Constrained => "constrained",
            LayoutKind::Search => "search",
        };
        f.write_str(s)
    }
}

/// The per-record layouts derived from one measurement run.
#[derive(Debug)]
pub struct PaperLayouts {
    /// The analysis artifacts the layouts came from.
    pub analysis: KernelAnalysis,
    /// Full tool output per record (layout + clustering + report).
    pub suggestions: HashMap<RecordId, Suggestion>,
    /// Sort-by-hotness layout per record.
    pub hotness: HashMap<RecordId, StructLayout>,
    /// Constrained (§5.2) layout per record.
    pub constrained: HashMap<RecordId, StructLayout>,
}

impl PaperLayouts {
    /// The layout of `kind` for `rec`.
    ///
    /// # Panics
    ///
    /// Panics if `rec` is not one of the kernel records, or if `kind` is
    /// [`LayoutKind::Search`] — search layouts are seeded and produced on
    /// demand by [`crate::search::search_for`], not stored here.
    pub fn layout(&self, rec: RecordId, kind: LayoutKind) -> &StructLayout {
        match kind {
            LayoutKind::Tool => &self.suggestions[&rec].layout,
            LayoutKind::SortByHotness => &self.hotness[&rec],
            LayoutKind::Constrained => &self.constrained[&rec],
            LayoutKind::Search => {
                panic!("search layouts are derived on demand by workload::search")
            }
        }
    }
}

/// Runs the measurement run and derives all per-record layouts, with the
/// per-record derivation fanned out over up to `jobs` host threads.
///
/// The instrumented measurement run is a single simulation and stays
/// serial; the per-record work (FLG build, clustering, sort-by-hotness,
/// constrained edit) reads only the shared analysis artifacts and its own
/// record, so records are independent work items. Results are keyed by
/// `RecordId`, so the returned [`PaperLayouts`] is bit-identical for
/// every `jobs` value. The measurement run and the per-record derivation
/// both emit spans and counters to `obs`, and the whole derivation
/// fan-out runs under a `derive_layouts` span (worker threads show up as
/// separate trace thread ids).
pub fn compute_paper_layouts_jobs_obs(
    kernel: &Kernel,
    sdet: &SdetConfig,
    analysis_cfg: &AnalysisConfig,
    tool: ToolParams,
    jobs: usize,
    obs: &slopt_obs::Obs,
) -> PaperLayouts {
    let analysis = analyze_obs(kernel, sdet, analysis_cfg, obs);
    let records = kernel.records.all();
    let derived = {
        let _span = obs.span("derive_layouts");
        slopt_core::par_map(jobs, &records, |_, &(_, rec)| {
            let suggestion = suggest_for_obs(kernel, &analysis, rec, tool, obs);
            let ty = kernel.record_type(rec);
            let hot: Vec<u64> = ty
                .field_indices()
                .map(|f| suggestion.flg.hotness(f))
                .collect();
            let hotness = sort_by_hotness(ty, &hot, tool.layout.line_size).expect("valid record");
            let constrained = constrained_for(kernel, &analysis, rec, tool);
            (rec, suggestion, hotness, constrained)
        })
    };
    let mut suggestions = HashMap::new();
    let mut hotness = HashMap::new();
    let mut constrained = HashMap::new();
    for (rec, suggestion, hot_layout, constrained_layout) in derived {
        suggestions.insert(rec, suggestion);
        hotness.insert(rec, hot_layout);
        constrained.insert(rec, constrained_layout);
    }
    PaperLayouts {
        analysis,
        suggestions,
        hotness,
        constrained,
    }
}

/// One figure row: the % throughput difference vs baseline for each
/// measured layout kind of one struct.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// The struct's display letter (A–E).
    pub letter: char,
    /// The record id.
    pub record: RecordId,
    /// `(kind, % difference vs baseline)` in the order requested.
    pub results: Vec<(LayoutKind, f64)>,
}

/// A measured figure: baseline throughput + per-struct rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Title for display.
    pub title: String,
    /// The all-baseline measurement.
    pub baseline: Throughput,
    /// Per-struct results.
    pub rows: Vec<FigureRow>,
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        writeln!(
            f,
            "baseline throughput: {:.3} scripts/Mcycle",
            self.baseline.mean
        )?;
        if let Some(first) = self.rows.first() {
            write!(f, "{:<8}", "struct")?;
            for (kind, _) in &first.results {
                write!(f, "{:>18}", kind.to_string())?;
            }
            writeln!(f)?;
        }
        for row in &self.rows {
            write!(f, "{:<8}", row.letter)?;
            for (_, pct) in &row.results {
                write!(f, "{:>17.2}%", pct)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Per-transformed-table metadata of a figure grid: struct letter,
/// record, layout kind.
pub type FigureCellMeta = (char, RecordId, LayoutKind);

/// Builds one figure's measurement grid: table 0 is the all-baseline
/// configuration, tables 1.. transform one struct at a time in
/// `(struct, kind)` order. Returns the tables plus the metadata of each
/// transformed table.
///
/// This is the single source of the grid's cell order: `slopt-bench`'s
/// runner builds every figure grid from it, checkpointed or not.
pub fn figure_tables(
    kernel: &Kernel,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    kinds: &[LayoutKind],
) -> (Vec<LayoutTable>, Vec<FigureCellMeta>) {
    let records = kernel.records.all();
    let mut tables = vec![baseline_layouts(kernel, sdet.line_size)];
    let mut cells = Vec::new();
    for &(letter, rec) in &records {
        for &kind in kinds {
            tables.push(layouts_with(
                kernel,
                sdet.line_size,
                rec,
                layouts.layout(rec, kind).clone(),
            ));
            cells.push((letter, rec, kind));
        }
    }
    (tables, cells)
}

/// Assembles a [`Figure`] from per-table throughputs in
/// [`figure_tables`] order: `baseline` is table 0's, `per_table` the
/// transformed tables' (same length and order as `cells`).
///
/// # Panics
///
/// Panics if `per_table` and `cells` lengths disagree.
pub fn figure_from_throughputs(
    title: impl Into<String>,
    cells: &[FigureCellMeta],
    baseline: Throughput,
    per_table: Vec<Throughput>,
) -> Figure {
    assert_eq!(cells.len(), per_table.len(), "one throughput per cell");
    let mut rows: Vec<FigureRow> = Vec::new();
    for (&(letter, rec, kind), t) in cells.iter().zip(per_table) {
        if rows.last().map(|r| r.record) != Some(rec) {
            rows.push(FigureRow {
                letter,
                record: rec,
                results: Vec::new(),
            });
        }
        let row = rows.last_mut().expect("just pushed");
        row.results.push((kind, t.pct_vs(&baseline)));
    }
    Figure {
        title: title.into(),
        baseline,
        rows,
    }
}

/// Figure 10's reduction: for each struct, the best of the automatic and
/// constrained layouts (the paper reports "best performance").
pub fn best_rows(fig: &Figure) -> Vec<(char, LayoutKind, f64)> {
    fig.rows
        .iter()
        .map(|row| {
            let &(kind, pct) = row
                .results
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("pcts are never NaN"))
                .expect("non-empty results");
            (row.letter, kind, pct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::build_kernel;
    use crate::sdet::{measure, Machine};
    use slopt_obs::Obs;
    use slopt_sim::CacheConfig;

    fn tiny() -> (Kernel, SdetConfig, AnalysisConfig) {
        let kernel = build_kernel();
        let sdet = SdetConfig {
            scripts_per_cpu: 4,
            invocations_per_script: 6,
            pool_instances: 24,
            cache: CacheConfig {
                line_size: 128,
                sets: 64,
                ways: 4,
            },
            ..SdetConfig::default()
        };
        let analysis = AnalysisConfig {
            machine: Machine::superdome(8),
            ..AnalysisConfig::default()
        };
        (kernel, sdet, analysis)
    }

    #[test]
    fn paper_layouts_cover_all_records_and_kinds() {
        let (kernel, sdet, acfg) = tiny();
        let layouts = compute_paper_layouts_jobs_obs(
            &kernel,
            &sdet,
            &acfg,
            ToolParams::default(),
            1,
            &Obs::disabled(),
        );
        for (_, rec) in kernel.records.all() {
            for kind in [
                LayoutKind::Tool,
                LayoutKind::SortByHotness,
                LayoutKind::Constrained,
            ] {
                let l = layouts.layout(rec, kind);
                let mut order = l.order().to_vec();
                order.sort();
                assert_eq!(
                    order,
                    kernel.record_type(rec).field_indices().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn figure_grid_reports_every_struct() {
        let (kernel, sdet, acfg) = tiny();
        let layouts = compute_paper_layouts_jobs_obs(
            &kernel,
            &sdet,
            &acfg,
            ToolParams::default(),
            1,
            &Obs::disabled(),
        );
        let machine = Machine::superdome(4);
        let (tables, cells) = figure_tables(&kernel, &sdet, &layouts, &[LayoutKind::Tool]);
        let mut measured = tables
            .iter()
            .map(|t| measure(&kernel, t, &machine, &sdet, 2, 1));
        let baseline = measured.next().expect("table 0 is the baseline");
        let fig = figure_from_throughputs("smoke", &cells, baseline, measured.collect());
        assert_eq!(fig.rows.len(), 5);
        assert!(fig.baseline.mean > 0.0);
        let text = fig.to_string();
        assert!(text.contains("smoke"));
        assert!(text.contains("tool"));
        let best = best_rows(&fig);
        assert_eq!(best.len(), 5);
    }
}
