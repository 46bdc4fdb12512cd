//! The figure workloads: the paper's Figure 8 grid on the 128-way
//! Superdome and the Figure 9 grid on the 4-way bus, serial (`jobs = 1`).
//!
//! Untraced, a run sets up several times (kernel build, measurement run
//! and layout derivation through `compute_paper_layouts_jobs_obs`) and then
//! measures whole grids through `slopt_bench::figure`. Traced, it splits
//! the set-up into the public calls `analyze` is built from, and measures
//! the grid cell by cell, each cell once untraced through
//! `slopt_bench::measure_cells` and once with every `run_once` under its
//! own span, summing the runs' memory statistics.

use crate::layers::{analysis_diff, analyze_split, SimTotals};
use crate::probe::Probe;
use crate::report::{
    another_pass, median, ns_to_ms, pass_seconds, peak_rss_mb, percentile, reset_peak_rss,
    timed_rounds, Digest, Outcome, SETUP_SHARE,
};
use crate::trace::Tracer;
use crate::Opts;
use slopt_bench::{default_figure_setup, figure, measure_cells, Cell, ExecCtx, FigureSetup};
use slopt_obs::Obs;
use slopt_sim::NullObserver;
use slopt_workload::{
    build_kernel, compute_paper_layouts_jobs_obs, figure_from_throughputs, figure_tables,
    measurement_seeds, run_once, suggest_for, Figure, LayoutKind, Machine, PaperLayouts,
    Throughput,
};
use std::io;
use std::time::Instant;

const KINDS: [LayoutKind; 2] = [LayoutKind::Tool, LayoutKind::SortByHotness];

/// One figure workload.
struct Spec {
    name: &'static str,
    scale: usize,
    machine: Machine,
    title: &'static str,
}

impl Spec {
    fn of(workload: &str) -> Spec {
        match workload {
            "fig8_superdome128" => Spec {
                name: "fig8",
                scale: 1,
                machine: Machine::superdome(128),
                title: "Figure 8: automatic layout vs sort-by-hotness (128-way Superdome)",
            },
            _ => Spec {
                name: "fig9",
                scale: 8,
                machine: Machine::bus(4),
                title: "Figure 9: the Figure-8 layouts on a 4-way bus machine",
            },
        }
    }

    /// The figure binaries' set-up at this workload's scale, seeded, serial.
    fn setup(&self, opts: &Opts) -> FigureSetup {
        let mut setup = default_figure_setup(self.scale);
        if opts.tiny {
            setup.sdet.scripts_per_cpu = 2;
            setup.runs = 1;
        }
        setup.sdet.seed = opts.program_seed(setup.sdet.seed, 1);
        setup.analysis.seed = opts.program_seed(setup.analysis.seed, 2);
        setup.jobs = 1;
        setup
    }

    fn layouts(&self, setup: &FigureSetup) -> PaperLayouts {
        compute_paper_layouts_jobs_obs(
            &setup.kernel,
            &setup.sdet,
            &setup.analysis,
            setup.tool,
            setup.jobs,
            &Obs::disabled(),
        )
    }

    /// Grid items of one pass: every table's warm-up plus measured runs.
    fn items(&self, setup: &FigureSetup) -> u64 {
        let tables = 1 + setup.kernel.records.all().len() * KINDS.len();
        (tables * (setup.runs + 1)) as u64
    }

    /// One untraced pass through `slopt_bench::figure`.
    fn figure_pass(
        &self,
        setup: &FigureSetup,
        layouts: &PaperLayouts,
    ) -> io::Result<(String, f64)> {
        let t0 = Instant::now();
        let outcome = figure(
            &ExecCtx::bare(setup.jobs),
            self.name,
            &setup.kernel,
            &self.machine,
            &setup.sdet,
            setup.runs,
            layouts,
            &KINDS,
            self.title,
        )?;
        let secs = t0.elapsed().as_secs_f64();
        let fig = outcome
            .figure
            .ok_or_else(|| io::Error::other("figure grid came back with holes"))?;
        let cells: Vec<(String, Throughput)> = outcome
            .cells
            .into_iter()
            .map(|(label, t)| (label, t.expect("a complete figure has every cell")))
            .collect();
        Ok((render(&fig, &cells), secs))
    }

    /// One traced pass over the grid, cell by cell. Each cell is measured
    /// twice, back to back: untraced through `slopt_bench::measure_cells`,
    /// and traced with every `run_once` under its own span. Interleaving
    /// at cell granularity keeps the two measurements under the same host
    /// load; `flip` swaps which one runs first.
    fn traced_pass(
        &self,
        setup: &FigureSetup,
        layouts: &PaperLayouts,
        tracer: &Tracer,
        flip: bool,
    ) -> io::Result<TracedPass> {
        let (tables, meta) = figure_tables(&setup.kernel, &setup.sdet, layouts, &KINDS);
        let seeds = measurement_seeds(setup.runs);
        let ctx = ExecCtx::bare(setup.jobs);
        let mut pass = TracedPass::default();
        let (mut plain_cells, mut traced_cells) = (Vec::new(), Vec::new());
        for (i, table) in tables.into_iter().enumerate() {
            let label = if i == 0 {
                "baseline".to_string()
            } else {
                let (letter, _, kind) = meta[i - 1];
                format!("{letter}/{kind}")
            };
            let cell = Cell {
                label: label.clone(),
                table,
                sdet: setup.sdet.clone(),
                machine: self.machine.clone(),
            };
            let plain = |pass: &mut TracedPass| -> io::Result<Throughput> {
                let t0 = Instant::now();
                let grid = measure_cells(
                    &ctx,
                    self.name,
                    &setup.kernel,
                    std::slice::from_ref(&cell),
                    setup.runs,
                )?;
                pass.plain_s += t0.elapsed().as_secs_f64();
                grid.measured[0]
                    .clone()
                    .ok_or_else(|| io::Error::other("grid cell came back as a hole"))
            };
            let traced = |pass: &mut TracedPass| -> Throughput {
                let t0 = Instant::now();
                let _cell = tracer.span("bench.cell");
                let mut values = Vec::new();
                for &seed in &seeds {
                    let run = tracer.time("sim.run_once", || {
                        run_once(
                            &setup.kernel,
                            &cell.table,
                            &cell.machine,
                            &cell.sdet,
                            seed,
                            &mut NullObserver,
                        )
                    });
                    pass.totals.add(&run);
                    values.push(run.result.throughput());
                }
                pass.traced_s += t0.elapsed().as_secs_f64();
                // The warm-up run (first seed) is discarded, as in the runner.
                Throughput::from_runs(values[1..].to_vec())
            };
            let (p, t) = if (i % 2 == 0) != flip {
                let p = plain(&mut pass)?;
                (p, traced(&mut pass))
            } else {
                let t = traced(&mut pass);
                (plain(&mut pass)?, t)
            };
            plain_cells.push((label.clone(), p));
            traced_cells.push((label, t));
        }
        let doc = |cells: &[(String, Throughput)]| {
            let per_table = cells[1..].iter().map(|(_, t)| t.clone()).collect();
            let fig = figure_from_throughputs(self.title, &meta, cells[0].1.clone(), per_table);
            render(&fig, cells)
        };
        pass.plain_doc = doc(&plain_cells);
        pass.traced_doc = doc(&traced_cells);
        Ok(pass)
    }
}

/// What one traced pass measured.
#[derive(Default)]
struct TracedPass {
    /// Untraced `measure_cells` time summed over the cells.
    plain_s: f64,
    /// Traced time summed over the cells.
    traced_s: f64,
    plain_doc: String,
    traced_doc: String,
    totals: SimTotals,
}

/// The figure table plus every cell's exact mean, as the run's output
/// document.
fn render(fig: &Figure, cells: &[(String, Throughput)]) -> String {
    let mut doc = format!("{fig}");
    let mut d = Digest::default();
    for (label, t) in cells {
        doc.push_str(&format!("cell {label} mean={:?}\n", t.mean));
        for r in &t.runs {
            d.eat(&r.to_bits().to_le_bytes());
        }
    }
    doc.push_str(&format!("runs-digest {}\n", d.hex()));
    doc
}

fn layouts_equal(kernel: &slopt_workload::Kernel, a: &PaperLayouts, b: &PaperLayouts) -> bool {
    kernel.records.all().iter().all(|&(_, rec)| {
        [
            LayoutKind::Tool,
            LayoutKind::SortByHotness,
            LayoutKind::Constrained,
        ]
        .iter()
        .all(|&k| a.layout(rec, k) == b.layout(rec, k))
    })
}

/// A set-up and the layouts derived from it.
type Derived = (FigureSetup, PaperLayouts);

/// Repeated set-ups (kernel build + measurement run + layout derivation)
/// for `budget` seconds, each recorded as its interval in `spans`.
/// Every repeat must derive the layouts of `reference`, or of the first
/// repeat, which is returned when there is no reference.
fn setup_rounds(
    spec: &Spec,
    opts: &Opts,
    budget: f64,
    reference: Option<&PaperLayouts>,
    spans: &mut Vec<(Instant, Instant)>,
    out: &mut Outcome,
) -> io::Result<Option<Derived>> {
    let mut first: Option<Derived> = None;
    timed_rounds(budget, || {
        let t0 = Instant::now();
        let setup = spec.setup(opts);
        let layouts = spec.layouts(&setup);
        let t1 = Instant::now();
        spans.push((t0, t1));
        out.attempted += 1;
        match reference.or(first.as_ref().map(|(_, l)| l)) {
            Some(r) if !layouts_equal(&setup.kernel, r, &layouts) => {
                out.mismatch("a repeated set-up derived different layouts")
            }
            Some(_) => {}
            None => first = Some((setup, layouts)),
        }
        Ok((t1 - t0).as_secs_f64())
    })?;
    Ok(first)
}

pub fn run(opts: &Opts, tracer: &Tracer, out: &mut Outcome) -> io::Result<()> {
    let spec = Spec::of(&opts.workload);
    if opts.traced {
        return run_traced(opts, &spec, tracer, out);
    }

    // The whole run is single-threaded, so the probe can follow it.
    let probe = Probe::start();
    let burst = opts.seconds * SETUP_SHARE;
    let mut setup_spans = Vec::new();
    let (setup, layouts) = setup_rounds(&spec, opts, burst, None, &mut setup_spans, out)?
        .expect("at least one set-up");
    eprintln!(
        "[slbench] {}: {} set-ups; measuring",
        opts.workload,
        setup_spans.len()
    );

    reset_peak_rss();
    let start = Instant::now();
    let (mut wall_s, mut pass_spans) = (Vec::new(), Vec::new());
    let mut doc: Option<String> = None;
    loop {
        let t0 = Instant::now();
        let (pass_doc, secs) = spec.figure_pass(&setup, &layouts)?;
        pass_spans.push((t0, Instant::now()));
        wall_s.push(secs);
        eprintln!("[slbench] pass {:.3} s", secs);
        out.attempted += spec.items(&setup);
        match &doc {
            None => doc = Some(pass_doc),
            Some(d) if *d != pass_doc => out.mismatch("two passes printed different figures"),
            Some(_) => {}
        }
        if !another_pass(start, pass_seconds(opts.seconds), median(&wall_s)) {
            break;
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    setup_rounds(&spec, opts, burst, Some(&layouts), &mut setup_spans, out)?;
    let norm = |spans: &[(Instant, Instant)]| -> Vec<f64> {
        spans.iter().map(|&(a, b)| probe.normalize(a, b)).collect()
    };
    let (setup_s, pass_s) = (norm(&setup_spans), norm(&pass_spans));
    drop(probe);
    eprintln!(
        "[slbench] passes {:?} s wall, {:?} s reference",
        wall_s, pass_s
    );
    let doc = doc.expect("at least one pass");
    print!("{doc}");
    opts.check_expected(&format!("{}.txt", opts.workload), &doc, out);
    let mut d = Digest::default();
    d.eat(doc.as_bytes());
    println!(
        "digest workload={} seed={} tables={} passes={}",
        opts.workload,
        opts.seed,
        d.hex(),
        pass_s.len()
    );
    out.set("setup_s", median(&setup_s));
    // The measured phase's time per pass. A run holds two or three fig8
    // passes, so the mean uses them all where a median would keep one.
    out.set("run_s", pass_s.iter().sum::<f64>() / pass_s.len() as f64);
    Ok(())
}

fn run_traced(opts: &Opts, spec: &Spec, tracer: &Tracer, out: &mut Outcome) -> io::Result<()> {
    // Set-up, split into the layers' public calls.
    let (setup, analysis, suggested) = {
        let _span = tracer.span("bench.setup");
        let mut setup = spec.setup(opts);
        setup.kernel = tracer.time("ir.build_kernel", build_kernel);
        let (analysis, _) = analyze_split(&setup.kernel, &setup.sdet, &setup.analysis, tracer);
        let suggested: Vec<_> = setup
            .kernel
            .records
            .all()
            .iter()
            .map(|&(_, rec)| {
                let s = tracer.time("core.suggest", || {
                    suggest_for(&setup.kernel, &analysis, rec, setup.tool)
                });
                (rec, s.layout)
            })
            .collect();
        (setup, analysis, suggested)
    };
    // The entry point itself, outside the spans: it repeats the calls
    // above, and must agree with them.
    let layouts = spec.layouts(&setup);
    out.attempted += 1;
    for diff in analysis_diff(&analysis, &layouts.analysis) {
        out.mismatch(format!(
            "composed analysis differs from analyze's in its {diff}"
        ));
    }
    for (rec, layout) in suggested {
        if layout != *layouts.layout(rec, LayoutKind::Tool) {
            out.mismatch(format!(
                "suggest_for({rec:?}) differs from the paper layout"
            ));
        }
    }
    out.set(
        "ir.build_kernel_ms",
        tracer.total_ns("ir.build_kernel") as f64 / 1e6,
    );
    out.set(
        "ir.fmf_build_ms",
        tracer.total_ns("ir.fmf_build") as f64 / 1e6,
    );
    out.set(
        "workload.analyze_ms",
        tracer.total_ns("workload.analyze") as f64 / 1e6,
    );
    out.set(
        "sample.concurrency_map_ms",
        tracer.total_ns("sample.concurrency_map") as f64 / 1e6,
    );
    out.set(
        "core.suggest_ms",
        median(&ns_to_ms(&tracer.durations_ns("core.suggest"))),
    );

    // Measured phase: traced passes over the grid, cell by cell.
    let start = Instant::now();
    let (mut plain_s, mut traced_s, mut sim_sum_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut doc: Option<String> = None;
    let mut totals: Option<SimTotals> = None;
    loop {
        let t0 = Instant::now();
        let before = tracer.total_ns("sim.run_once");
        let pass = spec.traced_pass(&setup, &layouts, tracer, plain_s.len() % 2 == 1)?;
        sim_sum_ms.push((tracer.total_ns("sim.run_once") - before) as f64 / 1e6);
        eprintln!(
            "[slbench] pass: untraced {:.3} s, traced {:.3} s",
            pass.plain_s, pass.traced_s
        );
        plain_s.push(pass.plain_s);
        traced_s.push(pass.traced_s);
        out.attempted += 2 * spec.items(&setup);
        if pass.traced_doc != pass.plain_doc {
            out.mismatch("the traced grid differs from slopt_bench::measure_cells's");
        }
        match &doc {
            None => doc = Some(pass.plain_doc),
            Some(d) if *d != pass.plain_doc => out.mismatch("two passes printed different figures"),
            Some(_) => {}
        }
        match &totals {
            None => totals = Some(pass.totals),
            Some(t) if *t != pass.totals => out.mismatch("sim totals differ between passes"),
            Some(_) => {}
        }
        if !another_pass(
            start,
            pass_seconds(opts.seconds),
            t0.elapsed().as_secs_f64(),
        ) {
            break;
        }
    }
    let doc = doc.expect("at least one pass");
    let totals = totals.expect("at least one pass");
    print!("{doc}");
    print!("{}", totals.render());
    opts.check_expected(&format!("{}.txt", opts.workload), &doc, out);
    opts.check_expected(&format!("{}.sim", opts.workload), &totals.render(), out);
    let (mut dt, mut ds) = (Digest::default(), Digest::default());
    dt.eat(doc.as_bytes());
    ds.eat(totals.render().as_bytes());
    println!(
        "digest workload={} seed={} tables={} sim={} passes={}",
        opts.workload,
        opts.seed,
        dt.hex(),
        ds.hex(),
        plain_s.len()
    );

    let run_once_ms = ns_to_ms(&tracer.durations_ns("sim.run_once"));
    out.set("sim.run_once_p50_ms", percentile(&run_once_ms, 0.5));
    out.set("sim.run_once_p90_ms", percentile(&run_once_ms, 0.9));
    totals.publish(tracer.total_ns("sim.run_once") / plain_s.len() as u64, out);
    out.set(
        "sim_accesses_per_s",
        totals.accesses as f64 / median(&plain_s),
    );
    // Per-pass differences of paired measurements, then their median.
    let per_pass =
        |f: &dyn Fn(usize) -> f64| median(&(0..plain_s.len()).map(f).collect::<Vec<_>>());
    out.set(
        "bench.grid_overhead_ms",
        per_pass(&|i| plain_s[i] * 1e3 - sim_sum_ms[i]),
    );
    out.set(
        "obs.trace_overhead_frac",
        per_pass(&|i| traced_s[i] / plain_s[i] - 1.0),
    );
    Ok(())
}
