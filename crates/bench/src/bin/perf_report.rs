//! `perf_report` — the self-reporting performance harness.
//!
//! Runs five microbenches over the repo's hot paths, each old-vs-new
//! against the retained reference implementations on identical seeds,
//! plus two end-to-end figure grids, and writes `BENCH_sim.json`:
//!
//! 1. **cc_stream** — sharded streaming Code Concurrency
//!    (`shard_concurrency` over `slopt-shard/1` files) vs the *retained*
//!    batch reference `concurrency_map_reference` (the frozen flat
//!    count-tensor pipeline) over the materialized sample vector. The
//!    current batch `concurrency_map` shares its kernel with the
//!    streaming path, so measuring against it would compare the new code
//!    to itself; the frozen reference keeps the old-vs-new story honest.
//!    Streamed, batch, reference and naive maps are all asserted
//!    bit-identical. Runs *first*, and its `peak_rss_kb` is sampled
//!    *before* the reference materializes the samples: because Linux
//!    `VmHWM` is a process-lifetime high-water mark, this is the only
//!    ordering under which the streamed figure reflects streaming alone.
//!    The bench also records `batch_peak_rss_kb` (sampled after the
//!    reference reps) so the report carries the peak-memory comparison
//!    the streaming path exists for.
//! 2. **engine** — full SDET runs (64-way, sized so one `--quick` rep
//!    simulates for at least 50 ms) with the dense paged coherence
//!    directory vs the reference `HashMap` directory
//!    (`MemSystem::set_reference_directory`). Both must agree on the
//!    makespan, the scripts done, all six access-class counters and the
//!    invalidation, writeback and state-transition counts.
//! 3. **cc** — `concurrency_map` (interned lines + flat count tensor) vs
//!    `concurrency_map_naive` (triple-nested maps) on one synthetic
//!    sample stream.
//! 4. **flg_cluster** — dense triangular `Flg` construction + greedy
//!    clustering vs the hash-map `FlgRef` through the same generic
//!    `cluster`.
//! 5. **search_delta** — the annealing search's incremental
//!    `DeltaObjective` (`score_move` per proposal, `apply` on the
//!    accepted ones) vs what a no-delta search pays: cloning the
//!    clustering and re-running the full `clustering_score` on **every**
//!    proposal. Both paths replay one precomputed feasible proposal
//!    trace with a fixed acceptance schedule, and their committed score
//!    traces are asserted bit-identical before the ratio is trusted.
//!    The ratio is emitted as `delta_full_ratio` (and mirrored as
//!    `speedup_vs_reference`); `perf_guard --require-speedup
//!    search_delta:20` enforces the floor. Both sides are serial, so
//!    the floor is never host-core-skipped.
//! 6. **fig9_e2e** — an end-to-end row: the Figure 9 grid (every layout
//!    table × warm-up + measured runs on the 4-way bus) run serially,
//!    one whole grid per rep, at the default figure scale under
//!    `--quick`. It has no reference column; it reports its time plus
//!    `sim_accesses_per_s` and `sim_steps_per_s`, and enters the
//!    `perf_guard` regression gate like every other row.
//! 7. **fig8_e2e** — the same for the Figure 8 grid on the 128-way
//!    Superdome, serial and scaled down (4 scripts per CPU and one
//!    measured run under `--quick`; the `fig8` binary's default sizing
//!    otherwise), sharing `fig9_e2e`'s layout derivation.
//!
//! **Host speed.** The serial timings of the simulator rows — `engine`
//! (dense and reference), `fig9_e2e` and `fig8_e2e` — are in reference
//! seconds: each rep's wall time with a co-pinned probe's share taken
//! out, scaled by how fast a fixed kernel ran around it
//! ([`slopt_bench::probe`], the same kernel as the repository
//! benchmark's). A shared host's core speed moves up to 2× between
//! minutes, which raw wall seconds pass straight into the 10 %
//! regression gate. Those rows also report `dense_wall_total_s`; every
//! row names its unit in `time_unit`. The parallel column is never
//! normalized: the probe pins the measuring thread, so it is dropped
//! before any fan-out.
//!
//! Every comparison asserts bit-identical results before timing is
//! trusted; an equivalence failure aborts with a non-zero exit. Speedups
//! are reported, not enforced. The dense engine bench is also measured
//! fanned over `--jobs N` host threads (via `slopt_core::par_map`) to
//! record the parallel-runner speedup alongside the serial numbers.
//!
//! Flags: `--quick` (smaller workloads, used by ci.sh), `--jobs N`,
//! `--out PATH` (default `BENCH_sim.json`), `--no-reference` (skip the
//! old implementations: faster, but no speedup column).
//!
//! Schema: `slopt-perf-report/5`. Version 2 added a `peak_rss_kb` field
//! per bench — the process's high-water resident set (Linux `VmHWM`,
//! absent elsewhere) sampled right after the bench finishes. Version 3
//! adds per-bench `dense_trimmed_mean_s` / `reference_trimmed_mean_s`
//! (per-rep wall clock with min and max dropped when reps ≥ 3, so the
//! committed baseline is not noise-dominated; `speedup_vs_reference` is
//! their ratio) and a top-level `host_cores` field, so `perf_guard` can
//! tell a missing parallel win from a host that physically cannot show
//! one (wall-clock speedup > 1 needs more cores than workers). Version
//! 4 adds the `search_delta` bench and its `delta_full_ratio` field
//! (the per-proposal cost ratio of full rescoring over delta
//! evaluation). Version 5 adds per-bench `dense_p50_s` / `dense_p99_s`:
//! the per-rep wall clocks folded (at nanosecond resolution) into the
//! same deterministic log2 `slopt_obs::Histogram` the profiling layer
//! uses for span durations, so the committed baseline carries tail
//! behavior alongside the trimmed mean and `trace_diff` deltas can be
//! read against the same quantile rule. Version 6 adds the `fig9_e2e`
//! row and its `sim_accesses_per_s` / `sim_steps_per_s` fields. Version
//! 7 adds the `fig8_e2e` row, the per-bench `time_unit` (`"reference_s"`
//! or `"wall_s"`) and `dense_wall_total_s` on the normalized rows; the
//! `engine`, `fig9_e2e` and `fig8_e2e` timings (and their `sim_*_per_s`
//! rates) are now per reference second. Field names are unchanged, so
//! /1–/6 consumers can read /7 reports by ignoring the new fields, but a
//! /7 time compared with a /6 one mixes units (`perf_guard` refuses).

use slopt_bench::probe::Probe;
use slopt_bench::{CommonArgs, FigureSetup};
use slopt_core::{canonical_cluster_sum, cluster, DeltaObjective, Flg, FlgRef, Move};
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::interp::SplitMix64;
use slopt_ir::source::SourceLine;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
use slopt_obs::Obs;
use slopt_sample::{
    concurrency_map, concurrency_map_naive, concurrency_map_reference, ConcurrencyConfig, Sample,
};
use slopt_sim::{
    AccessClass, CacheConfig, ClassCounts, CpuId, EngineConfig, MemSystem, NullObserver,
};
use slopt_workload::{
    build_kernel, build_scripts, compute_paper_layouts_jobs_obs, figure_tables, measurement_seeds,
    run_once, Instances, Kernel, LayoutKind, Machine, PaperLayouts, SdetConfig, WorkloadSpec,
};
use std::time::Instant;

struct Args {
    quick: bool,
    jobs: usize,
    out: String,
    reference: bool,
}

impl Args {
    fn from_env() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        // `--jobs` comes from the shared execution-context parser, with
        // the bin-specific flags below registered as extras.
        let extras: &[(&str, bool)] = &[
            ("--out", true),
            ("--quick", false),
            ("--no-reference", false),
        ];
        let common = CommonArgs::parse_with(&args, extras).unwrap_or_else(|e| {
            eprintln!("perf_report: {e}");
            std::process::exit(i32::from(slopt_fault::exit::USAGE));
        });
        let out = args
            .windows(2)
            .find(|w| w[0] == "--out")
            .map(|w| w[1].clone())
            .unwrap_or_else(|| "BENCH_sim.json".to_string());
        Args {
            quick: args.iter().any(|a| a == "--quick"),
            jobs: common.jobs,
            out,
            reference: !args.iter().any(|a| a == "--no-reference"),
        }
    }
}

/// One microbench's measurements, all in seconds of wall clock.
struct BenchResult {
    name: &'static str,
    /// What one repetition processes (for the report only).
    work: String,
    reps: usize,
    /// Per-rep wall clock of the dense implementation, serial.
    dense_s: Vec<f64>,
    /// Per-rep wall clock of the reference implementation, serial
    /// (empty under `--no-reference`).
    reference_s: Vec<f64>,
    /// Total wall clock of all dense reps fanned over `--jobs` threads
    /// (engine bench only; `None` elsewhere).
    dense_jobs_s: Option<f64>,
    jobs: usize,
    /// Peak resident set size (Linux `VmHWM`, kB) sampled right after the
    /// bench; `None` on platforms without `/proc/self/status`. VmHWM is a
    /// process-lifetime high-water mark, so per-bench values are
    /// monotonically non-decreasing in run order.
    peak_rss_kb: Option<u64>,
    /// `cc_stream` only: the high-water mark after the batch reference
    /// materialized the full sample vector (the figure `peak_rss_kb`
    /// deliberately excludes).
    batch_peak_rss_kb: Option<u64>,
    /// `search_delta` only: per-proposal cost ratio of the full-rescore
    /// reference over delta evaluation (the number `perf_guard` floors).
    delta_full_ratio: Option<f64>,
    /// End-to-end rows only: simulated accesses and engine steps per
    /// second (of `dense_s`'s unit) over all dense reps.
    sim_rates: Option<SimRates>,
    /// Rows normalized to reference seconds only: per-rep wall clock of
    /// the dense reps (empty for rows timed in wall seconds).
    dense_wall_s: Vec<f64>,
}

/// Simulator throughput of an end-to-end row.
struct SimRates {
    accesses_per_s: f64,
    steps_per_s: f64,
}

/// The process's peak resident set size in kilobytes, from the `VmHWM`
/// line of `/proc/self/status`; `None` on non-Linux platforms.
fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Mean of the reps with the minimum and maximum dropped (when reps ≥ 3;
/// the plain mean below that). One outlier rep — a scheduler hiccup, a
/// page-cache miss — cannot move the committed baseline.
fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return xs.iter().sum::<f64>() / xs.len() as f64;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let inner = &v[1..v.len() - 1];
    inner.iter().sum::<f64>() / inner.len() as f64
}

impl BenchResult {
    fn dense_total(&self) -> f64 {
        self.dense_s.iter().sum()
    }
    fn reference_total(&self) -> f64 {
        self.reference_s.iter().sum()
    }
    /// Per-rep dense wall clocks folded into the deterministic log2
    /// histogram at nanosecond resolution — the same structure (and
    /// therefore the same quantile rule) the profiling layer uses for
    /// span durations, so report quantiles and `trace_diff` deltas are
    /// comparable like for like.
    fn dense_hist(&self) -> slopt_obs::Histogram {
        let mut h = slopt_obs::Histogram::new();
        for &s in &self.dense_s {
            h.record((s * 1e9) as u64);
        }
        h
    }
    /// Trimmed-mean ratio of reference over dense — robust to one noisy
    /// rep on either side.
    fn speedup(&self) -> Option<f64> {
        if self.reference_s.is_empty() {
            None
        } else {
            Some(trimmed_mean(&self.reference_s) / trimmed_mean(&self.dense_s))
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Runs `f` on the probe's pinned thread: its value, its time in
/// reference seconds and its wall time.
fn time_ref<T>(probe: &Probe, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    (v, probe.normalize(t0, t1), (t1 - t0).as_secs_f64())
}

// ------------------------------------------------------------- cc_stream

fn bench_cc_stream(args: &Args) -> BenchResult {
    // Same stream shape as the batch `cc` bench, but the samples are
    // generated shard by shard and never held in memory at once: peak
    // working set is one shard plus the sorted cell run. Quick mode keeps
    // its wall clock by shrinking the sample count, not the rep count —
    // the trimmed mean needs ≥ 5 reps to be meaningful.
    let (n, intervals, shard_size) = if args.quick {
        (40_960usize, 80u64, 8_192usize)
    } else {
        (600_000, 1_000, 32_768)
    };
    let cfg = ConcurrencyConfig { interval: 1_000 };
    let span = intervals * cfg.interval;
    let reps = if args.quick { 6 } else { 5 };

    let dir = std::env::temp_dir().join(format!("slopt_perf_ccstream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard dir");
    let n_shards = n.div_ceil(shard_size);
    for i in 0..n_shards {
        let count = shard_size.min(n - i * shard_size);
        let mut chunk = synth_samples(count, 16, 400, span, 0xCC57 + i as u64);
        chunk.sort_by_key(|s| s.time);
        slopt_sample::write_shard(&dir.join(slopt_sample::shard_file_name(i)), &chunk)
            .expect("write shard");
    }

    let mut dense_s = Vec::new();
    let mut streamed = None;
    for _ in 0..reps {
        let (out, td) = time(|| {
            slopt_sample::shard_concurrency(&dir, cfg, 1, &Obs::disabled()).expect("stream")
        });
        dense_s.push(td);
        assert_eq!(out.1.samples as usize, n, "stream must ingest every sample");
        assert_eq!(out.1.shards_skipped, 0, "no shard may be skipped");
        streamed = Some(out.0);
    }
    let streamed = streamed.expect("at least one rep");
    // Fanned finish, for the parallel column; must be bit-identical. The
    // equivalence check sorts every non-zero pair, which at --quick scale
    // costs more than the fold itself — asserting outside the timed
    // region keeps the parallel column about the fold, like the serial
    // column above.
    let (fanned, jobs_total) = time(|| {
        (0..reps)
            .map(|_| {
                slopt_sample::shard_concurrency(&dir, cfg, args.jobs, &Obs::disabled())
                    .expect("stream")
                    .0
            })
            .collect::<Vec<_>>()
    });
    for out in &fanned {
        assert_eq!(
            out.pairs(),
            streamed.pairs(),
            "streaming diverged across --jobs"
        );
    }

    // Sample the high-water mark *before* the batch reference materializes
    // the full sample vector — VmHWM never goes back down.
    let stream_rss = peak_rss_kb();

    let mut reference_s = Vec::new();
    let mut batch_rss = None;
    if args.reference {
        let mut samples = Vec::with_capacity(n);
        for i in 0..n_shards {
            let count = shard_size.min(n - i * shard_size);
            samples.extend(synth_samples(count, 16, 400, span, 0xCC57 + i as u64));
        }
        samples.sort_by_key(|s| s.time);
        // Timed old-vs-new: the frozen tensor-pipeline reference. The
        // current batch path shares the blocked kernel with streaming, so
        // it is checked for equivalence but not used as the baseline.
        for _ in 0..reps {
            let (reference, tr) = time(|| concurrency_map_reference(&samples, &cfg));
            reference_s.push(tr);
            assert_eq!(
                streamed.pairs(),
                reference.pairs(),
                "streamed and reference concurrency maps disagree"
            );
        }
        // Full equivalence chain, once: streamed ≡ batch ≡ naive.
        let batch = concurrency_map(&samples, &cfg);
        assert_eq!(
            streamed.pairs(),
            batch.pairs(),
            "streamed and batch concurrency maps disagree"
        );
        let naive = concurrency_map_naive(&samples, &cfg);
        assert_eq!(
            batch.pairs(),
            naive.pairs(),
            "batch and naive concurrency maps disagree"
        );
        batch_rss = peak_rss_kb();
    }
    let _ = std::fs::remove_dir_all(&dir);

    BenchResult {
        name: "cc_stream",
        work: format!("{n} samples, {n_shards} shards of {shard_size}, {intervals} intervals"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: Some(jobs_total),
        jobs: args.jobs,
        peak_rss_kb: stream_rss,
        batch_peak_rss_kb: batch_rss,
        delta_full_ratio: None,
        sim_rates: None,
        dense_wall_s: Vec::new(),
    }
}

// ---------------------------------------------------------------- engine

/// What the dense and reference directories must agree on for one run:
/// the engine outcome and every memory-system counter.
#[derive(Debug, PartialEq)]
struct EngineFingerprint {
    makespan: u64,
    scripts: u64,
    classes: [ClassCounts; AccessClass::ALL.len()],
    invalidations: u64,
    writebacks: u64,
    state_transitions: u64,
}

/// One full SDET run with the directory kind chosen up front; returns the
/// engine fingerprint used for the dense-vs-reference equivalence check.
fn engine_run(
    kernel: &Kernel,
    machine: &Machine,
    cfg: &SdetConfig,
    seed: u64,
    reference: bool,
) -> EngineFingerprint {
    let cpus = machine.cpus();
    let layouts = slopt_workload::baseline_layouts(kernel, cfg.line_size);
    let instances = Instances::allocate(kernel, &layouts, cpus, cfg);
    let scripts = build_scripts(kernel, &instances, cpus, cfg, seed);
    let mut mem = MemSystem::new(machine.topo.clone(), machine.lat, cfg.cache);
    mem.set_protocol(cfg.protocol);
    mem.set_reference_directory(reference);
    let engine_cfg = EngineConfig {
        seed,
        ..EngineConfig::default()
    };
    let result = slopt_sim::run(
        kernel.program(),
        &layouts,
        &mut mem,
        scripts,
        &engine_cfg,
        &mut NullObserver,
    )
    .expect("finite workload exceeded engine step bound");
    let stats = mem.stats();
    EngineFingerprint {
        makespan: result.makespan,
        scripts: result.scripts_done,
        classes: AccessClass::ALL.map(|c| stats.class(c)),
        invalidations: stats.invalidations,
        writebacks: stats.writebacks,
        state_transitions: stats.state_transitions,
    }
}

fn bench_engine(args: &Args) -> BenchResult {
    // Sized so one --quick rep simulates for at least 50 ms on a 2-core
    // x86-64 host: shorter reps time the allocator and the scheduler more
    // than the engine.
    let kernel = build_kernel();
    let cfg = SdetConfig {
        scripts_per_cpu: if args.quick { 64 } else { 256 },
        pool_instances: if args.quick { 64 } else { 256 },
        cache: CacheConfig {
            line_size: 128,
            sets: 256,
            ways: 8,
        },
        ..SdetConfig::default()
    };
    let machine = Machine::superdome(64);
    let runs = if args.quick { 3 } else { 6 };
    let seeds = measurement_seeds(runs);

    let mut dense_s = Vec::new();
    let mut dense_wall_s = Vec::new();
    let mut reference_s = Vec::new();
    let probe = Probe::start();
    for &seed in &seeds {
        let (dense, td, wd) = time_ref(&probe, || engine_run(&kernel, &machine, &cfg, seed, false));
        dense_s.push(td);
        dense_wall_s.push(wd);
        if args.reference {
            let (refr, tr, _) =
                time_ref(&probe, || engine_run(&kernel, &machine, &cfg, seed, true));
            reference_s.push(tr);
            assert_eq!(
                dense, refr,
                "dense and reference directory disagree on seed {seed}"
            );
        }
    }
    // The probe pins this thread; the fan-out must not inherit the pin.
    drop(probe);

    // The same dense runs fanned over host threads, for the parallel
    // wall-clock column.
    let (par_results, jobs_total) = time(|| {
        slopt_core::par_map(args.jobs, &seeds, |i, &seed| {
            let _ = i;
            engine_run(&kernel, &machine, &cfg, seed, false)
        })
    });
    for (i, &seed) in seeds.iter().enumerate() {
        let serial = engine_run(&kernel, &machine, &cfg, seed, false);
        assert_eq!(
            par_results[i], serial,
            "parallel engine run diverged on seed {seed}"
        );
    }

    BenchResult {
        name: "engine",
        work: format!(
            "sdet 64-way, {} scripts/cpu, {} seeds",
            cfg.scripts_per_cpu,
            seeds.len()
        ),
        reps: seeds.len(),
        dense_s,
        reference_s,
        dense_jobs_s: Some(jobs_total),
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        batch_peak_rss_kb: None,
        delta_full_ratio: None,
        sim_rates: None,
        dense_wall_s,
    }
}

// ------------------------------------------------------ fig9_e2e / fig8_e2e

/// A figure setup with the layouts its grids compare.
type Derived = (FigureSetup, PaperLayouts);

/// The layouts the figure grids compare, derived once (the 16-way
/// measurement run) outside every timed region.
fn e2e_layouts(args: &Args) -> Derived {
    let setup = slopt_bench::default_figure_setup(if args.quick { 1 } else { 4 });
    let layouts = compute_paper_layouts_jobs_obs(
        &setup.kernel,
        &setup.sdet,
        &setup.analysis,
        setup.tool,
        1,
        &Obs::disabled(),
    );
    (setup, layouts)
}

/// One figure grid end to end and serial, as the figure binary runs it
/// at `--jobs 1`: every layout table × (warm-up + `runs` measured runs)
/// on `machine`, one whole grid per rep, in reference seconds.
fn bench_grid(
    args: &Args,
    name: &'static str,
    (setup, layouts): &Derived,
    machine: &Machine,
    sdet: &SdetConfig,
    runs: usize,
) -> BenchResult {
    let kinds = [LayoutKind::Tool, LayoutKind::SortByHotness];
    let (tables, _) = figure_tables(&setup.kernel, sdet, layouts, &kinds);
    let seeds = measurement_seeds(runs);
    let reps = 3;

    let mut dense_s = Vec::new();
    let mut dense_wall_s = Vec::new();
    let mut totals: Option<(u64, u64)> = None;
    let probe = Probe::start();
    for _ in 0..reps {
        let ((accesses, steps), td, wd) = time_ref(&probe, || {
            let (mut accesses, mut steps) = (0u64, 0u64);
            for table in &tables {
                for &seed in &seeds {
                    let run =
                        run_once(&setup.kernel, table, machine, sdet, seed, &mut NullObserver);
                    accesses += run.stats.accesses();
                    steps += run.result.steps;
                }
            }
            (accesses, steps)
        });
        dense_s.push(td);
        dense_wall_s.push(wd);
        assert_eq!(
            *totals.get_or_insert((accesses, steps)),
            (accesses, steps),
            "{name} grid is not deterministic across reps"
        );
    }
    drop(probe);
    let (accesses, steps) = totals.expect("at least one rep");
    let busy: f64 = dense_s.iter().sum();
    BenchResult {
        name,
        work: format!(
            "{name} grid serial, {} tables x {} runs (+warm-up), {} scripts/cpu",
            tables.len(),
            runs,
            sdet.scripts_per_cpu
        ),
        reps,
        dense_s,
        reference_s: Vec::new(),
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        batch_peak_rss_kb: None,
        delta_full_ratio: None,
        sim_rates: Some(SimRates {
            accesses_per_s: (accesses * reps as u64) as f64 / busy,
            steps_per_s: (steps * reps as u64) as f64 / busy,
        }),
        dense_wall_s,
    }
}

/// The Figure 9 grid on the 4-way bus at the default figure scale under
/// `--quick`.
fn bench_fig9_e2e(args: &Args, derived: &Derived) -> BenchResult {
    let setup = &derived.0;
    bench_grid(
        args,
        "fig9_e2e",
        derived,
        &Machine::bus(4),
        &setup.sdet,
        setup.runs,
    )
}

/// The Figure 8 grid on the 128-way Superdome: 4 scripts per CPU and
/// one measured run under `--quick`, the `fig8` binary's default sizing
/// otherwise (a grid at `fig9_e2e`'s full scale takes ~30 s on a 2-core
/// x86-64 host).
fn bench_fig8_e2e(args: &Args, derived: &Derived) -> BenchResult {
    let fig8 = slopt_bench::default_figure_setup(1);
    let (scripts_per_cpu, runs) = if args.quick {
        (4, 1)
    } else {
        (fig8.sdet.scripts_per_cpu, fig8.runs)
    };
    let sdet = SdetConfig {
        scripts_per_cpu,
        ..derived.0.sdet.clone()
    };
    bench_grid(
        args,
        "fig8_e2e",
        derived,
        &Machine::superdome(128),
        &sdet,
        runs,
    )
}

// -------------------------------------------------------------------- cc

/// Deterministic synthetic sample stream: `cpus` CPUs sampled across
/// `intervals` intervals over `lines` distinct source lines.
fn synth_samples(n: usize, cpus: u16, lines: u32, span: u64, seed: u64) -> Vec<Sample> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Sample {
            cpu: CpuId((rng.next_u64() % cpus as u64) as u16),
            time: rng.next_u64() % span,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine((rng.next_u64() % lines as u64) as u32),
        })
        .collect()
}

fn bench_cc(args: &Args) -> BenchResult {
    // The naive formulation is quadratic in samples-per-interval, so the
    // full mode grows the interval count with the stream, keeping density
    // (and the per-interval cost ratio) fixed.
    let (n, intervals) = if args.quick {
        (60_000, 100u64)
    } else {
        (600_000, 1_000)
    };
    let cfg = ConcurrencyConfig { interval: 1_000 };
    let samples = synth_samples(n, 16, 400, intervals * cfg.interval, 0xCC);
    let reps = if args.quick { 2 } else { 3 };

    let mut dense_s = Vec::new();
    let mut reference_s = Vec::new();
    for _ in 0..reps {
        let (dense, td) = time(|| concurrency_map(&samples, &cfg));
        dense_s.push(td);
        if args.reference {
            let (naive, tr) = time(|| concurrency_map_naive(&samples, &cfg));
            reference_s.push(tr);
            assert_eq!(
                dense.pairs(),
                naive.pairs(),
                "dense and naive concurrency maps disagree"
            );
        }
    }
    BenchResult {
        name: "cc",
        work: format!("{n} samples, 16 cpus, 400 lines, {intervals} intervals"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        batch_peak_rss_kb: None,
        delta_full_ratio: None,
        sim_rates: None,
        dense_wall_s: Vec::new(),
    }
}

// ----------------------------------------------------------- flg_cluster

fn random_edges(n: u32, per_field: usize, seed: u64) -> (Vec<u64>, Vec<(FieldIdx, FieldIdx, f64)>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for _ in 0..per_field {
            let j = (rng.next_u64() % n as u64) as u32;
            if i != j {
                let w = rng.next_f64() * 200.0 - 50.0;
                edges.push((FieldIdx(i), FieldIdx(j), w));
            }
        }
    }
    let hotness = (0..n as u64).map(|_| rng.next_u64() % 10_000).collect();
    (hotness, edges)
}

fn record_u64(n: usize) -> RecordType {
    RecordType::new(
        "S",
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

fn bench_flg_cluster(args: &Args) -> BenchResult {
    let n: u32 = if args.quick { 256 } else { 512 };
    let per_field = 8;
    let (hotness, edges) = random_edges(n, per_field, 0xF16);
    let rec = record_u64(n as usize);
    let reps = if args.quick { 20 } else { 50 };

    let mut dense_s = Vec::new();
    let mut reference_s = Vec::new();
    for _ in 0..reps {
        let (dense, td) = time(|| {
            let flg = Flg::from_parts(RecordId(0), hotness.clone(), edges.iter().copied());
            cluster(&flg, &rec, 128, &Obs::disabled())
        });
        dense_s.push(td);
        if args.reference {
            let (refr, tr) = time(|| {
                let flg = FlgRef::from_parts(RecordId(0), hotness.clone(), edges.iter().copied());
                cluster(&flg, &rec, 128, &Obs::disabled())
            });
            reference_s.push(tr);
            assert_eq!(
                dense, refr,
                "dense and reference FLG produce different clusterings"
            );
        }
    }
    BenchResult {
        name: "flg_cluster",
        work: format!("{n} fields, ~{per_field} edges/field, build+cluster"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        batch_peak_rss_kb: None,
        delta_full_ratio: None,
        sim_rates: None,
        dense_wall_s: Vec::new(),
    }
}

// ---------------------------------------------------------- search_delta

/// One proposal in the search's mix (6/10 move-field, 2/10 swap, 1/10
/// split, 1/10 merge), drawn from a `SplitMix64` stream.
fn propose_move(rng: &mut SplitMix64, d: &DeltaObjective<'_, Flg>, n: u32) -> Move {
    let k = d.cluster_count() as u64;
    let field = |rng: &mut SplitMix64| FieldIdx((rng.next_u64() % n as u64) as u32);
    match rng.next_u64() % 10 {
        0..=5 => Move::MoveField {
            field: field(rng),
            dst: (rng.next_u64() % (k + 1)) as usize,
        },
        6 | 7 => Move::SwapFields {
            a: field(rng),
            b: field(rng),
        },
        8 => {
            let cluster = (rng.next_u64() % k) as usize;
            let len = d.clusters()[cluster].len().max(1);
            Move::Split {
                cluster,
                at: (rng.next_u64() % len as u64) as usize,
            }
        }
        _ => Move::Merge {
            dst: (rng.next_u64() % k) as usize,
            src: (rng.next_u64() % k) as usize,
        },
    }
}

fn bench_search_delta(args: &Args) -> BenchResult {
    // Both paths replay one precomputed trace of feasible proposals with
    // a fixed acceptance schedule (improving moves always, every third
    // non-improving one), so they visit bit-identical cluster states.
    // Dense pays `score_move` per proposal plus `apply` on the accepted
    // ones; the reference pays what a search without delta evaluation
    // pays per proposal — cloning the cluster list and re-running the
    // full canonical scorer over every cluster. The committed score
    // traces are asserted bit-equal before the ratio is trusted.
    let n: u32 = if args.quick { 1_024 } else { 2_048 };
    let per_field = 8;
    let proposals = if args.quick { 3_000usize } else { 6_000 };
    let reps = 5;
    let line = 128u64;
    let (hotness, edges) = random_edges(n, per_field, 0x5EA7C4);
    let rec = record_u64(n as usize);
    let flg = Flg::from_parts(RecordId(0), hotness, edges.iter().copied());
    let start = cluster(&flg, &rec, line, &Obs::disabled());

    let mut trace: Vec<(Move, bool)> = Vec::with_capacity(proposals);
    {
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let mut rng = SplitMix64::new(0xACCE97);
        let mut rejected = 0u64;
        while trace.len() < proposals {
            let m = propose_move(&mut rng, &d, n);
            let Some(est) = d.score_move(m) else { continue };
            let accept = est > 0.0 || {
                rejected += 1;
                rejected.is_multiple_of(3)
            };
            if accept {
                d.apply(m);
            }
            trace.push((m, accept));
        }
    }

    let full_score = |d: &DeltaObjective<'_, Flg>| -> f64 {
        let cand: Vec<Vec<FieldIdx>> = d.clusters().to_vec();
        cand.iter().map(|c| canonical_cluster_sum(&flg, c)).sum()
    };

    let mut dense_s = Vec::new();
    let mut dense_trace: Vec<u64> = Vec::new();
    for rep in 0..reps {
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let mut committed: Vec<u64> = Vec::with_capacity(trace.len());
        let mut checksum = 0.0f64;
        let ((), td) = time(|| {
            for &(m, accept) in &trace {
                let est = d.score_move(m).expect("trace moves stay feasible");
                checksum += est;
                if accept {
                    d.apply(m);
                    committed.push(d.score().to_bits());
                }
            }
        });
        dense_s.push(td);
        assert!(checksum.is_finite(), "delta estimates overflowed");
        if rep == 0 {
            dense_trace = committed;
        } else {
            assert_eq!(dense_trace, committed, "delta replay diverged across reps");
        }
    }

    let mut reference_s = Vec::new();
    if args.reference {
        for _ in 0..reps {
            let mut d = DeltaObjective::new(&flg, &rec, &start, line);
            let mut committed: Vec<u64> = Vec::with_capacity(trace.len());
            let mut checksum = 0.0f64;
            let ((), tr) = time(|| {
                for &(m, accept) in &trace {
                    if accept {
                        d.apply(m);
                        committed.push(full_score(&d).to_bits());
                    } else {
                        checksum += full_score(&d);
                    }
                }
            });
            reference_s.push(tr);
            assert!(checksum.is_finite(), "full rescoring overflowed");
            assert_eq!(
                dense_trace, committed,
                "delta and full-rescore committed score traces diverged"
            );
        }
    }

    let mut r = BenchResult {
        name: "search_delta",
        work: format!("{n} fields, {proposals} proposals, ~{per_field} edges/field"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        batch_peak_rss_kb: None,
        delta_full_ratio: None,
        sim_rates: None,
        dense_wall_s: Vec::new(),
    };
    r.delta_full_ratio = r.speedup();
    r
}

// ------------------------------------------------------------------ json

fn json_f64_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn write_report(path: &str, args: &Args, results: &[BenchResult]) -> std::io::Result<()> {
    let mut benches = Vec::new();
    for r in results {
        let mut fields = vec![
            format!("      \"name\": \"{}\"", r.name),
            format!("      \"work\": \"{}\"", r.work),
            format!("      \"reps\": {}", r.reps),
            format!("      \"dense_serial_s\": {}", json_f64_array(&r.dense_s)),
            format!("      \"dense_serial_total_s\": {:.6}", r.dense_total()),
            format!(
                "      \"dense_trimmed_mean_s\": {:.6}",
                trimmed_mean(&r.dense_s)
            ),
            format!(
                "      \"time_unit\": \"{}\"",
                if r.dense_wall_s.is_empty() {
                    "wall_s"
                } else {
                    "reference_s"
                }
            ),
        ];
        if !r.dense_wall_s.is_empty() {
            fields.push(format!(
                "      \"dense_wall_total_s\": {:.6}",
                r.dense_wall_s.iter().sum::<f64>()
            ));
        }
        let hist = r.dense_hist();
        if !hist.is_empty() {
            let s = hist.summary();
            fields.push(format!("      \"dense_p50_s\": {:.6}", s.p50 as f64 / 1e9));
            fields.push(format!("      \"dense_p99_s\": {:.6}", s.p99 as f64 / 1e9));
        }
        if !r.reference_s.is_empty() {
            fields.push(format!(
                "      \"reference_serial_s\": {}",
                json_f64_array(&r.reference_s)
            ));
            fields.push(format!(
                "      \"reference_serial_total_s\": {:.6}",
                r.reference_total()
            ));
            fields.push(format!(
                "      \"reference_trimmed_mean_s\": {:.6}",
                trimmed_mean(&r.reference_s)
            ));
            fields.push(format!(
                "      \"speedup_vs_reference\": {:.3}",
                r.speedup().expect("reference measured")
            ));
        }
        if let Some(ratio) = r.delta_full_ratio {
            fields.push(format!("      \"delta_full_ratio\": {ratio:.3}"));
        }
        if let Some(rates) = &r.sim_rates {
            fields.push(format!(
                "      \"sim_accesses_per_s\": {:.0}",
                rates.accesses_per_s
            ));
            fields.push(format!(
                "      \"sim_steps_per_s\": {:.0}",
                rates.steps_per_s
            ));
        }
        if let Some(kb) = r.peak_rss_kb {
            fields.push(format!("      \"peak_rss_kb\": {kb}"));
        }
        if let Some(kb) = r.batch_peak_rss_kb {
            fields.push(format!("      \"batch_peak_rss_kb\": {kb}"));
        }
        if let Some(jp) = r.dense_jobs_s {
            fields.push(format!("      \"jobs\": {}", r.jobs));
            fields.push(format!("      \"dense_jobs_total_s\": {jp:.6}"));
            fields.push(format!(
                "      \"parallel_speedup\": {:.3}",
                r.dense_total() / jp
            ));
        }
        benches.push(format!("    {{\n{}\n    }}", fields.join(",\n")));
    }
    let doc = format!(
        "{{\n  \"schema\": \"slopt-perf-report/7\",\n  \"quick\": {},\n  \"jobs\": {},\n  \"host_cores\": {},\n  \"equivalence_checked\": {},\n  \"benches\": [\n{}\n  ]\n}}\n",
        args.quick,
        args.jobs,
        host_cores(),
        args.reference,
        benches.join(",\n")
    );
    std::fs::write(path, doc)
}

/// Number of hardware threads available to this process. `perf_guard`
/// uses it to decide whether a wall-clock parallel-speedup floor is
/// physically meaningful on the measuring host.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = Args::from_env();
    eprintln!(
        "[perf_report] quick={} jobs={} reference={}",
        args.quick, args.jobs, args.reference
    );

    let mut results = vec![
        // cc_stream must run first: VmHWM only ever rises, so its peak-RSS
        // figure is meaningful only before any other bench allocates.
        bench_cc_stream(&args),
        bench_engine(&args),
        bench_cc(&args),
        bench_flg_cluster(&args),
        bench_search_delta(&args),
    ];
    let derived = e2e_layouts(&args);
    results.push(bench_fig9_e2e(&args, &derived));
    results.push(bench_fig8_e2e(&args, &derived));

    for r in &results {
        match r.speedup() {
            Some(s) => eprintln!(
                "[perf_report] {:<12} dense {:.3}s vs reference {:.3}s -> {:.2}x ({})",
                r.name,
                r.dense_total(),
                r.reference_total(),
                s,
                r.work
            ),
            None => eprintln!(
                "[perf_report] {:<12} dense {:.3}s ({})",
                r.name,
                r.dense_total(),
                r.work
            ),
        }
        if let Some(jp) = r.dense_jobs_s {
            eprintln!(
                "[perf_report] {:<12} --jobs {}: {:.3}s total ({:.2}x vs serial)",
                r.name,
                r.jobs,
                jp,
                r.dense_total() / jp
            );
        }
        if let (Some(stream), Some(batch)) = (r.peak_rss_kb, r.batch_peak_rss_kb) {
            eprintln!(
                "[perf_report] {:<12} peak RSS streamed {stream} kB vs batch {batch} kB",
                r.name
            );
            assert!(
                stream < batch,
                "streamed CC peak RSS must stay strictly below batch"
            );
        }
    }

    write_report(&args.out, &args, &results).expect("write report");
    eprintln!("[perf_report] wrote {}", args.out);
}
