//! The `slopt-tool` subcommands.
//!
//! Every command returns a [`CliError`] carrying both the message and the
//! process exit code from the shared vocabulary in [`slopt_fault::exit`]:
//! flag misuse exits 2, unreadable/unparseable input exits 3, a degraded
//! (partial-result) figures run exits 4, everything else exits 1.

use slopt_bench::{figure, resolve, CommonArgs, ExecCtx, FigureOutcome, EXIT_CODE_TABLE};
use slopt_core::{to_dot, DotOptions, ToolParams};
use slopt_fault::exit;
use slopt_ir::types::RecordId;
use slopt_search::{Portfolio, SearchParams};
use slopt_sim::AccessClass;
use slopt_workload::{
    analyze_obs, baseline_layouts, build_kernel, compute_paper_layouts_jobs_obs, layouts_with,
    measure, run_once_obs, search_for, stress_records, stress_workload, suggest_for_obs,
    validate_top_k, AnalysisConfig, KernelAnalysis, LayoutKind, Machine, SdetConfig, WorkloadSpec,
};
use std::path::PathBuf;

/// A classified command failure: what to print and which exit code the
/// process should end with.
#[derive(Clone, Debug)]
pub struct CliError {
    /// Human-readable description, printed to stderr by `main`.
    pub message: String,
    /// Process exit code (see [`slopt_fault::exit`]).
    pub code: u8,
}

impl CliError {
    /// Flag/usage mistakes: exit [`exit::USAGE`].
    pub(crate) fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::USAGE,
        }
    }

    /// Unreadable or unparseable user input: exit [`exit::BAD_INPUT`].
    pub(crate) fn bad_input(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::BAD_INPUT,
        }
    }

    /// Partial results under permanent faults: exit [`exit::DEGRADED`].
    pub(crate) fn degraded(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::DEGRADED,
        }
    }

    /// Everything else: exit [`exit::FAILURE`].
    pub(crate) fn failure(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::FAILURE,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Prints usage.
pub fn print_help() {
    println!(
        "slopt-tool — structure layout advisor (CGO 2007 reproduction)

USAGE:
    slopt-tool advise [--struct A|B|C|D|E] [--out DIR] [--cpus N]
        Run the instrumented measurement on the built-in kernel and print
        the layout advisory for one structure. With --out, write
        <name>.layout.txt and <name>.flg.dot into DIR.

    slopt-tool advise --program FILE [--struct RECORD] [--out DIR] [--cpus N]
        The same pipeline on a user-supplied workload file: a `.sir`
        program plus a `workload {{ action ... }}` section (see
        examples/session_table.sirw).

    slopt-tool simulate [--machine bus4|superdome16|superdome128]
        Run the SDET-like workload with baseline layouts and print the
        memory-system breakdown per structure (a `perf c2c`-style view).

    slopt-tool figures [--scale N] [--jobs N] [--checkpoint-dir DIR [--resume]]
                       [--fault-plan SPEC] [--max-retries N] [--deadline-ms N]
        Regenerate the paper's Figures 8, 9 and 10 in one go. --jobs fans
        the measurement grid across N host threads (default: all cores);
        the output is bit-identical for every N. With --checkpoint-dir,
        every completed grid item is persisted as it finishes; re-running
        with --resume recomputes only the missing items and yields a
        bit-identical result.

        --fault-plan injects seed-deterministic faults into the worker
        pool (e.g. `seed=7,transient=0.1,panic=0.05`; kinds: panic,
        transient, permanent, slow, write-error, read-error, corrupt).
        Transient faults are retried (--max-retries, default 3) and leave
        the output bit-identical; permanent faults hole the affected
        cells, print partial results, and exit 4. --deadline-ms bounds
        each grid item cooperatively.

    slopt-tool search [--stress | --program FILE] [--struct NAME]
                      [--seed S] [--chains C] [--steps K]
                      [--validate-top T] [--jobs N] [--cpus N]
        Run the slopt-search annealing portfolio against the greedy
        clustering and validate the winner in simulated cycles. By
        default on the built-in kernel (where greedy is already
        optimal); --stress uses the shipped stress workload whose
        affinity structure greedy provably mishandles; --program runs a
        user workload file. Deterministic per --seed and bit-identical
        for every --jobs value.

    slopt-tool stats <trace.jsonl> [--prom]
        Replay a saved run trace and print the aggregate counter/span/
        histogram table it implies. --prom renders the same aggregates in
        Prometheus text exposition format instead (for scrapers; the
        output is self-checked before printing).

    slopt-tool flame <trace.jsonl>
        Export a saved run trace as a folded-stack profile (FlameGraph
        collapsed format; value = self time in microseconds). Render with
        `slopt-tool flame run.jsonl | flamegraph.pl > run.svg`.

    slopt-tool serve <health|advise|metrics|drain|ingest>
                     [--addr HOST:PORT | --state-dir DIR]
        Talk to a running slopt-serve daemon. --state-dir discovers the
        address from DIR/addr (written by the daemon at bind time).
        `ingest --dir DIR [--client-id N] [--fault-plan SPEC]
        [--max-retries N]` streams every *.slshard under DIR as one
        collector, retrying transient failures with backoff; the others
        print the daemon's advice/health/metrics or drain it gracefully.

    slopt-tool help
        This text.

OBSERVABILITY (advise, simulate, figures, search):
    --trace-out <path>   Write a machine-readable run trace (slopt-trace/1
                         JSONL, Chrome trace events) to <path>.
    --stats              Print the aggregate counter/span summary table at
                         exit.

{EXIT_CODE_TABLE}"
    );
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

/// Builds the observability handle the shared `--trace-out <path>` /
/// `--stats` flags ask for (disabled when neither is present).
fn obs_from_args(args: &[String]) -> Result<slopt_obs::Obs, CliError> {
    let trace_out = flag_value(args, "--trace-out");
    let stats = args.iter().any(|a| a == "--stats");
    slopt_obs::obs_from_flags(trace_out, stats).map_err(|e| {
        CliError::failure(format!(
            "cannot open trace output {}: {e}",
            trace_out.unwrap_or("<none>")
        ))
    })
}

/// Flushes the trace sink and, under `--stats`, prints the aggregate
/// summary table. Call once at the end of each instrumented subcommand.
fn finish_obs(args: &[String], obs: &slopt_obs::Obs) {
    obs.finish();
    if obs.enabled() && args.iter().any(|a| a == "--stats") {
        println!("=== run stats ===");
        print!("{}", obs.summary());
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        eprintln!("[slopt-tool] trace written to {path}");
    }
}

fn parse_machine(spec: &str) -> Result<Machine, String> {
    if spec == "bus4" {
        return Ok(Machine::bus(4));
    }
    if let Some(n) = spec.strip_prefix("superdome") {
        let n: usize = n.parse().map_err(|_| format!("bad machine `{spec}`"))?;
        if n == 0 || n > 128 {
            return Err(format!("superdome CPU count {n} out of range (1..=128)"));
        }
        return Ok(Machine::superdome(n));
    }
    if let Some(n) = spec.strip_prefix("bus") {
        let n: usize = n.parse().map_err(|_| format!("bad machine `{spec}`"))?;
        if n == 0 || n > 128 {
            return Err(format!("bus CPU count {n} out of range (1..=128)"));
        }
        return Ok(Machine::bus(n));
    }
    Err(format!("unknown machine `{spec}` (bus4, busN, superdomeN)"))
}

/// `slopt-tool advise`.
pub fn advise(args: &[String]) -> Result<(), CliError> {
    if let Some(path) = flag_value(args, "--program") {
        return advise_custom(path, args);
    }
    let kernel = build_kernel();
    let letter = flag_value(args, "--struct")
        .unwrap_or("A")
        .to_ascii_uppercase();
    let rec = kernel
        .records
        .all()
        .iter()
        .find(|(l, _)| l.to_string() == letter)
        .map(|&(_, r)| r)
        .ok_or_else(|| CliError::usage(format!("no struct `{letter}` (use A..E)")))?;
    let cpus = parse_cpus(args)?;

    let sdet = SdetConfig::default();
    let analysis_cfg = AnalysisConfig {
        machine: Machine::superdome(cpus),
        ..Default::default()
    };
    eprintln!(
        "[advise] measuring on {} ...",
        analysis_cfg.machine.topo.name()
    );
    let obs = obs_from_args(args)?;
    let analysis = analyze_obs(&kernel, &sdet, &analysis_cfg, &obs);
    let suggestion = suggest_for_obs(&kernel, &analysis, rec, ToolParams::default(), &obs);
    let ty = kernel.record_type(rec);

    println!("{}", suggestion.report);
    println!("{}", suggestion.layout.to_annotated_string(ty));

    if let Some(dir) = flag_value(args, "--out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::failure(format!("creating {}: {e}", dir.display())))?;
        let layout_path = dir.join(format!("{}.layout.txt", ty.name()));
        std::fs::write(
            &layout_path,
            format!(
                "{}\n{}",
                suggestion.report,
                suggestion.layout.to_annotated_string(ty)
            ),
        )
        .map_err(|e| CliError::failure(format!("writing {}: {e}", layout_path.display())))?;
        let dot_path = dir.join(format!("{}.flg.dot", ty.name()));
        let dot = to_dot(
            ty,
            &suggestion.flg,
            Some(&suggestion.clustering),
            DotOptions::default(),
        );
        std::fs::write(&dot_path, dot)
            .map_err(|e| CliError::failure(format!("writing {}: {e}", dot_path.display())))?;
        println!(
            "wrote {} and {} (render with `dot -Tsvg`)",
            layout_path.display(),
            dot_path.display()
        );
    }
    finish_obs(args, &obs);
    Ok(())
}

/// `slopt-tool advise --program <file>`: run the pipeline on a
/// user-supplied workload file (`.sir` program + `workload` section).
fn advise_custom(path: &str, args: &[String]) -> Result<(), CliError> {
    use slopt_workload::WorkloadSpec as _;
    let input = std::fs::read_to_string(path)
        .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
    let workload = slopt_workload::parse_workload_file(&input)
        .map_err(|e| CliError::bad_input(format!("{path}:{e}")))?;

    let cpus = parse_cpus(args)?;
    let rec = match flag_value(args, "--struct") {
        Some(name) => workload
            .program()
            .registry()
            .lookup(name)
            .ok_or_else(|| CliError::bad_input(format!("no record `{name}` in {path}")))?,
        None => {
            let mut it = workload.program().registry().records();
            it.next()
                .map(|(r, _)| r)
                .ok_or_else(|| CliError::bad_input(format!("{path} declares no records")))?
        }
    };

    let sdet = SdetConfig::default();
    let analysis_cfg = AnalysisConfig {
        machine: Machine::superdome(cpus),
        ..Default::default()
    };
    eprintln!(
        "[advise] measuring `{path}` on {} ...",
        analysis_cfg.machine.topo.name()
    );
    let obs = obs_from_args(args)?;
    let analysis = analyze_obs(&workload, &sdet, &analysis_cfg, &obs);
    let suggestion = suggest_for_obs(&workload, &analysis, rec, ToolParams::default(), &obs);
    let ty = workload.record_type(rec);

    println!("{}", suggestion.report);
    println!("{}", suggestion.layout.to_annotated_string(ty));

    if let Some(dir) = flag_value(args, "--out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::failure(format!("creating {}: {e}", dir.display())))?;
        let dot_path = dir.join(format!("{}.flg.dot", ty.name()));
        let dot = to_dot(
            ty,
            &suggestion.flg,
            Some(&suggestion.clustering),
            DotOptions::default(),
        );
        std::fs::write(&dot_path, dot)
            .map_err(|e| CliError::failure(format!("writing {}: {e}", dot_path.display())))?;
        println!("wrote {}", dot_path.display());
    }
    finish_obs(args, &obs);
    Ok(())
}

/// `slopt-tool simulate`.
pub fn simulate(args: &[String]) -> Result<(), CliError> {
    let machine = parse_machine(flag_value(args, "--machine").unwrap_or("superdome16"))
        .map_err(CliError::usage)?;
    let kernel = build_kernel();
    let sdet = SdetConfig::default();
    let layouts = baseline_layouts(&kernel, sdet.line_size);
    eprintln!(
        "[simulate] running SDET-like workload on {} ...",
        machine.topo.name()
    );
    let obs = obs_from_args(args)?;
    let run = run_once_obs(
        &kernel,
        &layouts,
        &machine,
        &sdet,
        1,
        &mut slopt_sim::NullObserver,
        &obs,
    );
    println!(
        "throughput: {:.1} scripts/Mcycle over {} cycles ({} scripts)",
        run.result.throughput(),
        run.result.makespan,
        run.result.scripts_done
    );
    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "struct", "hits", "cold", "true-share", "false-share", "upgrades"
    );
    for (letter, rec) in kernel.records.all() {
        let s = &run.stats;
        println!(
            "{letter:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
            s.class_for(rec, AccessClass::Hit).count,
            s.class_for(rec, AccessClass::ColdMiss).count,
            s.class_for(rec, AccessClass::TrueSharingMiss).count,
            s.class_for(rec, AccessClass::FalseSharingMiss).count,
            s.class_for(rec, AccessClass::UpgradeHit).count,
        );
    }
    finish_obs(args, &obs);
    Ok(())
}

/// Parses the optional `--cpus N` flag (1..=128, default 16).
fn parse_cpus(args: &[String]) -> Result<usize, CliError> {
    let cpus: usize = match flag_value(args, "--cpus") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad --cpus `{v}`")))?,
        None => 16,
    };
    if cpus == 0 || cpus > 128 {
        return Err(CliError::usage(format!(
            "--cpus {cpus} out of range (1..=128)"
        )));
    }
    Ok(cpus)
}

/// Parses the shared execution-context flags and builds the [`ExecCtx`]
/// the heavier subcommands run under. `extras` registers the
/// subcommand's own flags so strict parsing doesn't reject them.
fn exec_ctx(args: &[String], extras: &[(&str, bool)]) -> Result<(CommonArgs, ExecCtx), CliError> {
    let common =
        CommonArgs::parse_with(args, extras).map_err(|e| CliError::usage(e.to_string()))?;
    let ctx = common.try_ctx().map_err(CliError::failure)?;
    Ok((common, ctx))
}

/// `slopt-tool figures`.
pub fn figures(args: &[String]) -> Result<(), CliError> {
    let (common, ctx) = exec_ctx(args, &[])?;
    let scale = common.scale;
    let jobs = ctx.jobs;
    let kernel = build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 24 * scale.max(1),
        ..SdetConfig::default()
    };
    let analysis = AnalysisConfig::default();
    let runs = (5 + scale).min(10);
    eprintln!("[figures] measurement + layout derivation ({jobs} jobs) ...");
    let layouts = compute_paper_layouts_jobs_obs(
        &kernel,
        &sdet,
        &analysis,
        ToolParams::default(),
        jobs,
        &ctx.obs,
    );

    for (name, machine, kinds, title) in [
        (
            "fig8",
            Machine::superdome(128),
            vec![LayoutKind::Tool, LayoutKind::SortByHotness],
            "Figure 8 (128-way)",
        ),
        (
            "fig9",
            Machine::bus(4),
            vec![LayoutKind::Tool, LayoutKind::SortByHotness],
            "Figure 9 (4-way)",
        ),
        (
            "fig10",
            Machine::superdome(128),
            vec![LayoutKind::Tool, LayoutKind::Constrained],
            "Figure 10 (best layouts)",
        ),
    ] {
        eprintln!("[figures] {} ...", title);
        let FigureOutcome {
            figure: fig,
            cells,
            report,
        } = figure(
            &ctx, name, &kernel, &machine, &sdet, runs, &layouts, &kinds, title,
        )
        .map_err(|e| CliError::failure(format!("{title}: {e}")))?;
        // The shared complete-vs-degraded decision: a complete grid prints
        // its figure; permanent faults print the partial table and turn
        // into the degraded exit code.
        match (resolve(name, cells, &report), fig) {
            (Ok(_), Some(fig)) => println!("{fig}"),
            (Ok(_), None) => {
                ctx.finish();
                return Err(CliError::failure(format!(
                    "{title}: complete grid produced no figure"
                )));
            }
            (Err(degraded), _) => {
                ctx.finish();
                return Err(CliError::degraded(format!(
                    "{title}: {} grid item(s) poisoned — partial results above",
                    degraded.poisoned
                )));
            }
        }
    }
    // A tiny shared-measure sanity line so users see the baseline too.
    let base = measure(
        &kernel,
        &layouts_with(
            &kernel,
            sdet.line_size,
            kernel.records.a,
            baseline_layouts(&kernel, sdet.line_size)
                .layout(kernel.records.a)
                .clone(),
        ),
        &Machine::superdome(128),
        &sdet,
        runs,
        jobs,
    );
    println!("(baseline sanity: {:.1} scripts/Mcycle)", base.mean);
    ctx.finish();
    Ok(())
}

/// Parses an optional unsigned flag, rejecting malformed values.
fn parse_uint_flag(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad {name} `{v}`"))),
        None => Ok(default),
    }
}

/// `slopt-tool search`: run the annealing portfolio against the greedy
/// clustering on the built-in kernel, the shipped stress workload
/// (`--stress`), or a user workload file (`--program FILE`), validating
/// the winner in simulated cycles. Deterministic per `--seed` and
/// bit-identical for every `--jobs` value.
pub fn search(args: &[String]) -> Result<(), CliError> {
    let seed = parse_uint_flag(args, "--seed", 42)?;
    let chains = parse_uint_flag(args, "--chains", 6)?.max(1) as usize;
    let steps = parse_uint_flag(args, "--steps", 1_200)? as usize;
    let top = parse_uint_flag(args, "--validate-top", 2)?.max(1) as usize;
    let cpus = parse_cpus(args)?;
    let (_common, ctx) = exec_ctx(
        args,
        &[
            ("--seed", true),
            ("--chains", true),
            ("--steps", true),
            ("--validate-top", true),
            ("--cpus", true),
            ("--struct", true),
            ("--program", true),
            ("--stress", false),
        ],
    )?;
    let jobs = ctx.jobs;
    let obs = ctx.obs.clone();

    let params = SearchParams {
        steps,
        ..SearchParams::default()
    };
    let portfolio = Portfolio {
        chains,
        master_seed: seed,
    };
    let stress = args.iter().any(|a| a == "--stress");
    if stress && flag_value(args, "--program").is_some() {
        return Err(CliError::usage("--stress and --program are exclusive"));
    }

    let analysis_cfg = AnalysisConfig {
        machine: Machine::superdome(cpus),
        ..Default::default()
    };
    let sdet = SdetConfig::default();
    eprintln!("[search] seed {seed}, {chains} chains x {steps} steps, validating top {top} ...");

    let better = if stress {
        let w = stress_workload();
        let records = select_records(stress_records(&w), flag_value(args, "--struct"))?;
        let analysis = analyze_obs(&w, &sdet, &analysis_cfg, &obs);
        search_table(
            &w, &records, &analysis, &sdet, &params, portfolio, top, jobs, &obs,
        )
    } else if let Some(path) = flag_value(args, "--program") {
        let input = std::fs::read_to_string(path)
            .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
        let w = slopt_workload::parse_workload_file(&input)
            .map_err(|e| CliError::bad_input(format!("{path}:{e}")))?;
        let all: Vec<(String, RecordId)> = w
            .program()
            .registry()
            .records()
            .map(|(id, ty)| (ty.name().to_string(), id))
            .collect();
        let records = select_records(all, flag_value(args, "--struct"))?;
        let analysis = analyze_obs(&w, &sdet, &analysis_cfg, &obs);
        search_table(
            &w, &records, &analysis, &sdet, &params, portfolio, top, jobs, &obs,
        )
    } else {
        let kernel = build_kernel();
        let all: Vec<(String, RecordId)> = kernel
            .records
            .all()
            .iter()
            .map(|&(l, r)| (l.to_string(), r))
            .collect();
        let wanted = flag_value(args, "--struct").map(str::to_ascii_uppercase);
        let records = select_records(all, wanted.as_deref())?;
        let analysis = analyze_obs(&kernel, &sdet, &analysis_cfg, &obs);
        search_table(
            &kernel, &records, &analysis, &sdet, &params, portfolio, top, jobs, &obs,
        )
    };
    let (better, total) = better;
    println!("search: strictly better objective than greedy on {better}/{total} structs");
    ctx.finish();
    Ok(())
}

/// Filters a record list down to `--struct NAME` when given.
fn select_records(
    all: Vec<(String, RecordId)>,
    wanted: Option<&str>,
) -> Result<Vec<(String, RecordId)>, CliError> {
    match wanted {
        None => Ok(all),
        Some(name) => {
            let hit: Vec<_> = all.iter().filter(|(n, _)| n == name).cloned().collect();
            if hit.is_empty() {
                let known: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
                return Err(CliError::usage(format!(
                    "no struct `{name}` (known: {})",
                    known.join(", ")
                )));
            }
            Ok(hit)
        }
    }
}

/// Runs the greedy-vs-search comparison over one workload's records and
/// prints its table. Returns `(strictly_better, total)`.
#[allow(clippy::too_many_arguments)]
fn search_table<W: WorkloadSpec + Sync>(
    w: &W,
    records: &[(String, RecordId)],
    analysis: &KernelAnalysis,
    sdet: &SdetConfig,
    params: &SearchParams,
    portfolio: Portfolio,
    top: usize,
    jobs: usize,
    obs: &slopt_obs::Obs,
) -> (usize, usize) {
    let tool = ToolParams::default();
    let machine = Machine::superdome(16);
    let runs = 5;
    println!(
        "{:<12} {:>14} {:>14} {:>12}  {:>10}",
        "struct", "greedy obj", "search obj", "delta", "sim-vs-tool%"
    );
    let mut better = 0usize;
    for (name, rec) in records {
        let rec = *rec;
        let search = search_for(w, analysis, rec, tool, params, portfolio, jobs, obs);
        let (validated, best_i) = validate_top_k(w, &search, tool, &machine, sdet, top, runs, jobs);
        let suggestion = suggest_for_obs(w, analysis, rec, tool, obs);
        let tool_tp = measure(
            w,
            &layouts_with(w, sdet.line_size, rec, suggestion.layout.clone()),
            &machine,
            sdet,
            runs,
            jobs,
        );
        let win = search.outcome.winner();
        if search.outcome.improved() {
            better += 1;
        }
        println!(
            "{:<12} {:>14.6} {:>14.6} {:>+12.6}  {:>+10.2}",
            name,
            search.outcome.greedy_score,
            win.score,
            win.score - search.outcome.greedy_score,
            validated[best_i].throughput.pct_vs(&tool_tp),
        );
    }
    (better, records.len())
}

/// `slopt-tool stats <trace.jsonl> [--prom]`: replay a saved
/// `slopt-trace/1` run trace and print the aggregate counter/span/
/// histogram table it implies — or, with `--prom`, the same aggregates in
/// Prometheus text exposition format (self-checked before printing).
pub fn stats(args: &[String]) -> Result<(), CliError> {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return Err(CliError::usage(
            "usage: slopt-tool stats <trace.jsonl> [--prom]",
        ));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
    let summary = slopt_obs::replay::replay_str(&text)
        .map_err(|e| CliError::bad_input(format!("{path}: {e}")))?;
    if args.iter().any(|a| a == "--prom") {
        let snap = slopt_obs::prom::MetricsSnapshot::from_replay(&summary);
        let exposition = snap.to_prometheus();
        // Self-check: never emit an exposition a scraper would reject.
        slopt_obs::prom::validate(&exposition)
            .map_err(|e| CliError::failure(format!("prometheus self-check failed: {e}")))?;
        print!("{exposition}");
    } else {
        print!("{summary}");
    }
    Ok(())
}

/// `slopt-tool flame <trace.jsonl>`: export a saved trace as a folded
/// stack profile (FlameGraph collapsed format) on stdout, one
/// `path;to;frame <self_us>` line per distinct span stack. Pipe through
/// `flamegraph.pl` or `inferno-flamegraph` to render an SVG.
pub fn flame(args: &[String]) -> Result<(), CliError> {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return Err(CliError::usage("usage: slopt-tool flame <trace.jsonl>"));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
    let summary = slopt_obs::replay::replay_str(&text)
        .map_err(|e| CliError::bad_input(format!("{path}: {e}")))?;
    print!("{}", slopt_obs::flame::folded(&summary));
    Ok(())
}

/// `slopt-tool serve` — talk to a running `slopt-serve` daemon.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    let Some(action) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err(CliError::usage(
            "serve needs an action: health | advise | metrics | drain | ingest \
             (try `slopt-tool help`)",
        ));
    };
    let addr = serve_addr(args)?;
    let mut client = slopt_serve::Client::new(addr);
    match action.as_str() {
        "health" => {
            let line = client
                .health()
                .map_err(|e| CliError::failure(e.to_string()))?;
            println!("{line}");
            Ok(())
        }
        "advise" => {
            let text = client
                .advise()
                .map_err(|e| CliError::failure(e.to_string()))?;
            print!("{text}");
            Ok(())
        }
        "metrics" => {
            let text = client
                .metrics()
                .map_err(|e| CliError::failure(e.to_string()))?;
            print!("{text}");
            Ok(())
        }
        "drain" => {
            let ack = client
                .drain()
                .map_err(|e| CliError::failure(e.to_string()))?;
            println!("{ack}");
            Ok(())
        }
        "ingest" => serve_ingest(args, &mut client),
        other => Err(CliError::usage(format!(
            "unknown serve action `{other}` (health | advise | metrics | drain | ingest)"
        ))),
    }
}

/// Resolves the daemon address: `--addr` wins, else `--state-dir`'s
/// published `addr` file (written by the daemon at bind time).
fn serve_addr(args: &[String]) -> Result<String, CliError> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr.to_string());
    }
    if let Some(dir) = flag_value(args, "--state-dir") {
        let path = std::path::Path::new(dir).join("addr");
        let addr = std::fs::read_to_string(&path).map_err(|e| {
            CliError::bad_input(format!(
                "cannot read the daemon's published address {}: {e}",
                path.display()
            ))
        })?;
        return Ok(addr.trim().to_string());
    }
    Err(CliError::usage(
        "serve needs --addr HOST:PORT or --state-dir DIR (to read DIR/addr)",
    ))
}

/// `slopt-tool serve ingest`: stream every `*.slshard` under `--dir` to
/// the daemon as one collector, in deterministic (path-sorted) order,
/// with per-batch retry/backoff on transient failures.
fn serve_ingest(args: &[String], client: &mut slopt_serve::Client) -> Result<(), CliError> {
    let Some(dir) = flag_value(args, "--dir") else {
        return Err(CliError::usage(
            "serve ingest needs --dir DIR (shard files)",
        ));
    };
    let client_id: u64 = match flag_value(args, "--client-id") {
        None => 0,
        Some(raw) => raw.parse().map_err(|_| {
            CliError::usage(format!(
                "bad value `{raw}` for --client-id (expected an unsigned integer)"
            ))
        })?,
    };
    let plan = match flag_value(args, "--fault-plan") {
        None => slopt_fault::FaultPlan::none(),
        Some(spec) => slopt_fault::FaultPlan::parse(spec)
            .map_err(|e| CliError::usage(format!("bad value for --fault-plan: {e}")))?,
    };
    let max_retries: u32 = match flag_value(args, "--max-retries") {
        None => 8,
        Some(raw) => raw.parse().map_err(|_| {
            CliError::usage(format!(
                "bad value `{raw}` for --max-retries (expected an unsigned integer)"
            ))
        })?,
    };

    let mut files: Vec<std::path::PathBuf> = Vec::new();
    collect_shard_files(std::path::Path::new(dir), &mut files)
        .map_err(|e| CliError::bad_input(format!("walking {dir}: {e}")))?;
    files.sort();
    if files.is_empty() {
        return Err(CliError::bad_input(format!(
            "no *.slshard files under {dir}"
        )));
    }
    let obs = slopt_obs::Obs::disabled();
    for (seq, path) in files.iter().enumerate() {
        let samples = slopt_sample::read_shard(path)
            .map_err(|e| CliError::bad_input(format!("reading {}: {e}", path.display())))?;
        let batch = slopt_serve::IngestBatch {
            client: client_id,
            seq: seq as u64,
            samples,
        };
        let ack = client
            .ingest(&batch, &plan, max_retries, &obs)
            .map_err(|e| CliError::failure(e.to_string()))?;
        println!("[ingest] client {client_id} seq {seq}: {ack}");
    }
    Ok(())
}

fn collect_shard_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_shard_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "slshard") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn machine_specs_parse() {
        assert_eq!(parse_machine("bus4").unwrap().cpus(), 4);
        assert_eq!(parse_machine("bus2").unwrap().cpus(), 2);
        assert_eq!(parse_machine("superdome16").unwrap().cpus(), 16);
        assert_eq!(parse_machine("superdome128").unwrap().cpus(), 128);
        assert!(parse_machine("superdome129").is_err());
        assert!(parse_machine("superdome0").is_err());
        assert!(parse_machine("torus8").is_err());
        assert!(parse_machine("busx").is_err());
    }

    #[test]
    fn flags_parse_positionally() {
        let args: Vec<String> = ["--struct", "B", "--out", "/tmp/x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--struct"), Some("B"));
        assert_eq!(flag_value(&args, "--out"), Some("/tmp/x"));
        assert_eq!(flag_value(&args, "--cpus"), None);
    }

    #[test]
    fn jobs_flag_is_parsed_by_the_shared_args_and_misuse_exits_2() {
        let bad: Vec<String> = ["--jobs", "x"].iter().map(|s| s.to_string()).collect();
        assert_eq!(figures(&bad).unwrap_err().code, exit::USAGE);
        assert_eq!(search(&bad).unwrap_err().code, exit::USAGE);
        let zero: Vec<String> = ["--jobs", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(CommonArgs::parse(&zero).unwrap().jobs, 1);
    }

    #[test]
    fn stats_requires_a_path() {
        assert_eq!(stats(&[]).unwrap_err().code, exit::USAGE);
        let args = vec!["--stats".to_string()];
        assert_eq!(stats(&args).unwrap_err().code, exit::USAGE);
    }

    #[test]
    fn stats_classifies_unreadable_input() {
        let args = vec!["/nonexistent/trace.jsonl".to_string()];
        let err = stats(&args).unwrap_err();
        assert_eq!(err.code, exit::BAD_INPUT);
        assert!(err.message.contains("reading"));
    }

    #[test]
    fn stats_replays_a_written_trace() {
        let path = std::env::temp_dir().join("slopt_cli_stats_test.jsonl");
        let obs = slopt_obs::Obs::to_trace_file(&path).unwrap();
        {
            let _s = obs.span("phase");
            obs.counter("widgets", 2);
        }
        obs.finish();
        let args = vec![path.to_string_lossy().into_owned()];
        stats(&args).unwrap();
        // --prom on the same trace renders a self-checked exposition.
        let prom_args = vec![args[0].clone(), "--prom".to_string()];
        stats(&prom_args).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flame_exports_a_written_trace() {
        let path = std::env::temp_dir().join("slopt_cli_flame_test.jsonl");
        let obs = slopt_obs::Obs::to_trace_file(&path).unwrap();
        {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        obs.finish();
        let args = vec![path.to_string_lossy().into_owned()];
        flame(&args).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flame_requires_a_path_and_classifies_bad_input() {
        assert_eq!(flame(&[]).unwrap_err().code, exit::USAGE);
        let args = vec!["/nonexistent/trace.jsonl".to_string()];
        assert_eq!(flame(&args).unwrap_err().code, exit::BAD_INPUT);
    }

    #[test]
    fn advise_rejects_unknown_struct() {
        let args: Vec<String> = ["--struct", "Z"].iter().map(|s| s.to_string()).collect();
        let err = advise(&args).unwrap_err();
        assert!(err.message.contains("no struct"));
        assert_eq!(err.code, exit::USAGE);
    }

    #[test]
    fn advise_rejects_missing_program_file() {
        let args: Vec<String> = ["--program", "/nonexistent/x.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = advise(&args).unwrap_err();
        assert!(err.message.contains("reading"));
        assert_eq!(err.code, exit::BAD_INPUT);
    }

    #[test]
    fn cpus_flag_is_a_usage_error_when_out_of_range() {
        for bad in [["--cpus", "0"], ["--cpus", "999"], ["--cpus", "x"]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert_eq!(parse_cpus(&args).unwrap_err().code, exit::USAGE, "{bad:?}");
        }
        assert_eq!(parse_cpus(&[]).unwrap(), 16);
    }

    #[test]
    fn search_flag_conflicts_and_bad_values_are_usage_errors() {
        let both: Vec<String> = ["--stress", "--program", "x.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(search(&both).unwrap_err().code, exit::USAGE);
        let bad_seed: Vec<String> = ["--seed", "xyz"].iter().map(|s| s.to_string()).collect();
        assert_eq!(search(&bad_seed).unwrap_err().code, exit::USAGE);
    }

    #[test]
    fn search_rejects_unknown_struct_with_known_names() {
        let args: Vec<String> = ["--stress", "--struct", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = search(&args).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("dcache_ent"), "{}", err.message);
    }

    #[test]
    fn search_rejects_missing_program_file() {
        let args: Vec<String> = ["--program", "/nonexistent/w.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(search(&args).unwrap_err().code, exit::BAD_INPUT);
    }

    #[test]
    fn bad_fault_plan_is_a_usage_error() {
        let args: Vec<String> = ["figures", "--fault-plan", "bogus=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = figures(&args[1..]).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("bogus"));
    }
}
