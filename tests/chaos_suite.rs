//! Chaos suite: the degradation contract of the fault-injected
//! experiment runner, asserted differentially against clean runs.
//!
//! * Transient chaos (panics, retryable failures, slow workers) must be
//!   *invisible*: the figure is bit-identical to an undisturbed run.
//! * Permanent faults must degrade *explicitly*: holed cells, a
//!   structured [`FaultReport`], and `warn.fault.*` / `retry.*`
//!   counters in the run trace — never a wrong number.
//! * Fault plans compose with the checkpoint/resume layer: a run killed
//!   mid-append under chaos, resumed under the same plan, still
//!   converges to the clean answer.
//!
//! Every plan is seed-pinned, so each scenario replays exactly in CI.

use slopt::ir::SupervisePolicy;
use slopt::obs::replay::replay_str;
use slopt::obs::Obs;
use slopt::sim::CacheConfig;
use slopt::workload::{
    compute_paper_layouts_jobs_obs, AnalysisConfig, Figure, LayoutKind, Machine, PaperLayouts,
    SdetConfig,
};
use slopt_bench::{figure, CheckpointSpec, ExecCtx, FaultConfig, FigureOutcome};
use slopt_fault::FaultPlan;
use std::path::{Path, PathBuf};

/// The fig9-style miniature grid shared by every scenario: small enough
/// to run in seconds, large enough to have a multi-cell grid (1 baseline
/// + 5 structs × 2 layout kinds = 11 cells, 3 runs each).
fn tiny() -> (slopt::workload::Kernel, SdetConfig, PaperLayouts) {
    let kernel = slopt::workload::build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 4,
        invocations_per_script: 6,
        pool_instances: 32,
        cache: CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
        ..SdetConfig::default()
    };
    let acfg = AnalysisConfig {
        machine: Machine::superdome(8),
        ..Default::default()
    };
    let layouts = compute_paper_layouts_jobs_obs(
        &kernel,
        &sdet,
        &acfg,
        Default::default(),
        1,
        &Obs::disabled(),
    );
    (kernel, sdet, layouts)
}

const KINDS: &[LayoutKind] = &[LayoutKind::Tool, LayoutKind::SortByHotness];

fn fault_cfg(spec: &str, max_retries: u32) -> FaultConfig {
    FaultConfig {
        plan: FaultPlan::parse(spec).expect(spec),
        policy: SupervisePolicy {
            max_retries,
            ..Default::default()
        },
    }
}

/// The [`ExecCtx`] every scenario runs under: capabilities compose, so
/// clean and chaotic runs differ only in the `fault` slot.
fn ctx_for(jobs: usize, spec: Option<&CheckpointSpec>, fault: Option<&FaultConfig>) -> ExecCtx {
    ExecCtx {
        obs: Obs::disabled(),
        checkpoint: spec.cloned(),
        fault: fault.cloned(),
        jobs,
        stats: false,
        trace_out: None,
    }
}

fn run_clean(
    kernel: &slopt::workload::Kernel,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    jobs: usize,
) -> Figure {
    let ctx = ctx_for(jobs, None, None);
    figure(
        &ctx,
        "chaos",
        kernel,
        &Machine::bus(4),
        sdet,
        3,
        layouts,
        KINDS,
        "chaos grid",
    )
    .expect("clean run cannot fail")
    .figure
    .expect("no fault plan, so the grid is complete")
}

fn run_chaos(
    kernel: &slopt::workload::Kernel,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    jobs: usize,
    spec: Option<&CheckpointSpec>,
    fault: &FaultConfig,
    obs: &Obs,
) -> std::io::Result<FigureOutcome> {
    let mut ctx = ctx_for(jobs, spec, Some(fault));
    ctx.obs = obs.clone();
    figure(
        &ctx,
        "chaos",
        kernel,
        &Machine::bus(4),
        sdet,
        3,
        layouts,
        KINDS,
        "chaos grid",
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slopt_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Transient chaos — contained panics, retried failures, slow workers —
/// must leave the figure bit-identical to an undisturbed run, at every
/// worker count.
#[test]
fn transient_chaos_is_invisible_in_the_figure() {
    let (kernel, sdet, layouts) = tiny();
    let clean = run_clean(&kernel, &sdet, &layouts, 2);
    let fault = fault_cfg("seed=7,transient=0.3,panic=0.15,slow=0.1,slow-ms=1", 16);

    for jobs in [1, 4] {
        let trace = std::env::temp_dir().join(format!(
            "slopt_chaos_transient_{}_{jobs}.jsonl",
            std::process::id()
        ));
        let obs = Obs::to_trace_file(&trace).unwrap();
        let outcome = run_chaos(&kernel, &sdet, &layouts, jobs, None, &fault, &obs).unwrap();
        obs.finish();

        assert!(outcome.report.had_faults(), "plan must actually fire");
        assert!(!outcome.report.degraded(), "all faults are recoverable");
        assert!(outcome.report.recovered > 0, "retries must have healed");
        let fig = outcome.figure.expect("no permanent faults, no holes");
        assert_eq!(
            fig.to_string(),
            clean.to_string(),
            "transient chaos (jobs={jobs}) must be bit-invisible"
        );

        // The injections themselves are observable in the trace.
        let text = std::fs::read_to_string(&trace).unwrap();
        std::fs::remove_file(&trace).ok();
        let summary = replay_str(&text).expect("chaos trace must replay clean");
        assert!(
            summary
                .counters
                .get("retry.attempts")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(
            summary
                .counters
                .get("retry.recovered")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(
            summary
                .counters
                .keys()
                .any(|k| k.starts_with("warn.fault.injected.")),
            "injections must surface as warnings: {:?}",
            summary.counters.keys().collect::<Vec<_>>()
        );
    }
}

/// Permanent faults must degrade explicitly: `figure == None`, holes in
/// exactly the poisoned cells, grid-indexed failures in the report, and
/// `warn.fault.poisoned` in the trace.
#[test]
fn permanent_faults_hole_cells_and_report_them() {
    let (kernel, sdet, layouts) = tiny();
    let fault = fault_cfg("seed=3,permanent=0.2,transient=0.2", 8);

    let trace = std::env::temp_dir().join(format!("slopt_chaos_perm_{}.jsonl", std::process::id()));
    let obs = Obs::to_trace_file(&trace).unwrap();
    let outcome = run_chaos(&kernel, &sdet, &layouts, 3, None, &fault, &obs).unwrap();
    obs.finish();

    assert!(outcome.report.degraded());
    assert!(outcome.figure.is_none(), "a holed grid assembles no figure");
    let holes = outcome.cells.iter().filter(|(_, c)| c.is_none()).count();
    assert!(holes > 0, "seed=3 at 0.2 must poison at least one cell");
    assert!(
        holes < outcome.cells.len(),
        "and must leave partial results standing"
    );
    assert!(!outcome.report.poisoned.is_empty());
    for failure in &outcome.report.poisoned {
        assert!(failure.attempts >= 1);
        assert!(!failure.message.is_empty());
    }

    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    let summary = replay_str(&text).expect("degraded trace must still replay clean");
    assert!(summary.counters.contains_key("warn.fault.poisoned"));
    assert!(summary
        .counters
        .contains_key("warn.fault.injected.permanent"));
}

/// The same permanent plan produces the same holes and the same report
/// at any worker count — fault decisions key on grid indices, not on
/// scheduling.
#[test]
fn degraded_outcomes_are_jobs_invariant() {
    let (kernel, sdet, layouts) = tiny();
    let fault = fault_cfg("seed=5,permanent=0.15,transient=0.2,panic=0.1", 6);

    let a = run_chaos(&kernel, &sdet, &layouts, 1, None, &fault, &Obs::disabled()).unwrap();
    let b = run_chaos(&kernel, &sdet, &layouts, 4, None, &fault, &Obs::disabled()).unwrap();
    assert_eq!(a.report, b.report, "reports must match across jobs");
    assert_eq!(a.cells.len(), b.cells.len());
    for ((la, ca), (lb, cb)) in a.cells.iter().zip(&b.cells) {
        assert_eq!(la, lb);
        match (ca, cb) {
            (Some(x), Some(y)) => assert_eq!(x.runs, y.runs, "{la}"),
            (None, None) => {}
            _ => panic!("hole/value mismatch at {la} across jobs"),
        }
    }
}

/// Keeps the checkpoint header plus the first `keep` item lines and a
/// torn trailing half-line — the on-disk state of a process killed
/// mid-append (same shape as `tests/checkpoint_resume.rs`).
fn interrupt(dir: &Path, keep: usize) {
    let path = dir.join("chaos.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap().to_string();
    let mut kept: Vec<String> = std::iter::once(header)
        .chain(lines.take(keep).map(String::from))
        .collect();
    kept.push("item 9 01".to_string());
    std::fs::write(&path, kept.join("\n")).unwrap();
}

/// Chaos composes with kill/resume: a checkpointed run under a fault
/// plan that also drops checkpoint appends (`write-error`), killed
/// mid-run with a torn log line, then resumed under the *same* plan,
/// still converges to the clean figure bit-identically.
#[test]
fn kill_and_resume_under_chaos_converges_to_the_clean_figure() {
    let (kernel, sdet, layouts) = tiny();
    let clean = run_clean(&kernel, &sdet, &layouts, 2);
    // write-error=0.3: roughly a third of completed items never reach
    // the checkpoint log and must be recomputed on resume.
    let fault = fault_cfg("seed=11,transient=0.3,panic=0.1,write-error=0.3", 16);

    let dir = temp_dir("kill");
    let spec = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    let outcome = run_chaos(
        &kernel,
        &sdet,
        &layouts,
        2,
        Some(&spec),
        &fault,
        &Obs::disabled(),
    )
    .unwrap();
    let first = outcome.figure.expect("transient-only plan");
    assert_eq!(first.to_string(), clean.to_string());

    // The log must be shorter than the grid: write-error dropped appends.
    let logged = std::fs::read_to_string(dir.join("chaos.ckpt"))
        .unwrap()
        .lines()
        .count()
        - 1;
    let grid = outcome.cells.len() * 4; // 3 measured runs + 1 warm-up per cell
    assert!(
        logged < grid,
        "write-error must drop checkpoint appends ({logged} of {grid} logged)"
    );

    // Kill mid-run (torn line), resume under the same plan.
    interrupt(&dir, 4);
    let resume = CheckpointSpec {
        dir: dir.clone(),
        resume: true,
    };
    let resumed = run_chaos(
        &kernel,
        &sdet,
        &layouts,
        2,
        Some(&resume),
        &fault,
        &Obs::disabled(),
    )
    .unwrap()
    .figure
    .expect("resume under the same transient plan");
    assert_eq!(
        resumed.to_string(),
        clean.to_string(),
        "kill + resume under chaos must converge to the clean figure"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill/resume composes with transient chaos *and* live tracing: the
/// resumed run recomputes only the missing items (visible as
/// `ckpt.items_resumed` in its trace), heals the plan's transient
/// faults, converges to the clean figure bit-identically, and its trace
/// still replays clean.
#[test]
fn resume_under_transient_chaos_traces_the_recovery() {
    let (kernel, sdet, layouts) = tiny();
    let clean = run_clean(&kernel, &sdet, &layouts, 2);
    let fault = fault_cfg("seed=13,transient=0.3,panic=0.1,slow=0.1,slow-ms=1", 16);

    let dir = temp_dir("resume_trace");
    let spec = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    run_chaos(
        &kernel,
        &sdet,
        &layouts,
        2,
        Some(&spec),
        &fault,
        &Obs::disabled(),
    )
    .unwrap()
    .figure
    .expect("transient-only plan");

    // Kill mid-run (torn trailing line), then resume under the same
    // plan with the trace sink attached.
    interrupt(&dir, 6);
    let trace = std::env::temp_dir().join(format!(
        "slopt_chaos_resume_trace_{}.jsonl",
        std::process::id()
    ));
    let obs = Obs::to_trace_file(&trace).unwrap();
    let resume = CheckpointSpec {
        dir: dir.clone(),
        resume: true,
    };
    let outcome = run_chaos(&kernel, &sdet, &layouts, 2, Some(&resume), &fault, &obs).unwrap();
    obs.finish();

    let fig = outcome.figure.expect("resume under a transient-only plan");
    assert_eq!(
        fig.to_string(),
        clean.to_string(),
        "resume under transient chaos with tracing must stay bit-identical"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    let summary = replay_str(&text).expect("resumed chaos trace must replay clean");
    let resumed = summary
        .counters
        .get("ckpt.items_resumed")
        .copied()
        .unwrap_or(0.0);
    assert!(
        resumed > 0.0,
        "the resumed run must reuse checkpointed items: {:?}",
        summary.counters.keys().collect::<Vec<_>>()
    );
    assert!(
        summary
            .counters
            .keys()
            .any(|k| k.starts_with("warn.fault.injected.")),
        "the plan must keep firing on the recomputed items"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deadline hits compose with the checkpoint: an item holed by the
/// per-item deadline is *not* written to the item log as completed, so
/// a resume without the deadline recomputes exactly the holed items and
/// converges to the clean figure.
#[test]
fn deadline_holes_are_never_checkpointed_as_completed() {
    let (kernel, sdet, layouts) = tiny();
    let clean = run_clean(&kernel, &sdet, &layouts, 2);
    // Slow faults sleep well past the per-item deadline; with no
    // retries every firing is a deadline hole.
    let mut fault = fault_cfg("seed=9,slow=0.25,slow-ms=200", 0);
    fault.policy.deadline = Some(std::time::Duration::from_millis(60));

    let dir = temp_dir("deadline");
    let spec = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    let outcome = run_chaos(
        &kernel,
        &sdet,
        &layouts,
        2,
        Some(&spec),
        &fault,
        &Obs::disabled(),
    )
    .unwrap();
    assert!(outcome.report.deadline_hits > 0, "the deadline must fire");
    assert!(outcome.figure.is_none(), "deadline holes degrade the grid");

    // The item log may only contain accepted items: no poisoned grid
    // index may appear as a completed `item` line.
    let log = std::fs::read_to_string(dir.join("chaos.ckpt")).unwrap();
    let logged: std::collections::HashSet<usize> = log
        .lines()
        .filter_map(|l| l.strip_prefix("item ")?.split(' ').next()?.parse().ok())
        .collect();
    for failure in &outcome.report.poisoned {
        assert!(
            !logged.contains(&failure.index),
            "deadline-holed grid item {} was checkpointed as completed",
            failure.index
        );
    }

    // Resuming without the deadline recomputes exactly the holes and
    // lands on the clean figure.
    let resume = CheckpointSpec {
        dir: dir.clone(),
        resume: true,
    };
    let ctx = ctx_for(2, Some(&resume), None);
    let resumed = figure(
        &ctx,
        "chaos",
        &kernel,
        &Machine::bus(4),
        &sdet,
        3,
        &layouts,
        KINDS,
        "chaos grid",
    )
    .unwrap()
    .figure
    .expect("no fault plan on the resume, so the grid completes");
    assert_eq!(
        resumed.to_string(),
        clean.to_string(),
        "resume after deadline holes must converge to the clean figure"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
