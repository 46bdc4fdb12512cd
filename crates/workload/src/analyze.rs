//! The measurement phase: one instrumented run producing both PBO data and
//! Code Concurrency, then per-record layout suggestions.
//!
//! Following the paper's setup, concurrency data is collected on a
//! mid-size machine (they use a 16-way; the top source-line pairs were
//! found stable between 4-way and 16-way) running the baseline layouts.
//! One run yields:
//!
//! * the block-execution **profile** (the compiler's PBO feedback),
//! * PMU-style **samples** for the Code Concurrency computation.
//!
//! [`suggest_for`] then runs the `slopt-core` tool per record, applying
//! the paper's alias-analysis mitigation in a probabilistic form: each
//! CycleLoss contribution is weighted by the probability that the two
//! concurrent accesses touch the *same record instance* (see
//! [`loss_for_with`]), since line-aligned instances can only false-share
//! within themselves. Own-CPU × own-CPU pairs weigh 0, shared × shared
//! weigh 1, pooled pairs weigh `1/pool`.

use crate::kernel::{SlotKind, WorkloadSpec};
use crate::sdet::{baseline_layouts, run_once_obs, Machine, SdetConfig};
use slopt_core::{suggest_constrained, suggest_layout, Suggestion, ToolParams};
use slopt_ir::affinity::AffinityGraph;
use slopt_ir::cfg::FuncId;
use slopt_ir::fmf::FieldMap;
use slopt_ir::layout::StructLayout;
use slopt_ir::profile::Profile;
use slopt_ir::source::SourceLine;
use slopt_ir::types::RecordId;
use slopt_sample::{
    cycle_loss_weighted, ConcurrencyConfig, ConcurrencyMap, CycleLossMap, Sample, Sampler,
    SamplerConfig, WindowedConcurrency,
};
use std::collections::HashMap;

/// Configuration of the measurement run.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Machine to collect concurrency on (paper: 16-way).
    pub machine: Machine,
    /// Sampler settings. The default period (500 cycles) is scaled from
    /// the paper's 100 000-cycle PMU period to the simulator's much
    /// shorter runs, keeping ~10 samples per CPU per interval.
    pub sampler: SamplerConfig,
    /// Code-concurrency interval length in cycles (scaled like the
    /// sampler period).
    pub interval: u64,
    /// Interleaving seed of the measurement run.
    pub seed: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            machine: Machine::superdome(16),
            sampler: SamplerConfig {
                period: 500,
                max_phase_jitter: 32,
                ..Default::default()
            },
            interval: 6_000,
            seed: 42,
        }
    }
}

/// Everything the layout tool needs, produced by one instrumented run.
#[derive(Debug)]
pub struct KernelAnalysis {
    /// Block execution counts (PBO).
    pub profile: Profile,
    /// Raw PMU-style samples.
    pub samples: Vec<Sample>,
    /// The concurrency map computed from the samples.
    pub concurrency: ConcurrencyMap,
    /// The compiler-emitted Field Mapping File.
    pub fmf: FieldMap,
    /// CPUs of the measurement machine (sets the own-CPU alias odds).
    pub cpus: usize,
    /// Pool instances in the measurement workload (sets pool alias odds).
    pub pool_instances: usize,
}

/// Runs the instrumented measurement run (baseline layouts) and computes
/// all analysis artifacts.
pub fn analyze(
    kernel: &impl WorkloadSpec,
    sdet: &SdetConfig,
    cfg: &AnalysisConfig,
) -> KernelAnalysis {
    analyze_obs(kernel, sdet, cfg, &slopt_obs::Obs::disabled())
}

/// [`analyze`] with instrumentation: the measurement run executes under a
/// `measure_run` span (flushing `sim.*`/`engine.*` counters), the sampler
/// yield is reported as `sampler.samples` / `sampler.dropped`, the
/// concurrency computation runs under `cc_build` with its `cc.*`
/// counters, and the FMF construction under `fmf_build`.
pub fn analyze_obs(
    kernel: &impl WorkloadSpec,
    sdet: &SdetConfig,
    cfg: &AnalysisConfig,
    obs: &slopt_obs::Obs,
) -> KernelAnalysis {
    let _span = obs.span("measure_run");
    let layouts = baseline_layouts(kernel, sdet.line_size);
    let mut sampler = Sampler::new(cfg.machine.cpus(), cfg.sampler);
    let run = run_once_obs(
        kernel,
        &layouts,
        &cfg.machine,
        sdet,
        cfg.seed,
        &mut sampler,
        obs,
    );
    let dropped = sampler.dropped();
    let samples = sampler.into_samples();
    if obs.enabled() {
        obs.counter("sampler.samples", samples.len() as u64);
        obs.counter("sampler.dropped", dropped);
    }
    let mut fold = WindowedConcurrency::new(
        ConcurrencyConfig {
            interval: cfg.interval,
        },
        u64::MAX,
    );
    fold.ingest(&samples);
    let concurrency = fold.concurrency(1, obs);
    let fmf = {
        let _fmf = obs.span("fmf_build");
        FieldMap::build(kernel.program())
    };
    KernelAnalysis {
        profile: run.result.profile,
        samples,
        concurrency,
        fmf,
        cpus: cfg.machine.cpus(),
        pool_instances: sdet.pool_instances,
    }
}

/// [`analyze_obs`] with bounded peak memory: the measurement run spools
/// its samples to `slopt-shard/1` files under `shard_dir` (at most
/// `shard_size` samples buffered at a time) and the Code Concurrency map
/// is folded back from the shards by
/// [`slopt_sample::shard_concurrency`], skipping any malformed shard
/// gracefully. `jobs` fans out the per-interval replay.
///
/// The returned analysis is bit-identical to [`analyze_obs`]'s except
/// that `samples` is empty — not materializing the trace is the point —
/// and the ingestion stats report what was folded.
pub fn analyze_sharded(
    kernel: &impl WorkloadSpec,
    sdet: &SdetConfig,
    cfg: &AnalysisConfig,
    shard_dir: &std::path::Path,
    shard_size: usize,
    jobs: usize,
    obs: &slopt_obs::Obs,
) -> std::io::Result<(KernelAnalysis, slopt_sample::ShardIngestStats)> {
    let _span = obs.span("measure_run");
    let layouts = baseline_layouts(kernel, sdet.line_size);
    let mut spool =
        slopt_sample::ShardSpool::new(shard_dir, cfg.machine.cpus(), cfg.sampler, shard_size)?;
    let run = run_once_obs(
        kernel,
        &layouts,
        &cfg.machine,
        sdet,
        cfg.seed,
        &mut spool,
        obs,
    );
    let (_paths, dropped) = spool.finish()?;
    let (concurrency, stats) = slopt_sample::shard_concurrency(
        shard_dir,
        ConcurrencyConfig {
            interval: cfg.interval,
        },
        jobs,
        obs,
    )?;
    if obs.enabled() {
        obs.counter("sampler.samples", stats.samples);
        obs.counter("sampler.dropped", dropped);
    }
    let fmf = {
        let _fmf = obs.span("fmf_build");
        FieldMap::build(kernel.program())
    };
    Ok((
        KernelAnalysis {
            profile: run.result.profile,
            samples: Vec::new(),
            concurrency,
            fmf,
            cpus: cfg.machine.cpus(),
            pool_instances: sdet.pool_instances,
        },
        stats,
    ))
}

/// Which allocation classes a field of a record is accessed through at a
/// given source line — the whole-program alias information the paper's
/// mitigation asks for ("whenever alias analysis determines that the
/// addresses of two structure instances do not alias … no false sharing").
///
/// Key: `(line, field)`. Value: the set of slot kinds used.
pub type SlotUseMap = HashMap<(SourceLine, slopt_ir::types::FieldIdx), Vec<SlotKind>>;

/// Builds the slot-use map for one record.
pub fn slot_uses(kernel: &impl WorkloadSpec, rec: RecordId) -> SlotUseMap {
    // Function -> slot recipe (via the action table; variants share one
    // recipe).
    let mut slots_of: HashMap<FuncId, &[SlotKind]> = HashMap::new();
    for action in kernel.actions() {
        for &v in &action.variants {
            slots_of.insert(v, &action.slots);
        }
    }
    let mut uses: SlotUseMap = HashMap::new();
    for (fid, func) in kernel.program().functions() {
        let Some(slots) = slots_of.get(&fid) else {
            continue;
        };
        for (_, block) in func.blocks() {
            for acc in block.accesses() {
                if acc.record != rec {
                    continue;
                }
                let kind = slots[acc.slot.0 as usize];
                let entry = uses.entry((block.line, acc.field)).or_default();
                if !entry.contains(&kind) {
                    entry.push(kind);
                }
            }
        }
    }
    uses
}

/// Probability that two concurrent accesses through the given slot kinds
/// land on the **same instance** (false sharing requires that, because
/// instances are allocated cache-line-aligned and never share lines).
///
/// * shared × shared — always the same instance;
/// * own-CPU × own-CPU — never (the CC pairs are from different CPUs);
/// * a stealing (other-CPU) access aliases a specific victim with
///   probability `1/(cpus-1)`;
/// * two pooled accesses collide with probability `1/pool`;
/// * cross-class pairs (shared vs pool, etc.) are distinct allocations.
fn pair_alias_probability(a: SlotKind, b: SlotKind, cpus: usize, pool: usize) -> f64 {
    use SlotKind::*;
    match (a, b) {
        (Shared(_), Shared(_)) => 1.0,
        (OwnCpu(_), OwnCpu(_)) => 0.0,
        (OwnCpu(_), OtherCpu(_)) | (OtherCpu(_), OwnCpu(_)) | (OtherCpu(_), OtherCpu(_))
            if cpus > 1 =>
        {
            1.0 / (cpus - 1) as f64
        }
        (Pool(_), Pool(_)) => 1.0 / pool.max(1) as f64,
        _ => 0.0,
    }
}

/// The CycleLoss map for one record, weighted by instance-alias
/// probability. `cpus` and `pool` describe the measurement run (they set
/// the own-CPU and pool collision probabilities).
pub fn loss_for_with(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    cpus: usize,
    pool: usize,
) -> CycleLossMap {
    let uses = slot_uses(kernel, rec);
    cycle_loss_weighted(
        &analysis.concurrency,
        &analysis.fmf,
        rec,
        |l1, f1, l2, f2| {
            let (Some(u1), Some(u2)) = (uses.get(&(l1, f1)), uses.get(&(l2, f2))) else {
                return 0.0;
            };
            let mut best = 0.0f64;
            for &a in u1 {
                for &b in u2 {
                    best = best.max(pair_alias_probability(a, b, cpus, pool));
                }
            }
            best
        },
    )
}

/// [`loss_for_with`] using the measurement run's own machine and pool
/// sizes.
pub fn loss_for(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
) -> CycleLossMap {
    loss_for_with(
        kernel,
        analysis,
        rec,
        analysis.cpus,
        analysis.pool_instances,
    )
}

/// The affinity graph for one record.
pub fn affinity_for(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
) -> AffinityGraph {
    AffinityGraph::analyze(kernel.program(), &analysis.profile, rec)
}

/// Runs the fully automatic tool (paper §5.1) for one record.
///
/// # Panics
///
/// Panics if layout materialization fails (impossible for valid records).
pub fn suggest_for(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    params: ToolParams,
) -> Suggestion {
    suggest_for_obs(kernel, analysis, rec, params, &slopt_obs::Obs::disabled())
}

/// [`suggest_for`] with instrumentation: the per-record tool pipeline runs
/// under its phase spans (`suggest_layout`, `flg_build`, `cluster`, …) and
/// flushes the `flg.*` / `cluster.*` / `layout.*` counters.
///
/// # Panics
///
/// Panics if layout materialization fails (impossible for valid records).
pub fn suggest_for_obs(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    params: ToolParams,
    obs: &slopt_obs::Obs,
) -> Suggestion {
    let affinity = affinity_for(kernel, analysis, rec);
    let loss = loss_for(kernel, analysis, rec);
    suggest_layout(kernel.record_type(rec), &affinity, Some(&loss), params, obs)
        .expect("valid record must lay out")
}

/// Runs the §5.2 constrained mode for one record (edit of the baseline
/// layout under important-edge constraints).
///
/// # Panics
///
/// Panics if layout materialization fails.
pub fn constrained_for(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    params: ToolParams,
) -> StructLayout {
    let affinity = affinity_for(kernel, analysis, rec);
    let loss = loss_for(kernel, analysis, rec);
    let original =
        StructLayout::declaration_order(kernel.record_type(rec), params.layout.line_size)
            .expect("valid record");
    suggest_constrained(
        kernel.record_type(rec),
        &original,
        &affinity,
        Some(&loss),
        params,
    )
    .expect("valid record must lay out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{build_kernel, Kernel};
    use slopt_sim::CacheConfig;

    fn small() -> (Kernel, SdetConfig, AnalysisConfig) {
        let kernel = build_kernel();
        let sdet = SdetConfig {
            scripts_per_cpu: 6,
            invocations_per_script: 8,
            pool_instances: 32,
            cache: CacheConfig {
                line_size: 128,
                sets: 128,
                ways: 4,
            },
            ..SdetConfig::default()
        };
        let cfg = AnalysisConfig {
            machine: Machine::superdome(8),
            ..AnalysisConfig::default()
        };
        (kernel, sdet, cfg)
    }

    #[test]
    fn analysis_produces_profile_and_samples() {
        let (kernel, sdet, cfg) = small();
        let analysis = analyze(&kernel, &sdet, &cfg);
        assert!(analysis.profile.total() > 0, "profile must have counts");
        assert!(
            !analysis.samples.is_empty(),
            "sampling must produce samples"
        );
        assert!(
            !analysis.concurrency.is_empty(),
            "some concurrency must be observed"
        );
        assert!(!analysis.fmf.is_empty());
    }

    #[test]
    fn sharded_analysis_concurrency_matches_batch() {
        let (kernel, sdet, cfg) = small();
        let batch = analyze(&kernel, &sdet, &cfg);
        let dir =
            std::env::temp_dir().join(format!("slopt_analyze_sharded_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (shard_size, jobs) in [(100, 1), (997, 4)] {
            let (sharded, stats) = analyze_sharded(
                &kernel,
                &sdet,
                &cfg,
                &dir,
                shard_size,
                jobs,
                &slopt_obs::Obs::disabled(),
            )
            .unwrap();
            assert_eq!(stats.shards_skipped, 0);
            assert_eq!(stats.samples as usize, batch.samples.len());
            assert_eq!(
                sharded.concurrency, batch.concurrency,
                "shard_size={shard_size} jobs={jobs}"
            );
            assert!(
                sharded.samples.is_empty(),
                "sharded mode must not retain the trace"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn stat_counters_gain_cycle_loss() {
        let (kernel, sdet, cfg) = small();
        let analysis = analyze(&kernel, &sdet, &cfg);
        let loss = loss_for(&kernel, &analysis, kernel.records.a);
        // Some pair involving a stat counter and another hot field of A
        // must carry loss (8 CPUs hammer the shared instance).
        let a = kernel.records.a;
        let flags = kernel.field(a, "flags");
        let stats: Vec<_> = (0..crate::structs::STAT_CLASSES)
            .map(|k| kernel.field(a, &format!("stat{k}")))
            .collect();
        let total: f64 = stats
            .iter()
            .map(|&s| loss.get(s, flags) + stats.iter().map(|&t| loss.get(s, t)).sum::<f64>())
            .sum();
        assert!(
            total > 0.0,
            "stat counters must show false-sharing potential"
        );
    }

    #[test]
    fn slot_uses_distinguish_tick_and_steal() {
        let kernel = build_kernel();
        let e = kernel.records.e;
        let uses = slot_uses(&kernel, e);
        let e_tick = kernel.program.lookup("e_tick").unwrap();
        let e_steal = kernel.program.lookup("e_steal").unwrap();
        let tick_line = kernel
            .program
            .function(e_tick)
            .block(slopt_ir::cfg::BlockId(0))
            .line;
        let steal_line = kernel
            .program
            .function(e_steal)
            .block(slopt_ir::cfg::BlockId(0))
            .line;
        let rq_len = kernel.field(e, "rq_len");
        let steal_count = kernel.field(e, "steal_count");
        assert_eq!(uses[&(tick_line, rq_len)], vec![SlotKind::OwnCpu(e)]);
        assert_eq!(
            uses[&(steal_line, steal_count)],
            vec![SlotKind::OtherCpu(e)]
        );
        // Own x own never aliases; steal x own does with probability
        // 1/(cpus-1); shared x shared always.
        assert_eq!(
            pair_alias_probability(SlotKind::OwnCpu(e), SlotKind::OwnCpu(e), 16, 512),
            0.0
        );
        assert!(
            (pair_alias_probability(SlotKind::OtherCpu(e), SlotKind::OwnCpu(e), 16, 512)
                - 1.0 / 15.0)
                .abs()
                < 1e-12
        );
        assert_eq!(
            pair_alias_probability(SlotKind::Shared(e), SlotKind::Shared(e), 16, 512),
            1.0
        );
        assert_eq!(
            pair_alias_probability(SlotKind::Shared(e), SlotKind::Pool(e), 16, 512),
            0.0
        );
    }

    #[test]
    fn suggestions_are_valid_permutations() {
        let (kernel, sdet, cfg) = small();
        let analysis = analyze(&kernel, &sdet, &cfg);
        for (_, rec) in kernel.records.all() {
            let suggestion = suggest_for(&kernel, &analysis, rec, ToolParams::default());
            let ty = kernel.record_type(rec);
            let mut order = suggestion.layout.order().to_vec();
            order.sort();
            assert_eq!(order, ty.field_indices().collect::<Vec<_>>());
            let constrained = constrained_for(&kernel, &analysis, rec, ToolParams::default());
            let mut order = constrained.order().to_vec();
            order.sort();
            assert_eq!(order, ty.field_indices().collect::<Vec<_>>());
        }
    }

    #[test]
    fn suggested_a_layout_separates_counters_from_hot_reads() {
        let (kernel, sdet, cfg) = small();
        let analysis = analyze(&kernel, &sdet, &cfg);
        let s = suggest_for(&kernel, &analysis, kernel.records.a, ToolParams::default());
        let a = kernel.records.a;
        let flags = kernel.field(a, "flags");
        // No stat counter may share a line with the hot read fields.
        for k in 0..crate::structs::STAT_CLASSES {
            let stat = kernel.field(a, &format!("stat{k}"));
            assert!(
                !s.layout.share_line(stat, flags),
                "stat{k} must not share a line with flags"
            );
        }
    }
}
