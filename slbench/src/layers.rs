//! The layer calls both workload kinds share: `analyze` composed from
//! its public parts under per-layer spans, the check that the composition
//! equals `analyze`, and exact simulator totals.

use crate::report::Outcome;
use crate::trace::Tracer;
use slopt_ir::fmf::FieldMap;
use slopt_sample::{concurrency_map, ConcurrencyConfig, Sampler};
use slopt_sim::AccessClass;
use slopt_workload::{
    baseline_layouts, run_once, AnalysisConfig, Kernel, KernelAnalysis, SdetConfig, SdetRun,
};

/// Exact simulator totals over a set of runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SimTotals {
    /// Simulated memory accesses.
    pub(crate) accesses: u64,
    hits: u64,
    upgrade_hits: u64,
    cold_misses: u64,
    capacity_misses: u64,
    true_sharing_misses: u64,
    false_sharing_misses: u64,
    invalidations: u64,
    state_transitions: u64,
    dir_overflow_hits: u64,
    steps: u64,
    makespan_cycles: u64,
}

impl SimTotals {
    pub(crate) fn add(&mut self, run: &SdetRun) {
        let s = &run.stats;
        self.accesses += s.accesses();
        self.hits += s.class(AccessClass::Hit).count;
        self.upgrade_hits += s.class(AccessClass::UpgradeHit).count;
        self.cold_misses += s.class(AccessClass::ColdMiss).count;
        self.capacity_misses += s.class(AccessClass::CapacityMiss).count;
        self.true_sharing_misses += s.class(AccessClass::TrueSharingMiss).count;
        self.false_sharing_misses += s.class(AccessClass::FalseSharingMiss).count;
        self.invalidations += s.invalidations;
        self.state_transitions += s.state_transitions;
        self.dir_overflow_hits += s.dir_overflow_hits;
        self.steps += run.result.steps;
        self.makespan_cycles += run.result.makespan;
    }

    fn rows(&self) -> [(&'static str, u64); 12] {
        [
            ("sim.accesses", self.accesses),
            ("sim.hits", self.hits),
            ("sim.upgrade_hits", self.upgrade_hits),
            ("sim.cold_misses", self.cold_misses),
            ("sim.capacity_misses", self.capacity_misses),
            ("sim.true_sharing_misses", self.true_sharing_misses),
            ("sim.false_sharing_misses", self.false_sharing_misses),
            ("sim.invalidations", self.invalidations),
            ("sim.state_transitions", self.state_transitions),
            ("sim.dir_overflow_hits", self.dir_overflow_hits),
            ("sim.steps", self.steps),
            ("sim.makespan_cycles", self.makespan_cycles),
        ]
    }

    pub(crate) fn render(&self) -> String {
        self.rows()
            .iter()
            .map(|(name, v)| format!("{name} {v}\n"))
            .collect()
    }

    /// Publishes the totals and the host cost per simulated access/step.
    pub(crate) fn publish(&self, sim_ns: u64, out: &mut Outcome) {
        for (name, v) in self.rows() {
            out.set(name, v as f64);
        }
        out.set(
            "sim.host_ns_per_access",
            sim_ns as f64 / self.accesses.max(1) as f64,
        );
        out.set(
            "sim.host_ns_per_step",
            sim_ns as f64 / self.steps.max(1) as f64,
        );
    }
}

/// `analyze`, composed from the public calls it is built from, each under
/// its layer's span. Also returns the measurement run's simulator totals.
pub(crate) fn analyze_split(
    kernel: &Kernel,
    sdet: &SdetConfig,
    cfg: &AnalysisConfig,
    tracer: &Tracer,
) -> (KernelAnalysis, SimTotals) {
    let _span = tracer.span("workload.analyze");
    let layouts = baseline_layouts(kernel, sdet.line_size);
    let mut sampler = Sampler::new(cfg.machine.cpus(), cfg.sampler);
    let run = tracer.time("sim.measure_run", || {
        run_once(kernel, &layouts, &cfg.machine, sdet, cfg.seed, &mut sampler)
    });
    let mut totals = SimTotals::default();
    totals.add(&run);
    let samples = tracer.time("sample.into_samples", || sampler.into_samples());
    let concurrency = tracer.time("sample.concurrency_map", || {
        concurrency_map(
            &samples,
            &ConcurrencyConfig {
                interval: cfg.interval,
            },
        )
    });
    let fmf = tracer.time("ir.fmf_build", || FieldMap::build(&kernel.program));
    let analysis = KernelAnalysis {
        profile: run.result.profile,
        samples,
        concurrency,
        fmf,
        cpus: cfg.machine.cpus(),
        pool_instances: sdet.pool_instances,
    };
    (analysis, totals)
}

/// Differences between two analyses, as readable mismatch lines.
pub(crate) fn analysis_diff(a: &KernelAnalysis, b: &KernelAnalysis) -> Vec<String> {
    let mut diffs = Vec::new();
    let profile = |p: &slopt_ir::profile::Profile| {
        let mut v: Vec<_> = p.iter().collect();
        v.sort();
        v
    };
    let fmf = |f: &FieldMap| {
        let mut lines: Vec<_> = f.lines().collect();
        lines.sort();
        lines
            .into_iter()
            .map(|l| {
                let mut fields: Vec<_> = f.fields_at(l).collect();
                fields.sort_by_key(|&(key, _)| key);
                (l, fields)
            })
            .collect::<Vec<_>>()
    };
    if profile(&a.profile) != profile(&b.profile) {
        diffs.push("profile".to_string());
    }
    if a.samples != b.samples {
        diffs.push("samples".to_string());
    }
    if a.concurrency != b.concurrency {
        diffs.push("concurrency map".to_string());
    }
    if fmf(&a.fmf) != fmf(&b.fmf) {
        diffs.push("field mapping file".to_string());
    }
    if (a.cpus, a.pool_instances) != (b.cpus, b.pool_instances) {
        diffs.push("alias parameters".to_string());
    }
    diffs
}
