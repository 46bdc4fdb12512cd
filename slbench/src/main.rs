//! `slbench` — the repository benchmark.
//!
//! ```text
//! slbench --workload <fig8_superdome128|fig9_bus4|serve_stream> --seed <n>
//!         --seconds <s> --trace <0|1>
//!         [--size full|tiny] [--expected DIR] [--record] [--work-dir DIR]
//! ```
//!
//! Runs one workload through the public entry points users call, checks
//! its outputs, and prints as the last line of standard output one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics of the mode
//! (end-to-end untraced, per-layer traced; see [`report`]). Seed 0 is the
//! default seed: the program's own default inputs, whose outputs are
//! recorded under `expected/` and checked on every run. Every seed prints
//! a digest of its outputs so two commits can be compared exactly.
//!
//! `--size tiny` shrinks every workload for the benchmark's own tests;
//! `--record` writes the expected outputs instead of checking them.

mod figures;
mod layers;
mod probe;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["fig8_superdome128", "fig9_bus4", "serve_stream"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 selects the program's default inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub traced: bool,
    /// Shrunken inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Where the expected outputs of the default seed live.
    pub expected: PathBuf,
    /// Write the expected outputs instead of checking them.
    pub record: bool,
    /// Scratch directory for daemon state, shard files and span dumps.
    pub work_dir: PathBuf,
}

impl Opts {
    /// Whether this run's inputs are the recorded default ones.
    pub fn default_seed(&self) -> bool {
        self.seed == 0
    }

    /// Mixes the benchmark seed into a program seed (SplitMix64), leaving
    /// the program default in place for the default seed.
    pub fn program_seed(&self, default: u64, salt: u64) -> u64 {
        if self.default_seed() {
            return default;
        }
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Compares `actual` with the expected file `name` (default seed
    /// only), or writes it under `--record`.
    pub fn check_expected(&self, name: &str, actual: &str, out: &mut Outcome) {
        if !self.default_seed() {
            return;
        }
        let path = self.expected.join(name);
        if self.record {
            if let Err(e) =
                std::fs::create_dir_all(&self.expected).and_then(|()| std::fs::write(&path, actual))
            {
                out.mismatch(format!("cannot record {}: {e}", path.display()));
            }
            return;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => out.mismatch(format!(
                "{} differs from the run's output:\n--- expected\n{expected}--- actual\n{actual}",
                path.display()
            )),
            Err(e) => out.mismatch(format!("cannot read {}: {e}", path.display())),
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("slbench: {msg}");
    eprintln!(
        "usage: slbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--size full|tiny] [--expected DIR] [--record] [--work-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value `{value}` for {flag}"))
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        tiny: false,
        expected: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")),
        record: false,
        work_dir: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record" {
            opts.record = true;
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else {
            usage(&format!("{flag} needs a value"));
        };
        match flag {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| bad(flag, value))
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            "--size" => {
                opts.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => bad(flag, value),
                }
            }
            "--expected" => opts.expected = PathBuf::from(value),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload `{}`", opts.workload));
    }
    opts
}

fn main() {
    let opts = parse_args();
    let tracer = Tracer::new(opts.traced);
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("slbench: cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(1);
    }
    let result = match opts.workload.as_str() {
        "fig8_superdome128" | "fig9_bus4" => figures::run(&opts, &tracer, &mut out),
        _ => serve::run(&opts, &tracer, &mut out),
    };
    if let Err(e) = result {
        eprintln!("slbench: {} failed: {e}", opts.workload);
        std::process::exit(1);
    }
    if opts.traced {
        for (layer, ns) in tracer.self_ns_by_layer() {
            if report::LAYERS.contains(&layer) {
                out.set(&format!("{layer}.self_ms"), ns as f64 / 1e6);
            }
        }
        let path = opts
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("[slbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[slbench] cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", out.json_line(opts.traced));
}
