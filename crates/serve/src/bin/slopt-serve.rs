//! The `slopt-serve` binary: daemon mode (default), offline differential
//! reference (`--offline DIR`), and deterministic CI shard emission
//! (`--emit-samples DIR`).

use slopt_bench::{CheckpointSpec, CommonArgs};
use slopt_fault::{exit, FaultPlan};
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use slopt_serve::{offline_advice, DaemonConfig, ServeConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const ABOUT: &str = "always-available continuous layout-advisory daemon \
(windowed decaying Code Concurrency over slopt-shard/1 ingest)";

const EXTRA_HELP: &str = "SERVE OPTIONS:
    --addr HOST:PORT     Bind address (default 127.0.0.1:0; the bound
                         address is written to <state-dir>/addr).
    --window N           Window size in whole CC intervals (default 4096,
                         1..=1048576); samples older than the window decay
                         out.
    --interval N         CC interval length in cycles (default 6000, >= 1).
    --reopt-ms N         Re-optimize the cached advice every N ms when the
                         window changed (default 0: lazily on request).
    --offline DIR        Don't serve: fold every *.slshard under DIR and
                         print the advice an offline run yields (the
                         differential reference for the daemon).
    --advice-out PATH    With --offline: write the advice there instead of
                         stdout.
    --emit-samples DIR   Don't serve: split the deterministic measurement
                         sample stream into per-client shard files under
                         DIR (client<c>/b<seq>.slshard) for the CI soak.
    --clients N          With --emit-samples: collector count (default 3).
    --batches N          With --emit-samples: batches per client (default 8).

The daemon's state directory is --checkpoint-dir (required in daemon
mode); --resume refolds the journal there, reproducing the pre-crash
window bit-exactly.";

const EXTRAS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--window", true),
    ("--interval", true),
    ("--reopt-ms", true),
    ("--offline", true),
    ("--advice-out", true),
    ("--emit-samples", true),
    ("--clients", true),
    ("--batches", true),
];

/// Largest accepted `--window`, in intervals. The fold allocates nothing
/// in proportion to the window, so the cap only validates outside
/// input: a window this long already spans 2^20 intervals of history,
/// and anything larger is far more likely a typo than a need.
const MAX_WINDOW: u64 = 1 << 20;

/// Set by the SIGTERM handler; polled by the daemon main loop.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

fn install_sigterm() {
    // Minimal libc-free signal(2) binding: the handler only stores to an
    // atomic, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn extra_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .rposition(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}

fn extra_u64(argv: &[String], flag: &str, default: u64) -> u64 {
    match extra_value(argv, flag) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("slopt-serve: bad value `{raw}` for {flag} (expected an unsigned integer)");
            std::process::exit(i32::from(exit::USAGE));
        }),
    }
}

/// [`extra_u64`] restricted to `1..=max`: anything else is a usage
/// error naming the flag.
fn extra_count(argv: &[String], flag: &str, default: u64, max: u64) -> u64 {
    let value = extra_u64(argv, flag, default);
    if value == 0 || value > max {
        let expected = if max == u64::MAX {
            "a positive integer".to_string()
        } else {
            format!("1..={max}")
        };
        eprintln!("slopt-serve: bad value `{value}` for {flag} (expected {expected})");
        std::process::exit(i32::from(exit::USAGE));
    }
    value
}

fn main() {
    let args = CommonArgs::from_env_or_exit("slopt-serve", ABOUT, EXTRA_HELP, EXTRAS);
    let argv: Vec<String> = std::env::args().skip(1).collect();

    let serve = ServeConfig {
        interval: extra_count(&argv, "--interval", 6_000, u64::MAX),
        window: extra_count(&argv, "--window", 4_096, MAX_WINDOW),
    };
    let plan = args
        .fault
        .as_ref()
        .map(|f| f.plan.clone())
        .unwrap_or_else(FaultPlan::none);
    let policy = args
        .fault
        .as_ref()
        .map(|f| f.policy.clone())
        .unwrap_or_default();
    let max_retries = policy.max_retries;

    // The daemon always aggregates (its /metrics endpoint is live data),
    // upgrading to a trace file under --trace-out.
    let obs = match args.trace_out.as_deref() {
        Some(path) => Obs::to_trace_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("slopt-serve: cannot open trace output {path}: {e}");
            std::process::exit(1);
        }),
        None => Obs::aggregating(),
    };

    let code = if let Some(dir) = extra_value(&argv, "--emit-samples") {
        emit_samples(
            &PathBuf::from(dir),
            &serve,
            extra_u64(&argv, "--clients", 3),
            extra_u64(&argv, "--batches", 8),
            &obs,
        )
    } else if let Some(dir) = extra_value(&argv, "--offline") {
        offline(
            &PathBuf::from(dir),
            extra_value(&argv, "--advice-out"),
            &serve,
            args.jobs,
            policy,
            plan,
            &obs,
        )
    } else {
        daemon(&args, &argv, serve, policy, plan, max_retries, &obs)
    };

    obs.finish();
    if args.stats && obs.enabled() {
        println!("=== run stats ===");
        print!("{}", obs.summary());
    }
    std::process::exit(code);
}

fn daemon(
    args: &CommonArgs,
    argv: &[String],
    serve: ServeConfig,
    policy: SupervisePolicy,
    plan: FaultPlan,
    max_retries: u32,
    obs: &Obs,
) -> i32 {
    let Some(spec) = args.checkpoint_spec() else {
        eprintln!("slopt-serve: daemon mode needs --checkpoint-dir (the state directory)");
        return i32::from(exit::USAGE);
    };
    install_sigterm();
    let cfg = DaemonConfig {
        addr: extra_value(argv, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        spec: CheckpointSpec {
            dir: spec.dir,
            resume: args.resume,
        },
        serve,
        jobs: args.jobs,
        reopt_ms: extra_u64(argv, "--reopt-ms", 0),
        queue: 64,
        max_retries,
        policy,
        plan,
    };
    let state_dir = cfg.spec.dir.clone();
    let handle = match slopt_serve::start(cfg, obs) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("slopt-serve: cannot start: {e}");
            return 1;
        }
    };
    eprintln!(
        "[serve] listening on {} (state: {})",
        handle.addr,
        state_dir.display()
    );
    let flag = handle.shutdown_flag();
    while !TERM.load(Ordering::SeqCst) && !flag.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("[serve] draining");
    match handle.stop() {
        Ok(()) => {
            eprintln!("[serve] drained");
            0
        }
        Err(e) => {
            eprintln!("slopt-serve: drain failed: {e}");
            1
        }
    }
}

fn offline(
    dir: &std::path::Path,
    advice_out: Option<String>,
    serve: &ServeConfig,
    jobs: usize,
    policy: SupervisePolicy,
    plan: FaultPlan,
    obs: &Obs,
) -> i32 {
    match offline_advice(dir, serve, jobs, policy, plan, obs) {
        Ok(advice) => match advice_out {
            Some(path) => match std::fs::write(&path, &advice.text) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("slopt-serve: cannot write {path}: {e}");
                    1
                }
            },
            None => {
                print!("{}", advice.text);
                0
            }
        },
        Err(e) => {
            eprintln!(
                "slopt-serve: offline fold over {} failed: {e}",
                dir.display()
            );
            i32::from(exit::BAD_INPUT)
        }
    }
}

/// Splits the deterministic measurement-run sample stream into
/// per-client shard batches: chunk `k` of `clients * batches` contiguous
/// chunks goes to client `k % clients` as its sequence `k / clients`.
/// Contiguous chunks keep each shard time-sorted (the shard invariant),
/// and the round-robin assignment means replaying clients concurrently
/// interleaves genuinely overlapping time ranges.
fn emit_samples(
    dir: &std::path::Path,
    serve: &ServeConfig,
    clients: u64,
    batches: u64,
    obs: &Obs,
) -> i32 {
    let kernel = slopt_workload::build_kernel();
    let analysis = slopt_workload::analyze_obs(
        &kernel,
        &slopt_workload::SdetConfig::default(),
        &slopt_serve::advice::analysis_config(serve),
        obs,
    );
    // The analysis stream is grouped, not globally time-ordered; the
    // shard invariant wants time order. Stable sort keeps determinism.
    let mut samples = analysis.samples;
    samples.sort_by_key(|s| s.time);
    let chunks = (clients * batches).max(1) as usize;
    let per = samples.len().div_ceil(chunks);
    let mut written = 0u64;
    for k in 0..chunks {
        let lo = (k * per).min(samples.len());
        let hi = ((k + 1) * per).min(samples.len());
        if lo >= hi {
            continue;
        }
        let client = (k as u64) % clients;
        let seq = (k as u64) / clients;
        let cdir = dir.join(format!("client{client:02}"));
        if let Err(e) = std::fs::create_dir_all(&cdir) {
            eprintln!("slopt-serve: cannot create {}: {e}", cdir.display());
            return 1;
        }
        let path = cdir.join(format!("b{seq:04}.slshard"));
        if let Err(e) = slopt_sample::write_shard(&path, &samples[lo..hi]) {
            eprintln!("slopt-serve: cannot write {}: {e}", path.display());
            return 1;
        }
        written += 1;
    }
    eprintln!(
        "[serve] emitted {written} shard batches ({} samples) under {}",
        samples.len(),
        dir.display()
    );
    0
}
