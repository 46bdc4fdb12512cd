//! The `serve_stream` workload: an in-process `slopt-serve` daemon fed
//! by two closed-loop collectors.
//!
//! The input is the measurement run's sample stream, sorted by time and
//! cut into contiguous batches dealt round-robin to the collectors, as
//! `slopt-serve --emit-samples` does. Each collector holds one connection,
//! sends its batches in order, and asks for ADVISE after every second
//! batch. The window is shorter than the stream, so eviction runs. Each
//! pass starts a fresh daemon (fresh state directory, loopback, ephemeral
//! port) and stops it afterwards.
//!
//! The final advice of every pass must be `cmp`-equal to `offline_advice`
//! over the same batches. The traced run also replays the batch sequence
//! offline through the layers' public calls to attribute the request
//! latency.

use crate::layers::{analysis_diff, analyze_split};
use crate::probe::Probe;
use crate::report::{
    another_pass, median, ns_to_ms, pass_seconds, peak_rss_mb, percentile, reset_peak_rss,
    timed_rounds, Digest, Outcome, SETUP_SHARE,
};
use crate::trace::Tracer;
use crate::Opts;
use slopt_bench::CheckpointSpec;
use slopt_fault::FaultPlan;
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use slopt_sample::{write_shard, ConcurrencyConfig, WindowedConcurrency};
use slopt_serve::advice::analysis_config;
use slopt_serve::{
    offline_advice, start, Advisor, Client, DaemonConfig, DaemonHandle, IngestBatch, ServeConfig,
    ServeState,
};
use slopt_workload::{analyze, build_kernel, suggest_for, AnalysisConfig, SdetConfig};
use std::io;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Collector threads, one connection each.
const CLIENTS: usize = 2;
/// A collector asks for advice after every this many batches.
const ADVISE_EVERY: usize = 2;
/// Re-optimization threads of the daemon.
const JOBS: usize = 2;

struct Shape {
    batches: usize,
    window: u64,
}

impl Shape {
    fn of(opts: &Opts) -> Shape {
        if opts.tiny {
            Shape {
                batches: 8,
                window: 4,
            }
        } else {
            // 128 batches over the stream's ~51 intervals; a 16-interval
            // window keeps about a third of it.
            Shape {
                batches: 128,
                window: 16,
            }
        }
    }
}

/// The measurement run's configuration for this seed.
fn stream_inputs(opts: &Opts, serve: &ServeConfig) -> (SdetConfig, AnalysisConfig) {
    let mut sdet = SdetConfig::default();
    if opts.tiny {
        sdet.scripts_per_cpu = 2;
    }
    sdet.seed = opts.program_seed(sdet.seed, 1);
    let mut cfg = analysis_config(serve);
    cfg.seed = opts.program_seed(cfg.seed, 2);
    (sdet, cfg)
}

/// Sorts the samples by time and deals at least `batches` contiguous
/// chunks round-robin: chunk `k` is batch `k / CLIENTS` of client
/// `k % CLIENTS`.
fn deal(mut samples: Vec<slopt_sample::Sample>, batches: usize) -> Vec<IngestBatch> {
    samples.sort_by_key(|s| s.time);
    let per = (samples.len() / batches).max(1);
    samples
        .chunks(per)
        .enumerate()
        .map(|(k, chunk)| IngestBatch {
            client: (k % CLIENTS) as u64,
            seq: (k / CLIENTS) as u64,
            samples: chunk.to_vec(),
        })
        .collect()
}

/// What one live pass measured.
struct Pass {
    run_s: f64,
    ingest_ms: Vec<f64>,
    advise_ms: Vec<f64>,
    requests: u64,
    failed: u64,
    advice: String,
    reopt_runs: f64,
}

/// Starts a daemon on a fresh state directory, on an ephemeral loopback
/// port. Like `slopt-serve`, it aggregates metrics for its METRICS op.
fn start_daemon(
    serve: &ServeConfig,
    state_dir: &Path,
    tracer: &Tracer,
) -> io::Result<DaemonHandle> {
    let _ = std::fs::remove_dir_all(state_dir);
    let mut cfg = DaemonConfig::local(state_dir, false);
    cfg.serve = serve.clone();
    cfg.jobs = JOBS;
    tracer.time("serve.start", || start(cfg, &Obs::aggregating()))
}

/// Runs both collectors to the end of the stream, fetches the final
/// advice and metrics, and stops the daemon.
fn live_pass(stream: &[IngestBatch], daemon: DaemonHandle, tracer: &Tracer) -> io::Result<Pass> {
    let addr = daemon.addr.to_string();

    let barrier = Barrier::new(CLIENTS + 1);
    let (t0, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, barrier) = (&addr, &barrier);
                s.spawn(move || collect(c, stream, addr, barrier, tracer))
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let per_client: Vec<Collected> = handles
            .into_iter()
            .map(|h| h.join().expect("collector thread panicked"))
            .collect();
        (t0, per_client)
    });
    let run_s = t0.elapsed().as_secs_f64();

    let mut client = Client::new(addr);
    let advice = client.advise();
    let metrics = client.metrics();
    drop(client);
    daemon.stop()?;

    let mut pass = Pass {
        run_s,
        ingest_ms: Vec::new(),
        advise_ms: Vec::new(),
        requests: 2,
        failed: 0,
        advice: String::new(),
        reopt_runs: 0.0,
    };
    for c in per_client {
        pass.ingest_ms.extend(c.ingest_ms);
        pass.advise_ms.extend(c.advise_ms);
        pass.requests += c.requests;
        pass.failed += c.failed;
    }
    match advice {
        Ok(text) => pass.advice = text,
        Err(e) => {
            eprintln!("[slbench] final ADVISE failed: {e}");
            pass.failed += 1;
        }
    }
    match metrics {
        Ok(text) => pass.reopt_runs = reopt_runs(&text),
        Err(e) => {
            eprintln!("[slbench] METRICS failed: {e}");
            pass.failed += 1;
        }
    }
    Ok(pass)
}

#[derive(Default)]
struct Collected {
    ingest_ms: Vec<f64>,
    advise_ms: Vec<f64>,
    requests: u64,
    failed: u64,
}

/// One collector's closed loop over its share of the stream.
fn collect(
    c: usize,
    stream: &[IngestBatch],
    addr: &str,
    barrier: &Barrier,
    tracer: &Tracer,
) -> Collected {
    let mut client = Client::new(addr);
    let mut out = Collected::default();
    let none = FaultPlan::none();
    let mine = stream.iter().filter(|b| b.client == c as u64);
    barrier.wait();
    for (j, batch) in mine.enumerate() {
        let t = Instant::now();
        let r = tracer.time("serve.ingest_rt", || {
            client.ingest(batch, &none, 0, &Obs::disabled())
        });
        out.ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.requests += 1;
        if let Err(e) = r {
            eprintln!("[slbench] collector {c}: INGEST failed: {e}");
            out.failed += 1;
        }
        if (j + 1) % ADVISE_EVERY == 0 {
            let t = Instant::now();
            let r = tracer.time("serve.advise_rt", || client.advise());
            out.advise_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.requests += 1;
            match r {
                Ok(doc) if doc.starts_with("slopt-advice/1 ") => {}
                Ok(doc) => {
                    eprintln!("[slbench] collector {c}: malformed advice: {doc:.80}");
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("[slbench] collector {c}: ADVISE failed: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    out
}

/// The `serve.reopt.runs` counter from a Prometheus scrape.
fn reopt_runs(prom: &str) -> f64 {
    prom.lines()
        .filter(|l| l.starts_with("slopt_serve_reopt_runs"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum()
}

/// Writes the stream as shard files, `client<c>/b<seq>.slshard`.
fn write_stream(stream: &[IngestBatch], dir: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    for b in stream {
        let cdir = dir.join(format!("client{:02}", b.client));
        std::fs::create_dir_all(&cdir)?;
        write_shard(&cdir.join(format!("b{:04}.slshard", b.seq)), &b.samples)?;
    }
    Ok(())
}

/// The offline reference advice over exactly the stream's batches.
fn offline(stream: &[IngestBatch], serve: &ServeConfig, work: &Path) -> io::Result<String> {
    let dir = work.join("shards");
    write_stream(stream, &dir)?;
    let advice = offline_advice(
        &dir,
        serve,
        JOBS,
        SupervisePolicy::default(),
        FaultPlan::none(),
        &Obs::disabled(),
    )?;
    Ok(advice.text)
}

/// Checks every pass's final advice against the offline reference and
/// the expected file, then prints the reference and its digest line.
fn check_passes<'a>(
    passes: impl Iterator<Item = &'a Pass>,
    reference: &str,
    digest_extra: &str,
    opts: &Opts,
    out: &mut Outcome,
) {
    for (i, p) in passes.enumerate() {
        if p.advice != reference {
            out.mismatch(format!(
                "pass {i}: live advice differs from offline_advice over the same batches"
            ));
        }
    }
    print!("{reference}");
    opts.check_expected("serve_stream.advice", reference, out);
    let mut d = Digest::default();
    d.eat(reference.as_bytes());
    println!(
        "digest workload={} seed={} advice={}{digest_extra}",
        opts.workload,
        opts.seed,
        d.hex()
    );
}

pub fn run(opts: &Opts, tracer: &Tracer, out: &mut Outcome) -> io::Result<()> {
    let shape = Shape::of(opts);
    let serve = ServeConfig {
        window: shape.window,
        ..ServeConfig::default()
    };
    let work = opts.work_dir.join(format!("serve-{}", std::process::id()));
    let result = if opts.traced {
        run_traced(opts, &shape, &serve, &work, tracer, out)
    } else {
        run_plain(opts, &shape, &serve, &work, out)
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Set-up-only rounds for `budget` seconds under a [`Probe`], each in
/// reference seconds.
fn setup_burst(
    budget: f64,
    set_up: &mut impl FnMut(&mut Outcome) -> io::Result<(Vec<IngestBatch>, DaemonHandle, f64)>,
    out: &mut Outcome,
) -> io::Result<Vec<f64>> {
    let probe = Probe::start();
    let mut spans = Vec::new();
    timed_rounds(budget, || {
        let t0 = Instant::now();
        let (_, daemon, secs) = set_up(out)?;
        spans.push((t0, Instant::now()));
        daemon.stop()?;
        Ok(secs)
    })?;
    Ok(spans.iter().map(|&(a, b)| probe.normalize(a, b)).collect())
}

fn run_plain(
    opts: &Opts,
    shape: &Shape,
    serve: &ServeConfig,
    work: &Path,
    out: &mut Outcome,
) -> io::Result<()> {
    let off = Tracer::new(false);
    let (sdet, cfg) = stream_inputs(opts, serve);
    let state_dir = work.join("state");
    let mut first: Option<Vec<IngestBatch>> = None;
    // One set-up: stream generation + daemon start. Every repeat must
    // deal the same batches.
    let mut set_up = |out: &mut Outcome| -> io::Result<(Vec<IngestBatch>, DaemonHandle, f64)> {
        let t0 = Instant::now();
        let batches = deal(analyze(&build_kernel(), &sdet, &cfg).samples, shape.batches);
        let daemon = start_daemon(serve, &state_dir, &off)?;
        let secs = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        match &first {
            None => first = Some(batches.clone()),
            Some(f) if *f != batches => out.mismatch("two set-ups generated different streams"),
            Some(_) => {}
        }
        Ok((batches, daemon, secs))
    };
    // Set-up-only rounds before and after the passes; `setup_s` is the
    // median over them, in reference seconds. The probe pins the thread,
    // and with it the daemons the rounds start, so it runs only during
    // the rounds: the passes keep every CPU.
    let burst = opts.seconds * SETUP_SHARE;
    let mut setup_s = setup_burst(burst, &mut set_up, out)?;
    reset_peak_rss();
    let start_t = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t0 = Instant::now();
        let (batches, daemon, secs) = set_up(out)?;
        let pass = live_pass(&batches, daemon, &off)?;
        eprintln!(
            "[slbench] pass: set-up {secs:.3} s, run {:.3} s",
            pass.run_s
        );
        out.attempted += pass.requests;
        out.failed += pass.failed;
        passes.push(pass);
        if !another_pass(
            start_t,
            pass_seconds(opts.seconds),
            t0.elapsed().as_secs_f64(),
        ) {
            break;
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    setup_s.extend(setup_burst(burst, &mut set_up, out)?);
    let stream = first.expect("at least one set-up");
    let reference = offline(&stream, serve, work)?;
    let extra = format!(" passes={}", passes.len());
    check_passes(passes.iter(), &reference, &extra, opts, out);
    let run: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    out.set("setup_s", median(&setup_s));
    out.set("run_s", median(&run));
    Ok(())
}

fn run_traced(
    opts: &Opts,
    shape: &Shape,
    serve: &ServeConfig,
    work: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> io::Result<()> {
    let off = Tracer::new(false);
    let (sdet, cfg) = stream_inputs(opts, serve);

    // Set-up, split into the layers' public calls.
    let (kernel, analysis, totals) = {
        let _span = tracer.span("bench.setup");
        let kernel = tracer.time("ir.build_kernel", build_kernel);
        let (analysis, totals) = analyze_split(&kernel, &sdet, &cfg, tracer);
        (kernel, analysis, totals)
    };
    for diff in analysis_diff(&analysis, &analyze(&kernel, &sdet, &cfg)) {
        out.mismatch(format!(
            "composed analysis differs from analyze's in its {diff}"
        ));
    }
    let stream = deal(analysis.samples, shape.batches);
    out.attempted += 1;

    // Live passes: one untraced, one traced, alternating.
    let start_t = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        let t0 = Instant::now();
        let state_dir = work.join("state");
        plain.push(live_pass(
            &stream,
            start_daemon(serve, &state_dir, &off)?,
            &off,
        )?);
        traced.push(live_pass(
            &stream,
            start_daemon(serve, &state_dir, tracer)?,
            tracer,
        )?);
        for p in plain.last().into_iter().chain(traced.last()) {
            out.attempted += p.requests;
            out.failed += p.failed;
        }
        if !another_pass(
            start_t,
            pass_seconds(opts.seconds),
            t0.elapsed().as_secs_f64(),
        ) {
            break;
        }
    }
    let reference = offline(&stream, serve, work)?;

    // Attribution: the batch sequence replayed offline, layer by layer.
    let (replayed, mut advisor, mut state, mut win) = {
        let _span = tracer.span("bench.attribution");
        let spec = CheckpointSpec {
            dir: work.join("replay-state"),
            resume: false,
        };
        let mut state = ServeState::open(&spec, serve.clone(), &Obs::disabled())?;
        let mut win = WindowedConcurrency::new(
            ConcurrencyConfig {
                interval: serve.interval,
            },
            serve.window,
        );
        for batch in &stream {
            let payload = tracer.time("serve.encode", || batch.encode())?;
            let decoded = tracer
                .time("serve.decode", || IngestBatch::decode(&payload))
                .map_err(|e| io::Error::other(e.to_string()))?;
            if decoded != *batch {
                out.mismatch("an ingest batch did not survive encode/decode");
            }
            tracer.time("serve.apply", || {
                state.apply(&decoded, &FaultPlan::none(), 0, &Obs::disabled())
            })?;
            tracer.time("sample.window_ingest", || win.ingest(&decoded.samples));
        }
        let mut advisor = tracer.time("serve.advisor_new", || {
            Advisor::new(
                serve,
                JOBS,
                SupervisePolicy::default(),
                FaultPlan::none(),
                &Obs::disabled(),
            )
        });
        let advice = tracer.time("serve.advise", || {
            advisor.advise(&mut win, &Obs::disabled())
        });
        (advice.text, advisor, state, win)
    };
    if advisor.advise(state.window(), &Obs::disabled()).text != replayed {
        out.mismatch("ServeState's window advises differently from the replayed window");
    }
    // The two steps `advise` is made of, each on its own: the window's
    // concurrency map, then one suggestion per record against the
    // advisor's static analysis.
    let cc = tracer.time("sample.window_concurrency", || win.concurrency_jobs(JOBS));
    let mut stat = analyze(&kernel, &SdetConfig::default(), &analysis_config(serve));
    stat.concurrency = cc;
    for (_, rec) in kernel.records.all() {
        tracer.time("core.suggest", || {
            suggest_for(&kernel, &stat, rec, slopt_core::ToolParams::default())
        });
    }
    out.set("sample.retained", win.retained_samples() as f64);
    out.set("sample.evicted", win.evicted_samples() as f64);
    out.set("sample.late_dropped", win.late_dropped() as f64);
    out.attempted += stream.len() as u64;
    if replayed != reference {
        out.mismatch("the replayed window's advice differs from offline_advice");
    }
    let mut ds = Digest::default();
    ds.eat(totals.render().as_bytes());
    let extra = format!(" sim={} passes={}", ds.hex(), plain.len());
    check_passes(plain.iter().chain(&traced), &reference, &extra, opts, out);

    let ms = |name: &str| ns_to_ms(&tracer.durations_ns(name));
    let us = |name: &str| median(&ms(name)) * 1e3;
    out.set("ir.build_kernel_ms", median(&ms("ir.build_kernel")));
    out.set("ir.fmf_build_ms", median(&ms("ir.fmf_build")));
    out.set("workload.analyze_ms", median(&ms("workload.analyze")));
    out.set(
        "sample.concurrency_map_ms",
        median(&ms("sample.concurrency_map")),
    );
    let measure = ms("sim.measure_run");
    out.set("sim.run_once_p50_ms", percentile(&measure, 0.5));
    out.set("sim.run_once_p90_ms", percentile(&measure, 0.9));
    totals.publish(tracer.total_ns("sim.measure_run"), out);
    out.set("core.suggest_ms", median(&ms("core.suggest")));

    // Latencies pool both kinds of pass: the spans around a round trip
    // cost well under a microsecond.
    let both = || plain.iter().chain(&traced);
    let ingest: Vec<f64> = both().flat_map(|p| p.ingest_ms.clone()).collect();
    let advise: Vec<f64> = both().flat_map(|p| p.advise_ms.clone()).collect();
    let ingest_p50 = percentile(&ingest, 0.5);
    out.set("ingest_p50_ms", ingest_p50);
    out.set("ingest_p90_ms", percentile(&ingest, 0.9));
    out.set("advise_p50_ms", percentile(&advise, 0.5));
    out.set("advise_p90_ms", percentile(&advise, 0.9));
    eprintln!(
        "[slbench] latency samples: {} INGEST, {} ADVISE",
        ingest.len(),
        advise.len()
    );
    let run_s = median(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    out.set("batches_per_s", stream.len() as f64 / run_s);
    out.set("serve.encode_us", us("serve.encode"));
    out.set("serve.decode_us", us("serve.decode"));
    out.set("serve.apply_us", us("serve.apply"));
    out.set("sample.window_ingest_us", us("sample.window_ingest"));
    out.set(
        "sample.window_concurrency_ms",
        median(&ms("sample.window_concurrency")),
    );
    out.set("serve.advise_ms", median(&ms("serve.advise")));
    out.set(
        "serve.transport_ms",
        ingest_p50 - (us("serve.decode") + us("serve.apply")) / 1e3,
    );
    out.set(
        "serve.reopt_runs",
        median(&plain.iter().map(|p| p.reopt_runs).collect::<Vec<_>>()),
    );
    let traced_run = median(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>());
    out.set("obs.trace_overhead_frac", traced_run / run_s - 1.0);
    Ok(())
}
