//! The repo benchmark: boots the real `seqge-serve` daemon, drives it over
//! loopback TCP, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`) of one workload as one JSON line. See
//! `README.md` beside this package for what every number means.

mod layers;
mod reference;
mod selftest;
mod serve_run;
mod span;
mod stats;
mod stream;
mod workload;

use serve_run::{scaled, Burst, Mixed, Quality, Session};
use std::path::{Path, PathBuf};
use stream::ChurnStream;
use workload::{Workload, DIM};

/// A checked step: `Err` carries why the run is invalid. Any `Err` ends the
/// process with a non-zero code and no result line.
pub type Gate<T> = Result<T, String>;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 16;

/// Witness-kernel runs on each side of a cold boot: a boot is one long call
/// with nothing to interleave, so its two brackets are taken with more care
/// than the ones between slices.
const SETUP_KERNEL_RUNS: usize = 9;

/// Parsed command line of a run.
pub struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where the run keeps its WAL and writes its span file: `out/` inside the
/// benchmark package, so nothing is written outside the checkout.
fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

/// The benchmark package's directory: where `cargo run` says it is, else
/// where it was when this binary was built.
pub fn manifest_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string())
        .into()
}

/// The filesystem type `dir` lives on, from `/proc/self/mountinfo`.
fn fs_type(dir: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let (head, tail) = l.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            dir.starts_with(mount_point).then(|| (mount_point.len(), tail.split(' ').next()))
        })
        .max_by_key(|(len, _)| *len)
        .and_then(|(_, fs)| fs)
        .unwrap_or("unknown")
        .to_string()
}

/// What a result depends on besides the code, as one JSON object.
fn run_meta(args: &RunArgs) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"commit":"{}","rustc":"{}","nproc":{nproc},"kernel":"{}","wal_fs":"{}","wal_fsync":"never"}}"#,
        args.workload.name,
        args.seed,
        args.seconds,
        env!("BENCH_COMMIT"),
        env!("BENCH_RUSTC"),
        kernel.trim(),
        fs_type(&out_dir())
    )
}

/// A WAL directory that is removed again when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Gate<ScratchDir> {
        let dir = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the served phases of one run measured.
pub struct Served {
    /// Cold boot as timed, s, and the machine speed while it ran.
    setup_s: f64,
    setup_speed: f64,
    burst: Burst,
    mixed: Mixed,
    quality: Quality,
    attempted: u64,
    /// Publishes (snapshot versions) the burst phase caused.
    burst_publishes: u64,
    /// Mean trainer batch in the burst phase (`ServeStats.ingest_batch`).
    burst_batch_mean: f64,
    /// Publishes the mixed phase caused.
    mixed_publishes: u64,
    /// Mean trainer batch in the mixed phase.
    mixed_batch_mean: f64,
}

/// A run's inputs: the generated stream and how `--seconds` is split.
struct Plan {
    stream: ChurnStream,
    /// Seconds it took to generate `stream`.
    gen_s: f64,
    /// Burst budget, s: half of `--seconds`; the mixed phase gets the rest.
    burst_s: f64,
    /// Burst events: a fixed count, so that every counter repeats exactly.
    burst_events: usize,
}

impl Plan {
    fn new(args: &RunArgs) -> Gate<Plan> {
        let w = args.workload;
        let burst_s = args.seconds / 2.0;
        let burst_events = w.burst_events(burst_s);
        let mixed_events = (w.mixed_events_per_s * (args.seconds - burst_s)) as usize;
        let replayed = if args.trace { layers::replay_events(w) } else { 0 };
        let t0 = std::time::Instant::now();
        let stream =
            ChurnStream::generate(w.nodes, args.seed, replayed + burst_events + mixed_events);
        let gen_s = t0.elapsed().as_secs_f64();
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
        // Timing spans inside the server are part of what `seqge serve` runs
        // by default; pin them on so an inherited SEQGE_OBS cannot change
        // the work.
        seqge_obs::set_timing_enabled(true);
        Ok(Plan { stream, gen_s, burst_s, burst_events })
    }
}

/// One cold boot → burst → quality → mixed → reconcile → shutdown. With
/// `replay`, the traced in-process replay runs on the booted backend before
/// the daemon starts, so the daemon continues from the replayed state.
fn serve_once(args: &RunArgs, plan: &Plan, replay: Option<&mut layers::Replay>) -> Gate<Served> {
    let w = args.workload;
    let Plan { stream, burst_s, burst_events, .. } = plan;
    let (burst_s, burst_events) = (*burst_s, *burst_events);
    let dir = ScratchDir::new(w.name)?;
    let kernel_before = reference::kernel_ms(SETUP_KERNEL_RUNS);
    let (mut boot, store_s) = serve_run::boot_store(w, stream, &dir.0)?;
    let before = match replay {
        Some(r) => r.run(&mut boot, stream, &w.spec())?,
        None => 0,
    };
    let (handle, client, start_s) = serve_run::start_server(boot)?;
    let setup_speed = reference::speed(kernel_before, reference::kernel_ms(SETUP_KERNEL_RUNS));
    let mut s = Session::new(client);

    // `ServeStats.ingest_batch` as (batches, events) so far; the mean batch
    // of a phase is Δevents ÷ Δbatches.
    let batches = handle.stats().ingest_batch.clone();
    let batch_totals = || (batches.count(), batches.sum());
    let mean_batch =
        |from: (u64, u64), to: (u64, u64)| (to.1 - from.1) as f64 / (to.0 - from.0).max(1) as f64;
    let totals0 = batch_totals();
    let events = &stream.events[before..];
    let v0 = s.flush()?;
    let burst = serve_run::burst(&mut s, &events[..burst_events], w.slice_events)?;
    let totals1 = batch_totals();
    let v1 = s.last_version;
    // Quality is measured here, after a fixed amount of training, and not
    // after the mixed phase, whose event count depends on the machine: the
    // same seed then gives the same AUC and recall on every run.
    let quality = serve_run::quality(&mut s, stream, DIM, args.seed)?;

    let mixed = serve_run::mixed(
        &mut s,
        handle.addr(),
        &events[burst_events..],
        w.nodes,
        args.seconds - burst_s,
        args.seed,
    )?;
    let writes = mixed.writes.visible_ms.len();
    let totals2 = batch_totals();
    let v2 = s.last_version;

    serve_run::reconcile(&mut s, &handle, stream, before, burst_events + writes)?;
    let attempted = s.attempted;
    drop(s);
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(Served {
        setup_s: store_s + start_s,
        setup_speed,
        burst,
        mixed,
        quality,
        attempted,
        burst_publishes: v1 - v0,
        burst_batch_mean: mean_batch(totals0, totals1),
        mixed_publishes: v2 - v1,
        mixed_batch_mean: mean_batch(totals1, totals2),
    })
}

/// A throw-away cold boot: boot the store, start the daemon, first `ping`;
/// then shut down. Returns the seconds as timed and the machine speed.
fn time_setup(w: &Workload, stream: &ChurnStream) -> Gate<(f64, f64)> {
    let dir = ScratchDir::new(w.name)?;
    let kernel_before = reference::kernel_ms(SETUP_KERNEL_RUNS);
    let (boot, store_s) = serve_run::boot_store(w, stream, &dir.0)?;
    let (handle, client, start_s) = serve_run::start_server(boot)?;
    let speed = reference::speed(kernel_before, reference::kernel_ms(SETUP_KERNEL_RUNS));
    drop(client);
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok((store_s + start_s, speed))
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
}

/// Prints the result line the driver reads: the last line of stdout.
fn print_result(attempted: u64, metrics: &[String]) {
    println!(
        r#"{{"correct":true,"attempted":{attempted},"failed":0,"metrics":{{{}}}}}"#,
        metrics.join(",")
    );
}

/// A traced run: both replays, the served phases, the ledger. Returns the
/// operations attempted and the per-layer metrics.
fn traced(args: &RunArgs, plan: &Plan) -> Gate<(u64, Vec<String>)> {
    let mut replay = layers::Replay::new(args.workload, out_dir());
    let served = serve_once(args, plan, Some(&mut replay))?;
    let metrics = layers::ledger(args, &plan.stream, &served, replay, plan.gen_s, &run_meta(args))?;
    Ok((served.attempted, metrics))
}

fn run(args: &RunArgs) -> Gate<()> {
    let w = args.workload;
    let plan = Plan::new(args)?;
    let gen_s = plan.gen_s;
    eprintln!("meta: {}", run_meta(args));
    if args.trace {
        let (attempted, metrics) = traced(args, &plan)?;
        print_result(attempted, &metrics);
        return Ok(());
    }

    // The boots before the measured one are timed and thrown away; the
    // median over all of them is the set-up time.
    let mut setups = Vec::new();
    for _ in 1..w.setups {
        setups.push(time_setup(w, &plan.stream)?);
    }
    let served = serve_once(args, &plan, None)?;
    setups.push((served.setup_s, served.setup_speed));
    let (burst, writes, reads) = (&served.burst, &served.mixed.writes, &served.mixed.reads);
    let p50 = |samples: Vec<f64>| stats::median(&mut { samples });
    // Every timing below is scaled to the speed of the quiet box (see
    // `reference`); the values as timed go to stderr.
    let speeds = |w: &reference::Witness| (0..w.segments()).map(|k| w.speed(k)).collect();
    eprintln!(
        "{}: {} slices, {} writes, {} reads; machine speed p50 {:.3} in burst, {:.3} at the \
         writer, {:.3} at the reader; gen {gen_s:.3} s",
        w.name,
        burst.slice_eps.len(),
        writes.visible_ms.len(),
        reads.count(),
        p50(speeds(&burst.witness)),
        p50(speeds(&writes.witness)),
        p50(speeds(&reads.witness)),
    );
    eprintln!(
        "as timed: {{{}}}",
        [
            metric("setup_s", p50(setups.iter().map(|s| s.0).collect()), "s"),
            metric("ingest_eps", p50(burst.slice_eps.clone()), "1/s"),
            metric("visible_p50_ms", p50(serve_run::raw(&writes.visible_ms)), "ms"),
            metric("topk_exact_p50_ms", p50(serve_run::raw(&reads.topk_exact_ms)), "ms"),
            metric("topk_ann_p50_ms", p50(serve_run::raw(&reads.topk_ann_ms)), "ms"),
        ]
        .join(",")
    );
    print_result(
        served.attempted,
        &[
            metric("setup_s", p50(setups.iter().map(|(s, speed)| s * speed).collect()), "s"),
            metric("ingest_eps", p50(burst.scaled_eps()), "1/s"),
            metric("visible_p50_ms", p50(scaled(&writes.visible_ms, &writes.witness)), "ms"),
            metric("topk_exact_p50_ms", p50(scaled(&reads.topk_exact_ms, &reads.witness)), "ms"),
            metric("topk_ann_p50_ms", p50(scaled(&reads.topk_ann_ms, &reads.witness)), "ms"),
            metric("peak_rss_mb", serve_run::peak_rss_mb()?, "MB"),
            metric("link_auc", served.quality.link_auc, "ratio"),
            metric("ann_recall_at_10", served.quality.ann_recall_at_10, "ratio"),
        ],
    );
    Ok(())
}

/// `--quick`: both backends at toy size through every phase and both
/// replays — the correctness gates only, no metrics.
fn quick() -> Gate<()> {
    for w in &workload::QUICK {
        let args = RunArgs { workload: w, seed: DEFAULT_SEED, seconds: 2.0, trace: true };
        let (attempted, _) = traced(&args, &Plan::new(&args)?)?;
        println!("quick {}: {attempted} operations, every gate passed", w.name);
    }
    Ok(())
}

const USAGE: &str = "usage: benchmark --workload <small_float|large_float|small_fpga> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]
       benchmark selftest [--sets <n>] [--runs <n>] [--seconds <s>]
       benchmark spread [--seeds <n>] [--seconds <s>]
       benchmark --quick";

fn parse_args(argv: &[String]) -> Gate<RunArgs> {
    let mut args = RunArgs {
        workload: &workload::WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::by_name(value).ok_or_else(|| bad("no such workload"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(1.0..=120.0).contains(&args.seconds) {
                    return Err(bad("want 1 to 120"));
                }
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("want 0 or 1"))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("selftest") => selftest::run(&argv[1..]),
        Some("spread") => selftest::spread(&argv[1..]),
        Some("--quick") => quick(),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    if let Err(e) = outcome {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(1);
    }
}
