//! `seqge` — command-line front end.
//!
//! ```text
//! seqge generate --dataset cora --scale 0.3 --out graph.edges
//! seqge train    --graph graph.edges --dim 32 --model oselm --out model.sge --emb emb.bin
//! seqge train    --graph graph.edges --seq --dim 32 --model skipgram --emb emb.bin
//! seqge eval     --graph graph.edges --emb emb.bin
//! seqge simulate --dim 64
//! ```
//!
//! Thin orchestration over the library crates; every flag maps to a public
//! API call, so the CLI doubles as living documentation.

use seqge::core::model::EmbeddingModel;
use seqge::core::{
    persist, train_all_pipelined, train_all_scenario, train_seq_scenario, OsElmConfig,
    OsElmSkipGram, SkipGram, TrainConfig,
};
use seqge::eval::{evaluate_embedding, EdgeOp, EvalConfig, LinkPredSet};
use seqge::fpga::{estimate_resources, Build, FpgaDevice, CLOCK_MHZ};
use seqge::graph::{io as graph_io, Dataset, Graph};
use seqge::sampling::UpdatePolicy;
use seqge::serve;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        // `obs` takes a positional subcommand, so it parses its own flags.
        "obs" => cmd_obs(rest),
        _ => match COMMANDS.iter().find(|c| c.0 == cmd) {
            Some(&(name, run, known)) => parse_flags(rest, name, known)
                .map_err(|e| format!("{e}\n{USAGE}"))
                .and_then(|flags| run(&flags)),
            None => Err(format!("unknown command `{cmd}`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "seqge — sequential graph embedding (node2vec + OS-ELM)

commands:
  generate --dataset cora|ampt|amcp [--scale f] [--seed n] --out FILE
  train    --graph FILE [--model oselm|skipgram] [--dim n] [--seq] [--threads n]
           [--mu f] [--forgetting f] [--seed n] [--out MODEL] [--emb FILE] [--tsv FILE]
           (--threads n overlaps walk generation with training on n walker
            threads, 0 = all cores; the trained model is identical for any
            thread count)
  eval     --graph FILE --emb FILE [--linkpred] [--seed n]
  simulate [--dim n]
  serve    --graph FILE [--port n] [--dim n] [--seed n] [--workers n]
           [--refresh-every n] [--mu f] [--forgetting f] [--backend float|fpga-sim]
           [--log-level error|warn|info|debug|trace]
           [--wal-dir DIR] [--fsync always|batch|never] [--wal-replay-check]
           (long-running daemon; line-delimited JSON over TCP.
            --backend picks the training backend: `float` is the OS-ELM
            pipeline in f32 (Algorithm 1 over the paper's shared per-walk
            negatives, so an event writes at most 2·(l + ns) = 180 rows
            of the embedding); `fpga-sim` runs the paper's deferred-delta
            fixed-point accelerator kernel online, exporting its cycle
            model as a live ingest planner (seqge_backend_cycles_total /
            predicted vs measured eps), its accuracy deviation from a
            float shadow trained in the boot window and one publish
            window in eight as seqge_backend_deviation (ppm), and its
            per-walk Q8.24 saturation count as
            seqge_backend_saturations_total. Without
            --wal-dir the server is ephemeral: it bootstraps from --graph
            and its state dies with the process. With --wal-dir DIR is the
            node: --graph seeds it on first boot only, every acknowledged
            write is appended to a checksummed write-ahead log before
            training, `snapshot` and graceful shutdown commit a
            generation, and kill -9 loses nothing — on restart the log
            replays over the last generation, bit-identically. A store
            committed under one backend refuses to boot under the other.
            --fsync picks the durability/throughput point (default batch).
            --wal-replay-check replays the store twice, verifies the
            result is deterministic, prints a report, and exits.
            Every published snapshot carries an incrementally maintained
            ANN index (one 128-bit hyperplane code per node) answering
            `topk` with `\"mode\":\"ann\"` by exactly re-ranking the
            128·(probes + 1) nodes with the nearest codes.
            SIGINT/SIGTERM drain the in-flight batch before exiting.
            --port 0 = ephemeral)
  cluster  --graph FILE --base-dir DIR [--shards n] [--replicas n]
           [--port n] [--dim n] [--seed n] [--fsync always|batch|never]
           [--refresh-every n] [--backend float|fpga-sim]
           [--log-level error|warn|info|debug|trace]
           (sharded deployment: N in-process serve engines, each owning
            the vertices with id % N == shard and journaling to
            DIR/shard-<s>/, behind a scatter-gather router speaking the
            same protocol as `serve`. Each edge write routes to its one
            owning shard (the lower endpoint's, order-independent);
            topk/score_link scatter with per-shard deadlines and degrade
            to partial results (`degraded:true`) when a shard is down.
            --replicas 1 adds a WAL-tailing read replica per shard that
            keeps get_embedding answering for dead shards. --graph seeds
            shards on first boot; restarts recover from the per-shard
            WALs and ignore it. --backend applies to every shard — the
            router asserts backend homogeneity and reports a mismatch as
            degraded. `cluster_status` reports per-shard health and the
            cluster's backend descriptor. --port 0 = ephemeral)
  client   [--addr HOST:PORT] [--timeout-ms n] [--retries n]
           (reads JSON requests from stdin, one per line, prints each
            response; --timeout-ms bounds each call, --retries retries
            timed-out/refused calls with backoff; for scripting and
            smoke tests)
  obs      dump  [--addr HOST:PORT] [--format json|prometheus|table]
                 [--filter PREFIX] [--by-shard]
           trace [--addr HOST:PORT] [--after n] [--follow] [--chrome FILE]
           (dump fetches the running server's metrics registries via the
            `metrics` protocol op; --filter keeps only series whose name
            starts with PREFIX, --format table renders aligned
            name/count/p50/p99 rows, and --by-shard asks a cluster
            router's `cluster_status` for the shard addresses and dumps
            each shard separately. trace drains completed request spans
            from the target's in-process ring via the `trace` op as JSONL;
            --follow tails the ring until Ctrl-C and --chrome writes a
            chrome://tracing / Perfetto trace_event file instead)

observability: the serve daemon logs structured JSONL to stderr
  (level from --log-level or SEQGE_LOG, default info) and answers the
  `metrics` op with Prometheus text for scrapers; SEQGE_OBS=off turns
  span timers and request tracing off at runtime. Tracing head-samples
  1-in-SEQGE_TRACE_SAMPLE root requests (default 64; degraded/shed
  requests are always kept). SEQGE_FLIGHTREC=DIR arms a crash flight
  recorder: recent spans + log lines dumped to DIR/flightrec-<pid>.json
  on panic, periodically, on graceful shutdown, and on demand via the
  `flightrec` protocol op.";

type Flags = HashMap<String, String>;
type Command = fn(&Flags) -> Result<(), String>;

/// Every command, with the flags USAGE documents for it — the only ones it
/// accepts.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("generate", cmd_generate, "dataset scale seed out"),
    ("train", cmd_train, "graph model dim seq threads mu forgetting seed out emb tsv"),
    ("eval", cmd_eval, "graph emb linkpred seed"),
    ("simulate", cmd_simulate, "dim"),
    ("serve", cmd_serve, "graph port dim seed workers refresh-every mu forgetting backend log-level wal-dir fsync wal-replay-check"),
    ("cluster", cmd_cluster, "graph base-dir shards replicas port dim seed fsync refresh-every backend log-level"),
    ("client", cmd_client, "addr timeout-ms retries"),
];

/// `obs`'s subcommands, likewise.
const OBS_COMMANDS: &[(&str, Command, &str)] = &[
    ("dump", cmd_obs_dump, "addr format filter by-shard"),
    ("trace", cmd_obs_trace, "addr after follow chrome"),
];

/// Flags that take no value.
const SWITCHES: &str = "seq linkpred wal-replay-check follow by-shard";

/// Parses `--key value` pairs (and bare switches) for command `cmd`,
/// refusing any key outside the space-separated `known`.
fn parse_flags(rest: &[String], cmd: &str, known: &str) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        if !known.split(' ').any(|k| k == key) {
            return Err(format!("unknown flag --{key} for {cmd}"));
        }
        let value = if SWITCHES.split(' ').any(|k| k == key) {
            "true".to_string()
        } else {
            it.next().ok_or_else(|| format!("--{key} needs a value"))?.clone()
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

fn require<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("--{key} is required"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let dataset = match require(flags, "dataset")? {
        "cora" => Dataset::Cora,
        "ampt" => Dataset::AmazonPhoto,
        "amcp" => Dataset::AmazonComputers,
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let scale: f64 = get(flags, "scale", 1.0)?;
    let seed: u64 = get(flags, "seed", 42)?;
    let out = require(flags, "out")?;
    let g =
        if scale >= 1.0 { dataset.generate(seed) } else { dataset.generate_scaled(scale, seed) };
    graph_io::save_graph(&g, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges, {} classes)",
        out,
        g.num_nodes(),
        g.num_edges(),
        g.num_classes()
    );
    Ok(())
}

fn load(flags: &Flags) -> Result<Graph, String> {
    graph_io::load_graph(require(flags, "graph")?).map_err(|e| e.to_string())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let g = load(flags)?;
    let dim: usize = get(flags, "dim", 32)?;
    let seed: u64 = get(flags, "seed", 42)?;
    let seq = flags.contains_key("seq");
    let threads: Option<usize> = match flags.get("threads") {
        Some(v) => Some(v.parse().map_err(|_| format!("--threads: cannot parse `{v}`"))?),
        None => None,
    };
    if seq && threads.is_some() {
        return Err("--threads overlaps full-corpus training; it cannot combine with --seq".into());
    }
    let model_kind = flags.get("model").map(String::as_str).unwrap_or("oselm");
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.model.seed = seed;

    let start = std::time::Instant::now();
    let embedding = match model_kind {
        "oselm" => {
            let ocfg = OsElmConfig {
                model: cfg.model,
                mu: get(flags, "mu", 0.05f32)?,
                forgetting: get(flags, "forgetting", 1.0f32)?,
                ..OsElmConfig::paper_defaults(dim)
            };
            let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
            if seq {
                let (_, outcome) =
                    train_seq_scenario(&g, &mut m, &cfg, UpdatePolicy::every_edge(), seed, 1.0);
                println!(
                    "sequential: {} edges replayed, {} walks trained, {} table rebuilds",
                    outcome.edges_inserted, outcome.walks_trained, outcome.table_rebuilds
                );
            } else if let Some(t) = threads {
                report_pipelined(train_all_pipelined(&g, &mut m, &cfg, seed, t));
            } else {
                train_all_scenario(&g, &mut m, &cfg, seed);
            }
            if let Some(path) = flags.get("out") {
                persist::save_oselm(&m, path).map_err(|e| e.to_string())?;
                println!("model checkpoint written to {path}");
            }
            m.embedding()
        }
        "skipgram" => {
            let mut m = SkipGram::new(g.num_nodes(), cfg.model);
            if seq {
                let (_, outcome) =
                    train_seq_scenario(&g, &mut m, &cfg, UpdatePolicy::every_edge(), seed, 1.0);
                println!(
                    "sequential: {} edges replayed, {} walks trained",
                    outcome.edges_inserted, outcome.walks_trained
                );
            } else if let Some(t) = threads {
                report_pipelined(train_all_pipelined(&g, &mut m, &cfg, seed, t));
            } else {
                train_all_scenario(&g, &mut m, &cfg, seed);
            }
            if flags.contains_key("out") {
                return Err("--out checkpoints are only supported for --model oselm".into());
            }
            m.embedding()
        }
        other => return Err(format!("unknown model `{other}`")),
    };
    println!(
        "trained {model_kind} d={dim} on {} nodes in {:.1}s",
        g.num_nodes(),
        start.elapsed().as_secs_f64()
    );
    if let Some(path) = flags.get("emb") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        persist::write_embedding(&embedding, f).map_err(|e| e.to_string())?;
        println!("embedding written to {path}");
    }
    if let Some(path) = flags.get("tsv") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        persist::write_embedding_tsv(&embedding, f).map_err(|e| e.to_string())?;
        println!("embedding TSV written to {path}");
    }
    Ok(())
}

fn report_pipelined(outcome: seqge::core::PipelinedOutcome) {
    println!(
        "pipelined: {} walker thread(s), {} walks trained, gen busy {:.0} ms, \
         train busy {:.0} ms, overlap {:.2}",
        outcome.threads,
        outcome.walks_trained,
        outcome.gen_busy_ms,
        outcome.train_busy_ms,
        outcome.overlap_ratio()
    );
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let g = load(flags)?;
    let emb_path = require(flags, "emb")?;
    let f = std::fs::File::open(emb_path).map_err(|e| e.to_string())?;
    let emb = persist::read_embedding(f).map_err(|e| e.to_string())?;
    if emb.rows() != g.num_nodes() {
        return Err(format!(
            "embedding has {} rows but the graph has {} nodes",
            emb.rows(),
            g.num_nodes()
        ));
    }
    let seed: u64 = get(flags, "seed", 1)?;
    if let Some(labels) = g.labels() {
        let r = evaluate_embedding(&emb, labels, g.num_classes(), &EvalConfig::default(), seed);
        println!(
            "classification (paper §4.3 protocol): micro-F1 {:.4} ± {:.4}, macro-F1 {:.4} ({} trials)",
            r.micro_f1, r.micro_std, r.macro_f1, r.trials
        );
    } else {
        println!("graph has no labels; skipping classification");
    }
    if flags.contains_key("linkpred") {
        let set = LinkPredSet::sample(&g, 0.1, seed);
        for op in [EdgeOp::Dot, EdgeOp::Cosine, EdgeOp::NegL2] {
            println!("link prediction AUC ({op:?}): {:.4}", set.auc(&emb, op));
        }
    }
    Ok(())
}

/// Set by the SIGINT/SIGTERM handler; a bridge thread forwards it onto the
/// server's stop flag so `serve` drains and commits before exiting.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // No libc crate in this offline workspace: declare the one symbol we
    // need. The handler only touches an atomic, which is async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        STOP_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(2, on_signal as *const () as usize); // SIGINT
        signal(15, on_signal as *const () as usize); // SIGTERM
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// What both long-running commands do before booting: `--log-level`, crash
/// forensics (SEQGE_FLIGHTREC=DIR) — ring-buffer recent spans and log lines,
/// dumped on panic, periodically, and on graceful shutdown — and the
/// SIGINT/SIGTERM handlers.
fn arm_daemon(flags: &Flags, role: &str) -> Result<(), String> {
    if let Some(lv) = flags.get("log-level") {
        let level = seqge::obs::log::Level::parse(lv)
            .ok_or_else(|| format!("--log-level: unknown level `{lv}`"))?;
        seqge::obs::log::set_level(level);
    }
    seqge::obs::flightrec::configure_from_env(role);
    install_signal_handlers();
    Ok(())
}

/// What both long-running commands do after booting: forward a caught signal
/// onto the daemon's `stop` flag, block in `wait` until it has drained, and
/// leave a final flight-recorder dump — the forensic file exists whether
/// the exit was clean or not.
fn run_until_stopped(
    role: &str,
    stop: std::sync::Arc<AtomicBool>,
    wait: impl FnOnce() -> std::io::Result<()>,
) -> Result<(), String> {
    std::thread::spawn(move || loop {
        if STOP_REQUESTED.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return; // stopped on its own (shutdown command)
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    wait().map_err(|e| e.to_string())?;
    if let Some(path) = seqge::obs::flightrec::dump() {
        seqge::obs::info!(role, "flight recorder dumped to {}", path.display());
    }
    seqge::obs::info!(role, "{role} stopped");
    Ok(())
}

/// The `--backend` a daemon trains with (default float). Whether the rest of
/// the spec can build it is `BackendSpec::validate`'s, at boot.
fn backend_kind(flags: &Flags) -> Result<seqge::backend::BackendKind, String> {
    use seqge::backend::BackendKind;
    flags.get("backend").map_or(Ok(BackendKind::Float), |v| BackendKind::parse(v))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    arm_daemon(flags, "serve")?;
    let dim: usize = get(flags, "dim", 32)?;
    let seed: u64 = get(flags, "seed", 42)?;
    let port: u16 = get(flags, "port", 7878)?;
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.model.seed = seed;
    let policy = UpdatePolicy::every_edge();
    let backend = backend_kind(flags)?;

    let refresh_every: u64 = get(flags, "refresh-every", 0)?;
    let mut config = serve::ServeConfig {
        workers: get(flags, "workers", 4)?,
        refresh_every,
        ..Default::default()
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let wal_dir = flags.get("wal-dir").map(std::path::PathBuf::from);
    if wal_dir.is_none() && (flags.contains_key("fsync") || flags.contains_key("wal-replay-check"))
    {
        return Err("--fsync / --wal-replay-check require --wal-dir".into());
    }

    let ocfg = OsElmConfig {
        model: cfg.model,
        mu: get(flags, "mu", 0.05f32)?,
        forgetting: get(flags, "forgetting", 1.0f32)?,
        ..OsElmConfig::paper_defaults(dim)
    };
    let spec = seqge::backend::BackendSpec::new(backend, cfg, ocfg, policy, seed);

    let addr = format!("127.0.0.1:{port}");
    let handle = if let Some(dir) = wal_dir {
        let fsync = match flags.get("fsync") {
            Some(v) => serve::FsyncPolicy::parse(v)?,
            None => serve::FsyncPolicy::Batch,
        };
        let wcfg = serve::WalConfig { dir, fsync };
        if flags.contains_key("wal-replay-check") {
            return cmd_wal_replay_check(&wcfg, &spec, refresh_every);
        }
        let cold_graph = if flags.contains_key("graph") { Some(load(flags)?) } else { None };
        serve::start_node(&addr, &wcfg, cold_graph, &spec, config)
    } else {
        // Fault injection is environmental (SEQGE_FAULT*); disabled when unset.
        config.fault = std::sync::Arc::new(serve::FaultInjector::from_env()?);
        spec.validate().map_err(|e| e.to_string())?;
        let g = load(flags)?;
        let t0 = std::time::Instant::now();
        let mut b = spec.cold(g.num_nodes());
        b.bootstrap(&g);
        seqge::obs::info!(
            "serve",
            "bootstrapped {} d={dim} on {} nodes / {} edges in {:.1}s (ephemeral: no --wal-dir)",
            backend.boot_label(),
            g.num_nodes(),
            g.num_edges(),
            t0.elapsed().as_secs_f64()
        );
        serve::start_backend(&addr, g, b, config)
    };
    let handle = handle.map_err(|e| e.to_string())?;
    seqge::obs::info!("serve", "listening on {}", handle.addr());
    run_until_stopped("serve", handle.stop_flag(), || handle.wait())
}

/// `seqge cluster`: boots N in-process shards plus the router and blocks
/// until a signal or a `shutdown` command. The training pipeline is the
/// fixed cluster-wide one ([`serve::shard_spec`]) — every shard,
/// replica, and future recovery must agree on it, so it is not tunable
/// from the command line.
fn cmd_cluster(flags: &Flags) -> Result<(), String> {
    arm_daemon(flags, "cluster")?;
    let dim: usize = get(flags, "dim", 32)?;
    let train_backend = backend_kind(flags)?;
    let seed: u64 = get(flags, "seed", 42)?;
    let port: u16 = get(flags, "port", 7879)?;
    let shards: usize = get(flags, "shards", 2)?;
    let replicas: usize = get(flags, "replicas", 0)?;
    let base_dir = flags
        .get("base-dir")
        .ok_or("--base-dir is required (root for the per-shard WAL stores)")?;
    let fsync = match flags.get("fsync") {
        Some(v) => serve::FsyncPolicy::parse(v)?,
        None => serve::FsyncPolicy::Batch,
    };
    let graph = load(flags)?;

    let cfg = seqge::cluster::ClusterConfig {
        replicas,
        fsync,
        refresh_every: get(flags, "refresh-every", 0)?,
        addr: format!("127.0.0.1:{port}"),
        train_backend,
        ..seqge::cluster::ClusterConfig::in_process(shards, base_dir.into(), dim, seed)
    };
    let cluster = seqge::cluster::Cluster::start(&cfg, &graph).map_err(|e| e.to_string())?;
    seqge::obs::info!(
        "cluster",
        "{} shard(s), {} replica(s)/shard, router on {}",
        shards,
        replicas,
        cluster.addr()
    );
    run_until_stopped("cluster", cluster.stop_flag(), || cluster.wait())
}

/// `serve --wal-dir DIR --wal-replay-check`: audit the store without
/// serving — replay twice, verify determinism, report, exit.
fn cmd_wal_replay_check(
    wcfg: &serve::WalConfig,
    spec: &seqge::backend::BackendSpec,
    refresh_every: u64,
) -> Result<(), String> {
    let check = serve::wal::verify_replay(wcfg, spec, refresh_every).map_err(|e| e.to_string())?;
    let r = &check.report;
    println!(
        "wal store {}: gen {}, segment {}, next seq {}",
        wcfg.dir.display(),
        r.gen,
        r.segment,
        r.next_seq
    );
    println!(
        "replay: {} applied, {} skipped (snapshot already covered), {} duplicate seqs, \
         {} rejected by graph, {} refreshes, torn tail: {}",
        r.replayed, r.skipped_applied, r.duplicates, r.rejected, r.refreshes, r.torn_tail
    );
    println!(
        "recovered embedding: {} nodes at d={}; deterministic: {}",
        check.nodes, check.dim, check.deterministic
    );
    if !check.deterministic {
        return Err("replay produced different embeddings on two runs".into());
    }
    Ok(())
}

fn cmd_obs(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("obs needs a subcommand: `dump` or `trace`".into());
    };
    let Some(&(name, run, known)) = OBS_COMMANDS.iter().find(|c| c.0 == sub) else {
        return Err(format!("unknown obs subcommand `{sub}` (expected `dump` or `trace`)"));
    };
    run(&parse_flags(rest, &format!("obs {name}"), known)?)
}

fn cmd_obs_dump(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let format = match flags.get("format").map(String::as_str).unwrap_or("json") {
        "json" => "json",
        "prom" | "prometheus" => "prometheus",
        "table" => "table",
        other => return Err(format!("--format must be json, prometheus, or table, got `{other}`")),
    };
    let filter = flags.get("filter").map(String::as_str);
    if flags.contains_key("by-shard") {
        return obs_dump_by_shard(addr, format, filter);
    }
    let mut client = serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    print_metrics(&mut client, format, filter)
}

/// Fetches one target's metrics and prints them in `format`, keeping only
/// series whose name starts with `filter` when given.
fn print_metrics(
    client: &mut serve::Client,
    format: &str,
    filter: Option<&str>,
) -> Result<(), String> {
    let wire = if format == "prometheus" { "prometheus" } else { "json" };
    let body = client.metrics(wire).map_err(|e| e.to_string())?;
    match format {
        "prometheus" => {
            // Exposition lines lead with the metric name (`# HELP name` /
            // `# TYPE name` / `name{labels} value`), so a prefix filter is
            // a line filter.
            for line in body.lines() {
                let name = match line.strip_prefix("# ") {
                    Some(rest) => rest.split_whitespace().nth(1).unwrap_or(""),
                    None => line.split(['{', ' ']).next().unwrap_or(""),
                };
                if filter.is_none_or(|f| name.starts_with(f)) {
                    println!("{line}");
                }
            }
        }
        "table" => print_metrics_table(&body, filter)?,
        _ => {
            let doc: serde_json::Value =
                serde_json::from_str(&body).map_err(|e| format!("bad metrics body: {e}"))?;
            let filtered = filter_metric_doc(&doc, filter);
            println!("{}", serde_json::to_string(&filtered).map_err(|e| e.to_string())?);
        }
    }
    Ok(())
}

/// Drops series whose name does not start with `filter` from a
/// `dump_json`-shaped document (counters/gauges/histograms arrays).
fn filter_metric_doc(doc: &serde_json::Value, filter: Option<&str>) -> serde_json::Value {
    use serde_json::Value;
    let Some(f) = filter else { return doc.clone() };
    let Value::Object(sections) = doc else { return doc.clone() };
    Value::Object(
        sections
            .iter()
            .map(|(section, items)| {
                let kept = match items.as_array() {
                    Some(arr) => Value::Array(
                        arr.iter()
                            .filter(|m| {
                                m.get("name")
                                    .and_then(Value::as_str)
                                    .is_some_and(|n| n.starts_with(f))
                            })
                            .cloned()
                            .collect(),
                    ),
                    None => items.clone(),
                };
                (section.clone(), kept)
            })
            .collect(),
    )
}

/// Renders a `dump_json` body as aligned human-readable rows: every series
/// with its count/value, histograms with p50/p99 as well.
fn print_metrics_table(body: &str, filter: Option<&str>) -> Result<(), String> {
    use serde_json::Value;
    let doc: Value = serde_json::from_str(body).map_err(|e| format!("bad metrics body: {e}"))?;
    let series_name = |m: &Value| -> String {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("?").to_string();
        match m.get("labels") {
            Some(Value::Object(labels)) if !labels.is_empty() => {
                let parts: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                format!("{name}{{{}}}", parts.join(","))
            }
            _ => name,
        }
    };
    let fmt_num = |v: f64| {
        if v == 0.0 || v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{v:.0}")
        } else {
            format!("{v:.1}")
        }
    };
    println!("{:<64} {:>14} {:>14} {:>14}", "metric", "count", "p50", "p99");
    let mut rows: Vec<(String, String, String, String)> = Vec::new();
    for (section, is_hist) in [("counters", false), ("gauges", false), ("histograms", true)] {
        let Some(items) = doc.get(section).and_then(Value::as_array) else { continue };
        for m in items {
            let name = series_name(m);
            if filter.is_some_and(|f| !name.starts_with(f)) {
                continue;
            }
            if is_hist {
                rows.push((
                    name,
                    fmt_num(m.get("count").and_then(Value::as_f64).unwrap_or(0.0)),
                    fmt_num(m.get("p50").and_then(Value::as_f64).unwrap_or(0.0)),
                    fmt_num(m.get("p99").and_then(Value::as_f64).unwrap_or(0.0)),
                ));
            } else {
                let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                rows.push((name, fmt_num(v), "-".into(), "-".into()));
            }
        }
    }
    rows.sort();
    for (name, count, p50, p99) in rows {
        println!("{name:<64} {count:>14} {p50:>14} {p99:>14}");
    }
    Ok(())
}

/// `--by-shard`: asks the router's `cluster_status` for the shard plane's
/// addresses and dumps each shard's own registries, labeled.
fn obs_dump_by_shard(addr: &str, format: &str, filter: Option<&str>) -> Result<(), String> {
    use serde_json::Value;
    let mut router = serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let status = router
        .call(r#"{"cmd":"cluster_status"}"#)
        .map_err(|e| format!("cluster_status on {addr}: {e} (is this a cluster router?)"))?;
    let shards = status
        .get("shards")
        .and_then(Value::as_array)
        .ok_or("cluster_status reply carries no shard list")?;
    for sh in shards {
        let s = sh.get("shard").and_then(Value::as_u64).unwrap_or(0);
        let Some(shard_addr) = sh.get("addr").and_then(Value::as_str) else { continue };
        println!("== shard {s} @ {shard_addr} ==");
        match serve::Client::connect(shard_addr) {
            Ok(mut c) => print_metrics(&mut c, format, filter)?,
            Err(e) => println!("(unreachable: {e})"),
        }
        println!();
    }
    Ok(())
}

/// `seqge obs trace`: drains completed spans from the target's in-process
/// ring via the `trace` op — JSONL to stdout, `--follow` to tail, or
/// `--chrome FILE` for a chrome://tracing / Perfetto document.
fn cmd_obs_trace(flags: &Flags) -> Result<(), String> {
    use serde_json::Value;
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let follow = flags.contains_key("follow");
    let chrome = flags.get("chrome");
    if follow && chrome.is_some() {
        return Err("--follow and --chrome cannot combine".into());
    }
    let mut after: u64 = get(flags, "after", 0u64)?;
    let mut client = serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if follow {
        install_signal_handlers();
    }
    loop {
        let v = client
            .call(&format!(r#"{{"cmd":"trace","after":{after}}}"#))
            .map_err(|e| e.to_string())?;
        let next = v.get("next").and_then(Value::as_u64).unwrap_or(after);
        let records = parse_span_records(&v);
        if let Some(out) = chrome {
            let pid = v.get("pid").and_then(Value::as_u64).unwrap_or(0) as u32;
            let doc = seqge::obs::trace::chrome_trace(&records, pid);
            std::fs::write(out, doc).map_err(|e| format!("write {out}: {e}"))?;
            println!("wrote {} span(s) to {out}", records.len());
            return Ok(());
        }
        for rec in &records {
            println!("{}", seqge::obs::trace::jsonl_line(rec));
        }
        after = next;
        if !follow || STOP_REQUESTED.load(Ordering::SeqCst) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

/// Rebuilds [`seqge::obs::SpanRecord`]s from a `trace` op reply, so the CLI
/// reuses the library's JSONL and Chrome exporters verbatim.
fn parse_span_records(v: &serde_json::Value) -> Vec<seqge::obs::SpanRecord> {
    use serde_json::Value;
    let id = |item: &Value, key: &str| {
        item.get(key).and_then(Value::as_str).and_then(seqge::obs::TraceCtx::parse_id).unwrap_or(0)
    };
    let Some(items) = v.get("spans").and_then(Value::as_array) else { return Vec::new() };
    items
        .iter()
        .map(|item| seqge::obs::SpanRecord {
            seq: item.get("seq").and_then(Value::as_u64).unwrap_or(0),
            trace_id: id(item, "trace"),
            span_id: id(item, "span"),
            parent_span: id(item, "parent"),
            name: item.get("name").and_then(Value::as_str).unwrap_or("?").to_string(),
            start_unix_ns: item.get("ts_us").and_then(Value::as_u64).unwrap_or(0) * 1_000,
            dur_ns: item.get("dur_us").and_then(Value::as_u64).unwrap_or(0) * 1_000,
            tid: item.get("tid").and_then(Value::as_u64).unwrap_or(0),
            tags: match item.get("tags") {
                Some(Value::Object(entries)) => entries
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect(),
                _ => Vec::new(),
            },
        })
        .collect()
}

fn cmd_client(flags: &Flags) -> Result<(), String> {
    use std::io::BufRead;
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let mut ccfg = serve::ClientConfig::default();
    if let Some(ms) = flags.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("--timeout-ms: cannot parse `{ms}`"))?;
        ccfg.timeout = std::time::Duration::from_millis(ms);
    }
    ccfg.retries = get(flags, "retries", ccfg.retries)?;
    let mut client =
        serve::Client::connect_with(addr, ccfg).map_err(|e| format!("connect {addr}: {e}"))?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match client.call_raw(line) {
            Ok(resp) => println!("{resp}"),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // Expected after a `shutdown` request: report and stop.
                println!(r#"{{"ok":false,"error":"connection closed by server"}}"#);
                return Ok(());
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let dim: usize = get(flags, "dim", 32)?;
    let build = Build::for_dim(dim)?;
    let est = estimate_resources(&build);
    let util = est.utilization(&FpgaDevice::XCZU7EV);
    println!("accelerator build d={dim} @ {CLOCK_MHZ} MHz on {}:", FpgaDevice::XCZU7EV.name);
    println!(
        "  BRAM {:>4} ({:5.2}%)   DSP {:>4} ({:5.2}%)",
        est.bram36, util.bram_pct, est.dsp, util.dsp_pct
    );
    println!(
        "  FF {:>6} ({:5.2}%)   LUT {:>6} ({:5.2}%){}",
        est.ff,
        util.ff_pct,
        est.lut,
        util.lut_pct,
        if est.calibrated { "   [calibrated to paper Table 6]" } else { "   [interpolated]" }
    );
    println!(
        "  one paper-protocol walk (73 contexts, 77 samples): {:.3} ms",
        build.paper_walk_millis()
    );
    Ok(())
}
