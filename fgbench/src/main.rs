//! `fgbench`: the fg pipeline benchmark. See README.md in this directory.
//!
//! ```text
//! fgbench --workload <oneshot_generic|batch_prelude|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the release `fg` binary from outside for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! replays a fixed op list in-process with spans around each layer call
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod gen;
mod replay;
mod verify;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drive::{Daemon, Reply, Watchdog};
use gen::{Expect, ServeStream, Unit};
use replay::{Replay, LAYERS, WORKERS};
use verify::Verifier;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Oneshot,
    Batch,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Oneshot, Workload::Batch, Workload::Serve];

    /// The name `--workload` and `BENCHMARK.json` use.
    fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot_generic",
            Workload::Batch => "batch_prelude",
            Workload::Serve => "serve_mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops run before timing starts, in every set-up: enough that their
    /// mix, and so the set-up time, varies little with the seed. For
    /// `serve_mixed` it is one whole block of the request mix.
    fn warmup_ops(self) -> usize {
        match self {
            Workload::Oneshot => 50,
            Workload::Batch => 2,
            Workload::Serve => 50,
        }
    }
}

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// The end-to-end rates and latencies are medians over up to this many
/// consecutive slices of the measured ops, so a burst of load from
/// outside the benchmark moves one slice, not the result.
const MAX_SLICES: usize = 10;
/// `serve_mixed` reads the daemon's peak RSS after this many measured
/// requests, which every run reaches, so the figure covers the same
/// requests on every run however fast they went.
const SERVE_RSS_AT: usize = 3000;
/// Requests in the `serve_mixed` op list that the traced run replays
/// (and that the input digest covers).
const SERVE_REPLAY: usize = 1000;
/// Large enough for the deepest generated program on every layer.
const STACK: usize = 256 * 1024 * 1024;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: u64,
    failed: u64,
    error: Option<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgbench: {e}");
            return ExitCode::from(2);
        }
    };
    let worker = std::thread::Builder::new()
        .name("fgbench".into())
        .stack_size(STACK)
        .spawn(move || {
            if args.trace {
                traced(&args)
            } else {
                measured(&args)
            }
        });
    let report = match worker.map(|h| h.join()) {
        Ok(Ok(Ok(r))) => r,
        Ok(Ok(Err(e))) => {
            eprintln!("fgbench: {e}");
            return ExitCode::from(1);
        }
        Ok(Err(_)) => {
            eprintln!("fgbench: the benchmark panicked");
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("fgbench: cannot start: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(e) = &report.error {
        println!("FAILED: {e}");
    }
    let correct = report.failed == 0 && report.error.is_none();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median, averaging the middle pair of an even count.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The generated inputs of one run.
struct Inputs {
    /// The op list (`oneshot_generic`, `batch_prelude`) or the first
    /// `SERVE_REPLAY` requests of the stream (`serve_mixed`).
    units: Vec<Arc<Unit>>,
    digest: u64,
}

fn generate(workload: Workload, seed: u64) -> Inputs {
    let units: Vec<Unit> = match workload {
        Workload::Oneshot => gen::oneshot(seed),
        Workload::Batch => gen::batches(seed),
        Workload::Serve => {
            let mut s = ServeStream::new(seed);
            (0..SERVE_REPLAY).map(|_| s.next_unit()).collect()
        }
    };
    Inputs {
        digest: gen::digest(&units),
        units: units.into_iter().map(Arc::new).collect(),
    }
}

/// The paths of a unit's files under `dir`.
fn unit_files(dir: &Path, workload: Workload, unit: &Unit) -> Vec<PathBuf> {
    match workload {
        Workload::Batch => (0..unit.progs.len())
            .map(|j| {
                dir.join(format!("b{}", unit.key))
                    .join(format!("f{j:02}.fg"))
            })
            .collect(),
        _ => vec![dir.join(format!("o{}.fg", unit.key))],
    }
}

fn write_files(dir: &Path, workload: Workload, units: &[Arc<Unit>]) -> Result<(), String> {
    if workload == Workload::Serve {
        return Ok(());
    }
    for u in units {
        for (path, prog) in unit_files(dir, workload, u).iter().zip(&u.progs) {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
            std::fs::write(path, &prog.source).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Sends units to `fg` the way its users do.
struct Client<'a> {
    workload: Workload,
    fg: &'a Path,
    dir: PathBuf,
    caps: Vec<String>,
    watchdog: &'a Watchdog,
    daemon: Option<Daemon>,
}

/// One op as seen from outside.
struct Sent {
    reply: Reply,
    latency: Duration,
    maxrss_kb: u64,
}

impl Client<'_> {
    fn send(&mut self, unit: &Unit) -> Result<Sent, String> {
        if let Some(d) = &mut self.daemon {
            let (resp, latency) = d
                .round_trip(&unit.line)
                .map_err(|e| format!("request {}: {e}", unit.key))?;
            let reply = drive::parse_response(&resp)?;
            return Ok(Sent {
                reply,
                latency,
                maxrss_kb: 0,
            });
        }
        let mut cmd = drive::fg_command(self.fg);
        if self.workload == Workload::Batch {
            cmd.args(["--prelude", "--jobs", "2"]);
        }
        cmd.args(&self.caps)
            .arg(unit.cmd)
            .args(unit_files(&self.dir, self.workload, unit));
        let run =
            drive::run_process(&mut cmd, self.watchdog).map_err(|e| format!("running fg: {e}"))?;
        let mut reply = run.reply;
        if run.timed_out {
            reply.stderr.push_str("\nfgbench: timed out\n");
        }
        Ok(Sent {
            reply,
            latency: run.latency,
            maxrss_kb: run.maxrss_kb,
        })
    }

    fn close(self) -> Result<(), String> {
        match self.daemon {
            Some(d) => d.shutdown().map_err(|e| format!("daemon shutdown: {e}")),
            None => Ok(()),
        }
    }
}

fn work_dir(args: &Args) -> PathBuf {
    Path::new(".bench_work").join(format!("{}-{}", args.workload.name(), args.seed))
}

/// Builds `fg`, checks the seed changes the inputs, and prints the seed
/// and digest.
fn prepare(args: &Args) -> Result<(PathBuf, Inputs), String> {
    let fg = drive::build_fg()?;
    let inputs = generate(args.workload, args.seed);
    let other = generate(args.workload, args.seed.wrapping_add(1));
    if other.digest == inputs.digest {
        return Err("a different seed generated the same inputs".into());
    }
    println!(
        "fgbench: workload {} seed {} input digest {:016x} ({} ops listed)",
        args.workload.name(),
        args.seed,
        inputs.digest,
        inputs.units.len()
    );
    Ok((fg, inputs))
}

/// Opens a client: inputs written, daemon up and answering `stats`.
fn open_client<'a>(
    args: &Args,
    fg: &'a Path,
    watchdog: &'a Watchdog,
    inputs: &Inputs,
) -> Result<Client<'a>, String> {
    let dir = work_dir(args);
    write_files(&dir, args.workload, &inputs.units)?;
    let daemon = if args.workload == Workload::Serve {
        let mut d = Daemon::spawn(fg).map_err(|e| format!("starting fg serve: {e}"))?;
        d.stats().map_err(|e| format!("daemon stats: {e}"))?;
        Some(d)
    } else {
        None
    };
    Ok(Client {
        workload: args.workload,
        fg,
        dir,
        caps: drive::cap_flags(),
        watchdog,
        daemon,
    })
}

/// The op source of a measured run: the op list in a loop, or the
/// request stream.
enum Ops {
    List(Vec<Arc<Unit>>, usize),
    Stream(ServeStream),
}

impl Ops {
    fn next(&mut self) -> Arc<Unit> {
        match self {
            Ops::List(units, i) => {
                *i += 1;
                Arc::clone(&units[(*i - 1) % units.len()])
            }
            Ops::Stream(s) => Arc::new(s.next_unit()),
        }
    }
}

/// `--trace 0`: set up `SETUP_REPEATS` times, then drive `fg` for
/// `--seconds` in a closed loop and check every answer.
fn measured(args: &Args) -> Result<Report, String> {
    let (fg, _) = prepare(args)?;
    let watchdog = Watchdog::new();
    let mut warm = Verifier::default();
    let mut setups = Vec::new();
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((client, _)) = opened.take() {
            Client::close(client)?;
        }
        let t0 = Instant::now();
        let inputs = generate(args.workload, args.seed);
        let mut client = open_client(args, &fg, &watchdog, &inputs)?;
        let mut ops = match args.workload {
            Workload::Serve => Ops::Stream(ServeStream::new(args.seed)),
            _ => Ops::List(inputs.units, 0),
        };
        for _ in 0..args.workload.warmup_ops() {
            let unit = ops.next();
            let sent = client.send(&unit)?;
            warm.record(&unit, sent.reply);
        }
        setups.push(t0.elapsed().as_secs_f64());
        opened = Some((client, ops));
    }
    let (mut client, mut ops) = opened.expect("at least one set-up");

    let mut latencies = Vec::new();
    // Per op: when it ended, in seconds since the window opened, and how
    // many programs it held.
    let mut done: Vec<(f64, u64)> = Vec::new();
    let mut verifier = Verifier::default();
    let mut programs = 0u64;
    let mut maxrss_kb = 0u64;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let unit = ops.next();
        let sent = client.send(&unit)?;
        done.push((t0.elapsed().as_secs_f64(), unit.progs.len() as u64));
        latencies.push(ms(sent.latency));
        maxrss_kb = maxrss_kb.max(sent.maxrss_kb);
        programs += unit.progs.len() as u64;
        verifier.record(&unit, sent.reply);
        if let Some(d) = &client.daemon {
            if done.len() == SERVE_RSS_AT {
                maxrss_kb = d
                    .proc_kb("VmHWM")
                    .map_err(|e| format!("daemon VmHWM: {e}"))?;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    if let (Some(d), true) = (&client.daemon, done.len() < SERVE_RSS_AT) {
        maxrss_kb = d
            .proc_kb("VmHWM")
            .map_err(|e| format!("daemon VmHWM: {e}"))?;
    }
    // Slices of at least 100 ops, so each keeps 10 samples beyond p90.
    let slices = (done.len() / 100).clamp(1, MAX_SLICES);
    let len = done.len().div_ceil(slices).max(1);
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    for start in (0..done.len()).step_by(len) {
        let end = (start + len).min(done.len());
        let begin = if start == 0 { 0.0 } else { done[start - 1].0 };
        let n: u64 = done[start..end].iter().map(|d| d.1).sum();
        rates.push(n as f64 / (done[end - 1].0 - begin));
        p50s.push(quantile(&latencies[start..end], 0.5));
        p90s.push(quantile(&latencies[start..end], 0.9));
    }
    client.close()?;

    let (warm_failed, _, warm_err) = warm.finish();
    let (failed, failed_programs, err) = verifier.finish();
    let attempted = latencies.len() as u64;
    println!(
        "fgbench: {attempted} ops, {programs} programs in {wall:.3} s, {slices} slices; failed_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    let matched = 1.0 - ratio(failed_programs as f64, programs as f64);
    Ok(Report {
        attempted,
        failed: failed + warm_failed,
        error: err.or(warm_err),
        metrics: vec![
            metric("programs_per_s", matched * median(&rates), "1/s"),
            metric("latency_p50_ms", median(&p50s), "ms"),
            metric("latency_p90_ms", median(&p90s), "ms"),
            metric("peak_rss_mb", maxrss_kb as f64 / 1024.0, "MB"),
            metric("setup_s", median(&setups), "s"),
        ],
    })
}

/// `--trace 1`: drive the op list once through `fg` for process and
/// request latencies, then replay it in-process, alternately untraced
/// and traced, and derive the per-layer metrics.
fn traced(args: &Args) -> Result<Report, String> {
    let (fg, inputs) = prepare(args)?;
    let start = Instant::now();
    let units = &inputs.units;
    let watchdog = Watchdog::new();
    let mut client = open_client(args, &fg, &watchdog, &inputs)?;
    let rss0_kb = match &client.daemon {
        Some(d) => d
            .proc_kb("VmRSS")
            .map_err(|e| format!("daemon VmRSS: {e}"))?,
        None => 0,
    };
    let mut ext = Vec::with_capacity(units.len());
    let mut cached = Vec::with_capacity(units.len());
    let mut verifier = Verifier::default();
    for unit in units {
        let sent = client.send(unit)?;
        ext.push(sent.latency);
        cached.push(sent.reply.cached);
        verifier.record(unit, sent.reply);
    }
    let mut daemon_hit_frac = 0.0;
    let mut rss_growth_mb = 0.0;
    if let Some(d) = &mut client.daemon {
        let stats = d.stats().map_err(|e| format!("daemon stats: {e}"))?;
        let counter = |k: &str| {
            stats
                .get("counters")
                .and_then(|c| c.get("pool"))
                .and_then(|p| p.get(k))
                .and_then(telemetry::json::Json::as_i64)
                .unwrap_or(0) as f64
        };
        daemon_hit_frac = ratio(
            counter("cache_hits"),
            counter("cache_hits") + counter("cache_misses"),
        );
        let hwm = d
            .proc_kb("VmHWM")
            .map_err(|e| format!("daemon VmHWM: {e}"))?;
        rss_growth_mb = (hwm as f64 - rss0_kb as f64) / 1024.0;
    }
    client.close()?;
    let (ext_failed, _, ext_err) = verifier.finish();

    // Untraced and traced replays alternate until `--seconds` have passed,
    // two of each at least. Every replay must give the same counters.
    let mut untraced: Vec<Replay> = Vec::new();
    let mut traced_runs: Vec<Replay> = Vec::new();
    let mut splits = Vec::new();
    let mut first_events = Vec::new();
    let mut error = ext_err;
    let mut failed = ext_failed;
    while traced_runs.len() < 2 || start.elapsed() < Duration::from_secs(args.seconds) {
        for traced in [false, true] {
            let mut r = replay::replay(args.workload, units, traced);
            failed += r.failed_ops;
            if error.is_none() {
                error = r.first_error.take();
            }
            if let Some(c0) = untraced.first().map(|u| u.counters) {
                if r.counters != c0 {
                    error.get_or_insert_with(|| {
                        format!(
                            "counters differ between replays: {c0:?} vs {:?}",
                            r.counters
                        )
                    });
                }
            }
            if !traced {
                untraced.push(r);
                continue;
            }
            match replay::split(&r.events) {
                Ok(s) => splits.extend(s),
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
            if first_events.is_empty() {
                first_events = std::mem::take(&mut r.events);
            }
            r.events = Vec::new();
            traced_runs.push(r);
        }
    }
    let trace_path = work_dir(args).with_extension("trace.jsonl");
    std::fs::create_dir_all(".bench_work").map_err(|e| format!(".bench_work: {e}"))?;
    let record = telemetry::trace::render_jsonl("fgbench", args.workload.name(), &first_events, 0);
    std::fs::write(&trace_path, record).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "fgbench: {} untraced and {} traced replays; wrote {} spans to {}",
        untraced.len(),
        traced_runs.len(),
        first_events.len() / 2,
        trace_path.display()
    );

    print_mix(units);
    let total = |rs: &[Replay]| {
        rs.iter()
            .flat_map(|r| &r.ops)
            .map(|o| o.wall.as_secs_f64())
            .sum::<f64>()
    };
    let inproc: Vec<f64> = (0..units.len())
        .map(|i| untraced.iter().map(|r| ms(r.ops[i].wall)).sum::<f64>() / untraced.len() as f64)
        .collect();
    let gap: Vec<f64> = ext.iter().zip(&inproc).map(|(e, i)| ms(*e) - i).collect();
    let c = &untraced[0].counters;
    let per = |n: u64, d: u64| ratio(n as f64, d as f64);
    let layer = |name: &str| LAYERS.iter().position(|l| *l == name).expect("known layer");
    let basis: f64 = splits.iter().map(|s| s.basis_ns as f64).sum();
    let busy = |name: &str| {
        let i = layer(name);
        let xs: Vec<f64> = splits
            .iter()
            .filter(|s| s.self_ns[i] > 0)
            .map(|s| s.self_ns[i] as f64 / 1e6)
            .collect();
        quantile(&xs, 0.5)
    };
    let share = |name: &str| {
        let i = layer(name);
        ratio(splits.iter().map(|s| s.self_ns[i] as f64).sum(), basis)
    };
    let vm_ms = |f: fn(&replay::OpSplit) -> Option<u64>| {
        let xs: Vec<f64> = splits
            .iter()
            .filter_map(|s| f(s).map(|ns| ns as f64 / 1e6))
            .collect();
        quantile(&xs, 0.5)
    };
    let parser_s: f64 = splits
        .iter()
        .map(|s| s.self_ns[layer("parser")] as f64 / 1e9)
        .sum();
    let untraced_ops = || untraced.iter().flat_map(|r| &r.ops);
    let untraced_tasks: Vec<(Duration, Duration)> =
        untraced_ops().flat_map(|o| o.tasks.clone()).collect();
    let waits: Vec<f64> = untraced_tasks.iter().map(|(w, _)| ms(*w)).collect();
    let task_busy: f64 = untraced_tasks.iter().map(|(_, b)| b.as_secs_f64()).sum();
    let pool_wall: f64 = untraced_ops()
        .filter(|o| !o.tasks.is_empty())
        .map(|o| o.wall.as_secs_f64())
        .sum();
    let serve = args.workload == Workload::Serve;
    let hit_ms: Vec<f64> = ext
        .iter()
        .zip(&cached)
        .filter(|(_, c)| **c)
        .map(|(d, _)| ms(*d))
        .collect();
    let miss_ms: Vec<f64> = ext
        .iter()
        .zip(&cached)
        .filter(|(_, c)| !**c)
        .map(|(d, _)| ms(*d))
        .collect();
    let replays = untraced.len() + traced_runs.len();
    let attempted = (units.len() * (1 + replays)) as u64;
    let metrics = vec![
        metric(
            "cli.startup_ms",
            if serve { 0.0 } else { quantile(&gap, 0.5) },
            "ms",
        ),
        metric("parser.busy_ms", busy("parser"), "ms"),
        metric("parser.share", share("parser"), "frac"),
        metric(
            "parser.mb_per_s",
            ratio(
                traced_runs.len() as f64 * c.parse_bytes as f64 / 1e6,
                parser_s,
            ),
            "MB/s",
        ),
        metric("check.busy_ms", busy("check"), "ms"),
        metric("check.share", share("check"), "frac"),
        metric(
            "check.model_lookups",
            per(c.model_lookups, c.checked),
            "count",
        ),
        metric(
            "check.candidates_per_lookup",
            per(c.candidates, c.model_lookups),
            "count",
        ),
        metric("check.dicts_built", per(c.dicts_built, c.checked), "count"),
        metric("check.rejected", c.rejected as f64, "count"),
        metric("congruence.finds", per(c.cc_finds, c.checked), "count"),
        metric("congruence.unions", per(c.cc_unions, c.checked), "count"),
        metric(
            "intern.hit_frac",
            per(c.intern_hits, c.intern_hits + c.intern_misses),
            "frac",
        ),
        metric(
            "sf_term.nodes",
            per(c.sf_nodes, c.checked - c.rejected),
            "count",
        ),
        metric("sf_typeck.busy_ms", busy("sf_typeck"), "ms"),
        metric("sf_typeck.share", share("sf_typeck"), "frac"),
        metric("sf_eval.busy_ms", busy("sf_eval"), "ms"),
        metric("sf_eval.share", share("sf_eval"), "frac"),
        metric("sf_eval.fuel", per(c.sf_fuel, c.sf_evals), "count"),
        metric("vm.compile_ms", vm_ms(|s| s.vm_compile_ns), "ms"),
        metric("vm.run_ms", vm_ms(|s| s.vm_run_ns), "ms"),
        metric(
            "vm.instructions",
            per(c.vm_instructions, c.vm_runs),
            "count",
        ),
        metric("vm.code_size", per(c.vm_code, c.vm_runs), "count"),
        metric("interp.busy_ms", busy("interp"), "ms"),
        metric(
            "interp.eval_steps",
            per(c.interp_steps, c.interp_runs),
            "count",
        ),
        metric(
            "interp.model_lookups",
            per(c.interp_lookups, c.interp_runs),
            "count",
        ),
        metric("pool.queue_wait_ms", quantile(&waits, 0.5), "ms"),
        metric(
            "pool.busy_frac",
            ratio(task_busy, WORKERS as f64 * pool_wall),
            "frac",
        ),
        metric(
            "pool.steals",
            untraced
                .iter()
                .chain(&traced_runs)
                .map(|r| r.steals as f64)
                .sum::<f64>()
                / replays as f64,
            "count",
        ),
        metric("cache.hit_frac", daemon_hit_frac, "frac"),
        metric("cache.hit_ms", quantile(&hit_ms, 0.5), "ms"),
        metric(
            "cache.miss_ms",
            if serve { quantile(&miss_ms, 0.5) } else { 0.0 },
            "ms",
        ),
        metric(
            "serve.overhead_ms",
            if serve { quantile(&gap, 0.5) } else { 0.0 },
            "ms",
        ),
        metric("serve.rss_growth_mb", rss_growth_mb, "MB"),
        metric(
            "trace.overhead_frac",
            ratio(
                total(&traced_runs) / traced_runs.len() as f64,
                total(&untraced) / untraced.len() as f64,
            ) - 1.0,
            "frac",
        ),
        metric("other.share", share("other"), "frac"),
        metric(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "frac",
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        error,
        metrics,
    })
}

/// Prints the shares of the properties the workload was chosen for.
fn print_mix(units: &[Arc<Unit>]) {
    let progs: Vec<(&str, &gen::Prog)> = units
        .iter()
        .flat_map(|u| u.progs.iter().map(move |p| (u.cmd, &**p)))
        .collect();
    let n = progs.len() as f64;
    let count = |f: &dyn Fn(&str, &gen::Prog) -> bool| {
        progs.iter().filter(|(c, p)| f(c, p)).count() as f64 / n
    };
    let mut seen = HashSet::new();
    let repeats = units
        .iter()
        .filter(|u| {
            !seen.insert((
                u.cmd,
                u.progs
                    .iter()
                    .map(|p| p.source.as_str())
                    .collect::<Vec<_>>(),
            ))
        })
        .count();
    println!(
        "fgbench: mix prelude {:.3} repeat {:.3} eval_heavy {:.3} ill_typed {:.3}",
        count(&|_, p| p.prelude),
        repeats as f64 / units.len() as f64,
        count(&|c, p| p.graph && c != "check" && c != "translate"),
        count(&|_, p| matches!(p.expect, Expect::Reject(_))),
    );
}
