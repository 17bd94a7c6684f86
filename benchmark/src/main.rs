//! `epoch-ledger run|trace [--workload NAME] [--seed N] [--seconds S]
//! [--trace 0|1] [--quick] [--record]`
//!
//! With `--workload` the process runs that workload itself and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Without it,
//! every workload runs in a fresh child process of this binary, so peak
//! memory and allocator state are per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use dss_core::config::ControlConfig;
use dss_core::env::{AnalyticEnv, ClusterEnv, SimEnv};
use dss_core::experiment::{scenario_deployment_curve, stable_ms};
use dss_core::scenario::Scenario;

use epoch_ledger::json::{self, Value};
use epoch_ledger::probes::{self, Fixture, Readings};
use epoch_ledger::spec::{self, Driver, MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use epoch_ledger::stats;
use epoch_ledger::timed::SpanKind;
use epoch_ledger::trace::{self, Traced};
use epoch_ledger::workloads::{self, entry_intervals, online_env, scratch_dir, Round};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    record: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: epoch-ledger run|trace [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--quick] [--record]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        workload: None,
        seed: 17,
        seconds: 10.0,
        trace: false,
        quick: false,
        record: false,
    };
    match argv.next().as_deref() {
        Some("run") => {}
        Some("trace") => args.trace = true,
        _ => return Err(usage()),
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}`\n{}", usage()));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type under `dir` (longest mount-point prefix in
/// `/proc/self/mounts`): fsync cost on the durable workload depends on it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, kind)| kind)
}

/// One reported metric value with its sample count.
type Reading = (f64, usize);

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, Reading)>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|((name, unit), (value, _))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self) {
        for ((name, unit), (value, n)) in &self.metrics {
            println!("  {name:<30} {value:>16.6} {unit:<8} (n={n})");
        }
    }
}

/// Fills `table` from `readings`; a metric nobody measured reads 0.
fn tabulate(table: &[MetricDef], readings: &BTreeMap<&str, Reading>) -> Vec<(MetricDef, Reading)> {
    table
        .iter()
        .map(|def| (*def, readings.get(def.0).copied().unwrap_or((0.0, 0))))
        .collect()
}

fn manifest_problems() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    match std::fs::read_to_string(&path) {
        Ok(text) => spec::check_manifest(&text),
        Err(e) => vec![format!("{}: {e}", path.display())],
    }
}

fn pooled(rounds: &[Round], f: fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn median_reading(v: &[f64]) -> Reading {
    (stats::median(v).unwrap_or(0.0), v.len())
}

/// Rounds for `seconds` — none is started that the last one's length
/// says would end after them — and at least `min_rounds`; with `control`,
/// each followed by its control phase.
fn run_rounds(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    control: bool,
) -> Vec<Round> {
    let begun = Instant::now();
    let mut rounds = Vec::new();
    let mut last_s = 0.0;
    while rounds.len() < min_rounds || begun.elapsed().as_secs_f64() + last_s <= seconds {
        let start = Instant::now();
        rounds.push(workloads::round(w, seed, control));
        last_s = start.elapsed().as_secs_f64();
    }
    rounds
}

fn finish(
    rounds: &[Round],
    extra_problems: Vec<String>,
    metrics: Vec<(MetricDef, Reading)>,
) -> Report {
    let mut problems: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.problems.iter().map(move |p| format!("round {i}: {p}")))
        .chain(extra_problems)
        .chain(manifest_problems())
        .collect();
    for ((name, _), (value, _)) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric `{name}` is not finite"));
        }
    }
    for p in &problems {
        println!("  FAILED CHECK: {p}");
    }
    // A non-finite value cannot be printed as JSON; the check above has
    // already failed the run, so report it as 0.
    let metrics = metrics
        .into_iter()
        .map(|(def, (v, n))| (def, (if v.is_finite() { v } else { 0.0 }, n)))
        .collect();
    Report {
        correct: problems.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
    }
}

/// How a timing is read off the rounds of a run: the fastest. The rounds
/// of a run train the same seed, so they make the same calls, and
/// interference only ever adds time — on the host this was written on
/// in stretches of five to seventy seconds that a median of rounds
/// follows and the fastest round does not (see the README, "Summaries").
fn fastest(rounds: &[Round], f: fn(&Round) -> f64) -> Reading {
    let best = rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    (best, rounds.len())
}

/// The untraced pass: rounds for `seconds`.
fn run_end_to_end(w: &Workload, args: &Args) -> Report {
    let (seconds, min_rounds) = if args.quick {
        (0.0, 1)
    } else {
        (args.seconds, w.min_rounds)
    };
    let begun = Instant::now();
    let rounds = run_rounds(w, args.seed, seconds, min_rounds, false);
    println!(
        "  {} rounds in {:.1} s",
        rounds.len(),
        begun.elapsed().as_secs_f64()
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "    round {i}: setup_s {:.6} train_wall_s {:.4} online_epoch_ms_p50 {:.4}",
            r.trained.setup_s,
            r.trained.train_wall_s,
            stats::median(&r.online_ms).unwrap_or(f64::NAN),
        );
    }
    let mut readings = BTreeMap::new();
    readings.insert("setup_s", fastest(&rounds, |r| r.trained.setup_s));
    readings.insert("train_wall_s", fastest(&rounds, |r| r.trained.train_wall_s));
    readings.insert(
        "online_epoch_ms_p50",
        fastest(&rounds, |r| stats::median(&r.online_ms).unwrap_or(f64::NAN)),
    );
    readings.insert("peak_rss_mb", (peak_rss_mb(), 1));
    finish(&rounds, Vec::new(), tabulate(&END_TO_END, &readings))
}

fn traced_pass(w: &Workload, sc: &Scenario, cfg: &ControlConfig) -> Option<Traced> {
    match w.driver {
        Driver::Analytic => Some(trace::traced_lockstep::<AnalyticEnv>(w.name, sc, cfg, None)),
        Driver::Sim => Some(trace::traced_lockstep::<SimEnv>(w.name, sc, cfg, None)),
        Driver::ClusterDurable { every } => Some(trace::traced_lockstep::<ClusterEnv>(
            w.name,
            sc,
            cfg,
            Some(every),
        )),
        Driver::AsyncTcp { .. } => None,
    }
}

/// What the two halves of the traced pass fill in.
struct TraceCtx {
    readings: BTreeMap<&'static str, Reading>,
    problems: Vec<String>,
    trace_path: PathBuf,
}

/// Lockstep workloads: check the traced sequence against the untraced
/// reference round, write the span tree, report the seam spans, and hand
/// the probes a private copy of the trained agent.
fn lockstep_readings(
    w: &Workload,
    args: &Args,
    sc: &Scenario,
    cfg: &ControlConfig,
    traced: Traced,
    reference: &Round,
    ctx: &mut TraceCtx,
) -> Fixture {
    let TraceCtx {
        readings,
        problems,
        trace_path,
    } = ctx;
    // The spans are evidence about the production path only if
    // the traced sequence reproduced it exactly.
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    if bits(traced.rewards.values()) != bits(reference.trained.rewards.values()) {
        problems.push("traced reward bits differ from the untraced run".into());
    }
    if traced.solution != reference.trained.solution {
        problems.push("traced solution differs from the untraced run".into());
    }
    for e in &traced.epochs {
        let parts = e.schedule_ms + e.env_ms + e.observe_ms + e.checkpoint_ms + e.self_ms;
        if (parts - e.epoch_ms).abs() > 1e-9 * e.epoch_ms.max(1.0) || e.self_ms < 0.0 {
            problems.push("seam spans do not sum to their epoch".into());
            break;
        }
    }
    std::fs::write(&trace_path, traced.tree.to_json(w.name, args.seed))
        .unwrap_or_else(|e| problems.push(format!("{}: {e}", trace_path.display())));

    let col =
        |f: fn(&trace::EpochSplit) -> f64| -> Vec<f64> { traced.epochs.iter().map(f).collect() };
    readings.insert("core.offline_collect_s", (traced.offline_collect_s, 1));
    readings.insert("rl.pretrain_s", (traced.pretrain_s, 1));
    readings.insert("core.finalize_s", (traced.finalize_s, 1));
    readings.insert("rl.schedule_ms", median_reading(&col(|e| e.schedule_ms)));
    readings.insert("rl.observe_ms", median_reading(&col(|e| e.observe_ms)));
    readings.insert("core.env_step_ms", median_reading(&col(|e| e.env_ms)));
    readings.insert(
        "core.controller_self_ms",
        median_reading(&col(|e| e.self_ms)),
    );
    let saves: Vec<f64> = col(|e| e.checkpoint_ms)
        .into_iter()
        .filter(|&ms| ms > 0.0)
        .collect();
    readings.insert("core.checkpoint_save_ms", median_reading(&saves));
    readings.insert("core.checkpoint_bytes", (traced.checkpoint_bytes as f64, 1));

    println!(
        "  where the traced train wall went ({:.3} s):",
        traced.train_wall_s
    );
    let mut totals = trace::layer_totals(&traced);
    totals.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("durations are finite"));
    for (name, ms) in &totals {
        println!(
            "    {name:<24} {ms:>12.3} ms {:>6.1} %",
            ms / (traced.train_wall_s * 10.0)
        );
    }
    // Hand the probes a private copy of the trained agent; the
    // traced scheduler goes first (at fleet scale each is > 1 GB).
    let Traced {
        scheduler, dataset, ..
    } = traced;
    let image = scheduler.agent().save_state();
    drop(scheduler);
    Fixture::new(sc, cfg, &image, &dataset)
}

/// The async workload: the env seam is all the harness sees of the
/// service, so its spans and phase gaps come from the three env logs.
fn async_readings(
    w: &Workload,
    args: &Args,
    sc: &Scenario,
    cfg: &ControlConfig,
    reference: &Round,
    ctx: &mut TraceCtx,
) -> Fixture {
    let TraceCtx {
        readings,
        problems,
        trace_path,
    } = ctx;
    let envs = &reference.trained.envs;
    let online_log = online_env(w, envs);
    // Async: the env seam is all the harness sees of the service.
    let origin = envs[0].calls.first().map_or_else(Instant::now, |s| s.start);
    let end = envs
        .last()
        .and_then(|l| l.calls.last())
        .map_or(origin, |s| s.end);
    let tree = trace::async_tree(origin, end, envs);
    std::fs::write(&trace_path, tree.to_json(w.name, args.seed))
        .unwrap_or_else(|e| problems.push(format!("{}: {e}", trace_path.display())));
    let gap = |from: usize, to: usize| -> f64 {
        match (envs[from].calls.last(), envs[to].calls.first()) {
            (Some(a), Some(b)) => b.start.saturating_duration_since(a.end).as_secs_f64(),
            _ => 0.0,
        }
    };
    let phase = |i: usize| -> f64 {
        match (envs[i].calls.first(), envs[i].calls.last()) {
            (Some(a), Some(b)) => b.end.duration_since(a.start).as_secs_f64(),
            _ => 0.0,
        }
    };
    readings.insert("core.offline_collect_s", (phase(0), 1));
    // Seam-visible gaps: offline end → first worker step covers
    // pretraining plus the first publish and the worker's spawn
    // and handshake; last worker step → first validation
    // measurement covers the learner's drain and greedy pick.
    readings.insert("rl.pretrain_s", (gap(0, 1), 1));
    readings.insert("core.finalize_s", (gap(1, 2), 1));
    let wall = reference.trained.train_wall_s;
    println!("  where the train wall went ({wall:.3} s), as far as the env seam shows:");
    for (name, secs) in [
        ("core.offline_collect", phase(0)),
        ("rl.pretrain + publish + worker spawn", gap(0, 1)),
        ("trainer.worker (all rounds)", phase(1)),
        ("learner drain + greedy pick", gap(1, 2)),
        ("validation sweep", phase(2)),
    ] {
        println!(
            "    {name:<38} {:>10.3} ms {:>6.1} %",
            secs * 1e3,
            secs / wall * 100.0
        );
    }
    let env_ms: Vec<f64> = online_log.calls.iter().map(|s| s.ms()).collect();
    readings.insert("core.env_step_ms", median_reading(&env_ms));
    readings.insert(
        "trainer.worker_step_ms",
        median_reading(&entry_intervals(online_log, SpanKind::EnvStep)),
    );
    if let Some(s) = &reference.trained.stats {
        readings.insert("trainer.train_steps", (s.train_steps as f64, 1));
        readings.insert("trainer.transitions", (s.transitions as f64, 1));
        readings.insert("trainer.dropped_stale", (s.dropped_stale as f64, 1));
        readings.insert("trainer.mean_version_lag", (s.mean_version_lag, 1));
        readings.insert(
            "trainer.pushes_during_train",
            (s.pushes_during_train as f64, 1),
        );
    }
    Fixture::pretrained::<AnalyticEnv>(sc, cfg)
}

/// Tracing may cost at most this share of the untraced train wall.
const MAX_TRACE_OVERHEAD: f64 = 1.03;
/// Traced passes the overhead is read from (each but the first paired
/// with one more untraced pass): at least, at most.
const OVERHEAD_PAIRS: (usize, usize) = (3, 10);
/// A round this long is run once untraced and once traced, and its
/// overhead ratio is reported unchecked: one pair cannot resolve 3 %, and
/// a second does not fit the run.
const REPEATABLE_ROUND_S: f64 = 5.0;
/// The trained critic's values must correlate at least this much with
/// the measured rewards of the offline samples (see
/// `probes::critic_reward_corr`).
const MIN_CRITIC_CORR: f64 = 0.2;

/// Train wall of one pass, and the part of it spent inside the
/// environment's deploy-and-measure calls.
#[derive(Clone, Copy)]
struct PassCost {
    wall_s: f64,
    env_s: f64,
}

impl PassCost {
    fn untraced(t: &workloads::Trained) -> Self {
        let env_ms: f64 = t.envs.iter().flat_map(|l| &l.calls).map(|s| s.ms()).sum();
        Self {
            wall_s: t.train_wall_s,
            env_s: env_ms / 1e3,
        }
    }

    fn traced(t: &Traced) -> Self {
        Self {
            wall_s: t.train_wall_s,
            env_s: t.env_s,
        }
    }

    fn outside_env_s(&self) -> f64 {
        self.wall_s - self.env_s
    }
}

/// `trace.overhead_ratio`: what tracing adds to the train wall, as a
/// ratio to the untraced wall of the same seed. `TimedEnv` is in both
/// passes and the calls inside it are the same code, so tracing can only
/// cost outside the env calls, and time inside them (the engine, the
/// control plane's fsyncs) only adds noise: the overhead is the
/// difference of the two sides' time outside. Interference only adds
/// time and the same seed makes the same calls, so each side is
/// represented by its fastest pass. `untraced` starts as the reference
/// rounds; passes alternate until the ratio is within
/// [`MAX_TRACE_OVERHEAD`] or [`OVERHEAD_PAIRS`] runs out, which fails the
/// check.
fn trace_overhead(
    w: &Workload,
    sc: &Scenario,
    cfg: &ControlConfig,
    mut untraced: Vec<PassCost>,
    first_traced: PassCost,
    problems: &mut Vec<String>,
) -> Reading {
    let fastest =
        |v: &[PassCost], f: fn(&PassCost) -> f64| v.iter().map(f).fold(f64::INFINITY, f64::min);
    let mut traced = vec![first_traced];
    let ratio = |u: &[PassCost], t: &[PassCost]| {
        let added = fastest(t, PassCost::outside_env_s) - fastest(u, PassCost::outside_env_s);
        1.0 + added / fastest(u, |c| c.wall_s)
    };
    if untraced[0].wall_s < REPEATABLE_ROUND_S {
        let (at_least, at_most) = OVERHEAD_PAIRS;
        while traced.len() < at_least
            || (ratio(&untraced, &traced) > MAX_TRACE_OVERHEAD && traced.len() < at_most)
        {
            untraced.push(PassCost::untraced(&workloads::train(w, cfg).1));
            let again = traced_pass(w, sc, cfg).expect("a lockstep workload");
            traced.push(PassCost::traced(&again));
        }
        if ratio(&untraced, &traced) > MAX_TRACE_OVERHEAD {
            problems.push(format!(
                "tracing overhead {:.4} over {} traced passes, expected at most {MAX_TRACE_OVERHEAD}",
                ratio(&untraced, &traced),
                traced.len()
            ));
        }
    }
    let outside = |v: &[PassCost]| -> String {
        let v: Vec<String> = v
            .iter()
            .map(|c| format!("{:.4}", c.outside_env_s()))
            .collect();
        v.join(" ")
    };
    println!("  untraced, s outside the env: {}", outside(&untraced));
    println!("  traced, s outside the env:   {}", outside(&traced));
    (ratio(&untraced, &traced), traced.len())
}

/// The traced pass: untraced rounds for reference, the first round's seed
/// again through the harness-driven traced sequence, then the checks on
/// what was learned and the replay probes.
fn run_traced(w: &Workload, args: &Args) -> Report {
    let sc = Scenario::by_name(w.scenario).expect("registry scenario");
    let cfg = w.config(args.seed);
    // Reference rounds: as many as pool the 200 epochs a p95 needs, where
    // a round is short enough to repeat; one otherwise.
    let mut rounds = run_rounds(w, args.seed, 0.0, 1, true);
    if !args.quick && rounds[0].trained.train_wall_s < REPEATABLE_ROUND_S {
        while rounds.len() < w.min_rounds {
            rounds.push(workloads::round(w, args.seed, true));
        }
    }
    let reference = &rounds[0];
    let mut probe_out: Readings = Vec::new();
    let mut ctx = TraceCtx {
        readings: BTreeMap::new(),
        problems: Vec::new(),
        trace_path: Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", w.name)),
    };
    let mut fixture = match traced_pass(w, &sc, &cfg) {
        Some(traced) => {
            // Every reference round trained this same seed untraced.
            let untraced = rounds
                .iter()
                .map(|r| PassCost::untraced(&r.trained))
                .collect();
            let first_traced = PassCost::traced(&traced);
            let fixture = lockstep_readings(w, args, &sc, &cfg, traced, reference, &mut ctx);
            let overhead = trace_overhead(w, &sc, &cfg, untraced, first_traced, &mut ctx.problems);
            ctx.readings.insert("trace.overhead_ratio", overhead);
            // Did training teach the critic anything? Needs enough
            // offline samples for a correlation to mean something.
            if fixture.transitions.len() >= 30 {
                let corr = probes::critic_reward_corr(&fixture);
                ctx.readings
                    .insert("rl.critic_reward_corr", (corr, fixture.transitions.len()));
                if corr.is_nan() || corr < MIN_CRITIC_CORR {
                    ctx.problems.push(format!(
                        "trained critic correlates {corr:.3} with the offline rewards, \
                         expected at least {MIN_CRITIC_CORR}"
                    ));
                }
            }
            fixture
        }
        None => async_readings(w, args, &sc, &cfg, reference, &mut ctx),
    };
    let TraceCtx {
        mut readings,
        mut problems,
        ..
    } = ctx;

    // Tails, the control phase and outcomes: none carries a bound.
    let online = pooled(&rounds, |r| &r.online_ms);
    let control = pooled(&rounds, |r| &r.control_ms);
    readings.insert(
        "online_epoch_ms_p95",
        (stats::p95(&online).unwrap_or(0.0), online.len()),
    );
    readings.insert("control_epoch_ms_p50", median_reading(&control));
    readings.insert(
        "control_epoch_ms_p95",
        (stats::p95(&control).unwrap_or(0.0), control.len()),
    );
    let curve = |a| {
        stable_ms(&scenario_deployment_curve(
            &sc,
            &cfg,
            a,
            w.curve_minutes,
            30.0,
        ))
    };
    let deployed = curve(&reference.trained.solution);
    let default = curve(&sc.initial_assignment());
    readings.insert("deployed_latency_ms", (deployed, 1));
    readings.insert("default_latency_ms", (default, 1));
    // The async service picks its solution by measuring the candidates,
    // so it must beat the default on every seed; the lockstep drivers
    // pick by the critic alone and do so on about half (see README).
    if matches!(w.driver, Driver::AsyncTcp { .. }) && deployed >= default {
        problems.push(format!(
            "deployed latency {deployed:.4} ms is not below the default's {default:.4} ms"
        ));
    }
    for &(name, v) in &reference.counters {
        readings.insert(name, (v, 1));
    }
    let degraded = readings
        .get("nimbus.degraded_epochs")
        .map_or(0.0, |(v, _)| *v);
    readings.insert(
        "degraded_share",
        (degraded / reference.attempted.max(1) as f64, 1),
    );

    // Replay probes, by the layers on this workload's path.
    probes::agent_probes(&mut fixture, &mut probe_out);
    match w.driver {
        Driver::Analytic => probes::analytic_probe(&fixture, &mut probe_out),
        Driver::Sim => probes::engine_probes(&fixture, &mut probe_out),
        Driver::ClusterDurable { .. } => {
            probes::engine_probes(&fixture, &mut probe_out);
            let bytes = readings.get("core.checkpoint_bytes").map_or(0.0, |r| r.0);
            probes::cluster_probes(&fixture, bytes as u64, &mut probe_out);
        }
        Driver::AsyncTcp { steps, .. } => {
            probes::analytic_probe(&fixture, &mut probe_out);
            probes::trainer_probes(&mut fixture, steps, &mut probe_out);
        }
    }
    for (name, value, n) in probe_out {
        readings.insert(name, (value, n));
    }

    // workpool: the pool users get by default, and (on the workload that
    // is all agent compute) what one thread makes of the same round.
    readings.insert("workpool.threads", (workpool::global().threads() as f64, 1));
    if w.name == "paper-analytic" {
        let one = Arc::new(workpool::Pool::new(1));
        let t1 = workpool::with_pool(one, || workloads::train(w, &cfg).1.train_wall_s);
        readings.insert(
            "workpool.t1_over_default",
            (t1 / reference.trained.train_wall_s, 1),
        );
    }
    finish(&rounds, problems, tabulate(&PER_LAYER, &readings))
}

fn run_one(w: &Workload, args: &Args) -> Report {
    // Everything the program writes while measured goes under the
    // checkout: its own temp files (the master's recovery WAL) through
    // TMPDIR, the durable checkpoints through `scratch_dir`.
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).expect("scratch directory inside the checkout");
    std::env::set_var("TMPDIR", &scratch);
    println!(
        "workload {} seed {} ({}): host_cores {} workpool.threads {} microkernel {} durable_fs {}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        std::thread::available_parallelism().map_or(0, usize::from),
        workpool::global().threads(),
        dss_nn::microkernel_name(),
        fs_type(&scratch),
    );
    let report = if args.trace {
        run_traced(w, args)
    } else {
        run_end_to_end(w, args)
    };
    std::fs::remove_dir_all(&scratch).ok();
    report.print_table();
    report
}

/// Runs every workload in a child process each and gathers the result
/// lines. Returns `(workload, result line)` pairs and overall success.
fn run_all(args: &Args) -> (Vec<(&'static str, String)>, bool) {
    let exe = std::env::current_exe().expect("own binary path");
    let mut results = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        match json::parse(last) {
            Ok(v) if out.status.success() => {
                ok &= v.get("correct").and_then(Value::as_bool) == Some(true);
                results.push((w.name, last.to_string()));
            }
            _ => {
                println!("  workload {} produced no result: {last}", w.name);
                ok = false;
            }
        }
    }
    (results, ok)
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Appends one line to `history.jsonl`: where and when, and every
/// end-to-end metric of every workload.
fn record(args: &Args, results: &[(&'static str, String)]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let commit = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let workloads: Vec<String> = results
        .iter()
        .map(|(name, line)| {
            let v = json::parse(line).expect("result lines were parsed once already");
            let metrics: Vec<String> = v
                .get("metrics")
                .map(Value::members)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, m)| {
                    let value = m.get("value").and_then(Value::as_f64)?;
                    Some(format!("{}: {}", json::quote(k), json::number(value)))
                })
                .collect();
            format!("{}: {{{}}}", json::quote(name), metrics.join(", "))
        })
        .collect();
    let line = format!(
        "{{\"commit\": {}, \"host_cores\": {}, \"microkernel\": {}, \"workpool.threads\": {}, \
         \"seed\": {}, \"seconds\": {}, \"workloads\": {{{}}}}}\n",
        json::quote(&format!("{commit}{}", if dirty { "+" } else { "" })),
        std::thread::available_parallelism().map_or(0, usize::from),
        json::quote(dss_nn::microkernel_name()),
        workpool::global().threads(),
        args.seed,
        json::number(args.seconds),
        workloads.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?
        .write_all(line.as_bytes())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        let w = spec::workload(name).expect("validated while parsing");
        let report = run_one(w, &args);
        println!("{}", report.result_line());
        return if report.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let (results, mut ok) = run_all(&args);
    if args.record && !args.trace && ok {
        match record(&args, &results) {
            Ok(path) => println!("recorded to {}", path.display()),
            Err(e) => {
                println!("could not record: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {{{}}}}}",
        results
            .iter()
            .map(|(name, line)| format!("{}: {line}", json::quote(name)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
