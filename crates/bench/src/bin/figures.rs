//! Figures 6–12 of the paper: `figures --fig 6|7|8|9|10|11|12|all`.
//!
//! * Figures 6, 8 and 10 are **deployment** figures: average tuple
//!   processing time of all four methods over 20 minutes after deployment,
//!   on continuous queries ((a) small, (b) medium, (c) large), log stream
//!   processing and word count.
//! * Figures 7, 9 and 11 are **reward** figures: normalized smoothed reward
//!   over online learning, actor-critic vs DQN, on the same topologies.
//! * Figure 12 is the **workload shift**: model-based vs actor-critic under
//!   a +50% workload step at minute 20 of 50, on all three topologies.
//!
//! Each figure writes its series CSVs and `<figN>_records.csv` (paper vs
//! measured values plus shape checks) to `--out`.

use std::collections::HashMap;

use dss_apps::{continuous_queries, log_stream, word_count, App, CqScale};
use dss_bench::{emit_records, emit_series, RunOptions};
use dss_core::experiment::{
    figure_deployment, figure_rewards, stable_ms, train_method, workload_shift_curve, Method,
};
use dss_metrics::{ExperimentRecord, ShapeCheck, TimeSeries};

/// Stable average tuple time per method (ms).
type Stable = HashMap<Method, f64>;

/// A deployment sub-figure: name, topology, the stable levels the paper
/// reports (default, model-based, DQN, actor-critic; ms), shape checks.
type Panel = (
    &'static str,
    fn() -> App,
    [f64; 4],
    fn(&str, &Stable) -> Vec<ShapeCheck>,
);

const FIG6: [Panel; 3] = [
    ("fig6a", cq_small, [1.96, 1.46, 1.54, 1.33], |sub, s| {
        cq_checks(sub, s, 0.85)
    }),
    ("fig6b", cq_medium, [2.08, 1.61, 1.59, 1.43], |sub, s| {
        cq_checks(sub, s, 0.85)
    }),
    ("fig6c", cq_large, [2.64, 2.12, 2.45, 1.72], |sub, s| {
        cq_checks(sub, s, 0.98)
    }),
];
const FIG8: [Panel; 1] = [("fig8", log_stream, [9.61, 7.91, 8.19, 7.20], |sub, s| {
    vec![
        actor_critic_wins(sub, s),
        ShapeCheck::new(
            sub,
            "log stream slower than continuous queries (paper: 'more complicated ... longer')",
            s[&Method::Default] > 4.0,
        ),
    ]
})];
const FIG10: [Panel; 1] = [("fig10", word_count, [3.10, 2.16, 2.29, 1.70], |sub, s| {
    vec![actor_critic_wins(sub, s)]
})];

/// A Figure 12 sub-figure: name, topology, and the restabilized levels the
/// paper reports after the shift (model-based, actor-critic; ms).
type ShiftPanel = (&'static str, fn() -> App, f64, f64);

/// fig12b/c are read off the curves; the paper states no exact numbers.
const FIG12: [ShiftPanel; 3] = [
    ("fig12a", cq_large, 2.17, 1.76),
    ("fig12b", log_stream, 8.60, 7.50),
    ("fig12c", word_count, 2.60, 2.20),
];

fn cq_small() -> App {
    continuous_queries(CqScale::Small)
}
fn cq_medium() -> App {
    continuous_queries(CqScale::Medium)
}
fn cq_large() -> App {
    continuous_queries(CqScale::Large)
}

/// Continuous queries' checks: orderings at every scale, and a margin over
/// default that narrows at large scale, where the simulated cluster's
/// assignment-quality spread does.
fn cq_checks(sub: &str, s: &Stable, margin: f64) -> Vec<ShapeCheck> {
    let (ac, mb, df) = (
        s[&Method::ActorCritic],
        s[&Method::ModelBased],
        s[&Method::Default],
    );
    let beats = format!(
        "actor-critic beats default by >= {:.0}%",
        (1.0 - margin) * 100.0
    );
    vec![
        ShapeCheck::new(sub, "actor-critic <= model-based", ac <= mb * 1.02),
        ShapeCheck::new(sub, "model-based < default", mb < df),
        ShapeCheck::new(sub, beats, ac < margin * df),
    ]
}

fn actor_critic_wins(sub: &str, s: &Stable) -> ShapeCheck {
    let ac = s[&Method::ActorCritic];
    let wins = ac < s[&Method::ModelBased] && ac < s[&Method::Default] && ac < s[&Method::Dqn];
    ShapeCheck::new(sub, "actor-critic wins", wins)
}

fn main() {
    let opts = RunOptions::from_env();
    assert!(
        !opts.figs.is_empty(),
        "usage: figures --fig <6..12|all> [--preset P] [--minutes M] [--out DIR] [--seed S]"
    );
    for &n in &opts.figs {
        let name = format!("fig{n}");
        match n {
            6 => deployment(&opts, &name, &FIG6),
            7 => rewards(&opts, &name, cq_large, 2000, Some(0.44), true),
            8 => deployment(&opts, &name, &FIG8),
            9 => rewards(&opts, &name, log_stream, 1500, None, false),
            10 => deployment(&opts, &name, &FIG10),
            11 => rewards(&opts, &name, word_count, 1500, None, false),
            _ => shift(&opts, &name), // 12: `--fig` admits only 6..=12
        }
    }
}

/// Trains all four methods per panel, deploys each for `--minutes`
/// (default 20) and compares stable levels.
fn deployment(opts: &RunOptions, name: &str, panels: &[Panel]) {
    let minutes = opts.minutes_or(20.0);
    let (mut records, mut checks) = (Vec::new(), Vec::new());
    for &(sub, app, paper, panel_checks) in panels {
        let app = app();
        eprintln!("[{sub}] training 4 methods on {}", app.name);
        let results = figure_deployment(&app, &opts.cluster(), &opts.config, minutes, 30.0);
        let labelled: Vec<(&str, &TimeSeries)> =
            results.iter().map(|(m, s, _)| (m.label(), s)).collect();
        emit_series(opts, sub, &labelled);

        let mut stable = Stable::new();
        for ((method, series, _), paper_ms) in results.iter().zip(paper) {
            let ms = stable_ms(series);
            stable.insert(*method, ms);
            let quantity = format!("stable avg tuple time, {} (ms)", method.label());
            records.push(ExperimentRecord::new(sub, quantity, Some(paper_ms), ms));
        }
        checks.extend(panel_checks(sub, &stable));
    }
    emit_records(opts, name, &records, &checks);
}

/// Online learning of actor-critic and DQN on `app`; compares end-of-run
/// rewards. `paper_epochs` is the paper's T under `--preset paper`,
/// `paper_dqn` the DQN end-of-run reward it reports, and `check_climb`
/// whether its text reads actor-critic's climb off the curve.
fn rewards(
    opts: &RunOptions,
    name: &str,
    app: fn() -> App,
    paper_epochs: usize,
    paper_dqn: Option<f64>,
    check_climb: bool,
) {
    let mut config = opts.config;
    if opts.preset == "paper" {
        config.online_epochs = paper_epochs;
    }
    let app = app();
    let t = config.online_epochs;
    eprintln!("[{name}] online learning on {} (T = {t})", app.name);
    let curves = figure_rewards(&app, &opts.cluster(), &config);
    let labelled: Vec<(&str, &TimeSeries)> = curves.iter().map(|(m, s)| (m.label(), s)).collect();
    emit_series(opts, name, &labelled);

    assert_eq!(curves[0].0, Method::ActorCritic);
    let (ac, dqn) = (&curves[0].1, &curves[1].1);
    let tail = |s: &TimeSeries| s.tail_mean(s.len() / 10 + 1).unwrap();
    let head = |s: &TimeSeries| s.window_mean(0.0, (s.len() / 10 + 1) as f64).unwrap();
    let records = [
        ExperimentRecord::new(
            name,
            "final normalized reward, actor-critic",
            None,
            tail(ac),
        ),
        ExperimentRecord::new(name, "final normalized reward, dqn", paper_dqn, tail(dqn)),
    ];
    let mut checks = Vec::new();
    if check_climb {
        let climbs = tail(ac) > head(ac);
        checks.push(ShapeCheck::new(
            name,
            "actor-critic climbs during online learning",
            climbs,
        ));
    }
    checks.push(ShapeCheck::new(
        name,
        "actor-critic ends above dqn",
        tail(ac) > tail(dqn),
    ));
    emit_records(opts, name, &records, &checks);
}

/// Model-based vs actor-critic over `--minutes` (default 50) with the +50%
/// step at 40% of the run; compares the restabilized levels.
fn shift(opts: &RunOptions, name: &str) {
    let total_min = opts.minutes_or(50.0);
    let shift_min = total_min * 0.4; // 20 of 50 minutes
    let cluster = opts.cluster();
    let (mut records, mut checks) = (Vec::new(), Vec::new());
    for (sub, app, paper_mb, paper_ac) in FIG12 {
        let app = app();
        eprintln!("[{sub}] workload shift on {}", app.name);
        let mut curves = Vec::new();
        // Stable levels (before, after) the workload change, per method.
        let mut levels = Vec::new();
        for method in [Method::ModelBased, Method::ActorCritic] {
            let mut outcome = train_method(method, &app, &cluster, &opts.config);
            let curve = workload_shift_curve(
                &app,
                &cluster,
                &opts.config,
                &mut outcome,
                shift_min,
                total_min,
                30.0,
            );
            let window = |from: f64, to: f64| curve.window_mean(from, to).unwrap_or(f64::NAN);
            levels.push((
                window(shift_min * 60.0 * 0.6, shift_min * 60.0),
                window(total_min * 60.0 * 0.85, total_min * 60.0 + 1.0),
            ));
            curves.push((method.label(), curve));
        }
        let labelled: Vec<(&str, &TimeSeries)> = curves.iter().map(|(l, s)| (*l, s)).collect();
        emit_series(opts, sub, &labelled);

        let (mb, (ac_before, ac)) = (levels[0].1, levels[1]);
        records.push(ExperimentRecord::new(
            sub,
            "restabilized avg tuple time, model-based (ms)",
            Some(paper_mb),
            mb,
        ));
        records.push(ExperimentRecord::new(
            sub,
            "restabilized avg tuple time, actor-critic (ms)",
            Some(paper_ac),
            ac,
        ));
        checks.push(ShapeCheck::new(
            sub,
            "actor-critic restabilizes below model-based",
            ac < mb,
        ));
        checks.push(ShapeCheck::new(
            sub,
            "latency rises only modestly after +50% workload (actor-critic)",
            ac < ac_before * 1.6,
        ));
    }
    emit_records(opts, name, &records, &checks);
}
