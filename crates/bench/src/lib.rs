//! Shared harness for the figure-regeneration binaries.
//!
//! The paper's evaluation figures come from one binary in `src/bin`
//! (`figures --fig 6|7|8|9|10|11|12|all`); `summary_table` and the
//! ablations have their own. All share the CLI conventions implemented
//! here:
//!
//! ```text
//! --preset <paper|fast|test>   training budget (default: fast)
//! --minutes <f64>              deployment-run length (default: the figure's)
//! --out <dir>                  CSV output directory (default: results/)
//! --seed <u64>                 master seed override
//! --fig <6..12|all>            figures to regenerate (`figures` only)
//! ```
//!
//! `fast` reproduces the paper's *shapes* in minutes; `paper` uses the
//! paper's full sample/epoch budgets (10,000 offline samples, 1,500–2,000
//! online epochs).

use std::ops::RangeInclusive;
use std::path::PathBuf;

use dss_core::ControlConfig;
use dss_metrics::{CsvWriter, ExperimentRecord, ShapeCheck, TimeSeries};
use dss_sim::ClusterSpec;

/// The paper figures `--fig` can select.
const FIGURES: RangeInclusive<u8> = 6..=12;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Training budget preset.
    pub config: ControlConfig,
    /// Optional run-length override (minutes).
    pub minutes: Option<f64>,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Preset name (for logging).
    pub preset: String,
    /// Figures selected by `--fig`, ascending; empty when the flag is absent.
    pub figs: Vec<u8>,
}

impl RunOptions {
    /// Parses `std::env::args`-style arguments.
    ///
    /// # Panics
    /// Panics (with a usage message) on malformed arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut preset = "fast".to_string();
        let mut minutes = None;
        let mut out_dir = PathBuf::from("results");
        let mut seed = None;
        let mut figs = Vec::new();
        let mut it = args.skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--preset" => preset = it.next().expect("--preset needs a value"),
                "--minutes" => {
                    minutes = Some(
                        it.next()
                            .expect("--minutes needs a value")
                            .parse()
                            .expect("--minutes must be a number"),
                    )
                }
                "--out" => out_dir = PathBuf::from(it.next().expect("--out needs a value")),
                "--seed" => {
                    seed = Some(
                        it.next()
                            .expect("--seed needs a value")
                            .parse()
                            .expect("--seed must be an integer"),
                    )
                }
                "--fig" => {
                    let fig = it.next().expect("--fig needs a value");
                    figs = match fig.as_str() {
                        "all" => FIGURES.collect(),
                        n => match n.parse() {
                            Ok(n) if FIGURES.contains(&n) => vec![n],
                            _ => panic!("unknown figure `{fig}` (6..12|all)"),
                        },
                    };
                }
                other => {
                    panic!("unknown flag `{other}`; expected --preset/--minutes/--out/--seed/--fig")
                }
            }
        }
        let mut config = match preset.as_str() {
            "paper" => ControlConfig::paper(),
            "fast" => ControlConfig::fast(),
            "test" => ControlConfig::test(),
            other => panic!("unknown preset `{other}` (paper|fast|test)"),
        };
        if let Some(s) = seed {
            config.seed = s;
        }
        Self {
            config,
            minutes,
            out_dir,
            preset,
            figs,
        }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args())
    }

    /// The paper's cluster: 10 worker machines.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::homogeneous(10)
    }

    /// Run length in minutes, with a figure-specific default.
    pub fn minutes_or(&self, default: f64) -> f64 {
        self.minutes.unwrap_or(default)
    }
}

/// Writes labelled series to `<out>/<name>.csv` and echoes them to stdout
/// in the same `t,label...` layout the paper's plots use.
pub fn emit_series(opts: &RunOptions, name: &str, labelled: &[(&str, &TimeSeries)]) {
    let path = opts.out_dir.join(format!("{name}.csv"));
    dss_metrics::csv::write_series_table(&path, labelled).expect("write CSV");
    println!("# wrote {}", path.display());
    let mut header = String::from("t");
    for (l, _) in labelled {
        header.push(',');
        header.push_str(l);
    }
    println!("{header}");
    let n = labelled[0].1.len();
    for i in 0..n {
        let mut row = format!("{}", labelled[0].1.times()[i]);
        for (_, s) in labelled {
            row.push_str(&format!(",{:.4}", s.values()[i]));
        }
        println!("{row}");
    }
}

/// Writes paper-vs-measured records and shape checks to
/// `<out>/<name>_records.csv` and prints the Markdown report.
pub fn emit_records(
    opts: &RunOptions,
    name: &str,
    records: &[ExperimentRecord],
    checks: &[ShapeCheck],
) {
    let mut w = CsvWriter::new(vec![
        "experiment".into(),
        "quantity".into(),
        "paper".into(),
        "measured".into(),
    ]);
    for r in records {
        w.text_row(&[
            &r.experiment,
            &r.quantity,
            &r.paper.map_or_else(String::new, |p| p.to_string()),
            &format!("{:.4}", r.measured),
        ]);
    }
    let path = opts.out_dir.join(format!("{name}_records.csv"));
    w.save(&path).expect("write records CSV");
    println!("# wrote {}", path.display());
    print!("{}", dss_metrics::summary::markdown_report(records, checks));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        std::iter::once("bin".to_string()).chain(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_defaults() {
        let o = RunOptions::parse(args(""));
        assert_eq!(o.preset, "fast");
        assert_eq!(
            o.config.offline_samples,
            ControlConfig::fast().offline_samples
        );
        assert_eq!(o.minutes_or(20.0), 20.0);
        assert_eq!(o.cluster().n_machines(), 10);
        assert!(o.figs.is_empty());
    }

    #[test]
    fn parses_overrides() {
        let o = RunOptions::parse(args("--preset test --minutes 5 --out /tmp/x --seed 9"));
        assert_eq!(
            o.config.offline_samples,
            ControlConfig::test().offline_samples
        );
        assert_eq!(o.config.seed, 9);
        assert_eq!(o.minutes_or(20.0), 5.0);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parses_figures() {
        for n in 6..=12u8 {
            assert_eq!(RunOptions::parse(args(&format!("--fig {n}"))).figs, [n]);
        }
        let all = RunOptions::parse(args("--preset test --fig all"));
        assert_eq!(all.figs, [6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "unknown figure `5`")]
    fn rejects_figure_outside_the_paper() {
        let _ = RunOptions::parse(args("--fig 5"));
    }

    #[test]
    #[should_panic(expected = "--fig needs a value")]
    fn rejects_fig_without_value() {
        let _ = RunOptions::parse(args("--preset test --fig"));
    }

    #[test]
    #[should_panic(expected = "unknown preset")]
    fn rejects_bad_preset() {
        let _ = RunOptions::parse(args("--preset huge"));
    }
}
