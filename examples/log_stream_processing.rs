//! The log stream processing workload (paper Figure 4): IIS-style log
//! lines flow through LogRules into parallel Indexer and Counter branches,
//! each ending in a database writer. Shows the two-branch tuple trees and
//! the acker semantics: a tuple is complete only when *both* branches
//! finish.
//!
//! ```sh
//! cargo run --release --example log_stream_processing
//! ```

use dsdps_drl::apps::datagen::LogLineGen;
use dsdps_drl::apps::log_stream;
use dsdps_drl::sim::{Assignment, ClusterSpec, SimConfig, SimEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Sample the synthetic IIS log stream.
    let gen = LogLineGen::new(50, 1.0);
    let mut rng = StdRng::seed_from_u64(9);
    println!("sample log lines:");
    for t in 0..3 {
        println!("  {}", gen.next_line(3600 + t * 17, &mut rng));
    }

    // Run the 100-executor topology for five simulated minutes.
    let app = log_stream();
    let cluster = ClusterSpec::homogeneous(10);
    let mut engine = SimEngine::new(
        app.topology.clone(),
        cluster.clone(),
        app.workload.clone(),
        SimConfig::steady_state(13),
    )
    .expect("valid app");
    engine
        .deploy(Assignment::round_robin(&app.topology, &cluster))
        .expect("deploys");
    engine.run_until(300.0);

    let (emitted, completed, failed, in_flight) = engine.tuple_counts();
    println!(
        "\nafter 5 simulated minutes at {} lines/s:",
        app.workload.total_rate()
    );
    println!(
        "  trees emitted {emitted}, completed {completed}, failed {failed}, in flight {in_flight}"
    );
    println!(
        "  avg end-to-end tuple processing time: {:.2} ms",
        engine.window_avg_latency_ms().unwrap_or(f64::NAN)
    );
    let stats = engine.stats();
    println!(
        "  busiest machine demand: {:.2} cores; cross-machine traffic {:.0} KiB/s total",
        stats.machine_cpu_cores.iter().cloned().fold(0.0, f64::max),
        stats.machine_cross_kib_s.iter().sum::<f64>()
    );
    println!(
        "\n(figure-quality comparison: cargo run --release -p dss-bench --bin figures -- --fig 8)"
    );
}
