//! The paper's continuous-queries workload end to end: generate the
//! in-memory vehicle table and speed queries, train all four schedulers at
//! small scale, and print the comparison (a miniature Figure 6a).
//!
//! ```sh
//! cargo run --release --example continuous_queries
//! ```

use dsdps_drl::apps::datagen::{QueryGen, VehicleDb};
use dsdps_drl::apps::{continuous_queries, CqScale};
use dsdps_drl::control::experiment::{deployment_curve, stable_ms, train_method, Method};
use dsdps_drl::control::ControlConfig;
use dsdps_drl::sim::ClusterSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The data the application processes: a synthetic vehicle table and
    // random speed queries (the simulator consumes their statistics; the
    // example shows the payloads the paper describes).
    let mut rng = StdRng::seed_from_u64(11);
    let db = VehicleDb::generate(1000, &mut rng);
    let queries = QueryGen::default();
    let threshold = queries.next_query(&mut rng);
    let hits = db.speeders(threshold).count();
    println!("vehicle table: {} rows", db.records().len());
    let sample = &db.records()[0];
    println!(
        "  e.g. plate {} owner {} ssn {} speed {:.0} mph",
        sample.plate, sample.owner, sample.ssn, sample.speed_mph
    );
    println!("query 'speed > {threshold:.0}' matches {hits} rows\n");

    // The scheduling experiment (small scale: 20 executors as in the paper).
    let app = continuous_queries(CqScale::Small);
    let cluster = ClusterSpec::homogeneous(10);
    let cfg = ControlConfig::test();
    println!("training 4 schedulers on {} ...", app.name);
    for method in Method::all() {
        let outcome = train_method(method, &app, &cluster, &cfg);
        let curve = deployment_curve(&app, &cluster, &cfg, &outcome.solution, 8.0, 30.0);
        println!(
            "  {:<14} stable {:.3} ms  (machines used: {})",
            outcome.method.label(),
            stable_ms(&curve),
            outcome.solution.machines_used()
        );
    }
    println!("\n(figure-quality runs: cargo run --release -p dss-bench --bin figures -- --fig 6)");
}
