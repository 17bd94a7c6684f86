//! Counting-allocator proof that a warm engine epoch allocates nothing.
//!
//! A decision epoch of the training backends is one
//! [`SimEngine::step_epoch`]: tens of thousands of events on the small
//! scenarios, millions at fleet scale. Once the engine is warm — its event
//! heap, executor queues, acker map and latency window have grown to the
//! load's working size — an epoch must run on the memory it already has.
//! This test wraps the global allocator in a counter, warms an engine at
//! the training configuration (warm-up inflation, migration pauses on
//! every redeploy, serialization pauses on every cross-machine send), then
//! asserts that further epochs perform **zero** heap allocations, so a
//! regression that reintroduces a per-event `Vec` or `clone` fails CI
//! instead of silently taxing every event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dss_sim::{
    Assignment, ClusterSpec, Grouping, MachineSpec, NetworkParams, SimConfig, SimEngine,
    TopologyBuilder, Workload,
};

/// System allocator wrapper counting the allocations/reallocations of a
/// thread that is measuring (deallocations are free to happen).
struct CountingAlloc;

thread_local! {
    /// This thread's count while it measures, `None` otherwise. Per
    /// thread, so the test harness's own bookkeeping on other threads is
    /// not counted; the engine runs on the calling thread alone.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(|n| n.replace(None)).expect("counting")
}

/// A continuous-queries-shaped pipeline with every grouping the engine
/// routes: shuffle into the query bolt, fields (Zipf keys) into the file
/// bolt, and an all-grouped audit copy — on a 2/4/4/6-core cluster.
fn engine(epoch_s: f64) -> SimEngine {
    let mut b = TopologyBuilder::new("alloc-free");
    let spout = b.spout("spout", 4, 0.04);
    let query = b.bolt("query", 8, 0.9);
    let file = b.bolt("file", 4, 0.45);
    let audit = b.bolt("audit", 2, 0.05);
    b.service_cv(query, 0.6);
    b.edge(spout, query, Grouping::Shuffle, 1.0, 96);
    b.edge(
        query,
        file,
        Grouping::Fields {
            n_keys: 256,
            skew: 1.1,
        },
        0.6,
        320,
    );
    b.edge(file, audit, Grouping::All, 0.2, 64);
    let topology = b.build().unwrap();
    let cluster = ClusterSpec {
        machines: [2usize, 4, 4, 6]
            .into_iter()
            .map(|cores| MachineSpec { cores, slots: 10 })
            .collect(),
        network: NetworkParams::default(),
    };
    let workload = Workload::uniform(&topology, 600.0);
    // The training backends' engine: window one epoch, pauses 5 % of it,
    // warm-up decaying within a quarter of it.
    let config = SimConfig {
        seed: 17,
        latency_window_s: epoch_s,
        migration_pause_s: 0.05 * epoch_s,
        warmup_tau_s: 0.25 * epoch_s,
        ..SimConfig::default()
    };
    SimEngine::new(topology, cluster, workload, config).unwrap()
}

/// Epochs run before counting starts.
const WARM_EPOCHS: usize = 120;

#[test]
fn warm_training_epochs_allocate_nothing() {
    let epoch_s = 10.0;
    let mut eng = engine(epoch_s);
    let home = Assignment::round_robin(eng.topology(), eng.cluster());
    // Every fourth executor one machine over: each redeploy between the
    // two pauses and re-warms a quarter of the topology.
    let mut away = home.clone();
    for e in (0..home.n_executors()).step_by(4) {
        away = away.with_move(e, (home.machine_of(e) + 1) % home.n_machines());
    }
    assert!(eng.config().warmup_amplitude > 0.0);
    assert!(eng.cluster().network.serialize_ms > 0.0);

    let redeploy = |eng: &mut SimEngine, epoch: usize| {
        let next = if epoch.is_multiple_of(2) {
            &home
        } else {
            &away
        };
        eng.deploy(next.clone()).unwrap();
    };
    // Warm-up grows every container to the load's working size. Growth is
    // rare but not over early: a queue that first holds five tuples
    // doubles its buffer once, possibly a hundred epochs in (this seed's
    // last growth is at epoch 97) — a one-off, not a per-event cost.
    for epoch in 0..WARM_EPOCHS {
        redeploy(&mut eng, epoch);
        assert!(eng.step_epoch(epoch_s).is_some());
    }

    for epoch in WARM_EPOCHS..WARM_EPOCHS + 8 {
        // The redeploy (an assignment diff) is the caller's; the epoch it
        // starts — migration pauses included — is the engine's.
        redeploy(&mut eng, epoch);
        let events_before = eng.events_processed();
        let mut latency = None;
        let allocs = count_allocs(|| latency = eng.step_epoch(epoch_s));
        assert!(latency.is_some());
        let events = eng.events_processed() - events_before;
        assert!(events > 10_000, "epoch {epoch} ran only {events} events");
        assert_eq!(
            allocs, 0,
            "epoch {epoch}: {allocs} allocations over {events} events"
        );
    }
    let (emitted, completed, failed, in_flight) = eng.tuple_counts();
    assert_eq!(failed, 0);
    assert_eq!(emitted, completed + in_flight as u64);
}
