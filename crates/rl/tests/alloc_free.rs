//! Counting-allocator proof that the act path and the train step are
//! allocation-free once warm.
//!
//! `DdpgAgent::select_action_among` is the one decision kernel: every
//! parallel-collector actor runs it with no extras
//! (`select_action_into`), the deployed scheduler with its elite memory
//! as extras. These tests wrap the global allocator in a counter, warm
//! the per-actor [`ActScratch`] (plus the mapper's k-best workspace and
//! the thread-local GEMM pack buffers), then assert that further
//! decisions perform **zero** heap allocations — so a regression that
//! reintroduces a per-step `Vec` or `clone` fails CI instead of silently
//! taxing every control epoch. `DdpgAgent::train_step` gets the same
//! treatment on a serial pool: its minibatch, supports and layer scratch
//! all live in the agent and are resized in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dss_rl::{ActScratch, ActionMapper, DdpgAgent, DdpgConfig, Elem, KBestMapper, Transition};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// System allocator wrapper counting the allocations/reallocations of a
/// thread that is measuring (deallocations are free to happen — dropping
/// nothing is the caller's concern, acquiring nothing is what we assert).
struct CountingAlloc;

thread_local! {
    /// This thread's count while it measures, `None` otherwise. Per
    /// thread, so the test harness's own bookkeeping on its main thread —
    /// which can land inside a measured window on a busy host — and the
    /// other test are not counted. The act path runs on the calling
    /// thread alone.
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

/// Warms a 6-thread × 4-machine decision at the default K —
/// representative of the collector's per-actor workload, with a state wide
/// enough that the actor/critic forwards run real GEMM tiles — then
/// counts allocations over 200 more decisions, each ranking `extras`
/// behind the K-NN candidates.
fn warm_decisions_allocate_nothing(extras: &[Vec<usize>]) {
    let (n, m) = (6usize, 4usize);
    let state_dim = n * m + 1;
    let agent = DdpgAgent::new(state_dim, n * m, DdpgConfig::default());
    let mut mapper = KBestMapper::new(n, m);
    let mut scratch = ActScratch::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = vec![0.0; state_dim];

    let mut step = |rng: &mut StdRng, state: &mut Vec<dss_rl::Elem>, scratch: &mut ActScratch| {
        for v in state.iter_mut() {
            *v = rng.random_range(0.0..1.0);
        }
        // eps = 1.0 keeps the exploration branch (the one that writes
        // noise through the proto buffer) on the measured path.
        let extras = extras.iter().map(Vec::as_slice);
        agent
            .select_action_among(state, &mut mapper, 1.0, rng, extras, scratch)
            .0
    };

    // Warm-up: fills the act scratch, the mapper's cost and k-best
    // workspaces, the critic-row matrix and the thread-local pack buffers.
    for _ in 0..32 {
        step(&mut rng, &mut state, &mut scratch);
    }

    ALLOCS.set(Some(0));
    let mut picked = 0usize;
    for _ in 0..200 {
        picked += step(&mut rng, &mut state, &mut scratch);
    }
    let allocs = ALLOCS.replace(None).expect("set above");

    // `picked` keeps the loop observable so nothing is optimized away.
    let ranked = agent.config().k + extras.len();
    assert!(picked < 200 * ranked, "sanity: indices in range");
    assert_eq!(
        allocs,
        0,
        "a warm decision over {} extras must not allocate (saw {allocs} allocations over 200 steps)",
        extras.len()
    );
}

/// The rollout worker's case: K-NN candidates only.
#[test]
fn warm_select_action_into_allocates_nothing() {
    warm_decisions_allocate_nothing(&[]);
}

/// The deployed scheduler's case: 12 remembered assignments compete.
#[test]
fn warm_decision_over_an_elite_memory_allocates_nothing() {
    let elites: Vec<Vec<usize>> = (0..12)
        .map(|e| (0..6).map(|i| (e + i) % 4).collect())
        .collect();
    warm_decisions_allocate_nothing(&elites);
}

/// The K-NN query's work depends on the proto: a row whose best column
/// leads by a wide enough gap is folded in place, any other row merges and
/// records deviations. Warm a mapper on protos where nearly every row is
/// of the first kind, then query protos where every row is of the second
/// (all costs tied, then uniformly random): the deviation storage was
/// reserved for the worst case up front, so nothing is acquired.
#[test]
fn warm_mapper_query_with_more_merged_rows_allocates_nothing() {
    let (n, m, k) = (40usize, 6usize, 8usize);
    let mut mapper = KBestMapper::new(n, m);
    let mut out = Vec::new();
    // Rows 0–1 lead by a cost gap of 1, the rest by 6: after two rows the
    // partial costs span at most 2, so rows 2.. never merge.
    let peaked: Vec<Elem> = (0..n * m)
        .map(|e| {
            let (i, j) = (e / m, e % m);
            match (j == i % m, i < 2) {
                (false, _) => 0.0,
                (true, true) => 0.5,
                (true, false) => 3.0,
            }
        })
        .collect();
    let tied: Vec<Elem> = vec![0.25; n * m];
    let mut rng = StdRng::seed_from_u64(3);
    let random: Vec<Elem> = (0..n * m).map(|_| rng.random_range(0.0..1.0)).collect();

    for _ in 0..4 {
        mapper.nearest_into(&peaked, k, &mut out);
    }
    assert_eq!(out.len(), k, "sanity: the warm-up filled every slot");
    ALLOCS.set(Some(0));
    for proto in [&tied, &random, &peaked, &tied] {
        mapper.nearest_into(proto, k, &mut out);
    }
    let allocs = ALLOCS.replace(None).expect("set above");
    assert_eq!(out.len(), k);
    assert_eq!(
        allocs, 0,
        "a warm K-NN query must not allocate (saw {allocs} allocations over 4 queries)"
    );
}

/// The learner's case: a warm `train_step` — minibatch assembly, the
/// support-driven target scoring, both dense updates and the soft target
/// updates — acquires nothing. Measured on a serial pool: handing bands
/// to pool workers queues boxed jobs, which is the pool's business.
#[test]
fn warm_train_step_allocates_nothing() {
    let (n, m) = (6usize, 4usize);
    let state_dim = n * m + 1;
    let mut agent = DdpgAgent::new(state_dim, n * m, DdpgConfig::default());
    let mut mapper = KBestMapper::new(n, m);
    let mut rng = StdRng::seed_from_u64(11);
    let control_state = |rng: &mut StdRng| {
        let mut state: Vec<Elem> = vec![0.0; state_dim];
        for i in 0..n {
            state[i * m + rng.random_range(0..m)] = 1.0;
        }
        state[n * m] = rng.random_range(0.1..1.0);
        state
    };
    for _ in 0..64 {
        let (state, next) = (control_state(&mut rng), control_state(&mut rng));
        let action = control_state(&mut rng)[..n * m].to_vec();
        let reward = rng.random_range(-3.0..-0.5);
        agent.store(Transition::new(state, action, reward, next));
    }

    let serial = std::sync::Arc::new(workpool::Pool::new(1));
    let (allocs, loss) = workpool::with_pool(serial, || {
        // Warm-up: sizes the minibatch matrices, every layer's scratch and
        // `Wᵀ` cache, the optimizer moments and the mapper workspaces.
        for _ in 0..8 {
            agent.train_step(&mut mapper, &mut rng);
        }
        ALLOCS.set(Some(0));
        let mut loss = 0.0;
        for _ in 0..50 {
            loss += agent
                .train_step(&mut mapper, &mut rng)
                .expect("replay filled");
        }
        (ALLOCS.replace(None).expect("set above"), loss)
    });
    assert!(loss.is_finite(), "sanity: the steps trained");
    assert_eq!(
        allocs, 0,
        "a warm train step must not allocate (saw {allocs} allocations over 50 steps)"
    );
}
