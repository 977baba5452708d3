//! Allocation regression suite: a counting global allocator pins the
//! inference hot path at **zero heap allocations** in steady state.
//!
//! The engine's throughput claim rests on fully-buffered, allocation-free
//! pipelines (the discipline of the FPGA dataflow it models): after one
//! warm-up round, `predict_probs_ws` and the MC round harness must run
//! entirely out of the [`Workspace`] pool, and `Supernet::fork` must be
//! O(layers) — a copy-on-write rewire, not a fresh He-initialised
//! parameter set.
//!
//! Everything runs inside **one** `#[test]` so no concurrent test thread
//! can pollute the counters, and `NDS_THREADS` is pinned to `1` before
//! the worker pool resolves so every measured chunk runs inline on this
//! thread. That covers the in-place serial path *and* — since the
//! engine's per-worker clone cache — the **parallel** code path: with an
//! explicit `workers = 4` split, the harness takes its cached-clone
//! parallel branch (chunk boundaries, per-worker nets and workspaces all
//! exercised), and after warm-up it too must stay off the allocator.
//! That split is pinned to round-major; a default-built engine (the
//! fused sample-major order) is held to zero allocations at one and
//! four workers as well.
//! Thread-pool dispatch itself is the one part serial execution cannot
//! measure; the `NDS_THREADS=4` CI leg runs the same suite for
//! correctness (byte identity), while the allocation counters stay
//! meaningful in this pinned-serial leg.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use neural_dropout_search::dropout::mc::{mc_sample_rounds_into, McCloneCache};
use neural_dropout_search::engine::{EngineBuilder, Execution, PredictRequest};
use neural_dropout_search::nn::train::predict_probs_ws;
use neural_dropout_search::nn::{zoo, Layer, Mode, NnError};
use neural_dropout_search::supernet::{Supernet, SupernetSpec};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, SharedTensor, Tensor, Workspace};

/// Pass-through allocator that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` with the counters armed, returning (allocations, bytes).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        out,
    )
}

fn lenet_supernet(seed: u64) -> Supernet {
    let spec = SupernetSpec::paper_default(zoo::lenet(), seed).unwrap();
    let mut net = Supernet::build(&spec).unwrap();
    net.set_config(&"BBB".parse().unwrap()).unwrap();
    net
}

#[test]
fn steady_state_inference_and_forking_stay_off_the_allocator() {
    // Pin the pool to serial before anything resolves NDS_THREADS: the
    // zero-allocation guarantee is for the in-place serial path.
    std::env::set_var("NDS_THREADS", "1");

    let mut supernet = lenet_supernet(42);
    let mut rng = Rng64::new(7);
    let images = Tensor::rand_normal(Shape::d4(8, 1, 28, 28), 0.0, 1.0, &mut rng);
    let mut ws = Workspace::new();

    // ------------------------------------------------------------------
    // predict_probs: zero allocations after one warm-up batch.
    // ------------------------------------------------------------------
    for _ in 0..2 {
        let probs =
            predict_probs_ws(supernet.net_mut(), &images, Mode::McInference, 4, &mut ws).unwrap();
        ws.recycle_tensor(probs);
    }
    let (allocs, bytes, probs) = count_allocs(|| {
        predict_probs_ws(supernet.net_mut(), &images, Mode::McInference, 4, &mut ws).unwrap()
    });
    assert_eq!(probs.shape(), &Shape::d2(8, 10));
    ws.recycle_tensor(probs);
    assert_eq!(
        allocs, 0,
        "steady-state predict_probs must not allocate ({allocs} allocations, {bytes} bytes)"
    );

    // Standard mode rides the same pooled path (warm its slightly
    // different buffer mix first — dropout copies instead of masking).
    for _ in 0..2 {
        let probs =
            predict_probs_ws(supernet.net_mut(), &images, Mode::Standard, 4, &mut ws).unwrap();
        ws.recycle_tensor(probs);
    }
    let (allocs, bytes, probs) = count_allocs(|| {
        predict_probs_ws(supernet.net_mut(), &images, Mode::Standard, 4, &mut ws).unwrap()
    });
    ws.recycle_tensor(probs);
    assert_eq!(
        allocs, 0,
        "steady-state Standard predict_probs must not allocate ({allocs} allocations, {bytes} bytes)"
    );

    // ------------------------------------------------------------------
    // MC round harness (serial, in place): zero allocations after one
    // warm-up round.
    // ------------------------------------------------------------------
    let pass_len = 8 * 10;
    let mut cache = McCloneCache::new();
    for _ in 0..2 {
        let mut slab = ws.take_dirty(3 * pass_len);
        mc_sample_rounds_into::<NnError>(
            supernet.net_mut(),
            3,
            1,
            0,
            &mut cache,
            &mut ws,
            pass_len,
            &mut slab,
            &|net, ws| predict_probs_ws(net, &images, Mode::McInference, 4, ws),
        )
        .unwrap();
        ws.recycle(slab);
    }
    let (allocs, bytes, slab) = count_allocs(|| {
        let mut slab = ws.take_dirty(3 * pass_len);
        mc_sample_rounds_into::<NnError>(
            supernet.net_mut(),
            3,
            1,
            0,
            &mut cache,
            &mut ws,
            pass_len,
            &mut slab,
            &|net, ws| predict_probs_ws(net, &images, Mode::McInference, 4, ws),
        )
        .unwrap();
        slab
    });
    assert_eq!(slab.len(), 3 * pass_len);
    ws.recycle(slab);
    assert_eq!(
        allocs, 0,
        "steady-state serial MC round must not allocate ({allocs} allocations, {bytes} bytes)"
    );

    // ------------------------------------------------------------------
    // Engine, parallel path: with an explicit 4-way worker split the
    // harness runs its parallel branch on the persistent clone cache —
    // after warm-up (cache built, per-worker workspaces warm), steady-
    // state rounds must perform zero heap allocations too. This is the
    // ROADMAP item PR 3 left open ("the parallel MC path still clones
    // the net per worker task").
    // ------------------------------------------------------------------
    let mut engine = EngineBuilder::new(supernet.net_mut().clone())
        .samples(3)
        .workers(4)
        .execution(Execution::RoundMajor)
        .chunk_size(4)
        .build();
    let request = PredictRequest::new(&images);
    for _ in 0..2 {
        let warm = engine.predict(&request).unwrap();
        engine.recycle(warm);
    }
    let (allocs, bytes, resp) = count_allocs(|| engine.predict(&request).unwrap());
    assert_eq!(resp.probs.shape(), &Shape::d2(8, 10));
    assert_eq!(resp.timing.workers, 4);
    engine.recycle(resp);
    assert_eq!(
        allocs, 0,
        "steady-state parallel engine predict must not allocate \
         ({allocs} allocations, {bytes} bytes)"
    );

    // ------------------------------------------------------------------
    // Engine, default order (sample-major): the fused walker and its
    // mask banks must be allocation-free in steady state too, whatever
    // worker split the engine was given.
    // ------------------------------------------------------------------
    for workers in [1usize, 4] {
        let mut engine = EngineBuilder::new(supernet.net_mut().clone())
            .samples(3)
            .workers(workers)
            .chunk_size(4)
            .build();
        assert_eq!(engine.execution(), Execution::SampleMajor);
        for _ in 0..3 {
            let warm = engine.predict(&request).unwrap();
            engine.recycle(warm);
        }
        let (allocs, bytes, resp) = count_allocs(|| engine.predict(&request).unwrap());
        assert_eq!(resp.probs.shape(), &Shape::d2(8, 10));
        engine.recycle(resp);
        assert_eq!(
            allocs, 0,
            "steady-state default-order engine predict ({workers} workers) must not \
             allocate ({allocs} allocations, {bytes} bytes)"
        );
    }

    // ------------------------------------------------------------------
    // Supernet::fork: O(layers), sharing every weight — no fresh
    // He-initialised parameter set.
    // ------------------------------------------------------------------
    let param_bytes: usize = supernet
        .net_mut()
        .params()
        .iter()
        .map(|p| p.value.len() * std::mem::size_of::<f32>())
        .sum();
    let (fork_allocs, fork_bytes, mut fork) = count_allocs(|| supernet.fork().unwrap());
    for (a, b) in supernet
        .net_mut()
        .params()
        .iter()
        .zip(fork.net_mut().params())
    {
        assert!(
            SharedTensor::ptr_eq(&a.value, &b.value),
            "fork must share weight storage"
        );
    }
    // LeNet's supernet is a few dozen layers (incl. 3 slots x 4 dropout
    // candidates); a copy-on-write fork costs a small, layer-proportional
    // number of allocations. The old rebuild path allocated (and He-
    // initialised) every parameter tensor — over a parameter-set of
    // bytes — so these bounds fail loudly if it ever comes back.
    assert!(
        fork_allocs < 400,
        "fork should be O(layers): {fork_allocs} allocations"
    );
    assert!(
        fork_bytes < param_bytes / 4,
        "fork allocated {fork_bytes} bytes vs {param_bytes} parameter bytes — \
         did it rebuild a parameter set?"
    );

    // The fork evaluates with the same bytes as the original (CoW share,
    // not a copy): one MC round each, identical sample slabs.
    let mc_round = |net: &mut neural_dropout_search::nn::layers::Sequential, ws: &mut Workspace| {
        let mut cache = McCloneCache::new();
        let mut slab = ws.take_dirty(3 * pass_len);
        mc_sample_rounds_into::<NnError>(
            net,
            3,
            1,
            0,
            &mut cache,
            ws,
            pass_len,
            &mut slab,
            &|net, ws| predict_probs_ws(net, &images, Mode::McInference, 4, ws),
        )
        .unwrap();
        slab
    };
    let a = mc_round(supernet.net_mut(), &mut ws);
    let mut fork_ws = Workspace::new();
    let b = mc_round(fork.net_mut(), &mut fork_ws);
    assert_eq!(a, b);
    ws.recycle(a);
    fork_ws.recycle(b);
}
