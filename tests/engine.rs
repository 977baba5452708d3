//! `UncertaintyEngine` integration suite: the unified serving facade's
//! scheduling and caching can never change the bytes it serves.
//!
//! Four groups of guarantees, all **engine-vs-engine golden checks** (a
//! serial one-shot engine is the reference computation; the benches and
//! `perf_baseline` migrated off the deprecated free-function wrappers,
//! whose own byte-stability is pinned in their home crates):
//!
//! 1. **Worker splits** — any explicit worker split produces the same
//!    bytes as the serial reference engine (the CI `NDS_THREADS={1,4}`
//!    matrix re-runs this whole suite under both pool sizes, covering
//!    the pool dimension too).
//! 2. **Uncertainty diagnostics** — entropy / mutual information /
//!    variance are exactly equal across scheduling choices and obey
//!    their analytic invariants.
//! 3. **Chunked streaming** — property test: engine-chosen micro-batch
//!    execution is byte-identical to one-shot execution across ragged
//!    batch sizes, all three backends, and worker counts.
//! 4. **Clone-cache staleness** — weight mutations (copy-on-write
//!    detach), batch-norm running-stat updates and structural surgery
//!    (push or same-count swap, via the `Sequential` structural epoch)
//!    all invalidate the persistent worker clones, so cached parallel
//!    rounds can never serve stale state.

use neural_dropout_search::dropout::{DropoutKind, DropoutLayer, DropoutSettings};
use neural_dropout_search::engine::{
    Backend, EngineBuilder, Execution, PredictRequest, SimPlatform, UncertaintyEngine,
    UncertaintyFlags,
};
use neural_dropout_search::hw::simulator::quantize_network;
use neural_dropout_search::nn::arch::{FeatureShape, SlotInfo, SlotPosition};
use neural_dropout_search::nn::layers::{BatchNorm2d, Flatten, Linear, Sequential};
use neural_dropout_search::nn::Layer;
use neural_dropout_search::quant::Q7_8;
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, Tensor};
use proptest::prelude::*;

/// A small stochastic net: Flatten → Linear → Bernoulli dropout → Linear.
fn stochastic_net(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    let mut net = Sequential::new();
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(16, 12, true, &mut rng)));
    let slot = SlotInfo {
        id: 0,
        shape: FeatureShape::Vector { features: 12 },
        position: SlotPosition::FullyConnected,
    };
    net.push(Box::new(
        DropoutLayer::for_slot(
            DropoutKind::Bernoulli,
            &slot,
            &DropoutSettings {
                rate: 0.5,
                ..DropoutSettings::default()
            },
            seed,
        )
        .unwrap(),
    ));
    net.push(Box::new(Linear::new(12, 4, true, &mut rng)));
    net
}

/// Same net with a batch-norm in front — running statistics are the one
/// piece of inference state pointer identity cannot fingerprint.
fn bn_net(seed: u64) -> Sequential {
    let mut inner = stochastic_net(seed);
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(BatchNorm2d::new(1))];
    for layer in inner.layers_mut() {
        layers.push(layer.clone_box());
    }
    layers.into_iter().collect()
}

fn images(seed: u64, n: usize) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_normal(Shape::d4(n, 1, 4, 4), 0.0, 1.0, &mut rng)
}

#[test]
fn engine_float_backend_worker_splits_are_byte_identical() {
    let x = images(2, 5);
    // Golden reference: serial one-shot execution of the same network.
    let mut reference = EngineBuilder::new(stochastic_net(1))
        .samples(4)
        .workers(1)
        .execution(Execution::RoundMajor)
        .chunk_size(5)
        .build();
    let expect = reference.predict(&PredictRequest::new(&x)).unwrap();
    for workers in [2, 4, 8] {
        let mut engine = EngineBuilder::new(stochastic_net(1))
            .samples(4)
            .workers(workers)
            .execution(Execution::RoundMajor)
            .chunk_size(2)
            .build();
        let resp = engine.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(
            expect.probs.as_slice(),
            resp.probs.as_slice(),
            "parallel engine diverged from the serial reference at {workers} workers"
        );
    }
}

#[test]
fn engine_uncertainty_outputs_are_schedule_invariant_and_consistent() {
    let x = images(4, 6);
    // Golden reference: serial one-shot; candidate: parallel + chunked.
    let mut reference = EngineBuilder::new(stochastic_net(3))
        .samples(5)
        .workers(1)
        .execution(Execution::RoundMajor)
        .chunk_size(6)
        .build();
    let expect = reference
        .predict(&PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL))
        .unwrap();
    let mut engine = EngineBuilder::new(stochastic_net(3))
        .samples(5)
        .workers(4)
        .execution(Execution::RoundMajor)
        .chunk_size(2)
        .build();
    let resp = engine
        .predict(&PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL))
        .unwrap();
    assert_eq!(expect.probs.as_slice(), resp.probs.as_slice());
    assert_eq!(
        expect.entropy, resp.entropy,
        "entropy must be exactly schedule-invariant"
    );
    assert_eq!(
        expect.mutual_information, resp.mutual_information,
        "mutual information must be exactly schedule-invariant"
    );
    assert_eq!(
        expect.variance, resp.variance,
        "variance must be exactly schedule-invariant"
    );
    // Analytic invariants: all diagnostics non-negative, and mutual
    // information (epistemic part) can never exceed total entropy.
    let entropy = resp.entropy.unwrap();
    let mi = resp.mutual_information.unwrap();
    let variance = resp.variance.unwrap();
    for i in 0..entropy.len() {
        assert!(entropy[i] >= 0.0);
        assert!((0.0..=entropy[i] + 1e-12).contains(&mi[i]));
        assert!(variance[i] >= 0.0);
    }
}

#[test]
fn engine_quantized_backend_worker_splits_are_byte_identical() {
    let x = images(6, 5);
    let quantized_engine = |workers: usize, chunk: usize| {
        let mut net = stochastic_net(5);
        quantize_network(&mut net, Q7_8);
        EngineBuilder::new(net)
            .backend(Backend::quantized_q78())
            .samples(3)
            .workers(workers)
            .execution(Execution::RoundMajor)
            .chunk_size(chunk)
            .build()
    };
    let expect = quantized_engine(1, 5)
        .predict(&PredictRequest::new(&x))
        .unwrap();
    for workers in [3, 4] {
        let resp = quantized_engine(workers, 2)
            .predict(&PredictRequest::new(&x))
            .unwrap();
        assert_eq!(
            expect.probs.as_slice(),
            resp.probs.as_slice(),
            "quantized engine diverged from the serial reference at {workers} workers"
        );
    }
}

#[test]
fn hw_sim_backend_matches_quantized_bytes_and_adds_timing() {
    let x = images(8, 4);
    let mut quantized = EngineBuilder::new(stochastic_net(7))
        .backend(Backend::quantized_q78())
        .samples(3)
        .build();
    let mut hw_sim = EngineBuilder::new(stochastic_net(7))
        .backend(Backend::HwSim(SimPlatform {
            name: "XCKU115 (modelled)".to_string(),
            format: Q7_8,
            latency_ms_per_image: 0.905,
        }))
        .samples(3)
        .build();
    let q = quantized.predict(&PredictRequest::new(&x)).unwrap();
    let h = hw_sim.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        q.probs.as_slice(),
        h.probs.as_slice(),
        "hw-sim must compute through the same datapath as quantized"
    );
    assert_eq!(q.timing.modelled_latency_ms, None);
    let modelled = h.timing.modelled_latency_ms.unwrap();
    assert!((modelled - 4.0 * 0.905).abs() < 1e-12);
    assert_eq!(h.timing.backend, "hw-sim");
}

#[test]
fn weight_mutation_invalidates_cached_parallel_clones() {
    // Populate the clone cache with a parallel round, mutate the weights
    // (copy-on-write detach), and check the next parallel round equals a
    // fresh engine's serial answer — i.e. the cache rebuilt instead of
    // serving the pre-mutation weights.
    let x = images(10, 4);
    let mut engine = EngineBuilder::new(stochastic_net(9))
        .samples(4)
        .workers(4)
        .execution(Execution::RoundMajor)
        .build();
    let before = engine.predict(&PredictRequest::new(&x)).unwrap();
    for param in engine.net_mut().params_mut() {
        param.value.map_inplace(|v| v * 1.5);
    }
    let after = engine.predict(&PredictRequest::new(&x)).unwrap();
    assert_ne!(
        before.probs.as_slice(),
        after.probs.as_slice(),
        "scaled weights must change the prediction"
    );
    let mut fresh_net = stochastic_net(9);
    for param in fresh_net.params_mut() {
        param.value.map_inplace(|v| v * 1.5);
    }
    let mut fresh = EngineBuilder::new(fresh_net).samples(4).workers(1).build();
    let expect = fresh.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        expect.probs.as_slice(),
        after.probs.as_slice(),
        "cached parallel round must equal a fresh serial computation"
    );
}

#[test]
fn layer_push_invalidates_cached_parallel_clones() {
    // Pushing a parameterless layer changes neither weight pointers nor
    // batch-norm epochs; the top-level layer-count fingerprint must
    // still invalidate the cached clones.
    use neural_dropout_search::nn::layers::Relu;
    let x = images(14, 4);
    let mut engine = EngineBuilder::new(stochastic_net(13))
        .samples(4)
        .workers(4)
        .execution(Execution::RoundMajor)
        .build();
    let before = engine.predict(&PredictRequest::new(&x)).unwrap();
    engine.net_mut().push(Box::new(Relu::new()));
    let after = engine.predict(&PredictRequest::new(&x)).unwrap();
    assert_ne!(
        before.probs.as_slice(),
        after.probs.as_slice(),
        "a ReLU on the logits must change the softmax"
    );
    let mut fresh_net = stochastic_net(13);
    fresh_net.push(Box::new(Relu::new()));
    let mut fresh = EngineBuilder::new(fresh_net).samples(4).workers(1).build();
    let expect = fresh.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        expect.probs.as_slice(),
        after.probs.as_slice(),
        "cached clones must not serve the pre-surgery architecture"
    );
}

#[test]
fn same_count_layer_swap_invalidates_cached_parallel_clones() {
    // Replacing one parameterless layer with another keeps the layer
    // count, every weight pointer and every batch-norm epoch identical —
    // historically the one edit that required a manual
    // `invalidate_cache`. The `Sequential` structural epoch (bumped by
    // the `layers_mut` borrow) must now catch it automatically.
    use neural_dropout_search::nn::layers::{Identity, Relu};
    let x = images(16, 4);
    let with_tail = |tail: Box<dyn Layer>| -> Sequential {
        let mut net = stochastic_net(15);
        net.push(tail);
        net
    };
    let mut engine = EngineBuilder::new(with_tail(Box::new(Relu::new())))
        .samples(4)
        .workers(4)
        .execution(Execution::RoundMajor)
        .build();
    let before = engine.predict(&PredictRequest::new(&x)).unwrap();
    let last = engine.net_mut().len() - 1;
    engine.net_mut().layers_mut()[last] = Box::new(Identity::new());
    let after = engine.predict(&PredictRequest::new(&x)).unwrap();
    assert_ne!(
        before.probs.as_slice(),
        after.probs.as_slice(),
        "dropping the logits ReLU must change the softmax"
    );
    let mut fresh = EngineBuilder::new(with_tail(Box::new(Identity::new())))
        .samples(4)
        .workers(1)
        .build();
    let expect = fresh.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        expect.probs.as_slice(),
        after.probs.as_slice(),
        "cached clones must not survive a same-count layer swap"
    );
}

#[test]
fn batch_norm_stat_update_invalidates_cached_parallel_clones() {
    // Batch-norm running stats are plain vectors — invisible to weight
    // pointer identity. The stats-epoch fingerprint must catch the
    // update and rebuild the cached clones.
    let x = images(12, 4);
    let mut engine = EngineBuilder::new(bn_net(11))
        .samples(4)
        .workers(4)
        .execution(Execution::RoundMajor)
        .build();
    let before = engine.predict(&PredictRequest::new(&x)).unwrap();
    let shift = |net: &mut Sequential| {
        net.visit_batch_norms(&mut |bn| {
            let mean: Vec<f32> = bn.running_mean().iter().map(|m| m + 0.75).collect();
            let var: Vec<f32> = bn.running_var().iter().map(|v| v * 2.0).collect();
            bn.set_running_stats(&mean, &var);
        });
    };
    shift(engine.net_mut());
    let after = engine.predict(&PredictRequest::new(&x)).unwrap();
    assert_ne!(
        before.probs.as_slice(),
        after.probs.as_slice(),
        "shifted running stats must change the prediction"
    );
    let mut fresh_net = bn_net(11);
    shift(&mut fresh_net);
    let mut fresh = EngineBuilder::new(fresh_net).samples(4).workers(1).build();
    let expect = fresh.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        expect.probs.as_slice(),
        after.probs.as_slice(),
        "stale batch-norm clones must not survive in the cache"
    );
}

/// One-shot reference vs chunked/parallel execution for a given backend.
fn engine_for(
    backend: &Backend,
    seed: u64,
    samples: usize,
    workers: usize,
    chunk: usize,
) -> UncertaintyEngine {
    let mut net = stochastic_net(seed);
    if !matches!(backend, Backend::Float32) {
        quantize_network(&mut net, Q7_8);
    }
    EngineBuilder::new(net)
        .backend(backend.clone())
        .samples(samples)
        .workers(workers)
        .execution(Execution::RoundMajor)
        .chunk_size(chunk)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunked/streaming execution is byte-identical to one-shot
    /// execution across ragged batch sizes, all three backends, and
    /// worker counts — the engine's streaming contract.
    #[test]
    fn chunked_streaming_is_byte_identical_to_one_shot(
        seed in 0u64..200,
        n in 1usize..9,
        chunk in 1usize..10,
        samples in 1usize..5,
        workers in 1usize..5,
        backend_ix in 0usize..3,
    ) {
        let backend = match backend_ix {
            0 => Backend::Float32,
            1 => Backend::quantized_q78(),
            _ => Backend::HwSim(SimPlatform {
                name: "prop".to_string(),
                format: Q7_8,
                latency_ms_per_image: 1.0,
            }),
        };
        let x = images(seed ^ 0xC0FFEE, n);
        // One-shot: the whole batch in a single micro-batch, serial.
        let mut reference = engine_for(&backend, seed, samples, 1, n);
        let expect = reference.predict(&PredictRequest::new(&x)).unwrap();
        // Chunked + parallel: engine-chosen micro-batches, worker split.
        let mut streamed = engine_for(&backend, seed, samples, workers, chunk);
        let got = streamed.predict(&PredictRequest::new(&x)).unwrap();
        prop_assert_eq!(
            expect.probs.as_slice(),
            got.probs.as_slice(),
            "backend {} diverged (n={}, chunk={}, workers={})",
            backend.label(), n, chunk, workers
        );
        // A second round through the (now warm) caches: same bytes.
        let again = streamed.predict(&PredictRequest::new(&x)).unwrap();
        prop_assert_eq!(expect.probs.as_slice(), again.probs.as_slice());
    }
}
