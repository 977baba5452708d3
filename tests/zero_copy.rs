//! Regression tests for zero-copy shared-weight inference.
//!
//! The Monte-Carlo engine and the population evaluator clone whole
//! networks per worker; since PR 2 those clones share the caller's
//! weights through copy-on-write [`SharedTensor`] storage. These tests
//! pin the sharing down with pointer identity and reference counts so a
//! future refactor cannot silently reintroduce per-worker weight copies
//! — and verify the flip side, that training a fork detaches its weights
//! instead of corrupting the original's.

use neural_dropout_search::engine::{EngineBuilder, Execution, PredictRequest};
use neural_dropout_search::nn::optim::Sgd;
use neural_dropout_search::nn::{zoo, Layer, Mode};
use neural_dropout_search::supernet::{Supernet, SupernetSpec};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, SharedTensor, Tensor};

fn lenet_supernet(seed: u64) -> Supernet {
    let spec = SupernetSpec::paper_default(zoo::lenet(), seed).unwrap();
    Supernet::build(&spec).unwrap()
}

#[test]
fn network_clones_share_every_weight_allocation() {
    let mut supernet = lenet_supernet(1);
    let net = supernet.net_mut();
    let clone = net.clone();
    let originals = net.params();
    let cloned = clone.params();
    assert_eq!(originals.len(), cloned.len());
    for (a, b) in originals.iter().zip(cloned.iter()) {
        assert!(
            SharedTensor::ptr_eq(&a.value, &b.value),
            "clone_box must share weight storage, not copy it"
        );
    }
}

#[test]
fn supernet_fork_shares_weights_without_copying() {
    let mut original = lenet_supernet(2);
    let baseline: Vec<usize> = original
        .net_mut()
        .params()
        .iter()
        .map(|p| p.value.strong_count())
        .collect();
    let mut fork = original.fork().unwrap();
    for ((a, b), &before) in original
        .net_mut()
        .params()
        .iter()
        .zip(fork.net_mut().params())
        .zip(baseline.iter())
    {
        assert!(
            SharedTensor::ptr_eq(&a.value, &b.value),
            "fork must share weight storage"
        );
        assert_eq!(
            a.value.strong_count(),
            before + 1,
            "fork adds exactly one handle per weight, no hidden copies"
        );
    }
}

#[test]
fn engine_rounds_leave_caller_weight_storage_untouched() {
    // The engine runs every pass on clones of its own clone of the
    // caller's network; with shared storage the caller's parameter
    // allocations must come back byte- and pointer-identical — proof
    // that no path wrote to (and therefore copy-on-write-detached) the
    // weights, and none were reallocated.
    let mut supernet = lenet_supernet(3);
    let before: Vec<SharedTensor> = supernet
        .net_mut()
        .params()
        .iter()
        .map(|p| p.value.clone())
        .collect();
    let mut rng = Rng64::new(4);
    let images = Tensor::rand_normal(Shape::d4(6, 1, 28, 28), 0.0, 1.0, &mut rng);
    let mut engine = EngineBuilder::new(supernet.net_mut().clone())
        .samples(4)
        .workers(3)
        .execution(Execution::RoundMajor)
        .chunk_size(3)
        .build();
    let response = engine.predict(&PredictRequest::new(&images)).unwrap();
    assert_eq!(response.achieved_samples, 4);
    drop(engine); // releases the engine's net plus its worker clone cache
    for (p, held) in supernet.net_mut().params().iter().zip(before.iter()) {
        assert!(
            SharedTensor::ptr_eq(&p.value, held),
            "an MC round must not detach or reallocate the caller's weights"
        );
        assert_eq!(
            p.value.strong_count(),
            2, // the param itself + the handle this test holds
            "engine and worker clones must all have been dropped without copying"
        );
    }
}

#[test]
fn training_after_fork_mutates_only_the_owners_weights() {
    let mut original = lenet_supernet(5);
    let mut fork = original.fork().unwrap();
    let frozen: Vec<Vec<f32>> = original
        .net_mut()
        .params()
        .iter()
        .map(|p| p.value.as_slice().to_vec())
        .collect();
    // One SGD step on the fork with a synthetic gradient.
    {
        let mut params = fork.net_mut().params_mut();
        for p in params.iter_mut() {
            p.grad = Tensor::full(p.value.shape().clone(), 1.0).into();
        }
        Sgd::new(0.1).step(&mut params);
    }
    // The fork's weights moved and detached; the original's did not move.
    for ((a, b), before) in original
        .net_mut()
        .params()
        .iter()
        .zip(fork.net_mut().params())
        .zip(frozen.iter())
    {
        assert!(
            !SharedTensor::ptr_eq(&a.value, &b.value),
            "the trained fork must own detached weight storage"
        );
        assert_eq!(
            a.value.as_slice(),
            before.as_slice(),
            "training the fork must not change the original's weights"
        );
        assert_ne!(
            b.value.as_slice(),
            before.as_slice(),
            "the fork's weights must actually have been updated"
        );
    }
    // And the detached fork still runs.
    let x = Tensor::zeros(Shape::d4(1, 1, 28, 28));
    let logits = fork.net_mut().forward(&x, Mode::Standard).unwrap();
    assert_eq!(logits.shape().dims(), &[1, 10]);
}

#[test]
fn shared_and_deep_copied_nets_predict_identical_bytes() {
    // The Arc-sharing path must be invisible to the numerics: a fork
    // (shared weights) and a manually deep-copied network produce the
    // same bytes from the same MC round.
    let mut original = lenet_supernet(6);
    let mut fork = original.fork().unwrap();
    let mut deep = lenet_supernet(6);
    let weights: Vec<Tensor> = original
        .net_mut()
        .params()
        .iter()
        .map(|p| (*p.value).clone()) // force a real copy through Deref
        .collect();
    for (dst, src) in deep.net_mut().params_mut().into_iter().zip(weights) {
        dst.value = src.into();
    }
    let mut rng = Rng64::new(7);
    let images = Tensor::rand_normal(Shape::d4(5, 1, 28, 28), 0.0, 1.0, &mut rng);
    let request = PredictRequest::new(&images);
    let mut shared_engine = EngineBuilder::new(fork.net_mut().clone())
        .samples(3)
        .chunk_size(2)
        .build();
    let mut deep_engine = EngineBuilder::new(deep.net_mut().clone())
        .samples(3)
        .chunk_size(2)
        .build();
    let shared_pred = shared_engine.predict(&request).unwrap();
    let deep_pred = deep_engine.predict(&request).unwrap();
    assert_eq!(shared_pred.probs.as_slice(), deep_pred.probs.as_slice());
}
