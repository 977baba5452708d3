//! Fault-tolerance integration tests driven by the deterministic
//! [`neural_dropout_search::fault`] harness: injected worker panics,
//! worker deaths, NaN poisoning and slow passes must surface as *typed*
//! errors (or graceful degradation), never as process aborts, and the
//! pool/engine must keep serving byte-identical results afterwards.
//!
//! Fault plans are process-global, so every test takes the [`SERIAL`]
//! lock first — the harness documents this pattern.

use neural_dropout_search::adaptive::exits::attach_exit_heads;
use neural_dropout_search::adaptive::{AdaptivePolicy, ExitPolicy};
use neural_dropout_search::dropout::{DropoutKind, DropoutLayer, DropoutSettings};
use neural_dropout_search::engine::{
    Backend, EngineBuilder, EngineError, Execution, PredictRequest, SimPlatform,
};
use neural_dropout_search::fault::FaultPlan;
use neural_dropout_search::nn::arch::{FeatureShape, SlotInfo, SlotPosition};
use neural_dropout_search::nn::layers::{Flatten, Linear, Sequential};
use neural_dropout_search::quant::Q7_8;
use neural_dropout_search::serve::{ServeRequest, ServerBuilder, TenantSpec};
use neural_dropout_search::tensor::parallel::{
    pool_respawn_count, run_scoped_checked, worker_count,
};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock poisons it; the lock
    // only serialises, so recover and continue.
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A small net with a live Bernoulli dropout slot, so MC samples differ.
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

fn batch(seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng)
}

#[test]
fn pool_task_panic_becomes_a_typed_error_and_the_pool_survives() {
    let _serial = serial();
    let injected = FaultPlan::new(7).panic_on_pool_task(0).activate();
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
        .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
        .collect();
    let err = run_scoped_checked(tasks).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    drop(injected);
    // The pool keeps serving after the panic: every task of the next
    // batch runs exactly once.
    let done = AtomicUsize::new(0);
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
        .map(|_| {
            Box::new(|| {
                done.fetch_add(1, Ordering::SeqCst);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    run_scoped_checked(tasks).expect("pool serves after a task panic");
    assert_eq!(done.load(Ordering::SeqCst), 8);
}

#[test]
fn engine_surfaces_injected_pool_panics_as_transient_typed_errors() {
    let _serial = serial();
    let x = batch(2);
    let mut engine = EngineBuilder::new(stochastic_net(3))
        .samples(4)
        .workers(2)
        .execution(Execution::RoundMajor)
        .build();
    let injected = FaultPlan::new(11).panic_on_pool_task(0).activate();
    let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
    drop(injected);
    assert!(matches!(err, EngineError::Pool(_)), "{err}");
    assert!(err.is_transient(), "pool faults are retryable");
    assert!(err.to_string().contains("injected fault"), "{err}");
    // After the fault clears, the same engine serves the exact answer a
    // never-faulted engine would (worker clones may hold half-advanced
    // stochastic state after a mid-round abort, so rebuild them first).
    engine.invalidate_cache();
    let healed = engine.predict(&PredictRequest::new(&x)).unwrap();
    let mut clean = EngineBuilder::new(stochastic_net(3))
        .samples(4)
        .workers(2)
        .execution(Execution::RoundMajor)
        .build();
    let want = clean.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        healed.probs.as_slice(),
        want.probs.as_slice(),
        "a faulted engine must fully recover, byte for byte"
    );
}

#[test]
fn transient_retries_heal_one_shot_pool_faults_byte_identically() {
    let _serial = serial();
    let x = batch(4);
    let mut retrying = EngineBuilder::new(stochastic_net(5))
        .samples(4)
        .workers(2)
        .execution(Execution::RoundMajor)
        .transient_retries(2)
        .build();
    let injected = FaultPlan::new(13).panic_on_pool_task(0).activate();
    // The first attempt hits the (one-shot) injected panic; the retry
    // runs clean and the caller never sees the fault.
    let resp = retrying
        .predict(&PredictRequest::new(&x))
        .expect("transient retry heals a one-shot fault");
    drop(injected);
    assert_eq!(resp.achieved_samples, 4);
    assert!(!resp.degraded);
    let mut clean = EngineBuilder::new(stochastic_net(5))
        .samples(4)
        .workers(2)
        .execution(Execution::RoundMajor)
        .build();
    let want = clean.predict(&PredictRequest::new(&x)).unwrap();
    assert_eq!(
        resp.probs.as_slice(),
        want.probs.as_slice(),
        "a retried request must be byte-identical to a never-faulted one"
    );
}

#[test]
fn killed_workers_respawn_and_the_pool_keeps_serving() {
    let _serial = serial();
    if worker_count() <= 1 {
        // Serial pool: no worker threads exist to kill.
        return;
    }
    let before = pool_respawn_count();
    let injected = FaultPlan::new(17).kill_worker().activate();
    // Keep submitting batches until some worker wakes, dies on its tick
    // and is respawned. Every batch must still complete in full — the
    // submitter and surviving workers drain it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while pool_respawn_count() == before {
        assert!(
            Instant::now() < deadline,
            "no worker respawn observed before the deadline"
        );
        let done = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_scoped_checked(tasks).expect("a worker death must not fail the batch");
        assert_eq!(done.load(Ordering::SeqCst), 16, "every task still runs");
    }
    drop(injected);
    assert!(
        pool_respawn_count() > before,
        "the dead worker was replaced"
    );
}

#[test]
fn nan_poisoning_is_reported_as_non_finite_output_not_a_panic() {
    let _serial = serial();
    let x = batch(6);
    let hw_sim = Backend::HwSim(SimPlatform {
        name: "test-fpga".to_string(),
        format: Q7_8,
        latency_ms_per_image: 0.25,
    });
    for backend in [Backend::Float32, Backend::quantized_q78(), hw_sim] {
        for execution in [Execution::RoundMajor, Execution::SampleMajor] {
            // Layer 1 is the first Linear (the NaN must ride through
            // dropout, the second Linear and softmax); layer 3 is the
            // classifier. On the fixed-point datapaths the NaN must also
            // survive every quantise tap instead of rounding to 0.
            for layer in [1, 3] {
                let case = format!("{} {execution} layer {layer}", backend.label());
                let mut engine = EngineBuilder::new(stochastic_net(9))
                    .backend(backend.clone())
                    .execution(execution)
                    .samples(2)
                    .workers(1)
                    .build();
                let injected = FaultPlan::new(19).poison_layer(layer).activate();
                let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
                drop(injected);
                assert!(
                    matches!(err, EngineError::NonFiniteOutput { .. }),
                    "{case}: {err}"
                );
                assert!(!err.is_transient(), "data corruption is not retryable");
                // The engine stays serviceable once the fault clears.
                engine.invalidate_cache();
                let resp = engine
                    .predict(&PredictRequest::new(&x))
                    .expect("engine serves after a poisoned round");
                assert!(
                    resp.probs.as_slice().iter().all(|v| v.is_finite()),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn a_retried_exit_gated_request_counts_each_exit_once() {
    let _serial = serial();
    // An exit head after the first Linear (in-flow [rows, 12]); untrained,
    // so its calibrated confidence splits the rows between the head and
    // the final classifier.
    let mut net = stochastic_net(41);
    attach_exit_heads(
        &mut net,
        &Shape::d4(1, 1, 4, 4),
        &[2],
        4,
        &mut Rng64::new(43),
    )
    .unwrap();
    let x = Tensor::rand_normal(Shape::d4(6, 1, 4, 4), 0.0, 1.0, &mut Rng64::new(45));
    let engine = |retries: usize| {
        EngineBuilder::new(net.clone())
            .samples(4)
            .workers(2)
            .transient_retries(retries)
            .adaptive(AdaptivePolicy {
                escalation: None,
                exits: Some(ExitPolicy {
                    thresholds: vec![0.5],
                }),
            })
            .build()
    };
    let want = engine(0).predict(&PredictRequest::new(&x)).unwrap();
    let want_hist = want.exit_histogram.clone().expect("exit gate active");
    assert_eq!(
        want_hist.iter().sum::<usize>(),
        4 * 6,
        "one exit per (pass, row)"
    );
    assert!(
        want_hist.iter().all(|&c| c > 0),
        "the threshold splits the rows between the head and the classifier: {want_hist:?}"
    );
    // The second pool task dies once; the retry must start its tally
    // from zero, not on top of the passes the failed attempt finished.
    let injected = FaultPlan::new(47).panic_on_pool_task(1).activate();
    let got = engine(2)
        .predict(&PredictRequest::new(&x))
        .expect("transient retry heals a one-shot fault");
    drop(injected);
    assert_eq!(got.probs.as_slice(), want.probs.as_slice());
    assert_eq!(
        got.exit_histogram,
        Some(want_hist),
        "a retried request must report the histogram of one clean run"
    );
}

#[test]
fn slow_passes_degrade_sample_count_within_the_latency_budget() {
    let _serial = serial();
    let x = batch(8);
    let mut budgeted = EngineBuilder::new(stochastic_net(21))
        .samples(6)
        .workers(1)
        .build();
    // Each pass sleeps 60 ms against a 100 ms budget: after round 1 the
    // projection (>= 120 ms) busts the budget, so the engine serves a
    // degraded response instead of blowing the deadline.
    let injected = FaultPlan::new(23)
        .slow_pass(Duration::from_millis(60))
        .activate();
    let resp = budgeted
        .predict(&PredictRequest::new(&x).with_latency_budget(100.0))
        .expect("degradation is not an error");
    drop(injected);
    assert!(resp.degraded, "the budget must force degradation");
    assert!(
        resp.achieved_samples >= 1 && resp.achieved_samples < 6,
        "round granularity: at least one, fewer than requested (got {})",
        resp.achieved_samples
    );
    assert_eq!(resp.timing.samples, resp.achieved_samples);
    // The served prefix is byte-identical to an unbudgeted engine asked
    // for exactly that many samples: degradation changes how many
    // samples are averaged, never their bytes.
    let mut reference = EngineBuilder::new(stochastic_net(21))
        .samples(resp.achieved_samples)
        .workers(1)
        .build();
    let want = reference.predict(&PredictRequest::new(&x)).unwrap();
    assert!(!want.degraded);
    assert_eq!(
        resp.probs.as_slice(),
        want.probs.as_slice(),
        "degraded probabilities must equal the unbudgeted prefix"
    );
}

#[test]
fn a_backlog_behind_a_busy_dispatcher_leaves_in_one_wake_up() {
    let _serial = serial();
    // One engine worker, round-major: the three MC passes of a request
    // run in turn, so a slowed request keeps the dispatcher busy for
    // ~60 ms.
    let mut builder = ServerBuilder::new(stochastic_net(31))
        .workers(1)
        .execution(Execution::RoundMajor);
    let tenant = builder.tenant(TenantSpec::default());
    let server = builder.build();
    // Warm up before the plan arms, so the dispatcher is idle in its
    // loop (not prewarming) when the slow request arrives.
    server
        .submit(tenant, ServeRequest::new(batch(32)))
        .unwrap()
        .wait()
        .unwrap();
    let injected = FaultPlan::new(33)
        .slow_pass(Duration::from_millis(20))
        .activate();
    let busy = server.submit(tenant, ServeRequest::new(batch(34))).unwrap();
    // Let the dispatcher take the slow request; the next three queue
    // behind it and must go out together in the following wake-up.
    std::thread::sleep(Duration::from_millis(10));
    let backlog: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(tenant, ServeRequest::new(batch(35 + i)))
                .unwrap()
        })
        .collect();
    assert_eq!(busy.wait().unwrap().timing.batch_size, 1);
    for ticket in backlog {
        assert_eq!(ticket.wait().unwrap().timing.batch_size, 3);
    }
    drop(injected);
}
