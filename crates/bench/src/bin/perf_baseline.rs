//! Emits `BENCH_inference.json` — the inference-engine perf baseline.
//!
//! Times the kernels the high-throughput inference engine optimises
//! (blocked/parallel matmul, fused transposed matmul, gemm-lowered
//! conv2d, end-to-end MC-dropout prediction at LeNet and ResNet scale)
//! against the retained naive reference kernels, and writes the numbers
//! as JSON at the workspace root so future PRs can track the perf
//! trajectory.
//!
//! Run with: `cargo run --release -p nds-bench --bin perf_baseline`
//!
//! Pass `--smoke` for the CI smoke mode: the same code paths at tiny
//! shapes with minimal repetitions, printing the JSON without touching
//! `BENCH_inference.json`. It exists so the bench binary is exercised
//! (and fails on panic) in every CI leg, keeping this code from
//! bit-rotting between perf-focused PRs.
//!
//! Pass `--execution <round-major|sample-major>` to run the
//! engine-served rows under that MC execution order (default
//! sample-major; bytes are identical, only the schedule differs); the
//! JSON records it as `execution`. Two kinds of row ignore it. The
//! `mc_predict_*` rows always run round-major, because their serial vs
//! pool-wide `speedup` measures the engine's worker split, which only
//! round-major uses. The dedicated `mask_bank_lenet_s3` row always
//! measures *both* orders head-to-head — serial round-major vs the
//! fused sample-major path — and asserts their byte identity before
//! timing.
//!
//! The `mc_predict_*` rows keep their historical names (the PR 1-3
//! trajectory series) but measure through the `UncertaintyEngine` since
//! the deprecated free-function wrappers were retired from the benches:
//! the engine runs the identical MC harness (byte-identical output) with
//! its persistent clone cache. The `search_smoke` row times the
//! `SearchSession` end to end (tiny supernet, 2 generations).

use nds_adaptive::{AdaptivePolicy, EscalationPolicy, GateMetric};
use nds_campaign::{island_seed, Campaign};
use nds_engine::{Backend, EngineBuilder, Execution, PredictRequest, UncertaintyEngine};
use nds_metrics::{accuracy, ece, escalation_rate, EceConfig};
use nds_search::{EvolutionConfig, SearchBuilder, Strategy};
use nds_serve::{ServeRequest, ServerBuilder, TenantSpec};
use nds_supernet::{Supernet, SupernetSpec};
use nds_tensor::conv::{conv2d_direct, conv2d_ws, ConvGeometry};
use nds_tensor::parallel::worker_count;
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call over `reps` calls, after one warm-up call.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn main() {
    // Smoke mode: same code paths, tiny shapes, no baseline-file write —
    // CI runs this in every NDS_THREADS leg so the bench cannot rot.
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    // Execution order for the engine-served rows; the mc_predict rows
    // pin round-major and the mask_bank row measures both orders.
    let execution: Execution = argv
        .iter()
        .position(|a| a == "--execution")
        .and_then(|i| argv.get(i + 1))
        .map(|v| {
            v.parse()
                .expect("--execution is round-major or sample-major")
        })
        .unwrap_or_default();
    let workers = worker_count();
    let mut rng = Rng64::new(1);
    let (mm_dim, reps) = if smoke { (48, 3) } else { (256, 15) };
    let a = Tensor::rand_normal(Shape::d2(mm_dim, mm_dim), 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(Shape::d2(mm_dim, mm_dim), 0.0, 1.0, &mut rng);
    let bt = b.transpose().unwrap();

    let naive = time_median(reps, || a.matmul_naive(&b).unwrap());
    let blocked = time_median(reps, || a.matmul(&b).unwrap());
    let transb = time_median(reps, || a.matmul_transb(&bt).unwrap());

    // Gemm-lowered conv2d at ResNet-block scale (64 -> 64 channels,
    // 3x3/s1p1 over 16x16 maps, batch 4) against the direct oracle.
    let (conv_c, conv_hw, conv_n) = if smoke { (8, 8, 1) } else { (64, 16, 4) };
    let conv_input = Tensor::rand_normal(
        Shape::d4(conv_n, conv_c, conv_hw, conv_hw),
        0.0,
        1.0,
        &mut rng,
    );
    let conv_weight = Tensor::rand_normal(Shape::d4(conv_c, conv_c, 3, 3), 0.0, 0.1, &mut rng);
    let conv_bias = Tensor::rand_normal(Shape::d1(conv_c), 0.0, 0.1, &mut rng);
    let g = ConvGeometry::new(3, 1, 1);
    let mut conv_ws = Workspace::new();
    let conv_direct = time_median(if smoke { 2 } else { 5 }, || {
        conv2d_direct(&conv_input, &conv_weight, Some(&conv_bias), g).unwrap()
    });
    let conv_gemm = time_median(reps, || {
        conv2d_ws(&conv_input, &conv_weight, Some(&conv_bias), g, &mut conv_ws).unwrap()
    });

    let spec = SupernetSpec::paper_default(nds_nn::zoo::lenet(), 6).expect("valid spec");
    let mut supernet = Supernet::build(&spec).expect("builds");
    supernet
        .set_config(&"BBB".parse().expect("valid"))
        .expect("in space");
    let (mc_batch, mc_samples) = if smoke { (4, 2) } else { (32, 3) };
    let images = Tensor::rand_normal(Shape::d4(mc_batch, 1, 28, 28), 0.0, 1.0, &mut rng);
    // Engine-served MC prediction at an explicit serial vs pool-wide
    // worker split (byte-identical outputs; only scheduling differs).
    // Round-major whatever `--execution` says: the fused sample-major
    // walk ignores `workers`, so it would time one path twice.
    let mc_engine = |net: &Supernet, w: usize, chunk: usize| -> UncertaintyEngine {
        EngineBuilder::new(net.net().clone())
            .samples(mc_samples)
            .workers(w)
            .chunk_size(chunk)
            .execution(Execution::RoundMajor)
            .build()
    };
    let time_engine = |engine: &mut UncertaintyEngine, images: &Tensor, reps: usize| {
        time_median(reps, || {
            let resp = engine.predict(&PredictRequest::new(images)).unwrap();
            engine.recycle(resp);
        })
    };
    let mut serial_engine = mc_engine(&supernet, 1, mc_batch);
    let mut parallel_engine = mc_engine(&supernet, workers, mc_batch);
    let mc_serial = time_engine(&mut serial_engine, &images, if smoke { 2 } else { 5 });
    let mc_parallel = time_engine(&mut parallel_engine, &images, if smoke { 2 } else { 5 });

    // ------------------------------------------------------------------
    // Sample-major fused MC (PR 8): serial round-major S passes vs one
    // fused (S·B)-row pass per layer with the precomputed mask bank.
    // Both engines run serial workers on the same chunking, so the gap
    // is purely the execution order (batched gemm efficiency + the
    // cached mask bank). Byte identity is asserted before timing — the
    // row is meaningless if the fused path changed the bytes.
    // ------------------------------------------------------------------
    let order_engine = |net: &Supernet, order: Execution| -> UncertaintyEngine {
        EngineBuilder::new(net.net().clone())
            .samples(mc_samples)
            .workers(1)
            .chunk_size(mc_batch)
            .execution(order)
            .build()
    };
    let mut bank_round_engine = order_engine(&supernet, Execution::RoundMajor);
    let mut bank_fused_engine = order_engine(&supernet, Execution::SampleMajor);
    {
        let round = bank_round_engine
            .predict(&PredictRequest::new(&images))
            .unwrap();
        let fused = bank_fused_engine
            .predict(&PredictRequest::new(&images))
            .unwrap();
        assert_eq!(
            round.probs.as_slice(),
            fused.probs.as_slice(),
            "sample-major must be byte-identical to round-major"
        );
        bank_round_engine.recycle(round);
        bank_fused_engine.recycle(fused);
    }
    let bank_round = time_engine(&mut bank_round_engine, &images, if smoke { 2 } else { 5 });
    let bank_fused = time_engine(&mut bank_fused_engine, &images, if smoke { 2 } else { 5 });

    // ResNet-scale MC prediction: width-8 ResNet18 supernet over
    // CIFAR-shaped inputs — the configuration the zero-copy weight
    // sharing and the gemm-lowered conv path are aimed at. Smoke mode
    // shrinks the width and batch but still walks the full residual
    // topology (batch-norm, shortcuts, all four slots).
    let (resnet_width, resnet_batch) = if smoke { (2, 2) } else { (8, 16) };
    let resnet_spec =
        SupernetSpec::paper_default(nds_nn::zoo::resnet18(resnet_width), 7).expect("valid spec");
    let mut resnet = Supernet::build(&resnet_spec).expect("builds");
    resnet
        .set_config(&"BBBB".parse().expect("valid"))
        .expect("in space");
    let cifar = Tensor::rand_normal(Shape::d4(resnet_batch, 3, 32, 32), 0.0, 1.0, &mut rng);
    let mut resnet_serial_engine = mc_engine(&resnet, 1, resnet_batch);
    let mut resnet_parallel_engine = mc_engine(&resnet, workers, resnet_batch);
    let resnet_serial = time_engine(&mut resnet_serial_engine, &cifar, if smoke { 2 } else { 3 });
    let resnet_parallel = time_engine(
        &mut resnet_parallel_engine,
        &cifar,
        if smoke { 2 } else { 3 },
    );

    // ------------------------------------------------------------------
    // Engine throughput: the unified serving facade end to end, per
    // backend, at a small and a large request batch. The float backend
    // runs the same passes as mc_predict (plus the persistent clone
    // cache); the quantized backend adds the fake-quantisation of every
    // inter-layer activation.
    // ------------------------------------------------------------------
    let (eng_small, eng_large) = if smoke { (4, 8) } else { (32, 256) };
    let small_images = Tensor::rand_normal(Shape::d4(eng_small, 1, 28, 28), 0.0, 1.0, &mut rng);
    let large_images = Tensor::rand_normal(Shape::d4(eng_large, 1, 28, 28), 0.0, 1.0, &mut rng);
    let mut engine_ips = |backend: Backend| -> (f64, f64) {
        let mut engine = EngineBuilder::new(supernet.net_mut().clone())
            .backend(backend)
            .samples(mc_samples)
            .execution(execution)
            .build();
        let mut ips = |images: &Tensor, batch: usize| {
            let secs = time_median(if smoke { 2 } else { 5 }, || {
                let resp = engine.predict(&PredictRequest::new(images)).unwrap();
                engine.recycle(resp);
            });
            batch as f64 / secs
        };
        (ips(&small_images, eng_small), ips(&large_images, eng_large))
    };
    let (float_small_ips, float_large_ips) = engine_ips(Backend::Float32);
    let (quant_small_ips, quant_large_ips) = engine_ips(Backend::quantized_q78());

    // ------------------------------------------------------------------
    // Deadline-aware degradation: the float engine against a latency
    // budget of roughly half its unbudgeted p50, serial workers (the
    // budgeted path runs rounds serially). Reports how many MC samples
    // the engine got inside the budget and the resulting p50 — the cost
    // model for trading samples against tail latency.
    // ------------------------------------------------------------------
    let deg_samples = if smoke { 4 } else { 8 };
    let mut deg_engine = EngineBuilder::new(supernet.net_mut().clone())
        .samples(deg_samples)
        .workers(1)
        .build();
    let deg_full_secs = time_median(if smoke { 2 } else { 5 }, || {
        let resp = deg_engine
            .predict(&PredictRequest::new(&small_images))
            .unwrap();
        deg_engine.recycle(resp);
    });
    let deg_budget_ms = (deg_full_secs * 1e3 / 2.0).max(0.01);
    let mut deg_achieved = deg_samples;
    let mut deg_degraded = false;
    let deg_budgeted_secs = time_median(if smoke { 2 } else { 5 }, || {
        let resp = deg_engine
            .predict(&PredictRequest::new(&small_images).with_latency_budget(deg_budget_ms))
            .unwrap();
        deg_achieved = resp.achieved_samples;
        deg_degraded = resp.degraded;
        deg_engine.recycle(resp);
    });

    // ------------------------------------------------------------------
    // Uncertainty-gated sample escalation: a pilot S=1 entropy gate in
    // front of the full S=3 budget, on labelled MNIST-like validation
    // rows. The escalate-everything policy is asserted byte-identical
    // to the unbudgeted engine *before* any timing — the row is
    // meaningless if gating changed escalated bytes. The reported
    // configuration then gates at the batch's median pilot entropy, so
    // roughly half the rows stay at the pilot budget; the row records
    // the escalation rate, the accuracy/ECE deltas vs the full-S run,
    // and the measured expected-latency speedup.
    // ------------------------------------------------------------------
    let adapt_val = if smoke { 8 } else { 32 };
    let adapt_splits = nds_data::mnist_like(&nds_data::DatasetConfig {
        train: 16,
        val: adapt_val,
        test: 8,
        seed: 0xADA9,
        noise: 0.05,
    });
    let (adapt_images, adapt_labels) = adapt_splits.val.full_batch();
    let mut adapt_full_engine = EngineBuilder::new(supernet.net_mut().clone())
        .samples(mc_samples)
        .workers(1)
        .execution(execution)
        .build();
    let adapt_full_resp = adapt_full_engine
        .predict(&PredictRequest::new(&adapt_images))
        .unwrap();
    {
        let mut all_engine = EngineBuilder::new(supernet.net_mut().clone())
            .samples(mc_samples)
            .workers(1)
            .execution(execution)
            .adaptive(AdaptivePolicy::escalate(EscalationPolicy::entropy(0.0)))
            .build();
        let all = all_engine
            .predict(&PredictRequest::new(&adapt_images))
            .unwrap();
        assert_eq!(
            all.probs.as_slice(),
            adapt_full_resp.probs.as_slice(),
            "escalate-all must be byte-identical to the unbudgeted engine"
        );
        all_engine.recycle(all);
    }
    let adapt_threshold = {
        let mut pilot_engine = EngineBuilder::new(supernet.net_mut().clone())
            .samples(1)
            .workers(1)
            .execution(execution)
            .build();
        let pilot = pilot_engine
            .predict(&PredictRequest::new(&adapt_images))
            .unwrap();
        let classes = pilot.probs.shape().dim(1);
        let mut scores: Vec<f64> = pilot
            .probs
            .as_slice()
            .chunks(classes)
            .map(|row| {
                -row.iter()
                    .map(|&p| {
                        let p = f64::from(p);
                        if p > 0.0 {
                            p * p.ln()
                        } else {
                            0.0
                        }
                    })
                    .sum::<f64>()
            })
            .collect();
        pilot_engine.recycle(pilot);
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        scores[scores.len() / 2]
    };
    let mut adapt_engine = EngineBuilder::new(supernet.net_mut().clone())
        .samples(mc_samples)
        .workers(1)
        .execution(execution)
        .adaptive(AdaptivePolicy::escalate(EscalationPolicy {
            metric: GateMetric::PredictiveEntropy,
            threshold: adapt_threshold,
            pilot: 1,
        }))
        .build();
    let adapt_resp = adapt_engine
        .predict(&PredictRequest::new(&adapt_images))
        .unwrap();
    let adapt_rate = escalation_rate(adapt_resp.row_samples.as_ref().unwrap(), 1);
    let adapt_full_acc = accuracy(&adapt_full_resp.probs, &adapt_labels).unwrap();
    let adapt_full_ece = ece(&adapt_full_resp.probs, &adapt_labels, EceConfig::default()).unwrap();
    let adapt_acc = accuracy(&adapt_resp.probs, &adapt_labels).unwrap();
    let adapt_ece = ece(&adapt_resp.probs, &adapt_labels, EceConfig::default()).unwrap();
    adapt_full_engine.recycle(adapt_full_resp);
    adapt_engine.recycle(adapt_resp);
    let adapt_full_secs = time_engine(
        &mut adapt_full_engine,
        &adapt_images,
        if smoke { 2 } else { 5 },
    );
    let adapt_gated_secs = time_engine(&mut adapt_engine, &adapt_images, if smoke { 2 } else { 5 });

    // ------------------------------------------------------------------
    // Serving front-end: work-conserving dispatch over the engine.
    // Batch-1 serial = submit one request, wait, repeat — every request
    // finds an idle dispatcher and pays only the client/dispatcher
    // handoff. Saturation = submit the whole request set up front, then
    // collect — each dispatcher wake-up drains up to `max_batch` of the
    // backlog and the dispatch pipeline stays busy. Response bytes are
    // identical in both phases (pinned by tests/serving.rs); only
    // scheduling differs, and the gap between the two rows is what
    // draining a backlog per wake-up buys.
    // ------------------------------------------------------------------
    let (serve_serial_reqs, serve_sat_reqs, serve_max_batch) =
        if smoke { (6, 12, 4) } else { (48, 192, 32) };
    let serve_image = |i: u64| {
        let mut r = Rng64::new(0x5E21 + i);
        Tensor::rand_normal(Shape::d4(1, 1, 28, 28), 0.0, 1.0, &mut r)
    };
    let mut serve_builder = ServerBuilder::new(supernet.net_mut().clone())
        .max_batch(serve_max_batch)
        .execution(execution);
    let serve_tenant = serve_builder.tenant(TenantSpec {
        seed: 0,
        samples: mc_samples,
        ..TenantSpec::default()
    });
    let server = serve_builder.build();
    // Warm-up: the first request populates the caches on the dispatch path.
    server
        .submit(serve_tenant, ServeRequest::new(serve_image(0)))
        .unwrap()
        .wait()
        .unwrap();
    let mut serve_lat_ms: Vec<f64> = Vec::with_capacity(serve_serial_reqs);
    let serve_serial_t0 = Instant::now();
    for i in 0..serve_serial_reqs {
        let t = Instant::now();
        server
            .submit(serve_tenant, ServeRequest::new(serve_image(1 + i as u64)))
            .unwrap()
            .wait()
            .unwrap();
        serve_lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let serve_serial_elapsed = serve_serial_t0.elapsed().as_secs_f64();
    serve_lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let serve_p50 = serve_lat_ms[serve_lat_ms.len() / 2];
    let serve_p99 = serve_lat_ms
        [((serve_lat_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, serve_lat_ms.len()) - 1];
    let serve_serial_rps = serve_serial_reqs as f64 / serve_serial_elapsed;
    let serve_sat_t0 = Instant::now();
    let serve_tickets: Vec<_> = (0..serve_sat_reqs)
        .map(|i| {
            server
                .submit(
                    serve_tenant,
                    ServeRequest::new(serve_image(1000 + i as u64)),
                )
                .unwrap()
        })
        .collect();
    let mut serve_batch_sum = 0usize;
    for ticket in serve_tickets {
        serve_batch_sum += ticket.wait().unwrap().timing.batch_size;
    }
    let serve_sat_elapsed = serve_sat_t0.elapsed().as_secs_f64();
    let serve_sat_rps = serve_sat_reqs as f64 / serve_sat_elapsed;
    let serve_mean_batch = serve_batch_sum as f64 / serve_sat_reqs as f64;
    server.shutdown();

    // ------------------------------------------------------------------
    // Search-session throughput: the Phase-3 `SearchSession` end to end
    // on a tiny LeNet supernet (untrained weights — the per-candidate
    // evaluation cost is identical), 2 evolutionary generations. Reported
    // as fresh candidate evaluations per second.
    // ------------------------------------------------------------------
    let (search_pop, search_val) = if smoke { (4, 16) } else { (8, 64) };
    let search_generations = 2usize;
    let splits = nds_data::mnist_like(&nds_data::DatasetConfig {
        train: 32,
        val: search_val,
        test: 8,
        seed: 0x5EA2C4,
        noise: 0.05,
    });
    let search_spec = SupernetSpec::paper_default(nds_nn::zoo::lenet(), 8).expect("valid spec");
    let mut search_supernet = Supernet::build(&search_spec).expect("builds");
    let search_t0 = Instant::now();
    let mut session = SearchBuilder::new(&mut search_supernet)
        .strategy(Strategy::Evolution(EvolutionConfig {
            population: search_pop,
            generations: search_generations,
            parents: search_pop.div_ceil(2),
            ..EvolutionConfig::default()
        }))
        .validation(&splits.val)
        .build()
        .expect("session builds");
    let search_outcome = session.run().expect("search runs");
    let search_elapsed = search_t0.elapsed().as_secs_f64();
    drop(session);
    let search_evals = search_outcome.budget_spent;
    let search_cps = search_evals as f64 / search_elapsed;

    // ------------------------------------------------------------------
    // Island-model campaign throughput: the same Phase-3 search split
    // across N islands at a fixed total generation budget (so every row
    // spends comparable evaluation work), elites exchanged every epoch.
    // Islands run in turn on this thread, each evaluation fanning out
    // over the same pool, so candidates/sec stays near-flat with island
    // count; the row records the pool's worker count and exists to
    // track per-island overhead (merge + migration), not parallel
    // speedup.
    // ------------------------------------------------------------------
    let campaign_total_generations = 4usize;
    let mut island_rows = String::new();
    for &islands in &[1usize, 2, 4] {
        let per_island = campaign_total_generations / islands;
        let mut nets: Vec<Supernet> = (0..islands)
            .map(|_| Supernet::build(&search_spec).expect("island supernet builds"))
            .collect();
        let t0 = Instant::now();
        let mut sessions: Vec<_> = nets
            .iter_mut()
            .enumerate()
            .map(|(index, net)| {
                SearchBuilder::new(net)
                    .strategy(Strategy::Evolution(EvolutionConfig {
                        population: search_pop,
                        generations: per_island,
                        parents: search_pop.div_ceil(2),
                        seed: island_seed(0x15_1A2D, index),
                        ..EvolutionConfig::default()
                    }))
                    .validation(&splits.val)
                    .build()
                    .expect("island session builds")
            })
            .collect();
        let mut campaign = Campaign::new(&mut sessions, 1).expect("campaign builds");
        let outcome = campaign.run().expect("campaign runs");
        let elapsed = t0.elapsed().as_secs_f64();
        island_rows.push_str(&format!(
            "    \"islands_{islands}\": {{ \"fresh_evaluations\": {}, \
             \"elapsed_ms\": {:.3}, \"candidates_per_sec\": {:.2} }},\n",
            outcome.budget_spent,
            elapsed * 1e3,
            outcome.budget_spent as f64 / elapsed,
        ));
    }

    let islands_note = format!(
        "islands run in turn, each evaluation fanned out over the pool's {workers} worker{}, \
         so near-flat candidates/sec with island count is expected",
        if workers == 1 { "" } else { "s" }
    );

    let json = format!(
        "{{\n  \
         \"bench\": \"inference-engine baseline\",\n  \
         \"workers\": {workers},\n  \
         \"execution\": \"{execution}\",\n  \
         \"matmul_256\": {{\n    \
         \"naive_ms\": {:.4},\n    \
         \"blocked_ms\": {:.4},\n    \
         \"transb_ms\": {:.4},\n    \
         \"speedup_blocked\": {:.3},\n    \
         \"speedup_transb\": {:.3}\n  }},\n  \
         \"conv2d_64x64_3x3_b4_16x16\": {{\n    \
         \"direct_ms\": {:.3},\n    \
         \"gemm_ms\": {:.3},\n    \
         \"speedup_vs_direct\": {:.3}\n  }},\n  \
         \"mc_predict_lenet_s3_b32\": {{\n    \
         \"serial_ms\": {:.3},\n    \
         \"parallel_ms\": {:.3},\n    \
         \"speedup\": {:.3},\n    \
         \"images_per_sec\": {:.1}\n  }},\n  \
         \"mask_bank_lenet_s3\": {{\n    \
         \"round_major_ms\": {:.3},\n    \
         \"sample_major_ms\": {:.3},\n    \
         \"speedup\": {:.3},\n    \
         \"images_per_sec\": {:.1},\n    \
         \"byte_identical\": true\n  }},\n  \
         \"mc_predict_resnet18w8_s3_b16\": {{\n    \
         \"serial_ms\": {:.3},\n    \
         \"parallel_ms\": {:.3},\n    \
         \"speedup\": {:.3},\n    \
         \"images_per_sec\": {:.1}\n  }},\n  \
         \"engine_throughput_lenet_s3\": {{\n    \
         \"float32_b32_images_per_sec\": {:.1},\n    \
         \"float32_b256_images_per_sec\": {:.1},\n    \
         \"quantized_q78_b32_images_per_sec\": {:.1},\n    \
         \"quantized_q78_b256_images_per_sec\": {:.1}\n  }},\n  \
         \"degraded_latency_lenet_b32\": {{\n    \
         \"requested_samples\": {deg_samples},\n    \
         \"unbudgeted_ms\": {:.3},\n    \
         \"budget_ms\": {:.3},\n    \
         \"budgeted_ms\": {:.3},\n    \
         \"achieved_samples\": {deg_achieved},\n    \
         \"degraded\": {deg_degraded}\n  }},\n  \
         \"adaptive_lenet_s3\": {{\n    \
         \"pilot\": 1,\n    \
         \"gate\": \"entropy\",\n    \
         \"threshold\": {:.4},\n    \
         \"escalation_rate\": {:.3},\n    \
         \"full_ms\": {:.3},\n    \
         \"gated_ms\": {:.3},\n    \
         \"expected_latency_speedup\": {:.3},\n    \
         \"accuracy_delta\": {:.4},\n    \
         \"ece_delta\": {:.4},\n    \
         \"byte_identical_escalate_all\": true\n  }},\n  \
         \"serving_lenet_s3\": {{\n    \
         \"max_batch\": {serve_max_batch},\n    \
         \"batch1_requests\": {serve_serial_reqs},\n    \
         \"batch1_p50_ms\": {:.3},\n    \
         \"batch1_p99_ms\": {:.3},\n    \
         \"batch1_requests_per_sec\": {:.1},\n    \
         \"saturation_requests\": {serve_sat_reqs},\n    \
         \"saturated_requests_per_sec\": {:.1},\n    \
         \"saturated_mean_batch\": {:.2},\n    \
         \"speedup_vs_batch1\": {:.3}\n  }},\n  \
         \"search_smoke\": {{\n    \
         \"generations\": {search_generations},\n    \
         \"population\": {search_pop},\n    \
         \"fresh_evaluations\": {search_evals},\n    \
         \"elapsed_ms\": {:.3},\n    \
         \"candidates_per_sec\": {:.2}\n  }},\n  \
         \"search_islands\": {{\n    \
         \"total_generations\": {campaign_total_generations},\n    \
         \"population\": {search_pop},\n    \
         \"migrate_every\": 1,\n    \
         \"workers\": {workers},\n    \
         \"note\": \"{islands_note}\",\n\
{island_rows}    \
         \"islands\": [1, 2, 4]\n  }}\n}}\n",
        naive * 1e3,
        blocked * 1e3,
        transb * 1e3,
        naive / blocked,
        naive / transb,
        conv_direct * 1e3,
        conv_gemm * 1e3,
        conv_direct / conv_gemm,
        mc_serial * 1e3,
        mc_parallel * 1e3,
        mc_serial / mc_parallel,
        mc_batch as f64 / mc_parallel,
        bank_round * 1e3,
        bank_fused * 1e3,
        bank_round / bank_fused,
        mc_batch as f64 / bank_fused,
        resnet_serial * 1e3,
        resnet_parallel * 1e3,
        resnet_serial / resnet_parallel,
        resnet_batch as f64 / resnet_parallel,
        float_small_ips,
        float_large_ips,
        quant_small_ips,
        quant_large_ips,
        deg_full_secs * 1e3,
        deg_budget_ms,
        deg_budgeted_secs * 1e3,
        adapt_threshold,
        adapt_rate,
        adapt_full_secs * 1e3,
        adapt_gated_secs * 1e3,
        adapt_full_secs / adapt_gated_secs,
        adapt_acc - adapt_full_acc,
        adapt_ece - adapt_full_ece,
        serve_p50,
        serve_p99,
        serve_serial_rps,
        serve_sat_rps,
        serve_mean_batch,
        serve_sat_rps / serve_serial_rps,
        search_elapsed * 1e3,
        search_cps,
    );
    if smoke {
        // Smoke runs exist to catch panics/bit-rot, not to record
        // numbers: print and leave the committed baseline untouched.
        println!("{json}");
        println!("smoke mode: skipped writing BENCH_inference.json");
        return;
    }
    let path = nds_bench::results_dir()
        .parent()
        .expect("results dir has a parent")
        .join("BENCH_inference.json");
    std::fs::write(&path, &json).expect("baseline file is writable");
    println!("{json}");
    println!("wrote {}", path.display());
}
