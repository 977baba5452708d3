//! Criterion micro-benchmarks for the performance-critical kernels:
//! convolution, matmul, the four mask generators, MC inference through
//! the serving engine, the GP surrogate, the accelerator analyzer and
//! the fixed-point datapath.
//!
//! Run with: `cargo bench --bench micro`
//!
//! The `mc_predict_*` bench IDs keep their historical names (the PR 1-3
//! trajectory) but measure through the `UncertaintyEngine`, which runs
//! the same MC harness byte for byte — the deprecated free-function
//! wrappers are no longer exercised here.

use criterion::{criterion_group, criterion_main, Criterion};
use nds_dropout::masks::{bernoulli_mask, block_mask, random_mask};
use nds_dropout::masksembles::MaskSet;
use nds_engine::{EngineBuilder, Execution, PredictRequest};
use nds_gp::{GpRegressor, Kernel};
use nds_hw::accel::{AcceleratorConfig, AcceleratorModel};
use nds_hw::lfsr::Lfsr16;
use nds_metrics::{ece, EceConfig};
use nds_nn::zoo;
use nds_quant::{Fixed, MacUnit, Q7_8};
use nds_supernet::{Supernet, SupernetSpec};
use nds_tensor::conv::{conv2d, ConvGeometry};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor};
use std::hint::black_box;

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut rng = Rng64::new(1);
    let a = Tensor::rand_normal(Shape::d2(128, 128), 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(Shape::d2(128, 128), 0.0, 1.0, &mut rng);
    c.bench_function("matmul_128x128", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });

    // The perf-trajectory headliner: 256³, optimised vs the seed kernel.
    let a256 = Tensor::rand_normal(Shape::d2(256, 256), 0.0, 1.0, &mut rng);
    let b256 = Tensor::rand_normal(Shape::d2(256, 256), 0.0, 1.0, &mut rng);
    let bt256 = b256.transpose().unwrap();
    c.bench_function("matmul_256x256", |bench| {
        bench.iter(|| black_box(a256.matmul(&b256).unwrap()))
    });
    c.bench_function("matmul_naive_256x256", |bench| {
        bench.iter(|| black_box(a256.matmul_naive(&b256).unwrap()))
    });
    c.bench_function("matmul_transb_256x256", |bench| {
        bench.iter(|| black_box(a256.matmul_transb(&bt256).unwrap()))
    });

    let input = Tensor::rand_normal(Shape::d4(1, 16, 32, 32), 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_normal(Shape::d4(16, 16, 3, 3), 0.0, 0.1, &mut rng);
    c.bench_function("conv2d_16x32x32_3x3", |bench| {
        bench.iter(|| black_box(conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 1)).unwrap()))
    });
}

fn bench_mask_generators(c: &mut Criterion) {
    const N: usize = 16 * 32 * 32;
    c.bench_function("mask_bernoulli_16k", |bench| {
        let mut rng = Rng64::new(2);
        bench.iter(|| black_box(bernoulli_mask(N, 0.25, &mut rng)))
    });
    c.bench_function("mask_random_16k", |bench| {
        let mut rng = Rng64::new(3);
        bench.iter(|| black_box(random_mask(N, 0.25, &mut rng)))
    });
    c.bench_function("mask_block_32x32", |bench| {
        let mut rng = Rng64::new(4);
        bench.iter(|| black_box(block_mask(32, 32, 0.25, 3, &mut rng)))
    });
    c.bench_function("masksembles_generate_3x256", |bench| {
        bench.iter(|| {
            let mut rng = Rng64::new(5);
            black_box(MaskSet::generate(3, 256, 2.0, &mut rng))
        })
    });
    c.bench_function("lfsr16_step_x1024", |bench| {
        let mut lfsr = Lfsr16::new(0xACE1);
        bench.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1024 {
                acc = acc.wrapping_add(lfsr.next_word() as u32);
            }
            black_box(acc)
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    let spec = SupernetSpec::paper_default(zoo::lenet(), 6).expect("valid");
    let mut supernet = Supernet::build(&spec).expect("builds");
    supernet
        .set_config(&"BBB".parse().expect("valid"))
        .expect("in space");
    let mut rng = Rng64::new(7);
    let images = Tensor::rand_normal(Shape::d4(8, 1, 28, 28), 0.0, 1.0, &mut rng);
    // Small-batch MC prediction through the engine (pool-wide workers,
    // chunk 8 — the settings the historical mc_predict wrapper used).
    let mut small_engine = EngineBuilder::new(supernet.net().clone())
        .samples(3)
        .chunk_size(8)
        .build();
    c.bench_function("mc_predict_lenet_s3_b8", |bench| {
        bench.iter(|| {
            let resp = small_engine.predict(&PredictRequest::new(&images)).unwrap();
            let n = resp.probs.shape().dim(0);
            small_engine.recycle(resp);
            black_box(n)
        })
    });

    // End-to-end MC throughput at a heavier batch — the shape of the
    // supernet-evaluation inner loop. The engine's persistent clone
    // cache and warm workspace make steady-state rounds allocation-free
    // even on the round-major parallel path.
    let big = Tensor::rand_normal(Shape::d4(32, 1, 28, 28), 0.0, 1.0, &mut rng);
    let workers = nds_tensor::parallel::worker_count();
    let mut pooled_engine = EngineBuilder::new(supernet.net().clone())
        .samples(3)
        .workers(workers)
        .execution(Execution::RoundMajor)
        .chunk_size(32)
        .build();
    c.bench_function("mc_predict_lenet_s3_b32_pooled", |bench| {
        bench.iter(|| {
            let resp = pooled_engine.predict(&PredictRequest::new(&big)).unwrap();
            let n = resp.probs.shape().dim(0);
            pooled_engine.recycle(resp);
            black_box(n)
        })
    });

    // Engine-default scheduling on the same workload (the serving shape).
    let mut engine = EngineBuilder::new(supernet.net().clone())
        .samples(3)
        .build();
    c.bench_function("engine_predict_lenet_s3_b32", |bench| {
        bench.iter(|| {
            let resp = engine.predict(&PredictRequest::new(&big)).unwrap();
            let n = resp.probs.shape().dim(0);
            engine.recycle(resp);
            black_box(n)
        })
    });
}

fn bench_models(c: &mut Criterion) {
    // GP surrogate: fit and predict.
    let mut rng = Rng64::new(8);
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..12).map(|_| rng.uniform()).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>()).collect();
    c.bench_function("gp_fit_32pts", |bench| {
        bench.iter(|| {
            black_box(
                GpRegressor::fit(
                    &xs,
                    &ys,
                    Kernel::Matern52 {
                        lengthscale: 2.0,
                        variance: 1.0,
                    },
                    1e-6,
                )
                .unwrap(),
            )
        })
    });
    let gp = GpRegressor::fit(
        &xs,
        &ys,
        Kernel::Matern52 {
            lengthscale: 2.0,
            variance: 1.0,
        },
        1e-6,
    )
    .unwrap();
    let query: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
    c.bench_function("gp_predict", |bench| {
        bench.iter(|| black_box(gp.predict(&query)))
    });

    // Accelerator analysis: the call the search loop amortises via the GP.
    let model = AcceleratorModel::new(AcceleratorConfig::resnet_paper());
    let arch = zoo::resnet18_paper();
    let config = "KMBM".parse().expect("valid");
    c.bench_function("accel_analyze_resnet18", |bench| {
        bench.iter(|| black_box(model.analyze(&arch, &config).unwrap()))
    });
}

fn bench_fixed_point(c: &mut Criterion) {
    let a = Fixed::from_f32(1.25, Q7_8);
    let b = Fixed::from_f32(-0.5, Q7_8);
    c.bench_function("fixed_mul_x1024", |bench| {
        bench.iter(|| {
            let mut acc = Fixed::zero(Q7_8);
            for _ in 0..1024 {
                acc = acc + a * b;
            }
            black_box(acc)
        })
    });
    c.bench_function("mac_unit_dot_1024", |bench| {
        bench.iter(|| {
            let mut mac = MacUnit::new(Q7_8);
            for _ in 0..1024 {
                mac.mac(a, b);
            }
            black_box(mac.readout())
        })
    });
}

fn bench_attention(c: &mut Criterion) {
    use nds_nn::layers::{MultiHeadAttention, PatchEmbed};
    use nds_nn::{Layer, Mode};
    let mut rng = Rng64::new(11);
    let mut attn = MultiHeadAttention::new(16, 4, &mut rng);
    let tokens = Tensor::rand_normal(Shape::d4(8, 16, 1, 16), 0.0, 1.0, &mut rng);
    c.bench_function("attention_fwd_8x16x16", |bench| {
        bench.iter(|| black_box(attn.forward(&tokens, Mode::Train).unwrap()))
    });
    let mut embed = PatchEmbed::new(1, 7, 16, &mut rng);
    let images = Tensor::rand_normal(Shape::d4(8, 1, 28, 28), 0.0, 1.0, &mut rng);
    c.bench_function("patch_embed_fwd_8x28x28", |bench| {
        bench.iter(|| black_box(embed.forward(&images, Mode::Train).unwrap()))
    });
}

fn bench_metrics(c: &mut Criterion) {
    let mut rng = Rng64::new(9);
    let n = 512;
    let classes = 10;
    let mut data = Vec::with_capacity(n * classes);
    for _ in 0..n {
        let mut row: Vec<f32> = (0..classes).map(|_| rng.uniform_f32() + 1e-3).collect();
        let sum: f32 = row.iter().sum();
        row.iter_mut().for_each(|v| *v /= sum);
        data.extend(row);
    }
    let probs = Tensor::from_vec(data, Shape::d2(n, classes)).unwrap();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(classes)).collect();
    c.bench_function("ece_512x10", |bench| {
        bench.iter(|| black_box(ece(&probs, &labels, EceConfig::default()).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tensor_kernels, bench_mask_generators, bench_inference, bench_models, bench_fixed_point, bench_metrics, bench_attention
}
criterion_main!(benches);
