//! The two offline evaluation workloads and the per-layer walk.
//!
//! * `eval_resnet18w8` — closed loop, one caller: back-to-back
//!   `predict` calls on CIFAR-like batches of 16 through a Float32
//!   ResNet18-w8 engine (S=3, round-major, one engine worker, all
//!   diagnostics).
//! * `eval_lenet_q78_fused` — closed loop, one caller: `predict` on
//!   MNIST-like batches of 256 through a Q7.8 LeNet engine, sample-major,
//!   S=8, all diagnostics.
//!
//! Traced runs add the per-layer numbers: one MC pass walked through
//! the network's top-level layers with `Layer::forward_ws`, each layer
//! timed (asserted byte-equal to `predict_probs_ws` first), engine
//! probes around `UncertaintyEngine::predict`, the mask-bank prime and
//! replay cost through `Layer::begin_mc_fused`, and the accelerator
//! model's per-stage cycles for the same architecture and config.

use std::time::{Duration, Instant};

use nds_data::DatasetConfig;
use nds_engine::{
    Backend, EngineBuilder, Execution, PredictRequest, PredictResponse, UncertaintyEngine,
    UncertaintyFlags,
};
use nds_hw::accel::{AcceleratorConfig, AcceleratorModel};
use nds_nn::arch::{Architecture, LayerDef};
use nds_nn::layers::Sequential;
use nds_nn::train::predict_probs_ws;
use nds_nn::{Layer, Mode};
use nds_supernet::{DropoutConfig, Supernet, SupernetSpec};
use nds_tensor::rng::Rng64;
use nds_tensor::{Tensor, Workspace};

use crate::trace::Tracer;
use crate::{median, quantile, same_bits, same_bits64, timed_setup, Report, RunCfg, WEIGHT_SEED};

/// One evaluation workload's fixed shape.
struct EvalSpec {
    /// Metric-name prefix of the network (`lenet`, `resnet`).
    net: &'static str,
    arch: Architecture,
    config: &'static str,
    backend: Backend,
    execution: Execution,
    samples: usize,
    batch: usize,
    batches: usize,
}

/// Everything setup builds.
struct EvalState {
    supernet: Supernet,
    engine: UncertaintyEngine,
    batches: Vec<Tensor>,
}

fn resnet_spec() -> EvalSpec {
    EvalSpec {
        net: "resnet",
        arch: nds_nn::zoo::resnet18(8),
        config: "BKRM",
        backend: Backend::Float32,
        execution: Execution::RoundMajor,
        samples: 3,
        batch: 16,
        batches: 4,
    }
}

fn lenet_spec() -> EvalSpec {
    EvalSpec {
        net: "lenet",
        arch: nds_nn::zoo::lenet(),
        config: "BKM",
        backend: Backend::quantized_q78(),
        execution: Execution::SampleMajor,
        samples: 8,
        batch: 256,
        batches: 2,
    }
}

pub fn run_resnet(cfg: &RunCfg, rep: &mut Report) {
    run(cfg, rep, &resnet_spec());
}

pub fn run_lenet_q78(cfg: &RunCfg, rep: &mut Report) {
    run(cfg, rep, &lenet_spec());
}

fn setup(cfg: &RunCfg, spec: &EvalSpec) -> EvalState {
    let images = spec.batch * spec.batches;
    let data = DatasetConfig {
        train: 8,
        val: images,
        test: 8,
        seed: Rng64::derive(cfg.seed, 0xE7A1),
        noise: 0.08,
    };
    let splits = if spec.net == "lenet" {
        nds_data::mnist_like(&data)
    } else {
        nds_data::cifar_like(&data)
    };
    let batches: Vec<Tensor> = (0..spec.batches)
        .map(|b| {
            let idx: Vec<usize> = (b * spec.batch..(b + 1) * spec.batch).collect();
            splits.val.batch(&idx).0
        })
        .collect();
    let sn_spec = SupernetSpec::paper_default(spec.arch.clone(), WEIGHT_SEED).expect("valid spec");
    let mut supernet = Supernet::build(&sn_spec).expect("supernet builds");
    supernet
        .set_config(&spec.config.parse().expect("valid config"))
        .expect("config in space");
    // One engine worker: with the pool's two, whichever core a neighbour
    // on the shared machine takes stalls every fan-out, and ResNet's p50
    // ranged 47-106 ms over ten seeds (one worker: within 5%). The
    // fan-out is still exercised by the byte check.
    let mut engine = EngineBuilder::new(supernet.net().clone())
        .backend(spec.backend.clone())
        .execution(spec.execution)
        .samples(spec.samples)
        .workers(1)
        .build();
    // Warm-up: caches, workspace pools and mask banks fill here.
    let warm = engine
        .predict(&PredictRequest::new(&batches[0]).with_outputs(UncertaintyFlags::ALL))
        .expect("warm-up predict");
    engine.recycle(warm);
    EvalState {
        supernet,
        engine,
        batches,
    }
}

fn run(cfg: &RunCfg, rep: &mut Report, spec: &EvalSpec) {
    let (mut state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg, spec));
    rep.config("arch", &spec.arch.name);
    rep.config("dropout_config", spec.config);
    rep.config("backend", spec.backend.label());
    rep.config("execution", spec.execution.label());
    rep.config("samples", spec.samples);
    rep.config("batch", spec.batch);
    rep.config("loop", "closed, 1 caller");
    rep.config("engine_workers", 1);

    // Output check, outside the timed window.
    check_outputs(cfg, rep, spec, &mut state);

    // The closed loop.
    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_calls = if cfg.smoke { 2 } else { 10 };
    let mut lat_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget || lat_ms.len() < min_calls {
        let batch = &state.batches[i % state.batches.len()];
        let t0 = Instant::now();
        let ok = match state
            .engine
            .predict(&PredictRequest::new(batch).with_outputs(UncertaintyFlags::ALL))
        {
            Ok(resp) => {
                state.engine.recycle(resp);
                true
            }
            Err(_) => false,
        };
        let t1 = Instant::now();
        tracer.span("engine.predict", i as u64, t0, t1);
        if ok {
            lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        } else {
            failed += 1;
        }
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    rep.phase("closed_loop", i as u64, lat_ms.len() as u64, failed);
    let images_per_s = (lat_ms.len() * spec.batch) as f64 / elapsed;
    let p50 = median(&lat_ms);
    let p90 = quantile(&lat_ms, 0.9);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", p50, "ms");
    rep.metric("tail_ms", p90, "ms");
    rep.metric("throughput_per_s", images_per_s, "1/s");
    rep.metric("eval.images_per_s", images_per_s, "1/s");
    rep.metric("eval.p50_ms", p50, "ms");
    rep.metric("eval.p90_ms", p90, "ms");
    rep.metric("eval.calls", lat_ms.len() as f64, "count");

    if cfg.traced {
        tracer.link();
        rep.spans.push((format!("{}-loop", spec.net), tracer));
        layer_metrics(cfg, rep, spec, &mut state);
    }
}

/// `eval_resnet18w8`: the first batch must be byte-equal between the
/// one-worker engine and one fanning out over the pool's workers.
/// `eval_lenet_q78_fused`: sample-major must equal round-major.
fn check_outputs(cfg: &RunCfg, rep: &mut Report, spec: &EvalSpec, state: &mut EvalState) {
    let images = &state.batches[0];
    let (name, execution, workers) = if spec.execution == Execution::SampleMajor {
        ("sample_major_equals_round_major", Execution::RoundMajor, 1)
    } else {
        ("pool_workers_equal_one_worker", spec.execution, cfg.workers)
    };
    let mut reference = EngineBuilder::new(state.supernet.net().clone())
        .backend(spec.backend.clone())
        .execution(execution)
        .samples(spec.samples)
        .workers(workers)
        .build();
    let request = PredictRequest::new(images).with_outputs(UncertaintyFlags::ALL);
    let got = state.engine.predict(&request);
    let want = reference.predict(&request);
    let equal = match (&got, &want) {
        (Ok(a), Ok(b)) => same_response(a, b),
        _ => false,
    };
    rep.check(
        name,
        1,
        u64::from(!equal),
        format!(
            "batch of {} at S={}, workers {}",
            spec.batch, spec.samples, cfg.workers
        ),
    );
    if let Ok(resp) = got {
        state.engine.recycle(resp);
    }
}

/// Bitwise equality of two responses: probabilities, every diagnostic
/// and the per-row sample counts.
pub fn same_response(a: &PredictResponse, b: &PredictResponse) -> bool {
    same_bits(a.probs.as_slice(), b.probs.as_slice())
        && same_bits64(&a.entropy, &b.entropy)
        && same_bits64(&a.mutual_information, &b.mutual_information)
        && same_bits64(&a.variance, &b.variance)
        && a.row_samples == b.row_samples
        && a.achieved_samples == b.achieved_samples
}

/// Layer kind of a top-level architecture entry (the walk's unit).
fn kind_of(def: &LayerDef) -> &'static str {
    match def {
        LayerDef::Conv2d { .. } | LayerDef::PatchEmbed { .. } => "conv",
        LayerDef::BatchNorm2d => "norm",
        LayerDef::Relu => "act",
        LayerDef::MaxPool2d { .. } | LayerDef::GlobalAvgPool | LayerDef::TokenMeanPool => "pool",
        LayerDef::Flatten => "flatten",
        LayerDef::Linear { .. } => "linear",
        LayerDef::DropoutSlot { .. } => "dropout",
        LayerDef::Residual { .. }
        | LayerDef::EncoderAttention { .. }
        | LayerDef::EncoderMlp { .. } => "block",
    }
}

/// How many `Architecture::profile` entries one definition produces.
fn profile_entries(def: &LayerDef) -> usize {
    match def {
        LayerDef::Residual { main, shortcut } => {
            main.iter().map(profile_entries).sum::<usize>()
                + shortcut.iter().map(profile_entries).sum::<usize>()
                + 1
        }
        _ => 1,
    }
}

/// Per-image MACs of each top-level layer.
fn top_level_macs(arch: &Architecture) -> Vec<u64> {
    let profile = arch.profile().expect("architecture shape-infers");
    let mut at = 0;
    arch.defs
        .iter()
        .map(|def| {
            let n = profile_entries(def);
            let macs = profile[at..at + n].iter().map(|p| p.macs).sum();
            at += n;
            macs
        })
        .collect()
}

fn span_name(kind: &'static str) -> &'static str {
    match kind {
        "conv" => "nn.conv",
        "norm" => "nn.norm",
        "act" => "nn.act",
        "pool" => "nn.pool",
        "flatten" => "nn.flatten",
        "linear" => "nn.linear",
        "dropout" => "dropout.slot",
        _ => "nn.block",
    }
}

/// One MC pass (sample `sample`) through the top-level layers with
/// `Layer::forward_ws`, each layer recorded as a span of request `req`
/// and its seconds added to `layer_s`. Returns the softmax
/// probabilities.
#[allow(clippy::too_many_arguments)]
fn walk_pass(
    net: &mut Sequential,
    images: &Tensor,
    sample: u64,
    kinds: &[&'static str],
    ws: &mut Workspace,
    tracer: &mut Tracer,
    req: u64,
    layer_s: &mut [f64],
) -> Tensor {
    let pass_start = Instant::now();
    net.begin_mc_round();
    net.begin_mc_sample(sample);
    let mut cur: Option<Tensor> = None;
    for (i, layer) in net.each_layer_mut().enumerate() {
        let input = cur.as_ref().unwrap_or(images);
        let t0 = Instant::now();
        let y = layer
            .forward_ws(input, Mode::McInference, ws)
            .expect("walk forward");
        let t1 = Instant::now();
        layer_s[i] += (t1 - t0).as_secs_f64();
        tracer.span(span_name(kinds[i]), req, t0, t1);
        if let Some(old) = cur.replace(y) {
            ws.recycle_tensor(old);
        }
    }
    let mut out = cur.expect("network has layers");
    out.softmax_rows_inplace().expect("rank-2 logits");
    tracer.span("nn.pass", req, pass_start, Instant::now());
    out
}

/// Total slot-layer time of one fused sample-major pass primed with
/// `begin_mc_fused(samples, stream_base)`.
fn fused_slot_seconds(
    net: &mut Sequential,
    images: &Tensor,
    samples: usize,
    stream_base: u64,
    kinds: &[&'static str],
    ws: &mut Workspace,
) -> f64 {
    net.begin_mc_round();
    net.begin_mc_fused(samples, stream_base);
    let mut x = images.clone();
    let mut fused = false;
    let mut slot_s = 0.0;
    for (i, layer) in net.each_layer_mut().enumerate() {
        if !fused && layer.mc_is_stochastic() {
            x = ws.take_tiled(&x, samples).expect("tile prefix");
            fused = true;
        }
        let t0 = Instant::now();
        let y = layer
            .forward_mc_fused(&x, samples, ws)
            .expect("fused forward");
        if kinds[i] == "dropout" {
            slot_s += t0.elapsed().as_secs_f64();
        }
        ws.recycle_tensor(std::mem::replace(&mut x, y));
    }
    ws.recycle_tensor(x);
    slot_s
}

/// Milliseconds of one `predict` call of `engine` on `images`.
fn predict_ms(engine: &mut UncertaintyEngine, images: &Tensor, flags: UncertaintyFlags) -> f64 {
    let t0 = Instant::now();
    let resp = engine
        .predict(&PredictRequest::new(images).with_outputs(flags))
        .expect("probe predict");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.recycle(resp);
    ms
}

/// Two arms timed alternately (ABAB, after one warm-up call each), so
/// drift hits both: the median of arm A, of arm B, and of the paired
/// differences B - A.
fn interleaved(reps: usize, mut arm: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    arm(false);
    arm(true);
    let (mut a, mut b, mut diff) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let x = arm(false);
        let y = arm(true);
        a.push(x);
        b.push(y);
        diff.push(y - x);
    }
    (median(&a), median(&b), median(&diff))
}

/// The traced per-layer numbers of one evaluation workload.
fn layer_metrics(cfg: &RunCfg, rep: &mut Report, spec: &EvalSpec, state: &mut EvalState) {
    let net_name = spec.net;
    let kinds: Vec<&'static str> = spec.arch.defs.iter().map(kind_of).collect();
    let macs = top_level_macs(&spec.arch);
    let images = state.batches[0].clone();
    let mut net = state.supernet.net().clone();
    let mut ws = Workspace::new();
    let origin = Instant::now();

    // The walk must reproduce the engine's per-pass bytes before it is
    // timed: same net, same stream, `predict_probs_ws` as the reference.
    let mut off = Tracer::new(false, origin);
    let mut scratch = vec![0.0; kinds.len()];
    let mut wrong = 0;
    let check_samples = spec.samples.min(3) as u64;
    for s in 0..check_samples {
        let walked = walk_pass(
            &mut net,
            &images,
            s,
            &kinds,
            &mut ws,
            &mut off,
            0,
            &mut scratch,
        );
        net.begin_mc_round();
        net.begin_mc_sample(s);
        let reference = predict_probs_ws(&mut net, &images, Mode::McInference, spec.batch, &mut ws)
            .expect("reference pass");
        wrong += u64::from(!same_bits(walked.as_slice(), reference.as_slice()));
    }
    rep.check(
        format!("walk_equals_predict_probs_ws_{net_name}"),
        check_samples,
        wrong,
        format!("{check_samples} MC passes, batch {}", spec.batch),
    );

    // Timed passes; per kind, the median over passes of its summed time.
    let passes = if cfg.smoke { 3 } else { 4 * spec.samples };
    let mut walk = Tracer::new(true, origin);
    let mut per_pass: Vec<Vec<f64>> = Vec::with_capacity(passes);
    for p in 0..passes {
        let mut layer_s = vec![0.0; kinds.len()];
        let sample = (p % spec.samples) as u64;
        let out = walk_pass(
            &mut net,
            &images,
            sample,
            &kinds,
            &mut ws,
            &mut walk,
            p as u64,
            &mut layer_s,
        );
        ws.recycle_tensor(out);
        per_pass.push(layer_s);
    }
    walk.link();
    let kind_ms = |kind: &str| -> f64 {
        let sums: Vec<f64> = per_pass
            .iter()
            .map(|layer_s| {
                kinds
                    .iter()
                    .zip(layer_s)
                    .filter(|(k, _)| **k == kind)
                    .map(|(_, s)| s * 1e3)
                    .sum()
            })
            .collect();
        median(&sums)
    };
    let walk_sum_ms = median(
        &per_pass
            .iter()
            .map(|l| l.iter().sum::<f64>() * 1e3)
            .collect::<Vec<_>>(),
    );
    let coverage = walk.coverage();
    rep.layer(format!("trace.coverage.{net_name}_walk"), coverage, "frac");
    rep.table.push(format!(
        "[{net_name}] one MC pass, batch {}: {walk_sum_ms:.3} ms summed over layers, spans cover {:.1}% of the pass",
        spec.batch,
        100.0 * coverage
    ));
    let mut present: Vec<&'static str> = kinds.clone();
    present.sort_unstable();
    present.dedup();
    let mut measured_share = std::collections::BTreeMap::new();
    for kind in present {
        let self_ms = kind_ms(kind);
        let share = self_ms / walk_sum_ms;
        measured_share.insert(kind, share);
        let prefix = if kind == "dropout" {
            format!("dropout.{net_name}")
        } else {
            format!("nn.{net_name}.{kind}")
        };
        rep.layer(format!("{prefix}.self_ms"), self_ms, "ms");
        rep.layer(format!("{prefix}.share"), share, "frac");
        let kind_macs: u64 = kinds
            .iter()
            .zip(&macs)
            .filter(|(k, _)| **k == kind)
            .map(|(_, m)| *m)
            .sum();
        let mut line = format!(
            "[{net_name}] {kind:<8} self {self_ms:8.3} ms  share {:5.1}%",
            100.0 * share
        );
        if matches!(kind, "conv" | "block" | "linear") {
            let gflops = 2.0 * kind_macs as f64 * spec.batch as f64 / (self_ms / 1e3) / 1e9;
            rep.layer(format!("{prefix}.gflops"), gflops, "GFLOP/s");
            line.push_str(&format!("  {gflops:7.2} GFLOP/s"));
        }
        rep.table.push(line);
    }
    rep.spans.push((format!("{net_name}-walk"), walk));

    // Engine probes on the walk's configuration: float, round-major,
    // one worker, so `predict` is S walked passes plus the harness.
    let reps = if cfg.smoke { 2 } else { 9 };
    let mut probe = EngineBuilder::new(state.supernet.net().clone())
        .samples(spec.samples)
        .workers(1)
        .chunk_size(spec.batch)
        .build();
    let (none_ms, _, diag_ms) = interleaved(reps, |all| {
        let flags = if all {
            UncertaintyFlags::ALL
        } else {
            UncertaintyFlags::NONE
        };
        predict_ms(&mut probe, &images, flags)
    });
    rep.layer(format!("engine.{net_name}.predict_p50_ms"), none_ms, "ms");
    rep.layer(
        format!("engine.{net_name}.harness_ms"),
        none_ms - spec.samples as f64 * walk_sum_ms,
        "ms",
    );
    rep.layer(format!("engine.{net_name}.diag_ms"), diag_ms, "ms");

    if spec.backend != Backend::Float32 {
        // Fixed point over float, same order, samples and inputs.
        let mut float = EngineBuilder::new(state.supernet.net().clone())
            .execution(spec.execution)
            .samples(spec.samples)
            .workers(cfg.workers)
            .build();
        let (_, _, overhead_ms) = interleaved(reps, |quant| {
            let engine = if quant { &mut state.engine } else { &mut float };
            predict_ms(engine, &images, UncertaintyFlags::ALL)
        });
        rep.layer("engine.quant_overhead_ms", overhead_ms, "ms");
    }
    if spec.execution == Execution::SampleMajor {
        // Mask banks: a new stream base forces a fresh draw (prime); the
        // same base again replays the bank.
        let (mut prime, mut replay) = (Vec::new(), Vec::new());
        for r in 0..reps as u64 {
            let base = 1_000 + r * spec.samples as u64;
            prime.push(
                fused_slot_seconds(&mut net, &images, spec.samples, base, &kinds, &mut ws) * 1e3,
            );
            replay.push(
                fused_slot_seconds(&mut net, &images, spec.samples, base, &kinds, &mut ws) * 1e3,
            );
        }
        rep.layer("dropout.bank_prime_ms", median(&prime), "ms");
        rep.layer("dropout.bank_replay_ms", median(&replay), "ms");
    }

    hw_table(rep, spec, &measured_share);
}

/// The accelerator model's view of the same architecture and config,
/// printed beside the measured shares (reference numbers only).
fn hw_table(
    rep: &mut Report,
    spec: &EvalSpec,
    measured: &std::collections::BTreeMap<&'static str, f64>,
) {
    let net_name = spec.net;
    let config: DropoutConfig = spec.config.parse().expect("valid config");
    let model = AcceleratorModel::new(AcceleratorConfig::for_arch(&spec.arch));
    let report = model.analyze(&spec.arch, &config).expect("design analyzes");
    rep.layer(
        format!("hw.{net_name}.modelled_ms"),
        report.latency_ms,
        "ms",
    );
    let total: f64 = report.stages.iter().map(|s| s.total_cycles()).sum();
    let (mut linear, mut stall) = (0.0, 0.0);
    for stage in &report.stages {
        stall += stage.dropout_stall_cycles;
        if stage.name.starts_with("linear") {
            linear += stage.compute_cycles;
        }
    }
    let conv = total - linear - stall;
    let share = |k: &str| measured.get(k).copied().unwrap_or(0.0);
    let measured_conv = ["conv", "block", "norm", "act", "pool", "flatten"]
        .iter()
        .map(|k| share(k))
        .sum::<f64>();
    rep.table.push(format!(
        "[{net_name}] hw model {}: {:.3} ms modelled at S={}",
        report.design, report.latency_ms, report.samples
    ));
    rep.table.push(format!(
        "[{net_name}]   share        measured  modelled\n\
         [{net_name}]   conv stages   {:6.1}%   {:6.1}%\n\
         [{net_name}]   linear        {:6.1}%   {:6.1}%\n\
         [{net_name}]   dropout       {:6.1}%   {:6.1}%",
        100.0 * measured_conv,
        100.0 * conv / total,
        100.0 * share("linear"),
        100.0 * linear / total,
        100.0 * share("dropout"),
        100.0 * stall / total,
    ));
    for stage in &report.stages {
        rep.table.push(format!(
            "[{net_name}]   hw stage {:<36} {:6.1}% cycles (dropout stall {:5.1}%)",
            stage.name,
            100.0 * stage.total_cycles() / total,
            100.0 * stage.dropout_stall_cycles / total
        ));
    }
}
