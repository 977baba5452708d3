//! `serve_lenet_mixed`: open-loop Poisson arrivals of batch-1 LeNet
//! requests into an `nds-serve` `Server` (S=3, round-major, default
//! knobs otherwise).
//!
//! Two tenants: `plain`, and `gated` with an entropy escalation gate
//! (pilot 1) whose threshold setup fixes at the median pilot entropy of
//! the in-distribution pool, so about half its rows escalate. Requests
//! are 80% in-distribution (`mnist_like`) and 20% OOD (noise and
//! sign-flipped digits); half ask for every uncertainty diagnostic.
//!
//! Phases: a low and a high fixed offered rate, then a ladder of fixed
//! rates ~10% apart whose highest rung meeting the latency limit without
//! a growing backlog is `serve.max_rps`. Latency is timed from each
//! request's *scheduled* send time, so generator lateness counts.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use nds_adaptive::{AdaptivePolicy, EscalationPolicy, GateMetric};
use nds_data::DatasetConfig;
use nds_engine::{EngineBuilder, Execution, PredictRequest, PredictResponse, UncertaintyFlags};
use nds_nn::layers::Sequential;
use nds_serve::{ServeError, ServeRequest, Server, ServerBuilder, TenantId, TenantSpec, Ticket};
use nds_supernet::{Supernet, SupernetSpec};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor};

use crate::eval::same_response;
use crate::trace::Tracer;
use crate::{mean, median, quantile, timed_setup, Report, RunCfg, WEIGHT_SEED};

const SAMPLES: usize = 3;
const CONFIG: &str = "BKM";
/// Offered rates of the two fixed-rate phases (requests/s), set near a
/// quarter and a half of `serve.max_rps` (~5500) on the reference
/// machine and then frozen. The high rate is a half, not three
/// quarters: at 3900 req/s the tail tracked the shared machine's load
/// more than the server.
const LOW_RPS: f64 = 1300.0;
const HIGH_RPS: f64 = 2800.0;
/// The latency limit `serve.max_rps` is held to (p99, milliseconds).
const LIMIT_MS: f64 = 25.0;
/// The rate ladder: `LADDER_BASE × 1.05^k` requests/s. Rungs are 5%
/// apart: at 10% the knee of this server fell between two rungs and
/// runs alternated between them.
const LADDER_BASE: f64 = 200.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: usize = 90;
/// Rung the ladder starts from (~5000 req/s, just below the reference
/// machine's `serve.max_rps`).
const LADDER_START: usize = 66;
/// Sub-windows of the fixed-rate phases and of each ladder rung; a
/// phase's latency figure is the median over its sub-windows.
const PHASE_WINDOWS: usize = 8;
const RUNG_WINDOWS: usize = 3;
/// Requests whose served bytes are recomputed, per tenant.
const CHECKED_PER_TENANT: usize = 12;

struct ServeReq {
    tenant: usize,
    image: Tensor,
    flags: UncertaintyFlags,
    ood: bool,
}

struct ServeState {
    server: Server,
    tenants: [TenantId; 2],
    specs: [TenantSpec; 2],
    net: Sequential,
    reqs: Vec<ServeReq>,
    threshold: f64,
}

/// Results of one open-loop phase.
#[derive(Default)]
struct PhaseOut {
    sent: u64,
    ok: u64,
    failed: u64,
    refused: u64,
    /// End-to-end latency per request; failures are `+inf`.
    lat_ms: Vec<f64>,
    /// Sub-window of each `lat_ms` entry, by scheduled send time.
    window: Vec<usize>,
    windows: usize,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    handoff_ms: Vec<f64>,
    batch: Vec<f64>,
    lag_ms: Vec<f64>,
    depth_max: usize,
    depth_end: usize,
    send_window_s: f64,
    /// Gated-tenant rows: (ID rows, escalated), (OOD rows, escalated),
    /// total MC samples.
    gated_id: (u64, u64),
    gated_ood: (u64, u64),
    gated_samples: u64,
    kept: Vec<(usize, PredictResponse)>,
}

impl PhaseOut {
    /// Median over the phase's sub-windows of each window's `q`-quantile
    /// latency: one stall of the machine moves one window, not the figure.
    fn windowed(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = (0..self.windows)
            .filter_map(|w| {
                let lat: Vec<f64> = self
                    .lat_ms
                    .iter()
                    .zip(&self.window)
                    .filter(|(_, &k)| k == w)
                    .map(|(&l, _)| l)
                    .collect();
                (!lat.is_empty()).then(|| quantile(&lat, q))
            })
            .collect();
        median(&per_window)
    }
}

fn setup(cfg: &RunCfg) -> ServeState {
    let pool = if cfg.smoke { 64 } else { 500 };
    let n_id = pool * 4 / 5;
    let mut rng = Rng64::new(Rng64::derive(cfg.seed, 0x5E7E));
    let splits = nds_data::mnist_like(&DatasetConfig {
        train: 8,
        val: n_id,
        test: 8,
        seed: Rng64::derive(cfg.seed, 0xDA7A),
        noise: 0.08,
    });
    let val = &splits.val;
    let image = |i: usize| val.batch(&[i]).0;
    let noise = val.ood_noise(pool - n_id, &mut rng);
    let mut reqs: Vec<ServeReq> = Vec::with_capacity(pool);
    for i in 0..pool {
        let (image, ood) = if i < n_id {
            (image(i), false)
        } else if (i - n_id) % 2 == 0 {
            let j = i - n_id;
            let item = noise.as_slice()[j * 784..(j + 1) * 784].to_vec();
            (
                Tensor::from_vec(item, Shape::d4(1, 1, 28, 28)).expect("one image"),
                true,
            )
        } else {
            (image(rng.below(n_id)).map(|v| -v), true)
        };
        reqs.push(ServeReq {
            tenant: rng.below(2),
            image,
            flags: if rng.bernoulli(0.5) {
                UncertaintyFlags::ALL
            } else {
                UncertaintyFlags::NONE
            },
            ood,
        });
    }
    rng.shuffle(&mut reqs);

    let sn_spec =
        SupernetSpec::paper_default(nds_nn::zoo::lenet(), WEIGHT_SEED).expect("valid spec");
    let mut supernet = Supernet::build(&sn_spec).expect("supernet builds");
    supernet
        .set_config(&CONFIG.parse().expect("valid config"))
        .expect("config in space");
    let net = supernet.net().clone();

    // The gate's threshold: median pilot entropy over the ID pool,
    // each image served alone as the server will serve it.
    let gated_seed = 17;
    let mut pilot = EngineBuilder::new(net.clone())
        .samples(1)
        .seed(gated_seed)
        .build();
    let entropies: Vec<f64> = reqs
        .iter()
        .filter(|r| !r.ood)
        .map(|r| {
            let resp = pilot
                .predict(&PredictRequest::new(&r.image).with_outputs(UncertaintyFlags::ENTROPY))
                .expect("pilot predict");
            resp.entropy.expect("entropy requested")[0]
        })
        .collect();
    let threshold = median(&entropies);

    let plain = TenantSpec {
        seed: 0,
        samples: SAMPLES,
        ..TenantSpec::default()
    };
    let gated = TenantSpec {
        seed: gated_seed,
        samples: SAMPLES,
        adaptive: AdaptivePolicy::escalate(EscalationPolicy {
            metric: GateMetric::PredictiveEntropy,
            threshold,
            pilot: 1,
        }),
    };
    let mut builder = ServerBuilder::new(net.clone()).execution(Execution::RoundMajor);
    let tenants = [builder.tenant(plain.clone()), builder.tenant(gated.clone())];
    let server = builder.build();
    // Warm-up, closed loop: every tenant engine serves a few requests.
    for r in reqs.iter().take(if cfg.smoke { 4 } else { 32 }) {
        let ticket = server
            .submit(
                tenants[r.tenant],
                ServeRequest::new(r.image.clone()).with_outputs(r.flags),
            )
            .expect("warm-up submit");
        ticket.wait().expect("warm-up request");
    }
    ServeState {
        server,
        tenants,
        specs: [plain, gated],
        net,
        reqs,
        threshold,
    }
}

/// Pacing: sleep until the scheduled instant (sleeping, not spinning,
/// so the generator leaves the cores to the server).
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

struct Sent {
    seq: u64,
    idx: usize,
    scheduled: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// One open-loop phase at `rate` requests/s for `window` of sending,
/// split into `windows` equal sub-windows for the latency figures.
/// `keep` marks the requests whose responses are kept for the checks.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    state: &ServeState,
    rate: f64,
    window: Duration,
    windows: usize,
    rng: &mut Rng64,
    seq0: u64,
    keep: &(dyn Fn(u64) -> bool + Sync),
    gen_lane: &mut Tracer,
    col_lane: &mut Tracer,
) -> PhaseOut {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut out = PhaseOut {
        windows,
        ..PhaseOut::default()
    };
    let start = Instant::now();
    let sub_window = window.as_secs_f64() / windows as f64;
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut out = PhaseOut::default();
            for msg in rx {
                let w = ((msg.scheduled - start).as_secs_f64() / sub_window) as usize;
                out.window.push(w.min(windows - 1));
                let ticket = match msg.ticket {
                    Ok(t) => t,
                    Err(e) => {
                        out.failed += 1;
                        out.refused += u64::from(matches!(e, ServeError::Overloaded { .. }));
                        out.lat_ms.push(f64::INFINITY);
                        continue;
                    }
                };
                match ticket.wait() {
                    Ok(resp) => {
                        let done = Instant::now();
                        let lat = (done - msg.scheduled).as_secs_f64() * 1e3;
                        let t = &resp.timing;
                        out.ok += 1;
                        out.lat_ms.push(lat);
                        out.queue_ms.push(t.queue_wait_ms);
                        out.service_ms.push(t.service_ms);
                        out.handoff_ms.push(lat - t.queue_wait_ms - t.service_ms);
                        out.batch.push(t.batch_size as f64);
                        if col_lane.is_on() {
                            let q_end =
                                msg.submitted + Duration::from_secs_f64(t.queue_wait_ms / 1e3);
                            let s_end = q_end + Duration::from_secs_f64(t.service_ms / 1e3);
                            col_lane.span("serve.request", msg.seq, msg.scheduled, done.max(s_end));
                            col_lane.span("serve.queue", msg.seq, msg.submitted, q_end);
                            col_lane.span("engine.predict", msg.seq, q_end, s_end);
                        }
                        let r = &state.reqs[msg.idx];
                        if r.tenant == 1 {
                            if let Some(rows) = &resp.prediction.row_samples {
                                let esc = rows.iter().filter(|&&s| s > 1).count() as u64;
                                let slot = if r.ood {
                                    &mut out.gated_ood
                                } else {
                                    &mut out.gated_id
                                };
                                slot.0 += rows.len() as u64;
                                slot.1 += esc;
                                out.gated_samples += rows.iter().sum::<usize>() as u64;
                            }
                        }
                        if keep(msg.seq) {
                            out.kept.push((msg.idx, resp.prediction));
                        }
                    }
                    Err(_) => {
                        out.failed += 1;
                        out.lat_ms.push(f64::INFINITY);
                    }
                }
            }
            out
        });

        let end = start + window;
        let mut next = start;
        let mut seq = seq0;
        loop {
            // Exponential inter-arrival gaps: Poisson arrivals.
            let gap = -(1.0 - rng.uniform()).ln() / rate;
            next += Duration::from_secs_f64(gap);
            if next >= end {
                break;
            }
            wait_until(next);
            let idx = rng.below(state.reqs.len());
            let r = &state.reqs[idx];
            let sent_at = Instant::now();
            out.lag_ms.push((sent_at - next).as_secs_f64() * 1e3);
            let ticket = state.server.submit(
                state.tenants[r.tenant],
                ServeRequest::new(r.image.clone()).with_outputs(r.flags),
            );
            let submitted = Instant::now();
            gen_lane.span("serve.submit", seq, sent_at, submitted);
            let depth = state.server.queue_depth();
            out.depth_max = out.depth_max.max(depth);
            out.depth_end = depth;
            out.sent += 1;
            let msg = Sent {
                seq,
                idx,
                scheduled: next,
                submitted,
                ticket,
            };
            if tx.send(msg).is_err() {
                break;
            }
            seq += 1;
        }
        out.send_window_s = start.elapsed().as_secs_f64().min(window.as_secs_f64());
        drop(tx);
        let got = collector.join().expect("collector thread");
        out.ok = got.ok;
        out.failed = got.failed;
        out.refused = got.refused;
        out.lat_ms = got.lat_ms;
        out.window = got.window;
        out.queue_ms = got.queue_ms;
        out.service_ms = got.service_ms;
        out.handoff_ms = got.handoff_ms;
        out.batch = got.batch;
        out.gated_id = got.gated_id;
        out.gated_ood = got.gated_ood;
        out.gated_samples = got.gated_samples;
        out.kept = got.kept;
    });
    out
}

pub fn run(cfg: &RunCfg, rep: &mut Report) {
    let (state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg));
    rep.config("arch", "lenet");
    rep.config("dropout_config", CONFIG);
    rep.config("samples", SAMPLES);
    rep.config("execution", "round-major");
    rep.config(
        "loop",
        format!("open, Poisson; fixed rates {LOW_RPS} and {HIGH_RPS} req/s, then a ladder"),
    );
    rep.config("latency_limit_p99_ms", LIMIT_MS);
    rep.config("gate_threshold_nats", format!("{:.6}", state.threshold));
    rep.config("request_pool", state.reqs.len());
    rep.config("max_batch", state.server.max_batch());
    rep.config("max_wait_ms", state.server.max_wait_ms());

    let origin = Instant::now();
    let mut gen_lane = Tracer::new(cfg.traced, origin);
    let mut col_lane = gen_lane.lane();
    let mut rng = Rng64::new(Rng64::derive(cfg.seed, 0xA551));
    let secs = cfg.seconds;
    // Requests kept for the byte checks: a seeded sample of the low phase.
    let pick = Rng64::derive(cfg.seed, 0xC4EC);
    let keep_low = move |seq: u64| Rng64::derive(pick, seq).is_multiple_of(8);
    let never = |_: u64| false;

    let low = run_phase(
        &state,
        LOW_RPS,
        Duration::from_secs_f64(0.2 * secs),
        PHASE_WINDOWS,
        &mut rng,
        0,
        &keep_low,
        &mut gen_lane,
        &mut col_lane,
    );
    let high = run_phase(
        &state,
        HIGH_RPS,
        Duration::from_secs_f64(0.3 * secs),
        PHASE_WINDOWS,
        &mut rng,
        1_000_000,
        &never,
        &mut gen_lane,
        &mut col_lane,
    );
    rep.phase("low", low.sent, low.ok, low.failed);
    rep.phase("high", high.sent, high.ok, high.failed);

    // The ladder: climb from the start rung while rungs pass, descend
    // while they fail; stop at the first change of direction. A failing
    // rung is run once more before it counts: a stall of the machine
    // passes, saturation does not.
    let ladder_budget = Duration::from_secs_f64(0.5 * secs);
    let rung_window = Duration::from_secs_f64((0.075 * secs).max(0.2));
    let ladder_start = Instant::now();
    let mut idx = LADDER_START;
    let mut best: Option<f64> = None;
    let mut failed_rung: Option<usize> = None;
    let mut retried = false;
    let mut seq0 = 2_000_000;
    loop {
        let rate = LADDER_BASE * LADDER_STEP.powi(idx as i32);
        let out = run_phase(
            &state,
            rate,
            rung_window,
            RUNG_WINDOWS,
            &mut rng,
            seq0,
            &never,
            &mut gen_lane,
            &mut col_lane,
        );
        seq0 += 1_000_000;
        let p99 = out.windowed(0.99);
        let lag_p99 = quantile(&out.lag_ms, 0.99);
        let backlog_ok = (out.depth_end as f64)
            <= (2.0 * state.server.max_batch() as f64).max(rate * LIMIT_MS / 1e3);
        // A generator that fell behind did not offer the rung's rate: it
        // sent fewer requests than the Poisson count allows (3 sigma).
        let expected = rate * rung_window.as_secs_f64();
        let valid = out.sent as f64 >= expected - 3.0 * expected.sqrt();
        let pass = p99 <= LIMIT_MS && backlog_ok && valid && out.failed == 0;
        let achieved = out.sent as f64 / out.send_window_s;
        rep.table.push(format!(
            "[serve] rung {idx:2} {rate:8.1} req/s offered {achieved:8.1} sent/s: p99 {p99:8.3} ms, \
             backlog {}, gen lag p99 {lag_p99:.3} ms{} -> {}",
            out.depth_end,
            if valid { "" } else { " (invalid: generator fell behind)" },
            if pass { "pass" } else { "fail" }
        ));
        let attempt = if retried { "_retry" } else { "" };
        rep.phase(format!("rung{idx}{attempt}"), out.sent, out.ok, out.failed);
        if pass {
            best = Some(achieved);
            retried = false;
            if failed_rung == Some(idx + 1) || idx + 1 >= LADDER_RUNGS {
                break;
            }
            idx += 1;
        } else if !retried {
            retried = true;
        } else {
            retried = false;
            failed_rung = Some(idx);
            if best.is_some() || idx == 0 {
                break;
            }
            // Nothing has passed yet: the machine is slower than the
            // reference, so descend in bigger steps (~14%).
            idx = idx.saturating_sub(3);
        }
        if ladder_start.elapsed() >= ladder_budget {
            break;
        }
    }
    // If the budget ran out before any rung passed, the high phase is
    // the highest rate known to meet the limit.
    let high_rate = high.sent as f64 / high.send_window_s;
    let max_rps = best.unwrap_or(if high.windowed(0.99) <= LIMIT_MS {
        high_rate
    } else {
        f64::NAN
    });

    // Byte checks, outside the timed windows: each kept response against
    // a standalone engine serving the same request alone.
    let mut engines: Vec<_> = state
        .specs
        .iter()
        .map(|spec| {
            EngineBuilder::new(state.net.clone())
                .samples(spec.samples)
                .seed(spec.seed)
                .adaptive(spec.adaptive.clone())
                .build()
        })
        .collect();
    let mut per_tenant = [0usize; 2];
    let (mut compared, mut wrong) = (0u64, 0u64);
    for (idx, served) in &low.kept {
        let r = &state.reqs[*idx];
        if per_tenant[r.tenant] >= CHECKED_PER_TENANT {
            continue;
        }
        per_tenant[r.tenant] += 1;
        let alone = engines[r.tenant].predict(&PredictRequest::new(&r.image).with_outputs(r.flags));
        compared += 1;
        wrong += u64::from(!alone.is_ok_and(|a| same_response(&a, served)));
    }
    rep.check(
        "served_bytes_equal_standalone_engine",
        compared,
        wrong,
        format!(
            "{} plain and {} gated responses",
            per_tenant[0], per_tenant[1]
        ),
    );

    let sent = low.sent + high.sent;
    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", low.windowed(0.5), "ms");
    // p90, not p99: on a shared machine the p99 of a 20 s run tracks the
    // machine's stalls more than the server (see README.md).
    rep.metric("tail_ms", high.windowed(0.9), "ms");
    rep.metric("throughput_per_s", max_rps, "1/s");
    rep.metric("serve.low.p50_ms", low.windowed(0.5), "ms");
    rep.metric("serve.low.p99_ms", low.windowed(0.99), "ms");
    rep.metric("serve.high.p50_ms", high.windowed(0.5), "ms");
    rep.metric("serve.high.p99_ms", high.windowed(0.99), "ms");
    rep.metric("serve.high.p90_ms", high.windowed(0.9), "ms");
    rep.metric("serve.max_rps", max_rps, "1/s");
    rep.metric("serve.low.requests", low.lat_ms.len() as f64, "count");
    rep.metric("serve.high.requests", high.lat_ms.len() as f64, "count");
    let lag = quantile(&low.lag_ms, 0.99).max(quantile(&high.lag_ms, 0.99));

    // Per-layer numbers come from ServeTiming and the generator, so they
    // are available untraced too.
    let put = |rep: &mut Report, name: &str, v: f64, unit: &'static str| {
        if cfg.traced {
            rep.layer(name, v, unit);
        } else {
            rep.metric(name, v, unit);
        }
    };
    put(rep, "serve.queue_wait_p50_ms", median(&high.queue_ms), "ms");
    put(
        rep,
        "serve.queue_wait_p99_ms",
        quantile(&high.queue_ms, 0.99),
        "ms",
    );
    put(rep, "serve.service_p50_ms", median(&low.service_ms), "ms");
    put(rep, "serve.handoff_p50_ms", median(&low.handoff_ms), "ms");
    put(rep, "serve.batch_mean", mean(&high.batch), "count");
    put(rep, "serve.queue_depth_max", high.depth_max as f64, "count");
    put(
        rep,
        "serve.overloaded_frac",
        (low.refused + high.refused) as f64 / sent.max(1) as f64,
        "frac",
    );
    put(rep, "serve.gen_lag_p99_ms", lag, "ms");
    let (id_rows, id_esc) = (
        low.gated_id.0 + high.gated_id.0,
        low.gated_id.1 + high.gated_id.1,
    );
    let (ood_rows, ood_esc) = (
        low.gated_ood.0 + high.gated_ood.0,
        low.gated_ood.1 + high.gated_ood.1,
    );
    put(
        rep,
        "adaptive.escalation_rate.id",
        id_esc as f64 / id_rows.max(1) as f64,
        "frac",
    );
    put(
        rep,
        "adaptive.escalation_rate.ood",
        ood_esc as f64 / ood_rows.max(1) as f64,
        "frac",
    );
    put(
        rep,
        "engine.samples_per_row",
        (low.gated_samples + high.gated_samples) as f64 / (id_rows + ood_rows).max(1) as f64,
        "count",
    );

    if cfg.traced {
        gen_lane.absorb(col_lane);
        gen_lane.link();
        let coverage = gen_lane.coverage();
        rep.layer("trace.coverage.serve", coverage, "frac");
        rep.table.push(format!(
            "[serve] spans cover {:.1}% of request time (the rest is handoff)",
            100.0 * coverage
        ));
        rep.spans.push(("serve".to_string(), gen_lane));
    }
    state.server.shutdown();
}
