//! `search_lenet_campaign`: a short SPOS `train_spos` of a LeNet
//! supernet on `mnist_like`, then a 2-island evolution `Campaign`
//! (migrate every step, exact accelerator-model latency) over a
//! validation split. Cycles of (train, campaign) repeat, each from its
//! own derived seed, until the time budget is spent.
//!
//! Candidate scoring runs through `SupernetEvaluator`, wrapped in a
//! timing `Evaluator` handed to `SearchBuilder::with_evaluator`, so every
//! `evaluate_many` call is timed from outside. Island steps and the
//! epoch barrier are delimited by the campaign's observer callbacks.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use nds_campaign::{island_seed, Campaign, CampaignEvent};
use nds_data::{Dataset, DatasetConfig};
use nds_hw::accel::{AcceleratorConfig, AcceleratorModel};
use nds_nn::train::TrainConfig;
use nds_search::{
    Candidate, Evaluator, EvolutionConfig, LatencyProvider, ParetoArchive, SearchBuilder,
    SearchSession, Strategy, SupernetEvaluator,
};
use nds_supernet::{DropoutConfig, Supernet, SupernetSpec};
use nds_tensor::rng::Rng64;
use nds_tensor::Tensor;

use crate::trace::Tracer;
use crate::{median, quantile, timed_setup, Report, RunCfg, WEIGHT_SEED};

const ISLANDS: usize = 2;
const POPULATION: usize = 6;
const GENERATIONS: usize = 3;
const EVAL_BATCH: usize = 64;

struct SearchState {
    spec: SupernetSpec,
    train: Dataset,
    val: Dataset,
    ood: Tensor,
    latency: LatencyProvider,
    model: AcceleratorModel,
}

fn setup(cfg: &RunCfg) -> SearchState {
    let splits = nds_data::mnist_like(&DatasetConfig {
        train: if cfg.smoke { 64 } else { 256 },
        val: if cfg.smoke { 32 } else { 128 },
        test: 8,
        seed: Rng64::derive(cfg.seed, 0x5EA2),
        noise: 0.08,
    });
    let mut rng = Rng64::new(Rng64::derive(cfg.seed, 0x00D));
    let ood = splits.val.ood_noise(64, &mut rng);
    let spec = SupernetSpec::paper_default(nds_nn::zoo::lenet(), WEIGHT_SEED).expect("valid spec");
    // Warm-up: one supernet built and one candidate scored, so shape
    // inference, workspace pools and allocator paths are warm.
    let mut warm = Supernet::build(&spec).expect("supernet builds");
    let first = spec.enumerate().swap_remove(0);
    warm.evaluate(&first, &splits.val, &ood, EVAL_BATCH)
        .expect("warm-up evaluation");
    let model = AcceleratorModel::new(AcceleratorConfig::lenet_paper());
    SearchState {
        spec,
        train: splits.train,
        val: splits.val,
        ood,
        latency: LatencyProvider::Exact {
            model: model.clone(),
            arch: nds_nn::zoo::lenet(),
        },
        model,
    }
}

/// What the timing wrapper and the observer accumulate.
#[derive(Default)]
struct Log {
    tracer: Option<Tracer>,
    cycle: u64,
    /// Per `evaluate_many` call: (milliseconds, fresh evaluations).
    calls: Vec<(f64, usize)>,
    /// Evaluation nanoseconds since the last island step ended.
    step_eval_ns: u64,
}

/// Times every call into the wrapped evaluator.
struct Timed<'e, 'a> {
    inner: &'e mut SupernetEvaluator<'a>,
    log: Rc<RefCell<Log>>,
}

impl Timed<'_, '_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut SupernetEvaluator<'_>) -> T) -> T {
        let before = self.inner.fresh_evaluations();
        let t0 = Instant::now();
        let out = f(self.inner);
        let t1 = Instant::now();
        let fresh = self.inner.fresh_evaluations() - before;
        let mut log = self.log.borrow_mut();
        let cycle = log.cycle;
        log.calls.push(((t1 - t0).as_secs_f64() * 1e3, fresh));
        log.step_eval_ns += (t1 - t0).as_nanos() as u64;
        if let Some(tracer) = log.tracer.as_mut() {
            tracer.span("search.evaluate", cycle, t0, t1);
        }
        out
    }
}

// `SearchError` is the workspace's own error type; its size is not this
// wrapper's to change.
#[allow(clippy::result_large_err)]
impl Evaluator for Timed<'_, '_> {
    fn evaluate(&mut self, config: &DropoutConfig) -> nds_search::Result<Candidate> {
        self.timed(|e| e.evaluate(config))
    }

    fn evaluate_many(&mut self, configs: &[DropoutConfig]) -> nds_search::Result<Vec<Candidate>> {
        self.timed(|e| e.evaluate_many(configs))
    }

    fn fresh_evaluations(&self) -> usize {
        self.inner.fresh_evaluations()
    }
}

/// One (train, campaign) cycle's measurements.
struct Cycle {
    train_s: f64,
    train_steps: usize,
    train_images: usize,
    fork_ms: Vec<f64>,
    campaign_s: f64,
    fresh: usize,
    steps: usize,
    epoch_ms: Vec<f64>,
    barrier_ms: Vec<f64>,
    step_overhead_ms: Vec<f64>,
    /// Merged archive, bit-exact.
    fingerprint: String,
    best_recheck_ok: Option<bool>,
}

fn archive_fingerprint(archive: &ParetoArchive) -> String {
    let mut out = String::new();
    for c in archive.candidates() {
        let _ = write!(
            out,
            "{}:{:016x}:{:016x}:{:016x}:{:016x};",
            c.config.compact(),
            c.metrics.accuracy.to_bits(),
            c.metrics.ece.to_bits(),
            c.metrics.ape.to_bits(),
            c.latency_ms.to_bits()
        );
    }
    out
}

fn run_cycle(state: &SearchState, cycle_seed: u64, log: &Rc<RefCell<Log>>, recheck: bool) -> Cycle {
    let mut supernet = Supernet::build(&state.spec).expect("supernet builds");
    let train_cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut rng = Rng64::new(cycle_seed);
    let t0 = Instant::now();
    supernet
        .train_spos(&state.train, &train_cfg, &mut rng)
        .expect("SPOS training");
    let t1 = Instant::now();
    let cycle_id = log.borrow().cycle;
    if let Some(tr) = log.borrow_mut().tracer.as_mut() {
        tr.span("supernet.train_spos", cycle_id, t0, t1);
    }

    let mut fork_ms = Vec::new();
    let mut forks: Vec<Supernet> = (0..ISLANDS)
        .map(|_| {
            let t = Instant::now();
            let f = supernet.fork().expect("fork");
            let end = Instant::now();
            fork_ms.push((end - t).as_secs_f64() * 1e3);
            if let Some(tr) = log.borrow_mut().tracer.as_mut() {
                tr.span("supernet.fork", cycle_id, t, end);
            }
            f
        })
        .collect();
    let mut evaluators: Vec<SupernetEvaluator<'_>> = forks
        .iter_mut()
        .map(|f| {
            SupernetEvaluator::new(
                f,
                &state.val,
                state.ood.clone(),
                state.latency.clone(),
                EVAL_BATCH,
            )
        })
        .collect();
    let mut wrappers: Vec<Timed<'_, '_>> = evaluators
        .iter_mut()
        .map(|inner| Timed {
            inner,
            log: Rc::clone(log),
        })
        .collect();
    let mut sessions: Vec<SearchSession<'_>> = wrappers
        .iter_mut()
        .enumerate()
        .map(|(i, w)| {
            SearchBuilder::with_evaluator(w, state.spec.clone())
                .strategy(Strategy::Evolution(EvolutionConfig {
                    population: POPULATION,
                    generations: GENERATIONS,
                    parents: POPULATION / 2,
                    seed: island_seed(cycle_seed, i),
                    ..EvolutionConfig::default()
                }))
                .build()
                .expect("island session builds")
        })
        .collect();

    let mut campaign = Campaign::new(&mut sessions, 1).expect("campaign builds");
    let mut epoch_ms = Vec::new();
    let mut barrier_ms = Vec::new();
    let mut step_overhead_ms = Vec::new();
    let mut steps = 0;
    log.borrow_mut().step_eval_ns = 0;
    let c0 = Instant::now();
    while !campaign.is_finished() {
        let e0 = Instant::now();
        let mut last = e0;
        campaign
            .run_epoch(|event| {
                let now = Instant::now();
                let mut log = log.borrow_mut();
                let name = match event {
                    CampaignEvent::IslandStep { .. } => {
                        steps += 1;
                        let eval_ms = log.step_eval_ns as f64 / 1e6;
                        step_overhead_ms.push((now - last).as_secs_f64() * 1e3 - eval_ms);
                        log.step_eval_ns = 0;
                        "search.step"
                    }
                    CampaignEvent::Migration { .. } => {
                        barrier_ms.push((now - last).as_secs_f64() * 1e3);
                        "campaign.merge"
                    }
                };
                if let Some(tr) = log.tracer.as_mut() {
                    tr.span(name, cycle_id, last, now);
                }
                last = now;
            })
            .expect("campaign epoch");
        let e1 = Instant::now();
        epoch_ms.push((e1 - e0).as_secs_f64() * 1e3);
        if let Some(tr) = log.borrow_mut().tracer.as_mut() {
            tr.span("campaign.epoch", cycle_id, e0, e1);
        }
    }
    let campaign_s = c0.elapsed().as_secs_f64();
    let fresh = campaign.budget_spent();
    let outcome = campaign.outcome().expect("campaign outcome");

    // The best candidate re-evaluated on a fresh fork must give the
    // archived metrics bit for bit (outside the timed window).
    let best_recheck_ok = recheck.then(|| {
        let best = &outcome.best;
        let mut fork = supernet.fork().expect("fork");
        let metrics = fork
            .evaluate(&best.config, &state.val, &state.ood, EVAL_BATCH)
            .expect("re-evaluation");
        let latency = state.latency.latency_ms(&best.config).expect("latency");
        metrics.accuracy.to_bits() == best.metrics.accuracy.to_bits()
            && metrics.ece.to_bits() == best.metrics.ece.to_bits()
            && metrics.ape.to_bits() == best.metrics.ape.to_bits()
            && latency.to_bits() == best.latency_ms.to_bits()
    });
    Cycle {
        train_s: (t1 - t0).as_secs_f64(),
        train_steps: state.train.len().div_ceil(train_cfg.batch_size),
        train_images: state.train.len(),
        fork_ms,
        campaign_s,
        fresh,
        steps,
        epoch_ms,
        barrier_ms,
        step_overhead_ms,
        fingerprint: archive_fingerprint(&outcome.archive),
        best_recheck_ok,
    }
}

pub fn run(cfg: &RunCfg, rep: &mut Report) {
    let (state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg));
    rep.config("arch", "lenet");
    rep.config(
        "space",
        format!("paper default, {} configs", state.spec.space_size()),
    );
    rep.config("islands", ISLANDS);
    rep.config("migrate_every", 1);
    rep.config("population", POPULATION);
    rep.config("generations", GENERATIONS);
    rep.config("train_images", state.train.len());
    rep.config("val_images", state.val.len());
    rep.config("latency_provider", "exact accelerator model");
    rep.config("loop", "closed, 1 caller: (train, campaign) cycles");

    let origin = Instant::now();
    let log = Rc::new(RefCell::new(Log {
        tracer: cfg.traced.then(|| Tracer::new(true, origin)),
        ..Log::default()
    }));
    let budget = cfg.seconds;
    let min_cycles = if cfg.smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut cycles = Vec::new();
    while start.elapsed().as_secs_f64() < budget || cycles.len() < min_cycles {
        let c = cycles.len() as u64;
        log.borrow_mut().cycle = c;
        let cycle_start = Instant::now();
        cycles.push(run_cycle(&state, Rng64::derive(cfg.seed, c), &log, c == 0));
        if let Some(tr) = log.borrow_mut().tracer.as_mut() {
            tr.span("search.cycle", c, cycle_start, Instant::now());
        }
    }
    let ops: u64 = cycles
        .iter()
        .map(|c| (c.fresh + c.train_steps) as u64)
        .sum();
    rep.phase("cycles", ops, ops, 0);
    let recheck = cycles[0].best_recheck_ok == Some(true);
    rep.check(
        "best_candidate_reevaluates_bit_equal",
        1,
        u64::from(!recheck),
        "best of cycle 0 on a fresh fork".to_string(),
    );
    rep.fingerprint = Some(cycles[0].fingerprint.clone());

    let per_candidate_ms: Vec<f64> = log
        .borrow()
        .calls
        .iter()
        .filter(|(_, fresh)| *fresh > 0)
        .map(|(ms, fresh)| ms / *fresh as f64)
        .collect();
    let cands_per_s: Vec<f64> = cycles
        .iter()
        .map(|c| c.fresh as f64 / c.campaign_s)
        .collect();
    let train_ips: Vec<f64> = cycles
        .iter()
        .map(|c| c.train_images as f64 / c.train_s)
        .collect();
    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", median(&per_candidate_ms), "ms");
    // The tail is over cycles: per call, a call left with one fresh
    // candidate runs on one core and doubles its per-candidate time.
    let cycle_ms_per_candidate: Vec<f64> = cycles
        .iter()
        .map(|c| c.campaign_s * 1e3 / c.fresh.max(1) as f64)
        .collect();
    rep.metric("tail_ms", quantile(&cycle_ms_per_candidate, 0.9), "ms");
    rep.metric("throughput_per_s", median(&cands_per_s), "1/s");
    rep.metric("search.candidates_per_s", median(&cands_per_s), "1/s");
    rep.metric("search.train_images_per_s", median(&train_ips), "1/s");
    rep.metric("search.cycles", cycles.len() as f64, "count");

    if cfg.traced {
        let eval_ms: f64 = log.borrow().calls.iter().map(|(ms, _)| ms).sum();
        let fresh: usize = cycles.iter().map(|c| c.fresh).sum();
        let steps: usize = cycles.iter().map(|c| c.steps).sum();
        let collect =
            |f: &dyn Fn(&Cycle) -> Vec<f64>| -> Vec<f64> { cycles.iter().flat_map(f).collect() };
        rep.layer(
            "supernet.train_step_ms",
            median(&collect(&|c| vec![c.train_s * 1e3 / c.train_steps as f64])),
            "ms",
        );
        rep.layer(
            "supernet.fork_ms",
            median(&collect(&|c| c.fork_ms.clone())),
            "ms",
        );
        rep.layer("supernet.set_config_ms", set_config_ms(&state), "ms");
        rep.layer(
            "search.eval_ms_per_candidate",
            eval_ms / fresh.max(1) as f64,
            "ms",
        );
        rep.layer(
            "search.step_overhead_ms",
            median(&collect(&|c| c.step_overhead_ms.clone())),
            "ms",
        );
        rep.layer(
            "search.fresh_frac",
            fresh as f64 / (steps * POPULATION).max(1) as f64,
            "frac",
        );
        rep.layer(
            "campaign.epoch_p50_ms",
            median(&collect(&|c| c.epoch_ms.clone())),
            "ms",
        );
        rep.layer(
            "campaign.merge_ms",
            median(&collect(&|c| c.barrier_ms.clone())),
            "ms",
        );
        rep.layer("hw.analyze_us", analyze_us(&state), "us");
        let mut tracer = log.borrow_mut().tracer.take().expect("traced");
        tracer.link();
        let coverage = tracer.coverage();
        rep.layer("trace.coverage.search", coverage, "frac");
        rep.table.push(format!(
            "[search] spans cover {:.1}% of cycle time",
            100.0 * coverage
        ));
        rep.spans.push(("search".to_string(), tracer));
    }
}

/// Mean milliseconds of one `Supernet::set_config` over the space.
fn set_config_ms(state: &SearchState) -> f64 {
    let mut supernet = Supernet::build(&state.spec).expect("supernet builds");
    let configs = state.spec.enumerate();
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        for c in &configs {
            supernet
                .set_config(std::hint::black_box(c))
                .expect("in space");
        }
    }
    t0.elapsed().as_secs_f64() * 1e3 / (reps * configs.len()) as f64
}

/// Median microseconds of one `AcceleratorModel::analyze` over the space.
fn analyze_us(state: &SearchState) -> f64 {
    let arch = nds_nn::zoo::lenet();
    let times: Vec<f64> = state
        .spec
        .enumerate()
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            std::hint::black_box(state.model.analyze(&arch, c).expect("design analyzes"));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
