//! `SearchSession` integration suite: the unified search API is the sole
//! entry point to the search phase (the legacy `evolve` / `random_search`
//! / `evaluate_all` free functions are gone), and its checkpoint/resume
//! must be byte-exact.
//!
//! Three groups of guarantees:
//!
//! 1. **Run determinism** — rebuilding a session with the same strategy,
//!    aim and seed reproduces byte-identical results (best candidate,
//!    archive order and contents, per-generation history) with the same
//!    evaluation budget; exhaustive runs follow `enumerate` order.
//! 2. **Resume determinism** — property test: snapshotting after *k*
//!    steps, serialising through the JSON checkpoint format, and
//!    resuming with a *fresh* evaluator reproduces the uninterrupted
//!    run byte for byte (the CI `NDS_THREADS={1,4}` matrix re-runs this
//!    under both pool sizes). Exercised over synthetic evaluators and
//!    over a real supernet rebuilt from its spec — the process-restart
//!    scenario.
//! 3. **Typed checkpoint failures** — corrupted JSON and version
//!    mismatches surface as `SearchError::Checkpoint`, never a panic.

use neural_dropout_search::data::{mnist_like, DatasetConfig};
use neural_dropout_search::search::{
    Candidate, Evaluator, EvolutionConfig, EvolutionResult, GenerationStats, RandomSearchConfig,
    SearchAim, SearchBuilder, SearchError, SearchEvent, SearchOutcome, Strategy,
};
use neural_dropout_search::supernet::{CandidateMetrics, DropoutConfig, Supernet, SupernetSpec};
use neural_dropout_search::{nn::zoo, search};
use proptest::prelude::*;
use std::collections::HashMap;

/// Synthetic evaluator with a planted optimum (accuracy = fraction of
/// slots matching a target config); deterministic and memoised like the
/// real supernet evaluator.
struct PlantedEvaluator {
    target: DropoutConfig,
    fresh: usize,
    cache: HashMap<String, Candidate>,
}

impl PlantedEvaluator {
    fn new(target: &str) -> Self {
        PlantedEvaluator {
            target: target.parse().unwrap(),
            fresh: 0,
            cache: HashMap::new(),
        }
    }
}

impl Evaluator for PlantedEvaluator {
    fn evaluate(&mut self, config: &DropoutConfig) -> search::Result<Candidate> {
        if let Some(hit) = self.cache.get(&config.compact()) {
            return Ok(hit.clone());
        }
        self.fresh += 1;
        let matches = config
            .kinds()
            .iter()
            .zip(self.target.kinds())
            .filter(|(a, b)| a == b)
            .count();
        // Slightly config-dependent ECE/aPE/latency so the Pareto
        // archive and the aim weights have real structure to chew on.
        let spread = config.compact().bytes().map(u64::from).sum::<u64>() as f64;
        let candidate = Candidate {
            config: config.clone(),
            metrics: CandidateMetrics {
                accuracy: matches as f64 / config.len() as f64,
                ece: 0.02 + (spread % 7.0) / 100.0,
                ape: 0.3 + (spread % 11.0) / 20.0,
            },
            latency_ms: 1.0 + (spread % 5.0) / 10.0,
        };
        self.cache.insert(config.compact(), candidate.clone());
        Ok(candidate)
    }

    fn fresh_evaluations(&self) -> usize {
        self.fresh
    }
}

fn lenet_spec() -> SupernetSpec {
    SupernetSpec::paper_default(zoo::lenet(), 1).unwrap()
}

fn assert_results_identical(a: &EvolutionResult, b: &EvolutionResult, what: &str) {
    assert_eq!(a.best, b.best, "{what}: best candidate diverged");
    assert_eq!(a.archive, b.archive, "{what}: archive diverged");
    assert_eq!(a.history, b.history, "{what}: history diverged");
}

fn outcome_as_result(outcome: SearchOutcome) -> EvolutionResult {
    outcome.into()
}

#[test]
fn evolution_runs_are_byte_identical_across_session_rebuilds() {
    let spec = lenet_spec();
    let config = EvolutionConfig {
        population: 10,
        generations: 6,
        parents: 4,
        seed: 0xEA,
        ..Default::default()
    };
    let aim = SearchAim::weighted("blend", 1.0, 2.0, 0.5, 0.1);
    let mut first_eval = PlantedEvaluator::new("KRM");
    let mut first = SearchBuilder::with_evaluator(&mut first_eval, spec.clone())
        .strategy(Strategy::Evolution(config))
        .aim(aim.clone())
        .build()
        .unwrap();
    let first = outcome_as_result(first.run().unwrap());
    let mut second_eval = PlantedEvaluator::new("KRM");
    let mut second = SearchBuilder::with_evaluator(&mut second_eval, spec.clone())
        .strategy(Strategy::Evolution(config))
        .aim(aim)
        .build()
        .unwrap();
    let second = outcome_as_result(second.run().unwrap());
    assert_results_identical(&first, &second, "evolution rebuild");
    assert_eq!(
        first_eval.fresh_evaluations(),
        second_eval.fresh_evaluations(),
        "both runs must consume the same evaluation budget"
    );
}

#[test]
fn random_runs_are_byte_identical_across_session_rebuilds() {
    let spec = lenet_spec();
    let config = RandomSearchConfig {
        budget: 20,
        seed: 0x5EED,
    };
    let aim = SearchAim::ece_optimal();
    let mut first_eval = PlantedEvaluator::new("BKM");
    let mut first = SearchBuilder::with_evaluator(&mut first_eval, spec.clone())
        .strategy(Strategy::Random(config))
        .aim(aim.clone())
        .build()
        .unwrap();
    let first = outcome_as_result(first.run().unwrap());
    let mut second_eval = PlantedEvaluator::new("BKM");
    let mut second = SearchBuilder::with_evaluator(&mut second_eval, spec.clone())
        .strategy(Strategy::Random(config))
        .aim(aim)
        .build()
        .unwrap();
    let second = outcome_as_result(second.run().unwrap());
    assert_results_identical(&first, &second, "random rebuild");
}

#[test]
fn exhaustive_session_preserves_enumeration_order() {
    let spec = lenet_spec();
    let mut evaluator = PlantedEvaluator::new("MKB");
    let mut session = SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
        .strategy(Strategy::Exhaustive)
        .build()
        .unwrap();
    let archive = session.run().unwrap().archive.into_candidates();
    let expect: Vec<String> = spec.enumerate().iter().map(|c| c.compact()).collect();
    let got: Vec<String> = archive.iter().map(|c| c.config.compact()).collect();
    assert_eq!(
        expect, got,
        "exhaustive archive must follow enumerate order"
    );
    assert_eq!(evaluator.fresh_evaluations(), spec.space_size());
}

#[test]
fn session_streams_events_and_tracks_the_archive() {
    let spec = lenet_spec();
    let mut evaluator = PlantedEvaluator::new("KRM");
    let mut session = SearchBuilder::with_evaluator(&mut evaluator, spec)
        .strategy(Strategy::Evolution(EvolutionConfig {
            population: 8,
            generations: 4,
            parents: 3,
            ..Default::default()
        }))
        .build()
        .unwrap();
    let mut steps = 0usize;
    let mut finished = 0usize;
    let outcome = session
        .run_with(|event| match event {
            SearchEvent::Step(step) => {
                steps += 1;
                assert!(step.archive_len >= step.archive_added);
                assert!(step.front_len >= 1 && step.front_len <= step.archive_len);
                assert!(step.hypervolume >= 0.0);
                assert!(step.budget_spent >= step.archive_len);
            }
            SearchEvent::Finished => finished += 1,
        })
        .unwrap();
    assert_eq!(steps, 4, "one event per generation");
    assert_eq!(finished, 1);
    assert_eq!(outcome.history.len(), 4);
    assert!(outcome.archive.front_len() >= 1);
    assert!(outcome.archive.hypervolume() > 0.0);
    // The winner sits on the archive's own frontier-or-better: its aim
    // score dominates every archived candidate's.
    let aim = SearchAim::accuracy_optimal();
    for candidate in outcome.archive.candidates() {
        assert!(aim.score(candidate) <= aim.score(&outcome.best) + 1e-12);
    }
}

/// Runs the full session in one go, and a snapshot/JSON/resume split at
/// step `k`, with *fresh* evaluators for each leg (the checkpoint, not
/// the evaluator, carries all search state) — then requires bytewise
/// equality of the outcomes.
fn assert_resume_equals_uninterrupted(strategy: Strategy, aim: SearchAim, target: &str, k: usize) {
    let spec = lenet_spec();
    let mut full_eval = PlantedEvaluator::new(target);
    let mut full_session = SearchBuilder::with_evaluator(&mut full_eval, spec.clone())
        .strategy(strategy.clone())
        .aim(aim.clone())
        .build()
        .unwrap();
    let full = outcome_as_result(full_session.run().unwrap());
    drop(full_session);

    let mut first_eval = PlantedEvaluator::new(target);
    let mut first_session = SearchBuilder::with_evaluator(&mut first_eval, spec.clone())
        .strategy(strategy)
        .aim(aim)
        .build()
        .unwrap();
    for _ in 0..k {
        if matches!(first_session.step().unwrap(), SearchEvent::Finished) {
            break;
        }
    }
    let json = first_session.snapshot().to_json();
    drop(first_session);

    let checkpoint = search::SearchCheckpoint::from_json(&json).unwrap();
    let mut resumed_eval = PlantedEvaluator::new(target);
    let mut resumed_session = SearchBuilder::with_evaluator(&mut resumed_eval, spec)
        .resume(checkpoint)
        .build()
        .unwrap();
    let resumed = outcome_as_result(resumed_session.run().unwrap());
    assert_results_identical(&full, &resumed, "resume");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot-after-k + resume equals the uninterrupted evolutionary
    /// run byte for byte, for every snapshot point.
    #[test]
    fn evolution_resume_is_byte_identical(
        population in 4usize..12,
        generations in 2usize..7,
        seed in 0u64..500,
        k in 0usize..7,
        target_ix in 0usize..3,
    ) {
        let target = ["KRM", "BBM", "MKB"][target_ix];
        let config = EvolutionConfig {
            population,
            generations,
            parents: (population / 2).max(1),
            seed,
            ..Default::default()
        };
        assert_resume_equals_uninterrupted(
            Strategy::Evolution(config),
            SearchAim::weighted("blend", 1.0, 1.0, 0.25, 0.05),
            target,
            k.min(generations),
        );
    }

    /// Same property for the random-search baseline (chunked steps).
    #[test]
    fn random_resume_is_byte_identical(
        budget in 1usize..33,
        seed in 0u64..500,
        k in 0usize..4,
    ) {
        assert_resume_equals_uninterrupted(
            Strategy::Random(RandomSearchConfig { budget, seed }),
            SearchAim::ape_optimal(),
            "RKM",
            k,
        );
    }

    /// Same property for exhaustive enumeration.
    #[test]
    fn exhaustive_resume_is_byte_identical(k in 0usize..3, target_ix in 0usize..3) {
        let target = ["KRM", "BBM", "MKB"][target_ix];
        assert_resume_equals_uninterrupted(
            Strategy::Exhaustive,
            SearchAim::accuracy_optimal(),
            target,
            k,
        );
    }
}

#[test]
fn supernet_backed_resume_survives_a_process_restart() {
    // The real thing: an (untrained) supernet whose evaluations route
    // through its UncertaintyEngine. The resumed leg rebuilds supernet
    // and dataset from scratch — exactly what a restarted process does —
    // so the checkpoint plus deterministic reconstruction must
    // reproduce the uninterrupted run byte for byte.
    let data_config = DatasetConfig {
        train: 32,
        val: 16,
        test: 8,
        seed: 0xA11CE,
        noise: 0.05,
    };
    let strategy = Strategy::Evolution(EvolutionConfig {
        population: 5,
        generations: 3,
        parents: 2,
        seed: 0xF00D,
        ..Default::default()
    });
    let run_leg = |resume_json: Option<&str>,
                   steps: Option<usize>|
     -> (Option<String>, Option<EvolutionResult>) {
        let splits = mnist_like(&data_config);
        let spec = SupernetSpec::paper_default(zoo::lenet(), 77).unwrap();
        let mut supernet = Supernet::build(&spec).unwrap();
        // No explicit .ood(): the builder derives the default probe set
        // from the effective seed — and on resume that seed must come
        // out of the checkpoint (the resumed leg configures *no*
        // strategy, so a builder-derived default would probe different
        // noise and silently diverge).
        let mut builder = SearchBuilder::new(&mut supernet)
            .aim(SearchAim::ece_optimal())
            .validation(&splits.val)
            .batch_size(16);
        if let Some(json) = resume_json {
            builder = builder.resume(search::SearchCheckpoint::from_json(json).unwrap());
        } else {
            builder = builder.strategy(strategy.clone());
        }
        let mut session = builder.build().unwrap();
        match steps {
            Some(k) => {
                for _ in 0..k {
                    session.step().unwrap();
                }
                (Some(session.snapshot().to_json()), None)
            }
            None => {
                let outcome = outcome_as_result(session.run().unwrap());
                (None, Some(outcome))
            }
        }
    };
    let (_, full) = run_leg(None, None);
    let (json, _) = run_leg(None, Some(2));
    let (_, resumed) = run_leg(json.as_deref(), None);
    assert_results_identical(
        &full.unwrap(),
        &resumed.unwrap(),
        "supernet-backed resume after restart",
    );
}

#[test]
fn corrupted_and_mismatched_checkpoints_fail_with_typed_errors() {
    let spec = lenet_spec();
    let mut evaluator = PlantedEvaluator::new("KRM");
    let mut session = SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
        .strategy(Strategy::Evolution(EvolutionConfig {
            population: 6,
            generations: 3,
            parents: 2,
            ..Default::default()
        }))
        .build()
        .unwrap();
    session.step().unwrap();
    let json = session.snapshot().to_json();
    drop(session);

    // Bit-flip corruption, truncation, version bump: all typed errors.
    let corrupted = json.replace("\"archive\"", "\"archvie\"");
    let truncated = &json[..json.len() / 2];
    let version_bump = json.replace("\"version\": 1", "\"version\": 2");
    for (label, bad) in [
        ("field rename", corrupted.as_str()),
        ("truncation", truncated),
        ("version mismatch", version_bump.as_str()),
        ("not json", "definitely { not json"),
    ] {
        match search::SearchCheckpoint::from_json(bad) {
            Err(SearchError::Checkpoint(msg)) => {
                assert!(
                    !msg.is_empty(),
                    "{label}: message should explain the failure"
                )
            }
            other => panic!("{label}: expected a typed checkpoint error, got {other:?}"),
        }
    }

    // A checkpoint referencing state the memo cannot resolve is rejected
    // at resume time, not served half-restored.
    let mut checkpoint = search::SearchCheckpoint::from_json(&json).unwrap();
    checkpoint.best = Some((9.9, "GGG".to_string()));
    let mut evaluator = PlantedEvaluator::new("KRM");
    match SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
        .resume(checkpoint)
        .build()
    {
        Err(SearchError::Checkpoint(msg)) => assert!(msg.contains("GGG"), "{msg}"),
        other => panic!("expected checkpoint error, got {:?}", other.map(|_| ())),
    }

    // Degenerate strategy hyperparameters smuggled through a well-formed
    // checkpoint (e.g. a hand-edited parent pool of zero, or a drained
    // population with generations left) must be typed errors too — the
    // step loop would otherwise panic on them.
    let break_strategy = |f: &dyn Fn(&mut search::SearchCheckpoint)| {
        let mut checkpoint = search::SearchCheckpoint::from_json(&json).unwrap();
        f(&mut checkpoint);
        let parse_err = search::SearchCheckpoint::from_json(&checkpoint.to_json());
        assert!(
            matches!(parse_err, Err(SearchError::Checkpoint(_))),
            "loader must reject the doctored checkpoint: {parse_err:?}"
        );
        let mut evaluator = PlantedEvaluator::new("KRM");
        let resume_err = SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
            .resume(checkpoint)
            .build()
            .map(|_| ());
        assert!(
            matches!(resume_err, Err(SearchError::Checkpoint(_))),
            "resume must reject the doctored checkpoint: {resume_err:?}"
        );
    };
    break_strategy(&|checkpoint| {
        if let search::StrategyProgress::Evolution { config, .. } = &mut checkpoint.strategy {
            config.parents = 0;
        }
    });
    break_strategy(&|checkpoint| {
        if let search::StrategyProgress::Evolution { population, .. } = &mut checkpoint.strategy {
            population.clear();
        }
    });
}

#[test]
fn builder_validates_degenerate_configurations() {
    let spec = lenet_spec();
    let mut evaluator = PlantedEvaluator::new("BBB");
    let bad = SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
        .strategy(Strategy::Evolution(EvolutionConfig {
            population: 0,
            ..Default::default()
        }))
        .build();
    assert!(matches!(bad, Err(SearchError::BadConfig(_))));
    let mut evaluator = PlantedEvaluator::new("BBB");
    let bad = SearchBuilder::with_evaluator(&mut evaluator, spec.clone())
        .strategy(Strategy::Random(RandomSearchConfig { budget: 0, seed: 1 }))
        .build();
    assert!(matches!(bad, Err(SearchError::BadConfig(_))));
    // Supernet-backed sessions require a validation split.
    let supernet_spec = SupernetSpec::paper_default(zoo::lenet(), 5).unwrap();
    let mut supernet = Supernet::build(&supernet_spec).unwrap();
    match SearchBuilder::new(&mut supernet).build() {
        Err(SearchError::BadConfig(msg)) => assert!(msg.contains("validation"), "{msg}"),
        other => panic!("expected BadConfig, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn seed_override_replaces_the_strategy_seed() {
    let spec = lenet_spec();
    let run_with_seed = |seed_override: Option<u64>, config_seed: u64| {
        let mut evaluator = PlantedEvaluator::new("KRM");
        let mut builder = SearchBuilder::with_evaluator(&mut evaluator, spec.clone()).strategy(
            Strategy::Evolution(EvolutionConfig {
                population: 6,
                generations: 3,
                parents: 2,
                seed: config_seed,
                ..Default::default()
            }),
        );
        if let Some(seed) = seed_override {
            builder = builder.seed(seed);
        }
        let mut session = builder.build().unwrap();
        let outcome = session.run().unwrap();
        let history: Vec<GenerationStats> = outcome.history.clone();
        (outcome.best.config.compact(), history)
    };
    let (_, a) = run_with_seed(None, 1234);
    let (_, b) = run_with_seed(Some(1234), 999);
    assert_eq!(a, b, "builder seed must override the config seed exactly");
}

/// Parallel search scores candidates on `Supernet::fork`s. Each fork
/// must serve with every setting of its supernet's engine, so a
/// fixed-point supernet scores the same bytes at any worker count and
/// in either execution order.
#[test]
fn forked_evaluators_keep_the_supernets_engine_settings() {
    use neural_dropout_search::engine::{Backend, Execution};
    use neural_dropout_search::search::{LatencyProvider, SupernetEvaluator};
    use neural_dropout_search::tensor::rng::Rng64;

    let splits = mnist_like(&DatasetConfig {
        train: 48,
        val: 16,
        test: 8,
        seed: 21,
        noise: 0.05,
    });
    let spec = SupernetSpec::paper_default(zoo::lenet(), 31).unwrap();
    let configs: Vec<DropoutConfig> = ["BBB", "RBM", "KKB"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let supernet_with = |backend: &Backend, execution| {
        let mut supernet = Supernet::build(&spec).unwrap();
        supernet.engine_mut().set_backend(backend.clone());
        supernet.engine_mut().set_execution(execution);
        supernet
    };
    let score = |backend: &Backend, execution, workers| {
        let mut supernet = supernet_with(backend, execution);
        let ood = splits.val.ood_noise(8, &mut Rng64::new(5));
        let mut evaluator = SupernetEvaluator::new(
            &mut supernet,
            &splits.val,
            ood,
            LatencyProvider::Constant(1.0),
            8,
        );
        let scored = evaluator
            .evaluate_many_with_workers(&configs, workers)
            .unwrap();
        scored.into_iter().map(|c| c.metrics).collect::<Vec<_>>()
    };

    let q78 = Backend::quantized_q78();
    let float = score(&Backend::Float32, Execution::default(), 1);
    for execution in [Execution::SampleMajor, Execution::RoundMajor] {
        let serial = score(&q78, execution, 1);
        assert_ne!(serial, float, "Q7.8 must move the scores ({execution})");
        assert_eq!(
            score(&q78, execution, 3),
            serial,
            "forked workers must score with the supernet's backend ({execution})"
        );
        let mut fork = supernet_with(&q78, execution).fork().unwrap();
        assert_eq!(fork.engine_mut().backend(), &q78);
        assert_eq!(fork.engine_mut().execution(), execution);
    }
}
