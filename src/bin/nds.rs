//! `nds` — command-line front end to the neural dropout search framework.
//!
//! ```text
//! nds run     --arch lenet|vgg|resnet|vit [--aim accuracy|ece|ape|latency]
//!             [--seed N] [--gp N] [--extended]
//! nds search  --arch lenet|vgg|resnet|vit [--aim ...] [--strategy evolution|random|exhaustive]
//!             [--generations N] [--population N] [--budget N] [--epochs N]
//!             [--checkpoint FILE] [--resume] [--stop-after K] [--checkpoint-every K]
//!             [--islands N] [--migrate-every K] [--seed N] [--gp N]
//! nds eval    --arch lenet|vgg|resnet|vit --config BKM [--seed N]
//!             [--samples S] [--val N] [--execution round-major|sample-major]
//!             [--adaptive off|T] [--gate entropy|top-var] [--pilot N] [--extended]
//! nds analyze --arch lenet|vgg|resnet|vit --config BKM [--spatial] [--samples S]
//! nds hls     --arch lenet|vgg|resnet|vit --config BKM --out DIR
//! nds space   --arch lenet|vgg|resnet|vit [--extended]
//! nds serve-bench [--arch ...] [--samples S] [--tenants T] [--max-batch M]
//!             [--serial N] [--requests N] [--seed N]
//!             [--execution round-major|sample-major]
//!             [--adaptive off|T] [--gate entropy|top-var] [--pilot N]
//! ```
//!
//! `run` executes the full four-phase framework; `search` trains the
//! supernet and drives the Phase-3 `SearchSession` directly — streaming
//! per-generation progress, and writing/resuming versioned JSON
//! checkpoints (a resumed run reproduces the uninterrupted one byte for
//! byte); with `--islands N` it instead runs an island-model campaign:
//! N sessions with derived seeds over copy-on-write forks of the one
//! trained supernet, exchanging Pareto elites every `--migrate-every`
//! steps through the deterministic archive merge, and checkpointing the
//! whole campaign into a directory; `eval` runs one fast, fully
//! deterministic MC-dropout
//! evaluation of a single configuration (the golden-file determinism
//! suite diffs its bytes across `NDS_THREADS` settings); `analyze`
//! prints the csynth-style report for one design point; `hls` writes
//! the generated project to disk; `space` lists the search space;
//! `serve-bench` drives the dynamic-batching serving front-end and
//! reports batch-1 p50/p99 latency against saturation throughput.
//! Each command accepts only its own flags: any other flag is a usage
//! error (exit 2), so a typo never runs silently with defaults.

use neural_dropout_search::core::{LatencySource, Specification};
use neural_dropout_search::hls::generate_project;
use neural_dropout_search::hw::accel::{AcceleratorConfig, AcceleratorModel, McMapping};
use neural_dropout_search::nn::zoo;
use neural_dropout_search::search::SearchAim;
use neural_dropout_search::supernet::{DropoutConfig, SupernetSpec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
nds — hardware-aware neural dropout search (DAC'24 reproduction)

USAGE:
    nds run     --arch <lenet|vgg|resnet|vit> [--aim <accuracy|ece|ape|latency>]
                [--seed <N>] [--gp <train-points>] [--extended]
    nds search  --arch <lenet|vgg|resnet|vit> [--aim <accuracy|ece|ape|latency>]
                [--strategy <evolution|random|exhaustive>] [--generations <N>]
                [--population <N>] [--parents <N>] [--budget <N>] [--epochs <N>]
                [--train <N>] [--val <N>] [--checkpoint <FILE|DIR>] [--resume]
                [--stop-after <K>] [--checkpoint-every <K>]
                [--islands <N>] [--migrate-every <K>]
                [--seed <N>] [--gp <train-points>] [--extended]
    nds eval    --arch <lenet|vgg|resnet|vit> --config <CODES> [--seed <N>]
                [--samples <S>] [--val <N>]
                [--execution <round-major|sample-major>]
                [--adaptive <off|THRESHOLD>] [--gate <entropy|top-var>]
                [--pilot <N>] [--extended]
    nds analyze --arch <lenet|vgg|resnet|vit> --config <CODES> [--spatial] [--samples <S>]
    nds hls     --arch <lenet|vgg|resnet|vit> --config <CODES> --out <DIR>
    nds space   --arch <lenet|vgg|resnet|vit> [--extended]
    nds serve-bench [--arch <lenet|vgg|resnet|vit>] [--samples <S>] [--tenants <T>]
                [--max-batch <M>] [--serial <N>] [--requests <N>] [--seed <N>]
                [--execution <round-major|sample-major>]
                [--adaptive <off|THRESHOLD>] [--gate <entropy|top-var>]
                [--pilot <N>]

EXECUTION: `sample-major` (default) fuses the S MC samples into one
    (S·B)-row pass per layer with a precomputed mask bank;
    `round-major` runs them as S sequential passes. The bytes are
    identical either way; sample-major trades memory for throughput.

ADAPTIVE: `--adaptive <THRESHOLD>` spends `--pilot` (default 1) MC
    samples on every row, scores each row with `--gate` (default
    `entropy`), and escalates only rows at or above the threshold to
    the full `--samples` budget; escalated rows are byte-identical
    to the unbudgeted run. `--adaptive off` (or omitting the flag)
    disables gating and reproduces the standard engine bytes.

CONFIG CODES: one letter per dropout slot —
    B Bernoulli, R Random, K Block, M Masksembles, G Gaussian (extension)

CHECKPOINTS: saves are atomic (tmp + fsync + rename) and rotate the
    previous save to <FILE>.bak; --resume falls back to the backup
    (with a warning) when the primary is corrupted.
    --checkpoint-every K saves after every K completed steps so a
    killed run resumes from the last completed step.

CAMPAIGNS: `--islands N` runs N independent search sessions with
    derived seeds over one trained supernet, merging their Pareto
    archives (deterministically — any merge order yields identical
    bytes) and adopting the merged front back into every island
    every `--migrate-every` K steps (default 1). With --islands,
    --checkpoint names a DIRECTORY (per-island snapshots + a
    campaign manifest), and --stop-after / --checkpoint-every count
    migration epochs instead of steps. The final campaign summary is
    byte-identical across repeated runs, NDS_THREADS settings and
    stop/resume cycles.

EXIT CODES: 0 success, 1 runtime failure, 2 usage error

EXAMPLES:
    nds run --arch lenet --aim ece --seed 7
    nds search --arch lenet --aim ece --generations 6 --checkpoint search.json
    nds search --arch lenet --aim ece --checkpoint search.json --resume
    nds search --arch lenet --islands 4 --migrate-every 2 --checkpoint camp_dir
    nds analyze --arch resnet --config KMBM
    nds hls --arch lenet --config RRB --out ./hls_out
    nds serve-bench --tenants 2 --max-batch 16 --requests 128
";

/// Typed CLI failure, split by whose fault it is: usage errors (the
/// invocation was malformed — exit code 2, usage text printed) versus
/// runtime errors (the invocation was fine but the work failed — exit
/// code 1, no usage dump drowning the actual message).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

/// The invocation itself was wrong (unknown flag, missing value, flag
/// combination that can never work).
fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

// Library errors bubbled up with `map_err(|e| e.to_string())?` are
// runtime failures: the command was well-formed, the work failed.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

type Handler = fn(&HashMap<String, String>) -> Result<(), CliError>;

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(usage("missing command"));
    };
    // Each command with the flags it reads; `run` and `search` share
    // the `spec_for` family (arch, aim, seed, gp, extended).
    let (handler, accepted): (Handler, &str) = match command.as_str() {
        "run" => (cmd_run, "arch aim seed gp extended"),
        "search" => (
            cmd_search,
            "arch aim seed gp extended strategy generations population parents budget epochs \
             train val checkpoint resume stop-after checkpoint-every islands migrate-every",
        ),
        "eval" => (
            cmd_eval,
            "arch config seed samples val execution adaptive gate pilot extended",
        ),
        "analyze" => (cmd_analyze, "arch config spatial samples"),
        "hls" => (cmd_hls, "arch config out"),
        "space" => (cmd_space, "arch extended"),
        "serve-bench" => (
            cmd_serve_bench,
            "arch samples tenants max-batch serial requests seed execution adaptive gate pilot",
        ),
        "help" | "--help" | "-h" => (cmd_help, ""),
        other => return Err(usage(format!("unknown command `{other}`"))),
    };
    let flags = parse_flags(command, &args[1..], accepted)?;
    handler(&flags)
}

fn cmd_help(_flags: &HashMap<String, String>) -> Result<(), CliError> {
    println!("{USAGE}");
    Ok(())
}

/// Parses `--key value` pairs (and the value-less boolean flags),
/// rejecting any flag not named in the space-separated `accepted` list
/// so that a typo or a removed flag fails with usage instead of running
/// with defaults.
fn parse_flags(
    command: &str,
    args: &[String],
    accepted: &str,
) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| usage(format!("expected a --flag, got `{}`", args[i])))?;
        if !accepted.split_whitespace().any(|flag| flag == key) {
            return Err(usage(format!("`{command}` does not take --{key}")));
        }
        // Boolean flags take no value.
        if matches!(key, "extended" | "spatial" | "resume") {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| usage(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn spec_for(flags: &HashMap<String, String>) -> Result<Specification, CliError> {
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| usage(format!("bad seed `{s}`"))))
        .transpose()?
        .unwrap_or(42);
    let arch = flags.get("arch").map(String::as_str).unwrap_or("lenet");
    let mut spec = match arch {
        "lenet" => Specification::lenet_demo(seed),
        "vgg" | "vgg11" => Specification::vgg_demo(seed),
        "resnet" | "resnet18" => Specification::resnet_demo(seed),
        "vit" | "transformer" => {
            let mut spec = Specification::lenet_demo(seed);
            spec.arch = zoo::tiny_vit(16, 4, 2);
            spec
        }
        other => {
            return Err(usage(format!(
                "unknown arch `{other}` (lenet | vgg | resnet | vit)"
            )))
        }
    };
    if let Some(aim) = flags.get("aim") {
        spec.aim = match aim.as_str() {
            "accuracy" | "acc" => SearchAim::accuracy_optimal(),
            "ece" => SearchAim::ece_optimal(),
            "ape" => SearchAim::ape_optimal(),
            "latency" | "lat" => SearchAim::latency_optimal(),
            other => return Err(usage(format!("unknown aim `{other}`"))),
        };
    }
    if let Some(points) = flags.get("gp") {
        let train_points = points
            .parse()
            .map_err(|_| usage(format!("bad --gp value `{points}`")))?;
        spec.latency_source = LatencySource::Gp { train_points };
    }
    if flags.contains_key("extended") {
        let supernet_spec =
            SupernetSpec::extended_default(spec.arch.clone(), seed).map_err(|e| e.to_string())?;
        spec.choices = Some(supernet_spec.choices);
    }
    Ok(spec)
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use neural_dropout_search::core::run_with_observer;
    use neural_dropout_search::search::SearchEvent;
    let spec = spec_for(flags)?;
    println!(
        "running 4-phase search: arch={} dataset={} aim={}",
        spec.arch.name, spec.dataset, spec.aim.name
    );
    // Stream Phase-3 progress as the session steps through generations.
    let outcome = run_with_observer(&spec, |event| {
        if let SearchEvent::Step(step) = event {
            println!(
                "  search gen {}: best {:.4}, mean {:.4}, archive {} (front {})",
                step.stats.generation,
                step.stats.best_score,
                step.stats.mean_score,
                step.archive_len,
                step.front_len
            );
        }
    })
    .map_err(|e| e.to_string())?;
    for epoch in &outcome.training {
        println!(
            "  train epoch {}: loss {:.4}, accuracy {:.1}%",
            epoch.epoch,
            epoch.loss,
            100.0 * epoch.accuracy
        );
    }
    let best = &outcome.best;
    println!(
        "\nwinner {}  acc {:.1}%  ECE {:.1}%  aPE {:.3}  latency {:.3} ms",
        best.config,
        100.0 * best.metrics.accuracy,
        100.0 * best.metrics.ece,
        best.metrics.ape,
        best.latency_ms
    );
    println!("\n{}", outcome.report);
    println!(
        "timings: train {:.1}s, search {:.1}s",
        outcome.timings.training_s, outcome.timings.search_s
    );
    Ok(())
}

/// Phase-3 search through the unified `SearchSession` API: trains the
/// supernet (SPOS), then drives the chosen strategy with streaming
/// per-step progress. `--checkpoint FILE` writes a versioned JSON
/// snapshot (after `--stop-after K` steps, or at the end);
/// `--resume` restores it and continues — the resumed run reproduces
/// the uninterrupted one byte for byte, so the final summary lines are
/// identical either way (the CI resume smoke diffs exactly that).
fn cmd_search(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use neural_dropout_search::data::generate;
    use neural_dropout_search::hw::accel::AcceleratorModel;
    use neural_dropout_search::search::{
        CheckpointSource, LatencyProvider, SearchBuilder, SearchCheckpoint, SearchEvent, Strategy,
    };
    use neural_dropout_search::supernet::Supernet;
    use neural_dropout_search::tensor::rng::Rng64;

    let mut spec = spec_for(flags)?;
    if let Some(train) = flags.get("train") {
        spec.dataset_config.train = train
            .parse()
            .map_err(|_| usage(format!("bad --train `{train}`")))?;
    }
    if let Some(val) = flags.get("val") {
        spec.dataset_config.val = val
            .parse()
            .map_err(|_| usage(format!("bad --val `{val}`")))?;
    }
    spec.train.epochs = parse_flag(flags, "epochs", spec.train.epochs)?;
    spec.evolution.population = parse_flag(flags, "population", spec.evolution.population)?;
    spec.evolution.generations = parse_flag(flags, "generations", spec.evolution.generations)?;
    spec.evolution.parents = parse_flag(flags, "parents", spec.evolution.parents)?;
    let strategy = match flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("evolution")
    {
        "evolution" | "ea" => Strategy::Evolution(spec.evolution),
        "random" | "rs" => Strategy::Random(neural_dropout_search::search::RandomSearchConfig {
            budget: parse_flag(flags, "budget", 16usize)?,
            seed: spec.evolution.seed,
        }),
        "exhaustive" | "all" => Strategy::Exhaustive,
        other => return Err(usage(format!("unknown strategy `{other}`"))),
    };
    // Validate the whole checkpoint flag cluster up front, into one
    // struct the step loop consumes — failing after training and K
    // search steps would throw the whole run away, and the plan's
    // invariants (a path exists whenever anything needs one) are
    // enforced here once instead of re-checked with `expect` later.
    struct CheckpointPlan {
        path: std::path::PathBuf,
        /// Save every K completed steps (0 = only at stop/end).
        every: usize,
    }
    let stop_after: usize = parse_flag(flags, "stop-after", 0usize)?;
    let every: usize = parse_flag(flags, "checkpoint-every", 0usize)?;
    let resume = flags.contains_key("resume");
    let plan = match flags.get("checkpoint").map(std::path::PathBuf::from) {
        Some(path) => Some(CheckpointPlan { path, every }),
        None => {
            if resume {
                return Err(usage("--resume needs --checkpoint <FILE>"));
            }
            if stop_after > 0 {
                return Err(usage("--stop-after needs --checkpoint <FILE>"));
            }
            if every > 0 {
                return Err(usage("--checkpoint-every needs --checkpoint <FILE>"));
            }
            None
        }
    };

    // Island-model campaign topology. `--islands 0` (the default) is
    // the classic single-session path; any N >= 1 routes through the
    // campaign subsystem (N == 1 is a degenerate campaign, useful for
    // comparing the two paths at fixed budget).
    let islands: usize = parse_flag(flags, "islands", 0usize)?;
    let migrate_every: usize = parse_flag(flags, "migrate-every", 1usize)?;
    if migrate_every == 0 {
        return Err(usage("--migrate-every must be at least 1"));
    }
    if islands == 0 && flags.contains_key("migrate-every") {
        return Err(usage("--migrate-every needs --islands"));
    }

    // Load resume state *before* the (potentially long) training
    // phase: an unrecoverable checkpoint should fail in milliseconds,
    // not after minutes of SPOS training. A campaign resumes from a
    // directory (per-island snapshots + manifest), a single session
    // from one file.
    let campaign_resume = match (resume, plan.as_ref()) {
        (true, Some(plan)) if islands > 0 => {
            let resumed = neural_dropout_search::campaign::load_campaign(&plan.path)
                .map_err(|e| e.to_string())?;
            for warning in &resumed.warnings {
                eprintln!("warning: {warning}");
            }
            if resumed.manifest.islands != islands {
                return Err(CliError::Runtime(format!(
                    "checkpoint {} holds a {}-island campaign but --islands is {islands}",
                    plan.path.display(),
                    resumed.manifest.islands
                )));
            }
            if resumed.manifest.migrate_every != migrate_every {
                return Err(CliError::Runtime(format!(
                    "checkpoint {} migrates every {} steps but --migrate-every is {migrate_every}",
                    plan.path.display(),
                    resumed.manifest.migrate_every
                )));
            }
            Some(resumed)
        }
        _ => None,
    };
    let resume_state = match (resume, plan.as_ref()) {
        (true, Some(plan)) if islands == 0 => {
            let (checkpoint, source) =
                SearchCheckpoint::load_with_fallback(&plan.path).map_err(|e| e.to_string())?;
            if let CheckpointSource::Backup { primary_error } = &source {
                eprintln!(
                    "warning: checkpoint {} unusable ({primary_error}); resumed from last-good backup {}",
                    plan.path.display(),
                    SearchCheckpoint::backup_path(&plan.path).display()
                );
            }
            Some(checkpoint)
        }
        _ => None,
    };

    // Phases 1-2: data + SPOS supernet training (deterministic from the
    // seed, so a resumed process reconstructs identical weights).
    let supernet_spec = spec.supernet_spec().map_err(|e| e.to_string())?;
    let splits = generate(spec.dataset, &spec.dataset_config);
    let mut supernet = Supernet::build(&supernet_spec).map_err(|e| e.to_string())?;
    let mut rng = Rng64::new(spec.seed ^ 0x7EA1);
    println!(
        "training supernet: arch={} dataset={} epochs={}",
        spec.arch.name, spec.dataset, spec.train.epochs
    );
    supernet
        .train_spos(&splits.train, &spec.train, &mut rng)
        .map_err(|e| e.to_string())?;
    if spec.calibration_batches > 0 {
        supernet.set_calibration_from(
            &splits.train,
            spec.calibration_batches,
            spec.batch_size,
            &mut rng.fork(0xCA11B),
        );
    }
    let ood = splits
        .train
        .ood_noise(spec.ood_samples, &mut rng.fork(0x00D));
    let hw_arch = spec.hardware_arch().clone();
    let model = AcceleratorModel::new(spec.accel.clone());
    let latency = match spec.latency_source {
        LatencySource::Exact => LatencyProvider::Exact {
            model,
            arch: hw_arch,
        },
        LatencySource::Gp { train_points } => {
            let (provider, rmse) = LatencyProvider::fit_gp(
                &model,
                &hw_arch,
                &supernet_spec,
                train_points,
                (train_points / 4).max(4),
                spec.seed ^ 0x69,
            )
            .map_err(|e| e.to_string())?;
            println!("gp surrogate fitted: rmse {rmse:.4} ms over {train_points} points");
            provider
        }
    };

    // Phase 3, campaign topology: N islands over copy-on-write forks
    // of the one trained supernet, each with its own derived seed
    // stream; elite exchange and whole-campaign checkpointing happen
    // at the epoch barrier.
    if islands > 0 {
        use neural_dropout_search::campaign::{island_seed, Campaign, CampaignEvent};
        let mut forks = Vec::with_capacity(islands);
        for _ in 0..islands {
            forks.push(supernet.fork().map_err(|e| e.to_string())?);
        }
        let mut sessions = Vec::with_capacity(islands);
        for (index, fork) in forks.iter_mut().enumerate() {
            let mut builder = SearchBuilder::new(fork)
                .strategy(strategy.clone())
                .aim(spec.aim.clone())
                .validation(&splits.val)
                .ood(ood.clone())
                .latency(latency.clone())
                .batch_size(spec.batch_size)
                .seed(island_seed(spec.seed, index));
            if let Some(resumed) = campaign_resume.as_ref() {
                builder = builder.resume(resumed.islands[index].clone());
            }
            sessions.push(builder.build().map_err(|e| e.to_string())?);
        }
        let start_epoch = campaign_resume
            .as_ref()
            .map(|r| r.manifest.epoch)
            .unwrap_or(0);
        if let Some(resumed) = campaign_resume.as_ref() {
            println!(
                "resuming campaign from {} (epoch {}, budget {} evals)",
                plan.as_ref()
                    .expect("campaign resume implies a plan")
                    .path
                    .display(),
                resumed.manifest.epoch,
                resumed
                    .islands
                    .iter()
                    .map(|c| c.budget_spent)
                    .sum::<usize>()
            );
        }
        let mut campaign = Campaign::resumed(&mut sessions, migrate_every, start_epoch)
            .map_err(|e| e.to_string())?;

        let print_event = |event: &CampaignEvent| match event {
            CampaignEvent::IslandStep { island, stats } => {
                println!(
                    "isl {island} gen {:>3}  best {:.6}  mean {:.6}  config {:<12}  archive {:>3}  front {:>2}  evals {}",
                    stats.stats.generation,
                    stats.stats.best_score,
                    stats.stats.mean_score,
                    stats.stats.best_config.to_string(),
                    stats.archive_len,
                    stats.front_len,
                    stats.budget_spent
                );
            }
            CampaignEvent::Migration {
                epoch,
                merged_len,
                elites,
                adopted,
            } => {
                println!(
                    "epoch {epoch}: merged archive {merged_len}, elites {elites}, adopted {adopted}"
                );
            }
        };

        // The epoch loop mirrors the single-session step loop below:
        // streams progress, honours --stop-after (epochs here), and
        // checkpoints the whole campaign every --checkpoint-every
        // epochs through the crash-safe directory protocol.
        let mut epochs_run = 0usize;
        while !campaign.is_finished() {
            if stop_after > 0 && epochs_run >= stop_after {
                break;
            }
            campaign.run_epoch(print_event).map_err(|e| e.to_string())?;
            epochs_run += 1;
            if let Some(plan) = plan.as_ref() {
                if plan.every > 0 && epochs_run.is_multiple_of(plan.every) {
                    campaign.save(&plan.path).map_err(|e| e.to_string())?;
                }
            }
        }
        if let Some(plan) = plan.as_ref() {
            campaign.save(&plan.path).map_err(|e| e.to_string())?;
            if stop_after > 0 {
                println!(
                    "campaign checkpoint written to {} after {epochs_run} epoch(s); \
                     continue with --resume",
                    plan.path.display()
                );
                if !campaign.is_finished() {
                    return Ok(());
                }
            } else {
                println!(
                    "final campaign checkpoint written to {}",
                    plan.path.display()
                );
            }
        }

        let outcome = campaign.outcome().map_err(|e| e.to_string())?;
        // Full-precision summary: byte-identical across repeated runs,
        // worker counts and stop/resume cycles (the CI campaign smoke
        // diffs these lines).
        println!("\n-- campaign result --");
        println!(
            "winner {}  acc {:.12e}  ece {:.12e}  ape {:.12e}  latency {:.12e} ms",
            outcome.best.config,
            outcome.best.metrics.accuracy,
            outcome.best.metrics.ece,
            outcome.best.metrics.ape,
            outcome.best.latency_ms
        );
        println!("aim score {:.12e}", spec.aim.score(&outcome.best));
        println!(
            "merged archive {} configs, front {}, hypervolume {:.12e}",
            outcome.archive.len(),
            outcome.archive.front_len(),
            outcome.archive.hypervolume()
        );
        println!(
            "budget {} fresh evaluations across {islands} island(s), {} epoch(s)",
            outcome.budget_spent, outcome.epochs
        );
        return Ok(());
    }

    // Phase 3: the session.
    let mut builder = SearchBuilder::new(&mut supernet)
        .strategy(strategy)
        .aim(spec.aim.clone())
        .validation(&splits.val)
        .ood(ood)
        .latency(latency)
        .batch_size(spec.batch_size);
    if let (Some(checkpoint), Some(plan)) = (resume_state, plan.as_ref()) {
        println!(
            "resuming from {} (archive {}, budget {} evals)",
            plan.path.display(),
            checkpoint.archive.len(),
            checkpoint.budget_spent
        );
        builder = builder.resume(checkpoint);
    }
    let mut session = builder.build().map_err(|e| e.to_string())?;

    let print_step = |event: &SearchEvent| {
        if let SearchEvent::Step(step) = event {
            println!(
                "gen {:>3}  best {:.6}  mean {:.6}  config {:<12}  archive {:>3}  front {:>2}  hv {:.6}  evals {}",
                step.stats.generation,
                step.stats.best_score,
                step.stats.mean_score,
                step.stats.best_config.to_string(),
                step.archive_len,
                step.front_len,
                step.hypervolume,
                step.budget_spent
            );
        }
    };

    // One unified step loop: streams progress, honours --stop-after,
    // and (with --checkpoint-every K) saves a crash-safe checkpoint
    // every K steps so a killed process resumes from the last completed
    // step instead of from scratch.
    let mut steps = 0usize;
    loop {
        if stop_after > 0 && steps >= stop_after {
            break;
        }
        let event = session.step().map_err(|e| e.to_string())?;
        if matches!(event, SearchEvent::Finished) {
            break;
        }
        print_step(&event);
        steps += 1;
        if let Some(plan) = plan.as_ref() {
            if plan.every > 0 && steps.is_multiple_of(plan.every) {
                session
                    .snapshot()
                    .save(&plan.path)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    if let Some(plan) = plan.as_ref() {
        session
            .snapshot()
            .save(&plan.path)
            .map_err(|e| e.to_string())?;
        if stop_after > 0 {
            println!(
                "checkpoint written to {} after {steps} step(s); continue with --resume",
                plan.path.display()
            );
            if !session.is_finished() {
                return Ok(());
            }
        } else {
            println!("final checkpoint written to {}", plan.path.display());
        }
    }

    let outcome = session.outcome().map_err(|e| e.to_string())?;
    // Full-precision summary: byte-identical between an uninterrupted
    // run and a stop/resume pair (the CI smoke diffs these lines).
    println!("\n-- search result --");
    println!(
        "winner {}  acc {:.12e}  ece {:.12e}  ape {:.12e}  latency {:.12e} ms",
        outcome.best.config,
        outcome.best.metrics.accuracy,
        outcome.best.metrics.ece,
        outcome.best.metrics.ape,
        outcome.best.latency_ms
    );
    println!("aim score {:.12e}", spec.aim.score(&outcome.best));
    println!(
        "archive {} configs, front {}, hypervolume {:.12e}",
        outcome.archive.len(),
        outcome.archive.front_len(),
        outcome.archive.hypervolume()
    );
    println!("budget {} fresh evaluations", outcome.budget_spent);
    Ok(())
}

/// Fast deterministic single-configuration evaluation: builds the
/// (untrained) supernet, activates `--config`, runs MC-dropout inference
/// over a synthetic validation split and prints metrics plus a
/// predictive-distribution digest at full precision.
///
/// Every number printed is a pure function of the flags — independent of
/// `NDS_THREADS`, core count and weight-sharing strategy. The golden
/// determinism tests assert this by diffing the command's bytes across
/// environments.
fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use neural_dropout_search::data::{cifar_like, mnist_like, svhn_like, DatasetConfig};
    use neural_dropout_search::engine::{Execution, PredictRequest};
    use neural_dropout_search::metrics::{
        accuracy, average_predictive_entropy, ece, escalation_rate, nll, EceConfig,
    };
    use neural_dropout_search::supernet::Supernet;
    use neural_dropout_search::tensor::rng::Rng64;

    let config = config_for(flags)?;
    let seed: u64 = parse_flag(flags, "seed", 42)?;
    let samples: usize = parse_flag(flags, "samples", 3)?;
    let val: usize = parse_flag(flags, "val", 32)?;
    // Scheduling only — the printed bytes are identical for both
    // orders (the golden suite diffs exactly that), so the choice is
    // deliberately absent from the output.
    let execution: Execution = parse_flag(flags, "execution", Execution::default())?;
    // Validated up front: a malformed gate exits 2 before any dataset
    // or supernet work happens.
    let adaptive = adaptive_policy_from_flags(flags)?;
    let arch_name = flags.get("arch").map(String::as_str).unwrap_or("lenet");
    // Width-scaled CPU variants, paired with their paper datasets (§4.1).
    let (arch, splits) = {
        let data_config = DatasetConfig {
            train: 16,
            val,
            test: 8,
            seed: seed ^ 0xDA7A,
            noise: 0.05,
        };
        match arch_name {
            "lenet" => (zoo::lenet(), mnist_like(&data_config)),
            "vgg" | "vgg11" => (zoo::vgg11(8), svhn_like(&data_config)),
            "resnet" | "resnet18" => (zoo::resnet18(8), cifar_like(&data_config)),
            "vit" | "transformer" => (zoo::tiny_vit(16, 4, 2), mnist_like(&data_config)),
            other => return Err(usage(format!("unknown arch `{other}`"))),
        }
    };
    let spec = if flags.contains_key("extended") {
        SupernetSpec::extended_default(arch, seed)
    } else {
        SupernetSpec::paper_default(arch, seed)
    }
    .map_err(|e| e.to_string())?;
    let mut supernet = Supernet::build(&spec).map_err(|e| e.to_string())?;
    supernet.set_config(&config).map_err(|e| e.to_string())?;
    supernet.set_sampling_number(samples);
    let mut rng = Rng64::new(seed ^ 0x00D);
    let ood = splits.val.ood_noise(val.max(1), &mut rng);
    let (images, labels) = splits.val.full_batch();
    // One serving entry point for the whole evaluation: the supernet's
    // engine (float backend) holds the warm workspace and clone cache;
    // its bytes are identical for any worker count, chunk size or pool
    // size — the property the golden suite pins.
    let engine = supernet.engine_mut();
    engine.set_chunk_size(16);
    engine.set_execution(execution);
    if let Some(policy) = &adaptive {
        engine.set_adaptive(policy.clone());
    }
    let pred = engine
        .predict(&PredictRequest::new(&images))
        .map_err(|e| e.to_string())?;
    let ood_pred = engine
        .predict(&PredictRequest::new(&ood))
        .map_err(|e| e.to_string())?;
    let acc = accuracy(&pred.probs, &labels).map_err(|e| e.to_string())?;
    let cal = ece(&pred.probs, &labels, EceConfig::default()).map_err(|e| e.to_string())?;
    let neg_ll = nll(&pred.probs, &labels).map_err(|e| e.to_string())?;
    let ape = average_predictive_entropy(&ood_pred.probs).map_err(|e| e.to_string())?;
    println!(
        "eval arch={} config={config} seed={seed} samples={samples} val={val}",
        spec.arch.name
    );
    println!("accuracy {acc:.12e}");
    println!("ece      {cal:.12e}");
    println!("nll      {neg_ll:.12e}");
    println!("ape      {ape:.12e}");
    // Digest of the full predictive distribution: any single changed bit
    // anywhere in the pipeline shows up here.
    let digest: f64 = pred
        .probs
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as f64 + 1.0) * p as f64)
        .sum();
    println!("digest   {digest:.12e}");
    let row0: Vec<String> = pred.probs.as_slice()[..pred.probs.shape().dim(1).min(10)]
        .iter()
        .map(|p| format!("{p:.9e}"))
        .collect();
    println!("probs[0] {}", row0.join(" "));
    // Gating report, printed strictly after the golden-pinned lines so
    // `--adaptive off` (and no flag at all) stays byte-identical to the
    // committed golden transcript.
    if let Some(esc) = adaptive
        .as_ref()
        .filter(|p| p.enabled())
        .and_then(|p| p.escalation.as_ref())
    {
        println!(
            "adaptive gate={} threshold={:.6e} pilot={}",
            esc.metric, esc.threshold, esc.pilot
        );
        if let Some(rows) = &pred.row_samples {
            println!("escalation id  {:.12e}", escalation_rate(rows, esc.pilot));
        }
        if let Some(rows) = &ood_pred.row_samples {
            println!("escalation ood {:.12e}", escalation_rate(rows, esc.pilot));
        }
    }
    Ok(())
}

/// Parses the `--adaptive` / `--gate` / `--pilot` flag family into an
/// escalation policy. Validation happens here, before any dataset or
/// supernet work starts: a non-finite or negative threshold, an unknown
/// gate metric or a zero pilot count is a usage error (exit 2), never a
/// mid-run fault. Returns `None` when `--adaptive` is absent and an
/// inert policy for `--adaptive off` (byte-identical to no policy).
fn adaptive_policy_from_flags(
    flags: &HashMap<String, String>,
) -> Result<Option<neural_dropout_search::adaptive::AdaptivePolicy>, CliError> {
    use neural_dropout_search::adaptive::{AdaptivePolicy, EscalationPolicy, GateMetric};

    let Some(raw) = flags.get("adaptive") else {
        for stray in ["gate", "pilot"] {
            if flags.contains_key(stray) {
                return Err(usage(format!("--{stray} requires --adaptive")));
            }
        }
        return Ok(None);
    };
    if raw == "off" {
        return Ok(Some(AdaptivePolicy::disabled()));
    }
    let threshold: f64 = raw.parse().map_err(|_| {
        usage(format!(
            "bad --adaptive value `{raw}` (expected `off` or a threshold)"
        ))
    })?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(usage(format!(
            "--adaptive threshold must be finite and non-negative, got `{raw}`"
        )));
    }
    let metric: GateMetric = match flags.get("gate") {
        None => GateMetric::PredictiveEntropy,
        Some(g) => g
            .parse()
            .map_err(|_| usage(format!("bad --gate value `{g}` (entropy | top-var)")))?,
    };
    let pilot: usize = parse_flag(flags, "pilot", 1)?;
    let policy = AdaptivePolicy::escalate(EscalationPolicy {
        metric,
        threshold,
        pilot,
    });
    policy.validate().map_err(|e| usage(e.to_string()))?;
    Ok(Some(policy))
}

fn parse_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        Some(raw) => raw
            .parse()
            .map_err(|_| usage(format!("bad --{key} value `{raw}`"))),
        None => Ok(default),
    }
}

fn hw_arch_for(
    flags: &HashMap<String, String>,
) -> Result<neural_dropout_search::nn::arch::Architecture, CliError> {
    match flags.get("arch").map(String::as_str).unwrap_or("lenet") {
        "lenet" => Ok(zoo::lenet()),
        "vgg" | "vgg11" => Ok(zoo::vgg11_paper()),
        "resnet" | "resnet18" => Ok(zoo::resnet18_paper()),
        "vit" | "transformer" => Ok(zoo::tiny_vit(16, 4, 2)),
        other => Err(usage(format!("unknown arch `{other}`"))),
    }
}

fn config_for(flags: &HashMap<String, String>) -> Result<DropoutConfig, CliError> {
    flags
        .get("config")
        .ok_or_else(|| usage("--config is required"))?
        .parse()
        .map_err(|e: neural_dropout_search::supernet::SupernetError| usage(e.to_string()))
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let arch = hw_arch_for(flags)?;
    let config = config_for(flags)?;
    let mut accel = AcceleratorConfig::for_arch(&arch);
    if flags.contains_key("spatial") {
        accel.mapping = McMapping::Spatial;
    }
    if let Some(samples) = flags.get("samples") {
        accel.samples = samples
            .parse()
            .map_err(|_| usage(format!("bad --samples `{samples}`")))?;
    }
    let model = AcceleratorModel::new(accel);
    let report = model.analyze(&arch, &config).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn cmd_hls(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let arch = hw_arch_for(flags)?;
    let config = config_for(flags)?;
    let out: PathBuf = flags
        .get("out")
        .ok_or_else(|| usage("--out is required"))?
        .into();
    let accel = AcceleratorConfig::for_arch(&arch);
    let project = generate_project(&arch, &config, &accel, None).map_err(|e| e.to_string())?;
    project.write_to(&out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} files ({} bytes) to {}",
        project.files().len(),
        project.total_bytes(),
        out.display()
    );
    Ok(())
}

fn cmd_space(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let seed = 0;
    let arch = match flags.get("arch").map(String::as_str).unwrap_or("lenet") {
        "lenet" => zoo::lenet(),
        "vgg" | "vgg11" => zoo::vgg11(8),
        "resnet" | "resnet18" => zoo::resnet18(8),
        "vit" | "transformer" => zoo::tiny_vit(16, 4, 2),
        other => return Err(usage(format!("unknown arch `{other}`"))),
    };
    let spec = if flags.contains_key("extended") {
        SupernetSpec::extended_default(arch, seed)
    } else {
        SupernetSpec::paper_default(arch, seed)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "architecture {}: {} dropout slots, {} configurations",
        spec.arch.name,
        spec.slot_count(),
        spec.space_size()
    );
    for slot in spec.slots() {
        let choices: String = spec.choices[slot.id]
            .iter()
            .map(|k| k.code().to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "  slot {}: {:?} position, shape {}, choices {}",
            slot.id, slot.position, slot.shape, choices
        );
    }
    if spec.space_size() <= 64 {
        println!("\nall configurations:");
        for config in spec.enumerate() {
            println!("  {config}");
        }
    }
    Ok(())
}

fn cmd_serve_bench(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use neural_dropout_search::engine::Execution;
    use neural_dropout_search::serve::{ServeRequest, ServerBuilder, TenantSpec};
    use neural_dropout_search::supernet::Supernet;
    use neural_dropout_search::tensor::rng::Rng64;
    use neural_dropout_search::tensor::{Shape, Tensor};
    use std::time::Instant;

    let seed: u64 = parse_flag(flags, "seed", 42)?;
    let samples: usize = parse_flag(flags, "samples", 3)?;
    let tenants: usize = parse_flag::<usize>(flags, "tenants", 1)?.max(1);
    let max_batch: usize = parse_flag(flags, "max-batch", 8)?;
    let serial_reqs: usize = parse_flag::<usize>(flags, "serial", 16)?.max(2);
    let sat_reqs: usize = parse_flag::<usize>(flags, "requests", 64)?.max(1);
    let execution: Execution = parse_flag(flags, "execution", Execution::default())?;
    // Validated up front, like every other flag: exit 2 before the
    // supernet is built or any request is accepted.
    let adaptive = adaptive_policy_from_flags(flags)?;
    let arch_name = flags.get("arch").map(String::as_str).unwrap_or("lenet");
    // Width-scaled CPU variants, as in `eval`; the request payload is
    // one image of the architecture's input shape.
    let (arch, c, hw) = match arch_name {
        "lenet" => (zoo::lenet(), 1, 28),
        "vgg" | "vgg11" => (zoo::vgg11(8), 3, 32),
        "resnet" | "resnet18" => (zoo::resnet18(8), 3, 32),
        "vit" | "transformer" => (zoo::tiny_vit(16, 4, 2), 1, 28),
        other => return Err(usage(format!("unknown arch `{other}`"))),
    };
    let spec = SupernetSpec::paper_default(arch, seed).map_err(|e| e.to_string())?;
    let mut supernet = Supernet::build(&spec).map_err(|e| e.to_string())?;
    // Per-request and per-tenant streams come from the split helper so
    // the domains cannot collide with each other (or with the search
    // campaign's per-island streams) the way ad-hoc xor/add offsets can.
    let image_stream = Rng64::derive(seed, 0x5E21);
    let image = |i: u64| {
        let mut rng = Rng64::new(Rng64::derive(image_stream, i));
        Tensor::rand_normal(Shape::d4(1, c, hw, hw), 0.0, 1.0, &mut rng)
    };

    let mut builder = ServerBuilder::new(supernet.net_mut().clone())
        .max_batch(max_batch)
        .execution(execution);
    let tenant_ids: Vec<_> = (0..tenants)
        .map(|t| {
            builder.tenant(TenantSpec {
                seed: Rng64::derive(Rng64::derive(seed, 0x7E4A), t as u64),
                samples,
                adaptive: adaptive.clone().unwrap_or_default(),
            })
        })
        .collect();
    let server = builder.build();
    println!(
        "serve-bench arch={} samples={samples} tenants={tenants} max_batch={max_batch} \
         execution={execution}",
        spec.arch.name
    );
    if let Some(esc) = adaptive
        .as_ref()
        .filter(|p| p.enabled())
        .and_then(|p| p.escalation.as_ref())
    {
        println!(
            "adaptive gate={} threshold={:.6e} pilot={}",
            esc.metric, esc.threshold, esc.pilot
        );
    }

    // Warm-up, then batch-1 serial: one request in flight at a time —
    // each finds an idle dispatcher and pays only the handoff.
    let submit = |t: usize, i: u64| {
        server
            .submit(tenant_ids[t % tenants], ServeRequest::new(image(i)))
            .map_err(|e| e.to_string())
    };
    submit(0, 0)?.wait().map_err(|e| e.to_string())?;
    let mut lat_ms = Vec::with_capacity(serial_reqs);
    let serial_t0 = Instant::now();
    for i in 0..serial_reqs {
        let t = Instant::now();
        submit(i, 1 + i as u64)?.wait().map_err(|e| e.to_string())?;
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let serial_rps = serial_reqs as f64 / serial_t0.elapsed().as_secs_f64();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p50 = lat_ms[lat_ms.len() / 2];
    let p99 = lat_ms[((lat_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, lat_ms.len()) - 1];

    // Saturation: every request queued up front, tenants round-robin.
    let sat_t0 = Instant::now();
    let tickets: Result<Vec<_>, _> = (0..sat_reqs).map(|i| submit(i, 2000 + i as u64)).collect();
    let mut batch_sum = 0usize;
    for ticket in tickets? {
        batch_sum += ticket.wait().map_err(|e| e.to_string())?.timing.batch_size;
    }
    let sat_rps = sat_reqs as f64 / sat_t0.elapsed().as_secs_f64();
    server.shutdown();

    println!(
        "batch-1   {serial_reqs} requests: p50 {p50:.3} ms, p99 {p99:.3} ms, {serial_rps:.1} req/s"
    );
    println!(
        "saturated {sat_reqs} requests: {sat_rps:.1} req/s, mean batch {:.2}, speedup {:.3}x",
        batch_sum as f64 / sat_reqs as f64,
        sat_rps / serial_rps
    );
    Ok(())
}
