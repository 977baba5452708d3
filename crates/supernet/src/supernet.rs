use crate::{DropoutConfig, SelectionState, SlotLayer, SupernetError, SupernetSpec};
use nds_data::Dataset;
use nds_engine::{EngineBuilder, PredictRequest, UncertaintyEngine};
use nds_metrics::{accuracy, average_predictive_entropy, ece, EceConfig};
use nds_nn::layers::Sequential;
use nds_nn::loss::softmax_cross_entropy;
use nds_nn::optim::Sgd;
use nds_nn::train::TrainConfig;
use nds_nn::Layer;
use nds_tensor::rng::Rng64;
use nds_tensor::Tensor;

/// Distinguished MC-sample stream used for batch-norm calibration
/// forwards, far away from the real sample indices `0..S`.
const CALIBRATION_STREAM: u64 = u64::MAX;

/// Per-epoch statistics from SPOS supernet training.
#[derive(Debug, Clone, PartialEq)]
pub struct SposStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch (averaged across sampled paths).
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Number of distinct configurations sampled this epoch.
    pub distinct_paths: usize,
}

/// Algorithmic metrics of one candidate configuration, as evaluated on the
/// validation set (paper §3.4): the three software terms of the search aim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateMetrics {
    /// Top-1 accuracy on the validation set (fraction).
    pub accuracy: f64,
    /// Expected calibration error on the validation set (fraction).
    pub ece: f64,
    /// Average predictive entropy on the OOD probe set (nats).
    pub ape: f64,
}

/// The one-shot supernet: a built network whose dropout slots can switch
/// between their candidate designs at zero cost (weights are shared).
#[derive(Debug)]
pub struct Supernet {
    spec: SupernetSpec,
    selection: SelectionState,
    /// Shared (`Arc`) so forking never copies the calibration images —
    /// a fork reads the same batches it would have been handed anyway.
    calibration: std::sync::Arc<Vec<Tensor>>,
    /// The serving facade that owns the built network: every candidate
    /// evaluation routes its MC prediction rounds through
    /// [`UncertaintyEngine::predict`], so the supernet inherits the
    /// engine's warm workspace, persistent worker-clone cache and
    /// serial/parallel byte-identity guarantees. The engine also holds
    /// the MC sampling number S.
    engine: UncertaintyEngine,
}

impl Supernet {
    /// Builds the supernet from a specification.
    ///
    /// # Errors
    ///
    /// Propagates architecture and dropout construction errors.
    pub fn build(spec: &SupernetSpec) -> Result<Self, SupernetError> {
        let selection = SelectionState::new(spec.slot_count());
        let mut rng = Rng64::new(spec.seed);
        let mut build_err: Option<SupernetError> = None;
        let selection_for_build = selection.clone();
        let choices = spec.choices.clone();
        let settings = spec.settings;
        let seed = spec.seed;
        let net = spec.arch.build(&mut rng, &mut |slot| match SlotLayer::new(
            slot,
            &choices[slot.id],
            &settings,
            selection_for_build.clone(),
            seed ^ 0xD20_0000 ^ slot.id as u64,
        ) {
            Ok(layer) => Box::new(layer),
            Err(e) => {
                build_err = Some(e.into());
                Box::new(nds_nn::layers::Identity::new())
            }
        })?;
        if let Some(e) = build_err {
            return Err(e);
        }
        Ok(Supernet {
            spec: spec.clone(),
            selection,
            calibration: std::sync::Arc::new(Vec::new()),
            engine: EngineBuilder::new(net)
                .samples(spec.settings.n_masks)
                .build(),
        })
    }

    /// The specification this supernet was built from.
    pub fn spec(&self) -> &SupernetSpec {
        &self.spec
    }

    /// Forks an independent copy of this supernet for a worker thread:
    /// same weights, batch-norm statistics, calibration batches and
    /// active configuration — but its own selection state, so the fork
    /// can switch paths without affecting the original. The fork's
    /// engine keeps every setting of the original's (backend, seed,
    /// execution order, …; see [`UncertaintyEngine::sibling`]), so a
    /// fork scores a candidate with the bytes the original would.
    ///
    /// Implemented **init-free**, in O(layers): the network is cloned —
    /// a copy-on-write share, since parameters live in
    /// [`nds_tensor::SharedTensor`] storage and every layer's `Clone`
    /// resets its forward caches — and a [`Layer::visit_any`] sweep
    /// rewires each [`SlotLayer`] onto a fresh [`SelectionState`]
    /// carrying the original's active configuration. No spec rebuild, no
    /// throwaway He-initialised parameter set, not a single weight
    /// copied; batch-norm running statistics (plain per-layer vectors)
    /// ride the clone, and training either side afterwards detaches a
    /// private copy without disturbing the other. Optimizer momentum is
    /// shared copy-on-write like every other parameter tensor and
    /// detaches on first write; forks are for parallel evaluation, not
    /// training.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept for API stability.
    pub fn fork(&mut self) -> Result<Supernet, SupernetError> {
        let selection = SelectionState::new(self.spec.slot_count());
        for slot in 0..selection.len() {
            selection.set(slot, self.selection.get(slot));
        }
        let mut net = self.engine.net().clone();
        net.visit_any(&mut |layer| {
            if let Some(slot) = layer.downcast_mut::<SlotLayer>() {
                slot.rebind_selection(selection.clone());
            }
        });
        Ok(Supernet {
            spec: self.spec.clone(),
            selection,
            calibration: std::sync::Arc::clone(&self.calibration),
            engine: self.engine.sibling(net),
        })
    }

    /// The MC sampling number S used for evaluation (defaults to the
    /// Masksembles mask count, 3 in the paper).
    pub fn sampling_number(&self) -> usize {
        self.engine.samples()
    }

    /// Overrides the MC sampling number (clamped to at least 1 — search
    /// and evaluation loops have no error channel for a zero S, unlike
    /// the serving engine, which rejects it with a typed error).
    pub fn set_sampling_number(&mut self, samples: usize) {
        self.engine.set_samples(samples.max(1));
    }

    /// Shared access to the underlying network (benchmarks snapshot it
    /// into standalone serving engines).
    pub fn net(&self) -> &Sequential {
        self.engine.net()
    }

    /// Mutable access to the underlying network (examples use this for
    /// custom loops).
    pub fn net_mut(&mut self) -> &mut Sequential {
        self.engine.net_mut()
    }

    /// The serving engine that owns this supernet's network — the entry
    /// point for custom prediction requests (`nds eval`, examples) that
    /// should share the supernet's warm workspaces and clone cache.
    pub fn engine_mut(&mut self) -> &mut UncertaintyEngine {
        &mut self.engine
    }

    /// Installs batch-norm recalibration batches.
    ///
    /// SPOS shares one set of batch-norm running statistics across every
    /// path, accumulated while training under *randomly sampled* paths.
    /// Those blended statistics misrepresent each individual candidate and
    /// evaluation accuracy collapses. The SPOS paper (Guo et al., 2020)
    /// fixes this by re-estimating the statistics per candidate before
    /// evaluation; installing calibration batches here makes
    /// [`Supernet::evaluate`] do exactly that.
    pub fn set_calibration_batches(&mut self, batches: Vec<Tensor>) {
        self.calibration = std::sync::Arc::new(batches);
    }

    /// Convenience over [`Supernet::set_calibration_batches`]: draws up to
    /// `batches` mini-batches of `batch_size` images from `data`.
    pub fn set_calibration_from(
        &mut self,
        data: &Dataset,
        batches: usize,
        batch_size: usize,
        rng: &mut Rng64,
    ) {
        let images = data
            .iter_batches(batch_size, rng)
            .take(batches)
            .map(|(images, _)| images)
            .collect();
        self.set_calibration_batches(images);
    }

    /// Discards any installed calibration batches (evaluation reverts to
    /// the raw training-time running statistics).
    pub fn clear_calibration(&mut self) {
        self.calibration = std::sync::Arc::new(Vec::new());
    }

    /// Re-estimates every batch-norm layer's running statistics under the
    /// *currently active* configuration by streaming the installed
    /// calibration batches through the network (dropout active, exact
    /// pooled statistics).
    ///
    /// Returns `Ok(false)` when no calibration batches are installed (the
    /// statistics are left untouched).
    ///
    /// # Errors
    ///
    /// Propagates network execution errors; the layers are taken out of
    /// accumulation mode even on error.
    pub fn recalibrate(&mut self) -> Result<bool, SupernetError> {
        if self.calibration.is_empty() {
            return Ok(false);
        }
        let net = self.engine.net_mut();
        let mut bn_layers = 0usize;
        net.visit_batch_norms(&mut |_| bn_layers += 1);
        if bn_layers == 0 {
            // Nothing to recalibrate (e.g. LeNet) — skip the forwards.
            return Ok(false);
        }
        net.visit_batch_norms(&mut |bn| bn.begin_stat_accumulation());
        let mut first_err = None;
        let calibration = std::sync::Arc::clone(&self.calibration);
        for images in calibration.iter() {
            if let Err(e) = net.forward(images, nds_nn::Mode::Train) {
                first_err = Some(e);
                break;
            }
        }
        net.visit_batch_norms(&mut |bn| {
            bn.finish_stat_accumulation();
        });
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(true),
        }
    }

    /// Activates a configuration: every slot switches to the requested
    /// design. Costs a few index writes — this is the weight-sharing payoff.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::BadSpec`] when the config is not a member
    /// of this supernet's space.
    pub fn set_config(&mut self, config: &DropoutConfig) -> Result<(), SupernetError> {
        if !self.spec.contains(config) {
            return Err(SupernetError::BadSpec(format!(
                "config {config} is not in this supernet's space"
            )));
        }
        for (slot, kind) in config.kinds().iter().enumerate() {
            let ix = self.spec.choices[slot]
                .iter()
                .position(|k| k == kind)
                .expect("contains() verified membership");
            self.selection.set(slot, ix);
        }
        Ok(())
    }

    /// The currently-active configuration.
    pub fn active_config(&self) -> DropoutConfig {
        DropoutConfig::new(
            self.spec
                .choices
                .iter()
                .enumerate()
                .map(|(slot, list)| list[self.selection.get(slot)])
                .collect(),
        )
    }

    /// Uniformly samples a configuration, activates it and returns it —
    /// one SPOS path draw.
    pub fn sample_uniform(&mut self, rng: &mut Rng64) -> DropoutConfig {
        let config = self.spec.sample_config(rng);
        self.set_config(&config)
            .expect("sampled configs are members");
        config
    }

    /// SPOS supernet training (paper §3.3): every mini-batch uniformly
    /// samples a single path and updates the shared weights through it.
    ///
    /// # Errors
    ///
    /// Propagates network execution errors.
    pub fn train_spos(
        &mut self,
        train: &Dataset,
        config: &TrainConfig,
        rng: &mut Rng64,
    ) -> Result<Vec<SposStats>, SupernetError> {
        let mut history = Vec::with_capacity(config.epochs);
        for epoch in 0..config.epochs {
            let lr = config.lr_at(epoch);
            let sgd = Sgd::with_momentum(lr, config.momentum, config.weight_decay);
            let mut loss_sum = 0.0f64;
            let mut seen = 0usize;
            let mut correct = 0usize;
            let mut paths = std::collections::HashSet::new();
            let mut batch_rng = rng.fork(epoch as u64 ^ 0xE90C);
            for (images, labels) in train.iter_batches(config.batch_size, &mut batch_rng) {
                let path = self.sample_uniform(rng);
                paths.insert(path.compact());
                let net = self.engine.net_mut();
                let logits = net.forward(&images, nds_nn::Mode::Train)?;
                let (loss, dlogits) = softmax_cross_entropy(&logits, &labels)?;
                net.backward(&dlogits)?;
                let mut params = net.params_mut();
                nds_nn::optim::clip_grad_norm(&mut params, config.clip_norm);
                sgd.step(&mut params);
                sgd.zero_grad(&mut params);
                loss_sum += loss * labels.len() as f64;
                seen += labels.len();
                correct += count_correct(&logits, &labels);
            }
            history.push(SposStats {
                epoch,
                loss: if seen > 0 {
                    loss_sum / seen as f64
                } else {
                    0.0
                },
                accuracy: if seen > 0 {
                    correct as f64 / seen as f64
                } else {
                    0.0
                },
                distinct_paths: paths.len(),
            });
        }
        Ok(history)
    }

    /// Evaluates one candidate with shared weights (paper §3.4): MC-dropout
    /// prediction on the validation set for accuracy and ECE, plus aPE on
    /// the OOD probe tensor.
    ///
    /// When calibration batches are installed (see
    /// [`Supernet::set_calibration_batches`]), batch-norm statistics are
    /// re-estimated for this candidate first — required for faithful SPOS
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Propagates network execution and metric errors.
    pub fn evaluate(
        &mut self,
        config: &DropoutConfig,
        val: &Dataset,
        ood: &Tensor,
        batch_size: usize,
    ) -> Result<CandidateMetrics, SupernetError> {
        self.set_config(config)?;
        // Calibration forwards draw dropout masks (Train mode); pin them
        // to a dedicated stream so the whole evaluation is a pure
        // function of (weights, config) — independent of what ran
        // before, and therefore identical whether candidates are
        // evaluated serially or on forked copies across worker threads.
        self.engine.net_mut().begin_mc_sample(CALIBRATION_STREAM);
        self.recalibrate()?;
        // The engine's chunk choice is byte-invariant; honour the
        // caller's batch size anyway so memory behaviour matches the
        // historical evaluation loop.
        self.engine.set_chunk_size(batch_size.max(1));
        let (images, labels) = val.full_batch();
        let pred = self.engine.predict(&PredictRequest::new(&images))?;
        let acc = accuracy(&pred.probs, &labels)
            .map_err(|e| SupernetError::BadSpec(format!("metric failure: {e}")))?;
        let cal = ece(&pred.probs, &labels, EceConfig::default())
            .map_err(|e| SupernetError::BadSpec(format!("metric failure: {e}")))?;
        self.engine.recycle(pred);
        let ood_pred = self.engine.predict(&PredictRequest::new(ood))?;
        let ape = average_predictive_entropy(&ood_pred.probs)
            .map_err(|e| SupernetError::BadSpec(format!("metric failure: {e}")))?;
        self.engine.recycle(ood_pred);
        Ok(CandidateMetrics {
            accuracy: acc,
            ece: cal,
            ape,
        })
    }
}

fn count_correct(logits: &Tensor, labels: &[usize]) -> usize {
    let c = logits.shape().dim(1);
    let data = logits.as_slice();
    labels
        .iter()
        .enumerate()
        .filter(|(i, &label)| {
            let row = &data[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best == label
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_data::{mnist_like, DatasetConfig};
    use nds_nn::optim::LrSchedule;
    use nds_nn::zoo;

    fn lenet_supernet(seed: u64) -> Supernet {
        let spec = SupernetSpec::paper_default(zoo::lenet(), seed).unwrap();
        Supernet::build(&spec).unwrap()
    }

    #[test]
    fn build_and_switch_configs() {
        let mut net = lenet_supernet(1);
        let config: DropoutConfig = "RKM".parse().unwrap();
        net.set_config(&config).unwrap();
        assert_eq!(net.active_config(), config);
        let bad: DropoutConfig = "KKK".parse().unwrap(); // K illegal at FC slot
        assert!(net.set_config(&bad).is_err());
    }

    #[test]
    fn spos_training_reduces_loss_and_visits_paths() {
        let splits = mnist_like(&DatasetConfig {
            train: 128,
            val: 32,
            test: 32,
            seed: 3,
            noise: 0.05,
        });
        let mut net = lenet_supernet(2);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        };
        let mut rng = Rng64::new(4);
        let history = net.train_spos(&splits.train, &config, &mut rng).unwrap();
        assert_eq!(history.len(), 2);
        assert!(
            history[1].loss < history[0].loss,
            "loss {} -> {}",
            history[0].loss,
            history[1].loss
        );
        // 8 batches/epoch from a 32-config space: expect several paths.
        assert!(
            history[0].distinct_paths >= 4,
            "{}",
            history[0].distinct_paths
        );
    }

    #[test]
    fn fork_is_independent_but_evaluates_identically() {
        let splits = mnist_like(&DatasetConfig {
            train: 64,
            val: 24,
            test: 16,
            seed: 9,
            noise: 0.05,
        });
        let mut original = lenet_supernet(8);
        let mut ood_rng = Rng64::new(77);
        let ood = splits.val.ood_noise(8, &mut ood_rng);
        let config: DropoutConfig = "RBM".parse().unwrap();
        original.set_config(&config).unwrap();
        let mut fork = original.fork().unwrap();
        // Same weights, same active config.
        assert_eq!(fork.active_config(), config);
        let a = original.evaluate(&config, &splits.val, &ood, 8).unwrap();
        let b = fork.evaluate(&config, &splits.val, &ood, 8).unwrap();
        assert_eq!(a, b, "fork must reproduce the original's evaluation");
        // Selection state is detached: switching the fork leaves the
        // original untouched.
        fork.set_config(&"BBB".parse().unwrap()).unwrap();
        assert_eq!(original.active_config(), config);
    }

    #[test]
    fn evaluate_is_history_free() {
        let splits = mnist_like(&DatasetConfig {
            train: 64,
            val: 24,
            test: 16,
            seed: 10,
            noise: 0.05,
        });
        let mut net = lenet_supernet(9);
        let mut ood_rng = Rng64::new(77);
        let ood = splits.val.ood_noise(8, &mut ood_rng);
        let config: DropoutConfig = "BRM".parse().unwrap();
        let first = net.evaluate(&config, &splits.val, &ood, 8).unwrap();
        // Evaluate something else in between, then repeat.
        net.evaluate(&"MMM".parse().unwrap(), &splits.val, &ood, 8)
            .unwrap();
        let second = net.evaluate(&config, &splits.val, &ood, 8).unwrap();
        assert_eq!(first, second, "evaluation must not depend on history");
    }

    #[test]
    fn evaluate_produces_sane_metrics() {
        let splits = mnist_like(&DatasetConfig {
            train: 96,
            val: 48,
            test: 32,
            seed: 5,
            noise: 0.05,
        });
        let mut net = lenet_supernet(6);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        };
        let mut rng = Rng64::new(7);
        net.train_spos(&splits.train, &config, &mut rng).unwrap();
        let ood = splits.train.ood_noise(32, &mut rng);
        let metrics = net
            .evaluate(&"BBB".parse().unwrap(), &splits.val, &ood, 16)
            .unwrap();
        assert!((0.0..=1.0).contains(&metrics.accuracy));
        assert!((0.0..=1.0).contains(&metrics.ece));
        assert!((0.0..=10.0f64.ln() + 1e-9).contains(&metrics.ape));
        // Trained even briefly, LeNet should beat chance on the easy set.
        assert!(metrics.accuracy > 0.15, "accuracy {}", metrics.accuracy);
    }

    #[test]
    fn shared_weights_across_configs() {
        // Same weights: switching config must not change parameter values.
        let mut net = lenet_supernet(8);
        let before: Vec<f32> = net
            .net_mut()
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        net.set_config(&"MMM".parse().unwrap()).unwrap();
        net.set_config(&"BBB".parse().unwrap()).unwrap();
        let after: Vec<f32> = net
            .net_mut()
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn recalibrate_without_batches_is_a_noop() {
        let mut net = lenet_supernet(10);
        assert!(!net.recalibrate().unwrap());
    }

    #[test]
    fn recalibration_changes_bn_statistics_per_config() {
        use nds_data::cifar_like;
        use nds_nn::Layer;
        // LeNet has no batch-norm; the width-2 ResNet does, downstream of
        // every dropout slot, so different paths must pool different stats.
        let spec = SupernetSpec::paper_default(zoo::resnet18(2), 12).unwrap();
        let mut net = Supernet::build(&spec).unwrap();
        let splits = cifar_like(&DatasetConfig {
            train: 64,
            val: 16,
            test: 16,
            seed: 11,
            noise: 0.05,
        });
        let mut rng = Rng64::new(13);
        net.set_calibration_from(&splits.train, 2, 32, &mut rng);
        let stats = |net: &mut Supernet| -> Vec<f32> {
            let mut all = Vec::new();
            net.net_mut().visit_batch_norms(&mut |bn| {
                all.extend_from_slice(bn.running_mean());
                all.extend_from_slice(bn.running_var());
            });
            all
        };
        let priors = stats(&mut net);
        net.set_config(&"BBBB".parse().unwrap()).unwrap();
        assert!(net.recalibrate().unwrap());
        let bernoulli_stats = stats(&mut net);
        net.set_config(&"MMMM".parse().unwrap()).unwrap();
        assert!(net.recalibrate().unwrap());
        let masksembles_stats = stats(&mut net);
        assert!(!priors.is_empty(), "ResNet has batch-norm layers");
        assert_ne!(priors, bernoulli_stats, "recalibration must move the stats");
        assert_ne!(
            bernoulli_stats, masksembles_stats,
            "different dropout paths must produce different BN statistics"
        );
    }

    #[test]
    fn recalibrated_evaluation_does_not_collapse() {
        // The motivating regression: without per-candidate recalibration,
        // shared running stats blend random paths and evaluation accuracy
        // can fall far below training accuracy. With it, evaluation should
        // stay in the same regime as training.
        use nds_data::cifar_like;
        let splits = cifar_like(&DatasetConfig {
            train: 192,
            val: 48,
            test: 16,
            seed: 14,
            noise: 0.05,
        });
        let spec = SupernetSpec::paper_default(zoo::resnet18(2), 15).unwrap();
        let mut net = Supernet::build(&spec).unwrap();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        };
        let mut rng = Rng64::new(16);
        let history = net.train_spos(&splits.train, &config, &mut rng).unwrap();
        let train_acc = history.last().unwrap().accuracy;
        net.set_calibration_from(&splits.train, 3, 64, &mut rng);
        let ood = splits.train.ood_noise(16, &mut rng);
        let metrics = net
            .evaluate(&"BBBB".parse().unwrap(), &splits.val, &ood, 64)
            .unwrap();
        assert!(
            metrics.accuracy > 0.5 * train_acc,
            "evaluation accuracy {} collapsed vs training accuracy {train_acc}",
            metrics.accuracy
        );
    }

    #[test]
    fn transformer_supernet_trains_and_evaluates() {
        // The paper's future-work direction: the same SPOS machinery over
        // a tiny vision transformer (2 slots × 4 kinds = 16 configs).
        let spec = SupernetSpec::paper_default(zoo::tiny_vit(16, 4, 2), 21).unwrap();
        assert_eq!(spec.space_size(), 16);
        let splits = mnist_like(&DatasetConfig {
            train: 128,
            val: 32,
            test: 16,
            seed: 22,
            noise: 0.05,
        });
        let mut net = Supernet::build(&spec).unwrap();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        };
        let mut rng = Rng64::new(23);
        let history = net.train_spos(&splits.train, &config, &mut rng).unwrap();
        assert!(
            history[1].loss < history[0].loss,
            "transformer SPOS loss {} -> {}",
            history[0].loss,
            history[1].loss
        );
        let ood = splits.train.ood_noise(16, &mut rng);
        for code in ["BB", "MM", "KR"] {
            let metrics = net
                .evaluate(&code.parse().unwrap(), &splits.val, &ood, 32)
                .unwrap();
            assert!((0.0..=1.0).contains(&metrics.accuracy), "{code}");
            assert!(metrics.ape >= 0.0, "{code}");
        }
    }

    #[test]
    fn sampling_number_is_configurable() {
        let mut net = lenet_supernet(9);
        assert_eq!(net.sampling_number(), 3); // paper default
        net.set_sampling_number(5);
        assert_eq!(net.sampling_number(), 5);
        net.set_sampling_number(0);
        assert_eq!(net.sampling_number(), 1, "clamped to 1");
    }
}
