//! Property-based tests over the workspace's core invariants.

use neural_dropout_search::dropout::masks::{
    bernoulli_mask, block_mask, drop_fraction, random_mask,
};
use neural_dropout_search::dropout::masksembles::MaskSet;
use neural_dropout_search::gp::{GpRegressor, Kernel};
use neural_dropout_search::metrics::{accuracy, average_predictive_entropy, ece, EceConfig};
use neural_dropout_search::quant::{dequantize_slice, quantize_slice, Fixed, Q7_8};
use neural_dropout_search::supernet::DropoutConfig;
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- fixed point -----------------------------------------------------

    /// Quantisation error never exceeds half an LSB inside the
    /// representable range.
    #[test]
    fn q78_round_trip_error_is_bounded(v in -127.0f32..127.0) {
        let q = Fixed::from_f32(v, Q7_8);
        prop_assert!((q.to_f32() - v).abs() <= Q7_8.resolution() / 2.0 + 1e-7);
    }

    /// Values beyond the rails saturate instead of wrapping.
    #[test]
    fn q78_saturates_out_of_range(v in 200.0f32..1e6) {
        prop_assert_eq!(Fixed::from_f32(v, Q7_8).raw(), i16::MAX);
        prop_assert_eq!(Fixed::from_f32(-v, Q7_8).raw(), i16::MIN);
    }

    /// Slice quantisation round-trips through raw words losslessly.
    #[test]
    fn quantize_slice_round_trips(vs in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let raw = quantize_slice(&vs, Q7_8);
        let back = dequantize_slice(&raw, Q7_8);
        let again = quantize_slice(&back, Q7_8);
        prop_assert_eq!(raw, again, "second round trip must be exact");
    }

    /// Fixed-point multiplication commutes.
    #[test]
    fn fixed_mul_commutes(a in -80.0f32..80.0, b in -1.5f32..1.5) {
        let fa = Fixed::from_f32(a, Q7_8);
        let fb = Fixed::from_f32(b, Q7_8);
        prop_assert_eq!(fa * fb, fb * fa);
    }

    // ---- masks -------------------------------------------------------------

    /// Bernoulli masks contain only 0 and the inverted-dropout scale, and
    /// empirical drop fraction is sane.
    #[test]
    fn bernoulli_mask_values(seed in 0u64..1000, rate in 0.0f32..0.9) {
        let mut rng = Rng64::new(seed);
        let mask = bernoulli_mask(256, rate, &mut rng);
        let scale = 1.0 / (1.0 - rate);
        prop_assert!(mask.iter().all(|&v| v == 0.0 || (v - scale).abs() < 1e-5));
        prop_assert!(drop_fraction(&mask) <= 1.0);
    }

    /// Random masks drop exactly floor(rate * n) and preserve the mean.
    #[test]
    fn random_mask_exact_count(seed in 0u64..1000, rate in 0.0f32..0.9, n in 1usize..256) {
        let mut rng = Rng64::new(seed);
        let mask = random_mask(n, rate, &mut rng);
        let dropped = mask.iter().filter(|&&v| v == 0.0).count();
        prop_assert_eq!(dropped, ((rate as f64) * n as f64).floor() as usize);
        if dropped < n {
            let mean: f64 = mask.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            prop_assert!((mean - 1.0).abs() < 1e-5);
        }
    }

    /// Block masks never produce negative or non-finite entries.
    #[test]
    fn block_mask_entries_valid(seed in 0u64..500, rate in 0.0f32..0.6, hw in 4usize..20) {
        let mut rng = Rng64::new(seed);
        let mask = block_mask(hw, hw, rate, 3, &mut rng);
        prop_assert_eq!(mask.len(), hw * hw);
        prop_assert!(mask.iter().all(|&v| v.is_finite() && v >= 0.0));
    }

    /// Masksembles: every mask keeps something and preserves the mean.
    #[test]
    fn masksembles_masks_preserve_mean(seed in 0u64..500, features in 2usize..96, scale in 1.0f64..3.5) {
        let mut rng = Rng64::new(seed);
        let set = MaskSet::generate(3, features, scale, &mut rng);
        for i in 0..set.len() {
            let mask = set.mask(i);
            let kept = mask.iter().filter(|&&v| v > 0.0).count();
            prop_assert!(kept > 0);
            let mean: f64 = mask.iter().map(|&v| v as f64).sum::<f64>() / features as f64;
            prop_assert!((mean - 1.0).abs() < 1e-5);
        }
    }

    // ---- configs -----------------------------------------------------------

    /// Config display/parse round-trips for arbitrary code strings.
    #[test]
    fn config_round_trips(codes in proptest::collection::vec(0usize..4, 1..8)) {
        let kinds: Vec<_> = codes
            .iter()
            .map(|&i| neural_dropout_search::dropout::DropoutKind::all()[i])
            .collect();
        let config = DropoutConfig::new(kinds);
        let display = config.to_string();
        let parsed: DropoutConfig = display.parse().unwrap();
        prop_assert_eq!(&parsed, &config);
        let compact: DropoutConfig = config.compact().parse().unwrap();
        prop_assert_eq!(&compact, &config);
    }

    // ---- metrics -----------------------------------------------------------

    /// On random probability rows: accuracy in [0,1], ECE in [0,1], and
    /// aPE within [0, ln C].
    #[test]
    fn metric_ranges(seed in 0u64..1000, n in 1usize..40) {
        let classes = 5;
        let mut rng = Rng64::new(seed);
        let mut data = Vec::with_capacity(n * classes);
        for _ in 0..n {
            let mut row: Vec<f32> = (0..classes).map(|_| rng.uniform_f32() + 1e-3).collect();
            let sum: f32 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= sum);
            data.extend(row);
        }
        let probs = Tensor::from_vec(data, Shape::d2(n, classes)).unwrap();
        let labels: Vec<usize> = (0..n).map(|_| rng.below(classes)).collect();
        let acc = accuracy(&probs, &labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
        let calibration = ece(&probs, &labels, EceConfig::default()).unwrap();
        prop_assert!((0.0..=1.0).contains(&calibration));
        let ape = average_predictive_entropy(&probs).unwrap();
        prop_assert!(ape >= 0.0 && ape <= (classes as f64).ln() + 1e-9);
    }

    // ---- tensor / RNG --------------------------------------------------------

    /// Shape offsets enumerate exactly 0..len once.
    #[test]
    fn shape_offsets_are_a_bijection(c in 1usize..5, h in 1usize..6, w in 1usize..6) {
        let shape = Shape::d3(c, h, w);
        let mut seen = vec![false; shape.len()];
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let off = shape.offset(&[ci, hi, wi]).unwrap();
                    prop_assert!(!seen[off]);
                    seen[off] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// sample_indices returns a sorted unique k-subset.
    #[test]
    fn sample_indices_properties(seed in 0u64..1000, n in 1usize..128, frac in 0.0f64..1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Rng64::new(seed);
        let ix = rng.sample_indices(n, k);
        prop_assert_eq!(ix.len(), k);
        prop_assert!(ix.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(ix.iter().all(|&i| i < n));
    }

    // ---- pruning -----------------------------------------------------------

    /// Magnitude pruning achieves the requested sparsity within one weight
    /// per tensor, and never touches rank-1 parameters.
    #[test]
    fn pruning_respects_fraction(seed in 0u64..300, sparsity in 0.0f64..1.0) {
        use neural_dropout_search::nn::layers::{Conv2d, Linear, Flatten, Sequential};
        use neural_dropout_search::nn::prune::{measured_sparsity, prune_magnitude};
        use neural_dropout_search::nn::Layer as _;
        use neural_dropout_search::tensor::conv::ConvGeometry;
        let mut rng = Rng64::new(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Conv2d::new(1, 4, ConvGeometry::new(3, 1, 1), true, &mut rng)));
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(4 * 6 * 6, 5, true, &mut rng)));
        let bias_before: Vec<f32> = net
            .params()
            .iter()
            .filter(|p| p.value.shape().rank() < 2)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        let stats = prune_magnitude(&mut net, sparsity);
        // Per-tensor floor() rounding: at most one weight per tensor short.
        prop_assert!(stats.pruned <= (sparsity * stats.total as f64).ceil() as usize + 2);
        prop_assert!((measured_sparsity(&net) - stats.sparsity()).abs() < 1e-9);
        let bias_after: Vec<f32> = net
            .params()
            .iter()
            .filter(|p| p.value.shape().rank() < 2)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        prop_assert_eq!(bias_before, bias_after);
    }

    /// Capturing and re-applying a prune mask is idempotent: a second
    /// reapply changes nothing, and sparsity is preserved exactly.
    #[test]
    fn prune_mask_reapply_is_idempotent(seed in 0u64..300, sparsity in 0.1f64..0.9) {
        use neural_dropout_search::nn::layers::{Linear, Flatten, Sequential};
        use neural_dropout_search::nn::prune::{measured_sparsity, prune_magnitude, PruneMask};
        use neural_dropout_search::nn::Layer as _;
        let mut rng = Rng64::new(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(32, 16, true, &mut rng)));
        prune_magnitude(&mut net, sparsity);
        let mask = PruneMask::capture(&net);
        for p in net.params_mut() {
            p.value.map_inplace(|v| v + 0.5);
        }
        mask.reapply(&mut net);
        let once: Vec<f32> = net.params().iter().flat_map(|p| p.value.as_slice().to_vec()).collect();
        mask.reapply(&mut net);
        let twice: Vec<f32> = net.params().iter().flat_map(|p| p.value.as_slice().to_vec()).collect();
        prop_assert_eq!(once, twice);
        prop_assert!((measured_sparsity(&net) - mask.sparsity()).abs() < 1e-9);
    }

    // ---- hypervolume ---------------------------------------------------------

    /// Hypervolume is monotone: adding any point never decreases it, and
    /// adding a dominated point never changes it.
    #[test]
    fn hypervolume_monotonicity(
        seed in 0u64..500,
        n in 1usize..8,
    ) {
        use neural_dropout_search::search::pareto::{dominates, figure4_objectives, hypervolume};
        use neural_dropout_search::search::Candidate;
        use neural_dropout_search::supernet::CandidateMetrics;
        use neural_dropout_search::dropout::DropoutKind;
        let mut rng = Rng64::new(seed);
        let mk = |rng: &mut Rng64| Candidate {
            config: DropoutConfig::uniform(DropoutKind::Bernoulli, 1),
            metrics: CandidateMetrics {
                accuracy: rng.uniform(),
                ece: rng.uniform(),
                ape: rng.uniform() * 2.3,
            },
            latency_ms: 1.0,
        };
        let points: Vec<Candidate> = (0..n).map(|_| mk(&mut rng)).collect();
        let extra = mk(&mut rng);
        let objectives = figure4_objectives();
        let reference = [0.0, 1.0, 0.0];
        let base = hypervolume(&points, &objectives, &reference);
        let mut extended = points.clone();
        extended.push(extra.clone());
        let grown = hypervolume(&extended, &objectives, &reference);
        prop_assert!(grown >= base - 1e-12, "HV shrank: {base} -> {grown}");
        if points.iter().any(|p| dominates(p, &extra, &objectives)) {
            prop_assert!((grown - base).abs() < 1e-12, "dominated point changed HV");
        }
    }

    /// The hypervolume of a single point is the product of its oriented
    /// distances to the reference.
    #[test]
    fn hypervolume_single_point_is_box_volume(
        acc in 0.01f64..1.0,
        ece in 0.0f64..0.99,
        ape in 0.01f64..2.0,
    ) {
        use neural_dropout_search::search::pareto::{figure4_objectives, hypervolume};
        use neural_dropout_search::search::Candidate;
        use neural_dropout_search::supernet::CandidateMetrics;
        use neural_dropout_search::dropout::DropoutKind;
        let point = Candidate {
            config: DropoutConfig::uniform(DropoutKind::Bernoulli, 1),
            metrics: CandidateMetrics { accuracy: acc, ece, ape },
            latency_ms: 1.0,
        };
        let hv = hypervolume(&[point], &figure4_objectives(), &[0.0, 1.0, 0.0]);
        let expected = acc * (1.0 - ece) * ape;
        prop_assert!((hv - expected).abs() < 1e-9, "hv {hv} expected {expected}");
    }

    // ---- batch-norm accumulation ----------------------------------------------

    /// Accumulated (pooled) statistics equal the statistics of the
    /// concatenated batches regardless of how the data is split.
    #[test]
    fn bn_accumulation_is_split_invariant(seed in 0u64..300, split in 1usize..7) {
        use neural_dropout_search::nn::layers::BatchNorm2d;
        use neural_dropout_search::nn::{Layer as _, Mode};
        let mut rng = Rng64::new(seed);
        let n = 8usize;
        let x = Tensor::rand_normal(Shape::d4(n, 1, 2, 2), 1.5, 2.0, &mut rng);
        // One shot.
        let mut bn_whole = BatchNorm2d::new(1);
        bn_whole.begin_stat_accumulation();
        bn_whole.forward(&x, Mode::Train).unwrap();
        prop_assert!(bn_whole.finish_stat_accumulation());
        // Split at `split`.
        let split = split.min(n - 1);
        let items = 4;
        let a = Tensor::from_vec(x.as_slice()[..split * items].to_vec(), Shape::d4(split, 1, 2, 2)).unwrap();
        let b = Tensor::from_vec(x.as_slice()[split * items..].to_vec(), Shape::d4(n - split, 1, 2, 2)).unwrap();
        let mut bn_split = BatchNorm2d::new(1);
        bn_split.begin_stat_accumulation();
        bn_split.forward(&a, Mode::Train).unwrap();
        bn_split.forward(&b, Mode::Train).unwrap();
        prop_assert!(bn_split.finish_stat_accumulation());
        prop_assert!((bn_whole.running_mean()[0] - bn_split.running_mean()[0]).abs() < 1e-4);
        prop_assert!((bn_whole.running_var()[0] - bn_split.running_var()[0]).abs() < 1e-3);
    }

    // ---- attention ---------------------------------------------------------

    /// Self-attention is permutation-equivariant for any weights and any
    /// token swap (no positional encoding in this design).
    #[test]
    fn attention_permutation_equivariance(seed in 0u64..300, a in 0usize..5, b in 0usize..5) {
        use neural_dropout_search::nn::layers::MultiHeadAttention;
        use neural_dropout_search::nn::{Layer as _, Mode};
        let (t, d) = (5usize, 8usize);
        let mut rng = Rng64::new(seed);
        let mut attn = MultiHeadAttention::new(d, 2, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(1, t, 1, d), 0.0, 1.0, &mut rng);
        let y = attn.forward(&x, Mode::Train).unwrap();
        let mut xp = x.clone();
        for k in 0..d {
            let va = x.as_slice()[a * d + k];
            let vb = x.as_slice()[b * d + k];
            xp.as_mut_slice()[a * d + k] = vb;
            xp.as_mut_slice()[b * d + k] = va;
        }
        let yp = attn.forward(&xp, Mode::Train).unwrap();
        for k in 0..d {
            prop_assert!((y.as_slice()[a * d + k] - yp.as_slice()[b * d + k]).abs() < 1e-4);
            prop_assert!((y.as_slice()[b * d + k] - yp.as_slice()[a * d + k]).abs() < 1e-4);
        }
    }

    /// Layer norm output rows always have mean ~0 / var ~1 under unit
    /// affine parameters, for any input distribution.
    #[test]
    fn layer_norm_always_normalizes(seed in 0u64..300, mean in -10.0f32..10.0, std in 0.1f32..5.0) {
        use neural_dropout_search::nn::layers::LayerNorm;
        use neural_dropout_search::nn::{Layer as _, Mode};
        let d = 8usize;
        let mut ln = LayerNorm::new(d);
        let mut rng = Rng64::new(seed);
        let x = Tensor::rand_normal(Shape::d4(2, 3, 1, d), mean, std, &mut rng);
        let y = ln.forward(&x, Mode::Train).unwrap();
        for r in 0..6 {
            let row = &y.as_slice()[r * d..(r + 1) * d];
            let m: f32 = row.iter().sum::<f32>() / d as f32;
            let v: f32 = row.iter().map(|&u| (u - m) * (u - m)).sum::<f32>() / d as f32;
            prop_assert!(m.abs() < 1e-3, "row {r} mean {m}");
            prop_assert!((v - 1.0).abs() < 2e-2, "row {r} var {v}");
        }
    }

    // ---- Monte-Carlo inference ---------------------------------------------

    /// MC prediction is byte-identical between a serial engine and any
    /// parallel fan-out, for any seed and sampling number — the
    /// guarantee the parallel sampling engine is built around.
    #[test]
    fn mc_predict_parallel_equals_serial(
        seed in 0u64..400,
        samples in 1usize..6,
        workers in 2usize..6,
        kind_ix in 0usize..4,
    ) {
        use neural_dropout_search::dropout::{DropoutKind, DropoutLayer, DropoutSettings};
        use neural_dropout_search::engine::{EngineBuilder, Execution, PredictRequest};
        use neural_dropout_search::nn::arch::{FeatureShape, SlotInfo, SlotPosition};
        use neural_dropout_search::nn::layers::{Flatten, Linear, Sequential};

        let kind = [
            DropoutKind::Bernoulli,
            DropoutKind::Random,
            DropoutKind::Gaussian,
            DropoutKind::Masksembles,
        ][kind_ix];
        let build = || {
            let mut rng = Rng64::new(seed);
            let mut net = Sequential::new();
            net.push(Box::new(Flatten::new()));
            net.push(Box::new(Linear::new(16, 10, true, &mut rng)));
            let slot = SlotInfo {
                id: 0,
                shape: FeatureShape::Vector { features: 10 },
                position: SlotPosition::FullyConnected,
            };
            net.push(Box::new(
                DropoutLayer::for_slot(
                    kind,
                    &slot,
                    &DropoutSettings { rate: 0.4, ..DropoutSettings::default() },
                    seed ^ 0xD0,
                )
                .unwrap(),
            ));
            net.push(Box::new(Linear::new(10, 3, true, &mut rng)));
            net
        };
        let mut rng = Rng64::new(seed ^ 0xA11CE);
        let x = Tensor::rand_normal(Shape::d4(4, 1, 4, 4), 0.0, 1.0, &mut rng);
        let request = PredictRequest::new(&x);
        let mut serial_engine = EngineBuilder::new(build())
            .samples(samples)
            .workers(1)
            .execution(Execution::RoundMajor)
            .chunk_size(2)
            .build();
        let serial = serial_engine.predict(&request).unwrap();
        let mut parallel_engine = EngineBuilder::new(build())
            .samples(samples)
            .workers(workers)
            .execution(Execution::RoundMajor)
            .chunk_size(2)
            .build();
        let parallel = parallel_engine.predict(&request).unwrap();
        prop_assert_eq!(serial.probs.as_slice(), parallel.probs.as_slice());
    }

    // ---- GP --------------------------------------------------------------------

    /// GP predictive variance is non-negative everywhere and the mean
    /// interpolates training targets under tiny noise.
    #[test]
    fn gp_basic_soundness(seed in 0u64..200) {
        let mut rng = Rng64::new(seed);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 + rng.uniform() * 0.3]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.7).sin()).collect();
        let gp = GpRegressor::fit(
            &xs,
            &ys,
            Kernel::Matern52 { lengthscale: 1.0, variance: 1.0 },
            1e-8,
        )
        .unwrap();
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let (mean, var) = gp.predict(x);
            prop_assert!(var >= 0.0);
            prop_assert!((mean - y).abs() < 1e-2);
        }
        let (_, var_far) = gp.predict(&[1e3]);
        prop_assert!(var_far >= 0.0);
    }
}
