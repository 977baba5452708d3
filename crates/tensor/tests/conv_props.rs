//! Property-based equivalence tests for the gemm-lowered convolution.
//!
//! The per-image im2col + blocked-gemm [`conv2d`] must be **bit-for-bit**
//! equal to the naive direct-convolution oracle [`conv2d_direct`] across
//! ragged shapes, strides and padding (both kernels fix the same
//! `(channel, ky, kx)` accumulation order from the same bias seed), and
//! bit-identical to itself for any worker split and for any scratch
//! workspace state. Batches large enough to split into image ranges are
//! swept over explicit worker counts, in both scratch modes.

use nds_tensor::conv::{
    conv2d, conv2d_direct, conv2d_lower, conv2d_ws, im2col_image, ConvGeometry,
};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, Workspace};
use proptest::prelude::*;

/// Draws a random conv problem. Kernel/stride/padding are clamped so the
/// kernel always fits the padded input (`out_dim > 0`).
#[allow(clippy::too_many_arguments)]
fn rand_problem(
    seed: u64,
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor, Tensor, ConvGeometry) {
    let k = k.min(h + 2 * padding).min(w + 2 * padding).max(1);
    let g = ConvGeometry::new(k, stride, padding);
    let mut rng = Rng64::new(seed);
    let input = Tensor::rand_normal(Shape::d4(n, c, h, w), 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_normal(Shape::d4(oc, c, k, k), 0.0, 0.7, &mut rng);
    let bias = Tensor::rand_normal(Shape::d1(oc), 0.0, 0.5, &mut rng);
    (input, weight, bias, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked-gemm conv2d is bit-for-bit equal to the direct oracle on
    /// ragged shapes, strides and padding — with and without bias.
    #[test]
    fn conv2d_matches_direct_bitwise(
        seed in 0u64..10_000,
        n in 1usize..4,
        c in 1usize..5,
        oc in 1usize..7,
        h in 1usize..11,
        w in 1usize..11,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, n, c, oc, h, w, k, stride, padding);
        let fast = conv2d(&input, &weight, Some(&bias), g).unwrap();
        let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
        prop_assert_eq!(
            fast.as_slice(),
            slow.as_slice(),
            "bias path diverged: n={} c={} oc={} {}x{} k{} s{} p{}",
            n, c, oc, h, w, g.kernel, stride, padding
        );
        let fast = conv2d(&input, &weight, None, g).unwrap();
        let slow = conv2d_direct(&input, &weight, None, g).unwrap();
        prop_assert_eq!(
            fast.as_slice(),
            slow.as_slice(),
            "bias-free path diverged: n={} c={} oc={} {}x{} k{} s{} p{}",
            n, c, oc, h, w, g.kernel, stride, padding
        );
    }

    /// Zero weights (pruned-network case) and all-zero inputs keep the
    /// bit-for-bit equivalence: the gemm kernel's zero-weight skip is
    /// mirrored by the oracle.
    #[test]
    fn conv2d_matches_direct_with_pruned_weights(
        seed in 0u64..10_000,
        c in 1usize..4,
        oc in 1usize..5,
        h in 2usize..9,
        k in 1usize..4,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, 2, c, oc, h, h, k, 1, 1);
        // Magnitude-prune ~half the weights to exact zero.
        let mut rng = Rng64::new(seed ^ 0xF00D);
        let mut pruned = weight.clone();
        pruned
            .iter_mut()
            .for_each(|v| *v = if rng.bernoulli(0.5) { 0.0 } else { *v });
        let fast = conv2d(&input, &pruned, Some(&bias), g).unwrap();
        let slow = conv2d_direct(&input, &pruned, Some(&bias), g).unwrap();
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    /// The scratch-workspace entry point returns the same bytes whatever
    /// state the pool is in (fresh, warm, oversized buffers).
    #[test]
    fn conv2d_ws_is_insensitive_to_workspace_state(
        seed in 0u64..10_000,
        c in 1usize..4,
        oc in 1usize..5,
        h in 2usize..9,
        k in 1usize..4,
        stride in 1usize..3,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, 2, c, oc, h, h, k, stride, 1);
        let fresh = conv2d(&input, &weight, Some(&bias), g).unwrap();
        let mut warm = Workspace::new();
        warm.recycle(vec![7.0f32; 4096]); // oversized, non-zero garbage
        let a = conv2d_ws(&input, &weight, Some(&bias), g, &mut warm).unwrap();
        let b = conv2d_ws(&input, &weight, Some(&bias), g, &mut warm).unwrap();
        prop_assert_eq!(fresh.as_slice(), a.as_slice());
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}

/// Worker counts the image-range split is swept over: serial, even,
/// odd, and more workers than most drawn batches have images.
const WORKER_SWEEP: [usize; 5] = [1, 2, 3, 4, 7];

/// A workspace whose pooled buffers hold NaN: any read of stale scratch
/// or output would poison the result.
fn dirty_workspace() -> Workspace {
    let mut ws = Workspace::new();
    for len in [64, 4096, 1 << 16, 1 << 20] {
        ws.recycle(vec![f32::NAN; len]);
    }
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The image-range split is bit-for-bit the direct oracle for every
    /// worker count, batch size (0 to 9 images, so fewer images than
    /// workers and uneven ranges both occur) and scratch mode, with and
    /// without bias and with pruned weights. Shapes reach past the
    /// per-task work floor, so most draws really split.
    #[test]
    fn conv2d_lower_matches_direct_for_any_worker_split(
        seed in 0u64..10_000,
        n in 0usize..10,
        c in 3usize..7,
        oc in 6usize..13,
        h in 10usize..17,
        w in 10usize..17,
        k in 3usize..6,
        stride in 1usize..3,
        prune in 0u8..2,
    ) {
        let (input, mut weight, bias, g) = rand_problem(seed, n, c, oc, h, w, k, stride, k / 2);
        if prune == 1 {
            let mut rng = Rng64::new(seed ^ 0xF00D);
            weight
                .iter_mut()
                .for_each(|v| *v = if rng.bernoulli(0.5) { 0.0 } else { *v });
        }
        let per_image = c * g.kernel * g.kernel * g.out_dim(h) * g.out_dim(w);
        for bias in [Some(&bias), None] {
            let want = conv2d_direct(&input, &weight, bias, g).unwrap();
            prop_assert_eq!(want.len(), n * oc * g.out_dim(h) * g.out_dim(w));
            for workers in WORKER_SWEEP {
                let mut ws = dirty_workspace();
                let pooled = conv2d_lower(&input, &weight, bias, g, &mut ws, None, workers).unwrap();
                prop_assert_eq!(pooled.shape(), want.shape());
                prop_assert_eq!(
                    pooled.as_slice(),
                    want.as_slice(),
                    "pooled scratch diverged: n={} workers={} bias={}",
                    n, workers, bias.is_some()
                );
                let mut cache = vec![f32::NAN; n * per_image];
                let cached =
                    conv2d_lower(&input, &weight, bias, g, &mut ws, Some(&mut cache), workers)
                        .unwrap();
                prop_assert_eq!(
                    cached.as_slice(),
                    want.as_slice(),
                    "patch cache diverged: n={} workers={} bias={}",
                    n, workers, bias.is_some()
                );
                // The cache holds each image's im2col matrix, image-major.
                let mut slab = vec![0.0f32; per_image];
                for i in 0..n {
                    let img = &input.as_slice()[i * c * h * w..(i + 1) * c * h * w];
                    im2col_image(img, c, h, w, g, &mut slab);
                    prop_assert_eq!(&cache[i * per_image..(i + 1) * per_image], &slab[..]);
                }
            }
        }
    }
}

#[test]
fn conv2d_lower_of_an_empty_batch_is_empty() {
    let (input, weight, bias, g) = rand_problem(5, 0, 4, 8, 12, 12, 3, 1, 1);
    for workers in WORKER_SWEEP {
        let mut ws = Workspace::new();
        let out = conv2d_lower(&input, &weight, Some(&bias), g, &mut ws, None, workers).unwrap();
        assert_eq!(out.shape(), &Shape::d4(0, 8, 12, 12));
        assert!(out.as_slice().is_empty());
        let out = conv2d_lower(&input, &weight, None, g, &mut ws, Some(&mut []), workers).unwrap();
        assert!(out.as_slice().is_empty());
    }
}

#[test]
fn conv2d_lower_rejects_a_misfit_patch_cache() {
    let (input, weight, _, g) = rand_problem(6, 2, 1, 2, 4, 4, 3, 1, 1);
    let mut short = vec![0.0f32; 9 * 16];
    let mut ws = Workspace::new();
    assert!(conv2d_lower(&input, &weight, None, g, &mut ws, Some(&mut short), 2).is_err());
}
