//! Convolution and pooling kernels.
//!
//! The 2-D convolution is implemented with the classic im2col lowering:
//! patches of the input feature map are unrolled into the columns of a
//! matrix so that the convolution becomes one matrix multiplication — the
//! dataflow the `nds-hw` accelerator model assumes for its
//! latency/resource estimates.
//!
//! # Performance notes
//!
//! [`conv2d`] lowers **per image** onto the cache-blocked
//! [`crate::ops::gemm_acc`] kernel: for each batch item the
//! `[C·K·K, OH·OW]` patch matrix is materialised once into a
//! [`Workspace`]-pooled scratch buffer and multiplied against the weight
//! matrix directly into that image's `[OC, OH·OW]` output slab. This
//!
//! * keeps the im2col scratch at one image (`C·K·K·OH·OW` floats) per
//!   task instead of the whole batch, so it stays cache-resident and is
//!   recycled across images and forward passes (steady-state forwards
//!   allocate nothing once the pool is warm),
//! * writes gemm results straight into NCHW layout — no
//!   `[OC, N·OH·OW] → [N, OC, OH, OW]` rearrangement pass,
//! * fans out to the worker pool **once per call**: [`conv2d_lower`]
//!   splits the batch into at most `workers` contiguous image ranges,
//!   each task running its images in turn with its own scratch and a
//!   serial gemm. A narrow layer (LeNet's 6 and 16 channels) thus pays
//!   one dispatch per call instead of one per image,
//! * keeps the in-gemm split over output-channel rows when the call has
//!   one image (batch-1 serving) or too little work for more than one
//!   task (under ~64k multiply-adds each).
//!
//! Training uses the same lowering: [`conv2d_lower`] can unroll each
//! image into its slab of an image-major patch cache that the backward
//! pass keeps, instead of into per-task scratch.
//!
//! The bias is folded in by seeding each output row before accumulation,
//! and accumulation order over `(channel, ky, kx)` is fixed and ascending,
//! so results are **bit-identical for any worker count** and bit-identical
//! to the naive [`conv2d_direct`] oracle (property-tested in
//! `tests/conv_props.rs`).

use crate::ops::gemm_acc;
use crate::parallel::{run_scoped, worker_count};
use crate::{Result, Shape, Tensor, TensorError, Workspace};

/// Spatial geometry of a convolution or pooling window.
///
/// # Examples
///
/// ```
/// use nds_tensor::conv::ConvGeometry;
/// let g = ConvGeometry::new(3, 1, 1); // 3x3 kernel, stride 1, pad 1: "same"
/// assert_eq!(g.out_dim(32), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        ConvGeometry {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of size `dim`.
    ///
    /// Returns 0 when the kernel does not fit.
    pub fn out_dim(&self, dim: usize) -> usize {
        let padded = dim + 2 * self.padding;
        if padded < self.kernel {
            0
        } else {
            (padded - self.kernel) / self.stride + 1
        }
    }
}

/// Unrolls one `[C, H, W]` image into an im2col patch matrix on raw
/// slices: `out` receives `[C*K*K, OH*OW]` row-major, every element
/// written (padded positions as zero).
///
/// This is the per-image building block [`conv2d`] loops over; the
/// whole-batch [`im2col`] remains for callers that need the batched
/// layout.
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree with the
/// dimensions.
pub fn im2col_image(img: &[f32], c: usize, h: usize, w: usize, g: ConvGeometry, out: &mut [f32]) {
    let k = g.kernel;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(out.len(), c * k * k * oh * ow);
    for ci in 0..c {
        let chan = &img[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let orow = &mut out[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    let dst = &mut orow[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &chan[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        *d = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatters one image's im2col-shaped gradient back onto its feature map
/// (the per-image adjoint of [`im2col_image`]): `cols` is
/// `[C*K*K, OH*OW]`, contributions are **accumulated** into `img`
/// (callers zero it first).
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree with the
/// dimensions.
pub fn col2im_image(cols: &[f32], c: usize, h: usize, w: usize, g: ConvGeometry, img: &mut [f32]) {
    let k = g.kernel;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    for ci in 0..c {
        let chan = &mut img[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let srow = &cols[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = &mut chan[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, &s) in srow[oy * ow..(oy + 1) * ow].iter().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[ix as usize] += s;
                    }
                }
            }
        }
    }
}

/// Unrolls an NCHW batch into an im2col matrix.
///
/// For an input `[N, C, H, W]` and geometry `g`, the result is a matrix of
/// shape `[C*K*K, N*OH*OW]`: each column holds one receptive-field patch.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs and
/// [`TensorError::InvalidArgument`] when the kernel does not fit.
pub fn im2col(input: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "im2col",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "im2col",
            msg: format!(
                "kernel {}x{} does not fit input {h}x{w} with padding {}",
                g.kernel, g.kernel, g.padding
            ),
        });
    }
    let k = g.kernel;
    let rows = c * k * k;
    let cols = n * oh * ow;
    let x = input.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    // Row-major output: out[row * cols + col].
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for ni in 0..n {
                    let img = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        let col_base = (ni * oh + oy) * ow;
                        if iy < 0 || iy >= h as isize {
                            continue; // zero padding: leave zeros in place
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[col_base + ox] = img[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d2(rows, cols))
}

/// Scatters an im2col-shaped gradient back onto the input feature map
/// (the adjoint of [`im2col`]).
///
/// `cols` must have shape `[C*K*K, N*OH*OW]`; the result has shape
/// `[N, C, H, W]` given by `input_shape`.
///
/// # Errors
///
/// Returns shape errors mirroring [`im2col`].
pub fn col2im(cols: &Tensor, input_shape: &Shape, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw().ok_or(TensorError::RankMismatch {
        op: "col2im",
        expected: 4,
        actual: input_shape.rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    let k = g.kernel;
    let rows = c * k * k;
    let ncols = n * oh * ow;
    if cols.shape() != &Shape::d2(rows, ncols) {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: Shape::d2(rows, ncols),
            rhs: cols.shape().clone(),
        });
    }
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let src_row = &src[row * ncols..(row + 1) * ncols];
                for ni in 0..n {
                    let img_base = (ni * c + ci) * h * w;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        let col_base = (ni * oh + oy) * ow;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out[img_base + iy * w + ix as usize] += src_row[col_base + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, input_shape.clone())
}

/// Validates conv2d operand shapes, returning
/// `(n, c, h, w, oc, oh, ow)`.
fn conv2d_check(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "conv2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let (oc, wc, kh, kw) = weight.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "conv2d(weight)",
        expected: 4,
        actual: weight.shape().rank(),
    })?;
    if wc != c || kh != g.kernel || kw != g.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: Shape::d4(oc, c, g.kernel, g.kernel),
            rhs: weight.shape().clone(),
        });
    }
    if let Some(b) = bias {
        if b.len() != oc {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d(bias)",
                lhs: Shape::d1(oc),
                rhs: b.shape().clone(),
            });
        }
    }
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: format!(
                "kernel {}x{} does not fit input {h}x{w} with padding {}",
                g.kernel, g.kernel, g.padding
            ),
        });
    }
    Ok((n, c, h, w, oc, oh, ow))
}

/// 2-D convolution: weights `[OC, C, K, K]`, input `[N, C, H, W]`,
/// optional bias `[OC]`, producing `[N, OC, OH, OW]`.
///
/// Lowered per image through [`im2col_image`] + the blocked
/// [`gemm_acc`] kernel, split over image ranges (see the module docs).
/// Equivalent to [`conv2d_ws`] with a throwaway [`Workspace`]; hot loops
/// should call that directly so the im2col scratch is reused across
/// calls.
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<Tensor> {
    conv2d_ws(input, weight, bias, g, &mut Workspace::new())
}

/// [`conv2d`] with an explicit scratch [`Workspace`]: im2col scratch
/// and the output are taken from the pool, so repeated forwards allocate
/// nothing once it is warm. Fans out over [`worker_count`] workers via
/// [`conv2d_lower`].
///
/// Accumulation order per output element is fixed (bias seed, then
/// `(channel, ky, kx)` ascending), so results are bit-identical across
/// worker counts and identical to [`conv2d_direct`].
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
    workspace: &mut Workspace,
) -> Result<Tensor> {
    conv2d_lower(input, weight, bias, g, workspace, None, worker_count())
}

/// Fewest multiply-adds worth one pool task in [`conv2d_lower`]'s image
/// split — the same floor the gemm row split uses.
const MIN_TASK_MACS: usize = 65_536;

/// The per-image lowering behind every gemm convolution, split across
/// `workers` (see the module docs). The output comes from `workspace`.
///
/// `patches` chooses where each image's `[C·K·K, OH·OW]` im2col matrix
/// lives. With `None`, every task takes one image's scratch from
/// `workspace` and returns it afterwards. With `Some(cache)`, image `i`
/// is unrolled into `cache[i·C·K·K·OH·OW ..]` and the patches stay
/// there for a backward pass; `cache` must hold `N·C·K·K·OH·OW` floats.
///
/// Bit-identical to [`conv2d_direct`] for every `workers` and `patches`.
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent, and
/// [`TensorError::InvalidArgument`] when `cache` has the wrong length.
pub fn conv2d_lower(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
    workspace: &mut Workspace,
    patches: Option<&mut [f32]>,
    workers: usize,
) -> Result<Tensor> {
    let (n, c, h, w, oc, oh, ow) = conv2d_check(input, weight, bias, g)?;
    let lowering = Lowering {
        weight: weight.as_slice(),
        bias: bias.map(|b| b.as_slice()),
        c,
        h,
        w,
        g,
        oc,
        ckk: c * g.kernel * g.kernel,
        spatial: oh * ow,
    };
    let per_image = lowering.ckk * lowering.spatial;
    if let Some(cache) = &patches {
        if cache.len() != n * per_image {
            return Err(TensorError::InvalidArgument {
                op: "conv2d_lower",
                msg: format!(
                    "patch cache holds {} floats, {n} images need {}",
                    cache.len(),
                    n * per_image
                ),
            });
        }
    }
    let (in_image, out_image) = (c * h * w, oc * lowering.spatial);
    let x = input.as_slice();
    // Images per task: enough work per task to outweigh its dispatch.
    let min_images = MIN_TASK_MACS.div_ceil((oc * per_image).max(1));
    let chunk = n.div_ceil(workers.max(1)).max(min_images).min(n).max(1);
    let tasks = n.div_ceil(chunk).max(1);
    let keep = patches.is_some();
    let mut scratch = None;
    let cols: &mut [f32] = match patches {
        Some(cache) => cache,
        None => scratch.insert(workspace.take_dirty(tasks * per_image)),
    };
    // Every output element is seeded before the gemm accumulates, so the
    // pool's zero-fill can be skipped.
    let mut out = workspace.take_dirty(n * out_image);
    if tasks == 1 {
        // One image, or too little work to split: images run in turn and
        // each gemm splits its output-channel rows across the workers.
        lowering.images(n, x, &mut out, cols, keep, workers);
    } else {
        // One fan-out per call: task `t` convolves images
        // `t·chunk .. (t+1)·chunk` with its own scratch slab.
        let lowering = &lowering;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(tasks);
        let (mut out_rest, mut cols_rest) = (&mut out[..], cols);
        for t in 0..tasks {
            let count = chunk.min(n - t * chunk);
            let xs = &x[t * chunk * in_image..(t * chunk + count) * in_image];
            let (o, rest) = std::mem::take(&mut out_rest).split_at_mut(count * out_image);
            out_rest = rest;
            let slab = if keep { count * per_image } else { per_image };
            let (cs, rest) = std::mem::take(&mut cols_rest).split_at_mut(slab);
            cols_rest = rest;
            jobs.push(Box::new(move || lowering.images(count, xs, o, cs, keep, 1)));
        }
        run_scoped(jobs);
    }
    if let Some(buf) = scratch {
        workspace.recycle(buf);
    }
    Tensor::from_vec(out, Shape::d4(n, oc, oh, ow))
}

/// One convolution's operands and dimensions, shared by the tasks of a
/// [`conv2d_lower`] call.
struct Lowering<'a> {
    weight: &'a [f32],
    bias: Option<&'a [f32]>,
    c: usize,
    h: usize,
    w: usize,
    g: ConvGeometry,
    oc: usize,
    ckk: usize,
    spatial: usize,
}

impl Lowering<'_> {
    /// Convolves the `n` consecutive images in `x` into `out`, one at a
    /// time: im2col, bias seed, then `[OC, CKK] × [CKK, OH·OW]`
    /// accumulated straight into the image's NCHW slab. `cols` holds one
    /// patch slab per image when `keep` is set, else one slab reused by
    /// each image.
    fn images(
        &self,
        n: usize,
        x: &[f32],
        out: &mut [f32],
        cols: &mut [f32],
        keep: bool,
        workers: usize,
    ) {
        let (in_image, out_image) = (self.c * self.h * self.w, self.oc * self.spatial);
        let per_image = self.ckk * self.spatial;
        for i in 0..n {
            let base = if keep { i * per_image } else { 0 };
            let cols = &mut cols[base..base + per_image];
            let img = &x[i * in_image..(i + 1) * in_image];
            im2col_image(img, self.c, self.h, self.w, self.g, cols);
            let slab = &mut out[i * out_image..(i + 1) * out_image];
            match self.bias {
                Some(b) => {
                    for (row, &bv) in slab.chunks_mut(self.spatial).zip(b) {
                        row.fill(bv);
                    }
                }
                None => slab.fill(0.0),
            }
            gemm_acc(
                self.weight,
                cols,
                self.oc,
                self.ckk,
                self.spatial,
                slab,
                workers,
            );
        }
    }
}

/// Naive direct convolution — the oracle the gemm-lowered [`conv2d`] is
/// property-tested against, kept deliberately close to the textbook
/// definition.
///
/// Accumulation runs over `(channel, ky, kx)` ascending from a bias seed,
/// padded taps multiply an explicit zero, and zero weights are skipped
/// (mirroring the gemm kernel's pruned-weight skip), so the result is
/// **bit-for-bit** equal to [`conv2d`].
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w, oc, oh, ow) = conv2d_check(input, weight, bias, g)?;
    let k = g.kernel;
    let x = input.as_slice();
    let wt = weight.as_slice();
    let bias = bias.map(|b| b.as_slice());
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for ni in 0..n {
        for o in 0..oc {
            let seed = bias.map(|b| b[o]).unwrap_or(0.0);
            let out_base = (ni * oc + o) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = seed;
                    for ci in 0..c {
                        let chan = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                        for ky in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            for kx in 0..k {
                                let wv = wt[((o * c + ci) * k + ky) * k + kx];
                                if wv == 0.0 {
                                    continue; // mirrors the gemm zero-skip
                                }
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                let xv = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize
                                {
                                    0.0 // padding taps multiply an explicit zero
                                } else {
                                    chan[iy as usize * w + ix as usize]
                                };
                                acc += wv * xv;
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d4(n, oc, oh, ow))
}

/// Result of a max-pool forward pass: outputs plus argmax indices for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled feature map `[N, C, OH, OW]`.
    pub output: Tensor,
    /// Flat input index of the winning element for each output element.
    pub argmax: Vec<usize>,
}

/// Max pooling over an NCHW tensor.
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn max_pool2d(input: &Tensor, g: ConvGeometry) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "max_pool2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d",
            msg: format!("window {} does not fit input {h}x{w}", g.kernel),
        });
    }
    let x = input.as_slice();
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let img_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = img_base + iy as usize * w + ix as usize;
                            // NaN wins and sticks: a poisoned window must
                            // report NaN, not silently pick a finite value.
                            if x[idx] > best || x[idx].is_nan() {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = best;
                    argmax[out_base + oy * ow + ox] = best_idx;
                }
            }
        }
    }
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, Shape::d4(n, c, oh, ow))?,
        argmax,
    })
}

/// Inference-path max pooling: identical outputs to [`max_pool2d`]
/// (same window walk, same NaN-wins rule) but skips the argmax
/// bookkeeping — backward never runs at inference — and draws the output
/// from the workspace pool so steady-state forwards do not allocate.
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn max_pool2d_ws(input: &Tensor, g: ConvGeometry, workspace: &mut Workspace) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "max_pool2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d",
            msg: format!("window {} does not fit input {h}x{w}", g.kernel),
        });
    }
    let x = input.as_slice();
    let mut out = workspace.take_dirty(n * c * oh * ow);
    if g.padding == 0 {
        // Unpadded windows are fully in-bounds by `out_dim` construction,
        // so the per-tap boundary tests vanish: walk each window row as a
        // slice. Same `(ky, kx)`-ascending compare order and NaN-wins
        // rule as the general path — identical outputs.
        for chan in 0..n * c {
            let img = &x[chan * h * w..(chan + 1) * h * w];
            let orows = &mut out[chan * oh * ow..(chan + 1) * oh * ow];
            for oy in 0..oh {
                let iy0 = oy * g.stride;
                for (ox, o) in orows[oy * ow..(oy + 1) * ow].iter_mut().enumerate() {
                    let ix0 = ox * g.stride;
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..g.kernel {
                        let row = &img[(iy0 + ky) * w + ix0..(iy0 + ky) * w + ix0 + g.kernel];
                        for &v in row {
                            best = if v > best || v.is_nan() { v } else { best };
                        }
                    }
                    *o = best;
                }
            }
        }
        return Tensor::from_vec(out, Shape::d4(n, c, oh, ow));
    }
    for ni in 0..n {
        for ci in 0..c {
            let img_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = img_base + iy as usize * w + ix as usize;
                            if x[idx] > best || x[idx].is_nan() {
                                best = x[idx];
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = best;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d4(n, c, oh, ow))
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "global_avg_pool",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let x = input.as_slice();
    let spatial = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let sum: f32 = x[base..base + h * w].iter().sum();
            out[ni * c + ci] = sum / spatial;
        }
    }
    Tensor::from_vec(out, Shape::d2(n, c))
}

/// [`global_avg_pool`] with the output drawn from the workspace pool —
/// bit-identical results, no allocation after warm-up.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs.
pub fn global_avg_pool_ws(input: &Tensor, workspace: &mut Workspace) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "global_avg_pool",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let x = input.as_slice();
    let spatial = (h * w) as f32;
    let mut out = workspace.take_dirty(n * c);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let sum: f32 = x[base..base + h * w].iter().sum();
            out[ni * c + ci] = sum / spatial;
        }
    }
    Tensor::from_vec(out, Shape::d2(n, c))
}

/// Average pooling over an NCHW tensor (counts padding as zeros, divides by
/// the full window area, matching common "count_include_pad" semantics).
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn avg_pool2d(input: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "avg_pool2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d",
            msg: format!("window {} does not fit input {h}x{w}", g.kernel),
        });
    }
    let x = input.as_slice();
    let area = (g.kernel * g.kernel) as f32;
    let mut out = vec![0.0f32; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let img_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut sum = 0.0f32;
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            sum += x[img_base + iy as usize * w + ix as usize];
                        }
                    }
                    out[out_base + oy * ow + ox] = sum / area;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d4(n, c, oh, ow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn out_dim_formula() {
        let g = ConvGeometry::new(3, 1, 1);
        assert_eq!(g.out_dim(32), 32);
        let g = ConvGeometry::new(2, 2, 0);
        assert_eq!(g.out_dim(32), 16);
        let g = ConvGeometry::new(5, 1, 0);
        assert_eq!(g.out_dim(28), 24);
        assert_eq!(g.out_dim(3), 0); // kernel larger than padded input
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 reproduces the input.
        let input = Tensor::arange(3 * 3)
            .reshape(Shape::d4(1, 1, 3, 3))
            .unwrap();
        let weight = Tensor::ones(Shape::d4(1, 1, 1, 1));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(1, 1, 0)).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_known_3x3() {
        // All-ones 3x3 kernel over a 3x3 all-ones image, no padding: sum = 9.
        let input = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let weight = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 0)).unwrap();
        assert_eq!(out.shape(), &Shape::d4(1, 1, 1, 1));
        assert_eq!(out.as_slice(), &[9.0]);
        // With padding 1 the corner receptive fields see only 4 ones.
        let out = conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 1)).unwrap();
        assert_eq!(out.shape(), &Shape::d4(1, 1, 3, 3));
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(4.0));
        assert_eq!(out.get(&[0, 0, 1, 1]), Some(9.0));
        assert_eq!(out.get(&[0, 0, 0, 1]), Some(6.0));
    }

    #[test]
    fn conv2d_bias_is_added_per_channel() {
        let input = Tensor::zeros(Shape::d4(2, 1, 2, 2));
        let weight = Tensor::zeros(Shape::d4(3, 1, 1, 1));
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::d1(3)).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), ConvGeometry::new(1, 1, 0)).unwrap();
        for ni in 0..2 {
            for o in 0..3 {
                assert_eq!(out.get(&[ni, o, 0, 0]), Some((o + 1) as f32));
            }
        }
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        // Two input channels, kernel picks each with weight 1: output = c0 + c1.
        let mut input = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        input.set(&[0, 0, 0, 0], 3.0).unwrap();
        input.set(&[0, 1, 0, 0], 4.0).unwrap();
        let weight = Tensor::ones(Shape::d4(1, 2, 1, 1));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(7.0));
    }

    #[test]
    fn conv2d_rejects_wrong_weight_channels() {
        let input = Tensor::zeros(Shape::d4(1, 3, 4, 4));
        let weight = Tensor::zeros(Shape::d4(2, 2, 3, 3));
        assert!(conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 1)).is_err());
        assert!(conv2d_direct(&input, &weight, None, ConvGeometry::new(3, 1, 1)).is_err());
    }

    #[test]
    fn gemm_lowering_matches_direct_oracle_bitwise() {
        let mut rng = Rng64::new(40);
        for (n, c, oc, h, w, k, stride, pad) in [
            (1, 1, 1, 3, 3, 1, 1, 0),
            (2, 3, 4, 5, 7, 3, 1, 1),
            (3, 2, 5, 8, 8, 3, 2, 1),
            (1, 4, 2, 6, 5, 5, 1, 2),
            (2, 1, 3, 4, 4, 2, 2, 0),
        ] {
            let g = ConvGeometry::new(k, stride, pad);
            let input = Tensor::rand_normal(Shape::d4(n, c, h, w), 0.0, 1.0, &mut rng);
            let weight = Tensor::rand_normal(Shape::d4(oc, c, k, k), 0.0, 0.5, &mut rng);
            let bias = Tensor::rand_normal(Shape::d1(oc), 0.0, 0.5, &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), g).unwrap();
            let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "({n},{c},{oc},{h},{w},k{k},s{stride},p{pad})"
            );
        }
    }

    #[test]
    fn conv2d_ws_reuses_the_im2col_buffer() {
        let mut rng = Rng64::new(41);
        let input = Tensor::rand_normal(Shape::d4(2, 3, 6, 6), 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(Shape::d4(4, 3, 3, 3), 0.0, 1.0, &mut rng);
        let g = ConvGeometry::new(3, 1, 1);
        let mut ws = Workspace::new();
        let first = conv2d_ws(&input, &weight, None, g, &mut ws).unwrap();
        ws.recycle_tensor(first);
        let allocations = ws.allocations();
        let second = conv2d_ws(&input, &weight, None, g, &mut ws).unwrap();
        assert_eq!(
            ws.allocations(),
            allocations,
            "steady-state conv2d forward must not allocate"
        );
        assert_eq!(second.shape(), &Shape::d4(2, 4, 6, 6));
    }

    #[test]
    fn im2col_image_matches_batched_im2col() {
        let mut rng = Rng64::new(42);
        let input = Tensor::rand_normal(Shape::d4(1, 2, 5, 4), 0.0, 1.0, &mut rng);
        let g = ConvGeometry::new(3, 1, 1);
        let batched = im2col(&input, g).unwrap();
        let mut per_image = vec![7.0f32; batched.len()]; // poisoned: every slot must be written
        im2col_image(input.as_slice(), 2, 5, 4, g, &mut per_image);
        assert_eq!(per_image, batched.as_slice());
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // col2im(im2col(x)) counts each input position once per receptive
        // field it participates in; with a 1x1 kernel it is exactly x.
        let input = Tensor::arange(2 * 3 * 3)
            .reshape(Shape::d4(1, 2, 3, 3))
            .unwrap();
        let g = ConvGeometry::new(1, 1, 0);
        let cols = im2col(&input, g).unwrap();
        let back = col2im(&cols, input.shape(), g).unwrap();
        assert_eq!(back.as_slice(), input.as_slice());
        // Per-image variant agrees with the batched one.
        let mut img = vec![0.0f32; input.len()];
        col2im_image(cols.as_slice(), 2, 3, 3, g, &mut img);
        assert_eq!(img, back.as_slice());
    }

    #[test]
    fn max_pool_picks_maxima_and_argmax() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            Shape::d4(1, 1, 4, 4),
        )
        .unwrap();
        let MaxPoolOutput { output, argmax } =
            max_pool2d(&input, ConvGeometry::new(2, 2, 0)).unwrap();
        assert_eq!(output.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], Shape::d4(1, 1, 2, 2)).unwrap();
        let out = avg_pool2d(&input, ConvGeometry::new(2, 2, 0)).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial() {
        let input = Tensor::arange(2 * 3 * 2 * 2)
            .reshape(Shape::d4(2, 3, 2, 2))
            .unwrap();
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape(), &Shape::d2(2, 3));
        // Channel 0 of batch 0 holds 0,1,2,3 -> mean 1.5.
        assert_eq!(out.get(&[0, 0]), Some(1.5));
    }
}
