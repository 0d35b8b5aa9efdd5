//! The reference 2-D convolution.
//!
//! One kernel checks every mapping the crossbar simulator runs. It works
//! in a crossbar's loop order: each nonzero input element adds its
//! products into a run of output channels, and a zero input is skipped,
//! as a crossbar skips a zero row. Every output still sums its products
//! in the textbook seven-loop's order. Stride, zero padding and dilation
//! are supported.
//!
//! * [`conv2d_grouped`] runs the kernel on each group's contiguous
//!   channels, for the grouped and depthwise layers of the
//!   MobileNet-style extension nets;
//! * [`conv2d_direct`] is the dense case: the channel check plus
//!   `conv2d_grouped(.., 1)`.
//!
//! `tests/conv_properties.rs` checks both against an independent
//! seven-loop, exactly in `i64` and bit for bit in `f64`.

use crate::{Result, Scalar, ShapeError, Tensor3, Tensor4};

/// Hyper-parameters of a 2-D convolution: stride, zero padding and dilation.
///
/// The VW-SDK paper evaluates unit-stride, unpadded convolutions (its window
/// arithmetic counts `I − K + 1` positions per axis); [`Conv2dParams::unit`]
/// is that configuration. The generalized fields exist for the extension
/// experiments and are honoured by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Vertical stride (≥ 1).
    pub stride_h: usize,
    /// Horizontal stride (≥ 1).
    pub stride_w: usize,
    /// Zero padding added to the top and bottom.
    pub pad_h: usize,
    /// Zero padding added to the left and right.
    pub pad_w: usize,
    /// Vertical dilation (≥ 1); 1 means a dense kernel.
    pub dilation_h: usize,
    /// Horizontal dilation (≥ 1).
    pub dilation_w: usize,
}

impl Conv2dParams {
    /// Unit stride, no padding, no dilation — the paper's configuration.
    pub fn unit() -> Self {
        Self {
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
            dilation_h: 1,
            dilation_w: 1,
        }
    }

    /// Effective kernel extent along one axis after dilation.
    fn effective(extent: usize, dilation: usize) -> usize {
        (extent - 1) * dilation + 1
    }

    /// Output spatial size for an input of `(h, w)` and kernel `(kh, kw)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stride or dilation is zero, or if the
    /// (dilated) kernel does not fit inside the padded input.
    pub fn output_dims(&self, h: usize, w: usize, kh: usize, kw: usize) -> Result<(usize, usize)> {
        if self.stride_h == 0 || self.stride_w == 0 {
            return Err(ShapeError::new("stride must be >= 1"));
        }
        if self.dilation_h == 0 || self.dilation_w == 0 {
            return Err(ShapeError::new("dilation must be >= 1"));
        }
        if kh == 0 || kw == 0 {
            return Err(ShapeError::new("kernel must be non-empty"));
        }
        let eff_h = Self::effective(kh, self.dilation_h);
        let eff_w = Self::effective(kw, self.dilation_w);
        let padded_h = h + 2 * self.pad_h;
        let padded_w = w + 2 * self.pad_w;
        if eff_h > padded_h || eff_w > padded_w {
            return Err(ShapeError::new(format!(
                "kernel {eff_h}x{eff_w} (dilated) exceeds padded input {padded_h}x{padded_w}"
            )));
        }
        Ok((
            (padded_h - eff_h) / self.stride_h + 1,
            (padded_w - eff_w) / self.stride_w + 1,
        ))
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Self::unit()
    }
}

fn check_channels<T: Scalar>(input: &Tensor3<T>, weights: &Tensor4<T>) -> Result<()> {
    if input.channels() != weights.in_channels() {
        return Err(ShapeError::new(format!(
            "input has {} channels but weights expect {}",
            input.channels(),
            weights.in_channels()
        )));
    }
    Ok(())
}

/// Direct 2-D convolution, in the crossbar's loop order.
///
/// The output has dimensions `(OC, OH, OW)` per [`Conv2dParams::output_dims`].
///
/// Each input element drives one kernel tap's run of output channels, the
/// way it drives one crossbar row's run of columns, and a zero input is
/// skipped, as the crossbar skips a zero row. Every output still sums its
/// nonzero products in the textbook seven-loop's ascending `(c, ky, kx)`
/// order. A skipped zero product changes no integer, nor any float when
/// the weights are finite (a sum that starts at `+0.0` never becomes
/// `−0.0`), so the result equals the seven-loop's bit for bit. The kernel
/// reads the weight bank by coordinates and never a tile layout, so it
/// stays independent of every mapping it checks.
///
/// # Errors
///
/// Returns [`ShapeError`] if channel counts disagree or the kernel does not
/// fit the padded input.
///
/// # Example
///
/// ```
/// use pim_tensor::{conv2d_direct, Conv2dParams, Tensor3, Tensor4};
///
/// // 1x3x3 input, single 1x1x2x2 box kernel: each output is a 2x2 sum.
/// let ifm = Tensor3::from_vec(1, 3, 3, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
/// let w = Tensor4::from_vec(1, 1, 2, 2, vec![1, 1, 1, 1]).unwrap();
/// let ofm = conv2d_direct(&ifm, &w, Conv2dParams::unit()).unwrap();
/// assert_eq!(ofm.as_slice(), &[12, 16, 24, 28]);
/// ```
pub fn conv2d_direct<T: Scalar>(
    input: &Tensor3<T>,
    weights: &Tensor4<T>,
    params: Conv2dParams,
) -> Result<Tensor3<T>> {
    check_channels(input, weights)?;
    conv2d_grouped(input, weights, params, 1)
}

/// The [`conv2d_direct`] loop over `IC` raw CHW input channels of
/// `h × w` and `OC` raw OIHW kernels, writing `OC` CHW output channels of
/// `oh × ow` into `out`.
fn convolve<T: Scalar>(
    input: &[T],
    (h, w): (usize, usize),
    weights: &[T],
    (oc, ic, kh, kw): (usize, usize, usize, usize),
    params: Conv2dParams,
    (oh, ow): (usize, usize),
    out: &mut [T],
) {
    let taps = ic * kh * kw;
    let pixels = oh * ow;
    let (sh, sw) = (params.stride_h, params.stride_w);
    // The weight bank as [c][ky][kx][o]: a tap's output channels are one
    // contiguous run, like a crossbar row's columns.
    let mut bank = vec![T::ZERO; taps * oc];
    for t in 0..taps {
        for o in 0..oc {
            bank[t * oc + o] = weights[o * taps + t];
        }
    }
    // Output pixels as [oy][ox][o], accumulated tap by tap in ascending
    // (c, ky, kx) order over each tap's in-image outputs; padded pixels
    // read zero and add nothing.
    let mut acc = vec![T::ZERO; pixels * oc];
    for c in 0..ic {
        let channel = &input[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            let dy = ky * params.dilation_h;
            let ys = in_image(oh, h, sh, params.pad_h, dy);
            for kx in 0..kw {
                let dx = kx * params.dilation_w;
                let xs = in_image(ow, w, sw, params.pad_w, dx);
                let t = (c * kh + ky) * kw + kx;
                let tap = &bank[t * oc..(t + 1) * oc];
                for oy in ys.clone() {
                    let row = &channel[(oy * sh + dy - params.pad_h) * w..];
                    for ox in xs.clone() {
                        let x = row[ox * sw + dx - params.pad_w];
                        if x == T::ZERO {
                            continue;
                        }
                        let p = oy * ow + ox;
                        for (a, &wt) in acc[p * oc..(p + 1) * oc].iter_mut().zip(tap) {
                            *a += x * wt;
                        }
                    }
                }
            }
        }
    }
    for p in 0..pixels {
        for o in 0..oc {
            out[o * pixels + p] = acc[p * oc + o];
        }
    }
}

/// The output positions `o` along one axis whose input coordinate
/// `o * stride + offset - pad` lies inside `0..input`.
fn in_image(
    outputs: usize,
    input: usize,
    stride: usize,
    pad: usize,
    offset: usize,
) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(offset).div_ceil(stride);
    let hi = (input + pad)
        .saturating_sub(offset)
        .div_ceil(stride)
        .min(outputs);
    lo..hi.max(lo)
}

/// Grouped convolution: input and output channels are split into `groups`
/// contiguous blocks convolved independently (depthwise when
/// `groups == IC == OC`).
///
/// `weights` must have `in_channels = IC / groups`.
///
/// # Errors
///
/// Returns [`ShapeError`] if channel counts are not divisible by `groups`
/// or the per-group shapes disagree.
pub fn conv2d_grouped<T: Scalar>(
    input: &Tensor3<T>,
    weights: &Tensor4<T>,
    params: Conv2dParams,
    groups: usize,
) -> Result<Tensor3<T>> {
    if groups == 0 {
        return Err(ShapeError::new("groups must be >= 1"));
    }
    let ic = input.channels();
    let (oc, wic, kh, kw) = weights.dims();
    if !ic.is_multiple_of(groups) || oc % groups != 0 {
        return Err(ShapeError::new(format!(
            "channels (IC={ic}, OC={oc}) not divisible by groups={groups}"
        )));
    }
    let icg = ic / groups;
    let ocg = oc / groups;
    if wic != icg {
        return Err(ShapeError::new(format!(
            "weights expect {wic} in-channels per group, input provides {icg}"
        )));
    }
    let (h, w) = (input.height(), input.width());
    let (oh, ow) = params.output_dims(h, w, kh, kw)?;
    // In CHW and OIHW a group's input channels, kernels and output
    // channels are each one contiguous slice.
    let (gin, gw, gout) = (icg * h * w, ocg * icg * kh * kw, ocg * oh * ow);
    let mut out = vec![T::ZERO; oc * oh * ow];
    for g in 0..groups {
        convolve(
            &input.as_slice()[g * gin..(g + 1) * gin],
            (h, w),
            &weights.as_slice()[g * gw..(g + 1) * gw],
            (ocg, icg, kh, kw),
            params,
            (oh, ow),
            &mut out[g * gout..(g + 1) * gout],
        );
    }
    Tensor3::from_vec(oc, oh, ow, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn output_dims_basic() {
        let p = Conv2dParams::unit();
        assert_eq!(p.output_dims(5, 5, 3, 3).unwrap(), (3, 3));
        assert_eq!(p.output_dims(224, 224, 3, 3).unwrap(), (222, 222));
    }

    #[test]
    fn output_dims_stride_and_pad() {
        let p = Conv2dParams {
            stride_h: 2,
            stride_w: 2,
            pad_h: 3,
            pad_w: 3,
            ..Conv2dParams::unit()
        };
        // ResNet-18 stem: 224x224, 7x7/2 pad 3 -> 112x112.
        assert_eq!(p.output_dims(224, 224, 7, 7).unwrap(), (112, 112));
    }

    #[test]
    fn output_dims_dilation() {
        let p = Conv2dParams {
            dilation_h: 2,
            dilation_w: 2,
            ..Conv2dParams::unit()
        };
        // Effective kernel 5x5 on a 7x7 input -> 3x3.
        assert_eq!(p.output_dims(7, 7, 3, 3).unwrap(), (3, 3));
    }

    #[test]
    fn output_dims_rejects_oversized_kernel() {
        assert!(Conv2dParams::unit().output_dims(2, 2, 3, 3).is_err());
    }

    #[test]
    fn output_dims_rejects_zero_stride() {
        let p = Conv2dParams {
            stride_h: 0,
            ..Conv2dParams::unit()
        };
        assert!(p.output_dims(5, 5, 3, 3).is_err());
    }

    #[test]
    fn direct_single_pixel_identity() {
        // 1x1 kernel with weight 1 copies the input.
        let ifm = gen::ramp3::<i32>(2, 3, 3);
        let w = Tensor4::from_vec(2, 2, 1, 1, vec![1, 0, 0, 1]).unwrap();
        let o = conv2d_direct(&ifm, &w, Conv2dParams::unit()).unwrap();
        assert_eq!(o, ifm);
    }

    #[test]
    fn direct_matches_hand_example_with_padding() {
        let ifm = Tensor3::from_vec(1, 2, 2, vec![1, 2, 3, 4]).unwrap();
        let w = Tensor4::from_vec(1, 1, 3, 3, vec![0, 0, 0, 0, 1, 0, 0, 0, 0]).unwrap();
        let pad = |pad| Conv2dParams {
            pad_h: pad,
            pad_w: pad,
            ..Conv2dParams::unit()
        };
        let o = conv2d_direct(&ifm, &w, pad(1)).unwrap();
        // Center-tap kernel with pad 1 reproduces the input.
        assert_eq!(o.as_slice(), &[1, 2, 3, 4]);
        // A 5x5 kernel over a padded 1x1 input: every tap but the center
        // reads padding.
        let pixel = Tensor3::from_vec(1, 1, 1, vec![7]).unwrap();
        let w = gen::ramp4::<i32>(1, 1, 5, 5);
        let o = conv2d_direct(&pixel, &w, pad(2)).unwrap();
        assert_eq!(o.as_slice(), &[7 * w.get(0, 0, 2, 2)]);
    }

    #[test]
    fn grouped_equals_dense_when_one_group() {
        let ifm = gen::random3::<i64>(4, 6, 6, 11);
        let w = gen::random4::<i64>(6, 4, 3, 3, 12);
        let dense = conv2d_direct(&ifm, &w, Conv2dParams::unit()).unwrap();
        let grouped = conv2d_grouped(&ifm, &w, Conv2dParams::unit(), 1).unwrap();
        assert_eq!(dense, grouped);
    }

    #[test]
    fn depthwise_convolves_channels_independently() {
        // groups == IC == OC: each output channel sees only its own input.
        let ifm = gen::random3::<i64>(3, 5, 5, 21);
        let w = gen::random4::<i64>(3, 1, 3, 3, 22);
        let o = conv2d_grouped(&ifm, &w, Conv2dParams::unit(), 3).unwrap();
        // Channel 1 computed in isolation must match.
        let mut one_in = Tensor3::zeros(1, 5, 5);
        for y in 0..5 {
            for x in 0..5 {
                one_in.set(0, y, x, ifm.get(1, y, x));
            }
        }
        let mut one_w = Tensor4::zeros(1, 1, 3, 3);
        for ky in 0..3 {
            for kx in 0..3 {
                one_w.set(0, 0, ky, kx, w.get(1, 0, ky, kx));
            }
        }
        let solo = conv2d_direct(&one_in, &one_w, Conv2dParams::unit()).unwrap();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(o.get(1, y, x), solo.get(0, y, x));
            }
        }
    }

    #[test]
    fn grouped_rejects_indivisible_channels() {
        let ifm = gen::ramp3::<i32>(3, 5, 5);
        let w = gen::ramp4::<i32>(4, 1, 3, 3);
        assert!(conv2d_grouped(&ifm, &w, Conv2dParams::unit(), 2).is_err());
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let ifm = gen::ramp3::<i32>(3, 5, 5);
        let w = gen::ramp4::<i32>(2, 4, 3, 3);
        assert!(conv2d_direct(&ifm, &w, Conv2dParams::unit()).is_err());
    }
}
