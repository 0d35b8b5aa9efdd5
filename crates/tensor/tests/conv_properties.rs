//! Property-based tests for the reference convolution.
//!
//! The central invariant: the kernel equals an independent textbook
//! seven-loop on arbitrary shapes, strides, paddings, dilations and group
//! counts, exactly on integer tensors and bit for bit on floats. `pim-sim`
//! leans on the kernel as its ground truth, so the kernel itself must be
//! trustworthy.

use pim_tensor::{conv, gen, Conv2dParams, Scalar, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct ConvCase {
    ic: usize,
    oc: usize,
    groups: usize,
    /// Input channels per group: the weights' in-channels.
    icg: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
    seed: u64,
}

/// A convolution with 1, 2 or all input channels as its group count;
/// each group has 1–3 input and 1–4 output channels.
fn conv_case() -> impl Strategy<Value = ConvCase> {
    (
        (1usize..4, 1usize..5, 0usize..3),
        1usize..4,
        1usize..4,
        0usize..3,
        1usize..3,
        1usize..3,
        any::<u64>(),
    )
        .prop_flat_map(|((n, ocg, kind), kh, kw, pad, stride, dilation, seed)| {
            // With all input channels as groups, each group has one.
            let (groups, icg) = [(1, n), (2, n), (n, 1)][kind];
            let eff_h = (kh - 1) * dilation + 1;
            let eff_w = (kw - 1) * dilation + 1;
            // Input must be large enough for the dilated kernel after padding.
            let min_h = eff_h.saturating_sub(2 * pad).max(1);
            let min_w = eff_w.saturating_sub(2 * pad).max(1);
            (
                Just((groups * icg, groups * ocg, groups, icg)),
                min_h..min_h + 8,
                min_w..min_w + 8,
                Just(kh),
                Just(kw),
                Just(pad),
                Just(stride),
                Just(dilation),
                Just(seed),
            )
        })
        .prop_map(
            |((ic, oc, groups, icg), h, w, kh, kw, pad, stride, dilation, seed)| ConvCase {
                ic,
                oc,
                groups,
                icg,
                h,
                w,
                kh,
                kw,
                params: Conv2dParams {
                    stride_h: stride,
                    stride_w: stride,
                    pad_h: pad,
                    pad_w: pad,
                    dilation_h: dilation,
                    dilation_w: dilation,
                },
                seed,
            },
        )
}

/// `len` seeded f64 tenths in [-2, 2]; with `sparse`, about half are
/// zero, split between +0.0 and −0.0.
fn tenths(len: usize, seed: u64, sparse: bool) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0u32..4) {
            0 if sparse => 0.0,
            1 if sparse => -0.0,
            _ => (f64::from(rng.gen_range(0u32..=40)) - 20.0) / 10.0,
        })
        .collect()
}

/// The textbook seven-loop over `groups` contiguous channel groups:
/// every output sums all its products, padding included, in ascending
/// (c, ky, kx) order over its group's input channels. `None` where
/// [`Conv2dParams::output_dims`] rejects the shape.
fn seven_loop<T: Scalar>(
    ifm: &Tensor3<T>,
    wts: &Tensor4<T>,
    p: Conv2dParams,
    groups: usize,
) -> Option<Vec<T>> {
    let (oc, icg, kh, kw) = wts.dims();
    let (oh, ow) = p.output_dims(ifm.height(), ifm.width(), kh, kw).ok()?;
    let ocg = oc / groups;
    let mut out = Vec::with_capacity(oc * oh * ow);
    for o in 0..oc {
        let first = o / ocg * icg;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = T::ZERO;
                for c in 0..icg {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * p.stride_h + ky * p.dilation_h) as isize;
                            let ix = (ox * p.stride_w + kx * p.dilation_w) as isize;
                            let x = ifm.get_padded(
                                first + c,
                                iy - p.pad_h as isize,
                                ix - p.pad_w as isize,
                            );
                            acc += x * wts.get(o, c, ky, kx);
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    Some(out)
}

/// The kernels under test on one case: `conv2d_grouped` and, with one
/// group, `conv2d_direct`. `None` where a kernel rejects the shape.
fn kernels<T: Scalar>(ifm: &Tensor3<T>, wts: &Tensor4<T>, case: &ConvCase) -> Vec<Option<Vec<T>>> {
    let mut runs = vec![conv::conv2d_grouped(ifm, wts, case.params, case.groups)];
    if case.groups == 1 {
        runs.push(conv::conv2d_direct(ifm, wts, case.params));
    }
    runs.into_iter()
        .map(|out| out.ok().map(|t| t.as_slice().to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Exact in i64, so this pins every product and the failure rule:
    // a kernel rejects a shape exactly when `output_dims` does.
    #[test]
    fn direct_equals_the_seven_loop_in_i64(case in conv_case()) {
        let ifm = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let wts = gen::random4::<i64>(case.oc, case.icg, case.kh, case.kw, case.seed ^ 0xABCD);
        let expected = seven_loop(&ifm, &wts, case.params, case.groups);
        for out in kernels(&ifm, &wts, &case) {
            prop_assert_eq!(out, expected.clone());
        }
    }

    #[test]
    fn convolution_is_linear_in_the_input(
        case in conv_case(),
    ) {
        // conv(a + b, w) == conv(a, w) + conv(b, w), exact in i64.
        let a = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let b = gen::random3::<i64>(case.ic, case.h, case.w, case.seed.wrapping_add(1));
        let wts = gen::random4::<i64>(case.oc, case.icg, case.kh, case.kw, case.seed ^ 0x77);
        let run = |x: &Tensor3<i64>| conv::conv2d_grouped(x, &wts, case.params, case.groups);
        let Ok(ca) = run(&a) else { return Ok(()); };
        let cb = run(&b).unwrap();

        let mut sum_in = pim_tensor::Tensor3::<i64>::zeros(case.ic, case.h, case.w);
        for c in 0..case.ic {
            for y in 0..case.h {
                for x in 0..case.w {
                    sum_in.set(c, y, x, a.get(c, y, x) + b.get(c, y, x));
                }
            }
        }
        let c_sum = run(&sum_in).unwrap();
        for ch in 0..ca.channels() {
            for y in 0..ca.height() {
                for x in 0..ca.width() {
                    prop_assert_eq!(c_sum.get(ch, y, x), ca.get(ch, y, x) + cb.get(ch, y, x));
                }
            }
        }
    }

    #[test]
    fn output_dims_match_produced_tensor(case in conv_case()) {
        let ifm = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let wts = gen::random4::<i64>(case.oc, case.icg, case.kh, case.kw, case.seed);
        if let Ok(out) = conv::conv2d_grouped(&ifm, &wts, case.params, case.groups) {
            let (oh, ow) = case
                .params
                .output_dims(case.h, case.w, case.kh, case.kw)
                .unwrap();
            prop_assert_eq!(out.dims(), (case.oc, oh, ow));
        }
    }

    #[test]
    fn zero_weights_give_zero_output(case in conv_case()) {
        let ifm = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let wts = pim_tensor::Tensor4::<i64>::zeros(case.oc, case.icg, case.kh, case.kw);
        if let Ok(out) = conv::conv2d_grouped(&ifm, &wts, case.params, case.groups) {
            prop_assert!(out.as_slice().iter().all(|&v| v == 0));
        }
    }

    // `direct_equals_the_seven_loop_in_i64` runs in i64, where no change
    // of accumulation order can show. Float tenths round differently in
    // another order, so this pins the kernel's zero skip and (c, ky, kx)
    // order bit for bit against the loop that skips nothing.
    #[test]
    fn direct_equals_the_seven_loop_bit_for_bit_in_f64(case in conv_case()) {
        let data = tenths(case.ic * case.h * case.w, case.seed, true);
        let ifm = Tensor3::from_vec(case.ic, case.h, case.w, data).unwrap();
        let taps = case.oc * case.icg * case.kh * case.kw;
        let data = tenths(taps, case.seed ^ 0x5EED, false);
        let wts = Tensor4::from_vec(case.oc, case.icg, case.kh, case.kw, data).unwrap();
        let bits = |v: Option<Vec<f64>>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let expected = bits(seven_loop(&ifm, &wts, case.params, case.groups));
        for out in kernels(&ifm, &wts, &case) {
            prop_assert_eq!(bits(out), expected.clone());
        }
    }
}
