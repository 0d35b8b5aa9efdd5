//! Property-based tests for the reference convolution kernels.
//!
//! The central invariant: the two independent convolution implementations
//! (direct and im2col+GEMM) agree exactly on integer tensors for arbitrary
//! shapes, strides, paddings and dilations. `pim-sim` later leans on this
//! pair as its ground truth, so the pair itself must be trustworthy.

use pim_tensor::{conv, gen, Conv2dParams, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct ConvCase {
    ic: usize,
    oc: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
    seed: u64,
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    (
        1usize..4,
        1usize..5,
        1usize..4,
        1usize..4,
        0usize..3,
        1usize..3,
        1usize..3,
        any::<u64>(),
    )
        .prop_flat_map(|(ic, oc, kh, kw, pad, stride, dilation, seed)| {
            let eff_h = (kh - 1) * dilation + 1;
            let eff_w = (kw - 1) * dilation + 1;
            // Input must be large enough for the dilated kernel after padding.
            let min_h = eff_h.saturating_sub(2 * pad).max(1);
            let min_w = eff_w.saturating_sub(2 * pad).max(1);
            (
                Just(ic),
                Just(oc),
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
            |(ic, oc, h, w, kh, kw, pad, stride, dilation, seed)| ConvCase {
                ic,
                oc,
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

/// The textbook seven-loop: every output sums all its products,
/// padding included, in ascending (c, ky, kx) order.
fn seven_loop(ifm: &Tensor3<f64>, wts: &Tensor4<f64>, p: Conv2dParams) -> Vec<f64> {
    let (oc, ic, kh, kw) = wts.dims();
    let (oh, ow) = p.output_dims(ifm.height(), ifm.width(), kh, kw).unwrap();
    let mut out = Vec::with_capacity(oc * oh * ow);
    for o in 0..oc {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for c in 0..ic {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * p.stride_h + ky * p.dilation_h) as isize;
                            let ix = (ox * p.stride_w + kx * p.dilation_w) as isize;
                            let x = ifm.get_padded(c, iy - p.pad_h as isize, ix - p.pad_w as isize);
                            acc += x * wts.get(o, c, ky, kx);
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn im2col_equals_direct(case in conv_case()) {
        let ifm = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let wts = gen::random4::<i64>(case.oc, case.ic, case.kh, case.kw, case.seed ^ 0xABCD);
        let a = conv::conv2d_direct(&ifm, &wts, case.params);
        let b = conv::conv2d_im2col(&ifm, &wts, case.params);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {} // both reject the same shapes
            (x, y) => prop_assert!(false, "implementations disagree on validity: {:?} vs {:?}", x.is_ok(), y.is_ok()),
        }
    }

    #[test]
    fn convolution_is_linear_in_the_input(
        case in conv_case(),
    ) {
        // conv(a + b, w) == conv(a, w) + conv(b, w), exact in i64.
        let a = gen::random3::<i64>(case.ic, case.h, case.w, case.seed);
        let b = gen::random3::<i64>(case.ic, case.h, case.w, case.seed.wrapping_add(1));
        let wts = gen::random4::<i64>(case.oc, case.ic, case.kh, case.kw, case.seed ^ 0x77);
        let Ok(ca) = conv::conv2d_direct(&a, &wts, case.params) else { return Ok(()); };
        let cb = conv::conv2d_direct(&b, &wts, case.params).unwrap();

        let mut sum_in = pim_tensor::Tensor3::<i64>::zeros(case.ic, case.h, case.w);
        for c in 0..case.ic {
            for y in 0..case.h {
                for x in 0..case.w {
                    sum_in.set(c, y, x, a.get(c, y, x) + b.get(c, y, x));
                }
            }
        }
        let c_sum = conv::conv2d_direct(&sum_in, &wts, case.params).unwrap();
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
        let wts = gen::random4::<i64>(case.oc, case.ic, case.kh, case.kw, case.seed);
        if let Ok(out) = conv::conv2d_direct(&ifm, &wts, case.params) {
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
        let wts = pim_tensor::Tensor4::<i64>::zeros(case.oc, case.ic, case.kh, case.kw);
        if let Ok(out) = conv::conv2d_direct(&ifm, &wts, case.params) {
            prop_assert!(out.as_slice().iter().all(|&v| v == 0));
        }
    }

    // `im2col_equals_direct` runs in i64, where no change of accumulation
    // order can show. Float tenths round differently in another order, so
    // this pins the direct kernel's zero skip and (c, ky, kx) order bit
    // for bit against the loop that skips nothing.
    #[test]
    fn direct_equals_the_seven_loop_bit_for_bit_in_f64(case in conv_case()) {
        let data = tenths(case.ic * case.h * case.w, case.seed, true);
        let ifm = Tensor3::from_vec(case.ic, case.h, case.w, data).unwrap();
        let taps = case.oc * case.ic * case.kh * case.kw;
        let data = tenths(taps, case.seed ^ 0x5EED, false);
        let wts = Tensor4::from_vec(case.oc, case.ic, case.kh, case.kw, data).unwrap();
        if let Ok(out) = conv::conv2d_direct(&ifm, &wts, case.params) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(out.as_slice()), bits(&seven_loop(&ifm, &wts, case.params)));
        }
    }
}
