//! The network-scale reference forward pass.
//!
//! [`forward`] streams one input feature map through *every* stage of a
//! [`Network`] — convolution ([`crate::conv2d_direct`], or
//! [`crate::conv2d_grouped`] for grouped layers), then the stage's
//! digital [`InterOp`]s — entirely in reference arithmetic. It is the
//! functional simulator's only reference: `pim-sim` checks every
//! network, and every single layer as a one-stage network, bit-exact
//! against it in integer mode.
//!
//! # Execution modes
//!
//! Deep integer networks grow activation magnitudes multiplicatively
//! (each convolution multiplies by roughly `IC·K²·|w|`), which would
//! overflow any fixed-width integer after a few stages. [`ExecMode`]
//! picks the policy:
//!
//! * [`ExecMode::Exact`] — no inter-stage rescaling. Every value is the
//!   mathematically exact convolution chain, so the integer width must
//!   hold its growth (the executable zoo networks need up to `i128`).
//! * [`ExecMode::Quantized`] — after each stage's operators, apply the
//!   int8-style [`Scalar::requant8`] squash (divide by 2⁷, saturate to
//!   `[-127, 127]`). Values stay bounded at any depth, and because the
//!   executor applies the identical function, integer comparisons remain
//!   exact equalities.
//!
//! `pim_sim::ScalarWidth::for_stages` bounds every value each stage
//! computes in either mode and picks, stage by stage, the narrowest of
//! `i32` / `i64` / `i128` that holds it, never narrower than the stage
//! before. The simulator runs [`forward`] once per run of equal-width
//! stages and widens its output exactly at each boundary; arithmetic
//! that never overflows gives the same values at any width.

use crate::ops::{avg_pool2d, max_pool2d, relu, requant8};
use crate::{
    conv2d_direct, conv2d_grouped, Conv2dParams, Result, Scalar, ShapeError, Tensor3, Tensor4,
};
use pim_nets::{ConvLayer, InterOp, Network};

/// Inter-stage value policy of a network execution; see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Mathematically exact: no inter-stage rescaling.
    Exact,
    /// Int8-style requantization after every stage (the default — safe
    /// at any network depth).
    #[default]
    Quantized,
}

impl ExecMode {
    /// The mode's wire/CLI label: `"exact"` or `"quantized"`.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Quantized => "quantized",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn by_label(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "exact" => Some(Self::Exact),
            "quantized" | "quant" | "int8" => Some(Self::Quantized),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The convolution parameter block of a layer descriptor — the single
/// place layer hyper-parameters turn into [`Conv2dParams`], shared by
/// the reference kernels and the simulator.
fn conv_params(layer: &ConvLayer) -> Conv2dParams {
    Conv2dParams {
        stride_h: layer.stride(),
        stride_w: layer.stride(),
        pad_h: layer.padding(),
        pad_w: layer.padding(),
        dilation_h: layer.dilation(),
        dilation_w: layer.dilation(),
    }
}

/// Applies one digital operator to a feature map.
///
/// # Errors
///
/// Returns [`ShapeError`] if a pooling kernel does not fit.
fn apply_op<T: Scalar>(op: InterOp, input: &Tensor3<T>) -> Result<Tensor3<T>> {
    match op {
        InterOp::Identity => Ok(input.clone()),
        InterOp::Relu => Ok(relu(input)),
        InterOp::MaxPool { kernel, stride } => max_pool2d(input, kernel, stride),
        InterOp::AvgPool { kernel, stride } => avg_pool2d(input, kernel, stride),
    }
}

/// Applies an operator sequence in order.
///
/// # Errors
///
/// Returns [`ShapeError`] from the first operator that cannot apply.
pub fn apply_ops<T: Scalar>(ops: &[InterOp], input: Tensor3<T>) -> Result<Tensor3<T>> {
    let mut current = input;
    for &op in ops {
        current = apply_op(op, &current)?;
    }
    Ok(current)
}

/// Runs the whole-network reference forward pass; see the
/// [module docs](self).
///
/// `weights[i]` is layer `i`'s weight bank (`OC × IC/groups × Kh × Kw`).
///
/// # Errors
///
/// Returns [`ShapeError`] if the weight list length, any tensor shape,
/// or the stage chaining is inconsistent with the network.
pub fn forward<T: Scalar>(
    network: &Network,
    ifm: &Tensor3<T>,
    weights: &[Tensor4<T>],
    mode: ExecMode,
) -> Result<Tensor3<T>> {
    if weights.len() != network.len() {
        return Err(ShapeError::new(format!(
            "network {:?} has {} layers but {} weight banks were given",
            network.name(),
            network.len(),
            weights.len()
        )));
    }
    network
        .check_chain()
        .map_err(|e| ShapeError::new(e.to_string()))?;
    let mut current = ifm.clone();
    for (i, layer) in network.layers().iter().enumerate() {
        let params = conv_params(layer);
        let conv = if layer.groups() > 1 {
            conv2d_grouped(&current, &weights[i], params, layer.groups())?
        } else {
            conv2d_direct(&current, &weights[i], params)?
        };
        current = apply_ops(network.ops_after(i), conv)?;
        if mode == ExecMode::Quantized {
            current = requant8(&current);
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pim_nets::zoo;

    #[test]
    fn mode_labels_round_trip() {
        assert_eq!(ExecMode::by_label("exact"), Some(ExecMode::Exact));
        assert_eq!(ExecMode::by_label("QUANTIZED"), Some(ExecMode::Quantized));
        assert_eq!(ExecMode::by_label("fuzzy"), None);
        assert_eq!(ExecMode::default(), ExecMode::Quantized);
        assert_eq!(ExecMode::Exact.to_string(), "exact");
    }

    #[test]
    fn forward_on_tiny_matches_manual_chain() {
        let net = zoo::by_name("tiny").unwrap();
        let ifm = gen::random3::<i64>(2, 8, 8, 1);
        let weights = vec![
            gen::random4::<i64>(4, 2, 3, 3, 2),
            gen::random4::<i64>(8, 4, 3, 3, 3),
        ];
        let out = forward(&net, &ifm, &weights, ExecMode::Exact).unwrap();
        // Manual: conv1 -> relu -> conv2.
        let c1 = conv2d_direct(&ifm, &weights[0], conv_params(&net.layers()[0])).unwrap();
        let r1 = relu(&c1);
        let c2 = conv2d_direct(&r1, &weights[1], conv_params(&net.layers()[1])).unwrap();
        assert_eq!(out, c2);
    }

    #[test]
    fn quantized_mode_bounds_activations() {
        let net = zoo::vgg13_sim();
        let l0 = &net.layers()[0];
        let ifm = gen::random3::<i64>(l0.in_channels(), l0.input_h(), l0.input_w(), 7);
        let weights: Vec<_> = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                gen::random4::<i64>(
                    l.out_channels(),
                    l.in_channels_per_group(),
                    l.kernel_h(),
                    l.kernel_w(),
                    100 + i as u64,
                )
            })
            .collect();
        let out = forward(&net, &ifm, &weights, ExecMode::Quantized).unwrap();
        assert!(out.as_slice().iter().all(|&v| (-127..=127).contains(&v)));
        // Deterministic: same inputs, same bytes.
        let again = forward(&net, &ifm, &weights, ExecMode::Quantized).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn forward_validates_weight_count_and_chaining() {
        let net = zoo::by_name("tiny").unwrap();
        let ifm = gen::random3::<i64>(2, 8, 8, 1);
        assert!(forward(&net, &ifm, &[], ExecMode::Exact).is_err());
        // Paper-form VGG-13 does not chain spatially.
        let vgg = zoo::vgg13();
        let w: Vec<_> = vgg
            .layers()
            .iter()
            .map(|l| {
                Tensor4::<i64>::zeros(
                    l.out_channels(),
                    l.in_channels(),
                    l.kernel_h(),
                    l.kernel_w(),
                )
            })
            .collect();
        let big = gen::random3::<i64>(3, 224, 224, 1);
        assert!(forward(&vgg, &big, &w, ExecMode::Exact).is_err());
    }

    #[test]
    fn grouped_layers_flow_through_forward() {
        use pim_nets::{ConvLayer, InterOp, Network};
        let dw = ConvLayer::builder("dw")
            .input(8, 8)
            .kernel(3, 3)
            .channels(4, 4)
            .groups(4)
            .build()
            .unwrap();
        let pw = ConvLayer::square("pw", 6, 1, 4, 8).unwrap();
        let net = Network::from_stages("dw-pw", vec![(dw, vec![InterOp::Relu]), (pw, Vec::new())]);
        let ifm = gen::random3::<i64>(4, 8, 8, 5);
        let weights = vec![
            gen::random4::<i64>(4, 1, 3, 3, 6),
            gen::random4::<i64>(8, 4, 1, 1, 7),
        ];
        let out = forward(&net, &ifm, &weights, ExecMode::Exact).unwrap();
        assert_eq!(out.dims(), (8, 6, 6));
    }
}
