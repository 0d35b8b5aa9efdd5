//! Inter-layer (digital) operators of a network.
//!
//! The crossbar maps *convolutions*; everything between two convolutions
//! — activation functions and pooling — runs in the digital periphery.
//! [`InterOp`] describes those operators explicitly so a [`Network`]
//! can chain its convolutional stages *spatially*, not just on channel
//! counts: the executor and the reference forward pass both apply the
//! same operator sequence, which is what makes network-scale bit-exact
//! verification possible.
//!
//! Operators are channel-preserving by construction (pooling and
//! activations never mix channels), so only the spatial effect needs
//! modelling: [`InterOp::output_dims`] folds an input extent to the
//! operator's output extent.
//!
//! [`Network`]: crate::Network

use crate::{NetError, Result};
use pim_report::json::JsonValue;
use std::fmt;

/// One digital operator applied between convolutional stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterOp {
    /// Pass-through (explicit no-op).
    Identity,
    /// Rectified linear unit, `max(x, 0)` per element.
    Relu,
    /// Max pooling with a square `kernel` and `stride`.
    MaxPool {
        /// Pooling window extent (both axes).
        kernel: usize,
        /// Pooling stride (both axes).
        stride: usize,
    },
    /// Average pooling with a square `kernel` and `stride`. In integer
    /// arithmetic the window mean truncates toward zero (exactly as the
    /// reference implementation in `pim-tensor` computes it).
    AvgPool {
        /// Pooling window extent (both axes).
        kernel: usize,
        /// Pooling stride (both axes).
        stride: usize,
    },
}

impl InterOp {
    /// Max pooling with `kernel == stride` (the common CNN reduction).
    pub fn max_pool(kernel: usize) -> Self {
        Self::MaxPool {
            kernel,
            stride: kernel,
        }
    }

    /// Average pooling with `kernel == stride`.
    pub fn avg_pool(kernel: usize) -> Self {
        Self::AvgPool {
            kernel,
            stride: kernel,
        }
    }

    /// Spatial output extents for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if a pooling kernel or stride is zero, or
    /// the kernel exceeds the input.
    pub fn output_dims(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        match *self {
            Self::Identity | Self::Relu => Ok((h, w)),
            Self::MaxPool { kernel, stride } | Self::AvgPool { kernel, stride } => {
                if kernel == 0 || stride == 0 {
                    return Err(NetError::new(format!(
                        "{self} needs kernel >= 1 and stride >= 1"
                    )));
                }
                if kernel > h || kernel > w {
                    return Err(NetError::new(format!(
                        "{self} kernel exceeds its {h}x{w} input"
                    )));
                }
                Ok(((h - kernel) / stride + 1, (w - kernel) / stride + 1))
            }
        }
    }

    /// The operator's canonical JSON form: activations serialize as
    /// plain strings (`"relu"`, `"identity"`), pooling as
    /// `{"op": "max_pool"|"avg_pool", "kernel": K, "stride": S}`.
    pub fn to_json(&self) -> JsonValue {
        match *self {
            Self::Identity => JsonValue::from("identity"),
            Self::Relu => JsonValue::from("relu"),
            Self::MaxPool { kernel, stride } => JsonValue::object([
                ("op", JsonValue::from("max_pool")),
                ("kernel", kernel.into()),
                ("stride", stride.into()),
            ]),
            Self::AvgPool { kernel, stride } => JsonValue::object([
                ("op", JsonValue::from("avg_pool")),
                ("kernel", kernel.into()),
                ("stride", stride.into()),
            ]),
        }
    }

    /// Parses an operator from its JSON form; `ctx` names the holding
    /// field for error messages.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] naming the malformed member.
    pub fn from_json(value: &JsonValue, ctx: &str) -> Result<Self> {
        if let Some(name) = value.as_str() {
            return match name {
                "identity" => Ok(Self::Identity),
                "relu" => Ok(Self::Relu),
                other => Err(NetError::new(format!(
                    "{ctx}: unknown op {other:?} (expected \"identity\", \"relu\", \
                     or a pooling object)"
                ))),
            };
        }
        let Some(members) = value.as_object() else {
            return Err(NetError::new(format!(
                "{ctx}: an op must be a string or a {{\"op\", \"kernel\", \"stride\"}} object"
            )));
        };
        for (key, _) in members {
            if !matches!(key.as_str(), "op" | "kernel" | "stride") {
                return Err(NetError::new(format!(
                    "{ctx} has unknown field {key:?} (expected \"op\", \"kernel\", \"stride\")"
                )));
            }
        }
        let kind = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| NetError::new(format!("{ctx} needs a string \"op\"")))?;
        let kernel = value
            .get("kernel")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| NetError::new(format!("{ctx} needs an integer \"kernel\"")))?;
        let stride = match value.get("stride") {
            None => kernel,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| NetError::new(format!("{ctx}.stride must be an integer")))?,
        };
        let op = match kind {
            "max_pool" => Self::MaxPool { kernel, stride },
            "avg_pool" => Self::AvgPool { kernel, stride },
            other => {
                return Err(NetError::new(format!(
                    "{ctx}: unknown op {other:?} (expected \"max_pool\" or \"avg_pool\")"
                )))
            }
        };
        // Reject degenerate geometry at parse time, not at execution.
        op.output_dims(usize::MAX / 2, usize::MAX / 2)?;
        Ok(op)
    }
}

impl fmt::Display for InterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Identity => write!(f, "identity"),
            Self::Relu => write!(f, "relu"),
            Self::MaxPool { kernel, stride } => write!(f, "max_pool{kernel}/{stride}"),
            Self::AvgPool { kernel, stride } => write!(f, "avg_pool{kernel}/{stride}"),
        }
    }
}

/// Folds a sequence of operators over an input extent.
///
/// # Errors
///
/// Returns [`NetError`] from the first operator that cannot apply.
pub fn chain_output_dims(ops: &[InterOp], h: usize, w: usize) -> Result<(usize, usize)> {
    ops.iter()
        .try_fold((h, w), |(h, w), op| op.output_dims(h, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_preserve_dims() {
        assert_eq!(InterOp::Identity.output_dims(7, 9).unwrap(), (7, 9));
        assert_eq!(InterOp::Relu.output_dims(1, 1).unwrap(), (1, 1));
    }

    #[test]
    fn pooling_reduces_dims() {
        assert_eq!(InterOp::max_pool(2).output_dims(28, 28).unwrap(), (14, 14));
        assert_eq!(InterOp::avg_pool(2).output_dims(5, 5).unwrap(), (2, 2));
        let overlapping = InterOp::MaxPool {
            kernel: 3,
            stride: 2,
        };
        assert_eq!(overlapping.output_dims(7, 7).unwrap(), (3, 3));
    }

    #[test]
    fn degenerate_pooling_is_rejected() {
        assert!(InterOp::max_pool(0).output_dims(4, 4).is_err());
        assert!(InterOp::max_pool(5).output_dims(4, 4).is_err());
        let zero_stride = InterOp::AvgPool {
            kernel: 2,
            stride: 0,
        };
        assert!(zero_stride.output_dims(4, 4).is_err());
    }

    #[test]
    fn chain_folds_in_order() {
        let ops = [InterOp::Relu, InterOp::max_pool(2), InterOp::max_pool(2)];
        assert_eq!(chain_output_dims(&ops, 32, 32).unwrap(), (8, 8));
        assert!(chain_output_dims(&ops, 3, 3).is_err());
    }

    #[test]
    fn json_round_trips_every_variant() {
        let ops = [
            InterOp::Identity,
            InterOp::Relu,
            InterOp::max_pool(2),
            InterOp::AvgPool {
                kernel: 3,
                stride: 2,
            },
        ];
        for op in ops {
            let back = InterOp::from_json(&op.to_json(), "t").unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn json_defaults_stride_to_kernel() {
        let v = JsonValue::object([
            ("op", JsonValue::from("max_pool")),
            ("kernel", 2usize.into()),
        ]);
        assert_eq!(InterOp::from_json(&v, "t").unwrap(), InterOp::max_pool(2));
    }

    #[test]
    fn malformed_json_names_the_culprit() {
        let err = InterOp::from_json(&JsonValue::from("swish"), "layers[0].post[1]").unwrap_err();
        assert!(err.to_string().contains("layers[0].post[1]"), "{err}");
        assert!(InterOp::from_json(&JsonValue::Number(3.0), "t").is_err());
        let bad_field = JsonValue::object([
            ("op", JsonValue::from("max_pool")),
            ("kernel", 2usize.into()),
            ("striide", 2usize.into()),
        ]);
        assert!(InterOp::from_json(&bad_field, "t").is_err());
        let zero = JsonValue::object([
            ("op", JsonValue::from("avg_pool")),
            ("kernel", 0usize.into()),
        ]);
        assert!(InterOp::from_json(&zero, "t").is_err());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(InterOp::max_pool(2).to_string(), "max_pool2/2");
        assert_eq!(InterOp::Relu.to_string(), "relu");
    }
}
