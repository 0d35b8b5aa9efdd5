//! Dense tensors and the reference convolution for the VW-SDK reproduction.
//!
//! The VW-SDK paper maps convolutional layers onto processing-in-memory (PIM)
//! crossbars. To *verify* that a mapping computes the correct convolution —
//! not just that its cycle count is low — the functional simulator in
//! `pim-sim` needs a trusted reference. This crate provides that reference:
//!
//! * [`Tensor3`], [`Tensor4`] — minimal row-major dense tensors (`C×H×W`
//!   feature map, `OC×IC×KH×KW` weight bank);
//! * [`conv`] — the one reference 2-D convolution, with stride, padding
//!   and dilation, dense ([`conv2d_direct`]) or grouped/depthwise
//!   ([`conv2d_grouped`]);
//! * [`ops`] — the digital inter-stage operators (ReLU, max/avg pooling,
//!   int8-style requantization);
//! * [`mod@forward`] — the network-scale reference pass chaining convolutions
//!   through a [`pim_nets::Network`]'s inter-layer operators;
//! * [`gen`] — deterministic pseudo-random tensor generators.
//!
//! Everything is generic over a small [`Scalar`] trait so tests can run in
//! exact integer arithmetic (`i32`/`i64`), where "simulated crossbar output
//! equals reference convolution" is an equality, not an approximation.
//!
//! # Example
//!
//! ```
//! use pim_tensor::{conv, gen, Conv2dParams, Tensor3, Tensor4};
//!
//! let ifm: Tensor3<i64> = gen::ramp3(3, 8, 8);
//! let weights: Tensor4<i64> = gen::ramp4(4, 3, 3, 3);
//! let ofm = conv::conv2d_direct(&ifm, &weights, Conv2dParams::unit()).unwrap();
//! assert_eq!(ofm.dims(), (4, 6, 6));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod conv;
pub mod forward;
pub mod gen;
pub mod ops;
mod scalar;
mod tensor;

pub use conv::{conv2d_direct, conv2d_grouped, Conv2dParams};
pub use forward::{forward, ExecMode};
pub use scalar::Scalar;
pub use tensor::{Tensor3, Tensor4};

use std::error::Error;
use std::fmt;

/// Error raised when tensor shapes are inconsistent with an operation.
///
/// Produced by constructors that validate element counts and by the
/// convolution kernels when the kernel does not fit the (padded) input or
/// channel counts disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    message: String,
}

impl ShapeError {
    /// Creates a shape error with the given human-readable description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl Error for ShapeError {}

/// Crate-wide result alias for shape-validated operations.
pub type Result<T> = std::result::Result<T, ShapeError>;
