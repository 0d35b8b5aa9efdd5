//! Analytical computing-cycle model of the VW-SDK paper.
//!
//! This crate is the mathematical heart of the reproduction: equations
//! (1)–(8) of the paper implemented as documented, unit-tested integer
//! functions, plus the Algorithm 1 search over parallel-window shapes.
//!
//! A *computing cycle* is one analog matrix-vector multiply of the whole
//! crossbar. For a layer with `IC → OC` channels, kernel `K`, input `I` and
//! an `R × C` array, the model is (paper eq. numbers in brackets):
//!
//! * `NPW` — parallel windows covering the input \[3\];
//! * `ICt = ⌊R / PW area⌋` — input channels mappable at once \[4\];
//! * `AR = ⌈IC / ICt⌉` — array-row cycles \[5\];
//! * `OCt = ⌊C / NWP⌋` — output channels mappable at once \[6\];
//! * `AC = ⌈OC / OCt⌉` — array-column cycles \[7\];
//! * `cycles = NPW · AR · AC` \[8\].
//!
//! The im2col baseline packs kernel columns densely across row tiles:
//! `cycles = Nwin · ⌈K·K·IC / R⌉ · ⌈OC / C⌉`, which is also the
//! initialization of Algorithm 1. The SDK baseline (paper ref. \[2\])
//! duplicates kernels a square number of times under eq. (1) costs; see
//! [`model::sdk_cost`].
//!
//! # Example
//!
//! ```
//! use pim_arch::PimArray;
//! use pim_cost::{search, window::ParallelWindow};
//! use pim_nets::ConvLayer;
//!
//! // ResNet-18 layer 4 of Table I: 14x14, 3x3x256x256, 512x512 array.
//! let layer = ConvLayer::square("conv4", 14, 3, 256, 256)?;
//! let array = PimArray::new(512, 512)?;
//! let result = search::optimal_window(&layer, array);
//! assert_eq!(result.best_cycles(), 504);
//! assert_eq!(result.best().map(|b| b.window), Some(ParallelWindow::new(4, 3)?));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod capacity;
pub mod memo;
pub mod model;
pub mod search;
pub mod window;

use std::error::Error;
use std::fmt;

/// Error raised for invalid cost-model queries (e.g. a parallel window
/// smaller than the kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostError {
    message: String,
}

impl CostError {
    /// Creates a cost-model error.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cost model: {}", self.message)
    }
}

impl Error for CostError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CostError>;
