//! Weight-mapping planners and concrete crossbar layouts.
//!
//! `pim-cost` answers *how many* computing cycles a mapping needs; this
//! crate answers *which cell holds which weight* and *which input element
//! drives which row*, making the mappings executable:
//!
//! * [`MappingAlgorithm`] / [`MappingPlan`] — per-layer plans for im2col,
//!   sub-matrix duplication (SMD), SDK (the published rule of paper
//!   ref. \[2\]) and VW-SDK (Algorithm 1), plus the ablation variants of
//!   the VW search;
//! * [`layout`] — the cell-level [`layout::TileLayout`] of one array
//!   programming (an AR-tile × AC-tile pair) and the block-diagonal
//!   [`layout::SmdLayout`], each generating its cells in one row-major
//!   walk that the `pim-sim` crossbars are programmed from;
//! * [`schedule`] — parallel-window positions and the cycle enumeration
//!   executed by the `pim-sim` crossbar engine;
//! * [`utilization`] — the paper's eq. (9) array utilization, counted
//!   exactly from the layouts' walks (both nonzero-cell and
//!   bounding-rectangle interpretations, mean and peak).
//!
//! # Example
//!
//! ```
//! use pim_arch::PimArray;
//! use pim_mapping::MappingAlgorithm;
//! use pim_nets::ConvLayer;
//!
//! let layer = ConvLayer::square("conv4", 14, 3, 256, 256)?;
//! let array = PimArray::new(512, 512)?;
//! let plan = MappingAlgorithm::VwSdk.plan(&layer, array)?;
//! assert_eq!(plan.cycles(), 504);
//! assert_eq!(plan.window().to_string(), "4x3");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod layout;
pub mod plan;
pub mod schedule;
pub mod utilization;

pub use plan::{MappingAlgorithm, MappingPlan, RowPacking};

use std::error::Error;
use std::fmt;

/// Error raised when a mapping cannot be planned or laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingError {
    message: String,
}

impl MappingError {
    /// Creates a mapping error.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mapping: {}", self.message)
    }
}

impl Error for MappingError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MappingError>;
