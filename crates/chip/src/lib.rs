//! Chip-level PIM substrate: many crossbar arrays, weight-stationary
//! deployment and inter-layer pipelining.
//!
//! The paper motivates VW-SDK with the observation that single arrays are
//! far too small for modern layers (its ref. \[1\], PipeLayer, builds a
//! pipelined many-array accelerator for exactly this reason). This crate
//! supplies that chip-scale substrate:
//!
//! * [`ChipConfig`] — a budget of identical crossbar arrays plus a
//!   reprogramming cost;
//! * [`allocate`] — distributes arrays across a network's layers: a layer
//!   whose `AR × AC` weight tiles are all resident streams its parallel
//!   windows through every tile **in parallel** (cycles = `NPW`); a layer
//!   short on arrays time-multiplexes tiles and pays reprogramming;
//! * [`pipeline`] — PipeLayer-style inter-layer pipelining: single-image
//!   latency is the sum of stage cycles, steady-state throughput is set
//!   by the slowest stage.
//!
//! At chip scale the pipeline bottleneck is a stage's per-image cycles,
//! where VW-SDK's small parallel-window count dominates — it buys ~8×
//! ResNet-18 throughput over im2col on a 32-array chip even though its
//! channel-granular tiling needs a few more resident tiles. The `chip`
//! experiment binary quantifies this.
//!
//! Beyond one-algorithm-for-all deployment, [`optimize`] searches the
//! per-layer algorithm choice **and** the array split jointly for the
//! minimum pipeline bottleneck, and [`report`] condenses a deployment
//! into per-stage cycles, throughput and energy.
//!
//! # Example
//!
//! ```
//! use pim_arch::PimArray;
//! use pim_chip::{allocate, ChipConfig};
//! use pim_mapping::MappingAlgorithm;
//! use pim_nets::zoo;
//!
//! let chip = ChipConfig::new(64, PimArray::new(512, 512)?, 2000)?;
//! let deployment = allocate::deploy(&zoo::resnet18_table1(), MappingAlgorithm::VwSdk, &chip)?;
//! assert!(deployment.is_fully_resident());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allocate;
pub mod optimize;
pub mod pipeline;
pub mod report;

use pim_arch::PimArray;
use std::error::Error;
use std::fmt;

/// Error raised for invalid chip configurations or deployments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipError {
    message: String,
}

impl ChipError {
    /// Creates a chip-level error.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip: {}", self.message)
    }
}

impl Error for ChipError {}

impl From<pim_mapping::MappingError> for ChipError {
    fn from(err: pim_mapping::MappingError) -> Self {
        ChipError::new(err.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ChipError>;

/// A chip: `n_arrays` identical crossbars plus a weight-reload cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipConfig {
    n_arrays: usize,
    array: PimArray,
    reprogram_cycles: u64,
}

impl ChipConfig {
    /// Largest accepted reprogramming cost. Stage-cycle math multiplies
    /// `reprogram_cycles` by a tile count in `u64`; capping the cost at
    /// 2³² keeps that product far from overflow for every realistic
    /// tile count (itself bounded by array geometry and layer size).
    const MAX_REPROGRAM_CYCLES: u64 = 1 << 32;

    /// Creates a chip with `n_arrays` copies of `array`; reloading one
    /// array's weights costs `reprogram_cycles` computing-cycle
    /// equivalents (RRAM writes are orders of magnitude slower than
    /// reads, so realistic values are large).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] when `n_arrays` is zero (a chip with no
    /// arrays cannot deploy anything) or `reprogram_cycles` exceeds 2^32
    /// (cycle arithmetic could overflow `u64`).
    pub fn new(n_arrays: usize, array: PimArray, reprogram_cycles: u64) -> Result<Self> {
        if n_arrays == 0 {
            return Err(ChipError::new("a chip needs at least 1 array, got 0"));
        }
        if reprogram_cycles > Self::MAX_REPROGRAM_CYCLES {
            return Err(ChipError::new(format!(
                "reprogram cost {reprogram_cycles} exceeds the supported maximum of {} cycles",
                Self::MAX_REPROGRAM_CYCLES
            )));
        }
        Ok(Self {
            n_arrays,
            array,
            reprogram_cycles,
        })
    }

    /// Number of arrays on the chip.
    pub fn n_arrays(&self) -> usize {
        self.n_arrays
    }

    /// Geometry of each array.
    pub fn array(&self) -> PimArray {
        self.array
    }

    /// Cost (in computing-cycle equivalents) of reloading one array.
    pub fn reprogram_cycles(&self) -> u64 {
        self.reprogram_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors() {
        let chip = ChipConfig::new(8, PimArray::new(256, 256).unwrap(), 100).unwrap();
        assert_eq!(chip.n_arrays(), 8);
        assert_eq!(chip.array().rows(), 256);
        assert_eq!(chip.reprogram_cycles(), 100);
    }

    #[test]
    fn zero_arrays_is_a_typed_error() {
        let err = ChipConfig::new(0, PimArray::new(64, 64).unwrap(), 100).unwrap_err();
        assert!(err.to_string().contains("at least 1 array"), "{err}");
    }

    #[test]
    fn oversized_reprogram_cost_is_rejected() {
        let array = PimArray::new(64, 64).unwrap();
        assert!(ChipConfig::new(4, array, ChipConfig::MAX_REPROGRAM_CYCLES).is_ok());
        let err = ChipConfig::new(4, array, ChipConfig::MAX_REPROGRAM_CYCLES + 1).unwrap_err();
        assert!(err.to_string().contains("reprogram cost"), "{err}");
    }
}
