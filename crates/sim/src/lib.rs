//! Functional PIM crossbar simulator.
//!
//! The analytical model (`pim-cost`) predicts *how many* cycles a mapping
//! needs; this crate proves the mapping is *correct* by executing it:
//!
//! 1. each (AR, AC) tile of a [`pim_mapping::MappingPlan`] is programmed
//!    into a [`Crossbar`];
//! 2. every parallel-window position streams its input elements into the
//!    rows (one analog MVM per computing cycle);
//! 3. per-column results are scattered into the output feature map, with
//!    digital accumulation of partial sums across AR tiles;
//! 4. the result is compared against the reference convolution from
//!    `pim-tensor` — bit-exact in integer mode.
//!
//! Along the way the simulator counts cycles, MAC operations and ADC/DAC
//! conversions, and integrates the `pim-arch` energy model, which is how
//! the energy experiment (docs/EXPERIMENTS.md, A5) is produced.
//!
//! There is one simulation path, and it executes *whole networks*: the
//! [`network`] module's [`NetworkExecutor`] programs every stage of a deployed
//! network once ([`ProgrammedStage`]) and streams input feature maps
//! through the programmed state (convolution on the crossbars,
//! ReLU/pooling in the digital periphery) via
//! [`NetworkExecutor::execute_batch`] — one entry point for a single
//! input (a one-element batch) and for a whole batch alike.
//! [`simulate_network_batch`] and [`simulate_deployment_batch`] prove
//! every result bit-exact against the `pim-tensor` reference forward
//! pass while cross-checking executed against predicted cycles.
//! [`verify::verify_plan`] checks one plan by running its layer as a
//! one-stage network.
//!
//! # Example
//!
//! ```
//! use pim_arch::PimArray;
//! use pim_mapping::MappingAlgorithm;
//! use pim_nets::ConvLayer;
//! use pim_sim::verify::verify_plan;
//!
//! let layer = ConvLayer::square("c", 8, 3, 2, 3)?;
//! let array = PimArray::new(64, 64)?;
//! let plan = MappingAlgorithm::VwSdk.plan(&layer, array)?;
//! // The layer as a one-stage network, checked against the reference.
//! let report = verify_plan(&plan, 1)?;
//! assert!(report.is_fully_consistent());
//! assert_eq!(report.executed_cycles(), plan.cycles());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod crossbar;
mod engine;
pub mod metrics;
pub mod network;
pub mod programmed;
pub mod verify;

pub use crossbar::Crossbar;
pub use engine::Engine;
pub use metrics::RunStats;
pub use network::{
    simulate_deployment_batch, simulate_network_batch, BatchRun, NetworkExecutor, SimulationReport,
    StageExecution,
};
pub use pim_tensor::ExecMode;
pub use programmed::ProgrammedStage;

use std::error::Error;
use std::fmt;

/// Error raised when simulation inputs are inconsistent with the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    message: String,
}

impl SimError {
    /// Creates a simulation error.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation: {}", self.message)
    }
}

impl Error for SimError {}

impl From<pim_mapping::MappingError> for SimError {
    fn from(err: pim_mapping::MappingError) -> Self {
        SimError::new(err.to_string())
    }
}

impl From<pim_tensor::ShapeError> for SimError {
    fn from(err: pim_tensor::ShapeError) -> Self {
        SimError::new(err.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
