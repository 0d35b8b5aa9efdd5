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
//! Along the way the engine counts cycles, MAC operations and ADC/DAC
//! conversions, and integrates the `pim-arch` energy model, which is how
//! the energy experiment (docs/EXPERIMENTS.md, A5) is produced.
//!
//! Beyond single layers, the [`network`] module executes *whole
//! networks*: [`NetworkExecutor`] programs every stage of a deployed
//! network once ([`ProgrammedStage`]) and streams input feature maps
//! through the programmed state (convolution on the crossbars,
//! ReLU/pooling in the digital periphery) via
//! [`NetworkExecutor::execute_batch`] — one entry point for a single
//! input (a one-element batch) and for a whole batch alike.
//! [`simulate_network_batch`] and [`simulate_deployment_batch`] prove
//! every result bit-exact against the `pim-tensor` reference forward
//! pass while cross-checking executed against predicted cycles.
//!
//! # Example
//!
//! ```
//! use pim_mapping::MappingAlgorithm;
//! use pim_nets::ConvLayer;
//! use pim_arch::PimArray;
//! use pim_sim::Engine;
//! use pim_tensor::gen;
//!
//! let layer = ConvLayer::square("c", 8, 3, 2, 3)?;
//! let array = PimArray::new(64, 64)?;
//! let plan = MappingAlgorithm::VwSdk.plan(&layer, array)?;
//! let ifm = gen::random3::<i64>(2, 8, 8, 1);
//! let weights = gen::random4::<i64>(3, 2, 3, 3, 2);
//! let run = Engine::new().run(&plan, &ifm, &weights)?;
//! let reference = pim_tensor::conv2d_direct(&ifm, &weights, conv_params(&layer))?;
//! assert_eq!(run.ofm(), &reference);
//! # use pim_tensor::forward::conv_params;
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
pub use engine::{Engine, SimRun};
pub use metrics::RunStats;
pub use network::{
    simulate_deployment_batch, simulate_network_batch, BatchRun, NetworkExecutor, ScalarWidth,
    SimulationReport, StageExecution,
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
