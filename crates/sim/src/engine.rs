//! The energy model holder the traced benchmark rebuild reads.

use pim_arch::energy::EnergyModel;

/// Holds the default (ISAAC-like) [`EnergyModel`].
///
/// Simulation runs through [`crate::simulate_network_batch`]; this type
/// only serves the end-to-end benchmark's traced rebuild of the
/// simulate op, which replays [`crate::ProgrammedStage::stream_stats`]
/// against [`Engine::energy_model`]. It goes when that rebuild is
/// replaced by spans in the program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Engine {
    energy: EnergyModel,
}

impl Engine {
    /// Engine with the default (ISAAC-like) energy model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's energy model (used when replaying analytical
    /// counters for a pre-programmed stage).
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }
}
