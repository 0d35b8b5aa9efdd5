//! Inter-layer pipelining (PipeLayer-style, the paper's ref. \[1\]).
//!
//! With every layer's weights resident on its own arrays, consecutive
//! images flow through the layer stages like a processor pipeline: the
//! chip finishes one image per *bottleneck-stage* interval, while a
//! single image still takes the sum of all stages.

use crate::allocate::Deployment;
use pim_arch::latency::LatencyModel;

/// Pipeline timing of one deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    stage_cycles: Vec<u64>,
}

impl PipelineReport {
    /// Builds the report from a deployment.
    pub fn new(deployment: &Deployment) -> Self {
        Self {
            stage_cycles: deployment.stage_cycles(),
        }
    }

    /// Cycles of each pipeline stage (one per layer).
    pub fn stage_cycles(&self) -> &[u64] {
        &self.stage_cycles
    }

    /// Single-image latency: the sum of all stages.
    pub fn latency_cycles(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }

    /// The slowest stage — the steady-state initiation interval.
    pub fn bottleneck_cycles(&self) -> u64 {
        self.stage_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Index of the bottleneck stage.
    pub fn bottleneck_stage(&self) -> Option<usize> {
        let max = self.stage_cycles.iter().max()?;
        self.stage_cycles.iter().position(|c| c == max)
    }

    /// Steady-state throughput in images per second under a cycle-time
    /// model.
    pub fn throughput_ips(&self, latency: &LatencyModel) -> f64 {
        if self.bottleneck_cycles() == 0 {
            return 0.0;
        }
        latency.cycles_per_second() / self.bottleneck_cycles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::deploy;
    use crate::ChipConfig;
    use pim_arch::PimArray;
    use pim_mapping::MappingAlgorithm;
    use pim_nets::zoo;

    fn resident_deployment() -> Deployment {
        let chip = ChipConfig::new(64, PimArray::new(512, 512).unwrap(), 2_000).unwrap();
        deploy(&zoo::resnet18_table1(), MappingAlgorithm::VwSdk, &chip).unwrap()
    }

    #[test]
    fn resident_resnet_latency_is_sum_of_npw() {
        let report = PipelineReport::new(&resident_deployment());
        // NPW per layer: 1431 + 729 + 169 + 72 + 25 = 2426.
        assert_eq!(report.latency_cycles(), 2_426);
        assert_eq!(report.bottleneck_cycles(), 1_431);
        assert_eq!(report.bottleneck_stage(), Some(0));
    }

    #[test]
    fn throughput_uses_cycle_time() {
        let report = PipelineReport::new(&resident_deployment());
        let model = LatencyModel::isaac_like(); // 100 ns/cycle -> 1e7 cps
        let ips = report.throughput_ips(&model);
        assert!((ips - 1e7 / 1_431.0).abs() < 1.0);
    }

    #[test]
    fn vw_pipeline_beats_im2col_pipeline() {
        let chip = ChipConfig::new(64, PimArray::new(512, 512).unwrap(), 2_000).unwrap();
        let vw = PipelineReport::new(
            &deploy(&zoo::resnet18_table1(), MappingAlgorithm::VwSdk, &chip).unwrap(),
        );
        let im2col = PipelineReport::new(
            &deploy(&zoo::resnet18_table1(), MappingAlgorithm::Im2col, &chip).unwrap(),
        );
        assert!(vw.bottleneck_cycles() < im2col.bottleneck_cycles());
        assert!(vw.latency_cycles() < im2col.latency_cycles());
    }
}
