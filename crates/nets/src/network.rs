//! Ordered collections of convolutional layers.

use crate::op::{chain_output_dims, InterOp};
use crate::{ConvLayer, NetError, Result};
use std::fmt;

/// A named, ordered list of convolutional layers, optionally annotated
/// with the digital inter-layer operators (activation, pooling) that
/// run between them.
///
/// Only convolutional layers participate in crossbar weight mapping;
/// the paper's Table I lists exactly those. Two kinds of network
/// therefore coexist:
///
/// * **Paper-form shape lists** (built with [`Network::push`] /
///   [`Network::from_layers`]): no inter-layer operators are recorded,
///   and consecutive layers chain on channel counts only — exactly the
///   paper's accounting, where pooling between the rows of Table I is
///   elided.
/// * **Executable networks** (built with [`Network::push_stage`] /
///   [`Network::from_stages`]): each stage carries the [`InterOp`]
///   sequence applied after its convolution, and [`Network::check_chain`]
///   verifies the stages chain *spatially* — which is what lets the
///   functional simulator stream one input feature map through the whole
///   network and compare against the reference forward pass bit-exactly.
///
/// # Example
///
/// ```
/// use pim_nets::{ConvLayer, InterOp, Network};
///
/// let mut net = Network::new("toy");
/// net.push_stage(ConvLayer::square("c1", 28, 3, 1, 8)?, vec![InterOp::Relu, InterOp::max_pool(2)]);
/// net.push_stage(ConvLayer::square("c2", 13, 3, 8, 16)?, vec![InterOp::Relu]);
/// assert_eq!(net.len(), 2);
/// net.check_chain()?; // 28 -> conv -> 26 -> pool -> 13 == c2's input
/// # Ok::<(), pim_nets::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    layers: Vec<ConvLayer>,
    /// `ops[i]` is the operator sequence applied after `layers[i]`
    /// (empty = identity); the invariant `ops.len() == layers.len()`
    /// holds at all times.
    ops: Vec<Vec<InterOp>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Creates a network from a layer list (no inter-layer operators).
    pub fn from_layers(name: impl Into<String>, layers: Vec<ConvLayer>) -> Self {
        let ops = vec![Vec::new(); layers.len()];
        Self {
            name: name.into(),
            layers,
            ops,
        }
    }

    /// Creates a network from `(layer, post-operators)` stages.
    pub fn from_stages(name: impl Into<String>, stages: Vec<(ConvLayer, Vec<InterOp>)>) -> Self {
        let mut net = Self::new(name);
        for (layer, ops) in stages {
            net.push_stage(layer, ops);
        }
        net
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer with no inter-layer operators after it.
    pub fn push(&mut self, layer: ConvLayer) {
        self.layers.push(layer);
        self.ops.push(Vec::new());
    }

    /// Appends a layer followed by the given operator sequence.
    pub fn push_stage(&mut self, layer: ConvLayer, ops: Vec<InterOp>) {
        self.layers.push(layer);
        self.ops.push(ops);
    }

    /// The layers, in inference order.
    pub fn layers(&self) -> &[ConvLayer] {
        &self.layers
    }

    /// Per-stage operator sequences (`ops()[i]` runs after layer `i`;
    /// empty = identity). Always `layers().len()` entries.
    pub fn ops(&self) -> &[Vec<InterOp>] {
        &self.ops
    }

    /// The operators applied after layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn ops_after(&self, index: usize) -> &[InterOp] {
        &self.ops[index]
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, ConvLayer> {
        self.layers.iter()
    }

    /// Finds a layer by name.
    pub fn layer(&self, name: &str) -> Option<&ConvLayer> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Total weight parameters across all layers.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(ConvLayer::n_params).sum()
    }

    /// Total multiply-accumulates for one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvLayer::n_macs).sum()
    }

    /// `true` when every layer satisfies the paper's assumptions
    /// (unit stride, no padding, dense channels).
    pub fn is_paper_form(&self) -> bool {
        self.layers.iter().all(ConvLayer::is_paper_form)
    }

    /// Checks that consecutive layers are dimensionally chainable:
    /// layer `i+1`'s input channels equal layer `i`'s output channels.
    ///
    /// Spatial sizes are *not* checked because the original models insert
    /// pooling between conv layers. Networks assembled from Table I rows
    /// (which skip pooling) still chain on channels.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] naming the first mismatched pair.
    pub fn check_channel_chain(&self) -> Result<()> {
        for pair in self.layers.windows(2) {
            if pair[0].out_channels() != pair[1].in_channels() {
                return Err(NetError::new(format!(
                    "layer {:?} outputs {} channels but {:?} expects {}",
                    pair[0].name(),
                    pair[0].out_channels(),
                    pair[1].name(),
                    pair[1].in_channels()
                )));
            }
        }
        Ok(())
    }

    /// Checks that the network chains end to end: channels match
    /// ([`Network::check_channel_chain`]) *and* every stage's spatial
    /// output — the convolution's output folded through the stage's
    /// [`InterOp`] sequence — equals the next layer's input extents.
    ///
    /// This is the precondition for executing a network: paper-form
    /// shape lists (VGG-13 as in Table I, with its pooling elided and no
    /// padding) deliberately fail it, executable zoo networks pass it.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] naming the first stage that breaks the
    /// chain, or an operator that cannot apply.
    pub fn check_chain(&self) -> Result<()> {
        self.check_channel_chain()?;
        for (i, layer) in self.layers.iter().enumerate() {
            let (oh, ow) = layer.output_dims();
            let (h, w) = chain_output_dims(&self.ops[i], oh, ow)
                .map_err(|e| NetError::new(format!("stage {:?} ({}): {e}", layer.name(), i)))?;
            if let Some(next) = self.layers.get(i + 1) {
                if (h, w) != (next.input_h(), next.input_w()) {
                    return Err(NetError::new(format!(
                        "stage {:?} produces a {h}x{w} map but {:?} expects {}x{}",
                        layer.name(),
                        next.name(),
                        next.input_h(),
                        next.input_w()
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} conv layers)", self.name, self.layers.len())?;
        for (layer, ops) in self.layers.iter().zip(&self.ops) {
            write!(f, "  {layer}")?;
            if !ops.is_empty() {
                let labels: Vec<String> = ops.iter().map(InterOp::to_string).collect();
                write!(f, "  -> {}", labels.join(" -> "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Network {
    type Item = &'a ConvLayer;
    type IntoIter = std::slice::Iter<'a, ConvLayer>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

impl Extend<ConvLayer> for Network {
    fn extend<T: IntoIterator<Item = ConvLayer>>(&mut self, iter: T) {
        for layer in iter {
            self.push(layer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, input: usize, ic: usize, oc: usize) -> ConvLayer {
        ConvLayer::square(name, input, 3, ic, oc).unwrap()
    }

    #[test]
    fn push_and_lookup() {
        let mut net = Network::new("n");
        net.push(layer("a", 8, 1, 4));
        net.push(layer("b", 6, 4, 8));
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.layer("b").unwrap().out_channels(), 8);
        assert!(net.layer("missing").is_none());
    }

    #[test]
    fn totals_sum_over_layers() {
        let mut net = Network::new("n");
        net.push(layer("a", 8, 1, 4));
        net.push(layer("b", 6, 4, 8));
        assert_eq!(net.total_params(), 9 * 4 + 9 * 4 * 8);
        assert_eq!(net.total_macs(), 36 * 9 * 4 + 16 * 9 * 4 * 8);
    }

    #[test]
    fn channel_chain_detects_breaks() {
        let mut net = Network::new("n");
        net.push(layer("a", 8, 1, 4));
        net.push(layer("b", 6, 4, 8));
        assert!(net.check_channel_chain().is_ok());
        net.push(layer("c", 4, 5, 8));
        let err = net.check_channel_chain().unwrap_err();
        assert!(err.to_string().contains("\"b\""));
    }

    #[test]
    fn iteration_preserves_order() {
        let mut net = Network::new("n");
        net.push(layer("a", 8, 1, 4));
        net.push(layer("b", 6, 4, 8));
        let names: Vec<&str> = net.iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let borrowed: Vec<&str> = (&net).into_iter().map(|l| l.name()).collect();
        assert_eq!(borrowed, names);
    }

    #[test]
    fn extend_appends() {
        let mut net = Network::new("n");
        net.extend([layer("a", 8, 1, 4), layer("b", 6, 4, 8)]);
        assert_eq!(net.len(), 2);
        assert_eq!(net.ops().len(), 2);
    }

    #[test]
    fn display_lists_layers() {
        let mut net = Network::new("toy");
        net.push(layer("a", 8, 1, 4));
        let text = net.to_string();
        assert!(text.contains("toy (1 conv layers)"));
        assert!(text.contains("a: 8x8 3x3x1x4"));
    }

    #[test]
    fn display_shows_inter_ops() {
        let mut net = Network::new("toy");
        net.push_stage(
            layer("a", 8, 1, 4),
            vec![InterOp::Relu, InterOp::max_pool(2)],
        );
        let text = net.to_string();
        assert!(text.contains("-> relu -> max_pool2/2"), "{text}");
    }

    #[test]
    fn spatial_chain_is_validated() {
        // 8 -> conv -> 6 -> pool/2 -> 3, so the next layer must take 3x3.
        let mut net = Network::new("n");
        net.push_stage(
            layer("a", 8, 1, 4),
            vec![InterOp::Relu, InterOp::max_pool(2)],
        );
        net.push(layer("b", 3, 4, 8));
        assert!(net.check_chain().is_ok());
        assert_eq!(net.ops_after(0).len(), 2);
        assert!(net.ops_after(1).is_empty());
    }

    #[test]
    fn spatial_breaks_name_the_stage() {
        let mut net = Network::new("n");
        net.push(layer("a", 8, 1, 4)); // 6x6 out, no ops
        net.push(layer("b", 5, 4, 8)); // expects 5x5
        let err = net.check_chain().unwrap_err();
        assert!(err.to_string().contains("6x6"), "{err}");
        assert!(err.to_string().contains("\"b\""), "{err}");
    }

    #[test]
    fn inapplicable_ops_are_reported() {
        let mut net = Network::new("n");
        // 8 -> conv -> 6; a 7-wide pool cannot apply.
        net.push_stage(layer("a", 8, 1, 4), vec![InterOp::max_pool(7)]);
        let err = net.check_chain().unwrap_err();
        assert!(err.to_string().contains("\"a\""), "{err}");
    }

    #[test]
    fn from_stages_and_from_layers_agree_when_ops_are_empty() {
        let a = Network::from_layers("n", vec![layer("a", 8, 1, 4)]);
        let b = Network::from_stages("n", vec![(layer("a", 8, 1, 4), Vec::new())]);
        assert_eq!(a, b);
        assert!(a.ops_after(0).is_empty());
    }
}
