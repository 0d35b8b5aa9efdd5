//! Declarative JSON network specifications.
//!
//! The planning service accepts *user-defined* networks, not just the
//! built-in [`zoo`](crate::zoo): a [`NetworkSpec`] is the declarative,
//! wire-format description of a network that the `vwsdk serve` daemon's
//! `POST /v1/plan` endpoint and the CLI's `--spec FILE.json` flag both
//! deserialize. Parsing is *validating* — unknown keys, wrong types,
//! missing fields and geometrically impossible layers are all reported
//! with the layer index and field name, so a malformed request turns
//! into a structured error instead of a mystery.
//!
//! # Wire format
//!
//! ```json
//! {
//!   "name": "my-cnn",
//!   "layers": [
//!     {"name": "c1", "input": [28, 28], "kernel": [3, 3],
//!      "in_channels": 1, "out_channels": 8,
//!      "stride": 1, "padding": 0, "dilation": 1, "groups": 1,
//!      "post": ["relu", {"op": "max_pool", "kernel": 2, "stride": 2}]}
//!   ]
//! }
//! ```
//!
//! `input` and `kernel` accept either `[height, width]` or a single
//! integer for the square case; `stride`, `padding`, `dilation`,
//! `groups` and `name` are optional (defaults 1, 0, 1, 1 and
//! `conv<index>`). `post` is the optional list of digital operators
//! ([`InterOp`]: `"identity"`, `"relu"`, `{"op": "max_pool"|"avg_pool",
//! "kernel", "stride"}`) applied after the convolution — the field that
//! lets a spec describe an *executable*, spatially-chained network.
//! Serialization always writes the full canonical form,
//! so `parse ∘ serialize` is the identity on specs (a property test in
//! `tests/spec_roundtrip.rs` proves it).
//!
//! # Example
//!
//! ```
//! use pim_nets::NetworkSpec;
//!
//! let spec = NetworkSpec::parse(r#"{
//!     "name": "toy",
//!     "layers": [{"input": 8, "kernel": 3, "in_channels": 2, "out_channels": 4}]
//! }"#)?;
//! let network = spec.to_network()?;
//! assert_eq!(network.layers()[0].name(), "conv1");
//! assert_eq!(NetworkSpec::parse(&spec.to_json().render_pretty())?, spec);
//! # Ok::<(), pim_nets::NetError>(())
//! ```

use crate::op::InterOp;
use crate::{ConvLayer, NetError, Network, Result};
use pim_report::json::JsonValue;

/// Declarative description of one convolutional layer, as it appears in
/// a JSON network spec. All geometry fields are explicit; see the
/// [module docs](self) for the wire format and defaults.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Layer name (unique within the network by convention).
    pub name: String,
    /// Input feature-map height (`Ih`).
    pub input_h: usize,
    /// Input feature-map width (`Iw`).
    pub input_w: usize,
    /// Kernel height (`Kh`).
    pub kernel_h: usize,
    /// Kernel width (`Kw`).
    pub kernel_w: usize,
    /// Input channels (`IC`).
    pub in_channels: usize,
    /// Output channels (`OC`).
    pub out_channels: usize,
    /// Convolution stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub padding: usize,
    /// Kernel dilation (1 = dense kernel).
    pub dilation: usize,
    /// Channel groups (1 = dense convolution).
    pub groups: usize,
    /// Digital operators applied after this layer's convolution
    /// (activation, pooling); empty = identity.
    pub post: Vec<InterOp>,
}

impl LayerSpec {
    /// The spec of an existing layer (no post-operators; see
    /// [`NetworkSpec::from_network`] for the stage-aware path).
    fn from_layer(layer: &ConvLayer) -> Self {
        Self {
            name: layer.name().to_string(),
            input_h: layer.input_h(),
            input_w: layer.input_w(),
            kernel_h: layer.kernel_h(),
            kernel_w: layer.kernel_w(),
            in_channels: layer.in_channels(),
            out_channels: layer.out_channels(),
            stride: layer.stride(),
            padding: layer.padding(),
            dilation: layer.dilation(),
            groups: layer.groups(),
            post: Vec::new(),
        }
    }

    /// Builds the validated [`ConvLayer`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if the geometry is impossible (zero
    /// dimensions, kernel exceeding the padded input, indivisible
    /// groups).
    fn to_layer(&self) -> Result<ConvLayer> {
        ConvLayer::builder(self.name.clone())
            .input(self.input_h, self.input_w)
            .kernel(self.kernel_h, self.kernel_w)
            .channels(self.in_channels, self.out_channels)
            .stride(self.stride)
            .padding(self.padding)
            .dilation(self.dilation)
            .groups(self.groups)
            .build()
    }

    /// The canonical JSON form (full `[h, w]` pairs, every field).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            (
                "input",
                JsonValue::array([self.input_h.into(), self.input_w.into()]),
            ),
            (
                "kernel",
                JsonValue::array([self.kernel_h.into(), self.kernel_w.into()]),
            ),
            ("in_channels", self.in_channels.into()),
            ("out_channels", self.out_channels.into()),
            ("stride", self.stride.into()),
            ("padding", self.padding.into()),
            ("dilation", self.dilation.into()),
            ("groups", self.groups.into()),
            (
                "post",
                JsonValue::array(self.post.iter().map(InterOp::to_json)),
            ),
        ])
    }

    /// Deserializes one layer object; `index` is the layer's 0-based
    /// position, used for error context and the default name.
    fn from_json(value: &JsonValue, index: usize) -> Result<Self> {
        let ctx = format!("layers[{index}]");
        let members = value
            .as_object()
            .ok_or_else(|| NetError::new(format!("{ctx} must be an object")))?;
        const KNOWN: [&str; 10] = [
            "name",
            "input",
            "kernel",
            "in_channels",
            "out_channels",
            "stride",
            "padding",
            "dilation",
            "groups",
            "post",
        ];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(NetError::new(format!(
                    "{ctx} has unknown field {key:?} (expected one of {KNOWN:?})"
                )));
            }
        }
        let name = match value.get("name") {
            None => format!("conv{}", index + 1),
            Some(v) => v
                .as_str()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| NetError::new(format!("{ctx}.name must be a non-empty string")))?
                .to_string(),
        };
        let (input_h, input_w) = dims_field(value, &ctx, "input")?;
        let (kernel_h, kernel_w) = dims_field(value, &ctx, "kernel")?;
        let post = match value.get("post") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_array().ok_or_else(|| {
                    NetError::new(format!("{ctx}.post must be an array of operators"))
                })?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, op)| InterOp::from_json(op, &format!("{ctx}.post[{i}]")))
                    .collect::<Result<Vec<_>>>()?
            }
        };
        Ok(Self {
            name,
            input_h,
            input_w,
            kernel_h,
            kernel_w,
            in_channels: usize_field(value, &ctx, "in_channels", None)?,
            out_channels: usize_field(value, &ctx, "out_channels", None)?,
            stride: usize_field(value, &ctx, "stride", Some(1))?,
            padding: usize_field(value, &ctx, "padding", Some(0))?,
            dilation: usize_field(value, &ctx, "dilation", Some(1))?,
            groups: usize_field(value, &ctx, "groups", Some(1))?,
            post,
        })
    }
}

/// Declarative description of a whole network — the unit the planning
/// service deserializes. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkSpec {
    /// Network name.
    pub name: String,
    /// Layer specs, in inference order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// The spec of an existing network, including each stage's
    /// inter-layer operators.
    pub fn from_network(network: &Network) -> Self {
        Self {
            name: network.name().to_string(),
            layers: network
                .layers()
                .iter()
                .zip(network.ops())
                .map(|(layer, ops)| LayerSpec {
                    post: ops.clone(),
                    ..LayerSpec::from_layer(layer)
                })
                .collect(),
        }
    }

    /// Builds the validated [`Network`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] naming the first impossible layer.
    pub fn to_network(&self) -> Result<Network> {
        let mut stages = Vec::with_capacity(self.layers.len());
        for (index, spec) in self.layers.iter().enumerate() {
            let layer = spec
                .to_layer()
                .map_err(|e| NetError::new(format!("layers[{index}] ({:?}): {e}", spec.name)))?;
            stages.push((layer, spec.post.clone()));
        }
        Ok(Network::from_stages(self.name.clone(), stages))
    }

    /// Deserializes a spec from a parsed JSON value, validating
    /// structure, types and field names.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] describing the offending field.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let members = value
            .as_object()
            .ok_or_else(|| NetError::new("network spec must be a JSON object"))?;
        for (key, _) in members {
            if !matches!(key.as_str(), "name" | "layers") {
                return Err(NetError::new(format!(
                    "network spec has unknown field {key:?} (expected \"name\", \"layers\")"
                )));
            }
        }
        let name = value
            .get("name")
            .and_then(JsonValue::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| NetError::new("network spec needs a non-empty string \"name\""))?
            .to_string();
        let layers_json = value
            .get("layers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| NetError::new("network spec needs an array \"layers\""))?;
        if layers_json.is_empty() {
            return Err(NetError::new("network spec needs at least one layer"));
        }
        let layers = layers_json
            .iter()
            .enumerate()
            .map(|(i, l)| LayerSpec::from_json(l, i))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { name, layers })
    }

    /// Parses a spec from JSON text (parse + [`NetworkSpec::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] for malformed JSON (with line/column) or an
    /// invalid spec.
    pub fn parse(text: &str) -> Result<Self> {
        let value = JsonValue::parse(text).map_err(|e| NetError::new(e.to_string()))?;
        Self::from_json(&value)
    }

    /// The canonical JSON form.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            (
                "layers",
                JsonValue::array(self.layers.iter().map(LayerSpec::to_json)),
            ),
        ])
    }
}

/// Reads a required-or-defaulted positive-integer field.
fn usize_field(value: &JsonValue, ctx: &str, field: &str, default: Option<usize>) -> Result<usize> {
    match (value.get(field), default) {
        (None, Some(d)) => Ok(d),
        (None, None) => Err(NetError::new(format!("{ctx} is missing field {field:?}"))),
        (Some(v), _) => v
            .as_usize()
            .ok_or_else(|| NetError::new(format!("{ctx}.{field} must be a non-negative integer"))),
    }
}

/// Reads an `[h, w]` pair or a single square integer.
fn dims_field(value: &JsonValue, ctx: &str, field: &str) -> Result<(usize, usize)> {
    let v = value
        .get(field)
        .ok_or_else(|| NetError::new(format!("{ctx} is missing field {field:?}")))?;
    if let Some(square) = v.as_usize() {
        return Ok((square, square));
    }
    let items = v.as_array().ok_or_else(|| {
        NetError::new(format!(
            "{ctx}.{field} must be an integer or a [height, width] pair"
        ))
    })?;
    match items {
        [h, w] => {
            let h = h.as_usize();
            let w = w.as_usize();
            match (h, w) {
                (Some(h), Some(w)) => Ok((h, w)),
                _ => Err(NetError::new(format!(
                    "{ctx}.{field} entries must be non-negative integers"
                ))),
            }
        }
        _ => Err(NetError::new(format!(
            "{ctx}.{field} must have exactly two entries, got {}",
            items.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec = NetworkSpec::parse(
            r#"{"name": "m", "layers": [
                {"input": 8, "kernel": 3, "in_channels": 2, "out_channels": 4}
            ]}"#,
        )
        .unwrap();
        let l = &spec.layers[0];
        assert_eq!(l.name, "conv1");
        assert_eq!((l.input_h, l.input_w), (8, 8));
        assert_eq!((l.stride, l.padding, l.dilation, l.groups), (1, 0, 1, 1));
        let net = spec.to_network().unwrap();
        assert_eq!(net.layers()[0].output_dims(), (6, 6));
    }

    #[test]
    fn rectangular_dims_and_options_parse() {
        let spec = NetworkSpec::parse(
            r#"{"name": "r", "layers": [
                {"name": "stem", "input": [224, 112], "kernel": [7, 5],
                 "in_channels": 3, "out_channels": 64,
                 "stride": 2, "padding": 3, "dilation": 1, "groups": 1}
            ]}"#,
        )
        .unwrap();
        let l = spec.to_network().unwrap();
        let layer = &l.layers()[0];
        assert_eq!((layer.input_h(), layer.input_w()), (224, 112));
        assert_eq!((layer.kernel_h(), layer.kernel_w()), (7, 5));
        assert_eq!(layer.stride(), 2);
    }

    #[test]
    fn zoo_networks_round_trip_through_specs() {
        for net in zoo::all() {
            let spec = NetworkSpec::from_network(&net);
            let text = spec.to_json().render_pretty();
            let reparsed = NetworkSpec::parse(&text).unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.to_network().unwrap(), net);
        }
    }

    #[test]
    fn post_operators_parse_and_round_trip() {
        let spec = NetworkSpec::parse(
            r#"{"name": "p", "layers": [
                {"input": 8, "kernel": 3, "in_channels": 2, "out_channels": 4,
                 "post": ["relu", {"op": "max_pool", "kernel": 3, "stride": 3}]},
                {"input": 2, "kernel": 1, "in_channels": 4, "out_channels": 4}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.layers[0].post,
            vec![
                InterOp::Relu,
                InterOp::MaxPool {
                    kernel: 3,
                    stride: 3
                }
            ]
        );
        assert!(spec.layers[1].post.is_empty());
        let net = spec.to_network().unwrap();
        net.check_chain().unwrap(); // 8 -> 6 -> pool/3 -> 2
        assert_eq!(NetworkSpec::from_network(&net), spec);
        assert_eq!(
            NetworkSpec::parse(&spec.to_json().render_pretty()).unwrap(),
            spec
        );
    }

    #[test]
    fn malformed_post_operators_name_the_culprit() {
        let err = NetworkSpec::parse(
            r#"{"name": "p", "layers": [
                {"input": 8, "kernel": 3, "in_channels": 1, "out_channels": 1,
                 "post": ["swish"]}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("post[0]"), "{err}");
        let err = NetworkSpec::parse(
            r#"{"name": "p", "layers": [
                {"input": 8, "kernel": 3, "in_channels": 1, "out_channels": 1,
                 "post": "relu"}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("array of operators"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = NetworkSpec::parse(r#"{"name": "x", "layers": [], "extra": 1}"#).unwrap_err();
        assert!(err.to_string().contains("unknown field \"extra\""), "{err}");
        let err = NetworkSpec::parse(
            r#"{"name": "x", "layers": [
                {"input": 8, "kernel": 3, "in_channels": 1, "out_channels": 1, "striide": 2}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("\"striide\""), "{err}");
        assert!(err.to_string().contains("layers[0]"), "{err}");
    }

    #[test]
    fn missing_and_mistyped_fields_name_the_culprit() {
        let err = NetworkSpec::parse(r#"{"layers": [{}]}"#).unwrap_err();
        assert!(err.to_string().contains("\"name\""), "{err}");
        let err = NetworkSpec::parse(r#"{"name": "x", "layers": [{}]}"#).unwrap_err();
        assert!(err.to_string().contains("layers[0]"), "{err}");
        assert!(err.to_string().contains("\"input\""), "{err}");
        let err = NetworkSpec::parse(
            r#"{"name": "x", "layers": [
                {"input": 8, "kernel": 3, "in_channels": "many", "out_channels": 1}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("in_channels"), "{err}");
        let err = NetworkSpec::parse(
            r#"{"name": "x", "layers": [
                {"input": [8, 8, 8], "kernel": 3, "in_channels": 1, "out_channels": 1}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("exactly two"), "{err}");
    }

    #[test]
    fn empty_layer_lists_are_rejected() {
        let err = NetworkSpec::parse(r#"{"name": "x", "layers": []}"#).unwrap_err();
        assert!(err.to_string().contains("at least one layer"), "{err}");
    }

    #[test]
    fn impossible_geometry_reports_layer_index() {
        let err = NetworkSpec::parse(
            r#"{"name": "x", "layers": [
                {"input": 2, "kernel": 5, "in_channels": 1, "out_channels": 1}
            ]}"#,
        )
        .unwrap()
        .to_network()
        .unwrap_err();
        assert!(err.to_string().contains("layers[0]"), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = NetworkSpec::parse("{\"name\": \"x\",\n  \"layers\": [,]}").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
