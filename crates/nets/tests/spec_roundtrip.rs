//! Round-trip property of the JSON network-spec format:
//! `parse ∘ serialize` is the identity on [`NetworkSpec`]s — for both
//! the compact and the pretty serializer — and valid specs build
//! [`Network`]s that convert back to the identical spec.
//!
//! This is the contract the planning service rests on: a network POSTed
//! to `vwsdk serve` deserializes to exactly the network the client
//! described, including hostile layer names that need escaping.

use pim_nets::{spec::LayerSpec, InterOp, NetworkSpec};
use pim_report::json::JsonValue;
use proptest::prelude::*;

/// Names covering the JSON escaping space: quotes, backslashes,
/// control characters, multi-byte UTF-8.
const NAMES: [&str; 8] = [
    "conv1",
    "a\"quoted\"b",
    "back\\slash",
    "tab\tand\nnewline",
    "naïve-α",
    "emoji😀layer",
    "\u{01}ctl",
    "spaced name",
];

fn name_strategy() -> impl Strategy<Value = String> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// Post-operator sequences covering every [`InterOp`] variant.
fn post_strategy() -> impl Strategy<Value = Vec<InterOp>> {
    (0usize..5).prop_map(|i| match i {
        0 => Vec::new(),
        1 => vec![InterOp::Relu],
        2 => vec![InterOp::Identity, InterOp::Relu],
        3 => vec![InterOp::Relu, InterOp::max_pool(2)],
        _ => vec![InterOp::AvgPool {
            kernel: 3,
            stride: 2,
        }],
    })
}

/// Geometrically valid layer specs: the dilated kernel always fits the
/// padded input, and groups divide both channel counts.
fn layer_strategy() -> impl Strategy<Value = LayerSpec> {
    (
        name_strategy(),
        (1usize..6, 1usize..6),   // kernel_h, kernel_w
        (0usize..65, 0usize..65), // input headroom beyond the kernel
        (1usize..5, 1usize..9),   // channel-group multipliers
        (1usize..4, 0usize..3),   // stride, padding
        (1usize..3, 1usize..4),   // dilation, groups
        post_strategy(),
    )
        .prop_map(
            |(
                name,
                (kh, kw),
                (dh, dw),
                (icm, ocm),
                (stride, padding),
                (dilation, groups),
                post,
            )| {
                let eff_h = (kh - 1) * dilation + 1;
                let eff_w = (kw - 1) * dilation + 1;
                LayerSpec {
                    name,
                    input_h: eff_h + dh,
                    input_w: eff_w + dw,
                    kernel_h: kh,
                    kernel_w: kw,
                    in_channels: groups * icm,
                    out_channels: groups * ocm,
                    stride,
                    padding,
                    dilation,
                    groups,
                    post,
                }
            },
        )
}

fn spec_strategy() -> impl Strategy<Value = NetworkSpec> {
    (name_strategy(), collection::vec(layer_strategy(), 1..8))
        .prop_map(|(name, layers)| NetworkSpec { name, layers })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse ∘ serialize = id, through both serializers.
    #[test]
    fn parse_after_serialize_is_identity(spec in spec_strategy()) {
        let compact = spec.to_json().render();
        prop_assert_eq!(&NetworkSpec::parse(&compact).expect("own output parses"), &spec);
        let pretty = spec.to_json().render_pretty();
        prop_assert_eq!(&NetworkSpec::parse(&pretty).expect("own output parses"), &spec);
        // The JSON value itself survives a text round trip too.
        let value = spec.to_json();
        prop_assert_eq!(JsonValue::parse(&value.render()).expect("renders reparse"), value);
    }

    /// Valid specs build networks, and the network converts back to the
    /// byte-identical spec (name and geometry fully preserved).
    #[test]
    fn network_conversion_preserves_the_spec(spec in spec_strategy()) {
        let network = spec.to_network().expect("generated specs are valid");
        prop_assert_eq!(network.len(), spec.layers.len());
        let back = NetworkSpec::from_network(&network);
        prop_assert_eq!(&back, &spec);
        // And serialization of the derived spec matches the original's.
        prop_assert_eq!(back.to_json().render(), spec.to_json().render());
    }

    /// Stride never invalidates a spec the strategy produced (the
    /// builder accepts any stride ≥ 1), so planning inputs built from
    /// user JSON are total over this space.
    #[test]
    fn generated_layers_have_positive_output(spec in spec_strategy()) {
        let network = spec.to_network().expect("valid");
        for layer in network.layers() {
            let (oh, ow) = layer.output_dims();
            prop_assert!(oh >= 1 && ow >= 1);
        }
    }
}
