//! The model zoo.
//!
//! [`vgg13`] and [`resnet18_table1`] reproduce the paper's Table I row for
//! row; the remaining networks support the extension experiments. All
//! layer shapes are *paper form* (unit stride, no padding) unless the
//! function documents otherwise, because that is the regime in which the
//! paper's window arithmetic — and therefore Table I — is defined.

use crate::{ConvLayer, InterOp, Network};

fn sq(name: &str, input: usize, kernel: usize, ic: usize, oc: usize) -> ConvLayer {
    ConvLayer::square(name, input, kernel, ic, oc)
        .expect("zoo layer dimensions are valid by construction")
}

/// Builds a padded (possibly strided) layer for the executable networks.
fn padded(name: &str, input: usize, k: usize, ic: usize, oc: usize, pad: usize) -> ConvLayer {
    ConvLayer::builder(name)
        .input(input, input)
        .kernel(k, k)
        .channels(ic, oc)
        .padding(pad)
        .build()
        .expect("zoo layer dimensions are valid by construction")
}

/// VGG-13 convolutional layers exactly as in the paper's Table I
/// (10 layers, `224…14` feature maps, all 3×3 kernels).
///
/// Note the paper counts windows without padding (`224 → 222` outputs), so
/// these descriptors carry `padding = 0` even though the original VGG uses
/// same-padding; this matches the paper's arithmetic and is required to
/// reproduce its cycle totals.
pub fn vgg13() -> Network {
    Network::from_layers(
        "VGG-13",
        vec![
            sq("conv1", 224, 3, 3, 64),
            sq("conv2", 224, 3, 64, 64),
            sq("conv3", 112, 3, 64, 128),
            sq("conv4", 112, 3, 128, 128),
            sq("conv5", 56, 3, 128, 256),
            sq("conv6", 56, 3, 256, 256),
            sq("conv7", 28, 3, 256, 512),
            sq("conv8", 28, 3, 512, 512),
            sq("conv9", 14, 3, 512, 512),
            sq("conv10", 14, 3, 512, 512),
        ],
    )
}

/// ResNet-18 as evaluated in the paper's Table I: the five *distinct*
/// convolutional shapes (stem + one representative per stage).
///
/// The paper's Table I lists the 7×7 stem with a 112×112 input — the
/// post-pooling size, not the original 224×224 — and we follow the paper.
pub fn resnet18_table1() -> Network {
    Network::from_layers(
        "ResNet-18",
        vec![
            sq("conv1", 112, 7, 3, 64),
            sq("conv2", 56, 3, 64, 64),
            sq("conv3", 28, 3, 128, 128),
            sq("conv4", 14, 3, 256, 256),
            sq("conv5", 7, 3, 512, 512),
        ],
    )
}

/// Full ResNet-18: every convolution of the torchvision model with its
/// true stride and padding (20 convolutions including 1×1 downsamples).
///
/// Not paper form — used by the extension experiments that exercise the
/// generalized (strided/padded) cost model.
fn resnet18_full() -> Network {
    let mut net = Network::new("ResNet-18-full");
    let conv = |name: &str, input: usize, k: usize, ic: usize, oc: usize, s: usize, p: usize| {
        ConvLayer::builder(name)
            .input(input, input)
            .kernel(k, k)
            .channels(ic, oc)
            .stride(s)
            .padding(p)
            .build()
            .expect("zoo layer dimensions are valid by construction")
    };
    net.push(conv("stem", 224, 7, 3, 64, 2, 3));
    // layer1: two basic blocks at 56x56, 64 channels.
    for b in 1..=2 {
        net.push(conv(&format!("l1.b{b}.c1"), 56, 3, 64, 64, 1, 1));
        net.push(conv(&format!("l1.b{b}.c2"), 56, 3, 64, 64, 1, 1));
    }
    // layer2: downsampling block then identity block at 28x28, 128 ch.
    net.push(conv("l2.b1.c1", 56, 3, 64, 128, 2, 1));
    net.push(conv("l2.b1.c2", 28, 3, 128, 128, 1, 1));
    net.push(conv("l2.b1.down", 56, 1, 64, 128, 2, 0));
    net.push(conv("l2.b2.c1", 28, 3, 128, 128, 1, 1));
    net.push(conv("l2.b2.c2", 28, 3, 128, 128, 1, 1));
    // layer3: 14x14, 256 ch.
    net.push(conv("l3.b1.c1", 28, 3, 128, 256, 2, 1));
    net.push(conv("l3.b1.c2", 14, 3, 256, 256, 1, 1));
    net.push(conv("l3.b1.down", 28, 1, 128, 256, 2, 0));
    net.push(conv("l3.b2.c1", 14, 3, 256, 256, 1, 1));
    net.push(conv("l3.b2.c2", 14, 3, 256, 256, 1, 1));
    // layer4: 7x7, 512 ch.
    net.push(conv("l4.b1.c1", 14, 3, 256, 512, 2, 1));
    net.push(conv("l4.b1.c2", 7, 3, 512, 512, 1, 1));
    net.push(conv("l4.b1.down", 14, 1, 256, 512, 2, 0));
    net.push(conv("l4.b2.c1", 7, 3, 512, 512, 1, 1));
    net.push(conv("l4.b2.c2", 7, 3, 512, 512, 1, 1));
    net
}

/// VGG-16 convolutional layers in paper form (13 layers).
fn vgg16() -> Network {
    Network::from_layers(
        "VGG-16",
        vec![
            sq("conv1", 224, 3, 3, 64),
            sq("conv2", 224, 3, 64, 64),
            sq("conv3", 112, 3, 64, 128),
            sq("conv4", 112, 3, 128, 128),
            sq("conv5", 56, 3, 128, 256),
            sq("conv6", 56, 3, 256, 256),
            sq("conv7", 56, 3, 256, 256),
            sq("conv8", 28, 3, 256, 512),
            sq("conv9", 28, 3, 512, 512),
            sq("conv10", 28, 3, 512, 512),
            sq("conv11", 14, 3, 512, 512),
            sq("conv12", 14, 3, 512, 512),
            sq("conv13", 14, 3, 512, 512),
        ],
    )
}

/// AlexNet convolutional layers with their true strides and paddings.
fn alexnet() -> Network {
    let conv = |name: &str, input: usize, k: usize, ic: usize, oc: usize, s: usize, p: usize| {
        ConvLayer::builder(name)
            .input(input, input)
            .kernel(k, k)
            .channels(ic, oc)
            .stride(s)
            .padding(p)
            .build()
            .expect("zoo layer dimensions are valid by construction")
    };
    Network::from_layers(
        "AlexNet",
        vec![
            conv("conv1", 227, 11, 3, 96, 4, 0),
            conv("conv2", 27, 5, 96, 256, 1, 2),
            conv("conv3", 13, 3, 256, 384, 1, 1),
            conv("conv4", 13, 3, 384, 384, 1, 1),
            conv("conv5", 13, 3, 384, 256, 1, 1),
        ],
    )
}

/// LeNet-5 convolutional layers (paper form), annotated with the
/// classic ReLU + 2×2 average-pooling stages so the network chains
/// spatially (32 → 28 → pool → 14 → 10 → pool → 5) and can be executed
/// end to end by the functional simulator.
fn lenet5() -> Network {
    Network::from_stages(
        "LeNet-5",
        vec![
            (
                sq("conv1", 32, 5, 1, 6),
                vec![InterOp::Relu, InterOp::avg_pool(2)],
            ),
            (
                sq("conv2", 14, 5, 6, 16),
                vec![InterOp::Relu, InterOp::avg_pool(2)],
            ),
        ],
    )
}

/// A MobileNet-style stack of depthwise-separable pairs (depthwise 3×3,
/// then pointwise 1×1), for the grouped-convolution extension experiments.
fn mobilenet_like() -> Network {
    let dw = |name: &str, input: usize, ch: usize| {
        ConvLayer::builder(name)
            .input(input, input)
            .kernel(3, 3)
            .channels(ch, ch)
            .groups(ch)
            .build()
            .expect("zoo layer dimensions are valid by construction")
    };
    let pw = |name: &str, input: usize, ic: usize, oc: usize| sq(name, input, 1, ic, oc);
    Network::from_layers(
        "MobileNet-like",
        vec![
            dw("dw1", 112, 32),
            pw("pw1", 110, 32, 64),
            dw("dw2", 56, 64),
            pw("pw2", 54, 64, 128),
            dw("dw3", 28, 128),
            pw("pw3", 26, 128, 256),
            dw("dw4", 14, 256),
            pw("pw4", 12, 256, 512),
        ],
    )
}

/// A DeepLab-style dilated context stack (atrous convolutions with
/// dilation 1 → 2 → 4), for the dilation extension experiments.
fn dilated_context() -> Network {
    let atrous = |name: &str, input: usize, ch: usize, dilation: usize| {
        ConvLayer::builder(name)
            .input(input, input)
            .kernel(3, 3)
            .channels(ch, ch)
            .dilation(dilation)
            .padding(dilation)
            .build()
            .expect("zoo layer dimensions are valid by construction")
    };
    Network::from_stages(
        "Dilated-context",
        vec![
            (atrous("ctx1", 28, 64, 1), vec![InterOp::Relu]),
            (atrous("ctx2", 28, 64, 2), vec![InterOp::Relu]),
            (atrous("ctx3", 28, 64, 4), vec![InterOp::Relu]),
        ],
    )
}

/// A two-layer toy network for quick tests and doc examples. The layers
/// chain spatially (8 → 6 == c2's input) with a ReLU between them, so
/// `tiny` is also the smallest executable network.
fn tiny() -> Network {
    Network::from_stages(
        "tiny",
        vec![
            (sq("c1", 8, 3, 2, 4), vec![InterOp::Relu]),
            (sq("c2", 6, 3, 4, 8), Vec::new()),
        ],
    )
}

/// A scaled-down, same-padded VGG-13 that chains spatially: the full
/// 10-convolution topology with ReLU after every convolution and 2×2
/// max pooling after every pair, at 32×32 input and reduced channel
/// widths.
///
/// The paper-form [`vgg13`] cannot be executed end to end — Table I
/// counts windows without padding, so its spatial sizes genuinely do
/// not chain (224 → 222 vs. the next row's 224). This variant restores
/// same-padding and shrinks the tensors so a full bit-exact network
/// simulation finishes in milliseconds; it is the default workload of
/// `vwsdk simulate`.
pub fn vgg13_sim() -> Network {
    let relu = || vec![InterOp::Relu];
    let relu_pool = || vec![InterOp::Relu, InterOp::max_pool(2)];
    Network::from_stages(
        "VGG-13-sim",
        vec![
            (padded("conv1", 32, 3, 3, 8, 1), relu()),
            (padded("conv2", 32, 3, 8, 8, 1), relu_pool()),
            (padded("conv3", 16, 3, 8, 16, 1), relu()),
            (padded("conv4", 16, 3, 16, 16, 1), relu_pool()),
            (padded("conv5", 8, 3, 16, 24, 1), relu()),
            (padded("conv6", 8, 3, 24, 24, 1), relu_pool()),
            (padded("conv7", 4, 3, 24, 32, 1), relu()),
            (padded("conv8", 4, 3, 32, 32, 1), relu_pool()),
            (padded("conv9", 2, 3, 32, 32, 1), relu()),
            (padded("conv10", 2, 3, 32, 32, 1), relu()),
        ],
    )
}

/// A scaled-down, same-padded ResNet-18 analogue of
/// [`resnet18_table1`]'s five distinct stages (7×7 stem + one 3×3
/// representative per stage), chained with ReLU + 2×2 max pooling so it
/// executes end to end.
pub fn resnet18_sim() -> Network {
    let relu_pool = || vec![InterOp::Relu, InterOp::max_pool(2)];
    Network::from_stages(
        "ResNet-18-sim",
        vec![
            (padded("conv1", 32, 7, 3, 8, 3), relu_pool()),
            (padded("conv2", 16, 3, 8, 8, 1), relu_pool()),
            (padded("conv3", 8, 3, 8, 16, 1), relu_pool()),
            (padded("conv4", 4, 3, 16, 32, 1), relu_pool()),
            (padded("conv5", 2, 3, 32, 32, 1), vec![InterOp::Relu]),
        ],
    )
}

/// Looks up a zoo network by (case-insensitive) name.
///
/// Recognized names: `vgg13`, `vgg16`, `resnet18` (Table I form),
/// `resnet18-full`, `alexnet`, `lenet5`, `mobilenet`, `dilated`,
/// `tiny`, and the executable `vgg13-sim` / `resnet18-sim`.
pub fn by_name(name: &str) -> Option<Network> {
    match name.to_ascii_lowercase().as_str() {
        "vgg13" | "vgg-13" => Some(vgg13()),
        "vgg16" | "vgg-16" => Some(vgg16()),
        "resnet18" | "resnet-18" => Some(resnet18_table1()),
        "resnet18-full" | "resnet-18-full" => Some(resnet18_full()),
        "alexnet" => Some(alexnet()),
        "lenet5" | "lenet-5" => Some(lenet5()),
        "mobilenet" | "mobilenet-like" => Some(mobilenet_like()),
        "dilated" | "dilated-context" => Some(dilated_context()),
        "tiny" => Some(tiny()),
        "vgg13-sim" | "vgg-13-sim" => Some(vgg13_sim()),
        "resnet18-sim" | "resnet-18-sim" => Some(resnet18_sim()),
        _ => None,
    }
}

/// All zoo networks, for exhaustive sweeps.
pub fn all() -> Vec<Network> {
    vec![
        vgg13(),
        vgg16(),
        resnet18_table1(),
        resnet18_full(),
        alexnet(),
        lenet5(),
        mobilenet_like(),
        dilated_context(),
        tiny(),
        vgg13_sim(),
        resnet18_sim(),
    ]
}

/// The executable subset of the zoo: networks whose stages chain
/// spatially ([`Network::check_chain`] passes), i.e. every network a
/// whole-network simulation can stream one input through.
// lint:allow(unused-pub) seam: the simulation equivalence tests run every chainable network
pub fn executable() -> Vec<Network> {
    all()
        .into_iter()
        .filter(|net| net.check_chain().is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg13_matches_table1_rows() {
        let net = vgg13();
        assert_eq!(net.len(), 10);
        let expect = [
            (224, 3, 3, 64),
            (224, 3, 64, 64),
            (112, 3, 64, 128),
            (112, 3, 128, 128),
            (56, 3, 128, 256),
            (56, 3, 256, 256),
            (28, 3, 256, 512),
            (28, 3, 512, 512),
            (14, 3, 512, 512),
            (14, 3, 512, 512),
        ];
        for (layer, (i, k, ic, oc)) in net.iter().zip(expect) {
            assert_eq!(layer.input_w(), i);
            assert_eq!(layer.kernel_w(), k);
            assert_eq!(layer.in_channels(), ic);
            assert_eq!(layer.out_channels(), oc);
            assert!(layer.is_paper_form());
        }
    }

    #[test]
    fn resnet18_table1_matches_paper() {
        let net = resnet18_table1();
        assert_eq!(net.len(), 5);
        let l1 = &net.layers()[0];
        assert_eq!((l1.input_w(), l1.kernel_w()), (112, 7));
        assert_eq!(net.layers()[4].input_w(), 7);
        assert!(net.is_paper_form());
    }

    #[test]
    fn resnet18_full_has_20_convs_with_true_geometry() {
        let net = resnet18_full();
        assert_eq!(net.len(), 20);
        let stem = net.layer("stem").unwrap();
        assert_eq!(stem.output_dims(), (112, 112));
        let down = net.layer("l2.b1.down").unwrap();
        assert_eq!(down.kernel_w(), 1);
        assert_eq!(down.output_dims(), (28, 28));
        // Last stage operates on 7x7 maps.
        assert_eq!(net.layer("l4.b2.c2").unwrap().output_dims(), (7, 7));
    }

    #[test]
    fn vgg16_has_13_convs() {
        assert_eq!(vgg16().len(), 13);
    }

    #[test]
    fn alexnet_stem_output_is_55() {
        let net = alexnet();
        assert_eq!(net.layers()[0].output_dims(), (55, 55));
    }

    #[test]
    fn mobilenet_like_alternates_depthwise_pointwise() {
        let net = mobilenet_like();
        assert!(net.layers()[0].groups() > 1);
        assert_eq!(net.layers()[1].groups(), 1);
        assert_eq!(net.layers()[1].kernel_w(), 1);
    }

    #[test]
    fn by_name_finds_every_network() {
        for net in all() {
            let found = by_name(net.name())
                .or_else(|| by_name(&net.name().replace('-', "")))
                .or_else(|| by_name(net.name()));
            assert!(found.is_some(), "by_name misses {}", net.name());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn zoo_networks_are_internally_valid() {
        for net in all() {
            assert!(!net.is_empty(), "{} is empty", net.name());
            assert!(net.total_params() > 0);
        }
    }

    #[test]
    fn dilated_context_preserves_spatial_size() {
        // "Same" padding with dilation d keeps 28x28 maps.
        let net = dilated_context();
        for layer in net.iter() {
            assert_eq!(layer.output_dims(), (28, 28), "{layer}");
        }
        assert_eq!(net.layers()[2].dilation(), 4);
        assert_eq!(net.layers()[2].effective_kernel_w(), 9);
    }

    #[test]
    fn executable_networks_chain_spatially() {
        let executable = executable();
        let names: Vec<&str> = executable.iter().map(Network::name).collect();
        for expected in [
            "LeNet-5",
            "Dilated-context",
            "tiny",
            "VGG-13-sim",
            "ResNet-18-sim",
        ] {
            assert!(names.contains(&expected), "{names:?} misses {expected}");
        }
        for net in &executable {
            net.check_chain().expect("executable zoo networks chain");
        }
        // Paper-form Table I lists do not chain spatially by design.
        assert!(vgg13().check_chain().is_err());
        assert!(resnet18_table1().check_chain().is_err());
    }

    #[test]
    fn sim_networks_mirror_their_full_size_topologies() {
        let vgg = vgg13_sim();
        assert_eq!(vgg.len(), 10);
        assert!(vgg.layers().iter().all(|l| l.kernel_w() == 3));
        // Four pooling stages take 32x32 down to 2x2.
        assert_eq!(vgg.layers()[9].output_dims(), (2, 2));
        let resnet = resnet18_sim();
        assert_eq!(resnet.len(), 5);
        assert_eq!(resnet.layers()[0].kernel_w(), 7);
    }

    #[test]
    fn vgg13_parameter_count_is_plausible() {
        // VGG-13 conv parameters (no biases): 9 · Σ IC·OC = 9 402 048.
        let p = vgg13().total_params();
        assert_eq!(p, 9_402_048);
    }
}
