//! The convolutional-layer shape descriptor.

use crate::{NetError, Result};
use std::fmt;

/// Shape of one convolutional layer, as consumed by the mapping algorithms.
///
/// Follows the paper's notation: input feature maps of `IC` channels and
/// spatial size `Ih × Iw`, kernels of size `Kh × Kw`, `OC` output channels.
/// Stride, padding and channel groups generalize beyond the paper (which
/// assumes stride 1, padding 0, groups 1) and are honoured by the cost
/// model's generalized entry points and by the functional simulator.
///
/// Construct with [`ConvLayer::square`] for the common square case or with
/// [`ConvLayer::builder`] for full control.
///
/// # Example
///
/// ```
/// use pim_nets::ConvLayer;
///
/// // VGG-13 layer 5 of the paper's Table I: 56x56, 3x3x128x256.
/// let layer = ConvLayer::square("conv5", 56, 3, 128, 256)?;
/// assert_eq!(layer.output_dims(), (54, 54));
/// assert_eq!(layer.n_windows(), 54 * 54);
/// # Ok::<(), pim_nets::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvLayer {
    name: String,
    input_h: usize,
    input_w: usize,
    kernel_h: usize,
    kernel_w: usize,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
    padding: usize,
    dilation: usize,
    groups: usize,
}

impl ConvLayer {
    /// Creates a layer with square input and kernel, unit stride, no
    /// padding — the configuration of every row in the paper's Table I.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if any dimension is zero or the kernel exceeds
    /// the input.
    pub fn square(
        name: impl Into<String>,
        input: usize,
        kernel: usize,
        in_channels: usize,
        out_channels: usize,
    ) -> Result<Self> {
        Self::builder(name)
            .input(input, input)
            .kernel(kernel, kernel)
            .channels(in_channels, out_channels)
            .build()
    }

    /// Starts building a layer with full control over every field.
    pub fn builder(name: impl Into<String>) -> ConvLayerBuilder {
        ConvLayerBuilder::new(name)
    }

    /// Layer name (unique within a [`crate::Network`] by convention).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature-map height (`Ih`).
    pub fn input_h(&self) -> usize {
        self.input_h
    }

    /// Input feature-map width (`Iw`).
    pub fn input_w(&self) -> usize {
        self.input_w
    }

    /// Kernel height (`Kh`).
    pub fn kernel_h(&self) -> usize {
        self.kernel_h
    }

    /// Kernel width (`Kw`).
    pub fn kernel_w(&self) -> usize {
        self.kernel_w
    }

    /// Input channels (`IC`).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channels (`OC`).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution stride (both axes).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding (both axes).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Kernel dilation (1 = dense kernel).
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Effective kernel width after dilation: `(Kw − 1)·dilation + 1`.
    pub fn effective_kernel_w(&self) -> usize {
        (self.kernel_w - 1) * self.dilation + 1
    }

    /// Effective kernel height after dilation: `(Kh − 1)·dilation + 1`.
    pub fn effective_kernel_h(&self) -> usize {
        (self.kernel_h - 1) * self.dilation + 1
    }

    /// Channel groups (1 = dense convolution; `IC` = depthwise).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Input channels per group.
    pub fn in_channels_per_group(&self) -> usize {
        self.in_channels / self.groups
    }

    /// Output channels per group.
    pub fn out_channels_per_group(&self) -> usize {
        self.out_channels / self.groups
    }

    /// Output spatial dimensions `(OH, OW)`.
    pub fn output_dims(&self) -> (usize, usize) {
        let padded_h = self.input_h + 2 * self.padding;
        let padded_w = self.input_w + 2 * self.padding;
        (
            (padded_h - self.effective_kernel_h()) / self.stride + 1,
            (padded_w - self.effective_kernel_w()) / self.stride + 1,
        )
    }

    /// Number of kernel windows slid over the input — `OH · OW`.
    ///
    /// With unit stride and no padding this is the paper's
    /// `(Iw − Kw + 1)(Ih − Kh + 1)`, the im2col cycle count for an
    /// unconstrained array.
    pub fn n_windows(&self) -> u64 {
        let (oh, ow) = self.output_dims();
        oh as u64 * ow as u64
    }

    /// Weight-parameter count (`OC · IC/groups · Kh · Kw`).
    pub fn n_params(&self) -> u64 {
        self.out_channels as u64
            * (self.in_channels / self.groups) as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Multiply-accumulate operations for one inference of this layer.
    pub fn n_macs(&self) -> u64 {
        self.n_windows() * self.n_params()
    }

    /// Rows a single kernel occupies when unrolled into one crossbar
    /// column (`Kh · Kw · IC/groups`).
    pub fn kernel_rows(&self) -> usize {
        self.kernel_h * self.kernel_w * (self.in_channels / self.groups)
    }

    /// `true` when the layer matches the paper's assumptions (unit stride,
    /// no padding, dense channels); the paper-exact planners require this.
    pub fn is_paper_form(&self) -> bool {
        self.stride == 1 && self.padding == 0 && self.dilation == 1 && self.groups == 1
    }

    /// The canonical name-free shape of this layer.
    ///
    /// Two layers with equal shapes are interchangeable for every mapping
    /// algorithm and cost equation — only the [`ConvLayer::name`] differs —
    /// which is what makes shape-keyed memoization of planning sound (CNNs
    /// such as VGG-13 and ResNet-18 repeat shapes heavily).
    pub fn shape(&self) -> LayerShape {
        LayerShape {
            input_h: self.input_h,
            input_w: self.input_w,
            kernel_h: self.kernel_h,
            kernel_w: self.kernel_w,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            stride: self.stride,
            padding: self.padding,
            dilation: self.dilation,
            groups: self.groups,
        }
    }

    /// Whether `other` has the same shape (name ignored).
    pub fn same_shape(&self, other: &ConvLayer) -> bool {
        self.shape() == other.shape()
    }
}

/// The name-free shape of a [`ConvLayer`]: every geometric field that the
/// cost model and mapping planners consume, and nothing else.
///
/// Used as (part of) the memoization key of the planning engine and the
/// window-search cache: planning results for one shape transfer verbatim
/// to any equally shaped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerShape {
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
    /// Kernel dilation (both axes).
    pub dilation: usize,
    /// Channel groups (1 = dense convolution).
    pub groups: usize,
}

impl fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} {}x{}x{}x{}",
            self.name,
            self.input_w,
            self.input_h,
            self.kernel_w,
            self.kernel_h,
            self.in_channels,
            self.out_channels
        )?;
        if self.stride != 1 {
            write!(f, " /{}", self.stride)?;
        }
        if self.padding != 0 {
            write!(f, " p{}", self.padding)?;
        }
        if self.dilation != 1 {
            write!(f, " d{}", self.dilation)?;
        }
        if self.groups != 1 {
            write!(f, " g{}", self.groups)?;
        }
        Ok(())
    }
}

/// Builder for [`ConvLayer`] (see [`ConvLayer::builder`]).
#[derive(Debug, Clone)]
pub struct ConvLayerBuilder {
    name: String,
    input_h: usize,
    input_w: usize,
    kernel_h: usize,
    kernel_w: usize,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
    padding: usize,
    dilation: usize,
    groups: usize,
}

impl ConvLayerBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            input_h: 0,
            input_w: 0,
            kernel_h: 0,
            kernel_w: 0,
            in_channels: 0,
            out_channels: 0,
            stride: 1,
            padding: 0,
            dilation: 1,
            groups: 1,
        }
    }

    /// Sets the input feature-map size (`height`, `width`).
    pub fn input(mut self, height: usize, width: usize) -> Self {
        self.input_h = height;
        self.input_w = width;
        self
    }

    /// Sets the kernel size (`height`, `width`).
    pub fn kernel(mut self, height: usize, width: usize) -> Self {
        self.kernel_h = height;
        self.kernel_w = width;
        self
    }

    /// Sets input and output channel counts.
    pub fn channels(mut self, in_channels: usize, out_channels: usize) -> Self {
        self.in_channels = in_channels;
        self.out_channels = out_channels;
        self
    }

    /// Sets the stride (both axes). Defaults to 1.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the zero padding (both axes). Defaults to 0.
    pub fn padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the kernel dilation (both axes). Defaults to 1 (dense).
    pub fn dilation(mut self, dilation: usize) -> Self {
        self.dilation = dilation;
        self
    }

    /// Sets the channel-group count. Defaults to 1 (dense).
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Validates and produces the layer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if any dimension is zero, the (padded) input is
    /// smaller than the kernel, channels are not divisible by `groups`, or
    /// the stride does not evenly traverse the input (a restriction that
    /// keeps window counts exact; relax by adjusting padding).
    pub fn build(self) -> Result<ConvLayer> {
        if self.name.is_empty() {
            return Err(NetError::new("layer name must be non-empty"));
        }
        for (what, v) in [
            ("input height", self.input_h),
            ("input width", self.input_w),
            ("kernel height", self.kernel_h),
            ("kernel width", self.kernel_w),
            ("input channels", self.in_channels),
            ("output channels", self.out_channels),
            ("stride", self.stride),
            ("dilation", self.dilation),
            ("groups", self.groups),
        ] {
            if v == 0 {
                return Err(NetError::new(format!("{what} must be positive")));
            }
        }
        let padded_h = self.input_h + 2 * self.padding;
        let padded_w = self.input_w + 2 * self.padding;
        let eff_h = (self.kernel_h - 1) * self.dilation + 1;
        let eff_w = (self.kernel_w - 1) * self.dilation + 1;
        if eff_h > padded_h || eff_w > padded_w {
            return Err(NetError::new(format!(
                "kernel {}x{} (dilated to {}x{}) exceeds padded input {}x{} in layer {:?}",
                self.kernel_w, self.kernel_h, eff_w, eff_h, padded_w, padded_h, self.name
            )));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(NetError::new(format!(
                "channels {}->{} not divisible by groups {} in layer {:?}",
                self.in_channels, self.out_channels, self.groups, self.name
            )));
        }
        Ok(ConvLayer {
            name: self.name,
            input_h: self.input_h,
            input_w: self.input_w,
            kernel_h: self.kernel_h,
            kernel_w: self.kernel_w,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            stride: self.stride,
            padding: self.padding,
            dilation: self.dilation,
            groups: self.groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_constructor_sets_paper_defaults() {
        let l = ConvLayer::square("c", 28, 3, 256, 512).unwrap();
        assert!(l.is_paper_form());
        assert_eq!(l.output_dims(), (26, 26));
        assert_eq!(l.n_windows(), 676);
        assert_eq!(l.kernel_rows(), 9 * 256);
    }

    #[test]
    fn builder_supports_rectangles() {
        let l = ConvLayer::builder("rect")
            .input(14, 28)
            .kernel(3, 5)
            .channels(8, 16)
            .build()
            .unwrap();
        assert_eq!(l.output_dims(), (12, 24));
        assert_eq!(l.n_params(), 16 * 8 * 15);
    }

    #[test]
    fn stride_and_padding_change_output_dims() {
        // ResNet stem: 224x224, 7x7, stride 2, pad 3 -> 112x112.
        let l = ConvLayer::builder("stem")
            .input(224, 224)
            .kernel(7, 7)
            .channels(3, 64)
            .stride(2)
            .padding(3)
            .build()
            .unwrap();
        assert_eq!(l.output_dims(), (112, 112));
        assert!(!l.is_paper_form());
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(ConvLayer::square("z", 0, 3, 1, 1).is_err());
        assert!(ConvLayer::square("z", 8, 0, 1, 1).is_err());
        assert!(ConvLayer::square("z", 8, 3, 0, 1).is_err());
        assert!(ConvLayer::square("z", 8, 3, 1, 0).is_err());
        assert!(ConvLayer::square("", 8, 3, 1, 1).is_err());
    }

    #[test]
    fn oversized_kernel_is_rejected_unless_padded() {
        assert!(ConvLayer::square("k", 2, 3, 1, 1).is_err());
        let ok = ConvLayer::builder("k")
            .input(2, 2)
            .kernel(3, 3)
            .channels(1, 1)
            .padding(1)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn groups_must_divide_channels() {
        assert!(ConvLayer::builder("g")
            .input(8, 8)
            .kernel(3, 3)
            .channels(6, 4)
            .groups(4)
            .build()
            .is_err());
        let dw = ConvLayer::builder("dw")
            .input(8, 8)
            .kernel(3, 3)
            .channels(6, 6)
            .groups(6)
            .build()
            .unwrap();
        assert_eq!(dw.in_channels_per_group(), 1);
        assert_eq!(dw.kernel_rows(), 9);
    }

    #[test]
    fn macs_and_params_match_hand_computation() {
        let l = ConvLayer::square("c", 14, 3, 512, 512).unwrap();
        assert_eq!(l.n_params(), 512 * 512 * 9);
        assert_eq!(l.n_macs(), 144 * 512 * 512 * 9);
    }

    #[test]
    fn display_is_compact_paper_notation() {
        let l = ConvLayer::square("conv5", 56, 3, 128, 256).unwrap();
        assert_eq!(l.to_string(), "conv5: 56x56 3x3x128x256");
        let s = ConvLayer::builder("stem")
            .input(224, 224)
            .kernel(7, 7)
            .channels(3, 64)
            .stride(2)
            .padding(3)
            .build()
            .unwrap();
        assert_eq!(s.to_string(), "stem: 224x224 7x7x3x64 /2 p3");
    }
}
