//! Minimal row-major dense tensor types.
//!
//! The crate intentionally avoids a general N-dimensional array: a
//! convolution only ever needs a `C×H×W` feature map ([`Tensor3`]) and an
//! `OC×IC×KH×KW` weight bank ([`Tensor4`]). Fixed arities keep indexing
//! explicit and make shape errors impossible to express, not merely
//! checked.

use crate::{Result, Scalar, ShapeError};

/// A dense `channels × height × width` tensor (a feature map).
///
/// # Example
///
/// ```
/// use pim_tensor::Tensor3;
///
/// let mut fm: Tensor3<i64> = Tensor3::zeros(2, 4, 4);
/// fm.set(1, 3, 0, -5);
/// assert_eq!(fm.get(1, 3, 0), -5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3<T> {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<T>,
}

impl<T: Scalar> Tensor3<T> {
    /// Creates a zero-filled `channels × height × width` tensor.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
            data: vec![T::ZERO; channels * height * width],
        }
    }

    /// Creates a tensor from a `C`-major, then row-major element vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element count does not match.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != channels * height * width {
            return Err(ShapeError::new(format!(
                "Tensor3 expects {channels}x{height}x{width}={} elements, got {}",
                channels * height * width,
                data.len()
            )));
        }
        Ok(Self {
            channels,
            height,
            width,
            data,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(channels, height, width)` triple.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    #[inline]
    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        (c * self.height + y) * self.width + x
    }

    /// Returns the element at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> T {
        assert!(
            c < self.channels && y < self.height && x < self.width,
            "Tensor3 index OOB"
        );
        self.data[self.index(c, y, x)]
    }

    /// Returns the element at `(channel, y, x)` where `y`/`x` may fall into
    /// the (zero) padding region, i.e. be negative or beyond the edge.
    ///
    /// This is the access pattern of a padded convolution: out-of-image
    /// coordinates read as `T::ZERO`.
    #[inline]
    pub fn get_padded(&self, c: usize, y: isize, x: isize) -> T {
        if y < 0 || x < 0 || y as usize >= self.height || x as usize >= self.width {
            T::ZERO
        } else {
            self.data[self.index(c, y as usize, x as usize)]
        }
    }

    /// Writes the element at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: T) {
        assert!(
            c < self.channels && y < self.height && x < self.width,
            "Tensor3 index OOB"
        );
        let i = self.index(c, y, x);
        self.data[i] = value;
    }

    /// Adds `value` to the element at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn add_assign_at(&mut self, c: usize, y: usize, x: usize, value: T) {
        assert!(
            c < self.channels && y < self.height && x < self.width,
            "Tensor3 index OOB"
        );
        let i = self.index(c, y, x);
        self.data[i] += value;
    }

    /// Immutable view of the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// A dense `out_channels × in_channels × kernel_h × kernel_w` weight bank.
///
/// # Example
///
/// ```
/// use pim_tensor::Tensor4;
///
/// let w: Tensor4<f32> = Tensor4::zeros(8, 4, 3, 3);
/// assert_eq!(w.dims(), (8, 4, 3, 3));
/// assert_eq!(w.get(7, 3, 2, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4<T> {
    out_channels: usize,
    in_channels: usize,
    kernel_h: usize,
    kernel_w: usize,
    data: Vec<T>,
}

impl<T: Scalar> Tensor4<T> {
    /// Creates a zero-filled weight bank.
    pub fn zeros(
        out_channels: usize,
        in_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
    ) -> Self {
        Self {
            out_channels,
            in_channels,
            kernel_h,
            kernel_w,
            data: vec![T::ZERO; out_channels * in_channels * kernel_h * kernel_w],
        }
    }

    /// Creates a weight bank from an `OC`-major element vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element count does not match.
    pub fn from_vec(
        out_channels: usize,
        in_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        data: Vec<T>,
    ) -> Result<Self> {
        let expect = out_channels * in_channels * kernel_h * kernel_w;
        if data.len() != expect {
            return Err(ShapeError::new(format!(
                "Tensor4 expects {expect} elements, got {}",
                data.len()
            )));
        }
        Ok(Self {
            out_channels,
            in_channels,
            kernel_h,
            kernel_w,
            data,
        })
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels per kernel.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel height.
    pub fn kernel_h(&self) -> usize {
        self.kernel_h
    }

    /// Kernel width.
    pub fn kernel_w(&self) -> usize {
        self.kernel_w
    }

    /// `(out_channels, in_channels, kernel_h, kernel_w)` tuple.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        )
    }

    #[inline]
    fn index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel_h + ky) * self.kernel_w + kx
    }

    /// Returns the weight at `(oc, ic, ky, kx)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn get(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> T {
        assert!(
            oc < self.out_channels
                && ic < self.in_channels
                && ky < self.kernel_h
                && kx < self.kernel_w,
            "Tensor4 index OOB"
        );
        self.data[self.index(oc, ic, ky, kx)]
    }

    /// Writes the weight at `(oc, ic, ky, kx)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn set(&mut self, oc: usize, ic: usize, ky: usize, kx: usize, value: T) {
        assert!(
            oc < self.out_channels
                && ic < self.in_channels
                && ky < self.kernel_h
                && kx < self.kernel_w,
            "Tensor4 index OOB"
        );
        let i = self.index(oc, ic, ky, kx);
        self.data[i] = value;
    }

    /// Immutable view of the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor3_layout_is_channel_major() {
        let t = Tensor3::from_vec(2, 2, 2, vec![0, 1, 2, 3, 10, 11, 12, 13]).unwrap();
        assert_eq!(t.get(0, 0, 0), 0);
        assert_eq!(t.get(0, 1, 1), 3);
        assert_eq!(t.get(1, 0, 0), 10);
        assert_eq!(t.get(1, 1, 0), 12);
    }

    #[test]
    fn tensor3_padded_reads_zero_outside() {
        let t = Tensor3::from_vec(1, 2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(t.get_padded(0, -1, 0), 0);
        assert_eq!(t.get_padded(0, 0, -1), 0);
        assert_eq!(t.get_padded(0, 2, 0), 0);
        assert_eq!(t.get_padded(0, 1, 1), 4);
    }

    #[test]
    fn tensor3_from_vec_validates_len() {
        assert!(Tensor3::<i32>::from_vec(1, 2, 2, vec![1]).is_err());
    }

    #[test]
    fn tensor4_layout_is_oc_major() {
        let mut w: Tensor4<i32> = Tensor4::zeros(2, 1, 2, 2);
        w.set(1, 0, 1, 1, 99);
        assert_eq!(w.as_slice()[7], 99);
        assert_eq!(w.get(1, 0, 1, 1), 99);
        assert_eq!(w.get(0, 0, 1, 1), 0);
    }

    #[test]
    fn tensor4_from_vec_validates_len() {
        assert!(Tensor4::<f32>::from_vec(1, 1, 3, 3, vec![0.0; 8]).is_err());
        assert!(Tensor4::<f32>::from_vec(1, 1, 3, 3, vec![0.0; 9]).is_ok());
    }

    #[test]
    #[should_panic(expected = "Tensor3 index OOB")]
    fn tensor3_oob_set_panics() {
        let mut t: Tensor3<i32> = Tensor3::zeros(1, 1, 1);
        t.set(0, 1, 0, 5);
    }
}
