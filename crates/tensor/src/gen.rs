//! Deterministic tensor generators for tests, examples and benches.
//!
//! The mapping problem studied by VW-SDK depends only on layer *shapes*;
//! weight and activation values merely need to be diverse enough to expose
//! indexing bugs in the functional simulator. Generators here are seeded, so
//! every test and experiment is reproducible bit-for-bit.
//!
//! Values are kept small (|v| ≤ 8) so that integer accumulations stay far
//! from overflow and float accumulations stay exact.

use crate::{Scalar, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The largest magnitude the random generators produce: every value
/// lies in `[-MAGNITUDE, MAGNITUDE]`.
pub const MAGNITUDE: u16 = 8;

fn next_value<T: Scalar>(rng: &mut StdRng) -> T {
    // Sample in [-MAGNITUDE, MAGNITUDE], excluding nothing; zero included so
    // sparsity paths (skipped rows) are exercised too.
    let v = rng.gen_range(0..=2 * MAGNITUDE);
    if v >= MAGNITUDE {
        T::from_u16(v - MAGNITUDE)
    } else {
        -T::from_u16(MAGNITUDE - v)
    }
}

/// A `c × h × w` feature map with the deterministic ramp pattern.
pub fn ramp3<T: Scalar>(c: usize, h: usize, w: usize) -> Tensor3<T> {
    let data = (0..c * h * w)
        .map(|i| T::from_u16((i % 251) as u16))
        .collect();
    Tensor3::from_vec(c, h, w, data).expect("ramp3 length is consistent by construction")
}

/// An `oc × ic × kh × kw` weight bank with the deterministic ramp pattern.
pub fn ramp4<T: Scalar>(oc: usize, ic: usize, kh: usize, kw: usize) -> Tensor4<T> {
    let data = (0..oc * ic * kh * kw)
        .map(|i| T::from_u16((i % 251) as u16))
        .collect();
    Tensor4::from_vec(oc, ic, kh, kw, data).expect("ramp4 length is consistent by construction")
}

/// A seeded pseudo-random `c × h × w` feature map with values in [-8, 8].
pub fn random3<T: Scalar>(c: usize, h: usize, w: usize, seed: u64) -> Tensor3<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..c * h * w).map(|_| next_value(&mut rng)).collect();
    Tensor3::from_vec(c, h, w, data).expect("random3 length is consistent by construction")
}

/// A seeded pseudo-random `oc × ic × kh × kw` weight bank with values in [-8, 8].
pub fn random4<T: Scalar>(oc: usize, ic: usize, kh: usize, kw: usize, seed: u64) -> Tensor4<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..oc * ic * kh * kw)
        .map(|_| next_value(&mut rng))
        .collect();
    Tensor4::from_vec(oc, ic, kh, kw, data).expect("random4 length is consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramps_are_deterministic() {
        let a = ramp3::<i32>(2, 3, 3);
        let b = ramp3::<i32>(2, 3, 3);
        assert_eq!(a, b);
        assert_eq!(a.get(0, 0, 1), 1);
        assert_eq!(a.get(1, 0, 0), 9);
    }

    #[test]
    fn ramp_values_wrap_below_251() {
        let t = ramp3::<i32>(2, 13, 10);
        assert!(t.as_slice().iter().all(|&v| (0..251).contains(&v)));
    }

    #[test]
    fn random_is_seed_stable() {
        let a = random3::<i64>(1, 4, 4, 99);
        let b = random3::<i64>(1, 4, 4, 99);
        let c = random3::<i64>(1, 4, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_values_bounded() {
        let t = random4::<i32>(3, 3, 3, 3, 5);
        assert!(t.as_slice().iter().all(|&v| (-8..=8).contains(&v)));
        // Both signs should appear in a sample this large.
        assert!(t.as_slice().iter().any(|&v| v > 0));
        assert!(t.as_slice().iter().any(|&v| v < 0));
    }

    #[test]
    fn float_random_matches_integer_random() {
        // Same seed produces the same abstract values in every scalar domain.
        let i = random3::<i32>(1, 5, 5, 7);
        let f = random3::<f64>(1, 5, 5, 7);
        for (a, b) in i.as_slice().iter().zip(f.as_slice()) {
            assert_eq!(*a as f64, *b);
        }
    }
}
