//! Reproducible random-number streams.
//!
//! Every stochastic component of the simulation draws from its own stream
//! derived from a master seed plus a label path, so adding a new consumer
//! never perturbs the draws seen by existing ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The splitmix64 mixing function.
///
/// Used to derive independent sub-seeds from a master seed and label
/// hashes. This is the standard seeding recommendation for xoshiro-family
/// generators.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::splitmix64;
///
/// let a = splitmix64(1);
/// let b = splitmix64(2);
/// assert_ne!(a, b);
/// assert_eq!(a, splitmix64(1));
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_label(label: &str) -> u64 {
    // FNV-1a: stable across platforms and Rust versions, unlike
    // `DefaultHasher`.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A factory of independent, reproducible RNG streams.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// use treadmill_sim_core::SeedStream;
///
/// let seeds = SeedStream::new(42);
/// let mut a = seeds.stream("client", 0);
/// let mut b = seeds.stream("client", 1);
/// let mut a2 = SeedStream::new(42).stream("client", 0);
/// let (x, y, x2): (u64, u64, u64) = (a.gen(), b.gen(), a2.gen());
/// assert_eq!(x, x2);
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates a stream factory rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// Derives a child factory, e.g. one per experiment.
    pub fn child(&self, label: &str, index: u64) -> SeedStream {
        SeedStream {
            master: self.derive(label, index),
        }
    }

    /// Derives the raw 64-bit seed for (`label`, `index`).
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        let mixed = splitmix64(self.master ^ hash_label(label));
        splitmix64(mixed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Creates the RNG stream for (`label`, `index`).
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.derive(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let a: Vec<u64> = {
            let mut rng = SeedStream::new(7).stream("x", 3);
            (0..8).map(|_| rng.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SeedStream::new(7).stream("x", 3);
            (0..8).map(|_| rng.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let s = SeedStream::new(7);
        assert_ne!(s.derive("a", 0), s.derive("b", 0));
        assert_ne!(s.derive("a", 0), s.derive("a", 1));
    }

    #[test]
    fn child_factories_are_independent() {
        let s = SeedStream::new(7);
        let c0 = s.child("exp", 0);
        let c1 = s.child("exp", 1);
        assert_ne!(c0.derive("x", 0), c1.derive("x", 0));
        assert_eq!(c0, s.child("exp", 0));
    }

    #[test]
    fn label_hash_is_stable() {
        // Pin the FNV-1a output so cross-version drift is caught.
        assert_eq!(hash_label(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(hash_label("client"), hash_label("server"));
    }

    #[test]
    fn splitmix_avalanche() {
        // Neighbouring inputs should differ in many bits.
        let diff = (splitmix64(0) ^ splitmix64(1)).count_ones();
        assert!(diff > 16, "weak diffusion: {diff} bits");
    }

    #[test]
    fn stream_draws_are_uniformish() {
        let mut rng = SeedStream::new(99).stream("uniform", 0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
