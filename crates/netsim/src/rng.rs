//! Deterministic random number generation.
//!
//! The whole workspace derives its randomness from [`SimRng`], a SplitMix64
//! generator. SplitMix64 passes BigCrush, is trivially seedable, and — unlike
//! external crates — guarantees that the byte streams backing certificates,
//! packet loss and population sampling never change underneath us.
//!
//! Two idioms are used throughout the workspace:
//!
//! * a *root* RNG seeded from the experiment seed drives global decisions;
//! * per-entity RNGs are forked via [`SimRng::fork`] with a label hash, so
//!   that generating domain #57 never depends on how many random draws
//!   domain #56 consumed (stable under refactoring).

/// A deterministic SplitMix64 random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Any seed (including zero) is valid.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Fork an independent generator for a labelled sub-entity.
    ///
    /// The child stream is a pure function of `(parent seed, label)`, so
    /// sibling entities get decorrelated streams and the draw order of one
    /// entity can never perturb another.
    pub fn fork(&self, label: u64) -> SimRng {
        let mut mix = SimRng {
            state: self.state ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Warm the state so that adjacent labels diverge immediately.
        mix.next_u64();
        mix
    }

    /// Next raw 64-bit value (SplitMix64 step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a non-zero bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection branch: only taken when low < bound; re-check the
            // classic threshold to stay unbiased.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform floating point value in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits of the output give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Choose an index according to non-negative `weights`.
    ///
    /// Returns `None` when all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        self.weighted_index_by(weights.len(), |i| weights[i])
    }

    /// [`SimRng::weighted_index`] over computed weights: chooses an index in
    /// `0..len` according to the non-negative weights produced by `weight`,
    /// without materialising a weight slice.
    ///
    /// Draw-for-draw identical to `weighted_index` over the same weights
    /// (same summation order, same single `f64` consumed), so hot paths can
    /// switch to it without perturbing any seeded stream.
    pub fn weighted_index_by(
        &mut self,
        len: usize,
        weight: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let mut total = 0.0f64;
        for i in 0..len {
            let w = weight(i);
            if w > 0.0 {
                total += w;
            }
        }
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for i in 0..len {
            let w = weight(i);
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        (0..len).rev().find(|&i| weight(i) > 0.0)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick() requires a non-empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fill a buffer with pseudo-random bytes.
    pub(crate) fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let extra = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&extra[..rem.len()]);
        }
    }

    /// Produce a vector of `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }
}

/// A fast, non-cryptographic [`std::hash::Hasher`] for hot in-process maps.
///
/// `HashMap`'s default SipHash costs more than the rest of a probe on the
/// million-record scan path, where the scenario-class memo performs one
/// lookup per record. This multiply-rotate hasher (the fxhash scheme) is
/// an order of magnitude cheaper and — since the keyed maps live and die
/// inside one process and are never fed attacker-controlled keys — the
/// HashDoS resistance being given up buys nothing here. Use via
/// [`FastHashBuilder`]: `HashMap<K, V, FastHashBuilder>`.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

/// [`std::hash::BuildHasherDefault`] over [`FastHasher`] — the third type
/// parameter for hot `HashMap`s.
pub type FastHashBuilder = std::hash::BuildHasherDefault<FastHasher>;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A9B);
    }
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One SplitMix-style finalizer so low-entropy states still spread
        // across the map's low index bits.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rest) = bytes.as_chunks::<8>();
        for &chunk in chunks {
            self.mix(u64::from_le_bytes(chunk));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// FNV-1a hash of a byte string, used to derive fork labels from names.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = SimRng::new(7);
        let mut c1 = root.fork(10);
        let mut c1_again = root.fork(10);
        let mut c2 = root.fork(11);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers_small_bounds() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = SimRng::new(9);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::new(11);
        let hits = (0..50_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 50_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(13);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_index_by_matches_slice_version() {
        let weights = [0.0, 2.5, 0.75, 0.0, 4.0, 1e-9];
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        for _ in 0..10_000 {
            assert_eq!(
                a.weighted_index(&weights),
                b.weighted_index_by(weights.len(), |i| weights[i])
            );
        }
        // Both consumed exactly the same number of draws.
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(b.weighted_index_by(0, |_| 1.0), None);
        assert_eq!(b.weighted_index_by(3, |_| 0.0), None);
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        let mut rng = SimRng::new(19);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let v = rng.bytes(len);
            assert_eq!(v.len(), len);
        }
        // Non-trivial buffers should not be all zeros.
        let v = rng.bytes(64);
        assert!(v.iter().any(|&b| b != 0));
    }

    #[test]
    fn fnv1a_distinguishes_labels() {
        assert_ne!(fnv1a(b"cloudflare"), fnv1a(b"google"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn fast_hasher_is_stable_and_discriminating() {
        use std::collections::HashMap;
        use std::hash::{Hash, Hasher};

        let hash_of = |key: &(u64, u8, bool)| {
            let mut h = FastHasher::default();
            key.hash(&mut h);
            h.finish()
        };
        let a = (7u64, 3u8, true);
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&(7, 3, false)));
        assert_ne!(hash_of(&a), hash_of(&(8, 3, true)));
        // Nearby small integers — the common key shape — must not collide
        // wholesale, or the memo map degenerates into a scan.
        let mut seen: HashMap<u64, (u64, u8, bool), FastHashBuilder> = HashMap::default();
        for x in 0..1_000u64 {
            for y in 0..4u8 {
                let key = (x, y, false);
                let h = hash_of(&key);
                assert!(seen.insert(h, key).is_none(), "collision at {key:?}");
            }
        }
    }
}
