//! Deterministic, forkable random-number streams.
//!
//! Every stochastic component of the simulator (price processes, interruption
//! hazards, placement outcomes…) draws from its own [`SimRng`] stream forked
//! from the experiment seed, so adding draws to one component never perturbs
//! another — a prerequisite for apples-to-apples strategy comparisons.
//!
//! The generator is a self-contained xoshiro256++ seeded via SplitMix64, so
//! streams are cheap to clone and stable across dependency upgrades.

/// A seeded random stream (xoshiro256++).
///
/// # Examples
///
/// ```
/// use sim_kernel::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.uniform_u64(100), b.uniform_u64(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 finalizer — used to expand seeds and derive substreams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a offset basis: the hash state before any byte.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Hashes a label into a stream discriminant (FNV-1a).
fn hash_label(label: &str) -> u64 {
    fnv1a(FNV_OFFSET, label.as_bytes())
}

/// A pure keyed hash of `(seed, n, key)`: FNV-1a over the little-endian
/// bytes of `seed` and `n` and then the bytes of `key`, finished with
/// SplitMix64.
///
/// For draws that must not consume an RNG stream, so asking twice (at a
/// write and at its read, or in a replay) gives the same answer and every
/// other stream is left untouched: checkpoint corruption verdicts,
/// quarantine jitter and re-drive jitter.
pub fn keyed_hash(seed: u64, n: u64, key: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    splitmix64(fnv1a(fnv1a(h, &n.to_le_bytes()), key.as_bytes()))
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(s);
        }
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks an independent substream identified by a label.
    ///
    /// Forking is a pure function of `(self.seed, label)` — it does not
    /// consume state from `self`, so fork order is irrelevant.
    pub fn fork(&self, label: &str) -> SimRng {
        self.fork_parts(&[label])
    }

    /// Forks the substream [`fork`](SimRng::fork) gives the concatenation
    /// of `parts`, hashing the parts in turn so the joined label is never
    /// built.
    ///
    /// ```
    /// use sim_kernel::SimRng;
    ///
    /// let rng = SimRng::seed_from_u64(3);
    /// let joined = rng.fork("price:us-east-1/m5.xlarge").seed();
    /// assert_eq!(rng.fork_parts(&["price:", "us-east-1", "/", "m5.xlarge"]).seed(), joined);
    /// ```
    pub fn fork_parts(&self, parts: &[&str]) -> SimRng {
        let h = parts.iter().fold(FNV_OFFSET, |h, part| fnv1a(h, part.as_bytes()));
        SimRng::seed_from_u64(splitmix64(self.seed ^ h))
    }

    /// Forks an independent substream identified by a label and index.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::seed_from_u64(splitmix64(
            self.seed ^ hash_label(label) ^ splitmix64(index.wrapping_add(1)),
        ))
    }

    /// Raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (unbiased via rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64: n must be positive");
        // Lemire-style rejection for unbiased bounded output.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = u128::from(x) * u128::from(n);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn pick_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "pick_index: empty slice");
        self.uniform_u64(len as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Exponentially distributed waiting time with the given rate (events per
    /// unit time). Returns `f64::INFINITY` when the rate is zero.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or NaN.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate >= 0.0, "exponential: rate must be non-negative");
        if rate == 0.0 {
            return f64::INFINITY;
        }
        let u = self.uniform();
        // u in [0,1): 1-u in (0,1], so ln is finite.
        -(1.0 - u).ln() / rate
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal: std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = SimRng::seed_from_u64(11);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SimRng::seed_from_u64(1);
        let mut consumed = parent.clone();
        let _ = consumed.uniform();
        let f1 = parent.fork("market");
        let f2 = consumed.fork("market");
        assert_eq!(f1.seed(), f2.seed(), "fork must not depend on parent state");
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let parent = SimRng::seed_from_u64(1);
        assert_ne!(parent.fork("a").seed(), parent.fork("b").seed());
        assert_ne!(
            parent.fork_indexed("w", 0).seed(),
            parent.fork_indexed("w", 1).seed()
        );
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_u64_covers_small_ranges() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.uniform_u64(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = SimRng::seed_from_u64(9);
        let rate = 0.25;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean} far from 4.0");
    }

    #[test]
    fn exponential_zero_rate_never_fires() {
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(rng.exponential(0.0), f64::INFINITY);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn pick_index_in_bounds() {
        let mut rng = SimRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(rng.pick_index(7) < 7);
        }
    }
}
