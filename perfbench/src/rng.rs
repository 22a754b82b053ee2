//! Seeded request streams: every workload's inputs and request sequence
//! are a pure function of `(seed, workload, client)`.

/// SplitMix64: small, fast, and good enough to draw sizes and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of `client` in `workload` under `seed`.
    pub fn stream(seed: u64, workload: &str, client: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in workload.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h.rotate_left(17) ^ client.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn streams_are_pure_functions_of_their_key() {
        let draw = |s, w, c| {
            let mut r = Rng::stream(s, w, c);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "serve_mixed", 1), draw(7, "serve_mixed", 1));
        assert_ne!(draw(7, "serve_mixed", 1), draw(7, "serve_mixed", 0));
        assert_ne!(draw(7, "serve_mixed", 1), draw(8, "serve_mixed", 1));
        assert_ne!(draw(7, "serve_mixed", 1), draw(7, "paper_single", 1));
    }
}
