//! Seeded inputs: every random choice comes from the repository's
//! `rand` shim, one `StdRng` stream per client and purpose, all derived
//! from `--seed`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub use gis::datagen::distributions::{pick, Zipf};
pub use rand::rngs::StdRng as Rng;

/// Stream `stream` of seed `seed`: distinct for every pair of 32-bit
/// seed and stream.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.rotate_left(32) ^ stream)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let draw = |seed, s| -> Vec<u64> {
            let mut r = stream(seed, s);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }
}
