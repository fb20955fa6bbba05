//! Helpers shared by the serving layer's fuzz suites.

use rand::rngs::SmallRng;
use rand::Rng;

/// One random corruption of `base`: a byte flipped to an arbitrary value,
/// a truncation, or an inserted byte.
pub fn corrupt(base: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.random_range(0..3usize) {
        0 if !bytes.is_empty() => {
            // Flip one byte to an arbitrary value.
            let i = rng.random_range(0..bytes.len());
            bytes[i] = rng.random_range(0..256usize) as u8;
        }
        1 => {
            // Truncate.
            let keep = rng.random_range(0..bytes.len().max(1));
            bytes.truncate(keep);
        }
        _ => {
            // Insert a random byte.
            let i = rng.random_range(0..bytes.len() + 1);
            bytes.insert(i, rng.random_range(0..256usize) as u8);
        }
    }
    bytes
}
