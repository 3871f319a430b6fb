//! Cheap, deterministic hashing for simulator-internal tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per lookup — far too much for
//! tables probed on every simulated memory access. The simulator hashes
//! only *trusted, internal* keys (block indices, sync-point IDs, region
//! tags), so the open-addressing [`FlatMap`](crate::flatmap::FlatMap)
//! mixes them with [`mix_u64`] instead: one multiply and one xor-shift.
//!
//! The mix is seed-free and therefore deterministic across runs and
//! processes, which the parallel sweep harness relies on (bit-identical
//! results at any `--jobs`).

/// Golden-ratio constant for Fibonacci hashing (`2^64 / phi`).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci-mixes a single 64-bit key.
///
/// The multiply spreads entropy toward the *high* bits, so power-of-two
/// tables must take their slot index from the top of the result (as
/// [`FlatMap`](crate::flatmap::FlatMap) does) — sequential keys, the
/// common case for block indices, then scatter instead of clustering.
///
/// # Examples
///
/// ```
/// use spcp_sim::hash::mix_u64;
///
/// // Sequential keys produce well-separated high bits.
/// assert_ne!(mix_u64(1) >> 56, mix_u64(2) >> 56);
/// ```
#[inline]
pub const fn mix_u64(key: u64) -> u64 {
    let x = key.wrapping_mul(PHI);
    // One xor-shift to let the high bits influence the low ones too, so
    // the result is usable regardless of which end the table slices off.
    x ^ (x >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_scatters_sequential_keys_in_high_bits() {
        // A power-of-two table takes the top bits; sequential block
        // indices must land in different buckets.
        let mut buckets = std::collections::HashSet::new();
        for k in 0u64..256 {
            buckets.insert(mix_u64(k) >> 56);
        }
        assert!(
            buckets.len() > 200,
            "got {} distinct buckets",
            buckets.len()
        );
    }
}
