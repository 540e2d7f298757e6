//! FNV-1a, the workspace's one byte hash: page, `CURRENT`-slot and
//! superblock checksums in the store, and the latency and breaker
//! digests that make byte-identity across runs checkable from output
//! alone.
//!
//! FNV-1a is one serial xor-multiply chain per byte, so a single hash
//! runs at the multiply's latency, not its throughput.
//! [`fnv1a_lanes`] hashes [`FNV_LANES`] independent inputs in one pass,
//! interleaving their chains so the multiplier stays busy; the page
//! store seals and verifies its pages through it.

/// FNV-1a 64-bit offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Inputs [`fnv1a_lanes`] hashes per pass.
pub const FNV_LANES: usize = 4;

/// FNV-1a over `bytes`, continuing from `seed` (pass [`FNV_OFFSET`] for
/// the plain hash). Chaining calls hashes the concatenation:
/// `fnv1a(fnv1a(s, a), b) == fnv1a(s, a ++ b)`.
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`FNV_LANES`] FNV-1a hashes in one pass: lane `l` of the result is
/// `fnv1a(seeds[l], lanes[l])` bit for bit, whatever the lengths (an
/// empty lane returns its seed). The chains advance together over the
/// bytes every live lane still has; a lane drops out when its input
/// ends.
#[must_use]
pub fn fnv1a_lanes(seeds: [u64; FNV_LANES], lanes: [&[u8]; FNV_LANES]) -> [u64; FNV_LANES] {
    let mut h = seeds;
    let mut order = [0, 1, 2, 3];
    order.sort_unstable_by_key(|&l| lanes[l].len());
    let mut at = 0;
    for (phase, &shortest) in order.iter().enumerate() {
        let end = lanes[shortest].len();
        let [a, b, c, d] = order;
        match phase {
            0 => chains(&mut h, [a, b, c, d], &lanes, at..end),
            1 => chains(&mut h, [b, c, d], &lanes, at..end),
            2 => chains(&mut h, [c, d], &lanes, at..end),
            _ => chains(&mut h, [d], &lanes, at..end),
        }
        at = end;
    }
    h
}

/// Advances the chains of lanes `ids` over their bytes `range`.
fn chains<const N: usize>(
    h: &mut [u64; FNV_LANES],
    ids: [usize; N],
    lanes: &[&[u8]; FNV_LANES],
    range: std::ops::Range<usize>,
) {
    let mut acc = ids.map(|l| h[l]);
    interleaved(&mut acc, ids.map(|l| &lanes[l][range.clone()]));
    for (k, &l) in ids.iter().enumerate() {
        h[l] = acc[k];
    }
}

/// FNV-1a over `N` equally long inputs, one xor-multiply of each chain
/// per byte position.
fn interleaved<const N: usize>(acc: &mut [u64; N], bytes: [&[u8]; N]) {
    let n = bytes[0].len();
    // Re-slicing to one length lets the compiler drop the per-byte
    // bounds checks.
    let bytes = bytes.map(|b| &b[..n]);
    for i in 0..n {
        for (h, lane) in acc.iter_mut().zip(&bytes) {
            *h = (*h ^ u64::from(lane[i])).wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assert_eq, Config, Verdict};
    use hdidx_rand::Rng;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining hashes the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn lanes_match_the_reference_vectors_in_every_position() {
        let vectors: [(&[u8], u64); 3] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ];
        for rot in 0..FNV_LANES {
            let mut lanes: [&[u8]; FNV_LANES] = [b"fo"; FNV_LANES];
            let mut want = [fnv1a(FNV_OFFSET, b"fo"); FNV_LANES];
            for (i, &(bytes, sum)) in vectors.iter().enumerate() {
                lanes[(rot + i) % FNV_LANES] = bytes;
                want[(rot + i) % FNV_LANES] = sum;
            }
            assert_eq!(fnv1a_lanes([FNV_OFFSET; FNV_LANES], lanes), want);
        }
    }

    #[test]
    fn lanes_equal_the_serial_hash_for_any_lengths() {
        check(
            "lanes_equal_the_serial_hash_for_any_lengths",
            &Config::with_cases(256),
            |rng| {
                // Short lengths make empty and equal lanes common.
                let cap: usize = if rng.gen_bool(0.5) { 4 } else { 300 };
                let lens: Vec<usize> = (0..FNV_LANES).map(|_| rng.gen_range(0..=cap)).collect();
                (rng.next_u64(), lens)
            },
            |(seed, lens)| {
                let lens: Vec<usize> = lens.iter().copied().chain([0; FNV_LANES]).collect();
                let mut rng = hdidx_rand::seeded(*seed);
                let bytes: Vec<Vec<u8>> = lens[..FNV_LANES]
                    .iter()
                    .map(|&n| (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect())
                    .collect();
                let seeds: [u64; FNV_LANES] = std::array::from_fn(|_| rng.next_u64());
                let lanes: [&[u8]; FNV_LANES] = std::array::from_fn(|l| &bytes[l][..]);
                let want: [u64; FNV_LANES] = std::array::from_fn(|l| fnv1a(seeds[l], lanes[l]));
                prop_assert_eq!(fnv1a_lanes(seeds, lanes), want);
                Verdict::Pass
            },
        );
    }
}
