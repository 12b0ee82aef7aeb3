//! The workspace's 64-bit hashes, by what outlives the process.
//!
//! * [`fnv1a`] and [`fingerprint`] are **format-bearing**: manifest,
//!   journal and superblock records persist [`fnv1a`], and a manifest
//!   stores the [`fingerprint`] a resume compares with
//!   `SpatialJoin::fingerprint`. Golden values pin both; a new fingerprint
//!   moves the manifest format version.
//! * [`checksum64`] guards bytes that only ever live in this process — the
//!   per-page sums of the simulated page format (recomputed on snapshot
//!   restore, never exported). Nothing stores it, so it is free to be as
//!   fast as the host allows.

use geom::Kpe;

/// FNV-1a, 64-bit, byte at a time, of one contiguous buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

const LANES: usize = 4;
const WORD: usize = 8;

// The xxHash64 primes: odd, so every multiply below is a bijection.
const K: [u64; LANES + 1] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];

/// One xor-multiply-rotate step. For a fixed `h` it is a bijection of `w`
/// and for a fixed `w` a bijection of `h`, which is what makes every
/// single-word change visible in [`checksum64`]; the rotate keeps two
/// changes to the same bit of one lane from cancelling.
#[inline(always)]
fn mix(h: u64, w: u64, k: u64) -> u64 {
    (h ^ w).wrapping_mul(k).rotate_left(31)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    // Invariant: every caller passes a `chunks_exact(WORD)` chunk.
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// Word-parallel 64-bit checksum of in-memory bytes.
///
/// Four independent lanes each absorb every fourth little-endian 8-byte
/// word, so the multiplies of one 32-byte block overlap instead of forming
/// the 3–4-cycle-per-byte dependent chain of [`fnv1a`]; the length, the
/// lanes, the trailing words and the byte tail are then folded into one
/// state and avalanched. Every step is a bijection of the state it updates,
/// so two inputs of equal length that differ within a single word or tail
/// byte never collide. Words are assembled from bytes, so the value does not
/// depend on the slice's alignment.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [K[0], K[1], K[2], K[3]];
    let mut blocks = bytes.chunks_exact(LANES * WORD);
    for block in &mut blocks {
        for ((lane, w), k) in lanes.iter_mut().zip(block.chunks_exact(WORD)).zip(K) {
            *lane = mix(*lane, word(w), k);
        }
    }
    let mut h = bytes.len() as u64;
    for (lane, k) in lanes.into_iter().zip(K) {
        h = mix(h, lane, k);
    }
    let mut words = blocks.remainder().chunks_exact(WORD);
    for w in &mut words {
        h = mix(h, word(w), K[0]);
    }
    for &b in words.remainder() {
        h = mix(h, u64::from(b), K[1]);
    }
    avalanche(h)
}

/// Run fingerprint: one xor-multiply-rotate lane of [`checksum64`]'s kind
/// per record field (`id`, then `xl`, `yl`, `xh`, `yh` as bits) over each
/// relation, folded with its length into [`fnv1a`] of `config`, then
/// avalanched. Every step is a bijection of the word it absorbs, so one
/// changed bit of any record changes the value; the chained lanes make
/// order count, the per-relation folds which relation a record is in.
pub fn fingerprint(config: &str, relations: [&[Kpe]; 2]) -> u64 {
    let mut h = fnv1a(config.as_bytes());
    for rel in relations {
        let mut lanes = K;
        for k in rel {
            let r = &k.rect;
            let words = [k.id.0, r.xl.to_bits(), r.yl.to_bits(), r.xh.to_bits(), r.yh.to_bits()];
            for ((lane, w), k) in lanes.iter_mut().zip(words).zip(K) {
                *lane = mix(*lane, w, k);
            }
        }
        h = mix(h, rel.len() as u64, K[0]);
        for (lane, k) in lanes.into_iter().zip(K) {
            h = mix(h, lane, k);
        }
    }
    avalanche(h)
}

/// The final scramble: spreads every bit of the state over the output.
fn avalanche(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(K[2]);
    h ^ (h >> 29)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn published_vectors_pin_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Every length 0..=8192 is covered exhaustively for zero-extension
    /// (cheap); the flip and byte-change properties are sampled below.
    #[test]
    fn checksum64_changes_under_zero_extension_at_every_length() {
        let zeros = vec![0u8; 8193];
        let mut data: Vec<u8> = (0..8193u32).map(|i| (i * 31 + 7) as u8).collect();
        data[8192] = 0;
        for len in 0..8192 {
            assert_ne!(checksum64(&zeros[..len]), checksum64(&zeros[..len + 1]), "zeros, len {len}");
            let mut ext = data[..len].to_vec();
            ext.push(0);
            assert_ne!(checksum64(&data[..len]), checksum64(&ext), "data, len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Flipping any single bit of the input changes the sum.
        #[test]
        fn prop_checksum64_sees_every_single_bit_flip(
            len in 1usize..8193,
            seed in any::<u64>(),
            probe in any::<u64>(),
        ) {
            let data = bytes(len, seed);
            let sum = checksum64(&data);
            // Every bit of one sampled byte, plus every bit of the first and
            // the last byte (block edges, byte tail).
            for pos in [0, len - 1, (probe % len as u64) as usize] {
                for bit in 0..8 {
                    let mut bad = data.clone();
                    bad[pos] ^= 1 << bit;
                    prop_assert!(checksum64(&bad) != sum, "len {} pos {} bit {}", len, pos, bit);
                }
            }
        }

        /// Replacing any single byte by any other value changes the sum.
        #[test]
        fn prop_checksum64_sees_every_single_byte_change(
            len in 1usize..8193,
            seed in any::<u64>(),
            probe in any::<u64>(),
        ) {
            let data = bytes(len, seed);
            let sum = checksum64(&data);
            let pos = (probe % len as u64) as usize;
            for v in 0..=255u8 {
                if v != data[pos] {
                    let mut bad = data.clone();
                    bad[pos] = v;
                    prop_assert!(checksum64(&bad) != sum, "len {} pos {} value {}", len, pos, v);
                }
            }
        }

        /// The same bytes at any offset within an allocation sum alike.
        #[test]
        fn prop_checksum64_is_independent_of_alignment(
            len in 0usize..8193,
            seed in any::<u64>(),
        ) {
            let data = bytes(len, seed);
            let sum = checksum64(&data);
            for shift in 1..WORD {
                let mut shifted = vec![0xA5u8; shift];
                shifted.extend_from_slice(&data);
                prop_assert_eq!(checksum64(&shifted[shift..]), sum, "shift {}", shift);
            }
        }
    }

    /// `len` bytes of a splitmix64 stream.
    fn bytes(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + WORD);
        while out.len() < len {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }
}
