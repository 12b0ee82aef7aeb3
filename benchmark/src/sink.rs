//! The result sink every op delivers into: a count and an order-independent
//! checksum, never a `Vec`, so a full-scale join costs the benchmark no
//! memory and parallel or reordered delivery still verifies.

/// Count plus checksum of a result set. Two sets compare equal iff they hold
/// the same ordered `(r, s)` pairs with the same multiplicities, up to hash
/// collisions of a 64-bit sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSum {
    pub count: u64,
    pub sum: u64,
}

impl PairSum {
    #[inline]
    pub fn push(&mut self, r: u64, s: u64) {
        self.count += 1;
        // Wrapping addition commutes, so arrival order is irrelevant; the
        // mix keeps (r, s) distinct from (s, r) and from any other pair with
        // the same id sum. A duplicate adds its hash twice and a dropped pair
        // not at all, so both move `sum` as well as `count`.
        self.sum = self.sum.wrapping_add(mix(r, s));
    }
}

#[inline]
fn mix(r: u64, s: u64) -> u64 {
    let mut x = r
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(s.rotate_left(32))
        ^ 0xD1B5_4A32_D192_ED03;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(pairs: &[(u64, u64)]) -> PairSum {
        let mut s = PairSum::default();
        for &(a, b) in pairs {
            s.push(a, b);
        }
        s
    }

    fn sample() -> Vec<(u64, u64)> {
        (0..500u64).map(|i| (i * 7 % 101, i * 13 % 89)).collect()
    }

    #[test]
    fn permutation_invariant() {
        let pairs = sample();
        let mut shuffled = pairs.clone();
        shuffled.reverse();
        shuffled.rotate_left(123);
        assert_eq!(sum_of(&pairs), sum_of(&shuffled));
    }

    #[test]
    fn dropped_pair_is_detected() {
        let pairs = sample();
        let full = sum_of(&pairs);
        for skip in [0, 17, pairs.len() - 1] {
            let mut fewer = pairs.clone();
            fewer.remove(skip);
            let got = sum_of(&fewer);
            assert_ne!(got.count, full.count);
            assert_ne!(got.sum, full.sum);
        }
    }

    #[test]
    fn duplicated_pair_is_detected_even_at_equal_count() {
        let pairs = sample();
        let full = sum_of(&pairs);
        // One pair delivered twice and another dropped: the count agrees,
        // only the checksum can tell.
        let mut swapped = pairs.clone();
        swapped[3] = swapped[4];
        let got = sum_of(&swapped);
        assert_eq!(got.count, full.count);
        assert_ne!(got.sum, full.sum);
    }

    #[test]
    fn sides_are_not_interchangeable() {
        assert_ne!(sum_of(&[(1, 2)]), sum_of(&[(2, 1)]));
        assert_ne!(sum_of(&[(1, 2), (3, 4)]), sum_of(&[(1, 4), (3, 2)]));
    }
}
