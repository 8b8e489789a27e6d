//! Inputs made from the seed. The program only ever sees what this
//! file (and the seed handed to its own generators) produces.

/// SplitMix64 finalizer: decorrelates (seed, step, rank) triples.
fn mix(seed: u64, step: usize, rank: usize) -> u32 {
    let mut z = seed
        .wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((rank as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Element `i` of a buffer whose stream starts at `base`: an integer in
/// `0..16`.
fn small(base: u32, i: usize) -> u32 {
    (i as u32).wrapping_mul(0x9E37_79B1).wrapping_add(base) >> 28
}

/// Fill `buf` with rank `rank`'s step-`step` gradient stand-in: small
/// integers, so the two-rank average is exact in f32 and every element
/// of the result can be checked for equality.
pub fn fill_ints(seed: u64, step: usize, rank: usize, buf: &mut [f32]) {
    let base = mix(seed, step, rank);
    for (i, x) in buf.iter_mut().enumerate() {
        *x = small(base, i) as f32;
    }
}

/// True when `buf` holds exactly the average of the two ranks' fills
/// for `step`.
pub fn is_average(seed: u64, step: usize, buf: &[f32]) -> bool {
    let (b0, b1) = (mix(seed, step, 0), mix(seed, step, 1));
    buf.iter().enumerate().all(|(i, &x)| x == (small(b0, i) + small(b1, i)) as f32 * 0.5)
}

/// Pseudo-random floats in [-1, 1) for the codec and reduction loops,
/// where values only need a realistic spread.
pub fn fill_floats(seed: u64, buf: &mut [f32]) {
    let base = mix(seed, 0, 0);
    for (i, x) in buf.iter_mut().enumerate() {
        let bits = (i as u32).wrapping_mul(0x9E37_79B1).wrapping_add(base);
        *x = (bits >> 8) as f32 / (1u32 << 23) as f32 - 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_average_checks() {
        let (mut a, mut b, mut again) = (vec![0.0f32; 257], vec![0.0f32; 257], vec![0.0f32; 257]);
        fill_ints(7, 3, 0, &mut a);
        fill_ints(7, 3, 1, &mut b);
        fill_ints(7, 3, 0, &mut again);
        assert_eq!(a, again);
        assert_ne!(a, b);
        assert!(a.iter().all(|&x| (0.0..16.0).contains(&x) && x.fract() == 0.0));
        let avg: Vec<f32> = a.iter().zip(&b).map(|(x, y)| (x + y) * 0.5).collect();
        assert!(is_average(7, 3, &avg));
        assert!(!is_average(7, 4, &avg));
        assert!(!is_average(8, 3, &avg));
    }

    #[test]
    fn floats_stay_in_range() {
        let mut xs = vec![0.0f32; 1000];
        fill_floats(1, &mut xs);
        assert!(xs.iter().all(|x| (-1.0..1.0).contains(x)));
        assert!(xs.iter().any(|&x| x < -0.5) && xs.iter().any(|&x| x > 0.5));
    }
}
