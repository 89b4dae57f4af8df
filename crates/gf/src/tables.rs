//! Compile-time log/exp tables for GF(2^8) under the 0x11D polynomial.

/// The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1, used as the reduction
/// modulus. Its low byte (0x1D) is XORed in whenever a shift overflows.
pub(crate) const POLY: u16 = 0x11D;

/// `EXP[i] = g^i` where `g = 2` is a generator of the multiplicative group.
/// The table is doubled (512 entries) so that `EXP[log a + log b]` never
/// needs an explicit modulo by 255.
pub(crate) const EXP: [u8; 512] = build_exp();

/// `LOG[a] = i` such that `g^i = a`, for `a != 0`. `LOG[0]` is a sentinel
/// (unused; multiplication checks for zero operands first).
pub(crate) const LOG: [u8; 256] = build_log();

/// `a * b` in the field, through the log/exp tables; usable in `const`
/// context, so the product tables of `kernels` are built at compile time.
pub(crate) const fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

const fn build_exp() -> [u8; 512] {
    let mut table = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Index 510/511 are never reached (max log sum is 254 + 254 = 508) but
    // keep the table total; entry 510 equals g^0.
    table[510] = table[0];
    table[511] = table[1];
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_is_periodic_with_255() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u16 {
            let l = LOG[a as usize] as usize;
            assert_eq!(EXP[l], a as u8);
        }
    }

    #[test]
    fn generator_covers_group() {
        let mut seen = [false; 256];
        for i in 0..255 {
            seen[EXP[i] as usize] = true;
        }
        // Every nonzero element appears exactly once in one period.
        assert!(!seen[0]);
        assert!(seen[1..].iter().all(|&s| s));
    }
}
