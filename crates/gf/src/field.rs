//! The field GF(2^8).

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables::{EXP, LOG};

/// An element of GF(2^8).
///
/// Addition and subtraction are both XOR; multiplication and division go
/// through log/exp tables. All operations are total except division by
/// [`Gf256::ZERO`], which panics.
///
/// # Examples
///
/// ```
/// use chameleon_gf::Gf256;
///
/// let a = Gf256::new(7);
/// let b = Gf256::new(19);
/// assert_eq!(a + b, b + a);
/// assert_eq!(a + a, Gf256::ZERO); // characteristic 2
/// assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator `g = 2` of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Wraps a raw byte as a field element.
    ///
    /// ```
    /// # use chameleon_gf::Gf256;
    /// assert_eq!(Gf256::new(0), Gf256::ZERO);
    /// ```
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte representation.
    ///
    /// ```
    /// # use chameleon_gf::Gf256;
    /// assert_eq!(Gf256::new(42).value(), 42);
    /// ```
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the multiplicative inverse, or `None` for zero.
    ///
    /// ```
    /// # use chameleon_gf::Gf256;
    /// assert_eq!(Gf256::ZERO.inv(), None);
    /// let a = Gf256::new(0xB7);
    /// assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
    /// ```
    #[inline]
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(Gf256(EXP[255 - LOG[self.0 as usize] as usize]))
        }
    }

    /// Raises this element to an integer power (with `x^0 == 1`, including
    /// `0^0 == 1` by convention).
    ///
    /// ```
    /// # use chameleon_gf::Gf256;
    /// let g = Gf256::GENERATOR;
    /// assert_eq!(g.pow(255), Gf256::ONE);
    /// assert_eq!(g.pow(3), g * g * g);
    /// ```
    pub fn pow(self, exp: u32) -> Self {
        if exp == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let l = LOG[self.0 as usize] as u64 * exp as u64 % 255;
        Gf256(EXP[l as usize])
    }

    /// Returns `g^i` for the group generator `g = 2`.
    ///
    /// ```
    /// # use chameleon_gf::Gf256;
    /// assert_eq!(Gf256::exp(0), Gf256::ONE);
    /// assert_eq!(Gf256::exp(1), Gf256::GENERATOR);
    /// ```
    #[inline]
    pub fn exp(i: u32) -> Self {
        Gf256(EXP[(i % 255) as usize])
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // GF(2^8): + is XOR, / is mul-by-inverse
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl)] // GF(2^8): += is XOR
impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // GF(2^8): + is XOR, / is mul-by-inverse
impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // In characteristic 2, subtraction equals addition.
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl)] // GF(2^8): += is XOR
impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(crate::tables::mul(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // GF(2^8): + is XOR, / is mul-by-inverse
impl Div for Gf256 {
    type Output = Gf256;

    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        let inv = rhs.inv().expect("division by zero in GF(2^8)");
        self * inv
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(Gf256::new(0b1010) + Gf256::new(0b0110), Gf256::new(0b1100));
    }

    #[test]
    fn multiplication_small_cases() {
        assert_eq!(Gf256::new(2) * Gf256::new(2), Gf256::new(4));
        assert_eq!(Gf256::new(0x80) * Gf256::new(2), Gf256::new(0x1D));
        assert_eq!(Gf256::ZERO * Gf256::new(77), Gf256::ZERO);
        assert_eq!(Gf256::ONE * Gf256::new(77), Gf256::new(77));
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let a = Gf256::new(a);
            assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x53, 0xFF] {
            let a = Gf256::new(a);
            let mut acc = Gf256::ONE;
            for e in 0..20u32 {
                assert_eq!(a.pow(e), acc, "a={a} e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf256::new(3), Gf256::new(5), Gf256::new(3)];
        assert_eq!(xs.iter().copied().sum::<Gf256>(), Gf256::new(5));
        assert_eq!(
            xs.iter().copied().product::<Gf256>(),
            Gf256::new(3) * Gf256::new(5) * Gf256::new(3)
        );
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Gf256::new(0xAB)), "0xab");
        assert_eq!(format!("{:?}", Gf256::new(0xAB)), "Gf256(0xab)");
        assert_eq!(format!("{:x}", Gf256::new(0xAB)), "ab");
        assert_eq!(format!("{:b}", Gf256::new(0b101)), "101");
    }

    #[test]
    fn conversions() {
        let a: Gf256 = 7u8.into();
        let b: u8 = a.into();
        assert_eq!(b, 7);
    }
}
