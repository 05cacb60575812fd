//! The pairing base field `F_p` (context-based, up to 512-bit `p`).
//!
//! Unlike [`crate::fr::Fr`], the base-field prime varies between parameter
//! sets (the paper's is 512 bits; tests use a smaller `p` from the same
//! type-A family), so `F_p` arithmetic goes through an explicit [`FpCtx`].
//! Elements are plain `Copy` data in Montgomery form; all operations are
//! methods on the context, PBC-style.

use crate::mont::{MontCtx, MontKernel};
use crate::uint::Uint;
use crate::{UintP, FP_LIMBS};
use core::fmt;
use rand::Rng;

/// An element of `F_p`, stored in Montgomery form.
///
/// An `Fp` is only meaningful relative to the [`FpCtx`] that produced it;
/// mixing elements across contexts is a logic error (caught by debug
/// assertions in the higher layers where practical).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp(pub(crate) UintP);

/// Arithmetic context for `F_p` with `p ≡ 3 (mod 4)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FpCtx {
    mont: MontCtx<FP_LIMBS>,
    /// `(p + 1) / 4`, the square-root exponent for `p ≡ 3 mod 4`.
    sqrt_exp: UintP,
}

impl FpCtx {
    /// Builds a context for prime `p ≡ 3 (mod 4)`.
    ///
    /// # Panics
    ///
    /// Panics if `p ≢ 3 (mod 4)` (primality itself is the caller's
    /// responsibility; parameter generation guarantees it).
    pub fn new(p: UintP) -> Self {
        assert_eq!(p.mod_u64(4), 3, "FpCtx requires p ≡ 3 mod 4");
        let (p1, carry) = p.add_carry(&Uint::one());
        assert!(!carry, "p + 1 must not overflow the limb width");
        let sqrt_exp = p1.shr1().shr1();
        FpCtx {
            mont: MontCtx::new(p),
            sqrt_exp,
        }
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &UintP {
        &self.mont.modulus
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp {
        Fp(Uint::ZERO)
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp {
        Fp(self.mont.r)
    }

    /// Lifts a `u64`.
    pub fn from_u64(&self, v: u64) -> Fp {
        Fp(self.mont.to_mont(&Uint::from_u64(v)))
    }

    /// Builds an element from an integer, reducing modulo `p`.
    pub fn from_uint_reduced(&self, v: &UintP) -> Fp {
        let v = if *v >= self.mont.modulus {
            let (_, r) = v.div_rem(&self.mont.modulus);
            r
        } else {
            *v
        };
        Fp(self.mont.to_mont(&v))
    }

    /// Canonical representative in `[0, p)`.
    pub fn to_uint(&self, a: Fp) -> UintP {
        self.mont.from_mont(&a.0)
    }

    /// Addition.
    #[inline]
    pub fn add(&self, a: Fp, b: Fp) -> Fp {
        Fp(self.mont.add(&a.0, &b.0))
    }

    /// Subtraction.
    #[inline]
    pub fn sub(&self, a: Fp, b: Fp) -> Fp {
        Fp(self.mont.sub(&a.0, &b.0))
    }

    /// Negation.
    #[inline]
    pub fn neg(&self, a: Fp) -> Fp {
        Fp(self.mont.neg(&a.0))
    }

    /// Doubling.
    #[inline]
    pub fn dbl(&self, a: Fp) -> Fp {
        Fp(self.mont.dbl(&a.0))
    }

    /// Multiplication.
    #[inline]
    pub fn mul(&self, a: Fp, b: Fp) -> Fp {
        Fp(self.mont.mul(&a.0, &b.0))
    }

    /// Squaring.
    #[inline]
    pub fn sqr(&self, a: Fp) -> Fp {
        Fp(self.mont.sqr(&a.0))
    }

    /// Inversion; `None` for zero.
    pub fn inv(&self, a: Fp) -> Option<Fp> {
        self.mont.inv(&a.0).map(Fp)
    }

    /// Exponentiation by a plain integer exponent.
    pub fn pow(&self, a: Fp, exp: &UintP) -> Fp {
        Fp(self.mont.pow(&a.0, exp))
    }

    /// Square root for `p ≡ 3 (mod 4)`: returns a root `r` with `r² = a`,
    /// or `None` if `a` is a non-residue.
    pub fn sqrt(&self, a: Fp) -> Option<Fp> {
        if a.0.is_zero() {
            return Some(a);
        }
        let r = self.pow(a, &self.sqrt_exp);
        if self.sqr(r) == a {
            Some(r)
        } else {
            None
        }
    }

    /// True iff `a` is the additive identity.
    pub fn is_zero(&self, a: Fp) -> bool {
        a.0.is_zero()
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp {
        Fp(self
            .mont
            .to_mont(&crate::prime::random_below(&self.mont.modulus, rng)))
    }

    /// Canonical little-endian byte encoding (`8 * FP_LIMBS` bytes).
    pub fn to_bytes(&self, a: Fp) -> Vec<u8> {
        self.to_uint(a).to_le_bytes()
    }

    /// Decodes a canonical encoding; `None` if malformed or non-reduced.
    pub fn from_bytes(&self, bytes: &[u8]) -> Option<Fp> {
        let u = UintP::from_le_bytes(bytes)?;
        if u >= self.mont.modulus {
            return None;
        }
        Some(Fp(self.mont.to_mont(&u)))
    }

    /// "Sign" of an element: parity of the canonical representative.
    /// Used for point compression.
    pub fn parity(&self, a: Fp) -> bool {
        self.to_uint(a).is_odd()
    }

    /// Limbs the arithmetic runs at: 3 for a 129–192-bit `p`, else
    /// [`FP_LIMBS`].
    pub fn width(&self) -> usize {
        self.mont.width()
    }

    /// The arithmetic on bare `W`-limb Montgomery residues when `W` is
    /// the [width](FpCtx::width) ([`MontCtx::kernel`]); `None` otherwise.
    /// [`FpCtx::limbs`] and [`FpCtx::from_limbs`] move elements in and out.
    pub fn kernel<const W: usize>(&self) -> Option<MontKernel<W>> {
        self.mont.kernel()
    }

    /// `a`'s Montgomery residue at the [width](FpCtx::width): its low
    /// limbs, all of them that can be nonzero.
    pub fn limbs<'a>(&self, a: &'a Fp) -> &'a [u64] {
        &a.0 .0[..self.width()]
    }

    /// The element whose Montgomery residue is `limbs` (least significant
    /// first): the inverse of [`FpCtx::limbs`]. `None` if `limbs` is
    /// wider than [`FpCtx::width`] or the residue is not below `p`.
    pub fn from_limbs(&self, limbs: &[u64]) -> Option<Fp> {
        if limbs.len() > self.width() {
            return None;
        }
        let mut u = UintP::ZERO;
        u.0[..limbs.len()].copy_from_slice(limbs);
        (u < self.mont.modulus).then_some(Fp(u))
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Montgomery form: print raw limbs tagged as such.
        write!(f, "Fp(mont:0x{:x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::TypeAParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_ctx() -> FpCtx {
        let mut rng = StdRng::seed_from_u64(42);
        FpCtx::new(TypeAParams::generate(192, &mut rng).p)
    }

    #[test]
    fn identities() {
        let ctx = test_ctx();
        let mut rng = StdRng::seed_from_u64(43);
        let a = ctx.random(&mut rng);
        assert_eq!(ctx.add(a, ctx.zero()), a);
        assert_eq!(ctx.mul(a, ctx.one()), a);
        assert_eq!(ctx.sub(a, a), ctx.zero());
        assert_eq!(ctx.add(a, ctx.neg(a)), ctx.zero());
        assert_eq!(ctx.dbl(a), ctx.add(a, a));
    }

    #[test]
    fn inversion() {
        let ctx = test_ctx();
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..10 {
            let a = ctx.random(&mut rng);
            if ctx.is_zero(a) {
                continue;
            }
            assert_eq!(ctx.mul(a, ctx.inv(a).unwrap()), ctx.one());
        }
        assert!(ctx.inv(ctx.zero()).is_none());
    }

    #[test]
    fn sqrt_of_square() {
        let ctx = test_ctx();
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..10 {
            let a = ctx.random(&mut rng);
            let sq = ctx.sqr(a);
            let r = ctx.sqrt(sq).expect("square must have a root");
            assert_eq!(ctx.sqr(r), sq);
        }
    }

    #[test]
    fn minus_one_is_nonresidue() {
        // p ≡ 3 mod 4 ⇒ -1 is a quadratic non-residue, which is what makes
        // F_p[i] a field.
        let ctx = test_ctx();
        let m1 = ctx.neg(ctx.one());
        assert!(ctx.sqrt(m1).is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let ctx = test_ctx();
        let mut rng = StdRng::seed_from_u64(46);
        let a = ctx.random(&mut rng);
        let b = ctx.from_bytes(&ctx.to_bytes(a)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn limbs_round_trip_at_the_width() {
        let ctx = test_ctx();
        let mut rng = StdRng::seed_from_u64(47);
        assert_eq!(ctx.width(), 3);
        for a in [
            ctx.zero(),
            ctx.one(),
            ctx.neg(ctx.one()),
            ctx.random(&mut rng),
        ] {
            assert_eq!(ctx.limbs(&a).len(), 3);
            assert_eq!(ctx.from_limbs(ctx.limbs(&a)), Some(a));
        }
        // the kernel multiplies the limbs as the context multiplies elements
        let (a, b) = (ctx.random(&mut rng), ctx.random(&mut rng));
        let k = ctx.kernel::<3>().expect("fast-192 runs at 3 limbs");
        assert!(ctx.kernel::<{ crate::FP_LIMBS }>().is_none());
        let limbs = |x: &Fp| -> [u64; 3] { ctx.limbs(x).try_into().unwrap() };
        assert_eq!(
            ctx.from_limbs(&k.mul(&limbs(&a), &limbs(&b))),
            Some(ctx.mul(a, b))
        );
        // p itself and anything wider than the width are not residues
        assert_eq!(ctx.from_limbs(&ctx.modulus().0[..3]), None);
        assert_eq!(ctx.from_limbs(&[1, 0, 0, 0]), None);
    }

    #[test]
    fn from_uint_reduces() {
        let ctx = test_ctx();
        let big = UintP::from_limbs([u64::MAX; crate::FP_LIMBS]);
        let a = ctx.from_uint_reduced(&big);
        // must round-trip through canonical form
        let u = ctx.to_uint(a);
        assert!(u < *ctx.modulus());
    }
}
