//! Montgomery-form modular arithmetic over a runtime odd modulus.
//!
//! [`MontCtx`] precomputes everything needed for CIOS Montgomery
//! multiplication modulo an odd `m` stored in `N` limbs: the negated
//! inverse of `m` modulo `2^64`, and the Montgomery radix constants
//! `R mod m` and `R^2 mod m`.
//!
//! The arithmetic runs at the *width* `w` of the modulus, not at the
//! storage width `N`: `w = 3` for a modulus of 129–192 bits (fast-192's
//! `p`, the 160-bit group order `q`), and `w = N` for any other size
//! (standard-512's `p`). The radix is `R = 2^{64w}`. Every residue keeps
//! the limbs from `w` up zero, so two equal residues are equal `Uint<N>`s.
//!
//! Values handled by a context are *Montgomery residues* (`a·R mod m`); the
//! caller is responsible for tracking which representation a [`Uint`] is in
//! (the field wrappers in [`crate::fp`] / [`crate::fr`] do exactly that).

use crate::uint::{adc, mac, sbb, Uint};

/// Limb count of the narrow kernels: moduli of 129–192 bits.
pub const NARROW: usize = 3;

/// Precomputed context for Montgomery arithmetic modulo an odd `m`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontCtx<const N: usize> {
    /// The modulus `m` (odd, > 1).
    pub modulus: Uint<N>,
    /// `-m^{-1} mod 2^64`.
    pub neg_inv: u64,
    /// `R mod m` (`R = 2^{64w}` at width `w`) — the Montgomery form of 1.
    pub r: Uint<N>,
    /// `R^2 mod m` — used to convert into Montgomery form.
    pub r2: Uint<N>,
    /// `m - 2`, the Fermat inversion exponent (valid when `m` is prime).
    pub m_minus_2: Uint<N>,
    /// Limbs the arithmetic runs at: [`NARROW`] or `N`.
    width: usize,
}

impl<const N: usize> MontCtx<N> {
    /// Builds a context for the given odd modulus, at the modulus's width.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or ≤ 1.
    pub fn new(modulus: Uint<N>) -> Self {
        let width = if N > NARROW && modulus.bits().div_ceil(64) == NARROW {
            NARROW
        } else {
            N
        };
        Self::at_width(modulus, width)
    }

    /// Builds a context that runs at `width` limbs (`NARROW` or `N`), so
    /// `R = 2^{64·width}`.
    fn at_width(modulus: Uint<N>, width: usize) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        assert!(modulus > Uint::one(), "modulus must exceed 1");
        debug_assert!(width == N || (width == NARROW && modulus.bits() <= 64 * NARROW));

        // Newton iteration for m^{-1} mod 2^64 (5 steps double the precision).
        let m0 = modulus.0[0];
        let mut inv = m0; // correct mod 2^3 already (odd)
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let neg_inv = inv.wrapping_neg();

        // R mod m by doubling 1, 64·width times, reducing each step.
        let mut r = Uint::one();
        // ensure r < m to start (m > 1 so fine)
        for _ in 0..64 * width {
            let (d, carry) = r.shl1();
            r = d;
            if carry || r >= modulus {
                let (s, _) = r.sub_borrow(&modulus);
                r = s;
            }
        }
        // R^2 mod m by doubling another 64·width times.
        let mut r2 = r;
        for _ in 0..64 * width {
            let (d, carry) = r2.shl1();
            r2 = d;
            if carry || r2 >= modulus {
                let (s, _) = r2.sub_borrow(&modulus);
                r2 = s;
            }
        }

        let (m_minus_2, _) = modulus.sub_borrow(&Uint::from_u64(2));

        MontCtx {
            modulus,
            neg_inv,
            r,
            r2,
            m_minus_2,
            width,
        }
    }

    /// Montgomery multiplication: returns `a·b·R^{-1} mod m`.
    ///
    /// Inputs must be `< m`; the output is `< m`. Kept out of line: with
    /// both kernels inlined into every caller, a standard-512 prepared
    /// evaluation ran ~8% slower than one call per multiplication.
    #[inline(never)]
    pub fn mul(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (a, b, m) = (&a.0, &b.0, &self.modulus.0);
        Uint(if self.width == NARROW {
            cios::<NARROW, N>(a, b, m, self.neg_inv)
        } else {
            cios::<N, N>(a, b, m, self.neg_inv)
        })
    }

    /// Montgomery squaring (delegates to [`MontCtx::mul`]).
    #[inline]
    pub fn sqr(&self, a: &Uint<N>) -> Uint<N> {
        self.mul(a, a)
    }

    /// Converts a plain residue (`< m`) into Montgomery form.
    pub fn to_mont(&self, a: &Uint<N>) -> Uint<N> {
        debug_assert!(*a < self.modulus);
        self.mul(a, &self.r2)
    }

    /// Converts a Montgomery-form value back into a plain residue.
    pub fn from_mont(&self, a: &Uint<N>) -> Uint<N> {
        self.mul(a, &Uint::one())
    }

    /// Modular addition of two residues (either form, consistently).
    ///
    /// `add` and `sub` are inlined at every call: left to the compiler,
    /// a 13-pair prepared evaluation ran ~1% (standard-512) to ~2%
    /// (fast-192) slower.
    #[inline(always)]
    pub fn add(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (a, b, m) = (&a.0, &b.0, &self.modulus.0);
        Uint(if self.width == NARROW {
            add_mod::<NARROW, N>(a, b, m)
        } else {
            add_mod::<N, N>(a, b, m)
        })
    }

    /// Modular subtraction of two residues.
    #[inline(always)]
    pub fn sub(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (a, b, m) = (&a.0, &b.0, &self.modulus.0);
        Uint(if self.width == NARROW {
            sub_mod::<NARROW, N>(a, b, m)
        } else {
            sub_mod::<N, N>(a, b, m)
        })
    }

    /// Modular negation.
    #[inline]
    pub fn neg(&self, a: &Uint<N>) -> Uint<N> {
        if a.is_zero() {
            *a
        } else {
            self.sub(&self.modulus, a)
        }
    }

    /// Modular doubling.
    #[inline]
    pub fn dbl(&self, a: &Uint<N>) -> Uint<N> {
        self.add(a, a)
    }

    /// Fixed-window exponentiation of a Montgomery-form base by a plain
    /// integer exponent; returns a Montgomery-form result.
    pub fn pow(&self, base: &Uint<N>, exp: &Uint<N>) -> Uint<N> {
        self.pow_limbs(base, &exp.0)
    }

    /// As [`MontCtx::pow`] but with the exponent given as little-endian limbs
    /// of arbitrary length.
    pub fn pow_limbs(&self, base: &Uint<N>, exp: &[u64]) -> Uint<N> {
        // 4-bit fixed window.
        let mut table = [self.r; 16]; // table[0] = 1 in Montgomery form
        table[1] = *base;
        for i in 2..16 {
            table[i] = self.mul(&table[i - 1], base);
        }
        let nbits = 64 * exp.len();
        let mut acc = self.r;
        let mut started = false;
        let mut i = nbits.div_ceil(4);
        while i > 0 {
            i -= 1;
            let bitpos = i * 4;
            let limb = bitpos / 64;
            let off = bitpos % 64;
            let w = if limb < exp.len() {
                ((exp[limb] >> off) & 0xf) as usize
            } else {
                0
            };
            if started {
                acc = self.sqr(&acc);
                acc = self.sqr(&acc);
                acc = self.sqr(&acc);
                acc = self.sqr(&acc);
            }
            if w != 0 {
                acc = self.mul(&acc, &table[w]);
                started = true;
            } else if started {
                // nothing to multiply
            }
        }
        acc
    }

    /// Fermat inversion of a Montgomery-form value (`m` must be prime).
    ///
    /// Returns `None` for zero.
    pub fn inv(&self, a: &Uint<N>) -> Option<Uint<N>> {
        if a.is_zero() {
            return None;
        }
        Some(self.pow(a, &self.m_minus_2))
    }

    /// Limbs the arithmetic runs at: 3 for a 129–192-bit modulus, else `N`.
    /// A residue's limbs from this width up are zero.
    pub fn width(&self) -> usize {
        self.width
    }

    /// This context's arithmetic on bare `W`-limb residues, when `W` is
    /// its [width](MontCtx::width); `None` otherwise. A residue is the
    /// low `W` limbs of its `Uint<N>` form, since the rest are zero.
    pub fn kernel<const W: usize>(&self) -> Option<MontKernel<W>> {
        if W != self.width {
            return None;
        }
        let mut modulus = [0u64; W];
        modulus.copy_from_slice(&self.modulus.0[..W]);
        Some(MontKernel {
            modulus,
            neg_inv: self.neg_inv,
        })
    }
}

/// A [`MontCtx`]'s multiplication, addition and subtraction on bare
/// `W`-limb Montgomery residues (`R = 2^{64W}`), for loops that keep their
/// values in locals at the modulus's width instead of in `Uint<N>`
/// storage. Built by [`MontCtx::kernel`]; the results equal the context's
/// own, limb for limb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MontKernel<const W: usize> {
    modulus: [u64; W],
    neg_inv: u64,
}

impl<const W: usize> MontKernel<W> {
    /// Montgomery multiplication `a·b·R^{-1} mod m` of residues `< m`.
    ///
    /// Inlined into the caller at 3 limbs; called out of line above, as
    /// [`MontCtx::mul`] is.
    #[inline(always)]
    pub fn mul(&self, a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        if W <= NARROW {
            cios::<W, W>(a, b, &self.modulus, self.neg_inv)
        } else {
            self.mul_out_of_line(a, b)
        }
    }

    #[inline(never)]
    fn mul_out_of_line(&self, a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        cios::<W, W>(a, b, &self.modulus, self.neg_inv)
    }

    /// Modular addition of residues `< m`.
    #[inline(always)]
    pub fn add(&self, a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        add_mod::<W, W>(a, b, &self.modulus)
    }

    /// Modular subtraction of residues `< m`.
    #[inline(always)]
    pub fn sub(&self, a: &[u64; W], b: &[u64; W]) -> [u64; W] {
        sub_mod::<W, W>(a, b, &self.modulus)
    }
}

/// CIOS Montgomery multiplication on the low `W` limbs:
/// `a·b·2^{-64W} mod m`.
///
/// Inputs must be `< m`; the output is `< m`. The limbs of `a`, `b` and
/// `m` from `W` up must be zero, and so are the output's.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // limb indexing is the idiom here
fn cios<const W: usize, const N: usize>(
    a: &[u64; N],
    b: &[u64; N],
    m: &[u64; N],
    neg_inv: u64,
) -> [u64; N] {
    let mut t = [0u64; N];
    let mut t_n = 0u64;

    for i in 0..W {
        // t += a[i] * b
        let mut carry = 0u64;
        for j in 0..W {
            let (lo, hi) = mac(t[j], a[i], b[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (s, c) = adc(t_n, carry, 0);
        t_n = s;
        let t_n1 = c;

        // u = t[0] * neg_inv; t += u * m; t >>= 64
        let u = t[0].wrapping_mul(neg_inv);
        let (_, mut carry) = mac(t[0], u, m[0], 0);
        for j in 1..W {
            let (lo, hi) = mac(t[j], u, m[j], carry);
            t[j - 1] = lo;
            carry = hi;
        }
        let (s, c) = adc(t_n, carry, 0);
        t[W - 1] = s;
        t_n = t_n1 + c; // t_n1 ∈ {0,1}, no overflow
    }

    if t_n != 0 || geq_limbs::<W, N>(&t, m) {
        t = sbb_limbs::<W, N>(&t, m).0;
    }
    t
}

/// `(a + b) mod m` for residues `a, b < m` on the low `W` limbs.
#[inline(always)]
fn add_mod<const W: usize, const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (s, carry) = adc_limbs::<W, N>(a, b);
    if carry || geq_limbs::<W, N>(&s, m) {
        sbb_limbs::<W, N>(&s, m).0
    } else {
        s
    }
}

/// `(a − b) mod m` for residues `a, b < m` on the low `W` limbs.
#[inline(always)]
fn sub_mod<const W: usize, const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (d, borrow) = sbb_limbs::<W, N>(a, b);
    if borrow {
        adc_limbs::<W, N>(&d, m).0
    } else {
        d
    }
}

/// `a + b` on the low `W` limbs, with the carry out.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // limb indexing is the idiom here
fn adc_limbs<const W: usize, const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], bool) {
    let mut out = [0u64; N];
    let mut c = 0u64;
    for i in 0..W {
        (out[i], c) = adc(a[i], b[i], c);
    }
    (out, c != 0)
}

/// `a − b` on the low `W` limbs, with the borrow out.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // limb indexing is the idiom here
fn sbb_limbs<const W: usize, const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], bool) {
    let mut out = [0u64; N];
    let mut bo = 0u64;
    for i in 0..W {
        (out[i], bo) = sbb(a[i], b[i], bo);
    }
    (out, bo != 0)
}

/// `a ≥ b` on the low `W` limbs.
#[inline(always)]
fn geq_limbs<const W: usize, const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..W).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_u128(m: u128) -> MontCtx<2> {
        MontCtx::new(Uint([m as u64, (m >> 64) as u64]))
    }

    fn to_u128(u: Uint<2>) -> u128 {
        u.0[0] as u128 | (u.0[1] as u128) << 64
    }

    #[test]
    fn mont_mul_matches_u128() {
        let m = 0xffff_ffff_ffff_fff1_u128; // odd
        let ctx = ctx_u128(m);
        let a = 0x1234_5678_9abc_def0_u128 % m;
        let b = 0x0fed_cba9_8765_4321_u128 % m;
        let am = ctx.to_mont(&Uint([a as u64, (a >> 64) as u64]));
        let bm = ctx.to_mont(&Uint([b as u64, (b >> 64) as u64]));
        let cm = ctx.mul(&am, &bm);
        let c = to_u128(ctx.from_mont(&cm));
        assert_eq!(c, (a * b) % m);
    }

    #[test]
    fn to_from_mont_roundtrip() {
        let ctx = ctx_u128(1_000_000_007);
        for v in [0u128, 1, 2, 999_999_999, 123_456_789] {
            let u = Uint([v as u64, 0]);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&u)), u);
        }
    }

    #[test]
    fn add_sub_neg() {
        let m = 97u128;
        let ctx = ctx_u128(m);
        let a = Uint::<2>::from_u64(50);
        let b = Uint::<2>::from_u64(60);
        assert_eq!(to_u128(ctx.add(&a, &b)), (50 + 60) % 97);
        assert_eq!(to_u128(ctx.sub(&a, &b)), (97 + 50 - 60));
        assert_eq!(to_u128(ctx.neg(&a)), 97 - 50);
        assert_eq!(to_u128(ctx.neg(&Uint::ZERO)), 0);
    }

    #[test]
    fn pow_matches_naive() {
        let m = 1_000_000_007u128;
        let ctx = ctx_u128(m);
        let base = 3u128;
        let bm = ctx.to_mont(&Uint([base as u64, 0]));
        let e = 65537u64;
        let pm = ctx.pow(&bm, &Uint::from_u64(e));
        let got = to_u128(ctx.from_mont(&pm));
        let mut want = 1u128;
        for _ in 0..e {
            want = want * base % m;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn fermat_inverse() {
        let ctx = ctx_u128(1_000_000_007);
        let a = ctx.to_mont(&Uint::from_u64(123456));
        let ai = ctx.inv(&a).unwrap();
        let prod = ctx.mul(&a, &ai);
        assert_eq!(prod, ctx.r); // 1 in Montgomery form
        assert!(ctx.inv(&Uint::ZERO).is_none());
    }

    #[test]
    fn r_is_one_in_mont_form() {
        let ctx = ctx_u128(1_000_000_007);
        assert_eq!(ctx.from_mont(&ctx.r), Uint::one());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontCtx::new(Uint::<2>::from_u64(100));
    }

    #[test]
    fn tiny_modulus_three() {
        let ctx = ctx_u128(3);
        let two = ctx.to_mont(&Uint::from_u64(2));
        // 2·2 = 4 ≡ 1 (mod 3)
        assert_eq!(ctx.from_mont(&ctx.mul(&two, &two)), Uint::one());
        // 2⁻¹ = 2 (mod 3)
        assert_eq!(ctx.from_mont(&ctx.inv(&two).unwrap()), Uint::from_u64(2));
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let ctx = ctx_u128(1_000_000_007);
        let a = ctx.to_mont(&Uint::from_u64(12345));
        assert_eq!(ctx.pow(&a, &Uint::ZERO), ctx.r);
    }

    #[test]
    fn max_width_modulus() {
        // a modulus using nearly every bit of the limb width
        let m = Uint::<2>([u64::MAX, u64::MAX >> 1]); // odd, 127-bit
        let ctx = MontCtx::new(m);
        let a = ctx.to_mont(&Uint::from_u64(987654321));
        let b = ctx.to_mont(&Uint::from_u64(123456789));
        let prod = ctx.from_mont(&ctx.mul(&a, &b));
        assert_eq!(to_u128(prod), 987654321u128 * 123456789u128 % to_u128(m));
    }

    /// The moduli the kernels serve: the `p` of `CurveParams::fast()`
    /// (192 bits) and of `CurveParams::standard()` (512 bits), and the
    /// group order `q`. Written out, so that a broken kernel cannot stall
    /// the primality search that generates them.
    fn curve_moduli() -> (crate::UintP, crate::UintP, crate::UintR) {
        (
            Uint::from_be_hex("d9fa690c000000000000000000000000000367eb5824d217"),
            Uint::from_be_hex(concat!(
                "8a4a1e3ff0113155858340cda480752fd749d58ada0ab11ec38bb8906d4d2fc8",
                "c4ef5994de6e2de69ec60fe33b87fbf12eced51396b81d9389d8185324685dc3"
            )),
            crate::prime::group_order(),
        )
    }

    /// Checks `mul`, `sqr`, `add`, `sub`, `neg` and the `to_mont` /
    /// `from_mont` round trip on plain residues `a, b < m`: the context's
    /// width kernel, the `N`-limb reference context and schoolbook
    /// `mul_wide` + `reduce_wide` must give the same canonical results, and
    /// every Montgomery-form output must stay below `m` (so its limbs
    /// above the width stay zero).
    fn check_against_references<const N: usize>(ctx: &MontCtx<N>, a: Uint<N>, b: Uint<N>) {
        let m = &ctx.modulus;
        let carry = |c: bool| Uint::from_u64(u64::from(c));
        let (mul_lo, mul_hi) = a.mul_wide(&b);
        let (sqr_lo, sqr_hi) = a.mul_wide(&a);
        let (sum, sum_carry) = a.add_carry(&b);
        let (diff, diff_carry) = a.add_carry(&m.sub_borrow(&b).0);
        let want = [
            Uint::reduce_wide(&mul_lo, &mul_hi, m),
            Uint::reduce_wide(&sqr_lo, &sqr_hi, m),
            Uint::reduce_wide(&sum, &carry(sum_carry), m),
            Uint::reduce_wide(&diff, &carry(diff_carry), m),
            Uint::reduce_wide(&m.sub_borrow(&a).0, &Uint::ZERO, m),
        ];
        let reference = MontCtx::at_width(*m, N);
        for c in [ctx, &reference] {
            let (am, bm) = (c.to_mont(&a), c.to_mont(&b));
            check_kernel::<NARROW, N>(c, &am, &bm);
            check_kernel::<N, N>(c, &am, &bm);
            assert_eq!(c.from_mont(&am), a, "round trip, width {}", c.width);
            let got = [
                c.mul(&am, &bm),
                c.sqr(&am),
                c.add(&am, &bm),
                c.sub(&am, &bm),
                c.neg(&am),
            ];
            for (op, (got, want)) in ["mul", "sqr", "add", "sub", "neg"]
                .iter()
                .zip(got.iter().zip(want))
            {
                assert!(got < m, "{op} left the residue range, width {}", c.width);
                assert_eq!(c.from_mont(got), want, "{op}, width {}", c.width);
            }
        }
    }

    /// The context's [`MontKernel`] at width `W`, if it runs there, must
    /// give `mul`, `add` and `sub` equal to the context's own on the
    /// Montgomery residues `am` and `bm`.
    fn check_kernel<const W: usize, const N: usize>(c: &MontCtx<N>, am: &Uint<N>, bm: &Uint<N>) {
        let Some(k) = c.kernel::<W>() else {
            return;
        };
        let low = |u: Uint<N>| -> [u64; W] {
            assert!(u.0[W..].iter().all(|&l| l == 0), "limbs above the width");
            u.0[..W].try_into().expect("W ≤ N")
        };
        let (x, y) = (low(*am), low(*bm));
        assert_eq!(k.mul(&x, &y), low(c.mul(am, bm)), "kernel mul, width {W}");
        assert_eq!(k.add(&x, &y), low(c.add(am, bm)), "kernel add, width {W}");
        assert_eq!(k.sub(&x, &y), low(c.sub(am, bm)), "kernel sub, width {W}");
    }

    /// `0`, `1`, `m − 1` and `R mod m` at both the context's width and
    /// the reference width `N`.
    fn edge_values<const N: usize>(ctx: &MontCtx<N>) -> Vec<Uint<N>> {
        let m_minus_1 = ctx.modulus.sub_borrow(&Uint::one()).0;
        let reference = MontCtx::at_width(ctx.modulus, N);
        vec![Uint::ZERO, Uint::one(), m_minus_1, ctx.r, reference.r]
    }

    #[test]
    fn curve_moduli_run_at_their_width() {
        fn radix_2_192<const N: usize>() -> Uint<N> {
            let mut r = Uint::ZERO;
            r.0[3] = 1;
            r
        }
        let (fast, standard, q) = curve_moduli();
        let (fast, standard, q) = (MontCtx::new(fast), MontCtx::new(standard), MontCtx::new(q));
        assert_eq!((fast.width, standard.width, q.width), (3, 8, 3));
        // a kernel exists at exactly the context's width
        assert!(fast.kernel::<3>().is_some() && fast.kernel::<8>().is_none());
        assert!(standard.kernel::<8>().is_some() && standard.kernel::<3>().is_none());
        assert!(q.kernel::<3>().is_some() && q.kernel::<4>().is_none());
        // R = 2^{64·3} for the narrow contexts
        assert_eq!(
            fast.r,
            Uint::reduce_wide(&radix_2_192(), &Uint::ZERO, &fast.modulus)
        );
        assert_eq!(
            q.r,
            Uint::reduce_wide(&radix_2_192(), &Uint::ZERO, &q.modulus)
        );
    }

    #[test]
    fn width_kernels_match_references_on_edge_values() {
        let (fast, standard, q) = curve_moduli();
        for ctx in [MontCtx::new(fast), MontCtx::new(standard)] {
            let edges = edge_values(&ctx);
            for &a in &edges {
                for &b in &edges {
                    check_against_references(&ctx, a, b);
                }
            }
        }
        let ctx = MontCtx::new(q);
        let edges = edge_values(&ctx);
        for &a in &edges {
            for &b in &edges {
                check_against_references(&ctx, a, b);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_width_kernels_match_references(seed in proptest::prelude::any::<u64>()) {
            use crate::prime::random_below;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (fast, standard, q) = curve_moduli();
            for m in [fast, standard] {
                let ctx = MontCtx::new(m);
                let (a, b) = (random_below(&m, &mut rng), random_below(&m, &mut rng));
                check_against_references(&ctx, a, b);
            }
            let (a, b) = (random_below(&q, &mut rng), random_below(&q, &mut rng));
            check_against_references(&MontCtx::new(q), a, b);
        }
    }
}
