//! Arbitrary-but-fixed-width integer and finite-field arithmetic for the
//! APKS reproduction.
//!
//! This crate is the lowest layer of the stack: it provides
//!
//! * [`Uint`] — a constant-size little-endian multi-precision unsigned
//!   integer, the raw material for every field element,
//! * [`mont::MontCtx`] — Montgomery-form modular arithmetic over a runtime
//!   odd modulus,
//! * [`fp::FpCtx`] / [`fp::Fp`] — the pairing base field `F_p`
//!   (up to 512-bit `p`, context-based because parameter sets vary),
//! * [`fr::Fr`] — the scalar field `F_q` with the *fixed* 160-bit group
//!   order used throughout the system (operator-overloaded, no context),
//! * [`fp2::Fp2`] — the quadratic extension `F_{p^2} = F_p[i]/(i^2+1)`,
//! * [`prime`] — Miller–Rabin primality and type-A pairing parameter
//!   generation (`p = h·q − 1`, `4 | h`, `p ≡ 3 mod 4`),
//! * [`sha256`] and [`hash`] — keyword hashing `H : {0,1}* → F_q`,
//! * [`encode`] — the canonical binary encoding used for all wire objects.
//!
//! # Example
//!
//! ```
//! use apks_math::fr::Fr;
//!
//! let a = Fr::from_u64(7);
//! let b = a.inv().expect("7 is invertible");
//! assert_eq!(a * b, Fr::one());
//! ```

pub mod encode;
pub mod fp;
pub mod fp2;
pub mod fr;
pub mod hash;
pub mod mont;
pub mod prime;
pub mod sha256;
pub mod uint;

pub use fp::{Fp, FpCtx};
pub use fp2::Fp2;
pub use fr::Fr;
pub use uint::{HexParseError, Uint};

/// Number of 64-bit limbs that *store* a base-field element (supports `p`
/// up to 512 bits). This is the storage and encoding width, not the
/// arithmetic width: [`mont::MontCtx`] multiplies at the width of `p`
/// (3 limbs for fast-192, 8 for standard-512).
pub const FP_LIMBS: usize = 8;
/// Number of 64-bit limbs that *store* a scalar-field element (supports
/// `q` up to 256 bits). The 160-bit `q` is multiplied at 3 limbs.
pub const FR_LIMBS: usize = 4;

/// A base-field-width integer.
pub type UintP = Uint<FP_LIMBS>;
/// A scalar-field-width integer.
pub type UintR = Uint<FR_LIMBS>;
