// secp256k1 elliptic-curve arithmetic, from scratch.
//
// Curve: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977.
// Group order n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFFD25E8 8CD03641 41.
//
// Both moduli are reduced by folding their special form: p = 2^256 - (2^32 +
// 977) for field elements, n = 2^256 - c with c < 2^129 for scalars (ECDSA
// signing runs sc_inv, ~450 scalar products, per signature). Generator
// multiples k*G (key derivation, the signing nonce point) come from a
// fixed-base table of j*16^w*G, 64 windows x 15 points built once on first
// use: at most 64 point additions and no doublings. Arbitrary points use
// double-and-add. Not constant-time: this is a simulator, not a wallet.
#pragma once

#include <optional>

#include "crypto/u256.hpp"

namespace bng::crypto {

/// Field modulus p and group order n.
const U256& field_p();
const U256& order_n();

// --- Field element operations (values always reduced mod p) ---------------
U256 fe_add(const U256& a, const U256& b);
U256 fe_sub(const U256& a, const U256& b);
U256 fe_mul(const U256& a, const U256& b);
U256 fe_sqr(const U256& a);
U256 fe_neg(const U256& a);
U256 fe_pow(const U256& a, const U256& e);
U256 fe_inv(const U256& a);  // a != 0

/// Square root mod p (p ≡ 3 mod 4, so sqrt(a) = a^((p+1)/4) when it exists).
/// Returns nullopt for quadratic non-residues.
std::optional<U256> fe_sqrt(const U256& a);

// --- Scalar operations (mod n) ---------------------------------------------
U256 sc_reduce(const U256& a);                  // a mod n
U256 sc_add(const U256& a, const U256& b);
U256 sc_mul(const U256& a, const U256& b);
U256 sc_neg(const U256& a);
U256 sc_inv(const U256& a);  // a != 0 mod n

/// Affine point; infinity iff `infinity` is true.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;

  /// Is the point on the curve (or infinity)?
  [[nodiscard]] bool valid() const;
};

/// Jacobian point (X/Z^2, Y/Z^3); infinity iff Z == 0.
struct JacobianPoint {
  U256 X;
  U256 Y;
  U256 Z;

  static JacobianPoint infinity();
  static JacobianPoint from_affine(const AffinePoint& p);
  [[nodiscard]] AffinePoint to_affine() const;
  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }
};

/// Curve generator G.
const AffinePoint& generator();

/// Lift an x-coordinate to a curve point with the requested y parity
/// (compressed-key decoding). Returns nullopt if x is not on the curve.
std::optional<AffinePoint> lift_x(const U256& x, bool odd_y);

JacobianPoint point_double(const JacobianPoint& p);
JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q);
JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q);

/// k * P (double-and-add). k is interpreted mod n.
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);

/// k * G from the fixed-base table; same point as scalar_mul(k, generator()).
JacobianPoint scalar_mul_base(const U256& k);

/// u1*G + u2*P computed with interleaved doubling (Shamir's trick).
JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p);

}  // namespace bng::crypto
