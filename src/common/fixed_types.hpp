// Software IEEE-754 binary16 (Float16) and bfloat16 (BFloat16).
//
// WeiPipe circulates weights (W) and weight-gradients (D) in fp16 and
// activation-gradients (B) in bf16 (paper §5, "Mixed Precision"); optimizer
// state stays fp32. These types reproduce that quantization on commodity CPUs:
// round-to-nearest-even on narrowing, exact widening. They are storage types —
// arithmetic happens in float after widening, as on tensor-core hardware.
#pragma once

#include <cstdint>
#include <cstring>

namespace weipipe {

namespace detail {

inline std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float bits_float(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Narrow fp32 -> fp16 bits with round-to-nearest-even, handling subnormals,
// overflow to infinity, and NaN payloads (quieted).
inline std::uint16_t f32_to_f16_bits(float f) {
  const std::uint32_t x = float_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {  // inf or NaN
    if (abs > 0x7F800000u) {
      return static_cast<std::uint16_t>(sign | 0x7E00u);  // quiet NaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);  // infinity
  }
  if (abs >= 0x477FF000u) {  // rounds to >= 2^16 -> overflow to inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // subnormal half (exp < -14) or zero
    if (abs < 0x33000000u) {  // below half of min subnormal -> zero
      return static_cast<std::uint16_t>(sign);
    }
    // Subnormal half = m * 2^-24; align the 24-bit fp32 significand so that
    // bit 0 is worth 2^-24. shift in [14, 24] for exponents in range.
    const int exp = static_cast<int>(abs >> 23);  // biased fp32 exponent
    const int shift = 126 - exp;
    const std::uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const std::uint32_t dropped = mant & ((1u << shift) - 1u);
    std::uint32_t half = mant >> shift;
    const std::uint32_t round_bit = 1u << (shift - 1);
    if (dropped > round_bit || (dropped == round_bit && (half & 1u))) {
      ++half;
    }
    return static_cast<std::uint16_t>(sign | half);
  }
  // Normal range: re-bias exponent (127 -> 15), keep top 10 mantissa bits.
  std::uint32_t half = (abs - 0x38000000u) >> 13;
  const std::uint32_t dropped = abs & 0x1FFFu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (half & 1u))) {
    ++half;  // may carry into exponent; that is correct rounding behaviour
  }
  return static_cast<std::uint16_t>(sign | half);
}

inline float f16_bits_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) {
      return bits_float(sign);  // signed zero
    }
    // Subnormal: normalize into fp32.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e) << 23;
    return bits_float(sign | exp32 | ((m & 0x3FFu) << 13));
  }
  if (exp == 0x1Fu) {
    return bits_float(sign | 0x7F800000u | (mant << 13));  // inf / NaN
  }
  return bits_float(sign | ((exp + 112u) << 23) | (mant << 13));
}

inline std::uint16_t f32_to_bf16_bits(float f) {
  std::uint32_t x = float_bits(f);
  if ((x & 0x7FFFFFFFu) > 0x7F800000u) {  // NaN: quiet, keep top payload bit set
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
  }
  const std::uint32_t rounding = 0x7FFFu + ((x >> 16) & 1u);  // RNE
  x += rounding;
  return static_cast<std::uint16_t>(x >> 16);
}

inline float bf16_bits_to_f32(std::uint16_t b) {
  return bits_float(static_cast<std::uint32_t>(b) << 16);
}

}  // namespace detail

// IEEE binary16 storage type.
class Float16 {
 public:
  Float16() = default;
  explicit Float16(float f) : bits_(detail::f32_to_f16_bits(f)) {}

  float to_float() const { return detail::f16_bits_to_f32(bits_); }
  explicit operator float() const { return to_float(); }
  std::uint16_t bits() const { return bits_; }

  friend bool operator==(Float16 a, Float16 b) { return a.bits_ == b.bits_; }

 private:
  std::uint16_t bits_ = 0;
};

// bfloat16 storage type (fp32 with truncated mantissa, RNE on narrowing).
class BFloat16 {
 public:
  BFloat16() = default;
  explicit BFloat16(float f) : bits_(detail::f32_to_bf16_bits(f)) {}

  float to_float() const { return detail::bf16_bits_to_f32(bits_); }
  explicit operator float() const { return to_float(); }
  std::uint16_t bits() const { return bits_; }

  friend bool operator==(BFloat16 a, BFloat16 b) { return a.bits_ == b.bits_; }

 private:
  std::uint16_t bits_ = 0;
};

// Round-trips a float through the given 16-bit storage precision.
inline float quantize_f16(float f) { return Float16(f).to_float(); }
inline float quantize_bf16(float f) { return BFloat16(f).to_float(); }

// Precision used for a circulated tensor; Fp32 disables quantization (used by
// the precision-ablation tests and the ground-truth sequential trainer).
// Int8 is a *wire* format only (block-quantized with per-chunk fp32 scales,
// see comm/wire.hpp); it is intended for the weight-gradient flow, where the
// owner rank accumulates in fp32 after widening.
enum class WirePrecision { Fp32, Fp16, Bf16, Int8 };

// Strategy-knob alias: the circulated-tensor formats double as the fabric's
// wire formats (PrecisionConfig in nn/config.hpp picks one per flow).
using WireFormat = WirePrecision;

inline const char* to_string(WirePrecision p) {
  switch (p) {
    case WirePrecision::Fp32: return "fp32";
    case WirePrecision::Fp16: return "fp16";
    case WirePrecision::Bf16: return "bf16";
    case WirePrecision::Int8: return "int8";
  }
  return "?";
}

// Payload bytes per element. Int8 carries one byte per element plus a small
// per-chunk scale header; use comm::packed_size for exact wire sizes.
inline std::size_t wire_bytes_per_element(WirePrecision p) {
  switch (p) {
    case WirePrecision::Fp32: return 4;
    case WirePrecision::Fp16: return 2;
    case WirePrecision::Bf16: return 2;
    case WirePrecision::Int8: return 1;
  }
  return 4;
}

inline float quantize(float f, WirePrecision p) {
  switch (p) {
    case WirePrecision::Fp32: return f;
    case WirePrecision::Fp16: return quantize_f16(f);
    case WirePrecision::Bf16: return quantize_bf16(f);
    case WirePrecision::Int8:
      // Int8 quantization is block-wise (the scale depends on the chunk's
      // max-abs); a single element has no chunk context, so the element-wise
      // identity is returned and callers must go through pack/unpack.
      return f;
  }
  return f;
}

}  // namespace weipipe
