#include "comm/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define WEIPIPE_WIRE_X86 1
#include <immintrin.h>
#endif

namespace weipipe::comm {

namespace wire_detail {

// ---- scalar reference kernels ----------------------------------------------
//
// These call the same bit-exact converters in common/fixed_types.hpp that
// the rest of the codebase (quantize(), the trainers' master-weight rounding)
// uses; the SIMD paths below are required to match them bit for bit.

void pack_f16_scalar(const float* src, std::size_t n, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::f32_to_f16_bits(src[i]);
  }
}

void unpack_f16_scalar(const std::uint16_t* src, std::size_t n, float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::f16_bits_to_f32(src[i]);
  }
}

void pack_bf16_scalar(const float* src, std::size_t n, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::f32_to_bf16_bits(src[i]);
  }
}

void unpack_bf16_scalar(const std::uint16_t* src, std::size_t n, float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::bf16_bits_to_f32(src[i]);
  }
}

// ---- SIMD kernels (F16C/AVX2, runtime-dispatched) --------------------------
//
// 8 floats per iteration, unaligned loads/stores, scalar tail. Dispatch is
// per-call via a cached __builtin_cpu_supports probe, as for the gemm
// micro-kernels, so the generic build still uses F16C wherever it runs.

#if WEIPIPE_WIRE_X86

bool simd_available() {
  static const bool ok =
      __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx2");
  return ok;
}

__attribute__((target("f16c,avx2")))
void pack_f16_simd(const float* src, std::size_t n, std::uint16_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    __m128i h =
        _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // vcvtps2ph preserves NaN payload bits; the scalar reference collapses
    // every NaN to the canonical sign|0x7E00. Blend NaN lanes (rare: the
    // movemask branch keeps the clean-data fast path blend-free).
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(unord) != 0) {
      const __m256i bits = _mm256_castps_si256(x);
      const __m256i canon32 = _mm256_or_si256(
          _mm256_and_si256(_mm256_srli_epi32(bits, 16),
                           _mm256_set1_epi32(0x8000)),
          _mm256_set1_epi32(0x7E00));
      // Lane values fit in 16 bits, so unsigned 32->16 packing is exact;
      // packs/packus interleave 128-bit halves, hence the lo/hi split.
      const __m128i canon16 =
          _mm_packus_epi32(_mm256_castsi256_si128(canon32),
                           _mm256_extracti128_si256(canon32, 1));
      const __m256i m32 = _mm256_castps_si256(unord);
      const __m128i m16 = _mm_packs_epi32(_mm256_castsi256_si128(m32),
                                          _mm256_extracti128_si256(m32, 1));
      h = _mm_blendv_epi8(h, canon16, m16);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  pack_f16_scalar(src + i, n - i, dst + i);
}

__attribute__((target("f16c,avx2")))
void unpack_f16_simd(const std::uint16_t* src, std::size_t n, float* dst) {
  std::size_t i = 0;
  const __m128i exp_mask = _mm_set1_epi16(0x7C00);
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m256 f = _mm256_cvtph_ps(h);
    // vcvtph2ps quiets signaling NaNs; the scalar reference widens inf/NaN
    // as sign|0x7F800000|(mant<<13), payload preserved. Rebuild those lanes
    // (the reconstruction is also exact for infinities, so exponent==0x1F
    // is a sufficient lane predicate).
    const __m128i special16 =
        _mm_cmpeq_epi16(_mm_and_si128(h, exp_mask), exp_mask);
    if (_mm_movemask_epi8(special16) != 0) {
      const __m256i h32 = _mm256_cvtepu16_epi32(h);
      const __m256i manual = _mm256_or_si256(
          _mm256_slli_epi32(
              _mm256_and_si256(h32, _mm256_set1_epi32(0x8000)), 16),
          _mm256_or_si256(
              _mm256_set1_epi32(0x7F800000),
              _mm256_slli_epi32(_mm256_and_si256(h32,
                                                 _mm256_set1_epi32(0x3FF)),
                                13)));
      const __m256i spec32 = _mm256_cmpeq_epi32(
          _mm256_and_si256(h32, _mm256_set1_epi32(0x7C00)),
          _mm256_set1_epi32(0x7C00));
      f = _mm256_blendv_ps(f, _mm256_castsi256_ps(manual),
                           _mm256_castsi256_ps(spec32));
    }
    _mm256_storeu_ps(dst + i, f);
  }
  unpack_f16_scalar(src + i, n - i, dst + i);
}

__attribute__((target("avx2")))
void pack_bf16_simd(const float* src, std::size_t n, std::uint16_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    const __m256i bits = _mm256_castps_si256(x);
    // RNE in integer space, identical to the scalar reference:
    // (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16. Two's-complement adds wrap
    // exactly like the reference's uint32 arithmetic.
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16),
                                         _mm256_set1_epi32(1));
    __m256i b16 = _mm256_srli_epi32(
        _mm256_add_epi32(bits,
                         _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb)),
        16);
    const __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(unord) != 0) {
      // NaN: (bits >> 16) | 0x40 — quiet while keeping the payload's top
      // bits, exactly as the scalar reference does.
      const __m256i nan16 = _mm256_or_si256(_mm256_srli_epi32(bits, 16),
                                            _mm256_set1_epi32(0x40));
      b16 = _mm256_blendv_epi8(b16, nan16, _mm256_castps_si256(unord));
    }
    const __m128i packed = _mm_packus_epi32(
        _mm256_castsi256_si128(b16), _mm256_extracti128_si256(b16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  pack_bf16_scalar(src + i, n - i, dst + i);
}

__attribute__((target("avx2")))
void unpack_bf16_simd(const std::uint16_t* src, std::size_t n, float* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
    _mm256_storeu_ps(dst + i, _mm256_castsi256_ps(w));
  }
  unpack_bf16_scalar(src + i, n - i, dst + i);
}

#else  // !WEIPIPE_WIRE_X86

bool simd_available() { return false; }

// Non-x86 fallbacks so the symbols exist; never selected by dispatch.
void pack_f16_simd(const float* src, std::size_t n, std::uint16_t* dst) {
  pack_f16_scalar(src, n, dst);
}
void unpack_f16_simd(const std::uint16_t* src, std::size_t n, float* dst) {
  unpack_f16_scalar(src, n, dst);
}
void pack_bf16_simd(const float* src, std::size_t n, std::uint16_t* dst) {
  pack_bf16_scalar(src, n, dst);
}
void unpack_bf16_simd(const std::uint16_t* src, std::size_t n, float* dst) {
  unpack_bf16_scalar(src, n, dst);
}

#endif  // WEIPIPE_WIRE_X86

// ---- int8 block quantization -----------------------------------------------
//
// Layout: ceil(n/64) fp32 scales, then n int8 codes. scale = max finite
// |v| / 127 over the chunk; code = round(v / scale) clamped to [-127, 127].
// Widening is code * scale. Saturating semantics for non-finite inputs keep
// the wire well-defined under fault injection: NaN -> 0, +/-inf -> +/-127.

void pack_int8(const float* src, std::size_t n, std::uint8_t* dst) {
  const std::size_t chunks = (n + kInt8ChunkElems - 1) / kInt8ChunkElems;
  float* scales = reinterpret_cast<float*>(dst);
  std::int8_t* codes = reinterpret_cast<std::int8_t*>(dst + chunks * 4);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kInt8ChunkElems;
    const std::size_t end = begin + std::min(kInt8ChunkElems, n - begin);
    float max_abs = 0.0f;
    for (std::size_t i = begin; i < end; ++i) {
      const float a = std::fabs(src[i]);
      if (std::isfinite(a) && a > max_abs) {
        max_abs = a;
      }
    }
    const float scale = max_abs / 127.0f;
    std::memcpy(&scales[c], &scale, sizeof(scale));
    for (std::size_t i = begin; i < end; ++i) {
      int q = 0;
      if (scale > 0.0f) {
        // Division (not reciprocal) so denormal scales stay finite.
        const float r = src[i] / scale;
        if (std::isnan(r)) {
          q = 0;
        } else if (r >= 127.0f) {
          q = 127;
        } else if (r <= -127.0f) {
          q = -127;
        } else {
          q = static_cast<int>(std::lrintf(r));
        }
      } else if (src[i] > 0.0f) {  // all-zero/non-finite chunk: sign only
        q = std::isinf(src[i]) ? 127 : 0;
      } else if (src[i] < 0.0f) {
        q = std::isinf(src[i]) ? -127 : 0;
      }
      codes[i] = static_cast<std::int8_t>(q);
    }
  }
}

void unpack_int8(const std::uint8_t* src, std::size_t n, float* dst) {
  const std::size_t chunks = (n + kInt8ChunkElems - 1) / kInt8ChunkElems;
  const float* scales = reinterpret_cast<const float*>(src);
  const std::int8_t* codes =
      reinterpret_cast<const std::int8_t*>(src + chunks * 4);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kInt8ChunkElems;
    const std::size_t end = begin + std::min(kInt8ChunkElems, n - begin);
    float scale;
    std::memcpy(&scale, &scales[c], sizeof(scale));
    for (std::size_t i = begin; i < end; ++i) {
      dst[i] = static_cast<float>(codes[i]) * scale;
    }
  }
}

}  // namespace wire_detail

// ---- public entry points ---------------------------------------------------

std::size_t packed_size(std::size_t num_elements, WirePrecision precision) {
  if (precision == WirePrecision::Int8) {
    const std::size_t chunks =
        (num_elements + kInt8ChunkElems - 1) / kInt8ChunkElems;
    return chunks * 4 + num_elements;
  }
  return num_elements * wire_bytes_per_element(precision);
}

void pack_floats_into(std::span<const float> values, WirePrecision precision,
                      std::uint8_t* dst) {
  const std::size_t n = values.size();
  if (n == 0) {
    return;
  }
  switch (precision) {
    case WirePrecision::Fp32:
      std::memcpy(dst, values.data(), n * 4);
      break;
    case WirePrecision::Fp16: {
      auto* out = reinterpret_cast<std::uint16_t*>(dst);
      if (wire_detail::simd_available()) {
        wire_detail::pack_f16_simd(values.data(), n, out);
      } else {
        wire_detail::pack_f16_scalar(values.data(), n, out);
      }
      break;
    }
    case WirePrecision::Bf16: {
      auto* out = reinterpret_cast<std::uint16_t*>(dst);
      if (wire_detail::simd_available()) {
        wire_detail::pack_bf16_simd(values.data(), n, out);
      } else {
        wire_detail::pack_bf16_scalar(values.data(), n, out);
      }
      break;
    }
    case WirePrecision::Int8:
      wire_detail::pack_int8(values.data(), n, dst);
      break;
  }
}

std::vector<std::uint8_t> pack_floats(std::span<const float> values,
                                      WirePrecision precision) {
  std::vector<std::uint8_t> out(packed_size(values.size(), precision));
  pack_floats_into(values, precision, out.data());
  return out;
}

Buffer pack_floats_to_buffer(std::span<const float> values,
                             WirePrecision precision) {
  Buffer buffer = Buffer::allocate(packed_size(values.size(), precision));
  pack_floats_into(values, precision, buffer.mutable_data());
  return buffer;
}

void unpack_floats(std::span<const std::uint8_t> bytes,
                   WirePrecision precision, std::span<float> out) {
  WEIPIPE_CHECK_MSG(bytes.size() == packed_size(out.size(), precision),
                    "packed size mismatch: " << bytes.size() << " bytes for "
                                             << out.size() << " elements");
  const std::size_t n = out.size();
  if (n == 0) {
    return;
  }
  switch (precision) {
    case WirePrecision::Fp32:
      std::memcpy(out.data(), bytes.data(), bytes.size());
      break;
    case WirePrecision::Fp16: {
      const auto* src = reinterpret_cast<const std::uint16_t*>(bytes.data());
      if (wire_detail::simd_available()) {
        wire_detail::unpack_f16_simd(src, n, out.data());
      } else {
        wire_detail::unpack_f16_scalar(src, n, out.data());
      }
      break;
    }
    case WirePrecision::Bf16: {
      const auto* src = reinterpret_cast<const std::uint16_t*>(bytes.data());
      if (wire_detail::simd_available()) {
        wire_detail::unpack_bf16_simd(src, n, out.data());
      } else {
        wire_detail::unpack_bf16_scalar(src, n, out.data());
      }
      break;
    }
    case WirePrecision::Int8:
      wire_detail::unpack_int8(bytes.data(), n, out.data());
      break;
  }
}

}  // namespace weipipe::comm
