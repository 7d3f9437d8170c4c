#include "galois/region.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OMNC_X86 1
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define OMNC_NEON 1
#endif

#include "common/assert.h"
#include "galois/gf256.h"

namespace omnc::gf {
namespace {

// ---------------------------------------------------------------------------
// Scalar lookup-table backend (the baseline the paper compares against).
// The c==0 / c==1 fast paths mirror the SIMD backends so the scalar
// reference is not pessimized into table walks for trivial constants.
// ---------------------------------------------------------------------------

void scalar_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  const std::uint8_t* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void scalar_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  // Word-at-a-time XOR; memcpy keeps it alias/alignment safe.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void scalar_axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                 std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    scalar_xor(dst, src, n);
    return;
  }
  const std::uint8_t* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

// Fused folds: one pass over dst regardless of the source count.  Zero
// constants resolve through mul_row(0) (the all-zero row), so the kernels
// stay total; the dispatch wrappers strip zeros before getting here when it
// matters for speed.

void scalar_axpy2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  const std::uint8_t* r0 = mul_row(c0);
  const std::uint8_t* r1 = mul_row(c1);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ r0[src0[i]] ^ r1[src1[i]]);
  }
}

void scalar_axpy4(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1,
                  const std::uint8_t* src2, std::uint8_t c2,
                  const std::uint8_t* src3, std::uint8_t c3, std::size_t n) {
  const std::uint8_t* r0 = mul_row(c0);
  const std::uint8_t* r1 = mul_row(c1);
  const std::uint8_t* r2 = mul_row(c2);
  const std::uint8_t* r3 = mul_row(c3);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ r0[src0[i]] ^ r1[src1[i]] ^
                                       r2[src2[i]] ^ r3[src3[i]]);
  }
}

// ---------------------------------------------------------------------------
// Portable SWAR backend: the SSE2 double-and-add scheme carried out on
// plain uint64 lanes — eight field bytes per machine word with no intrinsic
// in sight.  xtime() shifts every byte left once and folds the reduction
// polynomial back in wherever a high bit fell out; the constant multiply is
// Horner form over the bits of c, exactly like sse2_mul_const.  This is the
// vector-unit-free fallback for targets with neither x86 nor NEON, and the
// backend x86 CI forces (OMNC_GF_BACKEND=portable) to keep that path green.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSwarHighBits = 0x8080808080808080ull;
constexpr std::uint64_t kSwarLowSeven = 0x7f7f7f7f7f7f7f7full;

inline std::uint64_t swar_xtime(std::uint64_t v) {
  const std::uint64_t high = v & kSwarHighBits;
  const std::uint64_t shifted = (v & kSwarLowSeven) << 1;
  // Bytes whose high bit was set pick up the low half of the reduction
  // polynomial (0x11B & 0xFF = 0x1B); (high >> 7) leaves 0x01 in exactly
  // those bytes, and * 0x1B stays carry-free because 0x1B < 0x100.
  return shifted ^ ((high >> 7) * 0x1b);
}

inline std::uint64_t swar_mul_const(std::uint64_t v, std::uint8_t c) {
  std::uint64_t product = 0;
  int top = 7;
  while (top > 0 && !((c >> top) & 1)) --top;
  for (int bit = top; bit >= 0; --bit) {
    if (bit != top) product = swar_xtime(product);
    if ((c >> bit) & 1) product ^= v;
  }
  return product;
}

inline std::uint64_t swar_load(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void swar_store(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, 8);
}

void portable_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                  std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    swar_store(dst + i, swar_mul_const(swar_load(src + i), c));
  }
  if (i < n) scalar_mul(dst + i, src + i, c, n - i);
}

void portable_axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                   std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    scalar_xor(dst, src, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    swar_store(dst + i,
               swar_load(dst + i) ^ swar_mul_const(swar_load(src + i), c));
  }
  if (i < n) scalar_axpy(dst + i, src + i, c, n - i);
}

void portable_axpy2(std::uint8_t* dst, const std::uint8_t* src0,
                    std::uint8_t c0, const std::uint8_t* src1, std::uint8_t c1,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t p = swar_mul_const(swar_load(src0 + i), c0) ^
                            swar_mul_const(swar_load(src1 + i), c1);
    swar_store(dst + i, swar_load(dst + i) ^ p);
  }
  if (i < n) scalar_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

void portable_axpy4(std::uint8_t* dst, const std::uint8_t* src0,
                    std::uint8_t c0, const std::uint8_t* src1, std::uint8_t c1,
                    const std::uint8_t* src2, std::uint8_t c2,
                    const std::uint8_t* src3, std::uint8_t c3, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t p01 = swar_mul_const(swar_load(src0 + i), c0) ^
                              swar_mul_const(swar_load(src1 + i), c1);
    const std::uint64_t p23 = swar_mul_const(swar_load(src2 + i), c2) ^
                              swar_mul_const(swar_load(src3 + i), c3);
    swar_store(dst + i, swar_load(dst + i) ^ p01 ^ p23);
  }
  if (i < n) {
    scalar_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                 c3, n - i);
  }
}

#if defined(OMNC_X86) || defined(OMNC_NEON)

// ---------------------------------------------------------------------------
// Nibble split tables shared by the shuffle backends (SSSE3/AVX2 on x86,
// vqtbl1q on NEON): each byte is split into nibbles and each nibble resolved
// through a 16-entry table derived from the full multiplication table.
//
// All 256 lo/hi table pairs are precomputed once (8 KiB, cache-resident for
// hot constants): loading a constant's tables is two aligned loads instead
// of 32 scalar lookups, which matters enormously for the short coefficient
// rows the RREF elimination sweeps through.
// ---------------------------------------------------------------------------

struct NibbleTables {
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];
  NibbleTables() {
    for (int c = 0; c < 256; ++c) {
      const std::uint8_t* row = mul_row(static_cast<std::uint8_t>(c));
      for (int i = 0; i < 16; ++i) {
        lo[c][i] = row[i];
        hi[c][i] = row[i << 4];
      }
    }
  }
};

const NibbleTables& nibble_tables() {
  static const NibbleTables tables;
  return tables;
}

#endif  // OMNC_X86 || OMNC_NEON

#ifdef OMNC_NEON

// ---------------------------------------------------------------------------
// NEON backend (aarch64): the nibble-table scheme on 16-byte registers.
// vqtbl1q_u8 is the PSHUFB analogue — a 16-entry in-register table lookup —
// so the kernels mirror the SSSE3 shapes byte for byte.  NEON is part of
// the aarch64 baseline, so there is no runtime feature probe to do.
// ---------------------------------------------------------------------------

inline void neon_load_tables(std::uint8_t c, uint8x16_t* lo_table,
                             uint8x16_t* hi_table) {
  const NibbleTables& t = nibble_tables();
  *lo_table = vld1q_u8(t.lo[c]);
  *hi_table = vld1q_u8(t.hi[c]);
}

inline uint8x16_t neon_product(uint8x16_t v, uint8x16_t lo_table,
                               uint8x16_t hi_table) {
  const uint8x16_t lo = vandq_u8(v, vdupq_n_u8(0x0f));
  const uint8x16_t hi = vshrq_n_u8(v, 4);
  return veorq_u8(vqtbl1q_u8(lo_table, lo), vqtbl1q_u8(hi_table, hi));
}

void neon_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void neon_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
              std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  uint8x16_t lo_table;
  uint8x16_t hi_table;
  neon_load_tables(c, &lo_table, &hi_table);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, neon_product(vld1q_u8(src + i), lo_table, hi_table));
  }
  if (i < n) scalar_mul(dst + i, src + i, c, n - i);
}

void neon_axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    neon_xor(dst, src, n);
    return;
  }
  uint8x16_t lo_table;
  uint8x16_t hi_table;
  neon_load_tables(c, &lo_table, &hi_table);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t p = neon_product(vld1q_u8(src + i), lo_table, hi_table);
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), p));
  }
  if (i < n) scalar_axpy(dst + i, src + i, c, n - i);
}

void neon_axpy2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  uint8x16_t lo0, hi0, lo1, hi1;
  neon_load_tables(c0, &lo0, &hi0);
  neon_load_tables(c1, &lo1, &hi1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t p = veorq_u8(neon_product(vld1q_u8(src0 + i), lo0, hi0),
                                  neon_product(vld1q_u8(src1 + i), lo1, hi1));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), p));
  }
  if (i < n) scalar_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

void neon_axpy4(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                const std::uint8_t* src1, std::uint8_t c1,
                const std::uint8_t* src2, std::uint8_t c2,
                const std::uint8_t* src3, std::uint8_t c3, std::size_t n) {
  uint8x16_t lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3;
  neon_load_tables(c0, &lo0, &hi0);
  neon_load_tables(c1, &lo1, &hi1);
  neon_load_tables(c2, &lo2, &hi2);
  neon_load_tables(c3, &lo3, &hi3);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t p01 =
        veorq_u8(neon_product(vld1q_u8(src0 + i), lo0, hi0),
                 neon_product(vld1q_u8(src1 + i), lo1, hi1));
    const uint8x16_t p23 =
        veorq_u8(neon_product(vld1q_u8(src2 + i), lo2, hi2),
                 neon_product(vld1q_u8(src3 + i), lo3, hi3));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), veorq_u8(p01, p23)));
  }
  if (i < n) {
    scalar_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                 c3, n - i);
  }
}

void neon_axpy_scatter(std::uint8_t* const* dsts, const std::uint8_t* coeffs,
                       std::size_t count, const std::uint8_t* src,
                       std::size_t n) {
  const NibbleTables& t = nibble_tables();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(src + i);
    const uint8x16_t vlo = vandq_u8(v, vdupq_n_u8(0x0f));
    const uint8x16_t vhi = vshrq_n_u8(v, 4);
    for (std::size_t r = 0; r < count; ++r) {
      const uint8x16_t lo = vld1q_u8(t.lo[coeffs[r]]);
      const uint8x16_t hi = vld1q_u8(t.hi[coeffs[r]]);
      const uint8x16_t p =
          veorq_u8(vqtbl1q_u8(lo, vlo), vqtbl1q_u8(hi, vhi));
      std::uint8_t* d = dsts[r] + i;
      vst1q_u8(d, veorq_u8(vld1q_u8(d), p));
    }
  }
  if (i < n) {
    for (std::size_t r = 0; r < count; ++r) {
      scalar_axpy(dsts[r] + i, src + i, coeffs[r], n - i);
    }
  }
}

#endif  // OMNC_NEON

#ifdef OMNC_X86

// ---------------------------------------------------------------------------
// SSE2 backend: loop-based (double-and-add) multiplication, per the paper's
// accelerated coding framework.  Each of the (at most) 8 rounds doubles the
// running product in the field — shift left bytewise, conditionally XOR the
// reduction polynomial where the high bit was set — and adds src when the
// corresponding bit of the constant is set.  Rounds above the constant's top
// bit are skipped.
// ---------------------------------------------------------------------------

__attribute__((target("sse2"))) inline __m128i sse2_xtime(__m128i v) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i poly = _mm_set1_epi8(static_cast<char>(kPoly));
  const __m128i high = _mm_cmpgt_epi8(zero, v);  // 0xFF where sign bit set
  __m128i shifted = _mm_add_epi8(v, v);          // bytewise << 1
  return _mm_xor_si128(shifted, _mm_and_si128(high, poly));
}

__attribute__((target("sse2"))) inline __m128i sse2_mul_const(__m128i v,
                                                              std::uint8_t c) {
  __m128i product = _mm_setzero_si128();
  // Horner form over the bits of c, most significant first.
  int top = 7;
  while (top > 0 && !((c >> top) & 1)) --top;
  for (int bit = top; bit >= 0; --bit) {
    if (bit != top) product = sse2_xtime(product);
    if ((c >> bit) & 1) product = _mm_xor_si128(product, v);
  }
  return product;
}

__attribute__((target("sse2"))) void sse2_xor(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::size_t n);

// Two independent double-and-add chains per iteration hide the xtime
// dependency latency on superscalar cores.
__attribute__((target("sse2"))) inline void sse2_mul_const2(
    __m128i v0, __m128i v1, std::uint8_t c, __m128i* out0, __m128i* out1) {
  __m128i p0 = _mm_setzero_si128();
  __m128i p1 = _mm_setzero_si128();
  int top = 7;
  while (top > 0 && !((c >> top) & 1)) --top;
  for (int bit = top; bit >= 0; --bit) {
    if (bit != top) {
      p0 = sse2_xtime(p0);
      p1 = sse2_xtime(p1);
    }
    if ((c >> bit) & 1) {
      p0 = _mm_xor_si128(p0, v0);
      p1 = _mm_xor_si128(p1, v1);
    }
  }
  *out0 = p0;
  *out1 = p1;
}

__attribute__((target("sse2"))) void sse2_mul(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::uint8_t c, std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    __m128i p0;
    __m128i p1;
    sse2_mul_const2(v0, v1, c, &p0, &p1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), p1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), sse2_mul_const(v, c));
  }
  if (i < n) scalar_mul(dst + i, src + i, c, n - i);
}

__attribute__((target("sse2"))) void sse2_axpy(std::uint8_t* dst,
                                               const std::uint8_t* src,
                                               std::uint8_t c, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    sse2_xor(dst, src, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    __m128i p0;
    __m128i p1;
    sse2_mul_const2(v0, v1, c, &p0, &p1);
    const __m128i d0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i d1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d0, p0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16),
                     _mm_xor_si128(d1, p1));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, sse2_mul_const(v, c)));
  }
  if (i < n) scalar_axpy(dst + i, src + i, c, n - i);
}

__attribute__((target("sse2"))) void sse2_xor(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, v));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

__attribute__((target("sse2"))) void sse2_axpy2(std::uint8_t* dst,
                                                const std::uint8_t* src0,
                                                std::uint8_t c0,
                                                const std::uint8_t* src1,
                                                std::uint8_t c1,
                                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src0 + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src1 + i));
    const __m128i p =
        _mm_xor_si128(sse2_mul_const(v0, c0), sse2_mul_const(v1, c1));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  if (i < n) scalar_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

__attribute__((target("sse2"))) void sse2_axpy4(
    std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
    const std::uint8_t* src1, std::uint8_t c1, const std::uint8_t* src2,
    std::uint8_t c2, const std::uint8_t* src3, std::uint8_t c3,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src0 + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src1 + i));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src2 + i));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src3 + i));
    const __m128i p01 =
        _mm_xor_si128(sse2_mul_const(v0, c0), sse2_mul_const(v1, c1));
    const __m128i p23 =
        _mm_xor_si128(sse2_mul_const(v2, c2), sse2_mul_const(v3, c3));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, _mm_xor_si128(p01, p23)));
  }
  if (i < n) {
    scalar_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                 c3, n - i);
  }
}

// ---------------------------------------------------------------------------
// SSSE3 backend: the shared nibble tables resolved through PSHUFB.
// ---------------------------------------------------------------------------

__attribute__((target("ssse3"))) inline void ssse3_tables(std::uint8_t c,
                                                          __m128i* lo_table,
                                                          __m128i* hi_table) {
  const NibbleTables& t = nibble_tables();
  *lo_table = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  *hi_table = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
}

__attribute__((target("ssse3"))) inline __m128i ssse3_product(
    __m128i v, __m128i lo_table, __m128i hi_table, __m128i mask) {
  const __m128i lo = _mm_and_si128(v, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(lo_table, lo),
                       _mm_shuffle_epi8(hi_table, hi));
}

__attribute__((target("ssse3"))) void ssse3_mul(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::uint8_t c, std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  __m128i lo_table;
  __m128i hi_table;
  ssse3_tables(c, &lo_table, &hi_table);
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     ssse3_product(v, lo_table, hi_table, mask));
  }
  if (i < n) scalar_mul(dst + i, src + i, c, n - i);
}

__attribute__((target("ssse3"))) void ssse3_axpy(std::uint8_t* dst,
                                                 const std::uint8_t* src,
                                                 std::uint8_t c,
                                                 std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    sse2_xor(dst, src, n);
    return;
  }
  __m128i lo_table;
  __m128i hi_table;
  ssse3_tables(c, &lo_table, &hi_table);
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm_xor_si128(d, ssse3_product(v, lo_table, hi_table, mask)));
  }
  if (i < n) scalar_axpy(dst + i, src + i, c, n - i);
}

__attribute__((target("ssse3"))) void ssse3_axpy2(std::uint8_t* dst,
                                                  const std::uint8_t* src0,
                                                  std::uint8_t c0,
                                                  const std::uint8_t* src1,
                                                  std::uint8_t c1,
                                                  std::size_t n) {
  __m128i lo0;
  __m128i hi0;
  __m128i lo1;
  __m128i hi1;
  ssse3_tables(c0, &lo0, &hi0);
  ssse3_tables(c1, &lo1, &hi1);
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src0 + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src1 + i));
    const __m128i p = _mm_xor_si128(ssse3_product(v0, lo0, hi0, mask),
                                    ssse3_product(v1, lo1, hi1, mask));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  if (i < n) scalar_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

__attribute__((target("ssse3"))) void ssse3_axpy4(
    std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
    const std::uint8_t* src1, std::uint8_t c1, const std::uint8_t* src2,
    std::uint8_t c2, const std::uint8_t* src3, std::uint8_t c3,
    std::size_t n) {
  __m128i lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3;
  ssse3_tables(c0, &lo0, &hi0);
  ssse3_tables(c1, &lo1, &hi1);
  ssse3_tables(c2, &lo2, &hi2);
  ssse3_tables(c3, &lo3, &hi3);
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src0 + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src1 + i));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src2 + i));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src3 + i));
    const __m128i p01 = _mm_xor_si128(ssse3_product(v0, lo0, hi0, mask),
                                      ssse3_product(v1, lo1, hi1, mask));
    const __m128i p23 = _mm_xor_si128(ssse3_product(v2, lo2, hi2, mask),
                                      ssse3_product(v3, lo3, hi3, mask));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, _mm_xor_si128(p01, p23)));
  }
  if (i < n) {
    scalar_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                 c3, n - i);
  }
}

// ---------------------------------------------------------------------------
// AVX2 backend: the SSSE3 nibble scheme widened to 32-byte registers.  Each
// 16-entry table is broadcast into both 128-bit lanes; VPSHUFB shuffles
// within lanes, which is exactly what the nibble lookup needs.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline void avx2_tables(std::uint8_t c,
                                                        __m256i* lo_table,
                                                        __m256i* hi_table) {
  const NibbleTables& t = nibble_tables();
  *lo_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c])));
  *hi_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c])));
}

__attribute__((target("avx2"))) inline __m256i avx2_product(__m256i v,
                                                            __m256i lo_table,
                                                            __m256i hi_table,
                                                            __m256i mask) {
  const __m256i lo = _mm256_and_si256(v, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo_table, lo),
                          _mm256_shuffle_epi8(hi_table, hi));
}

__attribute__((target("avx2"))) void avx2_mul(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::uint8_t c, std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  __m256i lo_table;
  __m256i hi_table;
  avx2_tables(c, &lo_table, &hi_table);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        avx2_product(v0, lo_table, hi_table, mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        avx2_product(v1, lo_table, hi_table, mask));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        avx2_product(v, lo_table, hi_table, mask));
  }
  if (i < n) ssse3_mul(dst + i, src + i, c, n - i);
}

__attribute__((target("avx2"))) void avx2_axpy(std::uint8_t* dst,
                                               const std::uint8_t* src,
                                               std::uint8_t c, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    region_xor(dst, src, n);
    return;
  }
  __m256i lo_table;
  __m256i hi_table;
  avx2_tables(c, &lo_table, &hi_table);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d, avx2_product(v, lo_table, hi_table, mask)));
  }
  if (i < n) ssse3_axpy(dst + i, src + i, c, n - i);
}

__attribute__((target("avx2"))) void avx2_axpy2(std::uint8_t* dst,
                                                const std::uint8_t* src0,
                                                std::uint8_t c0,
                                                const std::uint8_t* src1,
                                                std::uint8_t c1,
                                                std::size_t n) {
  __m256i lo0;
  __m256i hi0;
  __m256i lo1;
  __m256i hi1;
  avx2_tables(c0, &lo0, &hi0);
  avx2_tables(c1, &lo1, &hi1);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i p = _mm256_xor_si256(avx2_product(v0, lo0, hi0, mask),
                                       avx2_product(v1, lo1, hi1, mask));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  if (i < n) ssse3_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

__attribute__((target("avx2"))) void avx2_axpy4(
    std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
    const std::uint8_t* src1, std::uint8_t c1, const std::uint8_t* src2,
    std::uint8_t c2, const std::uint8_t* src3, std::uint8_t c3,
    std::size_t n) {
  __m256i lo0, hi0, lo1, hi1, lo2, hi2, lo3, hi3;
  avx2_tables(c0, &lo0, &hi0);
  avx2_tables(c1, &lo1, &hi1);
  avx2_tables(c2, &lo2, &hi2);
  avx2_tables(c3, &lo3, &hi3);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src2 + i));
    const __m256i v3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src3 + i));
    const __m256i p01 = _mm256_xor_si256(avx2_product(v0, lo0, hi0, mask),
                                         avx2_product(v1, lo1, hi1, mask));
    const __m256i p23 = _mm256_xor_si256(avx2_product(v2, lo2, hi2, mask),
                                         avx2_product(v3, lo3, hi3, mask));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_xor_si256(p01, p23)));
  }
  if (i < n) {
    ssse3_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                c3, n - i);
  }
}

// ---------------------------------------------------------------------------
// GFNI backend: GF2P8MULB multiplies byte vectors in GF(2^8) modulo the AES
// polynomial x^8+x^4+x^3+x+1 (0x11B) — exactly this codebase's field — so a
// constant multiply is a single instruction against the broadcast constant.
// (GF2P8AFFINEQB could express the same constant multiply as an 8x8 bit
// matrix; MULB needs no matrix setup and has the same throughput here.)
// We use the VEX-256 forms, so the backend requires GFNI and AVX2.
//
// Tails stay at vector width: after the 32-byte loop, each kernel takes one
// 16-byte and one 8-byte step (the VEX-128 form on the low lane of the
// constant), leaving at most 7 bytes for the scalar table loop.  W = 8 is
// movq, whose load zeroes the upper half and whose store writes back only the
// low 8 bytes; GF arithmetic is bytewise, so the 16-byte body runs unchanged
// there.  RREF's 40-byte coefficient rows and 80-byte rows with the
// transform would otherwise end in 8 and 16 table lookups.
// ---------------------------------------------------------------------------

template <int W>
__attribute__((target("sse2"))) inline __m128i load_w(const std::uint8_t* p) {
  static_assert(W == 16 || W == 8);
  if constexpr (W == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  } else {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  }
}

template <int W>
__attribute__((target("sse2"))) inline void store_w(std::uint8_t* p,
                                                    __m128i v) {
  static_assert(W == 16 || W == 8);
  if constexpr (W == 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  } else {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
  }
}

template <int W>
__attribute__((target("gfni,avx2"))) inline void gfni_mul_step(
    std::uint8_t* dst, const std::uint8_t* src, __m128i cv) {
  store_w<W>(dst, _mm_gf2p8mul_epi8(load_w<W>(src), cv));
}

template <int W>
__attribute__((target("gfni,avx2"))) inline void gfni_axpy_step(
    std::uint8_t* dst, const std::uint8_t* src, __m128i cv) {
  store_w<W>(dst, _mm_xor_si128(load_w<W>(dst),
                                _mm_gf2p8mul_epi8(load_w<W>(src), cv)));
}

template <int W>
__attribute__((target("gfni,avx2"))) inline void gfni_axpy2_step(
    std::uint8_t* dst, const std::uint8_t* src0, __m128i cv0,
    const std::uint8_t* src1, __m128i cv1) {
  const __m128i p = _mm_xor_si128(_mm_gf2p8mul_epi8(load_w<W>(src0), cv0),
                                  _mm_gf2p8mul_epi8(load_w<W>(src1), cv1));
  store_w<W>(dst, _mm_xor_si128(load_w<W>(dst), p));
}

template <int W>
__attribute__((target("gfni,avx2"))) inline void gfni_axpy4_step(
    std::uint8_t* dst, const std::uint8_t* src0, __m128i cv0,
    const std::uint8_t* src1, __m128i cv1, const std::uint8_t* src2,
    __m128i cv2, const std::uint8_t* src3, __m128i cv3) {
  const __m128i p01 = _mm_xor_si128(_mm_gf2p8mul_epi8(load_w<W>(src0), cv0),
                                    _mm_gf2p8mul_epi8(load_w<W>(src1), cv1));
  const __m128i p23 = _mm_xor_si128(_mm_gf2p8mul_epi8(load_w<W>(src2), cv2),
                                    _mm_gf2p8mul_epi8(load_w<W>(src3), cv3));
  store_w<W>(dst, _mm_xor_si128(load_w<W>(dst), _mm_xor_si128(p01, p23)));
}

__attribute__((target("gfni,avx2"))) void gfni_mul(std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::uint8_t c,
                                                   std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  const __m256i cv = _mm256_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_gf2p8mul_epi8(v0, cv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_gf2p8mul_epi8(v1, cv));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_gf2p8mul_epi8(v, cv));
  }
  const __m128i cv128 = _mm256_castsi256_si128(cv);
  for (; i + 16 <= n; i += 16) gfni_mul_step<16>(dst + i, src + i, cv128);
  if (i + 8 <= n) {
    gfni_mul_step<8>(dst + i, src + i, cv128);
    i += 8;
  }
  if (i < n) scalar_mul(dst + i, src + i, c, n - i);
}

__attribute__((target("gfni,avx2"))) void gfni_axpy(std::uint8_t* dst,
                                                    const std::uint8_t* src,
                                                    std::uint8_t c,
                                                    std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    region_xor(dst, src, n);
    return;
  }
  const __m256i cv = _mm256_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_gf2p8mul_epi8(v, cv)));
  }
  const __m128i cv128 = _mm256_castsi256_si128(cv);
  for (; i + 16 <= n; i += 16) gfni_axpy_step<16>(dst + i, src + i, cv128);
  if (i + 8 <= n) {
    gfni_axpy_step<8>(dst + i, src + i, cv128);
    i += 8;
  }
  if (i < n) scalar_axpy(dst + i, src + i, c, n - i);
}

__attribute__((target("gfni,avx2"))) void gfni_axpy2(std::uint8_t* dst,
                                                     const std::uint8_t* src0,
                                                     std::uint8_t c0,
                                                     const std::uint8_t* src1,
                                                     std::uint8_t c1,
                                                     std::size_t n) {
  const __m256i cv0 = _mm256_set1_epi8(static_cast<char>(c0));
  const __m256i cv1 = _mm256_set1_epi8(static_cast<char>(c1));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i p = _mm256_xor_si256(_mm256_gf2p8mul_epi8(v0, cv0),
                                       _mm256_gf2p8mul_epi8(v1, cv1));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  const __m128i cv0_128 = _mm256_castsi256_si128(cv0);
  const __m128i cv1_128 = _mm256_castsi256_si128(cv1);
  for (; i + 16 <= n; i += 16) {
    gfni_axpy2_step<16>(dst + i, src0 + i, cv0_128, src1 + i, cv1_128);
  }
  if (i + 8 <= n) {
    gfni_axpy2_step<8>(dst + i, src0 + i, cv0_128, src1 + i, cv1_128);
    i += 8;
  }
  if (i < n) scalar_axpy2(dst + i, src0 + i, c0, src1 + i, c1, n - i);
}

__attribute__((target("gfni,avx2"))) void gfni_axpy4(
    std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
    const std::uint8_t* src1, std::uint8_t c1, const std::uint8_t* src2,
    std::uint8_t c2, const std::uint8_t* src3, std::uint8_t c3,
    std::size_t n) {
  const __m256i cv0 = _mm256_set1_epi8(static_cast<char>(c0));
  const __m256i cv1 = _mm256_set1_epi8(static_cast<char>(c1));
  const __m256i cv2 = _mm256_set1_epi8(static_cast<char>(c2));
  const __m256i cv3 = _mm256_set1_epi8(static_cast<char>(c3));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src0 + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src1 + i));
    const __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src2 + i));
    const __m256i v3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src3 + i));
    const __m256i p01 = _mm256_xor_si256(_mm256_gf2p8mul_epi8(v0, cv0),
                                         _mm256_gf2p8mul_epi8(v1, cv1));
    const __m256i p23 = _mm256_xor_si256(_mm256_gf2p8mul_epi8(v2, cv2),
                                         _mm256_gf2p8mul_epi8(v3, cv3));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, _mm256_xor_si256(p01, p23)));
  }
  const __m128i cv0_128 = _mm256_castsi256_si128(cv0);
  const __m128i cv1_128 = _mm256_castsi256_si128(cv1);
  const __m128i cv2_128 = _mm256_castsi256_si128(cv2);
  const __m128i cv3_128 = _mm256_castsi256_si128(cv3);
  for (; i + 16 <= n; i += 16) {
    gfni_axpy4_step<16>(dst + i, src0 + i, cv0_128, src1 + i, cv1_128,
                        src2 + i, cv2_128, src3 + i, cv3_128);
  }
  if (i + 8 <= n) {
    gfni_axpy4_step<8>(dst + i, src0 + i, cv0_128, src1 + i, cv1_128,
                       src2 + i, cv2_128, src3 + i, cv3_128);
    i += 8;
  }
  if (i < n) {
    scalar_axpy4(dst + i, src0 + i, c0, src1 + i, c1, src2 + i, c2, src3 + i,
                 c3, n - i);
  }
}

// ---------------------------------------------------------------------------
// Scatter kernels: one source into many destinations, the back-substitution
// shape.  The source chunk — and for the shuffle backends its nibble split —
// is computed once per register width and reused across every destination,
// so the per-destination inner loop is just table loads, shuffles, and the
// read-modify-write.  A zero coefficient multiplies through the all-zero
// table row and degenerates to a no-op, so callers need not filter.
// ---------------------------------------------------------------------------

template <int W>
__attribute__((target("gfni,avx2"))) inline void gfni_scatter_step(
    std::uint8_t* const* dsts, const std::uint8_t* coeffs, std::size_t count,
    const std::uint8_t* src, std::size_t i) {
  const __m128i v = load_w<W>(src + i);
  for (std::size_t r = 0; r < count; ++r) {
    const __m128i cv = _mm_set1_epi8(static_cast<char>(coeffs[r]));
    std::uint8_t* d = dsts[r] + i;
    store_w<W>(d, _mm_xor_si128(load_w<W>(d), _mm_gf2p8mul_epi8(v, cv)));
  }
}

__attribute__((target("ssse3"))) void ssse3_axpy_scatter(
    std::uint8_t* const* dsts, const std::uint8_t* coeffs, std::size_t count,
    const std::uint8_t* src, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i vlo = _mm_and_si128(v, mask);
    const __m128i vhi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    for (std::size_t r = 0; r < count; ++r) {
      const __m128i lo =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[coeffs[r]]));
      const __m128i hi =
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[coeffs[r]]));
      const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo, vlo),
                                      _mm_shuffle_epi8(hi, vhi));
      std::uint8_t* d = dsts[r] + i;
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(d),
          _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(d)),
                        p));
    }
  }
  if (i < n) {
    for (std::size_t r = 0; r < count; ++r) {
      scalar_axpy(dsts[r] + i, src + i, coeffs[r], n - i);
    }
  }
}

__attribute__((target("avx2"))) void avx2_axpy_scatter(
    std::uint8_t* const* dsts, const std::uint8_t* coeffs, std::size_t count,
    const std::uint8_t* src, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i vlo = _mm256_and_si256(v, mask);
    const __m256i vhi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    for (std::size_t r = 0; r < count; ++r) {
      const __m256i lo = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[coeffs[r]])));
      const __m256i hi = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[coeffs[r]])));
      const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, vlo),
                                         _mm256_shuffle_epi8(hi, vhi));
      std::uint8_t* d = dsts[r] + i;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(d),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d)), p));
    }
  }
  if (i < n) {
    for (std::size_t r = 0; r < count; ++r) {
      ssse3_axpy(dsts[r] + i, src + i, coeffs[r], n - i);
    }
  }
}

__attribute__((target("gfni,avx2"))) void gfni_axpy_scatter(
    std::uint8_t* const* dsts, const std::uint8_t* coeffs, std::size_t count,
    const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    for (std::size_t r = 0; r < count; ++r) {
      const __m256i cv = _mm256_set1_epi8(static_cast<char>(coeffs[r]));
      std::uint8_t* d = dsts[r] + i;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(d),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d)),
              _mm256_gf2p8mul_epi8(v, cv)));
    }
  }
  for (; i + 16 <= n; i += 16) {
    gfni_scatter_step<16>(dsts, coeffs, count, src, i);
  }
  if (i + 8 <= n) {
    gfni_scatter_step<8>(dsts, coeffs, count, src, i);
    i += 8;
  }
  if (i < n) {
    for (std::size_t r = 0; r < count; ++r) {
      scalar_axpy(dsts[r] + i, src + i, coeffs[r], n - i);
    }
  }
}

// ---------------------------------------------------------------------------
// CPU feature detection: CPUID leaf 1 (SSSE3, OSXSAVE, AVX), leaf 7
// subleaf 0 (AVX2, GFNI), plus XGETBV to confirm the OS actually saves and
// restores the YMM state — AVX2/GFNI dispatch is unsafe without it.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
void cpuid_count(unsigned leaf, unsigned subleaf, unsigned* a, unsigned* b,
                 unsigned* c, unsigned* d) {
  __asm__ volatile("cpuid"
                   : "=a"(*a), "=b"(*b), "=c"(*c), "=d"(*d)
                   : "a"(leaf), "c"(subleaf));
}

bool os_saves_ymm() {
  unsigned a, b, c, d;
  cpuid_count(1, 0, &a, &b, &c, &d);
  if (!(c & (1u << 27))) return false;  // OSXSAVE
  if (!(c & (1u << 28))) return false;  // AVX
  unsigned xcr0_lo, xcr0_hi;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  return (xcr0_lo & 0x6) == 0x6;  // XMM and YMM state enabled
}
#endif

bool cpu_has(const char* feature) {
#if defined(__x86_64__)
  if (std::strcmp(feature, "sse2") == 0) return true;  // baseline on x86-64
  unsigned a, b, c, d;
  cpuid_count(0, 0, &a, &b, &c, &d);
  const unsigned max_leaf = a;
  if (std::strcmp(feature, "ssse3") == 0) {
    cpuid_count(1, 0, &a, &b, &c, &d);
    return (c & (1u << 9)) != 0;
  }
  if (max_leaf < 7) return false;
  cpuid_count(7, 0, &a, &b, &c, &d);
  if (std::strcmp(feature, "avx2") == 0) {
    return (b & (1u << 5)) != 0 && os_saves_ymm();
  }
  if (std::strcmp(feature, "gfni") == 0) {
    // We only emit the VEX-256 GFNI forms, so AVX2 must be usable too.
    return (c & (1u << 8)) != 0 && (b & (1u << 5)) != 0 && os_saves_ymm();
  }
  return false;
#else
  (void)feature;
  return false;
#endif
}

#endif  // OMNC_X86

bool hw_backend_usable(Backend backend) {
  switch (backend) {
    case Backend::kScalarTable:
    case Backend::kPortable:
      return true;
#ifdef OMNC_X86
    case Backend::kSse2:
      return cpu_has("sse2");
    case Backend::kSsse3:
      return cpu_has("ssse3");
    case Backend::kAvx2:
      return cpu_has("avx2");
    case Backend::kGfni:
      return cpu_has("gfni");
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      return true;  // NEON is part of the aarch64 baseline.
#endif
    default:
      return false;
  }
}

Backend detect_default_backend() {
  if (const char* env = std::getenv("OMNC_GF_BACKEND")) {
    struct NamedBackend {
      const char* name;
      Backend backend;
    };
    static constexpr NamedBackend kByName[] = {
        {"scalar", Backend::kScalarTable}, {"sse2", Backend::kSse2},
        {"ssse3", Backend::kSsse3},        {"avx2", Backend::kAvx2},
        {"gfni", Backend::kGfni},          {"neon", Backend::kNeon},
        {"portable", Backend::kPortable},
    };
    for (const NamedBackend& entry : kByName) {
      if (std::strcmp(env, entry.name) == 0 &&
          hw_backend_usable(entry.backend)) {
        return entry.backend;
      }
    }
  }
#ifdef OMNC_X86
  if (cpu_has("gfni")) return Backend::kGfni;
  if (cpu_has("avx2")) return Backend::kAvx2;
  if (cpu_has("ssse3")) return Backend::kSsse3;
  return Backend::kSse2;
#elif defined(OMNC_NEON)
  return Backend::kNeon;
#else
  return Backend::kScalarTable;
#endif
}

std::atomic<Backend> g_backend{detect_default_backend()};

}  // namespace

bool backend_supported(Backend backend) { return hw_backend_usable(backend); }

void set_backend(Backend backend) {
  OMNC_ASSERT_MSG(backend_supported(backend), "backend not supported on CPU");
  g_backend.store(backend);
}

Backend active_backend() { return g_backend.load(std::memory_order_relaxed); }

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalarTable: return "scalar-table";
    case Backend::kSse2: return "sse2-loop";
    case Backend::kSsse3: return "ssse3-shuffle";
    case Backend::kAvx2: return "avx2-shuffle";
    case Backend::kGfni: return "gfni-mulb";
    case Backend::kNeon: return "neon-shuffle";
    case Backend::kPortable: return "portable-swar";
  }
  return "?";
}

void region_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  const Backend backend = active_backend();
#ifdef OMNC_X86
  if (backend != Backend::kScalarTable && backend != Backend::kPortable) {
    sse2_xor(dst, src, n);
    return;
  }
#endif
#ifdef OMNC_NEON
  if (backend == Backend::kNeon) {
    neon_xor(dst, src, n);
    return;
  }
#endif
  (void)backend;
  scalar_xor(dst, src, n);
}

void region_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n) {
  region_mul_backend(active_backend(), dst, src, c, n);
}

void region_axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                 std::size_t n) {
  region_axpy_backend(active_backend(), dst, src, c, n);
}

void region_axpy2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1, std::size_t n) {
  region_axpy2_backend(active_backend(), dst, src0, c0, src1, c1, n);
}

void region_axpy4(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1,
                  const std::uint8_t* src2, std::uint8_t c2,
                  const std::uint8_t* src3, std::uint8_t c3, std::size_t n) {
  region_axpy4_backend(active_backend(), dst, src0, c0, src1, c1, src2, c2,
                       src3, c3, n);
}

void region_axpy_many(std::uint8_t* dst, const std::uint8_t* const* srcs,
                      const std::uint8_t* coeffs, std::size_t count,
                      std::size_t n) {
  const Backend backend = active_backend();
  const std::uint8_t* pending_src[4];
  std::uint8_t pending_c[4];
  std::size_t pending = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (coeffs[k] == 0) continue;
    pending_src[pending] = srcs[k];
    pending_c[pending] = coeffs[k];
    if (++pending == 4) {
      region_axpy4_backend(backend, dst, pending_src[0], pending_c[0],
                           pending_src[1], pending_c[1], pending_src[2],
                           pending_c[2], pending_src[3], pending_c[3], n);
      pending = 0;
    }
  }
  switch (pending) {
    case 3:
      region_axpy2_backend(backend, dst, pending_src[0], pending_c[0],
                           pending_src[1], pending_c[1], n);
      region_axpy_backend(backend, dst, pending_src[2], pending_c[2], n);
      break;
    case 2:
      region_axpy2_backend(backend, dst, pending_src[0], pending_c[0],
                           pending_src[1], pending_c[1], n);
      break;
    case 1:
      region_axpy_backend(backend, dst, pending_src[0], pending_c[0], n);
      break;
    default:
      break;
  }
}

void region_axpy_scatter(std::uint8_t* const* dsts, const std::uint8_t* coeffs,
                         std::size_t count, const std::uint8_t* src,
                         std::size_t n) {
  region_axpy_scatter_backend(active_backend(), dsts, coeffs, count, src, n);
}

namespace {
// Thread-local so the emulation's per-node threads never contend; the code
// family tests drive a single-threaded decoder and read their own counters.
thread_local KernelStats g_kernel_stats;

inline void count_mul(std::uint64_t calls, std::uint64_t bytes) {
  g_kernel_stats.mul_calls += calls;
  g_kernel_stats.mul_bytes += bytes;
}
}  // namespace

KernelStats kernel_stats() { return g_kernel_stats; }

void reset_kernel_stats() { g_kernel_stats = KernelStats{}; }

void region_mul_backend(Backend backend, std::uint8_t* dst,
                        const std::uint8_t* src, std::uint8_t c,
                        std::size_t n) {
  count_mul(1, n);
  // Every backend's c == 0 / c == 1 fast path is a memset/memmove, which
  // must not see the null pointer an empty region may carry.
  if (n == 0) return;
  switch (backend) {
    case Backend::kScalarTable:
      scalar_mul(dst, src, c, n);
      return;
    case Backend::kPortable:
      portable_mul(dst, src, c, n);
      return;
#ifdef OMNC_X86
    case Backend::kSse2:
      sse2_mul(dst, src, c, n);
      return;
    case Backend::kSsse3:
      ssse3_mul(dst, src, c, n);
      return;
    case Backend::kAvx2:
      avx2_mul(dst, src, c, n);
      return;
    case Backend::kGfni:
      gfni_mul(dst, src, c, n);
      return;
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      neon_mul(dst, src, c, n);
      return;
#endif
    default:
      scalar_mul(dst, src, c, n);
      return;
  }
}

void region_axpy_backend(Backend backend, std::uint8_t* dst,
                         const std::uint8_t* src, std::uint8_t c,
                         std::size_t n) {
  count_mul(1, n);
  switch (backend) {
    case Backend::kScalarTable:
      scalar_axpy(dst, src, c, n);
      return;
    case Backend::kPortable:
      portable_axpy(dst, src, c, n);
      return;
#ifdef OMNC_X86
    case Backend::kSse2:
      sse2_axpy(dst, src, c, n);
      return;
    case Backend::kSsse3:
      ssse3_axpy(dst, src, c, n);
      return;
    case Backend::kAvx2:
      avx2_axpy(dst, src, c, n);
      return;
    case Backend::kGfni:
      gfni_axpy(dst, src, c, n);
      return;
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      neon_axpy(dst, src, c, n);
      return;
#endif
    default:
      scalar_axpy(dst, src, c, n);
      return;
  }
}

void region_axpy2_backend(Backend backend, std::uint8_t* dst,
                          const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1,
                          std::size_t n) {
  count_mul(1, 2 * n);
  switch (backend) {
    case Backend::kScalarTable:
      scalar_axpy2(dst, src0, c0, src1, c1, n);
      return;
    case Backend::kPortable:
      portable_axpy2(dst, src0, c0, src1, c1, n);
      return;
#ifdef OMNC_X86
    case Backend::kSse2:
      sse2_axpy2(dst, src0, c0, src1, c1, n);
      return;
    case Backend::kSsse3:
      ssse3_axpy2(dst, src0, c0, src1, c1, n);
      return;
    case Backend::kAvx2:
      avx2_axpy2(dst, src0, c0, src1, c1, n);
      return;
    case Backend::kGfni:
      gfni_axpy2(dst, src0, c0, src1, c1, n);
      return;
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      neon_axpy2(dst, src0, c0, src1, c1, n);
      return;
#endif
    default:
      scalar_axpy2(dst, src0, c0, src1, c1, n);
      return;
  }
}

void region_axpy4_backend(Backend backend, std::uint8_t* dst,
                          const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1,
                          const std::uint8_t* src2, std::uint8_t c2,
                          const std::uint8_t* src3, std::uint8_t c3,
                          std::size_t n) {
  count_mul(1, 4 * n);
  switch (backend) {
    case Backend::kScalarTable:
      scalar_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
    case Backend::kPortable:
      portable_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
#ifdef OMNC_X86
    case Backend::kSse2:
      sse2_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
    case Backend::kSsse3:
      ssse3_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
    case Backend::kAvx2:
      avx2_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
    case Backend::kGfni:
      gfni_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      neon_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
#endif
    default:
      scalar_axpy4(dst, src0, c0, src1, c1, src2, c2, src3, c3, n);
      return;
  }
}

void region_axpy_scatter_backend(Backend backend, std::uint8_t* const* dsts,
                                 const std::uint8_t* coeffs, std::size_t count,
                                 const std::uint8_t* src, std::size_t n) {
  switch (backend) {
    // The fused scatter paths count here; the default path delegates to
    // region_axpy_backend per destination and is counted there.
#ifdef OMNC_X86
    case Backend::kSsse3:
      count_mul(1, count * n);
      ssse3_axpy_scatter(dsts, coeffs, count, src, n);
      return;
    case Backend::kAvx2:
      count_mul(1, count * n);
      avx2_axpy_scatter(dsts, coeffs, count, src, n);
      return;
    case Backend::kGfni:
      count_mul(1, count * n);
      gfni_axpy_scatter(dsts, coeffs, count, src, n);
      return;
#endif
#ifdef OMNC_NEON
    case Backend::kNeon:
      count_mul(1, count * n);
      neon_axpy_scatter(dsts, coeffs, count, src, n);
      return;
#endif
    default:
      // Scalar, SSE2 and the SWAR fallback gain nothing from hoisting the
      // source, so the scatter form is just the per-destination loop.
      for (std::size_t r = 0; r < count; ++r) {
        region_axpy_backend(backend, dsts[r], src, coeffs[r], n);
      }
      return;
  }
}

}  // namespace omnc::gf
