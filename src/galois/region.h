// Bulk GF(2^8) region kernels — the hot path of network coding.
//
// Seven backends implement the same contract:
//   * kScalarTable — per-byte full multiplication table lookups, the
//     "traditional lookup-table approach" (MORE-style) the paper compares
//     against;
//   * kSse2 — the paper's accelerated scheme: a loop-based (double-and-add)
//     multiply over Rijndael's field carried out on 16-byte SSE2 registers,
//     no per-byte table lookups;
//   * kSsse3 — nibble split tables with PSHUFB, the fastest portable x86
//     variant; included to show the acceleration headroom beyond SSE2;
//   * kAvx2 — the same nibble-table scheme widened to 32-byte VPSHUFB
//     registers (both 128-bit lanes carry the same 16-entry table);
//   * kGfni — GF2P8MULB computes the product in GF(2^8) over the AES
//     polynomial 0x11B directly — exactly this codebase's field — one
//     instruction per 32 bytes, no tables at all;
//   * kNeon — the nibble-table scheme on 16-byte NEON registers via
//     vqtbl1q_u8 (aarch64 only), sharing the precomputed lo/hi tables with
//     the x86 shuffle backends;
//   * kPortable — a plain-C 64-bit SWAR double-and-add multiply (the SSE2
//     scheme on uint64 lanes), the fallback for targets with neither x86
//     nor NEON vector units.  Compiled and selectable everywhere, so x86 CI
//     can force it to keep non-x86 code paths green.
//
// On top of the single-source kernels, the fused variants region_axpy2 /
// region_axpy4 fold two or four source rows into one destination pass; the
// destination is read and written once instead of per source, roughly
// halving (or quartering) memory traffic during Gaussian elimination and
// re-encoding.  region_axpy_many drives them over an arbitrary source list.
//
// The active backend is chosen at startup from CPUID (leaf 1, leaf 7 and
// XGETBV for the OS-enabled AVX state; NEON is implied by the aarch64
// baseline) and can be overridden programmatically (set_backend) or with
// OMNC_GF_BACKEND=scalar|sse2|ssse3|avx2|gfni|neon|portable.
#pragma once

#include <cstddef>
#include <cstdint>

namespace omnc::gf {

enum class Backend {
  kScalarTable,
  kSse2,
  kSsse3,
  kAvx2,
  kGfni,
  kNeon,
  kPortable,
};

/// True if the instruction set for `backend` is available on this CPU.
bool backend_supported(Backend backend);

/// Selects the region-kernel backend; asserts that it is supported.
void set_backend(Backend backend);

/// Currently active backend.
Backend active_backend();

const char* backend_name(Backend backend);

/// Thread-local accounting of GF *multiply* kernel work (region_mul and the
/// axpy family; region_xor is multiply-free and deliberately not counted).
/// Every dispatch funnels through the region_*_backend functions, so the
/// counters see all multiply traffic regardless of backend or fusing.  Used
/// by the code-family tests to prove structural claims — e.g. that a
/// systematic decode of a lossless generation performs zero multiplies.
struct KernelStats {
  std::uint64_t mul_calls = 0;  // multiply-kernel invocations
  std::uint64_t mul_bytes = 0;  // source bytes folded through multiplies
};

/// Snapshot of this thread's counters since the last reset.
KernelStats kernel_stats();

/// Zeroes this thread's counters.
void reset_kernel_stats();

/// dst[i] ^= src[i]
void region_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

/// dst[i] = c * src[i]; in-place (dst == src) is allowed.
void region_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n);

/// dst[i] ^= c * src[i]; the encode/decode workhorse.  dst and src must not
/// alias unless equal... they must be either identical or disjoint.
void region_axpy(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                 std::size_t n);

/// dst[i] ^= c0 * src0[i] ^ c1 * src1[i]; one destination read/write pass
/// for two sources.  dst must not alias either source.
void region_axpy2(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1, std::size_t n);

/// Four-source fold; dst must not alias any source.
void region_axpy4(std::uint8_t* dst, const std::uint8_t* src0, std::uint8_t c0,
                  const std::uint8_t* src1, std::uint8_t c1,
                  const std::uint8_t* src2, std::uint8_t c2,
                  const std::uint8_t* src3, std::uint8_t c3, std::size_t n);

/// dst[i] ^= sum_k coeffs[k] * srcs[k][i] over `count` sources.  Skips zero
/// coefficients and consumes the fused kernels four (then two) sources at a
/// time; the workhorse of batched payload elimination and re-encoding.
void region_axpy_many(std::uint8_t* dst, const std::uint8_t* const* srcs,
                      const std::uint8_t* coeffs, std::size_t count,
                      std::size_t n);

/// The scatter dual of region_axpy_many: dsts[k][i] ^= coeffs[k] * src[i]
/// for every k.  One source applied to `count` destinations in a single
/// call — the source block (and, for the shuffle backends, its nibble
/// split) is loaded once per register-width chunk instead of once per
/// destination.  This is the back-substitution shape in Gaussian
/// elimination, where per-call setup would otherwise dominate the short
/// rows.  No dsts[k] may alias src or another destination.
void region_axpy_scatter(std::uint8_t* const* dsts, const std::uint8_t* coeffs,
                         std::size_t count, const std::uint8_t* src,
                         std::size_t n);

// Direct entry points for a specific backend, used by the coding-speed bench
// and the backend-equivalence tests to exercise each variant regardless of
// the global selection.
void region_mul_backend(Backend backend, std::uint8_t* dst,
                        const std::uint8_t* src, std::uint8_t c, std::size_t n);
void region_axpy_backend(Backend backend, std::uint8_t* dst,
                         const std::uint8_t* src, std::uint8_t c, std::size_t n);
void region_axpy2_backend(Backend backend, std::uint8_t* dst,
                          const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1,
                          std::size_t n);
void region_axpy4_backend(Backend backend, std::uint8_t* dst,
                          const std::uint8_t* src0, std::uint8_t c0,
                          const std::uint8_t* src1, std::uint8_t c1,
                          const std::uint8_t* src2, std::uint8_t c2,
                          const std::uint8_t* src3, std::uint8_t c3,
                          std::size_t n);
void region_axpy_scatter_backend(Backend backend, std::uint8_t* const* dsts,
                                 const std::uint8_t* coeffs, std::size_t count,
                                 const std::uint8_t* src, std::size_t n);

}  // namespace omnc::gf
