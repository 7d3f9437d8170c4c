#include "galois/region.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "galois/gf256.h"

namespace omnc::gf {
namespace {

constexpr Backend kAllBackends[] = {
    Backend::kScalarTable, Backend::kSse2, Backend::kSsse3, Backend::kAvx2,
    Backend::kGfni,        Backend::kNeon, Backend::kPortable};

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = rng.next_byte();
  return v;
}

std::vector<Backend> supported_backends() {
  std::vector<Backend> backends;
  for (Backend backend : kAllBackends) {
    if (backend_supported(backend)) backends.push_back(backend);
  }
  return backends;
}

// Parameterized over (backend, region size): every backend must agree with
// scalar GF arithmetic for sizes that exercise the SIMD main loop and the
// scalar tail.
class RegionBackendTest
    : public ::testing::TestWithParam<std::tuple<Backend, std::size_t>> {};

TEST_P(RegionBackendTest, MulMatchesScalarField) {
  const auto [backend, size] = GetParam();
  if (!backend_supported(backend)) GTEST_SKIP();
  Rng rng(1234 + size);
  const auto src = random_bytes(size, rng);
  for (int c : {0, 1, 2, 3, 0x53, 0x80, 0xFF}) {
    std::vector<std::uint8_t> dst(size, 0xAA);
    region_mul_backend(backend, dst.data(), src.data(),
                       static_cast<std::uint8_t>(c), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(dst[i], mul(static_cast<std::uint8_t>(c), src[i]))
          << "c=" << c << " i=" << i;
    }
  }
}

TEST_P(RegionBackendTest, AxpyMatchesScalarField) {
  const auto [backend, size] = GetParam();
  if (!backend_supported(backend)) GTEST_SKIP();
  Rng rng(99 + size);
  const auto src = random_bytes(size, rng);
  const auto base = random_bytes(size, rng);
  for (int c : {0, 1, 7, 0x1B, 0xFE}) {
    auto dst = base;
    region_axpy_backend(backend, dst.data(), src.data(),
                        static_cast<std::uint8_t>(c), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(dst[i], add(base[i], mul(static_cast<std::uint8_t>(c), src[i])));
    }
  }
}

TEST_P(RegionBackendTest, MulInPlace) {
  const auto [backend, size] = GetParam();
  if (!backend_supported(backend)) GTEST_SKIP();
  Rng rng(7 + size);
  auto data = random_bytes(size, rng);
  const auto original = data;
  region_mul_backend(backend, data.data(), data.data(), 0x35, size);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(data[i], mul(0x35, original[i]));
  }
}

// The ragged lengths hit: empty, sub-register, one-off-register boundaries
// for 16- and 32-byte kernels, and a large region with a tail.
INSTANTIATE_TEST_SUITE_P(
    SizesAndBackends, RegionBackendTest,
    ::testing::Combine(::testing::ValuesIn(kAllBackends),
                       ::testing::Values<std::size_t>(0, 1, 15, 16, 17, 31, 32,
                                                      33, 64, 255, 1024, 1031,
                                                      4096 + 7)));

// ---------------------------------------------------------------------------
// Backend-equivalence property test: every supported backend, over random
// constants and ragged lengths, cross-checked byte-for-byte against the
// bitwise mul_slow reference — including the fused region_axpy2/4 kernels
// and deliberately misaligned source/destination offsets.  Every size
// 0..96 walks each backend through every mix of its vector loops (gfni's
// 16- and 8-byte tail steps included) and its scalar tail, the 40- and
// 80-byte RREF rows among them.  Every destination, scatter destinations
// included, is followed by at least kSlack bytes that must come back
// unchanged, so an overlong vector store fails on every backend.
// ---------------------------------------------------------------------------

constexpr std::size_t kSlack = 8;

/// Success iff `out` equals `before` everywhere outside [off, off + size).
::testing::AssertionResult untouched_outside(
    const std::vector<std::uint8_t>& out,
    const std::vector<std::uint8_t>& before, std::size_t off,
    std::size_t size) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i >= off && i < off + size) continue;
    if (out[i] != before[i]) {
      return ::testing::AssertionFailure()
             << "byte " << i - off << " past a " << size
             << "-byte region was written";
    }
  }
  return ::testing::AssertionSuccess();
}

class RegionPropertyTest : public ::testing::TestWithParam<Backend> {};

TEST_P(RegionPropertyTest, KernelsMatchMulSlowOnRaggedMisalignedRegions) {
  const Backend backend = GetParam();
  if (!backend_supported(backend)) GTEST_SKIP();
  Rng rng(20240801);
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= 96; ++size) sizes.push_back(size);
  sizes.push_back(4096 + 7);
  for (const std::size_t size : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      // Offsets 0..3 knock every buffer off SIMD alignment in different ways.
      const std::size_t dst_off = static_cast<std::size_t>(trial);
      const std::size_t src_off = static_cast<std::size_t>(3 - trial);
      const std::size_t span = size + 3 + kSlack;
      auto dst_buf = random_bytes(span, rng);
      auto s0_buf = random_bytes(span, rng);
      auto s1_buf = random_bytes(span, rng);
      auto s2_buf = random_bytes(span, rng);
      auto s3_buf = random_bytes(span, rng);
      std::uint8_t c[4];
      for (auto& v : c) v = rng.next_byte();
      std::uint8_t* dst = dst_buf.data() + dst_off;
      const std::uint8_t* s0 = s0_buf.data() + src_off;
      const std::uint8_t* s1 = s1_buf.data() + src_off;
      const std::uint8_t* s2 = s2_buf.data() + src_off;
      const std::uint8_t* s3 = s3_buf.data() + src_off;

      // mul
      {
        auto out = dst_buf;
        region_mul_backend(backend, out.data() + dst_off, s0, c[0], size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(out[dst_off + i], mul_slow(c[0], s0[i]))
              << backend_name(backend) << " mul size=" << size;
        }
        ASSERT_TRUE(untouched_outside(out, dst_buf, dst_off, size))
            << backend_name(backend) << " mul";
      }
      // axpy
      {
        auto out = dst_buf;
        region_axpy_backend(backend, out.data() + dst_off, s0, c[0], size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(out[dst_off + i],
                    static_cast<std::uint8_t>(dst[i] ^ mul_slow(c[0], s0[i])))
              << backend_name(backend) << " axpy size=" << size;
        }
        ASSERT_TRUE(untouched_outside(out, dst_buf, dst_off, size))
            << backend_name(backend) << " axpy";
      }
      // axpy2 (also with a zero and a one constant in the mix)
      for (const std::uint8_t c1 :
           {c[1], static_cast<std::uint8_t>(0), static_cast<std::uint8_t>(1)}) {
        auto out = dst_buf;
        region_axpy2_backend(backend, out.data() + dst_off, s0, c[0], s1, c1,
                             size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(out[dst_off + i],
                    static_cast<std::uint8_t>(dst[i] ^ mul_slow(c[0], s0[i]) ^
                                              mul_slow(c1, s1[i])))
              << backend_name(backend) << " axpy2 size=" << size;
        }
        ASSERT_TRUE(untouched_outside(out, dst_buf, dst_off, size))
            << backend_name(backend) << " axpy2";
      }
      // axpy_scatter: one source into three misaligned destinations, with a
      // zero and a one in the coefficient mix
      {
        auto d0 = dst_buf;
        auto d1 = s1_buf;
        auto d2 = s2_buf;
        std::uint8_t* scatter_dsts[3] = {d0.data() + dst_off,
                                         d1.data() + dst_off,
                                         d2.data() + dst_off};
        const std::uint8_t scatter_cs[3] = {c[1], 0, 1};
        region_axpy_scatter_backend(backend, scatter_dsts, scatter_cs, 3, s0,
                                    size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(d0[dst_off + i],
                    static_cast<std::uint8_t>(dst_buf[dst_off + i] ^
                                              mul_slow(c[1], s0[i])))
              << backend_name(backend) << " scatter size=" << size;
          ASSERT_EQ(d1[dst_off + i], s1_buf[dst_off + i])
              << backend_name(backend) << " scatter c=0 size=" << size;
          ASSERT_EQ(d2[dst_off + i],
                    static_cast<std::uint8_t>(s2_buf[dst_off + i] ^ s0[i]))
              << backend_name(backend) << " scatter c=1 size=" << size;
        }
        ASSERT_TRUE(untouched_outside(d0, dst_buf, dst_off, size))
            << backend_name(backend) << " scatter";
        ASSERT_TRUE(untouched_outside(d1, s1_buf, dst_off, size))
            << backend_name(backend) << " scatter c=0";
        ASSERT_TRUE(untouched_outside(d2, s2_buf, dst_off, size))
            << backend_name(backend) << " scatter c=1";
      }
      // axpy4
      {
        auto out = dst_buf;
        region_axpy4_backend(backend, out.data() + dst_off, s0, c[0], s1, c[1],
                             s2, c[2], s3, c[3], size);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(out[dst_off + i],
                    static_cast<std::uint8_t>(
                        dst[i] ^ mul_slow(c[0], s0[i]) ^ mul_slow(c[1], s1[i]) ^
                        mul_slow(c[2], s2[i]) ^ mul_slow(c[3], s3[i])))
              << backend_name(backend) << " axpy4 size=" << size;
        }
        ASSERT_TRUE(untouched_outside(out, dst_buf, dst_off, size))
            << backend_name(backend) << " axpy4";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RegionPropertyTest,
                         ::testing::ValuesIn(kAllBackends));

TEST(Region, AxpyManyMatchesPerSourceAxpy) {
  Rng rng(77);
  const Backend original = active_backend();
  for (Backend backend : supported_backends()) {
    set_backend(backend);
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 16u}) {
      const std::size_t n = 257;
      std::vector<std::vector<std::uint8_t>> sources;
      std::vector<const std::uint8_t*> ptrs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t k = 0; k < count; ++k) {
        sources.push_back(random_bytes(n, rng));
        ptrs.push_back(sources.back().data());
        // Sprinkle zero coefficients to exercise the skip path.
        coeffs.push_back(k % 3 == 0 ? 0 : rng.next_byte());
      }
      const auto base = random_bytes(n, rng);
      auto fused = base;
      region_axpy_many(fused.data(), ptrs.data(), coeffs.data(), count, n);
      auto reference = base;
      for (std::size_t k = 0; k < count; ++k) {
        region_axpy_backend(Backend::kScalarTable, reference.data(), ptrs[k],
                            coeffs[k], n);
      }
      EXPECT_EQ(fused, reference)
          << backend_name(backend) << " count=" << count;
    }
  }
  set_backend(original);
}

TEST(Region, XorIsAddition) {
  Rng rng(5);
  for (std::size_t size : {1u, 8u, 16u, 100u, 1024u}) {
    const auto a = random_bytes(size, rng);
    const auto b = random_bytes(size, rng);
    auto dst = a;
    region_xor(dst.data(), b.data(), size);
    for (std::size_t i = 0; i < size; ++i) EXPECT_EQ(dst[i], a[i] ^ b[i]);
  }
}

TEST(Region, AxpyWithCoefficientOneIsXor) {
  Rng rng(6);
  const auto src = random_bytes(333, rng);
  const auto base = random_bytes(333, rng);
  auto via_axpy = base;
  region_axpy(via_axpy.data(), src.data(), 1, 333);
  auto via_xor = base;
  region_xor(via_xor.data(), src.data(), 333);
  EXPECT_EQ(via_axpy, via_xor);
}

TEST(Region, TwoAxpysCancel) {
  // Characteristic 2: applying the same axpy twice is the identity.
  Rng rng(8);
  const auto src = random_bytes(512, rng);
  const auto base = random_bytes(512, rng);
  auto dst = base;
  region_axpy(dst.data(), src.data(), 0x7C, 512);
  region_axpy(dst.data(), src.data(), 0x7C, 512);
  EXPECT_EQ(dst, base);
}

TEST(Region, BackendsProduceIdenticalResults) {
  Rng rng(42);
  const auto src = random_bytes(2048, rng);
  std::vector<std::vector<std::uint8_t>> outputs;
  for (Backend backend : supported_backends()) {
    std::vector<std::uint8_t> dst(2048, 0);
    region_mul_backend(backend, dst.data(), src.data(), 0xC3, 2048);
    outputs.push_back(std::move(dst));
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], outputs[0]);
  }
}

TEST(Region, ActiveBackendSwitching) {
  const Backend original = active_backend();
  for (Backend backend : supported_backends()) {
    set_backend(backend);
    EXPECT_EQ(active_backend(), backend);
    // A small smoke operation through the dispatcher.
    std::uint8_t dst[32] = {0};
    std::uint8_t src[32];
    for (int i = 0; i < 32; ++i) src[i] = static_cast<std::uint8_t>(i * 7);
    region_axpy(dst, src, 0x11, 32);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(dst[i], mul(0x11, src[i]));
  }
  set_backend(original);
}

TEST(Region, BackendNamesAreDistinct) {
  for (Backend a : kAllBackends) {
    for (Backend b : kAllBackends) {
      if (a == b) continue;
      EXPECT_STRNE(backend_name(a), backend_name(b));
    }
  }
}

TEST(Region, UnsupportedBackendsStillResolveNames) {
  // Dispatch metadata must be total even for backends this CPU lacks.
  for (Backend backend : kAllBackends) {
    EXPECT_STRNE(backend_name(backend), "?");
  }
}

TEST(Region, PortableBackendAlwaysSupported) {
  // The SWAR backend needs no vector unit: it must be selectable on every
  // architecture (it is CI's forced-kernel fallback via OMNC_GF_BACKEND).
  EXPECT_TRUE(backend_supported(Backend::kPortable));
}

}  // namespace
}  // namespace omnc::gf
