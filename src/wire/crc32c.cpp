// CRC32C, the Castagnoli CRC that iSCSI, SCTP and ext4 use, as the frame
// checksum (frame.h).  Standard parameters: reflected polynomial 0x82F63B78,
// initial value and final XOR 0xFFFFFFFF, so crc32c("123456789") is
// 0xE3069283.  x86-64 CPUs with SSE4.2 run the crc32 instruction (eight
// bytes per step); everything else, AArch64 included, walks slice-by-8
// tables.  The path is chosen on the first checksum and kept for the life of
// the process.
#include "wire/crc32c_paths.h"

#include <cstddef>
#include <cstring>

#include "common/assert.h"
#include "wire/frame.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define OMNC_CRC32C_SSE42 1
#endif

namespace omnc::wire {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;

/// Slice-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so one step folds eight input
/// bytes through eight independent lookups.
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Raw CRC update, without the initial and final inversion.
std::uint32_t table_update(std::uint32_t crc, const std::uint8_t* p,
                           std::size_t n) {
  const auto& t = kTables.t;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return crc;
}

#ifdef OMNC_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t hardware_update(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  std::uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                   std::size_t);

UpdateFn select_update() {
#ifdef OMNC_CRC32C_SSE42
  if (crc32c_paths::hardware_supported()) return hardware_update;
#endif
  return table_update;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> bytes) {
  // A function-local static: chosen once, on first use, after the runtime
  // (and CPU feature detection) is fully initialized.
  static const UpdateFn update = select_update();
  return ~update(~0u, bytes.data(), bytes.size());
}

namespace crc32c_paths {

std::uint32_t table(std::span<const std::uint8_t> bytes) {
  return ~table_update(~0u, bytes.data(), bytes.size());
}

bool hardware_supported() {
#ifdef OMNC_CRC32C_SSE42
  // __builtin_cpu_supports reads state __builtin_cpu_init fills; calling it
  // here keeps the check valid even before static constructors have run.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::uint32_t hardware(std::span<const std::uint8_t> bytes) {
  OMNC_ASSERT_MSG(hardware_supported(), "CPU lacks the SSE4.2 crc32 path");
#ifdef OMNC_CRC32C_SSE42
  return ~hardware_update(~0u, bytes.data(), bytes.size());
#else
  return table(bytes);
#endif
}

}  // namespace crc32c_paths
}  // namespace omnc::wire
