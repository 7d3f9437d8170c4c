// Private to src/wire and its tests: the two implementations behind
// wire::crc32c (frame.h).  wire::crc32c picks one of them once per process
// and nothing can force the other at run time, so tests call both directly
// to prove they agree.
#pragma once

#include <cstdint>
#include <span>

namespace omnc::wire::crc32c_paths {

/// Portable slice-by-8 table walk; runs on every target.
std::uint32_t table(std::span<const std::uint8_t> bytes);

/// True when this CPU executes the SSE4.2 crc32 instruction (x86-64 only).
bool hardware_supported();

/// The SSE4.2 crc32 path.  Requires hardware_supported().
std::uint32_t hardware(std::span<const std::uint8_t> bytes);

}  // namespace omnc::wire::crc32c_paths
