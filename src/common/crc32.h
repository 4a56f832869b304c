// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// check used by the binary telemetry wire format. Carry-less-multiply
// folding on x86 CPUs with PCLMULQDQ (detected once from CPUID), slice-by-8
// tables for short inputs, tails and every other CPU; no external
// dependencies.
#pragma once

#include <cstddef>
#include <cstdint>

namespace domino {

/// Computes the CRC-32 of `n` bytes at `data`. Pass a previous result as
/// `seed` to continue a running checksum over discontiguous chunks
/// (Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b))).
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace domino
