// Internal: the two CRC-32 kernels behind Crc32 (crc32.h). Exposed only so
// the tests can pin each kernel against a bitwise reference whichever one
// this CPU selects; everything else calls Crc32.
#pragma once

#include <cstddef>
#include <cstdint>

namespace domino::crc32_internal {

/// Slice-by-8 table kernel: any length, any CPU. Same contract as Crc32.
std::uint32_t Crc32Table(const void* data, std::size_t n, std::uint32_t seed);

/// True when the CPU has PCLMULQDQ and SSE4.1 (read once from CPUID).
bool ClmulAvailable();

/// Carry-less-multiply folding kernel: folds whole 16-byte blocks of inputs
/// of 64 bytes or more, and hands short inputs and the final <16-byte tail
/// to Crc32Table. Same contract as Crc32; requires ClmulAvailable() (on
/// other CPUs and non-x86 builds it is Crc32Table).
std::uint32_t Crc32Clmul(const void* data, std::size_t n, std::uint32_t seed);

}  // namespace domino::crc32_internal
