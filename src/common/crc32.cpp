#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define DOMINO_CRC32_CLMUL 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace domino {

namespace crc32_internal {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slice-by-8 tables: kTable[0] is the classic byte-at-a-time table;
// kTable[k] advances a byte through k additional zero bytes, letting the
// hot loop fold 8 input bytes per iteration with 8 independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kT = MakeTables();

/// Advances the raw (pre-inverted) CRC register `c` over `n` bytes.
std::uint32_t TableUpdate(std::uint32_t c, const unsigned char* p,
                          std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
          kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^
          kT[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    c = kT[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if DOMINO_CRC32_CLMUL

// The build sets no -march, so the intrinsics are enabled per function.
#define DOMINO_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// One 128-bit fold: carries `x` forward by the distance `k` encodes and
/// adds the next 16 bytes `data`.
DOMINO_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i data) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), data);
}

DOMINO_CLMUL_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the raw CRC register over `n` bytes; n >= 64 and n % 16 == 0.
/// Four independent 128-bit lanes fold 64 bytes per iteration, then fold
/// into one lane, absorb the remaining 16-byte blocks, and reduce 128 -> 64
/// -> 32 bits with a final Barrett reduction.
DOMINO_CLMUL_TARGET std::uint32_t ClmulFold(std::uint32_t c,
                                            const unsigned char* p,
                                            std::size_t n) {
  // Folding constants for the bit-reflected polynomial 0xEDB88320 (Gopal
  // et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
  // Instruction", Intel, 2009): x^k mod P(x), bit-reflected and shifted one
  // place, for folds across 512 and 128 bits, the 64 -> 32 bit step, and
  // the Barrett pair (P, mu). _mm_set_epi64x takes (hi, lo).
  const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  // The hardware prefetcher alone leaves a buffer streamed from DRAM
  // latency-bound; requesting the line 4 KiB ahead (only while that is
  // still inside the buffer) keeps more misses in flight.
  constexpr std::size_t kPrefetchAhead = 4096;
  while (n >= 64) {
    if (n >= kPrefetchAhead + 64) {
      _mm_prefetch(reinterpret_cast<const char*>(p + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
    p += 64;
    n -= 64;
  }
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  while (n >= 16) {
    x0 = Fold(x0, k128, Load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits (also appends the 32 zero bits the CRC definition
  // implies), then 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  __m128i hi32 = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k64, 0x00);
  x0 = _mm_xor_si128(x0, hi32);

  // Barrett reduction: q = floor(x / P) via mu, then x - q * P.
  const __m128i x = x0;
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, x);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

bool DetectClmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kPclmulqdq = 1u << 1;  // CPUID.01H:ECX.PCLMULQDQ
  constexpr unsigned kSse41 = 1u << 19;     // CPUID.01H:ECX.SSE4_1
  return (ecx & kPclmulqdq) != 0 && (ecx & kSse41) != 0;
}

#endif  // DOMINO_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32Table(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  return TableUpdate(seed ^ 0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

bool ClmulAvailable() {
#if DOMINO_CRC32_CLMUL
  static const bool available = DetectClmul();
  return available;
#else
  return false;
#endif
}

std::uint32_t Crc32Clmul(const void* data, std::size_t n, std::uint32_t seed) {
#if DOMINO_CRC32_CLMUL
  if (n >= 64) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t folded = n & ~std::size_t{15};
    std::uint32_t c = ClmulFold(seed ^ 0xFFFFFFFFu, p, folded);
    return TableUpdate(c, p + folded, n - folded) ^ 0xFFFFFFFFu;
  }
#endif
  return Crc32Table(data, n, seed);
}

}  // namespace crc32_internal

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  if (n >= 64 && crc32_internal::ClmulAvailable()) {
    return crc32_internal::Crc32Clmul(data, n, seed);
  }
  return crc32_internal::Crc32Table(data, n, seed);
}

}  // namespace domino
