#include "common/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dooc::common {

namespace {

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = make_tables();

// Polynomials mod P in the reflected bit order of the table kernel: the
// coefficient of x^0 is bit 31, so x^0 is 1 << 31 and x^1 is 1 << 30.
constexpr std::uint32_t kPolyReflected = 0xEDB88320u;

/// a(x) * b(x) mod P(x), bit-serially over a's set coefficients.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; a != 0; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      a ^= m;
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ kPolyReflected : b >> 1;
  }
  return product;
}

/// kPow2k[k] = x^(2^k) mod P. P is primitive, so x^(2^32) = x and the
/// powers repeat with period 32.
constexpr std::array<std::uint32_t, 32> make_pow2k() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (auto& e : t) {
    e = p;
    p = mul_mod_p(p, p);
  }
  return t;
}

constexpr std::array<std::uint32_t, 32> kPow2k = make_pow2k();

/// Slice-by-8 over `n` bytes, continuing the (pre-inverted) running `crc`.
std::uint32_t table_update(std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  const auto& t = kTables;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

#define DOOC_CLMUL __attribute__((target("pclmul,sse4.1")))

DOOC_CLMUL inline __m128i load128(const std::byte* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// x * x^k mod P in both 64-bit halves, xor `next`.
DOOC_CLMUL inline __m128i fold(__m128i x, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Fold `n` bytes (n >= 64, a multiple of 16) into the running `crc`. The
/// constants are the bit-reflected x^k mod P(x) values for the IEEE
/// polynomial and its Barrett pair, as published with zlib's crc32_simd.
DOOC_CLMUL std::uint32_t clmul_update(std::uint32_t crc, const std::byte* p,
                                      std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
    p += 64;
    n -= 64;
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load128(p));

  // 128 -> 64 bits.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00), x2r);
  // Barrett reduction to 32 bits.
  x2r = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2r = _mm_clmulepi64_si128(_mm_and_si128(x2r, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef DOOC_CLMUL

#endif

}  // namespace

namespace detail {

std::uint32_t crc32_table(std::span<const std::byte> bytes) noexcept {
  return table_update(0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

bool crc32_clmul_supported() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_clmul(std::span<const std::byte> bytes) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
#if defined(__x86_64__)
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = clmul_update(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return table_update(crc, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  static const bool use_clmul = detail::crc32_clmul_supported();
  return use_clmul ? detail::crc32_clmul(bytes) : detail::crc32_table(bytes);
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept {
  // crc(A || B) = crc(A) * x^(8 len_b) + crc(B) mod P: the init and xorout
  // terms of the two CRCs cancel. A short B multiplies by x^8 per byte
  // through the table (a CRC step over a zero byte); a longer one builds
  // the shift from the binary digits of len_b, from x^(2^3) for one byte.
  if (len_b < 64) {
    for (; len_b != 0; --len_b) crc_a = kTables[0][crc_a & 0xFFu] ^ (crc_a >> 8);
    return crc_a ^ crc_b;
  }
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1u) != 0) shift = mul_mod_p(kPow2k[k & 31u], shift);
  }
  return mul_mod_p(shift, crc_a) ^ crc_b;
}

}  // namespace dooc::common
