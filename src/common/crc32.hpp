// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF): the zlib
// polynomial. crc32("123456789") == 0xCBF43926. The dooc::net frame layer
// and the spmv block codec share it, so a payload checksummed on one side
// of the wire verifies identically on the other.
//
// The block codec checks every frame twice (body and decoded payload) on
// the storage fetch path, so CRC throughput bounds decode throughput. Two
// kernels compute the same value:
//  * crc32_clmul (x86-64 with PCLMULQDQ and SSE4.1): folds four 128-bit
//    lanes per 64-byte step with carry-less multiplies, then reduces to
//    32 bits with a Barrett step (the zlib/Chromium crc32_simd method).
//    Inputs under 64 bytes and the tail under 16 bytes go through
//    slice-by-8.
//  * crc32_table: portable slice-by-8, folding 8 bytes per step through
//    eight derived 256-entry tables. Used on other hosts.
// crc32() picks the carry-less kernel once per process when the CPU has
// it; nothing is configured.
//
// crc32_combine joins the CRCs of two adjacent byte ranges without reading
// the bytes again, so pieces of one buffer can be checksummed on different
// threads and folded in order. Little-endian only, like every other dooc
// byte layout (wire frames and block formats carry an endian probe and
// reject foreign byte order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dooc::common {

namespace detail {
/// Slice-by-8 kernel; any host, any length.
[[nodiscard]] std::uint32_t crc32_table(std::span<const std::byte> bytes) noexcept;
/// True when this CPU can run crc32_clmul (always false off x86-64).
[[nodiscard]] bool crc32_clmul_supported() noexcept;
/// Carry-less-multiply kernel. Call only when crc32_clmul_supported().
[[nodiscard]] std::uint32_t crc32_clmul(std::span<const std::byte> bytes) noexcept;
}  // namespace detail

[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// CRC-32 of A followed by B, given crc32(A), crc32(B) and B's length.
/// O(log len_b) carry-less products mod P; len_b == 0 returns crc_a.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                          std::uint64_t len_b) noexcept;

}  // namespace dooc::common
