// spmv::codec — the per-block compression layer of the storage hot path:
//
//  * CodecConfig: the DOOC_CODEC key=value grammar, rejection of malformed
//    specs;
//  * round trip: every codec x format pair decodes bitwise-identically, on
//    generated and edge-case matrices; non-matrix payloads travel raw;
//  * CRC-32: the carry-less-multiply and slice-by-8 kernels agree with
//    each other and with the standard check values; crc32_combine joins
//    the CRCs of any split of a buffer;
//  * pooled decode: a frame decoded on helper threads yields the same bytes
//    and the same CodecError as one decoded inline (every hostile frame
//    below is decoded both ways), errors keep a serial decode's
//    precedence, one-section frames written before sections were cut at
//    1 MiB still decode, and a body of millions of empty sections is
//    rejected without a section directory the size of the body;
//  * hostile input: truncated frames, ratio-bomb headers (capped before any
//    allocation), CRC mismatches and malformed section streams all surface
//    as typed CodecError — including hand-forged frames whose CRCs are
//    valid but whose varint streams are not (varints straddling a section
//    end or a load window, long and overlong varints, seeded byte flips);
//  * BufferPool: aligned, padded acquisitions; free-list reuse; bounded
//    retention;
//  * storage + engine: encoded blocks decode transparently on the fetch
//    path, solver results stay bitwise identical across codec modes (incl.
//    read_ahead and the O_DIRECT fallback), fault injection composes with
//    compressed blocks, and the decode cost shows up as kBlameDecode;
//  * DES: the virtual decode stage moves makespan the right way with
//    codec_ratio/decode_rate and attributes the same kBlameDecode category
//    as the real engine — the cross-backend parity the ablation relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "simcluster/testbed.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/block_grid.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"
#include "spmv/sell.hpp"
#include "storage/buffer_pool.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

// Largest single operator-new request while g_track_allocations is set:
// lets a test bound the memory a decode allocates. The scalar forms are
// replaced together (malloc/free underneath), so sanitizer runtimes see
// matching pairs; the array and aligned forms keep their defaults.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dooc {
namespace {

using spmv::codec::CodecConfig;
using spmv::codec::CodecError;
using spmv::codec::Mode;

std::vector<std::byte> serialize(const spmv::CsrMatrix& m, bool sell) {
  std::vector<std::byte> csr;
  serialize_csr(m, csr);
  if (!sell) return csr;
  std::vector<std::byte> out;
  serialize_sell(spmv::build_sell(spmv::CsrView::from_bytes(csr), 8, 64), out);
  return out;
}

void expect_bitwise_round_trip(const std::vector<std::byte>& raw, const CodecConfig& cfg,
                               const std::string& what) {
  const auto frame = spmv::codec::encode_block(raw, cfg);
  ASSERT_TRUE(frame.has_value()) << what << ": encoder declined a matrix payload";
  ASSERT_TRUE(spmv::codec::is_encoded(frame->span())) << what;
  EXPECT_EQ(spmv::codec::decoded_bytes(frame->span(), raw.size()), raw.size()) << what;
  const DataBuffer decoded = spmv::codec::decode_block(frame->span(), raw.size());
  ASSERT_EQ(decoded.size(), raw.size()) << what;
  EXPECT_EQ(std::memcmp(decoded.data(), raw.data(), raw.size()), 0)
      << what << ": decode is not bitwise identical";
}

// ---------------------------------------------------------------------------
// CodecConfig: the DOOC_CODEC grammar
// ---------------------------------------------------------------------------

TEST(CodecConfig, ParseReadsTheFullGrammar) {
  const CodecConfig c =
      CodecConfig::parse("adaptive,min_ratio=1.25,shuffle=0,direct_io=1,read_ahead=3");
  EXPECT_EQ(c.mode, Mode::Adaptive);
  EXPECT_DOUBLE_EQ(c.min_ratio, 1.25);
  EXPECT_FALSE(c.shuffle_values);
  EXPECT_TRUE(c.direct_io);
  EXPECT_EQ(c.read_ahead, 3);

  EXPECT_EQ(CodecConfig::parse("mode=on").mode, Mode::On);
  EXPECT_EQ(CodecConfig::parse("off").mode, Mode::Off);
  EXPECT_EQ(CodecConfig::parse("").mode, Mode::Off);
  EXPECT_TRUE(CodecConfig::parse("on").enabled());
}

TEST(CodecConfig, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(CodecConfig::parse("mode=sideways"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,zstd_level=3"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,min_ratio=fast"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,min_ratio=0.5"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,read_ahead=-1"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Round trip: every codec x format pair, bitwise
// ---------------------------------------------------------------------------

TEST(CodecRoundTrip, EveryCodecFormatPairIsBitwise) {
  std::vector<std::pair<const char*, spmv::CsrMatrix>> kinds;
  kinds.emplace_back("uniform", spmv::generate_uniform_gap(512, 512, 6.0, 0xc0dec));
  kinds.emplace_back("power-law", spmv::generate_power_law(512, 512, 12.0, 1.5, 0xc0dec));
  kinds.emplace_back("banded", spmv::generate_banded(512, 9, 4.0));

  CodecConfig noshuffle;
  noshuffle.mode = Mode::On;
  noshuffle.shuffle_values = false;
  const std::pair<const char*, CodecConfig> variants[] = {
      {"on", CodecConfig{Mode::On}},
      {"on-noshuffle", noshuffle},
      {"adaptive", CodecConfig{Mode::Adaptive}},
  };

  for (const auto& [kind, matrix] : kinds) {
    for (const bool sell : {false, true}) {
      const std::vector<std::byte> raw = serialize(matrix, sell);
      for (const auto& [vname, cfg] : variants) {
        expect_bitwise_round_trip(
            raw, cfg, std::string(kind) + "/" + (sell ? "sell" : "csr") + "/" + vname);
      }
    }
  }
}

TEST(CodecRoundTrip, EdgeMatricesSurvive) {
  // Empty matrix, single-row matrix, and a tiny fully dense one — the
  // degenerate shapes where off-by-one section logic would show.
  spmv::CsrMatrix empty;
  empty.rows = 0;
  empty.cols = 0;
  empty.row_ptr = {0};

  spmv::CsrMatrix single;
  single.rows = 1;
  single.cols = 8;
  single.row_ptr = {0, 3};
  single.col_idx = {0, 3, 7};
  single.values = {1.0, -2.5, 1e300};

  spmv::CsrMatrix dense;
  dense.rows = 16;
  dense.cols = 16;
  dense.row_ptr.push_back(0);
  for (std::uint64_t r = 0; r < 16; ++r) {
    for (std::uint32_t c = 0; c < 16; ++c) {
      dense.col_idx.push_back(c);
      dense.values.push_back(static_cast<double>(r * 16 + c) * 0.25);
    }
    dense.row_ptr.push_back(dense.col_idx.size());
  }

  const CodecConfig on{Mode::On};
  int i = 0;
  for (const spmv::CsrMatrix* m : {&empty, &single, &dense}) {
    for (const bool sell : {false, true}) {
      expect_bitwise_round_trip(serialize(*m, sell), on,
                                "edge#" + std::to_string(i) + (sell ? "/sell" : "/csr"));
    }
    ++i;
  }
}

TEST(CodecRoundTrip, NonMatrixPayloadTravelsRaw) {
  // Payloads without a matrix magic (vectors, scratch buffers) are never
  // encoded, and decode_if_encoded passes them through untouched.
  DataBuffer blob(1024);
  auto bytes = blob.as<std::uint64_t>();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& w : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    w = x ^= x << 17;
  }
  EXPECT_FALSE(spmv::codec::encode_block(blob.span(), CodecConfig{Mode::On}).has_value());
  const DataBuffer through = spmv::codec::decode_if_encoded(blob, blob.size());
  EXPECT_EQ(through, blob) << "pass-through must alias, not copy";
}

TEST(CodecAdaptive, GateKeepsBlocksRawBelowMinRatio) {
  const auto m = spmv::generate_power_law(256, 256, 8.0, 1.5, 42);
  const std::vector<std::byte> raw = serialize(m, false);

  CodecConfig greedy;
  greedy.mode = Mode::Adaptive;
  greedy.min_ratio = 100.0;  // no real matrix compresses 100x
  EXPECT_FALSE(spmv::codec::encode_block(raw, greedy).has_value());

  CodecConfig modest;
  modest.mode = Mode::Adaptive;
  spmv::codec::EncodeStats stats;
  const auto frame = spmv::codec::encode_block(raw, modest, &stats);
  ASSERT_TRUE(frame.has_value());
  EXPECT_GE(stats.ratio(), modest.min_ratio);
  EXPECT_GT(stats.index_ratio(), 1.0) << "column deltas must varint-pack";
}

TEST(CodecEstimate, PredictsAnIndexWinForClusteredColumns) {
  const auto m = spmv::generate_power_law(1024, 1024, 16.0, 1.5, 7);
  const std::vector<std::byte> raw = serialize(m, false);
  const spmv::codec::CodecEstimate est = spmv::codec::estimate_block(raw);
  EXPECT_GT(est.sampled_deltas, 0u);
  EXPECT_GT(est.index_ratio, 1.0);
  EXPECT_GE(est.overall_ratio, 1.0);

  spmv::codec::EncodeStats stats;
  ASSERT_TRUE(spmv::codec::encode_block(raw, CodecConfig{Mode::On}, &stats).has_value());
  // The estimator is a sampler, not an oracle: right direction, right
  // ballpark (within 2x of the achieved index ratio).
  EXPECT_LT(est.index_ratio, stats.index_ratio() * 2.0);
  EXPECT_GT(est.index_ratio, stats.index_ratio() * 0.5);
}

// ---------------------------------------------------------------------------
// CRC-32 kernels
// ---------------------------------------------------------------------------

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

std::span<const std::byte> text_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

constexpr const char* kNoClmul = "this CPU lacks PCLMULQDQ/SSE4.1; only the slice-by-8 kernel runs";

TEST(CodecCrc32, CheckValuesOnBothKernels) {
  // 0xCBF43926 is the standard CRC-32 check value; the 144-byte input is
  // long enough for the carry-less kernel's folding loop (zlib's value).
  const std::string check = "123456789";
  std::string longer;
  for (int i = 0; i < 16; ++i) longer += check;
  EXPECT_EQ(common::detail::crc32_table(text_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(common::detail::crc32_table(text_bytes(longer)), 0x045D0030u);
  EXPECT_EQ(common::crc32(text_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(common::crc32(text_bytes(longer)), 0x045D0030u);
  EXPECT_EQ(common::crc32({}), 0u);
  if (!common::detail::crc32_clmul_supported()) GTEST_SKIP() << kNoClmul;
  EXPECT_EQ(common::detail::crc32_clmul(text_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(common::detail::crc32_clmul(text_bytes(longer)), 0x045D0030u);
}

TEST(CodecCrc32, ClmulMatchesTableOnEveryShortLengthAndOffset) {
  if (!common::detail::crc32_clmul_supported()) GTEST_SKIP() << kNoClmul;
  const std::vector<std::byte> buf = random_bytes(1024 + 16, 0xC7C);
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      if (common::detail::crc32_clmul(s) != common::detail::crc32_table(s)) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        if (++mismatches == 10) return;
      }
    }
  }
}

TEST(CodecCrc32, ClmulMatchesTableOnAMultiMiBBuffer) {
  if (!common::detail::crc32_clmul_supported()) GTEST_SKIP() << kNoClmul;
  const std::vector<std::byte> buf = random_bytes((5u << 20) + 13, 0xB16);
  EXPECT_EQ(common::detail::crc32_clmul(buf), common::detail::crc32_table(buf));
  EXPECT_EQ(common::crc32(buf), common::detail::crc32_table(buf));
}

using CrcKernel = std::uint32_t (*)(std::span<const std::byte>) noexcept;

/// The table kernel, plus the carry-less one when this CPU has it.
std::vector<CrcKernel> crc_kernels() {
  std::vector<CrcKernel> kernels = {&common::detail::crc32_table};
  if (common::detail::crc32_clmul_supported()) kernels.push_back(&common::detail::crc32_clmul);
  return kernels;
}

TEST(CodecCrc32, CombineMatchesEverySplitOfShortInputsOnBothKernels) {
  const std::vector<std::byte> buf = random_bytes(1024, 0xC0B);
  for (const CrcKernel crc : crc_kernels()) {
    std::vector<std::uint32_t> prefix(buf.size() + 1);
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) prefix[cut] = crc({buf.data(), cut});
    int mismatches = 0;
    for (std::size_t len = 0; len <= buf.size(); ++len) {
      for (std::size_t cut = 0; cut <= len; ++cut) {
        const std::uint32_t tail = crc({buf.data() + cut, len - cut});
        if (common::crc32_combine(prefix[cut], tail, len - cut) != prefix[len]) {
          ADD_FAILURE() << "length " << len << " cut " << cut;
          if (++mismatches == 10) return;
        }
      }
    }
  }
}

TEST(CodecCrc32, CombineFoldsRandomSplitsOfAMultiMiBBuffer) {
  const std::vector<std::byte> buf = random_bytes((5u << 20) + 13, 0x5B1);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = common::detail::crc32_table(all);
  SplitMix64 rng(0xC0B1);
  for (const CrcKernel crc : crc_kernels()) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t cut = rng.next_below(buf.size() + 1);
      EXPECT_EQ(common::crc32_combine(crc(all.first(cut)), crc(all.subspan(cut)),
                                      buf.size() - cut),
                whole)
          << "cut " << cut;
    }
    // Many pieces, from a few bytes to over a MiB, folded in order.
    for (int trial = 0; trial < 4; ++trial) {
      std::uint32_t folded = crc({});
      for (std::size_t at = 0; at < buf.size();) {
        const std::size_t len =
            std::min<std::size_t>(buf.size() - at, rng.next_below(trial % 2 ? 64 : 3u << 19));
        folded = common::crc32_combine(folded, crc(all.subspan(at, len)), len);
        at += len;
      }
      EXPECT_EQ(folded, whole) << "trial " << trial;
    }
  }
}

TEST(CodecCrc32, CombineWithAnEmptyPieceKeepsTheOtherCrc) {
  const std::vector<std::byte> buf = random_bytes(300, 0xE0);
  const std::uint32_t empty = common::crc32({});
  for (const std::uint32_t a : {0u, 0xFFFFFFFFu, 0xCBF43926u, common::crc32(buf)}) {
    EXPECT_EQ(common::crc32_combine(a, empty, 0), a);
  }
  EXPECT_EQ(common::crc32_combine(empty, common::crc32(buf), buf.size()), common::crc32(buf));
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

ThreadPool& decode_helpers() {
  static ThreadPool pool(3);
  return pool;
}

/// Decode `frame` inline and again with pooled helpers. Both must yield the
/// same bytes or the same CodecError message. Returns the bytes or rethrows
/// the error, so callers assert on a single outcome.
DataBuffer decode_checked(std::span<const std::byte> frame, std::uint64_t cap) {
  const auto attempt =
      [&](ThreadPool* helpers) -> std::pair<std::optional<DataBuffer>, std::string> {
    try {
      return {spmv::codec::decode_block(frame, cap, helpers), ""};
    } catch (const CodecError& e) {
      return {std::nullopt, e.what()};
    }
  };
  auto [inline_out, inline_error] = attempt(nullptr);
  const auto [pooled_out, pooled_error] = attempt(&decode_helpers());
  EXPECT_EQ(pooled_error, inline_error) << "pooled and inline decode disagree";
  if (inline_out && pooled_out) {
    EXPECT_TRUE(inline_out->size() == pooled_out->size() &&
                (inline_out->size() == 0 ||
                 std::memcmp(inline_out->data(), pooled_out->data(), inline_out->size()) == 0))
        << "pooled and inline decode produced different bytes";
  }
  if (!inline_out) throw CodecError(inline_error);
  return std::move(*inline_out);
}

std::vector<std::byte> valid_frame(std::vector<std::byte>* raw_out = nullptr) {
  const auto m = spmv::generate_power_law(256, 256, 8.0, 1.5, 99);
  std::vector<std::byte> raw = serialize(m, false);
  const auto frame = spmv::codec::encode_block(raw, CodecConfig{Mode::On});
  EXPECT_TRUE(frame.has_value());
  if (raw_out) *raw_out = std::move(raw);
  return {frame->data(), frame->data() + frame->size()};
}

void put_u64(std::vector<std::byte>& buf, std::size_t offset, std::uint64_t v) {
  std::memcpy(buf.data() + offset, &v, 8);
}

/// Hand-forge a frame around an arbitrary body with VALID CRCs, so decode
/// gets past the integrity checks and into the section-stream parser.
std::vector<std::byte> forge_frame(const std::vector<std::byte>& body, std::uint64_t raw_bytes) {
  std::vector<std::byte> frame(spmv::codec::kCodecHeaderBytes + body.size());
  put_u64(frame, 0, spmv::codec::kCodecMagic);
  put_u64(frame, 8, spmv::kEndianProbe);
  put_u64(frame, 16, raw_bytes);
  put_u64(frame, 24, body.size());
  put_u64(frame, 32, 0);  // flags
  const std::uint64_t crc_word =
      static_cast<std::uint64_t>(common::crc32({body.data(), body.size()}));
  put_u64(frame, 40, crc_word);  // raw CRC never reached on these paths
  std::memcpy(frame.data() + spmv::codec::kCodecHeaderBytes, body.data(), body.size());
  return frame;
}

TEST(CodecHostile, TruncatedFramesThrow) {
  const std::vector<std::byte> frame = valid_frame();
  const std::uint64_t cap = 1ull << 30;
  // Header cut short.
  EXPECT_THROW((void)spmv::codec::decoded_bytes(
                   {frame.data(), spmv::codec::kCodecHeaderBytes - 1}, cap),
               CodecError);
  // Body cut short of what the header declares.
  EXPECT_THROW((void)decode_checked({frame.data(), frame.size() - 1}, cap), CodecError);
  EXPECT_THROW((void)decode_checked({frame.data(), frame.size() / 2}, cap), CodecError);
}

TEST(CodecHostile, RatioBombHeaderIsCappedBeforeAllocation) {
  std::vector<std::byte> frame = valid_frame();
  put_u64(frame, 16, 1ull << 60);  // claim an exabyte decodes out of this
  try {
    (void)decode_checked(frame, 64ull << 20);
    FAIL() << "a declared size past the cap must throw";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds cap"), std::string::npos) << e.what();
  }
}

TEST(CodecHostile, BodyCorruptionFailsTheCrc) {
  std::vector<std::byte> raw;
  std::vector<std::byte> frame = valid_frame(&raw);
  frame[spmv::codec::kCodecHeaderBytes + frame.size() / 2] ^= std::byte{0x40};
  try {
    (void)decode_checked(frame, raw.size());
    FAIL() << "a flipped body byte must fail the body CRC";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST(CodecHostile, ForeignEndianAndBadMagicRejected) {
  const std::uint64_t cap = 1ull << 30;
  std::vector<std::byte> frame = valid_frame();
  put_u64(frame, 8, 0x0807060504030201ull);
  EXPECT_THROW((void)decode_checked(frame, cap), CodecError);
  put_u64(frame, 8, spmv::kEndianProbe);
  put_u64(frame, 0, 0x1111111111111111ull);
  EXPECT_THROW((void)spmv::codec::decoded_bytes(frame, cap), CodecError);
}

TEST(CodecHostile, ForgedSectionStreamsThrowTyped) {
  // Valid CRCs, malicious bodies: the section parser must reject each shape
  // with a CodecError, never crash or over-read.
  // 1. Overlong varint: eleven continuation bytes can't encode a u64.
  std::vector<std::byte> overlong(11, std::byte{0x80});
  EXPECT_THROW((void)decode_checked(forge_frame(overlong, 64), 64), CodecError);
  // 2. Varint cut off by the end of the body.
  std::vector<std::byte> cut = {std::byte{0x80}};
  EXPECT_THROW((void)decode_checked(forge_frame(cut, 64), 64), CodecError);
  // 3. raw_len varint present but the section header ends the body.
  std::vector<std::byte> headless = {std::byte{0x10}};
  EXPECT_THROW((void)decode_checked(forge_frame(headless, 64), 64), CodecError);
  // 4. Raw section whose enc_len overruns the body.
  std::vector<std::byte> overrun = {std::byte{0x08}, std::byte{0x00}, std::byte{0x7F}};
  EXPECT_THROW((void)decode_checked(forge_frame(overrun, 64), 64), CodecError);
  // 5. Unknown section encoding.
  std::vector<std::byte> unknown = {std::byte{0x08}, std::byte{0x09}, std::byte{0x08},
                                    std::byte{0},    std::byte{0},    std::byte{0},
                                    std::byte{0},    std::byte{0},    std::byte{0},
                                    std::byte{0},    std::byte{0}};
  EXPECT_THROW((void)decode_checked(forge_frame(unknown, 8), 8), CodecError);
  // 6. Sections that exceed the declared decoded size.
  std::vector<std::byte> oversize = {std::byte{0x20}, std::byte{0x00}, std::byte{0x20}};
  oversize.resize(3 + 0x20, std::byte{0});
  EXPECT_THROW((void)decode_checked(forge_frame(oversize, 8), 8), CodecError);
}

TEST(CodecHostile, HugeZigzagDeltaIsRejectedWithoutOverflow) {
  // A zigzag-u32 section whose second delta unzigzags to INT64_MAX: added
  // to a nonzero prefix this overflowed the signed accumulator before the
  // range check (UB under UBSan). The wrapped unsigned sum must land
  // outside [0, 2^32) and throw the typed range error instead.
  std::vector<std::byte> body = {std::byte{0x08},   // raw_len = 8 (two u32s)
                                 std::byte{0x02},   // encoding: zigzag-u32
                                 std::byte{0x0B},   // enc_len = 11
                                 std::byte{0x02}};  // zigzag(+1) -> prev = 1
  body.insert(body.end(), {std::byte{0xFE}});  // varint(2^64 - 2): unzigzag = INT64_MAX
  body.insert(body.end(), 8, std::byte{0xFF});
  body.push_back(std::byte{0x01});
  try {
    (void)decode_checked(forge_frame(body, 8), 8);
    FAIL() << "an out-of-range reconstructed u32 must throw";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
  }

  // The INT64_MIN twin (zigzag 2^64 - 1) from a zero prefix wraps high too.
  std::vector<std::byte> negative = {std::byte{0x04},  // raw_len = 4 (one u32)
                                     std::byte{0x02},  // encoding: zigzag-u32
                                     std::byte{0x0A},  // enc_len = 10
                                     std::byte{0xFF}};
  negative.insert(negative.end(), 8, std::byte{0xFF});
  negative.push_back(std::byte{0x01});
  EXPECT_THROW((void)decode_checked(forge_frame(negative, 4), 4), CodecError);
}

TEST(CodecEstimate, HostileRowPtrValuesDoNotOverflowTheWidthHistogram) {
  // CsrView::from_bytes validates sizes, not row_ptr values: a corrupt file
  // can carry a row_ptr entry of 2^64 - 1, whose sampled delta needs the
  // full 10-byte varint width. The estimator's width histogram must have a
  // slot for it (it used to write one past the array on the stack).
  const auto m = spmv::generate_power_law(64, 64, 4.0, 1.5, 5);
  std::vector<std::byte> raw = serialize(m, false);
  put_u64(raw, 5 * 8 + 8, 0xFFFFFFFFFFFFFFFFull);  // row_ptr[1]
  const spmv::codec::CodecEstimate est = spmv::codec::estimate_block(raw);
  EXPECT_GT(est.sampled_deltas, 0u) << "the corrupt pointer section must still be sampled";
}

TEST(CodecHostile, ProbeFrameValidatesTheWholeFile) {
  const std::vector<std::byte> frame = valid_frame();
  const std::span<const std::byte> head(frame.data(), spmv::codec::kCodecHeaderBytes);
  const std::uint64_t cap = 1ull << 30;
  EXPECT_EQ(spmv::codec::probe_frame(head, frame.size(), cap),
            spmv::codec::decoded_bytes(frame, cap));
  // A file size that disagrees with header+body is a truncated or padded
  // file — the scan must not trust it.
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size() - 1, cap), CodecError);
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size() + 8, cap), CodecError);
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size(), 16), CodecError);
}

// --- varint section streams ------------------------------------------------
//
// Section layout (see codec.cpp): varint raw_len, one encoding byte, varint
// enc_len, then enc_len bytes. Encoding 1 is delta-u64, 2 is zigzag-u32.

constexpr std::byte kDeltaU64{1};
constexpr std::byte kZigzagU32{2};

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

/// One section: header, then `enc` as its encoded bytes.
std::vector<std::byte> section(std::uint64_t raw_len, std::byte encoding,
                               const std::vector<std::byte>& enc) {
  std::vector<std::byte> out;
  put_varint(out, raw_len);
  out.push_back(encoding);
  put_varint(out, enc.size());
  out.insert(out.end(), enc.begin(), enc.end());
  return out;
}

/// forge_frame with a valid decoded-payload CRC too, for bodies that
/// should decode to `raw`.
std::vector<std::byte> forge_valid_frame(const std::vector<std::byte>& body,
                                         const std::vector<std::byte>& raw) {
  std::vector<std::byte> frame = forge_frame(body, raw.size());
  const std::uint64_t crc_word =
      static_cast<std::uint64_t>(common::crc32({body.data(), body.size()})) |
      (static_cast<std::uint64_t>(common::crc32({raw.data(), raw.size()})) << 32);
  put_u64(frame, 40, crc_word);
  return frame;
}

std::string decode_error(const std::vector<std::byte>& frame, std::uint64_t cap) {
  try {
    (void)decode_checked(frame, cap);
  } catch (const CodecError& e) {
    return e.what();
  }
  return "no error";
}

TEST(CodecHostile, VarintStraddlingTheSectionEndThrows) {
  // A zigzag-u32 section of 33 values: 32 one-byte zeros, then a varint
  // whose last k bytes before enc_end are continuation bytes and whose stop
  // byte lies just past enc_end (inside the body). Reading that stop byte
  // would cross the section, so every k must throw from the varint reader.
  for (std::size_t k = 1; k <= 16; ++k) {
    std::vector<std::byte> enc(32, std::byte{0});
    enc.insert(enc.end(), k, std::byte{0x80});
    std::vector<std::byte> body = section(33 * 4, kZigzagU32, enc);
    body.push_back(std::byte{0x01});
    body.insert(body.end(), 15, std::byte{0});
    const std::string err = decode_error(forge_frame(body, 33 * 4), 33 * 4);
    EXPECT_NE(err.find(k <= 9 ? "truncated varint" : "varint"), std::string::npos)
        << "k=" << k << ": " << err;
  }
}

TEST(CodecHostile, LongVarintsMidStreamRoundTrip) {
  // delta-u64: real 6..10-byte gaps between one-byte gaps.
  std::vector<std::uint64_t> gaps = {5};
  for (const int bit : {35, 42, 49, 56, 63}) {
    gaps.push_back(1ull << bit);
    gaps.push_back(3);
  }
  gaps.insert(gaps.end(), 20, 1);
  std::vector<std::byte> raw;
  std::vector<std::byte> enc;
  std::uint64_t v = 0;
  for (const std::uint64_t g : gaps) {
    v += g;
    put_varint(enc, g);
    raw.resize(raw.size() + 8);
    std::memcpy(raw.data() + raw.size() - 8, &v, 8);
  }
  std::vector<std::byte> body = section(raw.size(), kDeltaU64, enc);

  // zigzag-u32: non-canonical 1..10-byte encodings of +1 (zero groups
  // padded with continuation bits), mid-stream between one-byte values.
  std::vector<std::byte> zz;
  std::uint32_t u = 0;
  std::vector<std::byte> raw32;
  const auto push32 = [&](std::uint32_t x) {
    raw32.resize(raw32.size() + 4);
    std::memcpy(raw32.data() + raw32.size() - 4, &x, 4);
  };
  for (int width = 1; width <= 10; ++width) {
    zz.push_back(static_cast<std::byte>(width == 1 ? 0x02 : 0x82));  // zigzag(+1) = 2
    for (int b = 2; b < width; ++b) zz.push_back(std::byte{0x80});
    if (width > 1) zz.push_back(std::byte{0x00});
    push32(++u);
    zz.push_back(std::byte{0x00});  // delta 0
    push32(u);
  }
  zz.insert(zz.end(), 16, std::byte{0x00});
  for (int i = 0; i < 16; ++i) push32(u);
  const std::vector<std::byte> second = section(raw32.size(), kZigzagU32, zz);
  body.insert(body.end(), second.begin(), second.end());
  raw.insert(raw.end(), raw32.begin(), raw32.end());

  const DataBuffer out = decode_checked(forge_valid_frame(body, raw), raw.size());
  ASSERT_EQ(out.size(), raw.size());
  EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);
}

TEST(CodecHostile, ElevenByteVarintMidStreamThrows) {
  std::vector<std::byte> enc(20, std::byte{0});
  enc.insert(enc.end(), 10, std::byte{0x80});
  enc.push_back(std::byte{0x00});
  enc.insert(enc.end(), 20, std::byte{0});
  const std::vector<std::byte> body = section(41 * 4, kZigzagU32, enc);
  const std::string err = decode_error(forge_frame(body, 41 * 4), 41 * 4);
  EXPECT_NE(err.find("varint"), std::string::npos) << err;
}

TEST(CodecHostile, OutOfRangeU32AtAWindowBoundaryThrows) {
  // After `lead` one-byte zeros, a value below zero (zigzag(-1), one byte)
  // or at 2^32 (zigzag(2^32), five bytes): placed to end on an 8-byte
  // boundary, to start on one, and to straddle one.
  const std::vector<std::vector<std::byte>> bad = {
      {std::byte{0x01}},
      {std::byte{0x80}, std::byte{0x80}, std::byte{0x80}, std::byte{0x80}, std::byte{0x20}}};
  for (const auto& b : bad) {
    for (const std::size_t lead : {std::size_t{7}, std::size_t{8}, std::size_t{8 - b.size()},
                                   std::size_t{6}, std::size_t{15}}) {
      std::vector<std::byte> enc(lead, std::byte{0});
      enc.insert(enc.end(), b.begin(), b.end());
      enc.insert(enc.end(), 24, std::byte{0});
      const std::uint64_t raw_len = (lead + 1 + 24) * 4;
      const std::string err =
          decode_error(forge_frame(section(raw_len, kZigzagU32, enc), raw_len), raw_len);
      EXPECT_NE(err.find("out of range"), std::string::npos)
          << "lead=" << lead << " width=" << b.size() << ": " << err;
    }
  }
}

TEST(CodecHostile, VarintsPastTheDeclaredCountAreNotDecoded) {
  // Three values declared, but the section carries more bytes: a fourth
  // varint that would be out of range, then padding. The decoder must stop
  // after the third value and report the length mismatch, never decode
  // (or store) a value past the declared count.
  std::vector<std::byte> enc = {std::byte{0}, std::byte{0}, std::byte{0}, std::byte{0x01}};
  enc.insert(enc.end(), 12, std::byte{0});
  const std::string err = decode_error(forge_frame(section(3 * 4, kZigzagU32, enc), 3 * 4), 3 * 4);
  EXPECT_NE(err.find("section length mismatch"), std::string::npos) << err;
}

TEST(CodecHostile, RandomU32GapsOfEveryWidthRoundTrip) {
  SplitMix64 rng(0x5EED);
  std::vector<std::byte> raw;
  std::vector<std::byte> enc;
  std::int64_t prev = 0;
  std::uint64_t widths[6] = {};
  for (int i = 0; i < 20000; ++i) {
    // Mask to a random bit count so zigzag deltas span 1..5 varint bytes.
    const auto v = static_cast<std::uint32_t>(rng.next() & ((1ull << rng.next_in(0, 32)) - 1));
    const std::uint64_t z = zigzag(static_cast<std::int64_t>(v) - prev);
    const std::size_t before = enc.size();
    put_varint(enc, z);
    ++widths[enc.size() - before];
    prev = v;
    raw.resize(raw.size() + 4);
    std::memcpy(raw.data() + raw.size() - 4, &v, 4);
  }
  for (int w = 1; w <= 5; ++w) EXPECT_GT(widths[w], 0u) << "no " << w << "-byte varint";
  const std::vector<std::byte> body = section(raw.size(), kZigzagU32, enc);
  const DataBuffer out = decode_checked(forge_valid_frame(body, raw), raw.size());
  ASSERT_EQ(out.size(), raw.size());
  EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);
}

TEST(CodecHostile, SeededByteFlipsThrowOrDecodeTheOriginal) {
  // Even iterations flip bytes anywhere in the frame (the CRCs must catch
  // it); odd ones flip body bytes and re-forge the body CRC, so the
  // section parser itself sees the damage. Either a typed error or the
  // original bytes: never a crash, a hang or different bytes.
  std::vector<std::byte> raw;
  const std::vector<std::byte> frame = valid_frame(&raw);
  const std::size_t header = spmv::codec::kCodecHeaderBytes;
  SplitMix64 rng(0xF11B);
  int threw = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> bad = frame;
    const bool reforge = iter % 2 == 1;
    const std::size_t lo = reforge ? header : 0;
    const std::uint64_t flips = rng.next_in(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      bad[lo + rng.next_below(bad.size() - lo)] ^=
          static_cast<std::byte>(rng.next_in(1, 255));
    }
    if (reforge) {
      std::uint64_t crc_word;
      std::memcpy(&crc_word, bad.data() + 40, 8);
      crc_word = (crc_word & ~0xFFFFFFFFull) |
                 common::crc32({bad.data() + header, bad.size() - header});
      put_u64(bad, 40, crc_word);
    }
    try {
      const DataBuffer out = decode_checked(bad, raw.size());
      ASSERT_EQ(out.size(), raw.size()) << "iteration " << iter;
      ASSERT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0) << "iteration " << iter;
    } catch (const CodecError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 1000);
}

// ---------------------------------------------------------------------------
// Pooled decode
// ---------------------------------------------------------------------------

constexpr std::byte kRaw{0};

std::uint64_t read_varint(std::span<const std::byte> in, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto b = static_cast<std::uint8_t>(in[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

/// raw_len of every section of a well-formed frame, in order.
std::vector<std::uint64_t> section_raw_lengths(std::span<const std::byte> frame) {
  const auto body = frame.subspan(spmv::codec::kCodecHeaderBytes);
  std::vector<std::uint64_t> out;
  for (std::size_t pos = 0; pos < body.size();) {
    out.push_back(read_varint(body, pos));
    ++pos;  // encoding
    pos += read_varint(body, pos);
  }
  return out;
}

TEST(CodecPooledDecode, MultiMiBFramesAreCutAtOneMiBAndMatchInlineBitwise) {
  const auto m = spmv::generate_power_law(1 << 15, 1 << 15, 7.0, 1.5, 0x9001);
  for (const bool sell : {false, true}) {
    const std::vector<std::byte> raw = serialize(m, sell);
    for (const bool shuffle : {true, false}) {
      CodecConfig cfg{Mode::On};
      cfg.shuffle_values = shuffle;
      const auto frame = spmv::codec::encode_block(raw, cfg);
      ASSERT_TRUE(frame.has_value());
      const std::string what = std::string(sell ? "sell" : "csr") + (shuffle ? "+shuffle" : "");
      const std::vector<std::uint64_t> lengths = section_raw_lengths(frame->span());
      EXPECT_GT(lengths.size(), raw.size() / spmv::codec::kMaxSectionRaw) << what;
      for (const std::uint64_t len : lengths) {
        EXPECT_LE(len, spmv::codec::kMaxSectionRaw) << what;
      }
      const DataBuffer out = decode_checked(frame->span(), raw.size());
      ASSERT_EQ(out.size(), raw.size()) << what;
      EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0) << what;
    }
  }
}

TEST(CodecPooledDecode, OneSectionFramesWrittenBeforeTheCutStillDecode) {
  // Frames used to carry each array as a single section: here a 3 MiB
  // zigzag-u32 section and a 2.5 MiB raw section.
  SplitMix64 rng(0x01D);
  std::vector<std::byte> raw;
  std::vector<std::byte> zz;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < (3u << 20) / 4; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_below(1u << 20));
    put_varint(zz, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = v;
    raw.resize(raw.size() + 4);
    std::memcpy(raw.data() + raw.size() - 4, &v, 4);
  }
  const std::vector<std::byte> values = random_bytes(5u << 19, 0xFA1);
  raw.insert(raw.end(), values.begin(), values.end());
  std::vector<std::byte> body = section((3u << 20), kZigzagU32, zz);
  const std::vector<std::byte> second = section(values.size(), kRaw, values);
  body.insert(body.end(), second.begin(), second.end());
  const DataBuffer out = decode_checked(forge_valid_frame(body, raw), raw.size());
  ASSERT_EQ(out.size(), raw.size());
  EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);
}

/// A zigzag-u32 section of `n` small values, optionally ending in one
/// below zero (zigzag(-1) after a zero prefix: "out of range").
std::vector<std::byte> zigzag_section(std::size_t n, bool bad_last, std::vector<std::byte>* raw) {
  std::vector<std::byte> enc(n, std::byte{0});
  if (bad_last) enc.back() = std::byte{0x01};
  if (raw != nullptr) raw->resize(raw->size() + n * 4, std::byte{0});
  return section(n * 4, kZigzagU32, enc);
}

std::vector<std::byte> concat(std::initializer_list<std::vector<std::byte>> parts) {
  std::vector<std::byte> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::string message(const std::vector<std::byte>& frame, std::uint64_t cap) {
  try {
    (void)decode_checked(frame, cap);
  } catch (const CodecError& e) {
    return e.what();
  }
  return "no error";
}

TEST(CodecPooledDecode, ErrorPrecedenceMatchesASerialDecode) {
  std::vector<std::byte> raw;
  const auto good_big = zigzag_section(1 << 18, false, &raw);  // slow: decoded last
  const auto bad_slow = zigzag_section(1 << 17, true, &raw);
  const std::vector<std::byte> unknown = section(8, std::byte{9}, std::vector<std::byte>(8));
  raw.resize(raw.size() + 8);
  const std::uint64_t n = raw.size();

  // The first bad section in order wins, though a later one fails sooner.
  const std::vector<std::byte> two_bad = concat({good_big, bad_slow, unknown});
  EXPECT_NE(message(forge_frame(two_bad, n), n).find("out of range"), std::string::npos);

  // A corrupt body outranks every section error.
  std::vector<std::byte> corrupt = forge_frame(two_bad, n);
  corrupt[40] ^= std::byte{1};
  EXPECT_NE(message(corrupt, n).find("body CRC mismatch"), std::string::npos);

  // A bad section outranks a malformed header after it.
  // raw_len 8, raw, enc_len 2^28 - 1: runs past the end of any body here.
  const std::vector<std::byte> overrun = {std::byte{0x08}, std::byte{0x00}, std::byte{0xFF},
                                          std::byte{0xFF}, std::byte{0xFF}, std::byte{0x7F}};
  std::vector<std::byte> extra = {std::byte{0}, std::byte{0}, std::byte{0}, std::byte{0}};
  const auto long_section = section(3 * 4, kZigzagU32, extra);  // 4 varints for 3 values
  EXPECT_NE(message(forge_frame(concat({good_big, long_section, overrun}), 64u << 20), 64u << 20)
                .find("section length mismatch"),
            std::string::npos);

  // Trailing bytes outrank the decoded-payload CRC (forge_frame leaves it
  // wrong); with no trailing bytes that CRC is what fails.
  std::vector<std::byte> good_raw;
  const auto good = concat({zigzag_section(1 << 18, false, &good_raw),
                            zigzag_section(100, false, &good_raw)});
  std::vector<std::byte> trailing = good;
  trailing.push_back(std::byte{0});
  EXPECT_NE(message(forge_frame(trailing, good_raw.size()), good_raw.size()).find("trailing"),
            std::string::npos);
  EXPECT_NE(message(forge_frame(good, good_raw.size()), good_raw.size())
                .find("decoded payload CRC mismatch"),
            std::string::npos);
  EXPECT_EQ(message(forge_valid_frame(good, good_raw), good_raw.size()), "no error");

  // Past the first batch of sections: the 70th of 100 is bad, the header
  // after the 90th overruns the body.
  std::vector<std::vector<std::byte>> many;
  std::vector<std::byte> many_raw;
  for (int i = 0; i < 100; ++i) many.push_back(zigzag_section(16, i == 69, &many_raw));
  std::vector<std::byte> many_body;
  for (int i = 0; i < 100; ++i) {
    if (i == 90) many_body.insert(many_body.end(), overrun.begin(), overrun.end());
    many_body.insert(many_body.end(), many[i].begin(), many[i].end());
  }
  EXPECT_NE(message(forge_frame(many_body, many_raw.size()), many_raw.size()).find("out of range"),
            std::string::npos);
  many[69] = zigzag_section(16, false, nullptr);
  many_body.clear();
  for (int i = 0; i < 100; ++i) {
    if (i == 90) many_body.insert(many_body.end(), overrun.begin(), overrun.end());
    many_body.insert(many_body.end(), many[i].begin(), many[i].end());
  }
  EXPECT_NE(message(forge_frame(many_body, many_raw.size()), many_raw.size()).find("overruns"),
            std::string::npos);
}

TEST(CodecPooledDecode, MillionsOfEmptySectionsAreRejectedInBoundedMemory) {
  // Two million 3-byte sections (raw_len 0, raw, enc_len 0) never fill the
  // declared 8 bytes: the walk runs off the end of the body. The section
  // directory is walked in bounded batches, so no allocation comes near
  // the body's size, inline or pooled.
  const std::vector<std::byte> body(3u << 21, std::byte{0});
  const std::vector<std::byte> frame = forge_frame(body, 8);
  g_largest_allocation = 0;
  g_track_allocations = true;
  const std::string err = message(frame, 8);
  g_track_allocations = false;
  EXPECT_NE(err.find("truncated varint"), std::string::npos) << err;
  EXPECT_LT(g_largest_allocation.load(), body.size() / 64)
      << "decode allocated " << g_largest_allocation.load() << " bytes at once";
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(CodecBufferPool, AcquisitionsAreAlignedAndPadded) {
  storage::BufferPool pool;
  const std::size_t align = pool.alignment();
  EXPECT_GE(align, 512u) << "O_DIRECT needs at least sector alignment";
  DataBuffer b = pool.acquire(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % align, 0u);
  EXPECT_EQ(pool.padded_capacity(1000) % align, 0u);
  EXPECT_GE(pool.padded_capacity(1000), 1000u);
  // The padding contract: an O_DIRECT pread of the rounded-up length may
  // land through data() — write the full padded extent to prove it's ours.
  std::memset(b.data(), 0xAB, pool.padded_capacity(1000));
}

TEST(CodecBufferPool, FreeListReusesAndRetentionIsBounded) {
  storage::BufferPool::Config cfg;
  cfg.max_retained = 4;
  storage::BufferPool pool(cfg);

  {
    DataBuffer first = pool.acquire(8192);
  }  // returns to the free list
  ASSERT_EQ(pool.stats().retained, 1u);
  {
    DataBuffer again = pool.acquire(8192);
    EXPECT_EQ(pool.stats().reuses, 1u) << "same size class must come from the free list";
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }

  // A burst bigger than the retention cap: the excess goes back to the
  // allocator instead of pinning memory.
  std::vector<DataBuffer> burst;
  for (int i = 0; i < 12; ++i) burst.push_back(pool.acquire(8192));
  EXPECT_EQ(pool.stats().outstanding, 12u);
  burst.clear();
  const storage::BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_LE(s.retained, static_cast<std::uint64_t>(cfg.max_retained));
  EXPECT_GE(s.allocations, 12u);
}

TEST(CodecBufferPool, BuffersOutliveThePool) {
  DataBuffer survivor;
  {
    storage::BufferPool pool;
    survivor = pool.acquire(256);
    survivor.as<std::uint64_t>()[0] = 0xFEEDFACE;
  }
  EXPECT_EQ(survivor.as<std::uint64_t>()[0], 0xFEEDFACEu) << "deleter must not dangle";
}

// ---------------------------------------------------------------------------
// Storage + engine: transparent decode, fault interop, blame parity
// ---------------------------------------------------------------------------

struct SolveOutcome {
  std::vector<double> result;
  storage::StorageStats stats;
  double decode_blame_us = 0.0;
  double compression_ratio = 1.0;
};

/// Two-iteration distributed SpMV under a memory squeeze that forces
/// per-iteration block reloads from the scratch files — the path where
/// encoded blocks must decode on the fetchers.
SolveOutcome solve_with(const CodecConfig& codec, std::shared_ptr<fault::FaultPlan> plan = nullptr,
                        int nodes = 2) {
  testutil::TempDir dir("codec_solve");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 256ull << 10;
  cfg.throttle_read_bw = 80e6;  // loads must dominate for blame to see them
  cfg.codec = codec;
  cfg.fault_plan = std::move(plan);
  storage::StorageCluster cluster(nodes, cfg);

  const auto m = spmv::generate_power_law(768, 768, 48.0, 1.5, 2012);
  const auto owner = spmv::row_strip_owner(nodes);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 1e-3 * i; });

  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(cluster, deployed, config);

  obs::TraceSession::instance().start();
  sched::Engine engine(cluster, sched::EngineConfig{});
  driver.run(engine);
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();

  SolveOutcome out;
  out.result = driver.gather_result();
  out.stats = cluster.total_stats();
  out.compression_ratio = deployed.compression_ratio();
  const obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(events)));
  out.decode_blame_us = graph.blame().get(obs::causal::kBlameDecode);
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CodecStorage, EncodedBlocksDecodeTransparentlyAndBitExactly) {
  const SolveOutcome raw = solve_with(CodecConfig{});
  const SolveOutcome on = solve_with(CodecConfig{Mode::On});

  ASSERT_FALSE(raw.result.empty());
  EXPECT_TRUE(bitwise_equal(raw.result, on.result))
      << "codec must be invisible to the solver's numerics";
  EXPECT_EQ(raw.stats.decoded_blocks, 0u);
  EXPECT_GT(on.stats.decoded_blocks, 0u) << "the squeeze must force reloads of encoded blocks";
  EXPECT_GT(on.stats.decoded_bytes, 0u);
  EXPECT_GT(on.compression_ratio, 1.0);
  EXPECT_DOUBLE_EQ(raw.compression_ratio, 1.0);
}

TEST(CodecStorage, DecodeCostSurfacesAsItsOwnBlameCategory) {
  // Single node: reductions stay local, so the critical-path walk reaches
  // an encoded matrix-block load (Load nodes have no predecessors — with
  // more nodes the walk ends on a raw partial-result transfer instead).
  // This is the engine half of the DES parity in CodecSim below.
  const SolveOutcome raw = solve_with(CodecConfig{}, nullptr, 1);
  const SolveOutcome on = solve_with(CodecConfig{Mode::On}, nullptr, 1);
  EXPECT_EQ(raw.decode_blame_us, 0.0);
  EXPECT_GT(on.decode_blame_us, 0.0)
      << "decode on the fetch path must split out of the load's demand-io";
}

TEST(CodecStorage, ReadAheadAndDirectIoKeepResultsBitExact) {
  const SolveOutcome raw = solve_with(CodecConfig{});
  const SolveOutcome tuned = solve_with(CodecConfig::parse("on,read_ahead=2,direct_io=1"));
  // direct_io falls back gracefully where the filesystem refuses O_DIRECT,
  // so this asserts behaviour, not the syscall flavor.
  EXPECT_TRUE(bitwise_equal(raw.result, tuned.result));
  EXPECT_GT(tuned.stats.decoded_blocks, 0u);
}

TEST(CodecStorage, FaultInjectionComposesWithCompressedBlocks) {
  const SolveOutcome clean = solve_with(CodecConfig{});
  auto plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::parse("seed=3,read_error=0.3,retries=10,backoff=1us:4us"));
  const SolveOutcome faulty = solve_with(CodecConfig{Mode::Adaptive}, plan);

  EXPECT_GT(plan->injected(fault::FaultKind::ReadError), 0u)
      << "30% read errors across dozens of block loads must fire";
  EXPECT_GT(faulty.stats.decoded_blocks, 0u);
  EXPECT_TRUE(bitwise_equal(clean.result, faulty.result))
      << "retried reads of codec frames must still decode bit-exactly";
}

// ---------------------------------------------------------------------------
// DES: modeled decode cost, blame-category parity with the engine
// ---------------------------------------------------------------------------

sim::TestbedExperiment small_experiment() {
  sim::TestbedExperiment e;
  e.nodes = 4;
  e.iterations = 2;
  e.rows_per_node = 100'000;
  e.nnz_per_node = 1'000'000;
  e.blocks_per_node_side = 2;
  e.submatrix_bytes = 64ull << 20;
  return e;
}

TEST(CodecSim, CompressionMovesMakespanAndDecodeRateCharges) {
  const sim::TestbedExperiment raw = small_experiment();
  sim::TestbedExperiment packed = small_experiment();
  packed.codec_ratio = 2.0;

  const double t_raw = sim::run_testbed(raw).time_seconds();
  const double t_packed = sim::run_testbed(packed).time_seconds();
  EXPECT_LT(t_packed, t_raw) << "half the stored bytes over the same device must be faster";

  // Throttle the virtual decoder below the device: now the decode stage
  // dominates and the compressed run must cost MORE than its fast-decode
  // twin — the DES models the trade, not just the win.
  sim::SimResources slow;
  slow.decode_rate = 5e7;
  const double t_slow_decode = sim::run_testbed(packed, slow).time_seconds();
  EXPECT_GT(t_slow_decode, t_packed);
}

TEST(CodecSim, VirtualDecodeSpansFeedTheSameBlameCategory) {
  // Single node (reductions stay local, so the critical-path walk reaches a
  // matrix-block load, not a raw partial transfer) under a memory squeeze
  // that forces per-iteration reloads of the encoded blocks.
  sim::TestbedExperiment packed = small_experiment();
  packed.nodes = 1;
  packed.codec_ratio = 2.0;
  sim::SimResources squeeze;
  squeeze.node_memory = 192ull << 20;  // < 4 blocks x 64 MB

  obs::TraceSession::instance().start();
  (void)sim::run_testbed(packed, squeeze);
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();
  const obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(events)));
  EXPECT_GT(graph.blame().get(obs::causal::kBlameDecode), 0.0)
      << "the DES must attribute decode time under the same category as the engine";

  sim::TestbedExperiment raw = packed;
  raw.codec_ratio = 1.0;
  obs::TraceSession::instance().start();
  (void)sim::run_testbed(raw, squeeze);
  const std::vector<obs::Event> raw_events = obs::TraceSession::instance().stop();
  const obs::causal::CausalGraph raw_graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(raw_events)));
  EXPECT_EQ(raw_graph.blame().get(obs::causal::kBlameDecode), 0.0)
      << "raw stored blocks must not emit virtual decode spans";
}

}  // namespace
}  // namespace dooc
