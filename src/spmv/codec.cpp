#include "spmv/codec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "spmv/csr.hpp"
#include "spmv/sell.hpp"
#include "spmv/wire.hpp"

namespace dooc::spmv::codec {

namespace {

enum : std::uint8_t {
  kSectionRaw = 0,
  kSectionDeltaU64 = 1,
  kSectionZigzagU32 = 2,
  kSectionShuffleRle = 3,
};

constexpr std::uint64_t kFlagVarintIndices = 1ull << 0;
constexpr std::uint64_t kFlagShuffledValues = 1ull << 1;
constexpr std::uint64_t kFormatShift = 8;
constexpr std::uint64_t kFormatCsr = 1;
constexpr std::uint64_t kFormatSell = 2;

// --- LEB128 varints --------------------------------------------------------

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t varint_bytes(std::uint64_t v) noexcept {
  std::uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounded varint read; throws CodecError on truncation or an overlong
/// (> 10 byte) encoding — the "truncated varint stream" hostile case.
std::uint64_t get_varint(std::span<const std::byte> body, std::uint64_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= body.size()) throw CodecError("codec frame: truncated varint stream");
    const auto b = static_cast<std::uint8_t>(body[pos++]);
    if (shift == 63 && (b & ~std::uint8_t{1}) != 0) {
      throw CodecError("codec frame: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  throw CodecError("codec frame: overlong varint");
}

/// Fast-path varint read: the caller guarantees 10 readable bytes at `pos`
/// (the maximum encoding length), so no per-byte bounds check is needed.
/// Same value and overflow semantics as get_varint.
inline std::uint64_t get_varint_fast(const std::byte* body, std::uint64_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto b = static_cast<std::uint8_t>(body[pos++]);
    if (shift == 63 && (b & ~std::uint8_t{1}) != 0) {
      throw CodecError("codec frame: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw CodecError("codec frame: overlong varint");
}

constexpr std::uint64_t kStopBits = 0x8080808080808080ull;

/// Pack the 7-bit groups of an up-to-8-byte little-endian varint (bytes
/// past its stop byte zeroed): the first step drops the continuation bits,
/// and the three steps close the gaps between adjacent groups in 16-, 32-
/// and 64-bit lanes.
inline std::uint64_t compact7(std::uint64_t x) noexcept {
  x = (x & 0x007F007F007F007Full) | ((x & 0x7F007F007F007F00ull) >> 1);
  x = (x & 0x00003FFF00003FFFull) | ((x & 0x3FFF00003FFF0000ull) >> 2);
  return (x & 0x000000000FFFFFFFull) | ((x & 0x0FFFFFFF00000000ull) >> 4);
}

/// Mask of the bytes of `w` up to and including the lowest stop byte
/// marked in `stops` (nonzero).
inline std::uint64_t through_lowest(std::uint64_t stops) noexcept {
  return ((stops & (0 - stops)) << 1) - 1;
}

/// Decode `n` varints from body[pos, enc_end) and hand each to
/// `emit(index, value)`. While 8 section bytes remain, one 8-byte load `w`
/// yields the first two varints when both end inside it, else the first:
/// the stop bytes are the set bits of `~w & kStopBits`, found by ctz.
/// Taking every varint of the load instead makes the per-load count, and
/// so the loop exit, unpredictable; on power-law column streams that ran
/// slower than reading byte by byte. A varint longer than 8 bytes and
/// the section's last 8 bytes go through get_varint_fast / get_varint,
/// which own the truncated, overlong and overflow errors; a varint of at
/// most 8 bytes that ends inside the section can raise none of them.
template <typename Emit>
void decode_varints(std::span<const std::byte> body, std::uint64_t& pos_io, std::uint64_t enc_end,
                    std::uint64_t n, Emit&& emit) {
  const std::byte* const base = body.data();
  // A varint is at most 10 bytes: with that much headroom before enc_end
  // the unchecked read cannot overrun the section.
  const auto checked = [&](std::uint64_t& pos) {
    return enc_end - pos >= 10 ? get_varint_fast(base, pos) : get_varint(body.first(enc_end), pos);
  };
  std::uint64_t pos = pos_io;
  std::uint64_t i = 0;
  while (i < n && enc_end - pos >= 8) {
    std::uint64_t w;
    std::memcpy(&w, base + pos, 8);
    std::uint64_t stops = ~w & kStopBits;
    if (stops == 0) {
      const std::uint64_t v = checked(pos);
      emit(i++, v);
      continue;
    }
    const int first_bits = std::countr_zero(stops) + 1;
    int bits = first_bits;
    emit(i++, compact7(w & through_lowest(stops)));
    stops &= stops - 1;
    if (stops != 0 && i < n) {
      // first_bits <= 56 here: a second stop byte follows the first.
      emit(i++, compact7((w & through_lowest(stops)) >> first_bits));
      bits = std::countr_zero(stops) + 1;
    }
    pos += static_cast<std::uint64_t>(bits) / 8;
  }
  for (; i < n; ++i) {
    const std::uint64_t v = checked(pos);
    emit(i, v);
  }
  pos_io = pos;
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// --- section encoders ------------------------------------------------------

/// Monotone u64 array (row_ptr / chunk_ptr): first value, then gaps.
/// Returns false (leaving `out` untouched) if the array is not monotone.
bool encode_delta_u64(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 8;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v;
    std::memcpy(&v, raw.data() + i * 8, 8);
    if (i == 0) {
      put_varint(out, v);
    } else {
      if (v < prev) return false;
      put_varint(out, v - prev);
    }
    prev = v;
  }
  return true;
}

void decode_delta_u64(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                      std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 8 != 0) throw CodecError("codec frame: delta-u64 section not 8-byte multiple");
  std::uint64_t prev = 0;
  decode_varints(body, pos, enc_end, raw_len / 8, [&](std::uint64_t i, std::uint64_t gap) {
    std::uint64_t v;
    if (i == 0) {
      v = gap;
    } else if (!wire::checked_add(prev, gap, v)) {
      throw CodecError("codec frame: delta-u64 section overflows");
    }
    std::memcpy(dst + i * 8, &v, 8);
    prev = v;
  });
}

/// u32 array (col_idx / perm, including pad words): zigzag varints of
/// successive differences. Handles the drop at each row/chunk boundary and
/// the final zero pad word without knowing the matrix structure.
void encode_zigzag_u32(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 4;
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint32_t v;
    std::memcpy(&v, raw.data() + i * 4, 4);
    put_varint(out, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = static_cast<std::int64_t>(v);
  }
}

void decode_zigzag_u32(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                       std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 4 != 0) throw CodecError("codec frame: zigzag-u32 section not 4-byte multiple");
  std::uint64_t prev = 0;
  decode_varints(body, pos, enc_end, raw_len / 4, [&](std::uint64_t i, std::uint64_t gap) {
    // Wrapping unsigned add: a hostile delta near INT64_MAX/MIN must not hit
    // signed-overflow UB, and any out-of-range true sum lands outside
    // [0, 2^32) after the wrap, so the range check stays exact.
    const std::uint64_t cur = prev + static_cast<std::uint64_t>(unzigzag(gap));
    if (cur > 0xFFFFFFFFull) {
      throw CodecError("codec frame: zigzag-u32 value out of range");
    }
    const auto v = static_cast<std::uint32_t>(cur);
    std::memcpy(dst + i * 4, &v, 4);
    prev = cur;
  });
}

/// f64 array: transpose into 8 byte planes (all byte-0s, then byte-1s, ...)
/// so the repetitive sign/exponent bytes line up, then run-length encode.
/// RLE tokens: control c < 128 -> (c+1) literal bytes follow; c >= 128 ->
/// one byte follows, repeated (c - 128 + 3) times.
void rle_flush_literals(std::vector<std::byte>& out, const std::byte* lit, std::size_t n) {
  while (n > 0) {
    const std::size_t take = std::min<std::size_t>(n, 128);
    out.push_back(static_cast<std::byte>(take - 1));
    out.insert(out.end(), lit, lit + take);
    lit += take;
    n -= take;
  }
}

void encode_shuffle_rle(std::span<const std::byte> raw, std::vector<std::byte>& out) {
  const std::uint64_t n = raw.size() / 8;
  std::vector<std::byte> planes(raw.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t p = 0; p < 8; ++p) planes[p * n + i] = raw[i * 8 + p];
  }
  std::size_t lit_begin = 0;
  std::size_t i = 0;
  while (i < planes.size()) {
    std::size_t run = 1;
    while (i + run < planes.size() && planes[i + run] == planes[i] && run < 130) ++run;
    if (run >= 3) {
      rle_flush_literals(out, planes.data() + lit_begin, i - lit_begin);
      out.push_back(static_cast<std::byte>(128 + (run - 3)));
      out.push_back(planes[i]);
      i += run;
      lit_begin = i;
    } else {
      i += run;
    }
  }
  rle_flush_literals(out, planes.data() + lit_begin, planes.size() - lit_begin);
}

void decode_shuffle_rle(std::span<const std::byte> body, std::uint64_t& pos, std::uint64_t enc_end,
                        std::byte* dst, std::uint64_t raw_len) {
  if (raw_len % 8 != 0) throw CodecError("codec frame: shuffle-rle section not 8-byte multiple");
  // Not zero-filled: the token loop exits only with filled == raw_len.
  const auto planes = std::make_unique_for_overwrite<std::byte[]>(raw_len);
  std::uint64_t filled = 0;
  while (filled < raw_len) {
    if (pos >= enc_end) throw CodecError("codec frame: shuffle-rle section underruns");
    const auto c = static_cast<std::uint8_t>(body[pos++]);
    if (c < 128) {
      const std::uint64_t take = c + 1u;
      if (pos + take > enc_end) throw CodecError("codec frame: shuffle-rle literal truncated");
      if (filled + take > raw_len) throw CodecError("codec frame: shuffle-rle overruns output");
      std::memcpy(planes.get() + filled, body.data() + pos, take);
      pos += take;
      filled += take;
    } else {
      if (pos >= enc_end) throw CodecError("codec frame: shuffle-rle run truncated");
      const std::uint64_t run = static_cast<std::uint64_t>(c - 128) + 3;
      if (filled + run > raw_len) throw CodecError("codec frame: shuffle-rle overruns output");
      std::memset(planes.get() + filled, static_cast<int>(body[pos++]), run);
      filled += run;
    }
  }
  // Un-shuffle: gather one byte per plane and store the reassembled f64 as
  // a single 8-byte word (8 sequential read streams, 1 sequential write).
  const std::uint64_t n = raw_len / 8;
  const std::byte* lane = planes.get();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t w = 0;
    for (std::uint64_t p = 0; p < 8; ++p) {
      w |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(lane[p * n + i])) << (8 * p);
    }
    std::memcpy(dst + i * 8, &w, 8);
  }
}

// --- section assembly ------------------------------------------------------

struct SectionPlan {
  std::uint64_t offset = 0;  ///< into the raw payload
  std::uint64_t length = 0;
  std::uint8_t preferred = kSectionRaw;
  bool is_index = false;  ///< counts toward the index-stream ratio
  bool is_value = false;
};

/// Split a serialized matrix payload into codec sections. Returns false
/// when the bytes carry neither matrix magic.
bool plan_sections(std::span<const std::byte> raw, std::vector<SectionPlan>& plan,
                   std::uint64_t& format_tag) {
  if (raw.size() < 8) return false;
  std::uint64_t magic;
  std::memcpy(&magic, raw.data(), 8);
  const auto pad4 = [](std::uint64_t n) { return (n * 4 + 7) & ~std::uint64_t{7}; };
  if (magic == kCsrMagic) {
    const CsrView v = CsrView::from_bytes(raw);  // validates the layout
    format_tag = kFormatCsr;
    std::uint64_t at = 5 * 8;
    plan.push_back({0, at, kSectionRaw, false, false});
    plan.push_back({at, (v.rows() + 1) * 8, kSectionDeltaU64, true, false});
    at += (v.rows() + 1) * 8;
    plan.push_back({at, pad4(v.nnz()), kSectionZigzagU32, true, false});
    at += pad4(v.nnz());
    plan.push_back({at, v.nnz() * 8, kSectionShuffleRle, false, true});
    at += v.nnz() * 8;
    if (at < raw.size()) plan.push_back({at, raw.size() - at, kSectionRaw, false, false});
    return true;
  }
  if (magic == kSellMagic) {
    const SellView v = SellView::from_bytes(raw);
    format_tag = kFormatSell;
    const std::uint64_t padded = v.chunk_ptr().empty() ? 0 : v.chunk_ptr().back();
    std::uint64_t at = 8 * 8;
    plan.push_back({0, at, kSectionRaw, false, false});
    plan.push_back({at, (v.num_chunks() + 1) * 8, kSectionDeltaU64, true, false});
    at += (v.num_chunks() + 1) * 8;
    plan.push_back({at, pad4(v.rows()), kSectionZigzagU32, true, false});
    at += pad4(v.rows());
    plan.push_back({at, pad4(padded), kSectionZigzagU32, true, false});
    at += pad4(padded);
    plan.push_back({at, padded * 8, kSectionShuffleRle, false, true});
    at += padded * 8;
    if (at < raw.size()) plan.push_back({at, raw.size() - at, kSectionRaw, false, false});
    return true;
  }
  return false;
}

/// Cut every planned section into pieces of at most kMaxSectionRaw raw
/// bytes. Each piece is encoded on its own (delta and zigzag restart at 0),
/// so the pieces of one frame decode on different threads. Empty sections
/// (empty blocks have no col_idx/values) yield no piece: they would sit
/// after the decoder's fill loop has already reached raw_bytes.
std::vector<SectionPlan> cut_sections(const std::vector<SectionPlan>& plan) {
  std::vector<SectionPlan> pieces;
  for (const SectionPlan& s : plan) {
    for (std::uint64_t at = 0; at < s.length; at += kMaxSectionRaw) {
      SectionPlan piece = s;
      piece.offset += at;
      piece.length = std::min(kMaxSectionRaw, s.length - at);
      pieces.push_back(piece);
    }
  }
  return pieces;
}

}  // namespace

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::On: return "on";
    case Mode::Adaptive: return "adaptive";
  }
  return "unknown";
}

CodecConfig CodecConfig::parse(const std::string& spec) {
  CodecConfig cfg;
  if (spec.empty()) return cfg;
  const auto parse_mode = [](const std::string& v) -> std::optional<Mode> {
    if (v == "off") return Mode::Off;
    if (v == "on") return Mode::On;
    if (v == "adaptive") return Mode::Adaptive;
    return std::nullopt;
  };
  const auto parse_bool = [](const std::string& key, const std::string& v) {
    if (v == "0" || v == "false") return false;
    if (v == "1" || v == "true") return true;
    throw InvalidArgument("DOOC_CODEC: '" + key + "' wants 0|1, got '" + v + "'");
  };
  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      const auto m = parse_mode(tok);
      if (!first || !m) {
        throw InvalidArgument("DOOC_CODEC: unknown token '" + tok +
                              "' (want mode=on|off|adaptive, min_ratio=, shuffle=, direct_io=, "
                              "read_ahead=)");
      }
      cfg.mode = *m;
    } else {
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "mode") {
        const auto m = parse_mode(val);
        if (!m) throw InvalidArgument("DOOC_CODEC: bad mode '" + val + "'");
        cfg.mode = *m;
      } else if (key == "min_ratio") {
        char* end = nullptr;
        const double r = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0' || !(r >= 1.0)) {
          throw InvalidArgument("DOOC_CODEC: min_ratio wants a float >= 1, got '" + val + "'");
        }
        cfg.min_ratio = r;
      } else if (key == "shuffle") {
        cfg.shuffle_values = parse_bool(key, val);
      } else if (key == "direct_io") {
        cfg.direct_io = parse_bool(key, val);
      } else if (key == "read_ahead") {
        char* end = nullptr;
        const long n = std::strtol(val.c_str(), &end, 10);
        if (end == val.c_str() || *end != '\0' || n < 0 || n > 64) {
          throw InvalidArgument("DOOC_CODEC: read_ahead wants an int in [0,64], got '" + val +
                                "'");
        }
        cfg.read_ahead = static_cast<int>(n);
      } else {
        throw InvalidArgument("DOOC_CODEC: unknown key '" + key + "'");
      }
    }
    first = false;
  }
  return cfg;
}

CodecConfig CodecConfig::from_env() {
  const char* env = std::getenv("DOOC_CODEC");
  return env != nullptr ? parse(env) : CodecConfig{};
}

bool is_encoded(std::span<const std::byte> bytes) noexcept {
  if (bytes.size() < 8) return false;
  std::uint64_t magic;
  std::memcpy(&magic, bytes.data(), 8);
  return magic == kCodecMagic;
}

namespace {

struct FrameHeader {
  std::uint64_t raw_bytes = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t flags = 0;
  std::uint32_t body_crc = 0;
  std::uint32_t raw_crc = 0;
};

FrameHeader parse_header(std::span<const std::byte> bytes, std::uint64_t cap) {
  if (bytes.size() < kCodecHeaderBytes) throw CodecError("codec frame: truncated header");
  std::uint64_t words[kCodecHeaderWords];
  std::memcpy(words, bytes.data(), sizeof(words));
  if (words[0] != kCodecMagic) throw CodecError("codec frame: bad magic");
  if (words[1] != kEndianProbe) throw CodecError("codec frame: foreign byte order");
  FrameHeader h;
  h.raw_bytes = words[2];
  h.body_bytes = words[3];
  h.flags = words[4];
  h.body_crc = static_cast<std::uint32_t>(words[5] & 0xFFFFFFFFull);
  h.raw_crc = static_cast<std::uint32_t>(words[5] >> 32);
  // Ratio-bomb defense: the declared decoded size is validated against the
  // caller's cap BEFORE any allocation sized from it.
  if (h.raw_bytes > cap) {
    throw CodecError("codec frame: declared decoded size " + std::to_string(h.raw_bytes) +
                     " exceeds cap " + std::to_string(cap));
  }
  std::uint64_t need;
  if (!wire::checked_add(kCodecHeaderBytes, h.body_bytes, need) || bytes.size() < need) {
    throw CodecError("codec frame: truncated body");
  }
  return h;
}

}  // namespace

std::uint64_t decoded_bytes(std::span<const std::byte> bytes, std::uint64_t cap) {
  return parse_header(bytes, cap).raw_bytes;
}

std::uint64_t probe_frame(std::span<const std::byte> head, std::uint64_t file_bytes,
                          std::uint64_t cap) {
  if (head.size() < kCodecHeaderBytes) throw CodecError("codec frame: truncated header");
  std::uint64_t words[kCodecHeaderWords];
  std::memcpy(words, head.data(), sizeof(words));
  if (words[0] != kCodecMagic) throw CodecError("codec frame: bad magic");
  if (words[1] != kEndianProbe) throw CodecError("codec frame: foreign byte order");
  if (words[2] > cap) {
    throw CodecError("codec frame: declared decoded size " + std::to_string(words[2]) +
                     " exceeds cap " + std::to_string(cap));
  }
  std::uint64_t need;
  if (!wire::checked_add(kCodecHeaderBytes, words[3], need) || need != file_bytes) {
    throw CodecError("codec frame: body does not match file size");
  }
  return words[2];
}

std::optional<DataBuffer> encode_block(std::span<const std::byte> raw, const CodecConfig& cfg,
                                       EncodeStats* stats) {
  if (cfg.mode == Mode::Off) return std::nullopt;
  std::vector<SectionPlan> plan;
  std::uint64_t format_tag = 0;
  if (!plan_sections(raw, plan, format_tag)) return std::nullopt;

  EncodeStats st;
  st.raw_bytes = raw.size();
  std::vector<std::byte> body;
  body.reserve(raw.size() / 2);
  std::vector<std::byte> scratch;
  std::uint64_t flags = format_tag << kFormatShift;
  for (const SectionPlan& s : cut_sections(plan)) {
    const auto raw_section = raw.subspan(s.offset, s.length);
    scratch.clear();
    std::uint8_t encoding = kSectionRaw;
    if (s.preferred == kSectionDeltaU64) {
      if (!encode_delta_u64(raw_section, scratch)) scratch.clear();
      else encoding = kSectionDeltaU64;
    } else if (s.preferred == kSectionZigzagU32) {
      encode_zigzag_u32(raw_section, scratch);
      encoding = kSectionZigzagU32;
    } else if (s.preferred == kSectionShuffleRle && cfg.shuffle_values && s.length > 0) {
      encode_shuffle_rle(raw_section, scratch);
      encoding = kSectionShuffleRle;
    }
    // Keep the encoded form only when it actually shrinks the section —
    // incompressible streams ride along raw inside the frame. The value
    // pass must shrink by a margin (1/16th): its unshuffle is the priciest
    // decode, so a ~1% saving would cost more CPU than the bytes it buys.
    const std::uint64_t keep_below =
        encoding == kSectionShuffleRle ? s.length - s.length / 16 : s.length;
    if (encoding == kSectionRaw || scratch.size() >= keep_below) {
      encoding = kSectionRaw;
      scratch.assign(raw_section.begin(), raw_section.end());
    }
    if (s.is_index) {
      st.index_raw_bytes += s.length;
      st.index_encoded_bytes +=
          varint_bytes(s.length) + 1 + varint_bytes(scratch.size()) + scratch.size();
      if (encoding != kSectionRaw) flags |= kFlagVarintIndices;
    }
    if (s.is_value) {
      st.value_raw_bytes += s.length;
      st.value_encoded_bytes +=
          varint_bytes(s.length) + 1 + varint_bytes(scratch.size()) + scratch.size();
      if (encoding != kSectionRaw) flags |= kFlagShuffledValues;
    }
    put_varint(body, s.length);
    body.push_back(static_cast<std::byte>(encoding));
    put_varint(body, scratch.size());
    body.insert(body.end(), scratch.begin(), scratch.end());
  }

  st.encoded_bytes = kCodecHeaderBytes + body.size();
  if (stats != nullptr) *stats = st;
  if (cfg.mode == Mode::Adaptive && st.ratio() < cfg.min_ratio) return std::nullopt;

  DataBuffer frame(st.encoded_bytes);
  const std::uint64_t crc_word =
      static_cast<std::uint64_t>(common::crc32(std::span<const std::byte>(body))) |
      (static_cast<std::uint64_t>(common::crc32(raw)) << 32);
  const std::uint64_t words[kCodecHeaderWords] = {kCodecMagic, kEndianProbe,         raw.size(),
                                                  body.size(), flags,                crc_word};
  std::memcpy(frame.data(), words, sizeof(words));
  std::memcpy(frame.data() + kCodecHeaderBytes, body.data(), body.size());
  return frame;
}

namespace {

/// One section of a frame body: located by the header walk, then decoded
/// by whichever thread claims it.
struct Section {
  std::uint64_t head = 0;       ///< body offset of the section header
  std::uint64_t enc_begin = 0;  ///< body offset of the encoded bytes
  std::uint64_t enc_end = 0;
  std::uint64_t out = 0;  ///< offset of its bytes in the decoded payload
  std::uint64_t raw_len = 0;
  std::uint8_t encoding = kSectionRaw;
  std::uint32_t body_crc = 0;  ///< CRC-32 of body[head, enc_end)
  std::uint32_t raw_crc = 0;   ///< CRC-32 of its decoded bytes
  std::exception_ptr error;
};

/// Sections walked and decoded per round: bounds the section directory,
/// however many sections a (hostile) body declares.
constexpr std::size_t kBatchSections = 64;

/// Raw bytes a batch must hold per helper it wakes: a byte-light batch
/// (many tiny or empty sections) decodes faster inline than the wake-ups
/// cost, while a real frame (≈16 sections of 1 MiB) keeps every helper.
constexpr std::uint64_t kMinHelperBytes = 256 << 10;

/// Up to kBatchSections sections that the caller and its helpers decode
/// together, claiming them by index.
struct Batch {
  std::span<const std::byte> body;
  std::byte* out = nullptr;
  std::array<Section, kBatchSections> sections;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};  ///< next unclaimed section
  std::atomic<std::size_t> done{0};  ///< sections decoded (or failed)
};

/// What the helper jobs of one decode_block call share. They hold it by
/// shared_ptr: a helper that starts after its call moved on finds the
/// current batch fully claimed and returns without touching the frame.
struct Crew {
  std::mutex mutex;
  std::shared_ptr<Batch> batch;  ///< guarded by mutex
  std::atomic<std::size_t> queued{0};  ///< posted helper jobs not yet started
};

/// Decode one section into out[s.out, s.out + s.raw_len) and compute its
/// two CRCs; any failure lands in s.error.
void decode_section(std::span<const std::byte> body, std::byte* out, Section& s) noexcept {
  try {
    std::byte* dst = out + s.out;
    std::uint64_t pos = s.enc_begin;
    switch (s.encoding) {
      case kSectionRaw: {
        if (s.enc_end - s.enc_begin != s.raw_len) {
          throw CodecError("codec frame: raw section length mismatch");
        }
        std::memcpy(dst, body.data() + pos, s.raw_len);
        // The decoded bytes are the encoded ones: one CRC pass serves both.
        const auto head = body.subspan(s.head, s.enc_begin - s.head);
        s.raw_crc = common::crc32(body.subspan(pos, s.raw_len));
        s.body_crc = common::crc32_combine(common::crc32(head), s.raw_crc, s.raw_len);
        return;
      }
      case kSectionDeltaU64:
        decode_delta_u64(body, pos, s.enc_end, dst, s.raw_len);
        break;
      case kSectionZigzagU32:
        decode_zigzag_u32(body, pos, s.enc_end, dst, s.raw_len);
        break;
      case kSectionShuffleRle:
        decode_shuffle_rle(body, pos, s.enc_end, dst, s.raw_len);
        break;
      default:
        throw CodecError("codec frame: unknown section encoding " + std::to_string(s.encoding));
    }
    if (pos != s.enc_end) throw CodecError("codec frame: section length mismatch");
    s.raw_crc = common::crc32({dst, s.raw_len});
    s.body_crc = common::crc32(body.subspan(s.head, s.enc_end - s.head));
  } catch (...) {
    s.error = std::current_exception();
  }
}

/// Claim and decode sections of `b` until none is left.
void run_claims(Batch& b) noexcept {
  for (std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed); i < b.count;
       i = b.next.fetch_add(1, std::memory_order_relaxed)) {
    decode_section(b.body, b.out, b.sections[i]);
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.count) b.done.notify_all();
  }
}

/// Walk section headers from body[pos] into `b` until it is full or the
/// sections account for all `raw_bytes`. A malformed header stops the walk
/// and is returned: it is the error of the section it starts.
std::exception_ptr walk_sections(std::span<const std::byte> body, std::uint64_t raw_bytes,
                                 std::uint64_t& pos, std::uint64_t& filled, Batch& b) noexcept {
  try {
    while (filled < raw_bytes && b.count < kBatchSections) {
      Section& s = b.sections[b.count];
      s.head = pos;
      s.raw_len = get_varint(body, pos);
      if (pos >= body.size()) throw CodecError("codec frame: truncated section header");
      s.encoding = static_cast<std::uint8_t>(body[pos++]);
      const std::uint64_t enc_len = get_varint(body, pos);
      if (!wire::checked_add(pos, enc_len, s.enc_end) || s.enc_end > body.size()) {
        throw CodecError("codec frame: section overruns body");
      }
      std::uint64_t next_filled;
      if (!wire::checked_add(filled, s.raw_len, next_filled) || next_filled > raw_bytes) {
        throw CodecError("codec frame: sections exceed declared decoded size");
      }
      s.enc_begin = pos;
      s.out = filled;
      pos = s.enc_end;
      filled = next_filled;
      ++b.count;
    }
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// Decode every section of `batch` on the calling thread plus up to
/// count - 1 pooled helpers (one per kMinHelperBytes of raw bytes), and
/// return once all of them are done.
void decode_batch(const std::shared_ptr<Batch>& batch, ThreadPool* helpers,
                  const std::shared_ptr<Crew>& crew) {
  std::size_t want = 0;
  if (helpers != nullptr && batch->count > 1) {
    const Section& last = batch->sections[batch->count - 1];
    const std::uint64_t raw_bytes = last.out + last.raw_len - batch->sections[0].out;
    want = static_cast<std::size_t>(std::min<std::uint64_t>(
        {helpers->size(), batch->count - 1, raw_bytes / kMinHelperBytes}));
  }
  if (want > 0) {
    {
      std::lock_guard lock(crew->mutex);
      crew->batch = batch;
    }
    // Helpers still queued from an earlier batch will join this one.
    for (std::size_t q = crew->queued.load(std::memory_order_relaxed); q < want; ++q) {
      crew->queued.fetch_add(1, std::memory_order_relaxed);
      const bool posted = helpers->post([crew] {
        crew->queued.fetch_sub(1, std::memory_order_relaxed);
        std::shared_ptr<Batch> b;
        {
          std::lock_guard lock(crew->mutex);
          b = crew->batch;
        }
        run_claims(*b);
      });
      if (!posted) {  // pool shutting down: the caller decodes alone
        crew->queued.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  run_claims(*batch);
  // Wait (parked) for sections a helper claimed and is still decoding.
  for (std::size_t d = batch->done.load(std::memory_order_acquire); d != batch->count;
       d = batch->done.load(std::memory_order_acquire)) {
    batch->done.wait(d, std::memory_order_acquire);
  }
}

}  // namespace

DataBuffer decode_block(std::span<const std::byte> bytes, std::uint64_t cap, ThreadPool* helpers) {
  const FrameHeader h = parse_header(bytes, cap);
  const auto body = bytes.subspan(kCodecHeaderBytes, h.body_bytes);
  // Not zero-filled: the walk below stops only with filled == raw_bytes
  // and no error, and each section decoder writes all raw_len bytes it
  // claims or fails.
  DataBuffer out = DataBuffer::for_overwrite(h.raw_bytes);
  const auto crew = helpers != nullptr ? std::make_shared<Crew>() : nullptr;
  std::uint64_t pos = 0;
  std::uint64_t filled = 0;
  std::uint32_t body_crc = 0;  // CRC-32 of the empty prefix
  std::uint32_t raw_crc = 0;
  std::exception_ptr error;
  while (error == nullptr && filled < h.raw_bytes) {
    const auto batch = std::make_shared<Batch>();
    batch->body = body;
    batch->out = out.data();
    const std::exception_ptr walk_error = walk_sections(body, h.raw_bytes, pos, filled, *batch);
    decode_batch(batch, helpers, crew);
    // Fold in section order; the first failed section is the one a serial
    // decode would have reported, ahead of a later malformed header. Every
    // error is taken out of the batch here, so the exceptions end on this
    // thread even when a late helper drops the batch's last reference.
    for (std::size_t i = 0; i < batch->count; ++i) {
      Section& s = batch->sections[i];
      std::exception_ptr section_error = std::exchange(s.error, nullptr);
      if (error != nullptr) continue;
      error = std::move(section_error);
      body_crc = common::crc32_combine(body_crc, s.body_crc, s.enc_end - s.head);
      raw_crc = common::crc32_combine(raw_crc, s.raw_crc, s.raw_len);
    }
    if (error == nullptr) error = walk_error;
  }
  if (error == nullptr && pos != body.size()) {
    error = std::make_exception_ptr(CodecError("codec frame: trailing bytes after last section"));
  }
  // Report what a serial decode would: a corrupt body before anything the
  // damage made the section parser trip over.
  if (error != nullptr) {
    if (common::crc32(body) != h.body_crc) {
      throw CodecError("codec frame: body CRC mismatch (corrupt frame)");
    }
    std::rethrow_exception(error);
  }
  if (body_crc != h.body_crc) throw CodecError("codec frame: body CRC mismatch (corrupt frame)");
  if (raw_crc != h.raw_crc) throw CodecError("codec frame: decoded payload CRC mismatch");
  return out;
}

DataBuffer decode_if_encoded(const DataBuffer& bytes, std::uint64_t cap) {
  if (!is_encoded(bytes.span())) return bytes;
  return decode_block(bytes.span(), cap);
}

CodecEstimate estimate_block(std::span<const std::byte> raw) {
  CodecEstimate est;
  std::vector<SectionPlan> plan;
  std::uint64_t format_tag = 0;
  if (!plan_sections(raw, plan, format_tag)) return est;

  // Sample zigzag deltas of the u32 index sections and the gap widths of
  // the u64 pointer sections; predict the varint footprint from the byte
  // widths and score their distribution's entropy for the report.
  constexpr std::uint64_t kMaxSamples = 64 * 1024;
  std::uint64_t index_raw = 0;
  std::uint64_t value_raw = 0;
  double predicted_index = 0;
  // Valid varint widths are 1..10 bytes (a u64 delta >= 2^63 takes 10);
  // indexed directly by width, so slot 0 stays unused.
  std::uint64_t width_hist[11] = {};
  std::uint64_t sampled = 0;
  for (const SectionPlan& s : plan) {
    if (s.is_value) value_raw += s.length;
    if (!s.is_index) continue;
    index_raw += s.length;
    const auto section = raw.subspan(s.offset, s.length);
    if (s.preferred == kSectionDeltaU64) {
      const std::uint64_t n = s.length / 8;
      const std::uint64_t stride = std::max<std::uint64_t>(1, n / kMaxSamples);
      std::uint64_t bytes_for_sampled = 0;
      std::uint64_t taken = 0;
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n; i += stride) {
        std::uint64_t v;
        std::memcpy(&v, section.data() + i * 8, 8);
        const std::uint64_t gap = v >= prev ? v - prev : prev - v;
        const std::uint64_t w = varint_bytes(gap / std::max<std::uint64_t>(1, stride));
        bytes_for_sampled += w;
        ++width_hist[w];
        ++taken;
        prev = v;
      }
      if (taken > 0) {
        predicted_index += static_cast<double>(bytes_for_sampled) / static_cast<double>(taken) *
                           static_cast<double>(n);
        sampled += taken;
      }
    } else {
      const std::uint64_t n = s.length / 4;
      const std::uint64_t stride = std::max<std::uint64_t>(1, n / kMaxSamples);
      std::uint64_t bytes_for_sampled = 0;
      std::uint64_t taken = 0;
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < n; i += stride) {
        std::uint32_t v;
        std::memcpy(&v, section.data() + i * 4, 4);
        // Contiguous deltas are what the encoder sees; a strided sample
        // approximates them by scaling the observed jump back down.
        const std::int64_t jump =
            (static_cast<std::int64_t>(v) - prev) / static_cast<std::int64_t>(stride);
        const std::uint64_t w = varint_bytes(zigzag(jump));
        bytes_for_sampled += w;
        ++width_hist[w];
        ++taken;
        prev = static_cast<std::int64_t>(v);
      }
      if (taken > 0) {
        predicted_index += static_cast<double>(bytes_for_sampled) / static_cast<double>(taken) *
                           static_cast<double>(n);
        sampled += taken;
      }
    }
  }
  est.sampled_deltas = sampled;
  if (predicted_index > 0 && index_raw > 0) {
    est.index_ratio = static_cast<double>(index_raw) / predicted_index;
    // Conservative: assume values ride raw (the adaptive value pass only
    // helps padded/structured payloads).
    est.overall_ratio = static_cast<double>(index_raw + value_raw) /
                        (predicted_index + static_cast<double>(value_raw));
  }
  if (sampled > 0) {
    double h = 0;
    for (const std::uint64_t c : width_hist) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(sampled);
      h -= p * std::log2(p);
    }
    est.delta_entropy_bits = h;
  }
  return est;
}

}  // namespace dooc::spmv::codec
