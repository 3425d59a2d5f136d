#include "common/compress.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace rocket {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 255 + kMinMatch;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1 << kHashBits;
constexpr std::size_t kMaxChain = 32;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_varint(ByteBuffer& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
    if (shift > 63) break;
  }
  throw std::runtime_error("lz_decompress: truncated varint");
}

// Token stream grammar:
//   literal run : varint(count<<1 | 0), then `count` raw bytes
//   match       : varint(((len-kMinMatch)<<1) | 1), varint(distance)
void flush_literals(ByteBuffer& out, const std::uint8_t* data,
                    std::size_t begin, std::size_t end) {
  while (begin < end) {
    const std::size_t chunk = end - begin;
    put_varint(out, static_cast<std::uint64_t>(chunk) << 1);
    out.insert(out.end(), data + begin, data + begin + chunk);
    begin += chunk;
  }
}

}  // namespace

ByteBuffer lz_compress(const ByteBuffer& input) {
  ByteBuffer out;
  out.reserve(input.size() / 2 + 16);
  // Header: uncompressed size, little-endian.
  std::uint64_t size = input.size();
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  if (input.empty()) return out;

  const std::uint8_t* data = input.data();
  const std::size_t n = input.size();

  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(n, -1);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash4(data + pos);
      std::int64_t cand = head[h];
      std::size_t chain = 0;
      while (cand >= 0 && chain < kMaxChain &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const auto c = static_cast<std::size_t>(cand);
        std::size_t len = 0;
        const std::size_t limit = std::min(kMaxMatch, n - pos);
        while (len < limit && data[c + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - c;
          if (len == kMaxMatch) break;
        }
        cand = prev[c];
        ++chain;
      }
      head[h] = static_cast<std::int64_t>(pos);
      prev[pos] = cand >= 0 ? cand : prev[pos];
    }

    if (best_len >= kMinMatch) {
      flush_literals(out, data, literal_start, pos);
      put_varint(out, (static_cast<std::uint64_t>(best_len - kMinMatch) << 1) | 1);
      put_varint(out, best_dist);
      // Insert hash entries for the skipped positions so later matches can
      // reference inside this match.
      const std::size_t stop = std::min(pos + best_len, n >= kMinMatch ? n - kMinMatch + 1 : 0);
      for (std::size_t i = pos + 1; i < stop; ++i) {
        const std::uint32_t h = hash4(data + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  flush_literals(out, data, literal_start, n);
  return out;
}

ByteBuffer lz_decompress(const ByteBuffer& input) {
  if (input.size() < 8) throw std::runtime_error("lz_decompress: short input");
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) size |= static_cast<std::uint64_t>(input[static_cast<std::size_t>(i)]) << (8 * i);

  const std::uint8_t* p = input.data() + 8;
  const std::uint8_t* end = input.data() + input.size();
  // A match costs at least two input bytes and yields at most kMaxMatch, a
  // literal yields less than it costs: the header cannot make us reserve
  // more than the remaining input can expand to.
  const auto remaining = static_cast<std::uint64_t>(end - p);
  ByteBuffer out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(size, remaining / 2 * kMaxMatch)));
  // Every token is checked against the claimed size before it writes.
  const auto check_room = [&](std::uint64_t len) {
    if (len > size - out.size()) {
      throw std::runtime_error("lz_decompress: output exceeds claimed size");
    }
  };
  while (p < end) {
    const std::uint64_t tok = get_varint(p, end);
    if (tok & 1) {
      if ((tok >> 1) > kMaxMatch - kMinMatch) {
        throw std::runtime_error("lz_decompress: match too long");
      }
      const std::size_t len = static_cast<std::size_t>(tok >> 1) + kMinMatch;
      const auto dist = static_cast<std::size_t>(get_varint(p, end));
      if (dist == 0 || dist > out.size()) {
        throw std::runtime_error("lz_decompress: bad distance");
      }
      check_room(len);
      std::size_t from = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[from + i]);
    } else {
      const auto len = static_cast<std::size_t>(tok >> 1);
      if (static_cast<std::size_t>(end - p) < len) {
        throw std::runtime_error("lz_decompress: truncated literals");
      }
      check_room(len);
      out.insert(out.end(), p, p + len);
      p += len;
    }
  }
  if (out.size() != size) {
    throw std::runtime_error("lz_decompress: size mismatch");
  }
  return out;
}

}  // namespace rocket
