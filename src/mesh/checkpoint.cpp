#include "mesh/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace rocket::mesh::checkpoint {

namespace {

// Little-endian primitives. The in-memory journal buffer is plain bytes;
// memcpy keeps the access alignment-safe on every target.

void put_u32(ByteBuffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_u64(ByteBuffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_f64(ByteBuffer& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over a replayed journal. Every get_* refuses to
/// run past `end` — a malformed body inside a CRC-clean record (can only
/// happen through store corruption that preserved the CRC, or a writer
/// bug) surfaces as ok=false rather than UB.
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || static_cast<std::size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t get_u8() {
    if (!need(1)) return 0;
    return *p++;
  }

  std::uint32_t get_u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    return v;
  }

  std::uint64_t get_u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }
};

// Records bigger than this are framing garbage, not data: the largest
// legitimate record is a result batch of a few thousand pairs.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

bool parse_payload(const std::uint8_t* payload, std::uint32_t len,
                   Replay& out) {
  Reader r{payload, payload + len};
  const std::uint8_t type = r.get_u8();
  switch (type) {
    case Journal::kManifest: {
      Manifest m;
      m.fingerprint = r.get_u64();
      m.items = r.get_u32();
      m.num_nodes = r.get_u32();
      m.granularity = r.get_u32();
      m.seed = r.get_u64();
      m.expected_pairs = r.get_u64();
      if (!r.ok || r.p != r.end) return false;
      out.manifest = m;
      out.has_manifest = true;
      return true;
    }
    case Journal::kResultBatch: {
      const std::uint32_t count = r.get_u32();
      if (!r.ok || static_cast<std::uint64_t>(r.end - r.p) !=
                       static_cast<std::uint64_t>(count) * 16) {
        return false;
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        runtime::PairResult res;
        res.left = r.get_u32();
        res.right = r.get_u32();
        res.score = r.get_f64();
        if (!r.ok) return false;
        out.results.push_back(res);
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

Journal::Journal(storage::ObjectStore& store, std::string name)
    : store_(&store), name_(std::move(name)) {}

std::uint64_t Journal::fingerprint(std::uint32_t items,
                                   std::uint32_t num_nodes,
                                   std::uint32_t granularity,
                                   std::uint64_t seed) {
  // "rocketj2": journals of the earlier format, which also held
  // region-completion records (type 3), fail this check and start fresh.
  // Replaying one would tear at its first type-3 record and cut the
  // delivered batches after it.
  std::uint64_t h = mix64(0x726F636B65746A32ULL);
  h = mix64(h ^ items);
  h = mix64(h ^ num_nodes);
  h = mix64(h ^ granularity);
  h = mix64(h ^ seed);
  return h;
}

Replay Journal::replay(storage::ObjectStore& store, const std::string& name) {
  Replay out;
  if (!store.exists(name)) return out;
  out.found = true;
  const ByteBuffer data = store.read(name);
  const std::uint8_t* base = data.data();
  std::size_t off = 0;
  while (off < data.size()) {
    // A record needs at least its 8-byte header plus a 1-byte payload.
    if (data.size() - off < 9) break;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, base + off, 4);
    std::memcpy(&crc, base + off + 4, 4);
    if constexpr (std::endian::native == std::endian::big) {
      len = __builtin_bswap32(len);
      crc = __builtin_bswap32(crc);
    }
    if (len == 0 || len > kMaxRecordBytes || data.size() - off - 8 < len) break;
    const std::uint8_t* payload = base + off + 8;
    if (crc32(payload, len) != crc) break;
    // CRC-clean but semantically malformed is also a tear: nothing after
    // an untrusted record can be trusted to line up with the run.
    if (!parse_payload(payload, len, out)) break;
    ++out.records;
    off += 8 + static_cast<std::size_t>(len);
  }
  out.valid_bytes = off;
  out.torn = off < data.size();
  return out;
}

void Journal::truncate_to_valid(storage::ObjectStore& store,
                                const std::string& name,
                                const Replay& replay) {
  if (!replay.found || !replay.torn) return;
  const ByteBuffer data = store.read(name);
  ByteBuffer prefix(data.begin(),
                    data.begin() + static_cast<std::ptrdiff_t>(std::min(
                                       replay.valid_bytes, data.size())));
  store.put(name, prefix);
}

void Journal::start_fresh(const Manifest& manifest) {
  std::scoped_lock lock(mutex_);
  store_->put(name_, ByteBuffer{});
  ByteBuffer body;
  put_u64(body, manifest.fingerprint);
  put_u32(body, manifest.items);
  put_u32(body, manifest.num_nodes);
  put_u32(body, manifest.granularity);
  put_u64(body, manifest.seed);
  put_u64(body, manifest.expected_pairs);
  append_record(kManifest, body);
}

void Journal::append_results(const std::vector<runtime::PairResult>& results) {
  if (results.empty()) return;
  std::scoped_lock lock(mutex_);
  ByteBuffer body;
  body.reserve(4 + results.size() * 16);
  put_u32(body, static_cast<std::uint32_t>(results.size()));
  for (const auto& res : results) {
    put_u32(body, res.left);
    put_u32(body, res.right);
    put_f64(body, res.score);
  }
  append_record(kResultBatch, body);
}

std::uint64_t Journal::records_appended() const {
  std::scoped_lock lock(mutex_);
  return records_appended_;
}

void Journal::append_record(std::uint8_t type, const ByteBuffer& body) {
  ByteBuffer record;
  record.reserve(8 + 1 + body.size());
  ByteBuffer payload;
  payload.reserve(1 + body.size());
  payload.push_back(type);
  payload.insert(payload.end(), body.begin(), body.end());
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u32(record, crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  store_->append(name_, record);
  ++records_appended_;
}

}  // namespace rocket::mesh::checkpoint
