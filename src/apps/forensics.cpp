#include "apps/forensics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace rocket::apps {

namespace {

/// Smooth random "scene": a sum of low-frequency sinusoidal gradients.
Image random_scene(std::uint32_t width, std::uint32_t height, Rng& rng) {
  Image scene = make_image(width, height, 128.0f);
  for (int wave = 0; wave < 4; ++wave) {
    const double fx = rng.uniform(0.2, 2.0) * 6.2831853 / width;
    const double fy = rng.uniform(0.2, 2.0) * 6.2831853 / height;
    const double phase = rng.uniform(0.0, 6.2831853);
    const double amp = rng.uniform(10.0, 35.0);
    for (std::uint32_t y = 0; y < height; ++y) {
      for (std::uint32_t x = 0; x < width; ++x) {
        scene.at(x, y) += static_cast<float>(
            amp * std::sin(fx * x + fy * y + phase));
      }
    }
  }
  return scene;
}

/// Per-camera PRNU fingerprint: i.i.d. gaussian sensitivity deviations.
std::vector<float> camera_fingerprint(std::uint32_t width,
                                      std::uint32_t height,
                                      std::uint64_t camera_seed) {
  Rng rng(camera_seed);
  std::vector<float> k(static_cast<std::size_t>(width) * height);
  for (auto& v : k) v = static_cast<float>(rng.normal());
  return k;
}

/// Header prepended to the parsed pixel plane so the device-side stages
/// know the geometry without re-parsing the container. Parse writes `norm2`
/// as 0; preprocess sets it to the residual's squared norm, summed in index
/// order, so compare need not recompute it.
struct ParsedHeader {
  std::uint32_t width;
  std::uint32_t height;
  double norm2;
};
static_assert(sizeof(ParsedHeader) == 16, "slot layout is {u32, u32, f64}");

/// Reads a slot's header and checks that the buffer holds its whole plane.
ParsedHeader read_header(const gpu::DeviceBuffer& data) {
  ParsedHeader header{};
  if (data.size() < sizeof(header)) {
    throw std::runtime_error("forensics: slot shorter than its header");
  }
  std::memcpy(&header, data.data(), sizeof(header));
  const std::uint64_t floats =
      static_cast<std::uint64_t>(header.width) * header.height;
  if ((data.size() - sizeof(header)) / sizeof(float) < floats) {
    throw std::runtime_error("forensics: slot shorter than its plane");
  }
  return header;
}

}  // namespace

ForensicsDataset::ForensicsDataset(ForensicsConfig config,
                                   storage::MemoryStore& store)
    : config_(config) {
  ROCKET_CHECK(config_.width % 8 == 0 && config_.height % 8 == 0,
               "image dimensions must be multiples of 8");
  for (std::uint32_t cam = 0; cam < config_.cameras; ++cam) {
    const auto fingerprint = camera_fingerprint(
        config_.width, config_.height, mix64(config_.seed * 7919 + cam));
    for (std::uint32_t shot = 0; shot < config_.images_per_camera; ++shot) {
      const runtime::ItemId item = cam * config_.images_per_camera + shot;
      Rng rng(mix64(config_.seed ^ (item * 0x9E3779B97F4A7C15ULL + 13)));
      Image photo = random_scene(config_.width, config_.height, rng);
      for (std::size_t i = 0; i < photo.size(); ++i) {
        // Multiplicative PRNU + additive shot noise, clamped to 8-bit range.
        const double value =
            photo.pixels[i] *
                (1.0 + config_.fingerprint_strength * fingerprint[i]) +
            config_.shot_noise * rng.normal();
        photo.pixels[i] = static_cast<float>(std::clamp(value, 0.0, 255.0));
      }
      store.put(file_name(item), encode_image(photo, config_.codec_quality));
    }
  }
}

std::string ForensicsDataset::file_name(runtime::ItemId item) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "img_%05u.rki", item);
  return buf;
}

void ForensicsApplication::parse(runtime::ItemId, const ByteBuffer& file,
                                 runtime::HostBuffer& out) const {
  const Image image = decode_image(file);
  const ParsedHeader header{image.width, image.height, 0.0};
  out.resize(sizeof(header) + image.size() * sizeof(float));
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), image.pixels.data(),
              image.size() * sizeof(float));
}

void ForensicsApplication::preprocess(runtime::ItemId,
                                      gpu::DeviceBuffer& data) const {
  ParsedHeader header = read_header(data);
  Image image = make_image(header.width, header.height);
  std::memcpy(image.pixels.data(), data.data() + sizeof(header),
              image.size() * sizeof(float));
  const std::vector<float> residual = noise_residual(image);
  header.norm2 = 0.0;
  for (const float r : residual) header.norm2 += static_cast<double>(r) * r;
  std::memcpy(data.data(), &header, sizeof(header));
  std::memcpy(data.data() + sizeof(header), residual.data(),
              residual.size() * sizeof(float));
}

double ForensicsApplication::compare(runtime::ItemId,
                                     const gpu::DeviceBuffer& left_data,
                                     runtime::ItemId,
                                     const gpu::DeviceBuffer& right_data) const {
  // The normalised cross-correlation of the two residuals, read in place:
  // one dot product in index order over 4-byte loads from both slots, and
  // the norms preprocess stored. Scores equal normalized_cross_correlation's
  // bit for bit.
  const ParsedHeader a = read_header(left_data);
  const ParsedHeader b = read_header(right_data);
  if (a.width != b.width || a.height != b.height) {
    throw std::runtime_error("forensics: residuals differ in size");
  }
  const std::size_t count = static_cast<std::size_t>(a.width) * a.height;
  const std::uint8_t* left = left_data.data() + sizeof(ParsedHeader);
  const std::uint8_t* right = right_data.data() + sizeof(ParsedHeader);
  double dot = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    float x = 0.0f, y = 0.0f;
    std::memcpy(&x, left + i * sizeof(float), sizeof(float));
    std::memcpy(&y, right + i * sizeof(float), sizeof(float));
    dot += static_cast<double>(x) * y;
  }
  const double denom = std::sqrt(a.norm2 * b.norm2);
  return denom > 0.0 ? dot / denom : 0.0;
}

Bytes ForensicsApplication::slot_size() const {
  const auto& cfg = dataset_->config();
  return sizeof(ParsedHeader) +
         static_cast<Bytes>(cfg.width) * cfg.height * sizeof(float);
}

}  // namespace rocket::apps
