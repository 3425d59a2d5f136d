#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "apps/bioinformatics.hpp"
#include "apps/forensics.hpp"
#include "apps/image.hpp"
#include "apps/json.hpp"
#include "apps/microscopy.hpp"
#include "common/stats.hpp"

namespace rocket::apps {
namespace {

// --- image codec ---

Image noisy_gradient(std::uint32_t w, std::uint32_t h, std::uint64_t seed) {
  Rng rng(seed);
  Image img = make_image(w, h);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      img.at(x, y) = static_cast<float>(
          64.0 + 0.5 * x + 0.3 * y + rng.normal(0, 3.0));
    }
  }
  return img;
}

TEST(ImageCodec, RoundTripIsCloseAtHighQuality) {
  const Image original = noisy_gradient(64, 48, 1);
  const ByteBuffer encoded = encode_image(original, 0.95);
  const Image decoded = decode_image(encoded);
  ASSERT_EQ(decoded.width, original.width);
  ASSERT_EQ(decoded.height, original.height);
  OnlineStats error;
  for (std::size_t i = 0; i < original.size(); ++i) {
    error.add(std::abs(decoded.pixels[i] - original.pixels[i]));
  }
  EXPECT_LT(error.mean(), 2.5) << "high quality should be near-lossless";
}

TEST(ImageCodec, LowerQualityMeansSmallerFiles) {
  const Image img = noisy_gradient(64, 64, 2);
  const auto high = encode_image(img, 0.95).size();
  const auto low = encode_image(img, 0.2).size();
  EXPECT_LT(low, high);
}

TEST(ImageCodec, RejectsCorruptData) {
  const Image img = noisy_gradient(16, 16, 3);
  ByteBuffer bytes = encode_image(img);
  bytes.resize(bytes.size() / 3);
  EXPECT_THROW(decode_image(bytes), std::runtime_error);
  EXPECT_THROW(decode_image(ByteBuffer{1, 2, 3}), std::runtime_error);
}

/// A codec file whose body is the 16-byte header of a `width` x `height`
/// image followed by the raw coefficient varints `coeffs`.
ByteBuffer codec_file(std::uint32_t width, std::uint32_t height,
                      const ByteBuffer& coeffs) {
  ByteBuffer body = lz_decompress(encode_image(make_image(8, 8)));
  body.resize(16);
  for (int i = 0; i < 4; ++i) {
    body[4 + i] = static_cast<std::uint8_t>(width >> (8 * i));
    body[8 + i] = static_cast<std::uint8_t>(height >> (8 * i));
  }
  body.insert(body.end(), coeffs.begin(), coeffs.end());
  return lz_compress(body);
}

TEST(ImageCodec, RejectsAnOverlongVarint) {
  ByteBuffer coeffs(64, 0);
  EXPECT_EQ(decode_image(codec_file(8, 8, coeffs)).size(), 64u);
  // The first coefficient runs on for 12 continuation bytes: its shift
  // would pass 63 bits.
  coeffs.assign(12, 0xFF);
  coeffs.push_back(0x01);
  coeffs.resize(13 + 63, 0);
  EXPECT_THROW(decode_image(codec_file(8, 8, coeffs)), std::runtime_error);
}

TEST(ImageCodec, RejectsDimensionsItsBodyCannotFill) {
  // A few dozen bytes claiming 4096x4096 must fail before the 64 MiB pixel
  // plane is allocated, not when the coefficients run out.
  const ByteBuffer file = codec_file(4096, 4096, ByteBuffer(32, 0));
  EXPECT_LT(file.size(), 100u);
  try {
    decode_image(file);
    ADD_FAILURE() << "decoded a 4096x4096 image from " << file.size()
                  << " bytes";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("too short"), std::string::npos)
        << e.what();
  }
  // Every pixel needs at least one byte.
  EXPECT_THROW(decode_image(codec_file(8, 8, ByteBuffer(63, 0))),
               std::runtime_error);
}

/// box_blur as a per-pixel loop that clamps every tap: the reference the
/// row-wise box_blur must match bit for bit.
Image clamped_box_blur(const Image& image, int radius) {
  const int w = static_cast<int>(image.width);
  const int h = static_cast<int>(image.height);
  Image horizontal = make_image(image.width, image.height);
  const float inv = 1.0f / static_cast<float>(2 * radius + 1);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0;
      for (int dx = -radius; dx <= radius; ++dx) {
        const int cx = std::clamp(x + dx, 0, w - 1);
        acc += image.at(static_cast<std::uint32_t>(cx),
                        static_cast<std::uint32_t>(y));
      }
      horizontal.at(static_cast<std::uint32_t>(x),
                    static_cast<std::uint32_t>(y)) = acc * inv;
    }
  }
  Image out = make_image(image.width, image.height);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0;
      for (int dy = -radius; dy <= radius; ++dy) {
        const int cy = std::clamp(y + dy, 0, h - 1);
        acc += horizontal.at(static_cast<std::uint32_t>(x),
                             static_cast<std::uint32_t>(cy));
      }
      out.at(static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)) =
          acc * inv;
    }
  }
  return out;
}

TEST(ImageOps, BoxBlurMatchesTheClampedReference) {
  // Radius 9 on an 8-wide image sends every tap through the clamp.
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {8, 8}, {16, 8}, {96, 64}, {128, 96}};
  for (const auto& [w, h] : sizes) {
    const Image img = noisy_gradient(w, h, 131 * w + h);
    for (const int radius : {1, 2, 3, 9}) {
      EXPECT_EQ(box_blur(img, radius).pixels,
                clamped_box_blur(img, radius).pixels)
          << w << "x" << h << " at radius " << radius;
    }
  }
}

TEST(ImageOps, BoxBlurPreservesConstantImages) {
  const Image constant = make_image(32, 32, 77.0f);
  const Image blurred = box_blur(constant, 3);
  for (const float p : blurred.pixels) EXPECT_NEAR(p, 77.0f, 1e-4f);
}

TEST(ImageOps, ResidualIsZeroMeanUnitNorm) {
  const Image img = noisy_gradient(64, 64, 4);
  const auto residual = noise_residual(img);
  double mean = 0, norm2 = 0;
  for (const float r : residual) {
    mean += r;
    norm2 += static_cast<double>(r) * r;
  }
  EXPECT_NEAR(mean / residual.size(), 0.0, 1e-6);
  EXPECT_NEAR(norm2, 1.0, 1e-4);
}

TEST(ImageOps, NccBoundsAndIdentity) {
  const Image img = noisy_gradient(32, 32, 5);
  const auto a = noise_residual(img);
  EXPECT_NEAR(normalized_cross_correlation(a, a), 1.0, 1e-9);
  const auto b = noise_residual(noisy_gradient(32, 32, 6));
  const double c = normalized_cross_correlation(a, b);
  EXPECT_GE(c, -1.0);
  EXPECT_LE(c, 1.0);
}

// --- forensics end-to-end discrimination ---

/// Parses `file` into a device slot as the runtime's H2D stage does (a
/// whole slot, or more for a larger item), then preprocesses it.
gpu::DeviceBuffer load_slot(const ForensicsApplication& app,
                            gpu::VirtualDevice& device, runtime::ItemId item,
                            const ByteBuffer& file) {
  runtime::HostBuffer parsed;
  app.parse(item, file, parsed);
  auto buffer = device.allocate(
      std::max<std::size_t>(parsed.size(), app.slot_size()));
  std::copy(parsed.begin(), parsed.end(), buffer.data());
  app.preprocess(item, buffer);
  return buffer;
}

TEST(Forensics, SameCameraPairsCorrelateHigher) {
  storage::MemoryStore store;
  ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 4;
  cfg.width = 96;
  cfg.height = 64;
  cfg.seed = 11;
  ForensicsDataset dataset(cfg, store);
  ForensicsApplication app(dataset);

  // Drive the pipeline manually: parse → preprocess → compare.
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  OnlineStats same, cross;
  std::vector<gpu::DeviceBuffer> items;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    items.push_back(load_slot(app, device, i, store.read(app.file_name(i))));
  }
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    for (runtime::ItemId j = i + 1; j < dataset.item_count(); ++j) {
      const double score = app.compare(i, items[i], j, items[j]);
      if (dataset.camera_of(i) == dataset.camera_of(j)) {
        same.add(score);
      } else {
        cross.add(score);
      }
    }
  }
  EXPECT_GT(same.mean(), cross.mean() + 3 * cross.stddev())
      << "PRNU must separate same-camera pairs (same mean=" << same.mean()
      << " cross mean=" << cross.mean() << ")";
}

TEST(Forensics, InPlaceKernelsMatchTheReference) {
  // The benchmark's geometry. A slot is {u32 width, u32 height, f64 norm2}
  // followed by the residual plane.
  storage::MemoryStore store;
  ForensicsConfig cfg;
  cfg.cameras = 2;
  cfg.images_per_camera = 3;
  cfg.width = 128;
  cfg.height = 96;
  cfg.seed = 5;
  ForensicsDataset dataset(cfg, store);
  ForensicsApplication app(dataset);
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());

  std::vector<gpu::DeviceBuffer> slots;
  std::vector<std::vector<float>> residuals;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    const ByteBuffer file = store.read(app.file_name(i));
    const auto& r = residuals.emplace_back(noise_residual(decode_image(file)));
    const auto& slot = slots.emplace_back(load_slot(app, device, i, file));
    ASSERT_EQ(slot.size(), app.slot_size());
    ASSERT_EQ(r.size(), std::size_t{cfg.width} * cfg.height);
    std::uint32_t dims[2] = {};
    double norm2 = 0.0;
    std::memcpy(dims, slot.data(), sizeof(dims));
    std::memcpy(&norm2, slot.data() + 8, sizeof(norm2));
    EXPECT_EQ(dims[0], cfg.width);
    EXPECT_EQ(dims[1], cfg.height);
    EXPECT_EQ(std::memcmp(slot.data() + 16, r.data(), r.size() * sizeof(float)),
              0)
        << "item " << i;
    double expected = 0.0;
    for (const float v : r) expected += static_cast<double>(v) * v;
    EXPECT_EQ(norm2, expected) << "item " << i;
  }
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    for (runtime::ItemId j = i; j < dataset.item_count(); ++j) {
      EXPECT_EQ(app.compare(i, slots[i], j, slots[j]),
                normalized_cross_correlation(residuals[i], residuals[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Forensics, SlotsThatDisagreeWithTheirHeadersThrow) {
  storage::MemoryStore store;
  ForensicsConfig cfg;
  cfg.cameras = 1;
  cfg.images_per_camera = 2;
  cfg.width = 8;
  cfg.height = 8;
  ForensicsDataset dataset(cfg, store);
  ForensicsApplication app(dataset);
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());

  // One 16x16 file beside the 8x8 items: its residual is four times the
  // size of the other's, in either operand position.
  const auto small = load_slot(app, device, 0, store.read(app.file_name(0)));
  const auto large = load_slot(app, device, 1,
                               encode_image(noisy_gradient(16, 16, 9)));
  EXPECT_NO_THROW(app.compare(0, small, 0, small));
  EXPECT_THROW(app.compare(1, large, 0, small), std::runtime_error);
  EXPECT_THROW(app.compare(0, small, 1, large), std::runtime_error);

  // A slot shorter than its header plus its plane.
  runtime::HostBuffer parsed;
  app.parse(0, store.read(app.file_name(0)), parsed);
  for (const std::size_t size : {parsed.size() - 1, std::size_t{8}}) {
    auto truncated = device.allocate(size);
    std::copy(parsed.begin(), parsed.begin() + size, truncated.data());
    EXPECT_THROW(app.preprocess(0, truncated), std::runtime_error);
    EXPECT_THROW(app.compare(0, small, 0, truncated), std::runtime_error);
    EXPECT_THROW(app.compare(0, truncated, 0, small), std::runtime_error);
  }
}

// --- JSON ---

TEST(Json, ParsesDocuments) {
  const auto doc = json_parse(std::string(
      R"({"name": "particle", "n": 3, "ok": true, "pts": [[1.5, -2], [0, 4e2]], "none": null})"));
  EXPECT_EQ(doc.at("name").as_string(), "particle");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), 3.0);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  const auto& pts = doc.at("pts").as_array();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].as_array()[1].as_number(), -2.0);
  EXPECT_DOUBLE_EQ(pts[1].as_array()[1].as_number(), 400.0);
}

TEST(Json, DumpParseRoundTrip) {
  JsonObject obj;
  obj["a"] = JsonValue(1.5);
  obj["b"] = JsonValue("text with \"quotes\"");
  JsonArray arr;
  arr.emplace_back(true);
  arr.emplace_back(nullptr);
  obj["c"] = JsonValue(std::move(arr));
  const std::string text = JsonValue(std::move(obj)).dump();
  const auto parsed = json_parse(text);
  EXPECT_DOUBLE_EQ(parsed.at("a").as_number(), 1.5);
  EXPECT_EQ(parsed.at("b").as_string(), "text with \"quotes\"");
  EXPECT_TRUE(parsed.at("c").as_array()[0].as_bool());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(std::string("{")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("[1, 2,")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("{\"a\" 1}")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("12 34")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("truu")), std::runtime_error);
}

// --- microscopy ---

std::vector<Point2> ring_points(int count, double radius, double rot,
                                Point2 shift, double noise, Rng& rng) {
  std::vector<Point2> pts;
  for (int i = 0; i < count; ++i) {
    const double angle = 6.2831853 * i / count + rot;
    pts.push_back(Point2{radius * std::cos(angle) + shift.x + rng.normal(0, noise),
                         radius * std::sin(angle) + shift.y + rng.normal(0, noise)});
  }
  return pts;
}

TEST(Microscopy, GmmOverlapPeaksAtTrueRotation) {
  Rng rng(3);
  const auto base = ring_points(40, 30.0, 0.0, {0, 0}, 0.5, rng);
  // A copy rotated by 0.5 rad: overlap at 0.5 must beat overlap at 0.
  const auto rotated = ring_points(40, 30.0, 0.5, {0, 0}, 0.5, rng);
  const double aligned = gmm_overlap(base, rotated, 0.5, {0, 0}, 2.0);
  const double misaligned = gmm_overlap(base, rotated, 0.0, {0, 0}, 2.0);
  EXPECT_GT(aligned, misaligned);
}

TEST(Microscopy, RegistrationRecoversAlignment) {
  Rng rng(7);
  const auto a = ring_points(30, 40.0, 0.0, {0, 0}, 1.0, rng);
  const auto b = ring_points(30, 40.0, 0.9, {5.0, -3.0}, 1.0, rng);
  const auto result = register_particles(a, b, 2.0);
  EXPECT_GT(result.score, 0.4) << "registration should find strong overlap";
  EXPECT_GT(result.iterations, 50) << "optimiser must do real work";
  // Same-structure particles align far better than structure vs noise.
  std::vector<Point2> noise_cloud;
  for (int i = 0; i < 30; ++i) {
    noise_cloud.push_back(Point2{rng.uniform(-40, 40), rng.uniform(-40, 40)});
  }
  const auto nonsense = register_particles(a, noise_cloud, 2.0);
  EXPECT_GT(result.score, nonsense.score);
}

TEST(Microscopy, DatasetRoundTripThroughApplication) {
  storage::MemoryStore store;
  MicroscopyConfig cfg;
  cfg.particles = 4;
  cfg.seed = 5;
  MicroscopyDataset dataset(cfg, store);
  MicroscopyApplication app(dataset);
  EXPECT_EQ(app.item_count(), 4u);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  runtime::HostBuffer parsed;
  app.parse(0, store.read(app.file_name(0)), parsed);
  EXPECT_LE(parsed.size(), app.slot_size());
  auto b0 = device.allocate(app.slot_size());
  std::copy(parsed.begin(), parsed.end(), b0.data());
  app.parse(1, store.read(app.file_name(1)), parsed);
  auto b1 = device.allocate(app.slot_size());
  std::copy(parsed.begin(), parsed.end(), b1.data());

  // All particles share the ring template: registration must find overlap.
  const double score = app.compare(0, b0, 1, b1);
  EXPECT_GT(score, 0.3);
}

// --- bioinformatics ---

TEST(Bioinformatics, CompositionVectorProperties) {
  Rng rng(9);
  std::string seq;
  for (int i = 0; i < 5000; ++i) {
    seq += "ACDEFGHIKLMNPQRSTVWY"[rng.uniform_index(20)];
  }
  const auto cv = build_composition_vector(seq, 3);
  EXPECT_GT(cv.size(), 100u);
  // Sorted unique indices.
  for (std::size_t i = 1; i < cv.size(); ++i) {
    EXPECT_LT(cv.indices[i - 1], cv.indices[i]);
  }
  // Self-correlation is exactly 1.
  EXPECT_NEAR(cv_correlation(cv, cv), 1.0, 1e-9);
  EXPECT_NEAR(cv_distance(cv, cv), 0.0, 1e-9);
}

TEST(Bioinformatics, DistanceTracksMutationLoad) {
  Rng rng(13);
  std::string base;
  for (int i = 0; i < 8000; ++i) {
    base += "ACDEFGHIKLMNPQRSTVWY"[rng.uniform_index(20)];
  }
  auto mutate_copy = [&](double rate, std::uint64_t seed) {
    Rng mrng(seed);
    std::string out = base;
    for (auto& c : out) {
      if (mrng.uniform() < rate) {
        c = "ACDEFGHIKLMNPQRSTVWY"[mrng.uniform_index(20)];
      }
    }
    return out;
  };
  const auto cv0 = build_composition_vector(base, 3);
  const auto near = build_composition_vector(mutate_copy(0.02, 1), 3);
  const auto far = build_composition_vector(mutate_copy(0.3, 2), 3);
  const double d_near = cv_distance(cv0, near);
  const double d_far = cv_distance(cv0, far);
  EXPECT_LT(d_near, d_far) << "more mutations → larger CV distance";
  EXPECT_GT(d_near, 0.0);
  EXPECT_LE(d_far, 1.0);
}

TEST(Bioinformatics, CladeStructureIsRecoverable) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 30;
  cfg.mutation_rate = 0.04;
  cfg.seed = 21;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> cvs;
  for (runtime::ItemId i = 0; i < 8; ++i) {
    runtime::HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    auto buffer = device.allocate(app.slot_size());
    std::copy(parsed.begin(), parsed.end(), buffer.data());
    app.preprocess(i, buffer);
    cvs.push_back(std::move(buffer));
  }

  // Average distance within the deepest clades (siblings) must be smaller
  // than across the root split.
  OnlineStats sibling, distant;
  for (runtime::ItemId i = 0; i < 8; ++i) {
    for (runtime::ItemId j = i + 1; j < 8; ++j) {
      const double d = app.compare(i, cvs[i], j, cvs[j]);
      if (dataset.clade_depth(i, j) == 2) {
        sibling.add(d);
      } else if (dataset.clade_depth(i, j) == 0) {
        distant.add(d);
      }
    }
  }
  EXPECT_LT(sibling.mean(), distant.mean())
      << "sibling species must be closer than cross-root pairs";
}

TEST(Bioinformatics, CladeDepthOracle) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 2;
  cfg.protein_len_min = 50;
  cfg.protein_len_max = 60;
  BioinformaticsDataset dataset(cfg, store);
  EXPECT_EQ(dataset.clade_depth(0, 1), 2u);  // siblings
  EXPECT_EQ(dataset.clade_depth(0, 2), 1u);  // cousins
  EXPECT_EQ(dataset.clade_depth(0, 7), 0u);  // across the root
  EXPECT_EQ(dataset.clade_depth(3, 3), 32u);
}

}  // namespace
}  // namespace rocket::apps
