#pragma once

// Common-source identification (digital forensics, paper §5.1).
//
// Photos taken with the same camera share a Photo Response Non-Uniformity
// (PRNU) pattern: per-pixel sensitivity deviations that multiply into every
// exposure. The pipeline: decode the image (CPU parse), extract the noise
// residual W = I - denoise(I) and normalise it (GPU pre-process), then
// score pairs by normalised cross-correlation (GPU compare). Pairs from
// the same camera correlate far above pairs from different cameras.
//
// The Dresden image database is proprietary-by-size for this offline
// reproduction, so ForensicsDataset synthesises it: each camera gets a
// random PRNU fingerprint; each photo is a random smooth scene modulated
// by its camera's fingerprint plus shot noise, stored in Rocket's own
// lossy image codec (apps/image.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "apps/image.hpp"
#include "runtime/application.hpp"
#include "storage/object_store.hpp"

namespace rocket::apps {

struct ForensicsConfig {
  std::uint32_t cameras = 4;
  std::uint32_t images_per_camera = 8;
  std::uint32_t width = 128;   // multiples of 8
  std::uint32_t height = 96;
  double fingerprint_strength = 0.03;  // PRNU amplitude (fraction of signal)
  double shot_noise = 2.0;             // additive sensor noise, grey levels
  double codec_quality = 0.9;
  std::uint64_t seed = 1;
};

/// Generates the synthetic photo collection into `store` and serves as the
/// ground-truth oracle for tests/examples.
class ForensicsDataset {
 public:
  ForensicsDataset(ForensicsConfig config, storage::MemoryStore& store);

  std::uint32_t item_count() const {
    return config_.cameras * config_.images_per_camera;
  }
  std::uint32_t camera_of(runtime::ItemId item) const {
    return item / config_.images_per_camera;
  }
  std::string file_name(runtime::ItemId item) const;
  const ForensicsConfig& config() const { return config_; }

 private:
  ForensicsConfig config_;
};

/// The Rocket application (paper Fig 3 shape).
class ForensicsApplication final : public runtime::Application {
 public:
  explicit ForensicsApplication(const ForensicsDataset& dataset)
      : dataset_(&dataset) {}

  std::string name() const override { return "forensics"; }
  std::uint32_t item_count() const override { return dataset_->item_count(); }
  std::string file_name(runtime::ItemId item) const override {
    return dataset_->file_name(item);
  }

  /// CPU: decode the codec bytes into a float image (raw pixel plane).
  void parse(runtime::ItemId item, const ByteBuffer& file,
             runtime::HostBuffer& out) const override;

  /// GPU: extract the normalised PRNU noise residual in place and store its
  /// squared norm in the slot's header.
  void preprocess(runtime::ItemId item, gpu::DeviceBuffer& data) const override;

  /// GPU: normalised cross-correlation of two residuals, read in place from
  /// both slots. Throws std::runtime_error when the two differ in size or a
  /// slot is shorter than its header says.
  double compare(runtime::ItemId left, const gpu::DeviceBuffer& left_data,
                 runtime::ItemId right,
                 const gpu::DeviceBuffer& right_data) const override;

  Bytes slot_size() const override;

 private:
  const ForensicsDataset* dataset_;
};

}  // namespace rocket::apps
