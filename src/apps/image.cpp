#include "apps/image.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace rocket::apps {

namespace {

constexpr std::uint32_t kMagic = 0x524B4931;  // "RKI1"
constexpr int kBlock = 8;

/// 8-point DCT-II basis, precomputed.
struct DctBasis {
  std::array<std::array<double, kBlock>, kBlock> c{};
  DctBasis() {
    for (int k = 0; k < kBlock; ++k) {
      const double scale = k == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
      for (int x = 0; x < kBlock; ++x) {
        c[k][x] = scale * std::cos((2.0 * x + 1.0) * k * 3.14159265358979323846 /
                                   (2.0 * kBlock));
      }
    }
  }
};

const DctBasis& basis() {
  static const DctBasis b;
  return b;
}

void dct2d(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  const auto& c = basis().c;
  double tmp[kBlock][kBlock];
  for (int u = 0; u < kBlock; ++u) {  // rows
    for (int x = 0; x < kBlock; ++x) {
      double acc = 0;
      for (int y = 0; y < kBlock; ++y) acc += in[x][y] * c[u][y];
      tmp[x][u] = acc;
    }
  }
  for (int v = 0; v < kBlock; ++v) {  // columns
    for (int u = 0; u < kBlock; ++u) {
      double acc = 0;
      for (int x = 0; x < kBlock; ++x) acc += tmp[x][u] * c[v][x];
      out[v][u] = acc;
    }
  }
}

void idct2d(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  const auto& c = basis().c;
  double tmp[kBlock][kBlock];
  for (int x = 0; x < kBlock; ++x) {
    for (int u = 0; u < kBlock; ++u) {
      double acc = 0;
      for (int v = 0; v < kBlock; ++v) acc += in[v][u] * c[v][x];
      tmp[x][u] = acc;
    }
  }
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      double acc = 0;
      for (int u = 0; u < kBlock; ++u) acc += tmp[x][u] * c[u][y];
      out[x][y] = acc;
    }
  }
}

/// JPEG-flavoured frequency-weighted quantisation step for coefficient
/// (u, v) at the given quality.
double quant_step(int u, int v, double quality) {
  const double base = 1.0 + 1.2 * (u + v);
  return base / std::max(0.05, quality);
}

const std::array<std::pair<int, int>, 64>& zigzag() {
  static const auto order = [] {
    std::array<std::pair<int, int>, 64> z{};
    int idx = 0;
    for (int s = 0; s < 2 * kBlock - 1; ++s) {
      if (s % 2 == 0) {
        for (int u = std::min(s, kBlock - 1); u >= 0 && s - u < kBlock; --u) {
          z[idx++] = {u, s - u};
        }
      } else {
        for (int v = std::min(s, kBlock - 1); v >= 0 && s - v < kBlock; --v) {
          z[idx++] = {s - v, v};
        }
      }
    }
    return z;
  }();
  return order;
}

void put_u32(ByteBuffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t*& p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p++) << (8 * i);
  return v;
}

void put_varint_signed(ByteBuffer& out, std::int64_t v) {
  // ZigZag encode.
  std::uint64_t u = (static_cast<std::uint64_t>(v) << 1) ^
                    static_cast<std::uint64_t>(v >> 63);
  while (u >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(u) | 0x80);
    u >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(u));
}

std::int64_t get_varint_signed(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t u = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
    }
    shift += 7;
    if (shift > 63) throw std::runtime_error("decode_image: overlong varint");
  }
  throw std::runtime_error("decode_image: truncated varint");
}

}  // namespace

Image make_image(std::uint32_t width, std::uint32_t height, float fill) {
  Image img;
  img.width = width;
  img.height = height;
  img.pixels.assign(static_cast<std::size_t>(width) * height, fill);
  return img;
}

ByteBuffer encode_image(const Image& image, double quality) {
  ROCKET_CHECK(image.width % kBlock == 0 && image.height % kBlock == 0,
               "image dimensions must be multiples of 8");
  ByteBuffer body;
  put_u32(body, kMagic);
  put_u32(body, image.width);
  put_u32(body, image.height);
  put_u32(body, static_cast<std::uint32_t>(quality * 1000));

  double block[kBlock][kBlock];
  double coeffs[kBlock][kBlock];
  for (std::uint32_t by = 0; by < image.height; by += kBlock) {
    for (std::uint32_t bx = 0; bx < image.width; bx += kBlock) {
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          block[y][x] = image.at(bx + x, by + y) - 128.0;
        }
      }
      dct2d(block, coeffs);
      for (const auto& [u, v] : zigzag()) {
        const double q = quant_step(u, v, quality);
        put_varint_signed(body, std::llround(coeffs[u][v] / q));
      }
    }
  }
  return lz_compress(body);
}

Image decode_image(const ByteBuffer& bytes) {
  const ByteBuffer body = lz_decompress(bytes);
  if (body.size() < 16) throw std::runtime_error("decode_image: short input");
  const std::uint8_t* p = body.data();
  const std::uint8_t* end = body.data() + body.size();
  if (get_u32(p) != kMagic) throw std::runtime_error("decode_image: bad magic");
  const std::uint32_t width = get_u32(p);
  const std::uint32_t height = get_u32(p);
  const double quality = get_u32(p) / 1000.0;
  if (width == 0 || height == 0 || width % kBlock || height % kBlock ||
      width > 1 << 16 || height > 1 << 16) {
    throw std::runtime_error("decode_image: bad dimensions");
  }
  // Every 8x8 block carries 64 varints of at least one byte each, so a body
  // with fewer bytes than pixels cannot be an image of this size: reject it
  // before the pixel plane is allocated.
  if (static_cast<std::uint64_t>(width) * height > body.size() - 16) {
    throw std::runtime_error("decode_image: body too short for its dimensions");
  }

  Image img = make_image(width, height);
  double coeffs[kBlock][kBlock];
  double block[kBlock][kBlock];
  for (std::uint32_t by = 0; by < height; by += kBlock) {
    for (std::uint32_t bx = 0; bx < width; bx += kBlock) {
      for (const auto& [u, v] : zigzag()) {
        const double q = quant_step(u, v, quality);
        coeffs[u][v] = static_cast<double>(get_varint_signed(p, end)) * q;
      }
      idct2d(coeffs, block);
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          img.at(bx + x, by + y) = static_cast<float>(block[y][x] + 128.0);
        }
      }
    }
  }
  return img;
}

Image box_blur(const Image& image, int radius) {
  // Separable two-pass blur with edge clamping; O(pixels · radius). Each
  // output row starts at 0 and accumulates tap by tap across x, so every
  // pixel adds its taps in the order -radius..radius while the loops over x
  // vectorise. Only the horizontal pass's edge columns, at most `radius` on
  // each side, need the clamp.
  const int w = static_cast<int>(image.width);
  const int h = static_cast<int>(image.height);
  const auto row = [w](auto& img, int y) {
    return img.pixels.data() + static_cast<std::size_t>(y) * w;
  };
  const float inv = 1.0f / static_cast<float>(2 * radius + 1);
  // Columns [lo, hi) read every tap from inside the row.
  const int lo = std::min(radius, w);
  const int hi = std::max(lo, w - radius);
  Image horizontal = make_image(image.width, image.height);
  for (int y = 0; y < h; ++y) {
    const float* in = row(image, y);
    float* acc = row(horizontal, y);
    for (int dx = -radius; dx <= radius; ++dx) {
      for (int x = 0; x < lo; ++x) acc[x] += in[std::clamp(x + dx, 0, w - 1)];
      for (int x = lo; x < hi; ++x) acc[x] += in[x + dx];
      for (int x = hi; x < w; ++x) acc[x] += in[std::clamp(x + dx, 0, w - 1)];
    }
    for (int x = 0; x < w; ++x) acc[x] *= inv;
  }
  Image out = make_image(image.width, image.height);
  for (int y = 0; y < h; ++y) {
    float* acc = row(out, y);
    for (int dy = -radius; dy <= radius; ++dy) {
      const float* in = row(horizontal, std::clamp(y + dy, 0, h - 1));
      for (int x = 0; x < w; ++x) acc[x] += in[x];
    }
    for (int x = 0; x < w; ++x) acc[x] *= inv;
  }
  return out;
}

std::vector<float> noise_residual(const Image& image, int blur_radius) {
  const Image denoised = box_blur(image, blur_radius);
  std::vector<float> residual(image.size());
  double mean = 0.0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    residual[i] = image.pixels[i] - denoised.pixels[i];
    mean += residual[i];
  }
  mean /= static_cast<double>(residual.size());
  double norm2 = 0.0;
  for (auto& r : residual) {
    r -= static_cast<float>(mean);
    norm2 += static_cast<double>(r) * r;
  }
  const auto norm = static_cast<float>(std::sqrt(std::max(norm2, 1e-20)));
  for (auto& r : residual) r /= norm;
  return residual;
}

double normalized_cross_correlation(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  ROCKET_CHECK(a.size() == b.size(), "NCC requires equal-sized inputs");
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(na * nb);
  return denom > 0.0 ? dot / denom : 0.0;
}

}  // namespace rocket::apps
