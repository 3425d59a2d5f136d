#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/compress.hpp"
#include "common/options.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace rocket {
namespace {

TEST(Units, LiteralsAndConversions) {
  EXPECT_EQ(1_KB, 1000u);
  EXPECT_EQ(1_MB, 1000u * 1000u);
  EXPECT_EQ(1_GiB, 1073741824u);
  EXPECT_EQ(megabytes(38.1), Bytes{38100000});
  EXPECT_DOUBLE_EQ(as_mb(38100000), 38.1);
  EXPECT_DOUBLE_EQ(gbit_per_sec(56.0), 7e9);
  EXPECT_DOUBLE_EQ(milliseconds(130.8), 0.1308);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(19400000000ULL), "19.4 GB");
  EXPECT_EQ(format_seconds(0.0011), "1.10 ms");
  EXPECT_EQ(format_seconds(90.0), "90.00 s");
}

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto idx = rng.uniform_index(17);
    EXPECT_LT(idx, 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMoments) {
  Rng rng(123);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMatchesTargetMoments) {
  Rng rng(99);
  OnlineStats stats;
  for (int i = 0; i < 300000; ++i) {
    const double x = rng.lognormal_from_moments(564.3, 348.0);
    EXPECT_GT(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 564.3, 5.0);
  EXPECT_NEAR(stats.stddev(), 348.0, 10.0);
}

TEST(Rng, DurationSamplerDegenerateCases) {
  Rng rng(5);
  DurationSampler zero;
  EXPECT_DOUBLE_EQ(zero.sample(rng), 0.0);
  DurationSampler constant(2.5, 0.0);
  EXPECT_DOUBLE_EQ(constant.sample(rng), 2.5);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats stats;
  for (const double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  // Sample variance of {1,2,4,8,16}.
  double m2 = 0;
  for (const double x : xs) m2 += (x - 6.2) * (x - 6.2);
  EXPECT_NEAR(stats.variance(), m2 / 4.0, 1e-12);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(3);
  OnlineStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0, 1);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
}

TEST(RollingThroughput, WindowedRate) {
  RollingThroughput tp(60.0);
  for (int i = 0; i < 600; ++i) tp.record(i * 0.1);  // 10 events/s for 60 s
  EXPECT_NEAR(tp.rate_at(30.0), 10.0, 0.2);
  EXPECT_NEAR(tp.rate_at(60.0), 10.0, 0.2);
  // Long after the burst the rate decays to zero.
  EXPECT_NEAR(tp.rate_at(200.0), 0.0, 1e-9);
}

TEST(MpmcQueue, OrderedSingleThread) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_EQ(q.try_pop(), 2);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(MpmcQueue, CloseWakesConsumers) {
  MpmcQueue<int> q;
  std::thread t([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  t.join();
}

TEST(MpmcQueue, MultiThreadedConservation) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        popped++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum.load(),
            static_cast<long long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(MpmcQueue, BulkOpsPreserveOrder) {
  MpmcQueue<int> q;
  for (const int v : {1, 2, 3, 4}) q.push(v);
  const auto first = q.pop_bulk(3);
  EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
  const auto rest = q.pop_bulk(16);  // drains what is there
  EXPECT_EQ(rest, (std::vector<int>{4}));
}

TEST(MpmcQueue, PopBulkReturnsEmptyOnlyWhenClosed) {
  MpmcQueue<int> q;
  std::thread t([&] {
    const auto batch = q.pop_bulk(8);
    EXPECT_TRUE(batch.empty());
  });
  q.close();
  t.join();
}

TEST(MpmcQueue, BulkMultiThreadedConservation) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 4000;
  constexpr int kBatch = 32;
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const auto batch = q.pop_bulk(kBatch);
        if (batch.empty()) return;
        for (const int v : batch) sum += v;
        popped += static_cast<int>(batch.size());
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum.load(), static_cast<long long>(kProducers) * kPerProducer *
                            (kPerProducer + 1) / 2);
}

TEST(Semaphore, LimitsConcurrency) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  sem.release();
  sem.release();
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, BlockedAcquirersWakeUnderContention) {
  // Stress the atomic fast path + wakeup-token slow path: no acquire may
  // be lost and the concurrency cap must hold throughout.
  constexpr std::size_t kPermits = 3;
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  Semaphore sem(kPermits);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        sem.acquire();
        const int now = ++inside;
        int seen = max_inside.load();
        while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
        }
        --inside;
        sem.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_inside.load(), static_cast<int>(kPermits));
  EXPECT_EQ(sem.available(), kPermits);
}

TEST(CountdownLatch, ReleasesAtZero) {
  CountdownLatch latch(2);
  std::thread t([&] { latch.wait(); });
  latch.count_down();
  EXPECT_EQ(latch.remaining(), 1u);
  latch.count_down();
  t.join();
  EXPECT_EQ(latch.remaining(), 0u);
}

TEST(CountdownLatch, BatchCountDownReleases) {
  // Tile-batched mode counts down a whole tile's pairs in one call.
  CountdownLatch latch(64);
  std::thread t([&] { latch.wait(); });
  latch.count_down(60);
  EXPECT_EQ(latch.remaining(), 4u);
  latch.count_down(4);
  t.join();
  EXPECT_EQ(latch.remaining(), 0u);
}

TEST(TableWriter, RendersAlignedAndCsv) {
  TableWriter table("demo");
  table.set_header({"app", "n", "eff"});
  table.add_row({"forensics", "4980", TableWriter::percent(0.946)});
  table.add_row({"microscopy", "256", TableWriter::percent(0.992)});
  const std::string text = table.render();
  EXPECT_NE(text.find("forensics"), std::string::npos);
  EXPECT_NE(text.find("94.6%"), std::string::npos);
  const std::string path = ::testing::TempDir() + "/table_test.csv";
  table.write_csv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

TEST(Options, ParsesForms) {
  // Note: a bare `--flag` followed by a non-option token would bind the
  // token as the flag's value; flags therefore go last or use `=`.
  const char* argv[] = {"prog", "--nodes", "16", "--cache=disabled",
                        "positional", "--verbose"};
  Options opt(6, argv);
  EXPECT_EQ(opt.get_int("nodes", 0), 16);
  EXPECT_EQ(opt.get("cache", ""), "disabled");
  EXPECT_TRUE(opt.get_bool("verbose", false));
  EXPECT_FALSE(opt.get_bool("quiet", false));
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "positional");
}

class CompressRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressRoundTrip, Identity) {
  Rng rng(GetParam() * 7919 + 1);
  ByteBuffer data(GetParam());
  // Mix of compressible (repeated motifs) and incompressible bytes.
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i % 3 == 0) ? static_cast<std::uint8_t>(rng.uniform_index(256))
                           : static_cast<std::uint8_t>('A' + (i / 7) % 20);
  }
  const ByteBuffer packed = lz_compress(data);
  const ByteBuffer restored = lz_decompress(packed);
  EXPECT_EQ(restored, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressRoundTrip,
                         ::testing::Values(0, 1, 3, 4, 5, 64, 1000, 65536,
                                           100000));

TEST(Compress, CompressesRepetitiveData) {
  ByteBuffer data(100000, static_cast<std::uint8_t>('x'));
  const ByteBuffer packed = lz_compress(data);
  EXPECT_LT(packed.size(), data.size() / 10);
  EXPECT_EQ(lz_decompress(packed), data);
}

TEST(Compress, RejectsCorruptInput) {
  ByteBuffer garbage{1, 2, 3};
  EXPECT_THROW(lz_decompress(garbage), std::runtime_error);
  ByteBuffer data(1000, 7);
  ByteBuffer packed = lz_compress(data);
  packed.resize(packed.size() / 2);  // truncate
  EXPECT_THROW(lz_decompress(packed), std::runtime_error);
}

/// Hand-built compressed stream: the 8-byte little-endian size header
/// lz_compress writes, then tokens appended with `varint`.
ByteBuffer compressed_header(std::uint64_t claimed_size) {
  ByteBuffer out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(claimed_size >> (8 * i)));
  }
  return out;
}

void varint(ByteBuffer& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::uint8_t>(v) | 0x80);
  out.push_back(static_cast<std::uint8_t>(v));
}

/// The message lz_decompress throws on `input` (empty if it returns).
std::string decompress_error(const ByteBuffer& input) {
  try {
    lz_decompress(input);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Compress, RejectsMatchLongerThanTheEncoderWrites) {
  // One literal, then a match of 1 MiB - 1 bytes at distance 1; the header
  // claims exactly that total. The encoder never writes a match longer
  // than 259 bytes, so the stream is rejected before it expands.
  constexpr std::uint64_t kTotal = 1 << 20;
  ByteBuffer input = compressed_header(kTotal);
  varint(input, 1 << 1);
  input.push_back('x');
  varint(input, ((kTotal - 1 - 4) << 1) | 1);  // length - kMinMatch, match
  varint(input, 1);
  EXPECT_THROW(lz_decompress(input), std::runtime_error);
  EXPECT_EQ(decompress_error(input), "lz_decompress: match too long");
}

TEST(Compress, RejectsLiteralRunPastTheClaimedSize) {
  // The header claims 4 bytes; a 64 KiB literal run follows in full. It
  // must be refused before it is copied, not by the final size check.
  constexpr std::uint64_t kRun = 1 << 16;
  ByteBuffer input = compressed_header(4);
  varint(input, kRun << 1);
  input.insert(input.end(), kRun, 'y');
  EXPECT_THROW(lz_decompress(input), std::runtime_error);
  EXPECT_EQ(decompress_error(input),
            "lz_decompress: output exceeds claimed size");
}

}  // namespace
}  // namespace rocket
