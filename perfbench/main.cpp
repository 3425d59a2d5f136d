// End-to-end benchmark of the Rocket all-pairs engine: one workload per
// process, driven through the public entry points.
//
//   rocket_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--source <id>]
//
// A run generates the workload's inputs from the seed (set-up, repeated and
// timed), computes every pair serially as the reference, then repeats the
// full all-pairs call until the time budget is spent, checking every
// delivered pair against the reference. With --trace 0 every repetition is
// untraced and the run reports the end-to-end metrics; with --trace 1
// untraced and traced repetitions alternate and the run reports the
// per-layer metrics, read from the engine's reports and from probes around
// each layer's public interface. The last line of stdout is one JSON object.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpu/virtual_device.hpp"
#include "model/performance_model.hpp"
#include "net/tag.hpp"
#include "probes.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 41;
constexpr double kSetupBudgetS = 2.0;  // keep repeating set-up until spent
constexpr int kMinReps = 3;            // timed repetitions of each kind

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      o.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (key == "--source") {
      o.source = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3]) ||
      o.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: rocket_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--source <id>]");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Reset the kernel's peak-RSS mark so the next reading covers only what
/// follows. Free heap pages the allocator kept from earlier repetitions
/// are returned first, or they would count towards every later peak.
/// Returns false where the kernel refuses (the reading is then the
/// process-lifetime peak).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- serial reference ------------------------------------------------------

/// Serial reference: every pair's score from direct single-threaded
/// parse -> preprocess -> compare -> postprocess calls, no runtime. It then
/// checks each repetition's deliveries: exactly once per pair, equal score.
/// Its stage times are the single-threaded baseline behind eq. 4's T_min.
class Oracle {
 public:
  Oracle(const rt::Application& app, rocket::storage::ObjectStore& store)
      : n_(app.item_count()),
        scores_(rocket::model::pair_count(n_)),
        seen_(scores_.size()) {
    rocket::gpu::VirtualDevice device(0, rocket::gpu::titanx_maxwell());
    std::vector<rocket::gpu::DeviceBuffer> items(n_);
    double t_parse = 0, t_pre = 0, t_cmp = 0, t_post = 0;
    rocket::Bytes file_bytes = 0;
    for (rt::ItemId i = 0; i < n_; ++i) {
      const rocket::ByteBuffer file = store.read(app.file_name(i));
      file_bytes += file.size();
      rt::HostBuffer parsed;
      auto t0 = Clock::now();
      app.parse(i, file, parsed);
      t_parse += 1e-9 * static_cast<double>(ns_since(t0));
      // Slot-sized, zero-tailed device buffer, as the runtime's H2D stage
      // leaves it.
      items[i] = device.allocate(std::max<std::size_t>(
          {parsed.size(), static_cast<std::size_t>(app.slot_size()), 1}));
      std::copy(parsed.begin(), parsed.end(), items[i].data());
      t0 = Clock::now();
      app.preprocess(i, items[i]);
      t_pre += 1e-9 * static_cast<double>(ns_since(t0));
    }
    for (rt::ItemId a = 0; a < n_; ++a) {
      for (rt::ItemId b = a + 1; b < n_; ++b) {
        auto t0 = Clock::now();
        const double raw = app.compare(a, items[a], b, items[b]);
        t_cmp += 1e-9 * static_cast<double>(ns_since(t0));
        t0 = Clock::now();
        scores_[index(a, b)] = app.postprocess(a, b, raw);
        t_post += 1e-9 * static_cast<double>(ns_since(t0));
      }
    }
    const double n = n_;
    const double pairs = static_cast<double>(scores_.size());
    profile_.t_parse = t_parse / n;
    profile_.t_preprocess = t_pre / n;
    profile_.t_comparison = t_cmp / pairs;
    profile_.t_postprocess = t_post / pairs;
    profile_.file_size = file_bytes / n_;
    profile_.slot_size = app.slot_size();
  }

  std::uint64_t pairs() const { return scores_.size(); }
  const rocket::model::StageProfile& profile() const { return profile_; }

  void reset() {
    std::fill(seen_.begin(), seen_.end(), std::uint8_t{0});
    duplicates_ = 0;
    mismatched_ = 0;
  }

  /// Called from the engine's result callback, which the engine serialises.
  void deliver(const rt::PairResult& r) {
    const rt::ItemId a = std::min(r.left, r.right);
    const rt::ItemId b = std::max(r.left, r.right);
    if (a == b || b >= n_) {
      ++mismatched_;
      return;
    }
    const std::size_t k = index(a, b);
    if (seen_[k] != 0) {
      ++duplicates_;
      return;
    }
    seen_[k] = 1;
    if (!(r.score == scores_[k])) ++mismatched_;
  }

  /// Missing + duplicated + mismatched pairs since reset().
  std::uint64_t errors() const {
    const auto delivered = static_cast<std::uint64_t>(
        std::count(seen_.begin(), seen_.end(), std::uint8_t{1}));
    return (pairs() - delivered) + duplicates_ + mismatched_;
  }

 private:
  std::size_t index(rt::ItemId a, rt::ItemId b) const {
    const std::size_t i = a;
    return i * (2 * std::size_t{n_} - i - 1) / 2 + (b - a - 1);
  }

  std::uint32_t n_;
  std::vector<double> scores_;
  std::vector<std::uint8_t> seen_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t mismatched_ = 0;
  rocket::model::StageProfile profile_;
};

// --- metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"pairs_per_s", "pairs/s"},
    {"cpu_us_per_pair", "us"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"apps.parse_us.p50", "us"},
    {"apps.preprocess_us.p50", "us"},
    {"apps.compare_us.p50", "us"},
    {"apps.postprocess_us.p50", "us"},
    {"apps.compare_calls", "count"},
    {"apps.compare_waste", "ratio"},
    {"storage.reads", "count"},
    {"storage.read_us.p50", "us"},
    {"storage.read_us.p99", "us"},
    {"storage.bytes_read", "B"},
    {"storage.journal_appends", "count"},
    {"storage.journal_append_us.p50", "us"},
    {"storage.journal_append_us.p99", "us"},
    {"storage.journal_bytes_per_pair", "B/pair"},
    {"cache.reuse_factor", "ratio"},
    {"cache.host_hit_rate", "ratio"},
    {"cache.device_hit_rate", "ratio"},
    {"cache.host_evictions", "count"},
    {"cache.device_evictions", "count"},
    {"cache.fast_hits", "count"},
    {"cache.acquire_wait_us.p50", "us"},
    {"cache.acquire_wait_us.p99", "us"},
    {"runtime.tile_latency_us.p50", "us"},
    {"runtime.tile_latency_us.p99", "us"},
    {"runtime.load_wait_us.p50", "us"},
    {"runtime.load_wait_us.p99", "us"},
    {"runtime.stall_s", "s"},
    {"runtime.device_busy_frac", "ratio"},
    {"runtime.prefetch_hits", "count"},
    {"runtime.acquire_retries", "count"},
    {"runtime.failed_loads", "count"},
    {"dnc.tiles", "count"},
    {"steal.local", "count"},
    {"steal.remote", "count"},
    {"steal.rtt_us.p50", "us"},
    {"steal.rtt_us.p99", "us"},
    {"mesh.peer_loads", "count"},
    {"mesh.peer_share", "ratio"},
    {"mesh.peer_fetch_us.p50", "us"},
    {"mesh.peer_fetch_us.p99", "us"},
    {"mesh.peer_retries", "count"},
    {"mesh.directory_hit_rate", "ratio"},
    {"mesh.wire_bytes_per_pair", "B/pair"},
    {"mesh.msgs_per_pair", "msgs/pair"},
    {"mesh.result_bytes_per_pair", "B/pair"},
    {"mesh.ledger_sync_bytes_per_pair", "B/pair"},
    {"mesh.duplicates_dropped", "count"},
    {"mesh.deliver_gap_us.p50", "us"},
    {"mesh.deliver_gap_us.p99", "us"},
    {"mesh.peer_vs_load", "ratio"},
    {"model.t_min_s", "s"},
    {"model.efficiency", "ratio"},
    {"model.predicted_s", "s"},
    {"model.residual", "ratio"},
    {"telemetry.trace_overhead", "ratio"},
    {"cp.compute_pct", "%"},
    {"cp.peer_fetch_pct", "%"},
    {"cp.steal_pct", "%"},
    {"cp.load_pct", "%"},
    {"cp.deliver_pct", "%"},
    {"cp.idle_pct", "%"},
    {"check.pair_error_rate", "ratio"},
};

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double hist_us(const EngineCounters& c, const char* name, double q) {
  const auto* h = c.metrics.histogram(name);
  return h == nullptr ? 0.0 : 1e6 * h->quantile_seconds(q);
}

double hit_rate(const rocket::cache::CacheStats& s) {
  return ratio(static_cast<double>(s.hits),
               static_cast<double>(s.hits + s.write_waits + s.fills));
}

/// Probes armed for one traced repetition.
struct TracedProbes {
  explicit TracedProbes(const rt::Application& app) : app(app) {}
  TimedApplication app;
  Samples journal_appends;
  Samples deliver_gaps;
};

/// Per-layer values of one traced repetition (model/telemetry ratios that
/// need the untraced repetitions are added at the end).
Values layer_values(const WorkloadSpec& w, const Oracle& oracle,
                    const EngineCounters& c, const TracedProbes& probes,
                    const ProbedStore& store, const JournalSink& journal,
                    double wall_s) {
  const double n = w.items;
  const double pairs = static_cast<double>(oracle.pairs());
  const auto parse = probes.app.parse_samples().all();
  const auto pre = probes.app.preprocess_samples().all();
  const auto cmp = probes.app.compare_samples().all();
  const auto post = probes.app.postprocess_samples().all();
  const auto reads = store.read_samples().all();
  const auto appends = probes.journal_appends.all();
  const auto gaps = probes.deliver_gaps.all();
  Values v;
  v["apps.parse_us.p50"] = quantile_us(parse, 0.5);
  v["apps.preprocess_us.p50"] = quantile_us(pre, 0.5);
  v["apps.compare_us.p50"] = quantile_us(cmp, 0.5);
  v["apps.postprocess_us.p50"] = quantile_us(post, 0.5);
  v["apps.compare_calls"] = static_cast<double>(cmp.size());
  v["apps.compare_waste"] = static_cast<double>(cmp.size()) / pairs;

  v["storage.reads"] = static_cast<double>(reads.size());
  v["storage.read_us.p50"] = quantile_us(reads, 0.5);
  v["storage.read_us.p99"] = quantile_us(reads, 0.99);
  v["storage.bytes_read"] = static_cast<double>(store.bytes_read());
  v["storage.journal_appends"] = static_cast<double>(appends.size());
  v["storage.journal_append_us.p50"] = quantile_us(appends, 0.5);
  v["storage.journal_append_us.p99"] = quantile_us(appends, 0.99);
  v["storage.journal_bytes_per_pair"] =
      static_cast<double>(journal.bytes_appended()) / pairs;

  v["cache.reuse_factor"] = static_cast<double>(c.loads) / n;
  v["cache.host_hit_rate"] = hit_rate(c.host_cache);
  v["cache.device_hit_rate"] = hit_rate(c.device_cache);
  v["cache.host_evictions"] = static_cast<double>(c.host_cache.evictions);
  v["cache.device_evictions"] = static_cast<double>(c.device_cache.evictions);
  v["cache.fast_hits"] = static_cast<double>(c.fast_hits);
  v["cache.acquire_wait_us.p50"] = hist_us(c, "cache.acquire_wait", 0.5);
  v["cache.acquire_wait_us.p99"] = hist_us(c, "cache.acquire_wait", 0.99);

  v["runtime.tile_latency_us.p50"] = hist_us(c, "tile.latency", 0.5);
  v["runtime.tile_latency_us.p99"] = hist_us(c, "tile.latency", 0.99);
  v["runtime.load_wait_us.p50"] = hist_us(c, "tile.load_wait", 0.5);
  v["runtime.load_wait_us.p99"] = hist_us(c, "tile.load_wait", 0.99);
  v["runtime.stall_s"] = c.stall_s;
  v["runtime.device_busy_frac"] = ratio(c.device_busy_s, c.devices * wall_s);
  v["runtime.prefetch_hits"] = static_cast<double>(c.prefetch_hits);
  v["runtime.acquire_retries"] = static_cast<double>(c.acquire_retries);
  v["runtime.failed_loads"] = static_cast<double>(c.failed_loads);

  v["dnc.tiles"] = static_cast<double>(c.tiles);
  v["steal.local"] = static_cast<double>(c.local_steals);
  v["steal.remote"] = static_cast<double>(c.remote_steals);
  v["steal.rtt_us.p50"] = hist_us(c, "steal.rtt", 0.5);
  v["steal.rtt_us.p99"] = hist_us(c, "steal.rtt", 0.99);

  using rocket::net::Tag;
  const auto tag_bytes = [&](Tag tag) {
    return static_cast<double>(
        c.traffic.per_tag[static_cast<std::size_t>(tag)].bytes);
  };
  v["mesh.peer_loads"] = static_cast<double>(c.peer_loads);
  v["mesh.peer_share"] = ratio(static_cast<double>(c.peer_loads),
                               static_cast<double>(c.loads + c.peer_loads));
  v["mesh.peer_fetch_us.p50"] = hist_us(c, "peer_fetch.hit", 0.5);
  v["mesh.peer_fetch_us.p99"] = hist_us(c, "peer_fetch.hit", 0.99);
  v["mesh.peer_retries"] = static_cast<double>(c.peer_retries);
  v["mesh.directory_hit_rate"] =
      ratio(static_cast<double>(c.directory.chain_hits),
            static_cast<double>(c.directory.requests));
  v["mesh.wire_bytes_per_pair"] =
      static_cast<double>(c.traffic.total_bytes()) / pairs;
  v["mesh.msgs_per_pair"] =
      static_cast<double>(c.traffic.total_messages()) / pairs;
  v["mesh.result_bytes_per_pair"] = tag_bytes(Tag::kResult) / pairs;
  v["mesh.ledger_sync_bytes_per_pair"] = tag_bytes(Tag::kLedgerSync) / pairs;
  v["mesh.duplicates_dropped"] = static_cast<double>(c.duplicates_dropped);
  v["mesh.deliver_gap_us.p50"] = quantile_us(gaps, 0.5);
  v["mesh.deliver_gap_us.p99"] = quantile_us(gaps, 0.99);
  v["mesh.peer_vs_load"] =
      ratio(v["mesh.peer_fetch_us.p50"],
            v["storage.read_us.p50"] + v["apps.parse_us.p50"]);

  // §6.1 model on this repetition's measured Table-1 row. Parse and I/O
  // run once per store load; preprocess once per device fill.
  rocket::model::StageProfile row = oracle.profile();
  row.t_parse = mean_seconds(parse);
  row.t_preprocess = mean_seconds(pre);
  row.t_comparison = mean_seconds(cmp);
  row.t_postprocess = mean_seconds(post);
  const rocket::model::PerformanceModel model(row, w.items);
  const double r_store = static_cast<double>(c.loads) / n;
  const double r_device = static_cast<double>(pre.size()) / n;
  const double io_bandwidth =
      ratio(static_cast<double>(store.bytes_read()),
            1e-9 * static_cast<double>(std::accumulate(reads.begin(),
                                                       reads.end(),
                                                       std::uint64_t{0})));
  const double p = c.devices;
  double predicted = std::max(model.t_gpu(r_device), model.t_cpu(r_store)) / p;
  if (io_bandwidth > 0.0) {
    predicted = std::max(predicted, model.t_io(r_store, io_bandwidth));
  }
  v["model.predicted_s"] = predicted;

  using rocket::telemetry::PathPhase;
  const auto& cp = c.critical_path;
  v["cp.compute_pct"] = cp.percent(PathPhase::kCompute);
  v["cp.peer_fetch_pct"] = cp.percent(PathPhase::kPeerFetch);
  v["cp.steal_pct"] = cp.percent(PathPhase::kSteal);
  v["cp.load_pct"] = cp.percent(PathPhase::kLoad);
  v["cp.deliver_pct"] = cp.percent(PathPhase::kDeliver);
  v["cp.idle_pct"] = cp.percent(PathPhase::kIdle);
  return v;
}

/// Metrics of layers a workload does not have, reported as 0.
std::vector<std::string> not_applicable(const WorkloadSpec& w,
                                        const Values& layer) {
  std::vector<std::string> out;
  for (const auto& m : kPerLayer) {
    const std::string name = m.name;
    const bool mesh_only = name.rfind("mesh.", 0) == 0 ||
                           name.rfind("steal.remote", 0) == 0 ||
                           name.rfind("steal.rtt", 0) == 0 ||
                           name == "cp.peer_fetch_pct" ||
                           name == "cp.steal_pct";
    const bool journal_only = name.rfind("storage.journal", 0) == 0;
    const bool peer_only = name.rfind("mesh.peer_fetch", 0) == 0 ||
                           name == "mesh.peer_vs_load";
    if ((mesh_only && w.nodes == 1) || (journal_only && !w.journal) ||
        (peer_only && layer.at("mesh.peer_loads") == 0.0)) {
      out.push_back(name);
    }
  }
  return out;
}

// --- output ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_metrics(const std::vector<MetricDef>& defs,
                         const Values& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not computed: ") +
                             defs[i].name);
    }
    out += (i ? ", \"" : "\"") + std::string(defs[i].name) +
           "\": {\"value\": " + json_number(it->second) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  return out + "}";
}

// --- the run -----------------------------------------------------------------

struct Rep {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mib = 0.0;
  std::uint64_t errors = 0;
  Values layer;  // traced repetitions only
};

/// A repetition as text, one "name value" pair a line, to cross the pipe
/// from the child process that ran it.
std::string encode(const Rep& rep) {
  Values fields = rep.layer;
  fields["rep.traced"] = rep.traced ? 1.0 : 0.0;
  fields["rep.wall_s"] = rep.wall_s;
  fields["rep.cpu_s"] = rep.cpu_s;
  fields["rep.rss_mib"] = rep.rss_mib;
  fields["rep.errors"] = static_cast<double>(rep.errors);
  std::string out;
  char buf[64];
  for (const auto& [name, value] : fields) {
    std::snprintf(buf, sizeof(buf), " %.17g\n", value);
    out += name + buf;
  }
  return out;
}

Rep decode(const std::string& text) {
  Values fields;
  std::istringstream in(text);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) fields[name] = value;
  const auto take = [&](const char* key) {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      throw std::runtime_error(std::string("repetition lacks ") + key);
    }
    const double v = it->second;
    fields.erase(it);
    return v;
  };
  Rep rep;
  rep.traced = take("rep.traced") != 0.0;
  rep.wall_s = take("rep.wall_s");
  rep.cpu_s = take("rep.cpu_s");
  rep.rss_mib = take("rep.rss_mib");
  rep.errors = static_cast<std::uint64_t>(take("rep.errors"));
  rep.layer = std::move(fields);
  return rep;
}

/// Runs `body` in a forked child and returns the text it produced, after
/// the child has exited. Every timed call runs in a fresh fork of the
/// set-up process, so each starts from the heap a user's first call would
/// see: calls run one after another in one process start from a heap the
/// earlier calls fragmented, and their peak memory creeps upwards. The
/// parent has no other threads at the fork: each engine joins its threads
/// before its run returns.
std::string in_child(const std::function<std::string()>& body) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::string out = body();
      std::size_t done = 0;
      while (done < out.size()) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      code = done == out.size() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rocket_perfbench: %s\n", e.what());
    }
    _exit(code);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a timed call failed in its child process");
  }
  return out;
}

int run(const Options& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  rocket::telemetry::process_epoch();

  // Set-up: generate the inputs into the store and build the engine,
  // several times (more when it is quick); the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<JournalSink> journal;
  std::unique_ptr<Engine> engine;
  while (static_cast<int>(setup_s.size()) < kMinSetupReps ||
         (static_cast<int>(setup_s.size()) < kMaxSetupReps &&
          std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
              kSetupBudgetS)) {
    engine.reset();
    journal.reset();
    inputs.reset();
    const auto t0 = Clock::now();
    inputs = make_inputs(w, opt.seed);
    journal = std::make_unique<JournalSink>();
    engine = std::make_unique<Engine>(w, *inputs->app, journal.get(), 0);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const rt::Application& app = *inputs->app;

  const auto ref_t0 = Clock::now();
  Oracle oracle(app, inputs->store);
  const double reference_s = seconds_between(ref_t0, Clock::now());

  std::optional<rocket::storage::ThrottledStore> throttled;
  rocket::storage::ObjectStore* store = &inputs->store;
  if (w.store_latency_us > 0) {
    store = &throttled.emplace(inputs->store, w.store_latency_us);
  }

  const bool rss_resettable = reset_peak_rss();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Rep> reps;
  const auto budget_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  const auto counted = [&](bool traced) {
    return std::count_if(reps.begin(), reps.end(),
                         [&](const Rep& r) { return r.traced == traced; });
  };
  // One timed call, checked against the reference.
  const auto timed_call = [&](bool traced) {
    Rep rep;
    rep.traced = traced;
    oracle.reset();
    if (!traced) {
      reset_peak_rss();
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      engine->run(app, *store,
                  [&](const rt::PairResult& r) { oracle.deliver(r); });
      rep.wall_s = seconds_between(t0, Clock::now());
      rep.cpu_s = process_cpu_seconds() - cpu0;
      rep.rss_mib = peak_rss_mib();
    } else {
      TracedProbes probes(app);
      ProbedStore probed(*store);
      JournalSink traced_journal(&probes.journal_appends);
      Engine traced_engine(w, probes.app, &traced_journal,
                           w.trace_sample_n);
      std::optional<Clock::time_point> last;
      const bool gaps = w.nodes > 1;
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      const EngineCounters counters = traced_engine.run(
          probes.app, probed, [&](const rt::PairResult& r) {
            if (gaps) {
              const auto now = Clock::now();
              if (last) probes.deliver_gaps.record(ns_since(*last));
              last = now;
            }
            oracle.deliver(r);
          });
      rep.wall_s = seconds_between(t0, Clock::now());
      rep.cpu_s = process_cpu_seconds() - cpu0;
      rep.layer = layer_values(w, oracle, counters, probes, probed,
                               traced_journal, rep.wall_s);
    }
    rep.errors = oracle.errors();
    return encode(rep);
  };
  for (int i = 0;; ++i) {
    // Traced and untraced repetitions alternate, so both see the same
    // machine conditions; a run always ends after a traced one.
    const bool traced = opt.trace && i % 2 == 1;
    if (!traced && Clock::now() >= budget_end && counted(false) >= kMinReps &&
        (!opt.trace || counted(true) >= kMinReps)) {
      break;
    }
    Rep rep = decode(in_child([&] { return timed_call(traced); }));
    attempted += oracle.pairs();
    failed += rep.errors;
    std::fprintf(stderr,
                 "repetition %d%s: %.3f s wall, %.3f s cpu, %.1f MiB peak, "
                 "%" PRIu64 " bad pairs\n",
                 i, traced ? " (traced)" : "", rep.wall_s, rep.cpu_s,
                 rep.rss_mib, rep.errors);
    reps.push_back(std::move(rep));
  }

  const double pairs = static_cast<double>(oracle.pairs());
  const auto collect = [&](bool traced, auto field) {
    std::vector<double> out;
    for (const Rep& r : reps) {
      if (r.traced == traced) out.push_back(field(r));
    }
    return out;
  };
  const double untraced_wall =
      median(collect(false, [](const Rep& r) { return r.wall_s; }));

  std::string metrics;
  std::vector<std::string> na;
  if (!opt.trace) {
    Values e2e;
    e2e["pairs_per_s"] = median(
        collect(false, [&](const Rep& r) { return pairs / r.wall_s; }));
    e2e["cpu_us_per_pair"] = median(
        collect(false, [&](const Rep& r) { return 1e6 * r.cpu_s / pairs; }));
    e2e["peak_rss_mb"] =
        median(collect(false, [](const Rep& r) { return r.rss_mib; }));
    e2e["setup_s"] = median(setup_s);
    metrics = json_metrics(kEndToEnd, e2e);
  } else {
    Values layer;
    for (const auto& m : kPerLayer) {
      const std::string name = m.name;
      layer[name] = median(
          collect(true, [&](const Rep& r) {
            const auto it = r.layer.find(name);
            return it == r.layer.end() ? 0.0 : it->second;
          }));
    }
    const double traced_wall =
        median(collect(true, [](const Rep& r) { return r.wall_s; }));
    const rocket::model::PerformanceModel reference(oracle.profile(), w.items);
    layer["model.t_min_s"] = reference.t_min();
    // p = nodes × devices, with one device per node.
    layer["model.efficiency"] = reference.efficiency(untraced_wall, w.nodes);
    layer["model.residual"] = ratio(untraced_wall, layer["model.predicted_s"]);
    layer["telemetry.trace_overhead"] = ratio(traced_wall, untraced_wall) - 1.0;
    layer["check.pair_error_rate"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    na = not_applicable(w, layer);
    metrics = json_metrics(kPerLayer, layer);
  }

  // Provenance, then the result as the last line.
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %u, \"build_type\": \"%s\", \"source\": \"%s\", "
      "\"items\": %u, \"pairs\": %" PRIu64
      ", \"reps\": %zu, \"reference_s\": %s, \"peak_rss_reset\": %s}}\n",
      w.name, opt.seed, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, opt.source.c_str(), w.items, oracle.pairs(),
      reps.size(), json_number(reference_s).c_str(),
      rss_resettable ? "true" : "false");
  if (opt.trace) {
    std::string list;
    for (const auto& name : na) {
      list += (list.empty() ? "\"" : ", \"") + name + "\"";
    }
    std::printf("{\"not_applicable\": [%s]}\n", list.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rocket_perfbench: %s\n", e.what());
    return 1;
  }
}
