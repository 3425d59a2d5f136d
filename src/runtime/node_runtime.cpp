#include "runtime/node_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/sharded_slot_cache.hpp"
#include "common/backoff.hpp"
#include "common/compress.hpp"
#include "common/freelist.hpp"
#include "common/log.hpp"
#include "common/queue.hpp"

namespace rocket::runtime {

namespace {

using Task = std::function<void()>;
using Grant = cache::SlotCache::Grant;
using Outcome = cache::SlotCache::Outcome;
using telemetry::trace_now;

/// Batch size for worker drains: one lock acquisition hands a worker up to
/// this many tasks (tasks are short; larger batches only add latency).
/// I/O lanes never batch: a read blocks, so each lane takes one per wake.
constexpr std::size_t kDrainBatch = 16;

/// CPU-pool task tagged with the profiler kind it should be recorded as.
/// Parse, postprocess and control continuations share the pool but must not
/// share a lane attribution (control time inflating parse utilisation was
/// a long-standing Fig-14 artefact).
struct CpuTask {
  TaskKind kind = TaskKind::kOther;
  Task fn;
};

/// Capped exponential backoff between kFailed grant re-drives. A kFailed
/// grant means another job's writer aborted under us — re-driving
/// instantly against a persistently failing writer is a livelock (the two
/// parties re-queue against each other forever at full speed); a few
/// microseconds of backoff breaks the cycle and the attempt bound below
/// makes termination unconditional.
void retry_backoff(std::uint32_t attempt) {
  // Shared jittered-exponential policy (common/backoff.hpp): 8 µs base,
  // 1 ms cap — the same envelope the old hand-rolled min(1000, 8 << k)
  // loop had, plus jitter so two writers that abort each other don't
  // re-drive in lockstep. Salting with the attempt keeps the sequence a
  // pure function of the retry count (deterministic for tests).
  constexpr BackoffPolicy kGrantRetry{8e-6, 1e-3, 0.25, 7};
  kGrantRetry.sleep_for(attempt, attempt);
}

/// Sampling key of a tile: a hash of its region identity, so the sampled
/// population is a pure function of the pair-space decomposition and the
/// run seed — replays trace the same tiles.
std::uint64_t tile_trace_key(const dnc::Region& r) {
  std::uint64_t key = telemetry::span_mix(0x74696c65 /* 'tile' */);
  key = telemetry::span_mix(key ^ r.row_begin);
  key = telemetry::span_mix(key ^ r.row_end);
  key = telemetry::span_mix(key ^ r.col_begin);
  key = telemetry::span_mix(key ^ r.col_end);
  return key;
}

/// Worker thread body: drain a queue in batches. The queue closes at
/// shutdown.
void drain(MpmcQueue<Task>& queue) {
  for (;;) {
    auto batch = queue.pop_bulk(kDrainBatch);
    if (batch.empty()) return;
    for (auto& task : batch) task();
  }
}

struct Engine;
struct TileJob;

/// Per-device state: virtual GPU, device-level cache + buffers, and the
/// three dedicated threads' queues (kernel, H2D, D2H). The cache is a
/// sharded concurrent cache — it owns its own (per-shard) locking, so the
/// runtime calls it directly from any thread.
struct DeviceState {
  gpu::VirtualDevice vdev;
  std::unique_ptr<cache::ShardedSlotCache> cache;
  std::vector<gpu::DeviceBuffer> slots;
  MpmcQueue<Task> gpu_q, h2d_q, d2h_q;
  std::size_t gpu_lane = 0, h2d_lane = 0, d2h_lane = 0;
  double stretch = 0.0;  // extra sleep per kernel second (heterogeneity)
  /// Tiles in flight, per-tile working-set budget and shard count
  /// (admit_tiles): tiles × budget never exceeds the smallest shard's
  /// slots — the invariant that makes batched pinning deadlock-free.
  TileAdmission admission;
  /// Per-tile counters, written from several threads: a cache line of
  /// their own keeps them off the lines of the queues above, which other
  /// threads lock.
  alignas(64) std::atomic<std::uint64_t> pairs{0};
  /// Tiles admitted on this device and not yet finished.
  std::atomic<std::uint32_t> in_flight{0};
  /// Tiles whose compare task is queued or running on this device. A tile
  /// whose working set resolves while this is non-zero had its loads
  /// overlapped by another tile's compute (Report::prefetch_hits).
  std::atomic<std::uint32_t> computing{0};

  DeviceState(int ordinal, const gpu::DeviceSpec& spec)
      : vdev(ordinal, spec) {}
};

struct LoadOp;

struct Engine {
  const NodeRuntime::Config& cfg;
  const Application& app;
  storage::ObjectStore& store;
  const NodeRuntime::BatchFn& on_batch;
  Profiler profiler;
  const double t_started = trace_now();  // NodeStats::uptime_seconds

  /// Hot-seam instruments (DESIGN.md §13). Recording is lock-free (striped
  /// atomics) and cheap-exits when Config::telemetry is off; the pointers
  /// are bound once at construction so the hot paths never touch the
  /// registry's name lookup.
  telemetry::MetricsRegistry metrics;
  telemetry::LatencyHistogram* tile_latency = nullptr;    // submit → finish
  telemetry::LatencyHistogram* tile_load_wait = nullptr;  // submit → resolved
  telemetry::LatencyHistogram* cache_wait = nullptr;      // queued grants
  telemetry::LatencyHistogram* load_latency = nullptr;    // store loads
  telemetry::Gauge* result_depth = nullptr;   // result_q occupancy, pairs
  telemetry::Gauge* loads_inflight = nullptr; // LoadOps out of the pool

  std::vector<std::unique_ptr<DeviceState>> devices;
  std::unique_ptr<cache::ShardedSlotCache> host_cache;  // null if disabled
  std::vector<HostBuffer> host_slots;

  /// Store reads waiting for an I/O lane; each runs on the lane it is
  /// handed (one lane per tile in flight).
  MpmcQueue<std::function<void(std::size_t lane)>> io_q;
  MpmcQueue<CpuTask> cpu_q;
  std::vector<std::size_t> io_lanes;
  std::vector<std::size_t> cpu_lanes;

  std::vector<std::unique_ptr<Semaphore>> job_limits;  // per worker/device
  /// In-flight pair gauge: a leaf counts its pairs up at submission and
  /// each of its tiles counts its own pairs down when it finishes; waited
  /// on only after the executor returns (all submissions in). This form
  /// works for both the single-node run (total known) and a mesh
  /// partition run (stolen-in work makes the total unknowable up front).
  std::unique_ptr<CountdownLatch> done;
  std::atomic<std::uint64_t> loads{0};
  std::atomic<std::uint64_t> peer_loads{0};
  std::atomic<std::uint64_t> tiles{0};
  std::atomic<std::uint64_t> prefetch_hits{0};
  std::atomic<std::uint64_t> acquire_retries{0};
  std::atomic<std::uint64_t> load_retries{0};
  std::atomic<std::uint64_t> failed_loads{0};
  /// Remaining run-level transient-error allowance (DESIGN.md §15);
  /// meaningful only when cfg.load_error_budget > 0.
  std::atomic<std::int64_t> load_error_budget{0};

  /// Spend one unit of the run-level transient-error budget. Returns
  /// false once the budget is exhausted (always true when unlimited).
  bool consume_load_error_budget() {
    if (cfg.load_error_budget == 0) return true;
    return load_error_budget.fetch_sub(1, std::memory_order_acq_rel) > 0;
  }

  /// Completed results flow through this queue to one dedicated consumer
  /// thread, which is the only caller of on_batch — compare/postprocess
  /// threads just enqueue (a tile moves its whole buffer in as one entry)
  /// and never serialize on the sink.
  MpmcQueue<ResultBatch> result_q;

  /// Cluster peer-fetch hook (mesh runs only; null single-node).
  PeerFetchClient* peer_fetch = nullptr;

  /// Cluster-wide completion poll (mesh runs only; null single-node).
  /// Emulation sleeps (device stretch) check it so a straggler's
  /// stretched kernel never pins the cluster join after the run is done.
  std::function<bool()> global_done_poll;

  // Pool of load-pipeline state blocks. Reuse keeps the hot path free of
  // per-load heap churn: the pooled ByteBuffer/HostBuffer keep their
  // capacity across loads, and every pipeline stage captures only the raw
  // LoadOp pointer (small enough for std::function's inline storage).
  // Lock-free Treiber stack: one CAS per make/recycle instead of a shared
  // pool mutex on every load.
  TreiberFreelist<LoadOp> load_pool;

  Engine(const NodeRuntime::Config& config, const Application& application,
         storage::ObjectStore& object_store,
         const NodeRuntime::BatchFn& batch_fn)
      : cfg(config), app(application), store(object_store),
        on_batch(batch_fn),
        profiler(config.trace),
        metrics(config.telemetry) {
    if (!config.telemetry) profiler.set_enabled(false);
    load_error_budget.store(
        static_cast<std::int64_t>(config.load_error_budget),
        std::memory_order_relaxed);
    tile_latency = &metrics.histogram("tile.latency");
    tile_load_wait = &metrics.histogram("tile.load_wait");
    cache_wait = &metrics.histogram("cache.acquire_wait");
    load_latency = &metrics.histogram("load.latency");
    result_depth = &metrics.gauge("result.queue_depth");
    loads_inflight = &metrics.gauge("loads.inflight");
  }

  /// Live sample for the mesh telemetry stream (ticker thread): engine
  /// atomics, cache shard counters and profiler busy atomics only — no
  /// engine lock exists to take.
  telemetry::NodeStats live_stats() const;

  ~Engine();

  /// Defer a continuation out of a cache-callback context (callbacks run
  /// under the cache mutex; continuations must not re-enter it inline).
  void post_control(Task task) {
    cpu_q.push(CpuTask{TaskKind::kControl, std::move(task)});
  }

  LoadOp* make_load(DeviceState& dev, ItemId item, cache::SlotId dslot,
                    TileJob* tile);
  void recycle_load(LoadOp* op);
};

/// State of one load-pipeline execution (Fig 2 / Fig 4): store → parse →
/// H2D → pre-process → publish, with the optional host-cache level in
/// front. Pooled by the engine; owned by the pipeline while in flight.
struct LoadOp {
  Engine* eng = nullptr;
  DeviceState* dev = nullptr;
  /// The tile that needs the item: notified exactly once per started
  /// load, on an arbitrary runtime thread.
  TileJob* tile = nullptr;
  std::atomic<LoadOp*> free_next{nullptr};  // freelist linkage while pooled
  ItemId item = 0;
  cache::SlotId dslot = cache::kInvalidSlot;  // device WRITE slot (ours)
  cache::SlotId hslot = cache::kInvalidSlot;  // host WRITE slot, if any
  std::uint32_t host_retries = 0;  // kFailed host-grant re-drives
  /// Stamped when the load is queued for the store (run_load); zero for
  /// host hits and peer loads, which load.latency does not time.
  Profiler::Clock::time_point t_store{};
  ByteBuffer file;
  HostBuffer parsed;
};

Engine::~Engine() {
  load_pool.drain([](LoadOp* op) { delete op; });
}

LoadOp* Engine::make_load(DeviceState& dev, ItemId item, cache::SlotId dslot,
                          TileJob* tile) {
  LoadOp* op = load_pool.try_pop();
  if (op == nullptr) op = new LoadOp();
  op->eng = this;
  op->dev = &dev;
  op->tile = tile;
  op->item = item;
  op->dslot = dslot;
  op->hslot = cache::kInvalidSlot;
  op->host_retries = 0;
  op->t_store = {};
  op->file.clear();
  op->parsed.clear();
  loads_inflight->add(1);
  return op;
}

void Engine::recycle_load(LoadOp* op) {
  op->tile = nullptr;
  loads_inflight->sub(1);
  load_pool.push(op);
}

telemetry::NodeStats Engine::live_stats() const {
  telemetry::NodeStats stats;
  stats.tiles = tiles.load(std::memory_order_relaxed);
  stats.loads = loads.load(std::memory_order_relaxed);
  stats.peer_loads = peer_loads.load(std::memory_order_relaxed);
  stats.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
  std::int64_t in_flight = 0;
  for (const auto& dev : devices) {
    stats.pairs += dev->pairs.load(std::memory_order_relaxed);
    in_flight += dev->in_flight.load(std::memory_order_relaxed);
    const auto dstats = dev->cache->stats();
    stats.cache_hits += dstats.hits;
    stats.cache_fills += dstats.fills;
    stats.cache_evictions += dstats.evictions;
    stats.cache_fast_hits += dev->cache->fast_hits();
  }
  if (host_cache) {
    const auto hstats = host_cache->stats();
    stats.cache_hits += hstats.hits;
    stats.cache_fills += hstats.fills;
    stats.cache_evictions += hstats.evictions;
    stats.cache_fast_hits += host_cache->fast_hits();
  }
  stats.in_flight_tiles = in_flight;
  stats.result_queue_depth = result_depth->value();
  for (const auto& [name, busy] : profiler.busy_per_lane()) {
    (void)name;
    ++stats.lanes;
    stats.busy_seconds += busy;
  }
  stats.uptime_seconds = trace_now() - t_started;
  return stats;
}

// --- shared load pipeline ------------------------------------------------

void begin_fill(LoadOp* op);
void run_load(LoadOp* op);
// Defined after TileJob, which they notify.
void finish_load(LoadOp* op);
void fail_load(LoadOp* op, const char* what);

/// Cache slots are fixed-size (§4.1.1): allocate the full slot so an
/// item may legally grow in place (bioinformatics replaces the residue
/// string with its larger composition vector during pre-processing).
void ensure_device_buffer(Engine& eng, DeviceState& dev, cache::SlotId dslot,
                          std::size_t content_size) {
  auto& buffer = dev.slots[dslot];
  const std::size_t want =
      std::max<std::size_t>({content_size, eng.app.slot_size(), 1});
  if (buffer.size() < want) {
    buffer = dev.vdev.allocate(want);
  }
}

/// Emulate a slower device by stretching kernel wall time. The sleep is
/// sliced so it can bail as soon as the cluster reports done — once
/// another node has delivered the straggler's in-flight pairs, its
/// stretched tile is pure emulation, and an unbroken multi-hundred-ms
/// sleep would pin the whole cluster join on it (DESIGN.md §15).
void stretch_kernel(Engine& eng, DeviceState& dev,
                    Profiler::Clock::time_point start) {
  if (dev.stretch <= 0.0) return;
  const auto elapsed = Profiler::Clock::now() - start;
  auto remaining = std::chrono::duration_cast<Profiler::Clock::duration>(
      elapsed * dev.stretch);
  const auto slice = std::chrono::duration_cast<Profiler::Clock::duration>(
      std::chrono::milliseconds(1));
  while (remaining > Profiler::Clock::duration::zero()) {
    if (eng.global_done_poll && eng.global_done_poll()) return;
    const auto step = remaining < slice ? remaining : slice;
    std::this_thread::sleep_for(step);
    remaining -= step;
  }
}

/// Host hit: copy host slot → device slot, publish device, drop host pin.
void stage_h2d_from_host(LoadOp* op, cache::SlotId host_read_slot) {
  op->dev->h2d_q.push([op, host_read_slot] {
    Engine& eng = *op->eng;
    DeviceState& dev = *op->dev;
    try {
      ScopedTask span(eng.profiler, dev.h2d_lane, TaskKind::kH2D);
      const HostBuffer& src = eng.host_slots[host_read_slot];
      ensure_device_buffer(eng, dev, op->dslot, src.size());
      auto& buffer = dev.slots[op->dslot];
      std::copy(src.begin(), src.end(), buffer.data());
      // Slot-sized transfer: clear the tail so variable-sized items never
      // see a previous occupant's bytes (mirrors the store-load H2D stage).
      std::fill(buffer.data() + src.size(), buffer.data() + buffer.size(),
                std::uint8_t{0});
    } catch (const std::exception& e) {
      eng.host_cache->release(host_read_slot);
      fail_load(op, e.what());
      return;
    }
    dev.cache->publish(op->dslot);
    eng.host_cache->release(host_read_slot);
    finish_load(op);
  });
}

/// Host-cache miss with the WRITE slot held (op->hslot): consult the mesh
/// peer-fetch hook before the object store (§4.1.3 carried to the live
/// path). Any miss or peer failure falls back to run_load — a dead or
/// evicted candidate chain can delay a load but never wedge it (§6.1).
void start_host_fill(LoadOp* op) {
  Engine& eng = *op->eng;
  if (eng.peer_fetch == nullptr) {
    run_load(op);
    return;
  }
  // Item-rooted fetch trace (DESIGN.md §16): batched acquires decouple
  // items from tiles — several tiles can wait on one load — so the peer
  // fetch samples by item identity, not tile identity. The mesh layer
  // opens/closes the peer.fetch span; we only root the context here.
  telemetry::SpanContext ctx;
  if (eng.cfg.span_log != nullptr && eng.cfg.trace_sample_n > 0) {
    ctx = telemetry::make_trace(
        eng.cfg.seed,
        telemetry::span_mix(0x6974656d /* 'item' */) ^ op->item,
        eng.cfg.trace_sample_n);
  }
  // The completion may arrive on a mesh service thread, which outlives
  // this engine. Hold the in-flight gauge across the callback so run_impl
  // cannot tear the engine down while the handoff (the queue push below)
  // is still on the mesh thread's stack.
  eng.done->count_up();
  eng.peer_fetch->fetch(op->item, [op](PeerPayload payload) {
    Engine& engine = *op->eng;
    // Hand off to the control lane so the pipeline continues on runtime
    // threads only (decompression of a wire-compressed payload included —
    // CPU-pool work, not mesh work).
    engine.post_control([op, payload = std::move(payload)]() mutable {
      if (payload.empty()) {
        run_load(op);
        return;
      }
      if (payload.compressed) {
        try {
          payload.bytes = lz_decompress(payload.bytes);
        } catch (const std::exception& e) {
          ROCKET_ERROR("peer payload for item %u corrupt: %s", op->item,
                       e.what());
          run_load(op);  // degrade to the local-load path, never wedge
          return;
        }
      }
      Engine& eng = *op->eng;
      eng.peer_loads.fetch_add(1, std::memory_order_relaxed);
      const cache::SlotId hslot = op->hslot;
      op->hslot = cache::kInvalidSlot;
      eng.host_slots[hslot] = std::move(payload.bytes);
      eng.host_cache->publish(hslot);  // keeps the writer's read pin
      stage_h2d_from_host(op, hslot);
    });
    engine.done->count_down();  // handoff complete: engine may wind down
  }, ctx);
}

void handle_host_grant(LoadOp* op, Grant grant) {
  switch (grant.outcome) {
    case Outcome::kHit:
      stage_h2d_from_host(op, grant.slot);
      return;
    case Outcome::kFill:
      op->hslot = grant.slot;
      start_host_fill(op);
      return;
    case Outcome::kFailed: {
      Engine& eng = *op->eng;
      eng.acquire_retries.fetch_add(1, std::memory_order_relaxed);
      if (++op->host_retries > eng.cfg.max_acquire_retries) {
        // Terminal path: the host level keeps aborting under us. Bypass
        // it — a device-only load is still correct, just uncached at the
        // host level for this item.
        ROCKET_ERROR("host-cache acquire for item %u failed %u times; "
                     "bypassing host level",
                     op->item, op->host_retries);
        run_load(op);
        return;
      }
      retry_backoff(op->host_retries);
      begin_fill(op);  // retry the host level
      return;
    }
    case Outcome::kQueued:
      ROCKET_CHECK(false, "queued grant delivered as queued");
  }
}

/// Entry point: the caller was granted the device WRITE slot in op->dslot.
/// Consult the host cache, then drive the full load only on a host miss.
void begin_fill(LoadOp* op) {
  if (!op->eng->host_cache) {
    run_load(op);
    return;
  }
  // Queued-grant callbacks fire under the owning shard's mutex: defer
  // (the lock-free acquire-wait record is safe to take right there).
  const auto t_acquire = Profiler::Clock::now();
  const Grant grant =
      op->eng->host_cache->acquire(op->item, [op, t_acquire](Grant g) {
        op->eng->cache_wait->record_seconds(
            std::chrono::duration<double>(Profiler::Clock::now() - t_acquire)
                .count());
        op->eng->post_control([op, g] { handle_host_grant(op, g); });
      });
  if (grant.outcome != Outcome::kQueued) handle_host_grant(op, grant);
}

/// Full load: I/O → parse (CPU pool) → H2D → pre-process (GPU) → publish
/// device → (if host enabled) D2H copy-back → publish host. Every stage
/// captures only the LoadOp pointer; the store read runs on whichever I/O
/// lane is free next.
void run_load(LoadOp* op) {
  op->eng->loads.fetch_add(1, std::memory_order_relaxed);
  op->t_store = Profiler::Clock::now();
  op->eng->io_q.push([op](std::size_t lane) {
    Engine& eng = *op->eng;
    try {
      ScopedTask span(eng.profiler, lane, TaskKind::kIo);
      // Transient store errors (a flaky store timing out, DESIGN.md §15)
      // retry in place with jittered backoff, bounded per load AND by the
      // run-level error budget, so a flaky store can delay a load but
      // never hang it. Permanent errors fail the item on the first throw.
      constexpr BackoffPolicy kLoadRetry{50e-6, 5e-3, 0.25, 7};
      std::uint32_t attempt = 0;
      for (;;) {
        try {
          op->file = eng.store.read(eng.app.file_name(op->item));
          break;
        } catch (const storage::TransientStoreError& e) {
          ++attempt;
          if (attempt > eng.cfg.max_load_retries ||
              !eng.consume_load_error_budget()) {
            fail_load(op, e.what());
            return;
          }
          eng.load_retries.fetch_add(1, std::memory_order_relaxed);
          kLoadRetry.sleep_for(attempt, op->item);
        }
      }
    } catch (const std::exception& e) {
      fail_load(op, e.what());
      return;
    }
    eng.cpu_q.push(CpuTask{TaskKind::kParse, [op] {
      try {
        // CPU lane busy time is recorded by the pool thread wrapper.
        op->eng->app.parse(op->item, op->file, op->parsed);
      } catch (const std::exception& e) {
        fail_load(op, e.what());
        return;
      }
      op->dev->h2d_q.push([op] {
        try {
          ScopedTask span(op->eng->profiler, op->dev->h2d_lane,
                          TaskKind::kH2D);
          ensure_device_buffer(*op->eng, *op->dev, op->dslot,
                               op->parsed.size());
          auto& buffer = op->dev->slots[op->dslot];
          std::copy(op->parsed.begin(), op->parsed.end(), buffer.data());
          // Slot-sized transfer: clear the tail so variable-sized items
          // never see a previous occupant's bytes.
          std::fill(buffer.data() + op->parsed.size(),
                    buffer.data() + buffer.size(), std::uint8_t{0});
        } catch (const std::exception& e) {
          fail_load(op, e.what());
          return;
        }
        op->dev->gpu_q.push([op] {
          DeviceState& dev = *op->dev;
          try {
            ScopedTask span(op->eng->profiler, dev.gpu_lane,
                            TaskKind::kPreprocess);
            const auto t0 = Profiler::Clock::now();
            op->eng->app.preprocess(op->item, dev.slots[op->dslot]);
            stretch_kernel(*op->eng, dev, t0);
          } catch (const std::exception& e) {
            fail_load(op, e.what());
            return;
          }
          dev.cache->publish(op->dslot);
          if (op->hslot != cache::kInvalidSlot) {
            dev.d2h_q.push([op] {
              Engine& eng = *op->eng;
              {
                ScopedTask span(eng.profiler, op->dev->d2h_lane,
                                TaskKind::kD2H);
                const auto& buf = op->dev->slots[op->dslot];
                eng.host_slots[op->hslot].assign(buf.data(),
                                                 buf.data() + buf.size());
              }
              eng.host_cache->publish(op->hslot);
              eng.host_cache->release(op->hslot);
              finish_load(op);
            });
          } else {
            finish_load(op);
          }
        });
      });
    }});
  });
}

// --- tile jobs ----------------------------------------------------------

/// One leaf region executed as a single job: the tile's whole working set
/// is pinned through one batched cache acquire (one mutex acquisition, the
/// load pipeline runs only for the missing items), every compare of the
/// tile runs inside one GPU-queue task, and the tile's results leave as
/// one result-queue entry — in a mesh run, one message to the master. This
/// is the paper's locality argument carried through to the execution
/// layer: a leaf's small working set is pinned once and reused across all
/// of its pairs.
struct TileJob {
  Engine& eng;
  DeviceState& dev;
  std::uint32_t worker;
  dnc::Region region;
  std::uint64_t pair_count;
  std::vector<ItemId> items;             // sorted distinct working set
  std::vector<cache::SlotId> slots;      // parallel to items
  std::vector<std::uint8_t> load_failed; // parallel to items
  std::vector<PairResult> results;
  std::vector<std::uint8_t> pair_failed; // parallel to results
  std::atomic<std::uint32_t> remaining{0};
  std::atomic<std::uint32_t> retries{0};  // kFailed grant re-drives
  /// Submission stamp: tile.load_wait measures to working-set-resolved,
  /// tile.latency to results-flushed (DESIGN.md §13).
  Profiler::Clock::time_point t_submit_;
  /// Sampled causal trace of this tile (DESIGN.md §16). Unsampled tiles
  /// carry a zero context and every instrumentation site below exits on
  /// one branch. t_park < 0 means the tile's compare never waited behind
  /// another tile's.
  telemetry::SpanContext trace_ctx;
  double t_trace_submit = 0.0;
  double t_park = -1.0;

  TileJob(Engine& engine, DeviceState& device, std::uint32_t worker_id,
          const dnc::Region& r)
      : eng(engine), dev(device), worker(worker_id), region(r),
        pair_count(dnc::count_pairs(r)), items(dnc::working_set_items(r)),
        t_submit_(Profiler::Clock::now()) {
    slots.assign(items.size(), cache::kInvalidSlot);
    load_failed.assign(items.size(), 0);
    if (eng.cfg.span_log != nullptr && eng.cfg.trace_sample_n > 0) {
      trace_ctx = telemetry::make_trace(eng.cfg.seed, tile_trace_key(r),
                                        eng.cfg.trace_sample_n);
      if (trace_ctx.sampled()) {
        t_trace_submit = trace_now();
        eng.cfg.span_log->open(trace_ctx, telemetry::SpanPhase::kTile,
                               t_trace_submit);
      }
    }
  }

  double seconds_since_submit() const {
    return std::chrono::duration<double>(Profiler::Clock::now() - t_submit_)
        .count();
  }

  std::size_t index_of(ItemId item) const {
    return static_cast<std::size_t>(
        std::lower_bound(items.begin(), items.end(), item) - items.begin());
  }

  void start() {
    remaining.store(static_cast<std::uint32_t>(items.size()),
                    std::memory_order_relaxed);
    // One grouped pass: lock-free pins first, then one lock acquisition
    // per shard touched. Queued grants fire under a shard mutex: defer
    // (the acquire-wait record is lock-free, so it may run right there).
    const auto t_acquire = Profiler::Clock::now();
    std::vector<Grant> grants =
        dev.cache->acquire_batch(items, [this, t_acquire](std::size_t k,
                                                          Grant g) {
          eng.cache_wait->record_seconds(
              std::chrono::duration<double>(Profiler::Clock::now() -
                                            t_acquire)
                  .count());
          eng.post_control([this, k, g] { handle_grant(k, g); });
        });
    for (std::size_t k = 0; k < grants.size(); ++k) {
      if (grants[k].outcome != Outcome::kQueued) handle_grant(k, grants[k]);
    }
  }

  void handle_grant(std::size_t k, Grant grant) {
    switch (grant.outcome) {
      case Outcome::kHit:
        slots[k] = grant.slot;
        item_done();
        return;
      case Outcome::kFill:
        begin_fill(eng.make_load(dev, items[k], grant.slot, this));
        return;
      case Outcome::kFailed: {
        eng.acquire_retries.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t attempt =
            retries.fetch_add(1, std::memory_order_relaxed) + 1;
        if (attempt > eng.cfg.max_acquire_retries) {
          // Terminal path: fail the item loudly — its pairs get the NaN
          // sentinel in compare_all — instead of re-driving forever.
          ROCKET_ERROR("tile acquire for item %u failed %u times; failing "
                       "item",
                       items[k], attempt);
          load_failed[k] = 1;
          item_done();
          return;
        }
        retry_backoff(attempt);
        re_acquire(k);
        return;
      }
      case Outcome::kQueued:
        ROCKET_CHECK(false, "queued grant delivered as queued");
    }
  }

  /// Another tile's writer aborted under us: retry this single item.
  void re_acquire(std::size_t k) {
    const auto t_acquire = Profiler::Clock::now();
    const Grant grant =
        dev.cache->acquire(items[k], [this, k, t_acquire](Grant g) {
          eng.cache_wait->record_seconds(
              std::chrono::duration<double>(Profiler::Clock::now() -
                                            t_acquire)
                  .count());
          eng.post_control([this, k, g] { handle_grant(k, g); });
        });
    if (grant.outcome != Outcome::kQueued) handle_grant(k, grant);
  }

  void item_ready(ItemId item, cache::SlotId slot) {
    slots[index_of(item)] = slot;
    item_done();
  }

  void item_failed(ItemId item) {
    load_failed[index_of(item)] = 1;
    item_done();
  }

  /// Writes to slots/load_failed above are published to the comparing
  /// thread by the release/acquire pair on `remaining`.
  void item_done() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      compare_all();
    }
  }

  /// The whole working set is resolved: run every compare of the tile as
  /// one GPU-queue task, buffering results. A tile that resolves while
  /// another tile of its device is queued for or running its compare had
  /// its loads overlapped by that compute; Report::prefetch_hits counts
  /// it, and a sampled tile records the wait as compute.gate.park.
  void compare_all() {
    eng.tile_load_wait->record_seconds(seconds_since_submit());
    if (trace_ctx.sampled()) {
      // load.wait child: submit -> whole working set resident. Overlaps
      // any peer.fetch spans of the items it waited on (item-rooted
      // traces; the DAGs join here in wall time, not by parent link).
      eng.cfg.span_log->record(
          telemetry::child_of(trace_ctx, 0x6c6f6164 /* 'load' */),
          telemetry::SpanPhase::kLoadWait, t_trace_submit, trace_now());
    }
    if (dev.computing.fetch_add(1, std::memory_order_relaxed) > 0) {
      eng.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      if (trace_ctx.sampled()) t_park = trace_now();
    }
    dev.gpu_q.push([this] {
      double t_compute = 0.0;
      if (trace_ctx.sampled()) {
        t_compute = trace_now();
        if (t_park >= 0.0) {
          // compute.gate.park child: working set resident but another
          // tile's compare was ahead in the queue — the overlap made
          // visible.
          eng.cfg.span_log->record(
              telemetry::child_of(trace_ctx, 0x7061726b /* 'park' */),
              telemetry::SpanPhase::kGatePark, t_park, t_compute);
        }
      }
      results.clear();
      results.reserve(static_cast<std::size_t>(pair_count));
      pair_failed.clear();
      pair_failed.reserve(static_cast<std::size_t>(pair_count));
      ScopedTask span(eng.profiler, dev.gpu_lane, TaskKind::kCompare);
      const auto t0 = Profiler::Clock::now();
      dnc::for_each_pair(region, [this](dnc::Pair p) {
        const std::size_t a = index_of(p.left);
        const std::size_t b = index_of(p.right);
        double score = std::numeric_limits<double>::quiet_NaN();
        bool failed = true;
        if (!load_failed[a] && !load_failed[b]) {
          try {
            score = eng.app.compare(p.left, dev.slots[slots[a]], p.right,
                                    dev.slots[slots[b]]);
            failed = false;
          } catch (const std::exception& e) {
            ROCKET_ERROR("comparison (%u,%u) failed: %s", p.left, p.right,
                         e.what());
          }
        }
        results.push_back(PairResult{p.left, p.right, score});
        pair_failed.push_back(failed ? 1 : 0);
      });
      stretch_kernel(eng, dev, t0);
      if (trace_ctx.sampled()) {
        eng.cfg.span_log->record(
            telemetry::child_of(trace_ctx, 0x636d7074 /* 'cmpt' */),
            telemetry::SpanPhase::kCompute, t_compute, trace_now());
      }
      dev.computing.fetch_sub(1, std::memory_order_relaxed);
      eng.cpu_q.push(CpuTask{TaskKind::kPostprocess, [this] { finish(); }});
    });
  }

  /// Post-process on the CPU pool, move the tile's buffered results into
  /// the result queue as one entry, release every pin in one batched
  /// (per-shard) pass.
  void finish() {
    const double t_deliver = trace_ctx.sampled() ? trace_now() : 0.0;
    // Failed pairs keep their NaN sentinel; every successful compare goes
    // through postprocess, even if the application's compare legitimately
    // returned NaN.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!pair_failed[i]) {
        auto& r = results[i];
        r.score = eng.app.postprocess(r.left, r.right, r.score);
      }
    }
    // The result.deliver child rides the batch, so in a mesh run the
    // master's arrival span links back into this tile's DAG.
    const telemetry::SpanContext deliver_ctx =
        trace_ctx.sampled()
            ? telemetry::child_of(trace_ctx, 0x646c7672 /* 'dlvr' */)
            : telemetry::SpanContext{};
    const std::size_t flushed = results.size();
    eng.result_depth->add(static_cast<std::int64_t>(flushed));
    eng.result_q.push(ResultBatch{std::move(results), deliver_ctx});
    eng.tile_latency->record_seconds(seconds_since_submit());
    if (trace_ctx.sampled()) {
      // result.deliver covers postprocess + the queue push; the tile root
      // closes with it.
      const double now = trace_now();
      eng.cfg.span_log->record(deliver_ctx, telemetry::SpanPhase::kDeliver,
                               t_deliver, now);
      eng.cfg.span_log->close(trace_ctx.span_id, now);
    }
    std::vector<cache::SlotId> pins;
    pins.reserve(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      if (!load_failed[k] && slots[k] != cache::kInvalidSlot) {
        pins.push_back(slots[k]);
      }
    }
    dev.cache->release_batch(pins);
    dev.pairs.fetch_add(flushed, std::memory_order_relaxed);
    eng.tiles.fetch_add(1, std::memory_order_relaxed);
    eng.done->count_down(static_cast<std::size_t>(pair_count));
    dev.in_flight.fetch_sub(1, std::memory_order_relaxed);
    eng.job_limits[worker]->release();
    delete this;
  }
};

/// Load complete: the tile owns the published device slot's read pin.
void finish_load(LoadOp* op) {
  if (op->t_store != Profiler::Clock::time_point{}) {
    op->eng->load_latency->record_seconds(
        std::chrono::duration<double>(Profiler::Clock::now() - op->t_store)
            .count());
  }
  TileJob* tile = op->tile;
  const ItemId item = op->item;
  const cache::SlotId dslot = op->dslot;
  op->eng->recycle_load(op);
  tile->item_ready(item, dslot);
}

/// A load stage failed while we held WRITE locks: abort them (waiters get
/// kFailed and re-drive their own loads) and notify the tile.
void fail_load(LoadOp* op, const char* what) {
  ROCKET_ERROR("load of item %u failed: %s", op->item, what);
  op->eng->failed_loads.fetch_add(1, std::memory_order_relaxed);
  op->dev->cache->abort(op->dslot);
  if (op->hslot != cache::kInvalidSlot && op->eng->host_cache) {
    op->eng->host_cache->abort(op->hslot);
  }
  TileJob* tile = op->tile;
  const ItemId item = op->item;
  op->eng->recycle_load(op);
  tile->item_failed(item);
}

/// Submit one leaf region as tile jobs, splitting further while the
/// working set exceeds the device's per-tile budget. Back-pressure (the
/// job limit, in tiles) is applied here, on the steal worker's thread
/// (§4.2): while the device computes one tile, the worker admits the next
/// ones and their loads start.
void submit_tile(Engine& eng, const dnc::Region& region,
                 std::uint32_t worker) {
  DeviceState& dev = *eng.devices[worker];
  if (dnc::count_pairs(region) == 0) return;
  if (dnc::working_set_size(region) > dev.admission.tile_ws_budget &&
      dnc::count_pairs(region) > 1) {
    for (const auto& sub : dnc::split(region)) submit_tile(eng, sub, worker);
    return;
  }
  eng.job_limits[worker]->acquire();
  dev.in_flight.fetch_add(1, std::memory_order_relaxed);
  (new TileJob(eng, dev, worker, region))->start();
}

/// Non-disruptive host-cache read access served to remote requesters by
/// the mesh layer (§4.1.3 probe semantics). The read pin keeps the buffer
/// stable for the copy; with sharding, a probe of an already-pinned item
/// is two CASes and no mutex at all.
struct HostProbe final : HostCacheProbe {
  Engine& eng;
  explicit HostProbe(Engine& engine) : eng(engine) {}

  bool probe(ItemId item, HostBuffer& out) override {
    if (!eng.host_cache) return false;
    const auto pin = eng.host_cache->try_pin(item);
    if (!pin) return false;
    out = eng.host_slots[*pin];
    eng.host_cache->release(*pin);
    return true;
  }
};

}  // namespace

TileAdmission admit_tiles(std::uint32_t slots, std::uint32_t job_limit,
                          std::uint32_t shards_requested,
                          std::uint64_t max_leaf_pairs) {
  if (job_limit == 0) {
    throw std::invalid_argument("job_limit_per_worker must be at least 1");
  }
  if (max_leaf_pairs == 0) {
    throw std::invalid_argument("max_leaf_pairs must be at least 1");
  }
  ROCKET_CHECK(slots >= 2, "a device cache needs at least two slots");
  // A square leaf of ⌊√max_leaf_pairs⌋ rows and columns pins twice that
  // many items, capped at half the slots (the count stops once past it).
  const std::uint32_t half = slots / 2;
  std::uint64_t side = 1;
  while (side <= half / 2 && (side + 1) * (side + 1) <= max_leaf_pairs) {
    ++side;
  }
  const auto leaf_ws = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(2, std::min<std::uint64_t>(2 * side, half)));
  TileAdmission a;
  a.tiles_in_flight = std::min(job_limit, slots / leaf_ws);
  // Any shard count up to slots / (tiles × leaf_ws) leaves every shard
  // room for all tiles' working sets at once.
  a.shards = std::max(1u, std::min(shards_requested,
                                   slots / (a.tiles_in_flight * leaf_ws)));
  // Slots a shard holds beyond that widen the tiles.
  a.tile_ws_budget = slots / a.shards / a.tiles_in_flight;
  return a;
}

NodeRuntime::Report NodeRuntime::run(const Application& app,
                                     storage::ObjectStore& store,
                                     const ResultFn& on_result) {
  return run_impl(
      app, store,
      [&on_result](ResultBatch&& batch) {
        for (const PairResult& r : batch.results) on_result(r);
      },
      nullptr);
}

NodeRuntime::Report NodeRuntime::run_partition(const Application& app,
                                               storage::ObjectStore& store,
                                               const BatchFn& on_batch,
                                               const MeshPort& port) {
  return run_impl(app, store, on_batch, &port);
}

NodeRuntime::Report NodeRuntime::run_impl(const Application& app,
                                          storage::ObjectStore& store,
                                          const BatchFn& on_batch,
                                          const MeshPort* port) {
  ROCKET_CHECK(!config_.devices.empty(), "runtime needs at least one device");
  const std::uint32_t n = app.item_count();
  const std::uint64_t total_pairs = dnc::count_pairs(dnc::root_region(n));

  Engine eng(config_, app, store, on_batch);
  // In-flight gauge (see Engine::done): leaves count up, completions count
  // down, waited on once submission has finished.
  eng.done = std::make_unique<CountdownLatch>(0);

  // Cache sharding degree: explicit, or min(16, hardware threads). Every
  // cache clamps further so each shard keeps at least two slots, and a
  // device cache gets only the shards its tiles leave room for
  // (admit_tiles).
  const std::uint32_t hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t shards_requested =
      config_.cache_shards != 0 ? config_.cache_shards
                                : std::min(16u, hw_threads);

  // Host cache.
  const auto host_slots =
      cache::slots_for_capacity(config_.host_cache_capacity, app.slot_size(), n);
  if (host_slots > 0) {
    eng.host_cache = std::make_unique<cache::ShardedSlotCache>(
        cache::ShardedSlotCache::Config{host_slots, app.slot_size(), "host",
                                        shards_requested, n});
    eng.host_slots.resize(host_slots);
  }

  // Devices: speed-normalise so the fastest runs unstretched.
  std::uint32_t tiles_in_flight = 0;  // admission budget, all devices
  double max_speed = 0.0;
  for (const auto& spec : config_.devices) {
    max_speed = std::max(max_speed, spec.relative_speed);
  }
  for (std::size_t d = 0; d < config_.devices.size(); ++d) {
    const auto& spec = config_.devices[d];
    auto dev = std::make_unique<DeviceState>(static_cast<int>(d), spec);
    const Bytes budget = config_.device_cache_capacity != 0
                             ? std::min(config_.device_cache_capacity,
                                        spec.cache_capacity())
                             : spec.cache_capacity();
    const auto slots = std::max(
        2u, cache::slots_for_capacity(budget, app.slot_size(), n));
    dev->admission = admit_tiles(slots, config_.job_limit_per_worker,
                                 shards_requested, config_.max_leaf_pairs);
    dev->cache = std::make_unique<cache::ShardedSlotCache>(
        cache::ShardedSlotCache::Config{slots, app.slot_size(), "device",
                                        dev->admission.shards, n});
    ROCKET_CHECK(dev->admission.tiles_in_flight *
                         dev->admission.tile_ws_budget <=
                     dev->cache->min_shard_slots(),
                 "tile admission exceeds the smallest device-cache shard");
    dev->slots.resize(slots);
    if (config_.emulate_heterogeneity && spec.relative_speed > 0.0) {
      dev->stretch = max_speed / spec.relative_speed - 1.0;
    }
    if (config_.kernel_slowdown > 1.0) {
      // Grey-failure straggler injection (DESIGN.md §15): the node's
      // kernels run kernel_slowdown× slower overall, composing with the
      // heterogeneity stretch above.
      dev->stretch = (1.0 + dev->stretch) * config_.kernel_slowdown - 1.0;
    }
    dev->gpu_lane = eng.profiler.add_lane("gpu" + std::to_string(d) + " (" +
                                          spec.name + ")");
    dev->h2d_lane = eng.profiler.add_lane("h2d" + std::to_string(d));
    dev->d2h_lane = eng.profiler.add_lane("d2h" + std::to_string(d));
    const std::uint32_t limit = dev->admission.tiles_in_flight;
    eng.devices.push_back(std::move(dev));
    eng.job_limits.push_back(std::make_unique<Semaphore>(limit));
    tiles_in_flight += limit;
  }
  // One I/O lane per tile the node may hold in flight: every admitted
  // tile can have a store read outstanding, so store latency overlaps
  // across tiles instead of queueing behind one thread (DESIGN.md §6).
  for (std::uint32_t l = 0; l < tiles_in_flight; ++l) {
    eng.io_lanes.push_back(eng.profiler.add_lane("io" + std::to_string(l)));
  }
  for (std::uint32_t c = 0; c < config_.cpu_threads; ++c) {
    eng.cpu_lanes.push_back(eng.profiler.add_lane("cpu" + std::to_string(c)));
  }

  // Mesh wiring: the peer-fetch hook needs the host level (peer data fills
  // a host slot, exactly as in the simulated cluster); the probe serves
  // this node's host cache to peers for as long as the engine is live.
  // RAII: the registrations must come off before the probe/engine leave
  // scope even if this function unwinds — the mesh service threads outlive
  // a failed node.
  HostProbe host_probe(eng);
  struct ProbeRegistration {
    const MeshPort* port = nullptr;
    ~ProbeRegistration() {
      if (port != nullptr) port->register_probe(nullptr);
    }
  } probe_registration;
  if (port != nullptr) {
    if (eng.host_cache) eng.peer_fetch = port->peer_fetch;
    eng.global_done_poll = port->global_done;
    if (port->register_probe && eng.host_cache) {
      port->register_probe(&host_probe);
      probe_registration.port = port;
    }
  }

  // Telemetry sampler: the mesh's snapshot ticker reads live engine
  // counters through this hook; same RAII lifetime discipline as the
  // probe so the ticker never samples a dead engine.
  struct StatsRegistration {
    const MeshPort* port = nullptr;
    ~StatsRegistration() {
      if (port != nullptr) port->register_stats({});
    }
  } stats_registration;
  if (port != nullptr && port->register_stats) {
    port->register_stats([&eng] { return eng.live_stats(); });
    stats_registration.port = port;
  }

  // Resource threads (§4.3): I/O lanes, CPU pool, per-device GPU/H2D/D2H,
  // and the single result consumer — the only thread that ever calls the
  // sink, so result delivery stays serialised without a lock on the
  // compare/postprocess path.
  std::vector<std::thread> threads;
  for (const std::size_t lane : eng.io_lanes) {
    threads.emplace_back([&eng, lane] {
      while (const auto task = eng.io_q.pop()) (*task)(lane);
    });
  }
  threads.emplace_back([&eng] {
    for (;;) {
      auto entries = eng.result_q.pop_bulk(64);
      if (entries.empty()) return;
      for (ResultBatch& entry : entries) {
        eng.result_depth->sub(static_cast<std::int64_t>(entry.results.size()));
        eng.on_batch(std::move(entry));
      }
    }
  });
  for (std::uint32_t c = 0; c < config_.cpu_threads; ++c) {
    threads.emplace_back([&eng, c] {
      const std::size_t lane = eng.cpu_lanes[c];
      for (;;) {
        auto batch = eng.cpu_q.pop_bulk(kDrainBatch);
        if (batch.empty()) break;
        for (auto& task : batch) {
          ScopedTask span(eng.profiler, lane, task.kind);
          task.fn();
        }
      }
    });
  }
  for (auto& dev : eng.devices) {
    threads.emplace_back([&dev] { drain(dev->gpu_q); });
    threads.emplace_back([&dev] { drain(dev->h2d_q); });
    threads.emplace_back([&dev] { drain(dev->d2h_q); });
  }

  const auto wall_start = Profiler::Clock::now();

  // The divide-and-conquer work-stealing executor (§4.2): one worker per
  // GPU; leaves become tile jobs, throttled per worker.
  steal::StealExecutor::Config exec_cfg;
  exec_cfg.num_workers = static_cast<std::uint32_t>(eng.devices.size());
  exec_cfg.max_leaf_pairs = config_.max_leaf_pairs;
  exec_cfg.seed = config_.seed;
  steal::StealExecutor executor(exec_cfg);
  const auto leaf = [&eng](const dnc::Region& region,
                           std::uint32_t worker) {
    eng.done->count_up(dnc::count_pairs(region));
    submit_tile(eng, region, worker);
  };
  steal::ExecutorStats steal_stats;
  steal::StealExporter exporter;
  struct ExporterRegistration {
    const MeshPort* port = nullptr;
    ~ExporterRegistration() {
      if (port != nullptr) port->register_exporter(nullptr);
    }
  } exporter_registration;
  if (port == nullptr) {
    steal_stats = executor.run(n, leaf);
  } else {
    if (port->register_exporter) {
      port->register_exporter(&exporter);
      exporter_registration.port = port;
    }
    steal::StealExecutor::RemoteHooks hooks;
    hooks.steal = port->remote_steal;
    hooks.done = port->global_done;
    steal_stats = executor.run_partition(port->regions, leaf, hooks,
                                         &exporter);
  }

  eng.done->wait();
  // Stop serving mesh peers before the engine winds down (the scope
  // guards above make this exception-safe as well).
  if (port != nullptr) {
    if (port->register_exporter) port->register_exporter(nullptr);
    if (port->register_probe && eng.host_cache) port->register_probe(nullptr);
    if (port->register_stats) port->register_stats({});
  }
  const double wall =
      std::chrono::duration<double>(Profiler::Clock::now() - wall_start)
          .count();

  eng.io_q.close();
  eng.cpu_q.close();
  eng.result_q.close();  // all producers have counted down: safe to drain
  for (auto& dev : eng.devices) {
    dev->gpu_q.close();
    dev->h2d_q.close();
    dev->d2h_q.close();
  }
  for (auto& t : threads) t.join();

  Report report;
  // Pairs this node executed: the full problem in a single-node run, this
  // node's share (partition ± stolen work) in a mesh run.
  report.pairs = 0;
  for (const auto& dev : eng.devices) report.pairs += dev->pairs.load();
  if (port == nullptr) {
    ROCKET_CHECK(report.pairs == total_pairs, "runtime lost pairs");
  }
  report.tiles = eng.tiles.load();
  report.loads = eng.loads.load();
  report.peer_loads = eng.peer_loads.load();
  report.prefetch_hits = eng.prefetch_hits.load();
  report.acquire_retries = eng.acquire_retries.load();
  report.load_retries = eng.load_retries.load();
  report.failed_loads = eng.failed_loads.load();
  // Guarded both ways: n == 0 (empty problem) must not divide by zero,
  // and a loadless run (everything served from warm caches, or nothing to
  // do) reports a clean 0.0 rather than relying on the division.
  report.reuse_factor =
      (report.loads == 0 || n == 0)
          ? 0.0
          : static_cast<double>(report.loads) / static_cast<double>(n);
  report.wall_seconds = wall;
  if (eng.host_cache) {
    report.host_cache = eng.host_cache->stats();
    report.cache_fast_hits += eng.host_cache->fast_hits();
  }
  report.io_lanes = tiles_in_flight;
  for (const auto& dev : eng.devices) {
    report.admission.push_back(dev->admission);
    report.device_caches.push_back(dev->cache->stats());
    report.pairs_per_device.push_back(dev->pairs.load());
    report.cache_fast_hits += dev->cache->fast_hits();
    // Overlap accounting: a device's GPU lane is busy for its compare +
    // preprocess kernels; the remainder of the wall clock is time the
    // device sat starved of resolved tiles (load stall + scheduling
    // slack) — the quantity more tiles in flight shrink.
    const double busy = eng.profiler.lane_busy_seconds(dev->gpu_lane);
    report.device_busy_seconds.push_back(busy);
    const double stall = wall > busy ? wall - busy : 0.0;
    report.device_stall_seconds.push_back(stall);
    report.stall_seconds += stall;
  }
  report.steal = steal_stats;
  report.lane_busy = eng.profiler.busy_per_lane();
  if (config_.trace) report.timeline = eng.profiler.render_timeline();
  report.metrics = eng.metrics.snapshot();
  report.spans_dropped = eng.profiler.spans_dropped();
  if (config_.trace) {
    report.trace.lanes = eng.profiler.lanes_view();
    report.trace.spans_dropped = report.spans_dropped;
    if (config_.span_log != nullptr) {
      // Mesh-side records (steal serves, late result hops, failover
      // instants) may land after this snapshot; LiveCluster re-reads the
      // shared log once every node has joined. This copy keeps the
      // single-node path complete.
      report.trace.causal_spans = config_.span_log->records();
    }
  }
  return report;
}

}  // namespace rocket::runtime
