#include "mesh/live_cluster.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "dnc/pair_space.hpp"

namespace rocket::mesh {

namespace {

/// Regions per node in the static partition; stealing fixes the rest. The
/// journal manifest and fingerprint record it, so a journal written with
/// another value does not resume.
constexpr std::uint32_t kPartitionGranularity = 4;

/// Capacity of each node's flight-recorder ring (tracing runs only).
constexpr std::size_t kFlightRecorderEntries = 1024;

}  // namespace

telemetry::ClusterSnapshot LiveCluster::cluster_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return latest_snapshot_;
}

LiveCluster::Report LiveCluster::run_all_pairs(
    const runtime::Application& app, storage::ObjectStore& store,
    const runtime::NodeRuntime::ResultFn& on_result) {
  // Pin the shared trace epoch before any node starts (DESIGN.md §13.3).
  telemetry::process_epoch();
  const std::uint32_t p = std::max(1u, config_.num_nodes);
  const std::uint32_t n = app.item_count();
  const std::uint64_t total_pairs = dnc::count_pairs(dnc::root_region(n));

  // --- checkpoint journal: replay, fingerprint check, torn-tail cut ---
  CheckpointStats ck;
  std::unique_ptr<checkpoint::Journal> journal;
  std::vector<dnc::Pair> recovered;
  if (config_.checkpoint_store != nullptr) {
    ck.enabled = true;
    checkpoint::Manifest manifest;
    manifest.items = n;
    manifest.num_nodes = p;
    manifest.granularity = kPartitionGranularity;
    manifest.seed = config_.node.seed;
    manifest.expected_pairs = total_pairs;
    manifest.fingerprint = checkpoint::Journal::fingerprint(
        n, p, kPartitionGranularity, config_.node.seed);
    journal = std::make_unique<checkpoint::Journal>(
        *config_.checkpoint_store, checkpoint::kJournalName);
    bool fresh = true;
    if (config_.resume) {
      const auto replay = checkpoint::Journal::replay(
          *config_.checkpoint_store, checkpoint::kJournalName);
      if (replay.found && replay.has_manifest &&
          replay.manifest.fingerprint == manifest.fingerprint) {
        ck.torn_tail = replay.torn;
        if (replay.torn) {
          // Cut the tear so this run appends from a record boundary.
          checkpoint::Journal::truncate_to_valid(
              *config_.checkpoint_store, checkpoint::kJournalName, replay);
        }
        ck.resumed = true;
        ck.records_replayed = replay.records;
        // Dedup the replayed state through a scratch ledger: a journal
        // written across a failover can record a pair twice (old and new
        // master).
        ResultLedger scratch(n, p);
        for (const auto& result : replay.results) {
          scratch.mark_recovered(result.left, result.right);
        }
        recovered = scratch.delivered_pairs();
        ck.pairs_recovered = recovered.size();
        fresh = false;
      }
    }
    if (fresh) journal->start_fresh(manifest);
  }

  InProcessTransport::Config tc;
  tc.control_message_size = config_.control_message_size;
  tc.compress_threshold = config_.peer_compress_threshold;
  tc.faults = config_.faults;
  tc.corrupt_rate = config_.frame_corrupt_rate;
  tc.corrupt_seed = config_.frame_corrupt_seed;
  InProcessTransport transport(p, tc);
  const std::uint64_t remaining_pairs = total_pairs - recovered.size();
  const auto done = std::make_shared<std::atomic<bool>>(remaining_pairs == 0);

  auto partition = dnc::partition_root(n, p, kPartitionGranularity);
  if (!recovered.empty()) {
    // Resume frontier: grant the full partition to its owners in a
    // scratch ledger, mark the recovered pairs delivered, and re-read
    // each node's share as coalesced undelivered row runs — only the
    // remainder is executed.
    ResultLedger scratch(n, p);
    for (NodeId id = 0; id < p; ++id) {
      for (const auto& region : partition[id]) {
        scratch.grant(id, region, /*reexecution=*/false);
      }
    }
    for (const dnc::Pair& pair : recovered) {
      scratch.mark_recovered(pair.left, pair.right);
    }
    for (NodeId id = 0; id < p; ++id) {
      partition[id] = scratch.undelivered_of(id);
    }
  }

  // Master failover needs a failure detector to hand the role over, so
  // it rides on the heartbeat/lease machinery.
  const bool failover = p > 1 && config_.heartbeat_interval_s > 0 &&
                        config_.lease_timeout_s > 0;
  std::atomic<std::uint64_t> delivered_this_run{0};

  // Mesh services. The master's completion hook sets the cluster-wide done
  // flag and wakes every node's steal waiters; no shutdown broadcast is
  // needed (and none is modelled in the simulator either). On multi-node
  // meshes the master additionally runs the failure model (DESIGN.md §12):
  // the initial partition seeds its re-execution ledger, victims report
  // steal transfers, and heartbeat leases feed its failure detector.
  // The timeline (DESIGN.md §13.3, §16). A traced or sampled run gives
  // every node one span log, shared between its mesh layer and its
  // engine: the mesh's instants (steals, deaths, re-grants), plus sampled
  // spans when sampling. Sampling also arms one black-box flight ring per
  // node. Declared before `meshes` so service threads never outlive their
  // sinks. An untraced run allocates and records nothing.
  const bool tracing = config_.trace_sample_n > 0;
  std::vector<std::unique_ptr<telemetry::FlightRecorder>> flights(p);
  std::vector<std::unique_ptr<telemetry::SpanLog>> span_logs(p);
  for (NodeId id = 0; id < p; ++id) {
    if (tracing) {
      flights[id] =
          std::make_unique<telemetry::FlightRecorder>(kFlightRecorderEntries);
    }
    if (tracing || config_.node.trace) {
      span_logs[id] =
          std::make_unique<telemetry::SpanLog>(id, std::size_t{1} << 14,
                                               flights[id].get());
    }
  }
  // Black-box dump: write every node's last-K ring to the checkpoint
  // store. Wired as the CHECK-failure hook for the whole run (an
  // assertion anywhere flushes the rings before abort) and reused below
  // for death/failover dumps. The rings are lock-free, so dumping from a
  // failing thread is safe.
  std::uint64_t flight_dumps = 0;
  auto dump_flight = [&](NodeId id) {
    if (flights[id] == nullptr || config_.checkpoint_store == nullptr ||
        !config_.checkpoint_store->supports_write()) {
      return;
    }
    const std::string text = flights[id]->dump_json_lines();
    config_.checkpoint_store->put(
        "rocket.flightrec.node" + std::to_string(id),
        ByteBuffer(text.begin(), text.end()));
    ++flight_dumps;
  };
  if (tracing && config_.checkpoint_store != nullptr &&
      config_.checkpoint_store->supports_write()) {
    set_check_failure_hook([&flights, &p, this] {
      for (NodeId id = 0; id < p; ++id) {
        if (flights[id] == nullptr) continue;
        const std::string text = flights[id]->dump_json_lines();
        config_.checkpoint_store->put(
            "rocket.flightrec.node" + std::to_string(id),
            ByteBuffer(text.begin(), text.end()));
      }
    });
  }

  std::vector<std::unique_ptr<MeshNode>> meshes(p);
  for (NodeId id = 0; id < p; ++id) {
    MeshNode::Config mc;
    mc.id = id;
    mc.spans = span_logs[id].get();
    mc.flight = flights[id].get();
    mc.trace_sample_n = config_.trace_sample_n;
    mc.snapshot_interval_s = config_.snapshot_interval_s;
    mc.num_workers =
        static_cast<std::uint32_t>(config_.node.devices.size());
    mc.hop_limit = config_.hop_limit;
    mc.seed = config_.node.seed;
    if (p > 1) {
      mc.heartbeat_interval_s = config_.heartbeat_interval_s;
      if (config_.heartbeat_interval_s > 0) {
        mc.lease_timeout_s = config_.lease_timeout_s;
      }
      mc.fetch_timeout_s = config_.fetch_timeout_s;
      mc.max_fetch_retries = config_.max_fetch_retries;
      mc.export_leases = true;
    }
    // Every node sends idle notices, and with failover any node may become
    // the master that grants copies.
    mc.speculation = config_.speculation;
    // With failover EVERY node carries the master duties — any of them
    // may adopt the role mid-run; without it only node 0 does.
    if (id == 0 || failover) {
      mc.expected_pairs = total_pairs;
      mc.on_result = [&on_result,
                      &delivered_this_run](const runtime::PairResult& r) {
        delivered_this_run.fetch_add(1, std::memory_order_relaxed);
        if (on_result) on_result(r);
      };
      mc.on_complete = [&done, &meshes] {
        done->store(true, std::memory_order_release);
        for (auto& mesh : meshes) {
          if (mesh) mesh->wake();
        }
      };
      // The ledger also backs the journal's exactly-once replay on a
      // single node, so journalling forces it on even at p == 1.
      if (p > 1 || journal != nullptr) {
        mc.ledger_items = n;
        mc.initial_grants = partition;
      }
      mc.failover = failover;
      mc.journal = journal.get();
      mc.recovered = recovered;
      mc.result_batch_pairs = std::max(1u, config_.journal_batch_pairs);
      mc.on_snapshot = [this](const telemetry::ClusterSnapshot& snap) {
        {
          std::lock_guard<std::mutex> lock(snapshot_mutex_);
          latest_snapshot_ = snap;
        }
        if (config_.on_cluster_snapshot) config_.on_cluster_snapshot(snap);
      };
    }
    meshes[id] = std::make_unique<MeshNode>(std::move(mc), transport, done);
  }
  for (auto& mesh : meshes) mesh->start();

  std::vector<runtime::NodeRuntime::Report> node_reports(p);
  std::vector<std::exception_ptr> errors(p);
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_window_start = telemetry::trace_now();

  std::vector<std::thread> node_threads;
  node_threads.reserve(p);
  for (NodeId id = 0; id < p; ++id) {
    node_threads.emplace_back([&, id] {
      try {
        runtime::NodeRuntime::Config ncfg = config_.node;
        ncfg.span_log = span_logs[id].get();
        ncfg.trace_sample_n = config_.trace_sample_n;
        // Grey-failure straggler injection: the designated slow node runs
        // its kernels stretched and (optionally) sees extra object-store
        // read latency — alive and correct, just slow.
        // Every node reads the caller's store directly: stores serve
        // concurrent reads (ObjectStore's contract), as the paper's
        // central server serves every node at once (§6.2).
        storage::ObjectStore* node_store = &store;
        std::optional<storage::ThrottledStore> slow_store;
        if (id == config_.slow_node) {
          if (config_.slow_factor > 1.0) {
            ncfg.kernel_slowdown = config_.slow_factor;
          }
          if (config_.slow_store_latency_us > 0) {
            slow_store.emplace(store, config_.slow_store_latency_us);
            node_store = &*slow_store;
          }
        }
        runtime::NodeRuntime rt(std::move(ncfg));
        MeshNode& mesh = *meshes[id];
        runtime::MeshPort port;
        port.regions = partition[id];
        port.remote_steal = [&mesh](std::uint32_t worker) {
          return mesh.remote_steal(worker);
        };
        port.global_done = [&mesh] { return mesh.global_done(); };
        if (config_.distributed_cache && p > 1) port.peer_fetch = &mesh;
        port.register_probe = [&mesh](runtime::HostCacheProbe* probe) {
          mesh.register_probe(probe);
        };
        port.register_exporter = [&mesh](steal::StealExporter* exporter) {
          mesh.register_exporter(exporter);
        };
        port.register_stats = [&mesh](telemetry::NodeStatsFn fn) {
          mesh.register_stats(std::move(fn));
        };
        node_reports[id] = rt.run_partition(
            app, *node_store,
            [&transport, &meshes, id](runtime::ResultBatch&& batch) {
              // One message per tile. A sampled tile's result.deliver span
              // rides along; the master records the arrival child, giving
              // the worker→master flow arrow (§16). Route to the CURRENT
              // master: after a failover the adopter aggregates, and
              // anything still in flight to the corpse is covered by its
              // conservative re-grant.
              const Bytes payload =
                  batch.results.size() * sizeof(runtime::PairResult);
              transport.send(id, meshes[id]->current_master(),
                             net::Tag::kResult,
                             ResultMsg{std::move(batch.results), batch.span},
                             payload);
            },
            port);
      } catch (...) {
        errors[id] = std::current_exception();
        // Unblock the rest of the cluster; a node failure must not hang
        // the run (the caller sees the exception below).
        done->store(true, std::memory_order_release);
        for (auto& mesh : meshes) {
          if (mesh) mesh->wake();
        }
      }
    });
  }
  // Termination watchdog for chaos runs: completion is signalled by a
  // master, so a run where EVERY node dies — or where the master dies
  // with failover off — would otherwise hang on workers polling
  // remote_steal forever. Kill schedules are test/demo-only, so the
  // watchdog only exists when one is configured.
  std::thread watchdog;
  std::atomic<bool> watchdog_stop{false};
  if (!config_.faults.empty()) {
    watchdog = std::thread([&] {
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (done->load(std::memory_order_acquire)) continue;
        bool all_down = true;
        for (NodeId k = 0; k < p; ++k) {
          if (!transport.is_down(k)) {
            all_down = false;
            break;
          }
        }
        const bool master_unrecoverable = !failover && transport.is_down(0);
        if (all_down || master_unrecoverable) {
          done->store(true, std::memory_order_release);
          for (auto& mesh : meshes) {
            if (mesh) mesh->wake();
          }
        }
      }
    });
  }

  for (auto& t : node_threads) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  transport.close();
  for (auto& mesh : meshes) mesh->join();
  // All recorders are quiescent from here. Un-register the CHECK hook
  // before anything can unwind — it captures this frame.
  const double trace_window_end = telemetry::trace_now();
  if (tracing) set_check_failure_hook(nullptr);
  std::uint64_t spans_aborted = 0;
  for (NodeId id = 0; id < p; ++id) {
    if (span_logs[id] != nullptr) {
      // Satellite-3 invariant: whatever a killed node (or a fetch that
      // never completed) left open is closed now with the aborted flag —
      // a finished run leaks no spans.
      spans_aborted += span_logs[id]->abort_open(trace_window_end);
    }
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  Report report;
  // Pairs this run actually accounted for: journal-recovered plus
  // freshly delivered. Equal to total_pairs in any completed run;
  // smaller only when an unsurvivable chaos schedule cut the run short.
  report.pairs = recovered.size() +
                 delivered_this_run.load(std::memory_order_acquire);
  report.wall_seconds = wall;
  report.traffic = transport.counters();
  report.corrupted_frames = transport.corrupted_frames();
  if (journal != nullptr) ck.records_appended = journal->records_appended();
  report.checkpoint = ck;
  report.node_traffic.reserve(p);
  for (NodeId id = 0; id < p; ++id) {
    report.loads += node_reports[id].loads;
    report.peer_loads += node_reports[id].peer_loads;
    report.remote_steals += node_reports[id].steal.remote_steals;
    report.directory += meshes[id]->directory_stats();
    report.peer_cache += meshes[id]->peer_stats();
    report.failover += meshes[id]->failover_stats();
    report.host_cache += node_reports[id].host_cache;
    report.cache_fast_hits += node_reports[id].cache_fast_hits;
    report.prefetch_hits += node_reports[id].prefetch_hits;
    report.stall_seconds += node_reports[id].stall_seconds;
    report.load_retries += node_reports[id].load_retries;
    report.failed_loads += node_reports[id].failed_loads;
    report.metrics += node_reports[id].metrics;
    report.metrics += meshes[id]->metrics_snapshot();
    report.node_traffic.push_back(transport.node_counters(id));
    // Re-read the span log only now: mesh-side records (failover
    // instants, steal serves, the abort sweep above) can land on service
    // threads after the engine has assembled its report.
    if (config_.node.trace && span_logs[id] != nullptr) {
      node_reports[id].trace.causal_spans = span_logs[id]->records();
    }
  }
  report.duplicate_results_dropped =
      report.failover.duplicate_results_dropped;
  report.peer_retries = report.peer_cache.retries;

  // --- causal tracing epilogue (DESIGN.md §16) ---
  report.spans_aborted = spans_aborted;
  // Black-box dumps: every dead node's ring; every ring when the master
  // role moved (the post-mortem question is then "what did each node see
  // around the handover").
  for (NodeId id = 0; id < p; ++id) {
    if (transport.is_down(id) || report.failover.master_failovers > 0) {
      dump_flight(id);
    }
  }
  report.flight_dumps = flight_dumps;
  // Critical-path attribution over every sampled span of the run. Always
  // computed: with tracing off the span set is empty and the whole window
  // is attributed to idle, so the report block is schema-stable.
  std::vector<telemetry::SpanRecord> all_spans;
  for (NodeId id = 0; id < p; ++id) {
    if (span_logs[id] == nullptr) continue;
    const auto spans = span_logs[id]->records();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  report.critical_path = telemetry::analyze_critical_path(
      all_spans, trace_window_start, trace_window_end);

  report.nodes = std::move(node_reports);
  return report;
}

}  // namespace rocket::mesh
