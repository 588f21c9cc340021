// serve_mixed: writes and reads sharing the snapshot layer. One writer
// thread feeds a resolution service (RISK certifier, one crowd worker) 64
// shuffled shards of a 120k-pair AB-shaped workload, with review bursts, a
// mid-stream certification and a final certification drained to
// quiescence. Meanwhile two closed-loop reader threads each send identity
// reads: LabelOfPair on a pair drawn from the whole base workload (nullopt
// until it arrives), alternating with EntityOfRecord on its left record.
//
// The write side is bench_serving's schedule: the AB preset's reference
// realization (AbConfigSmall's default seed) in the stream's default
// shuffle. The benchmark seed drives the readers' draws. Across AB
// realizations RISK's human cost moves by about a quarter. Across arrival
// orders the wall time fell into two groups about 30% apart that tracked
// the human cost (ten orders measured). Either would drown a regression
// bound. 120k pairs is a size this workload certifies at. The output check
// compares the drained service against a synchronous StreamingResolver
// driven through the same schedule.

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "humo.h"
#include "workloads.h"

namespace perfbench {

using namespace humo;

namespace {

const core::QualityRequirement kReq{0.9, 0.9, 0.9};
constexpr size_t kPairs = 120'000;
constexpr uint64_t kAbRealization = 1234;
constexpr size_t kShards = 64;
constexpr size_t kReaders = 2;
constexpr size_t kCrowdWorkers = 1;
constexpr uint64_t kSamplingSeed = 1000;
// Every kLatencyStride-th read iteration is timed (both its reads). Each
// reader keeps a uniform sample of at most kLatencySamples of those timings
// (reservoir sampling), so the benchmark's own memory does not grow with
// read throughput and peak RSS stays the library's.
constexpr size_t kLatencyStride = 4;
constexpr size_t kLatencySamples = size_t{1} << 18;
// In traced repetitions every kProbeStride-th iteration also times the
// read's parts (snapshot pin, Find, EntityOf) and samples epoch lag and
// queue depth.
constexpr size_t kProbeStride = 64;
// Every kValidateStride-th iteration pins a snapshot and checks Validate()
// and that versions never go back.
constexpr size_t kValidateStride = 4096;
// ingest_tail_ms: of the 64 per-epoch latencies sorted ascending, the one
// with 10 beyond it (rank 54 of 64, the 84.4th percentile).
constexpr size_t kTailIndex = kShards - 11;

core::StreamingOptions Streaming() {
  core::StreamingOptions streaming;
  streaming.certifier = core::StreamCertifier::kRisk;
  streaming.sampling.seed = kSamplingSeed;
  return streaming;
}

/// Review burst enqueued before epoch `e`: 8 pairs of the base every fourth
/// epoch. Shared by the service run and the synchronous reference.
std::vector<data::InstancePair> ReviewBurst(size_t e,
                                            const data::Workload& base) {
  std::vector<data::InstancePair> burst;
  if (e % 4 != 1) return burst;
  for (size_t k = 0; k < 8; ++k) {
    burst.push_back(base[(e * 7919 + k * 104729) % base.size()]);
  }
  return burst;
}

struct Inputs {
  data::Workload base;
  std::vector<data::Shard> shards;
};

struct SyncRun {
  bool ok = false;
  core::StreamingCertificate cert;
  size_t total_inspections = 0;
  std::vector<double> ingest_ms;
  double certify_s = 0.0;
  size_t prov_extensions = 0;
  size_t prov_grid_fits = 0;
};

/// The synchronous reference: the bare resolver through the same shard,
/// certification and review schedule, with review verdicts preloaded at the
/// same epoch boundaries.
SyncRun RunSynchronous(const Inputs& in) {
  SyncRun run;
  core::StreamingResolver resolver(Streaming(), kReq);
  for (size_t e = 0; e < kShards; ++e) {
    if (e == kShards / 2 && !resolver.Certify().ok()) return run;
    for (const data::InstancePair& pair : ReviewBurst(e, in.base)) {
      const size_t idx = resolver.cumulative().IndexOfSorted(pair);
      if (idx >= resolver.cumulative().size() ||
          resolver.oracle().WasAsked(idx)) {
        continue;  // the skip rules of ResolutionService::EnqueueReview
      }
      resolver.PreloadEvidence(pair, resolver.oracle().InlineAnswer(idx));
    }
    data::Shard shard = in.shards[e];
    const double t0 = NowSeconds();
    resolver.Ingest(std::move(shard));
    run.ingest_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  const double t0 = NowSeconds();
  auto cert = resolver.Certify();
  run.certify_s = NowSeconds() - t0;
  if (!cert.ok()) return run;
  run.ok = true;
  run.cert = *cert;
  run.total_inspections = resolver.total_inspections();
  run.prov_extensions = resolver.provisional_gp_extensions();
  run.prov_grid_fits = resolver.provisional_gp_grid_fits();
  return run;
}

struct ReaderStats {
  size_t reads = 0;
  size_t timed = 0;  ///< latencies offered to the reservoir
  size_t sink = 0;  ///< folds every answer so no read can be elided
  size_t failures = 0;
  std::vector<double> latency_us;
  std::vector<double> pin_us, find_us, entity_of_us;
  std::vector<double> epoch_lag;
  size_t queue_depth_max = 0;
};

struct RepResult {
  double wall_s = 0.0;
  double certify_s = 0.0;
  std::vector<double> ingest_ms;
  std::vector<double> handoff_ms;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  bool certified = false;
  size_t human_cost = 0;
  double precision = 0.0;
  double recall = 0.0;
  std::vector<ReaderStats> readers;
  size_t snapshots_published = 0;
  size_t reviews_folded = 0;
  size_t queue_batches = 0;
  size_t queue_answers = 0;
  size_t oracle_requests = 0;
  size_t oracle_duplicates = 0;
  core::CacheStats cache;
  double cluster_s = 0.0;
  size_t entities = 0;
};

void ReaderLoop(const core::ResolutionService& service,
                const data::Workload& base, uint64_t seed, bool probe,
                const std::atomic<bool>& stop,
                const std::atomic<size_t>& writer_epoch, ReaderStats* stats) {
  uint64_t state = seed | 1;
  size_t last_version = 0;
  size_t sink = 0;
  for (size_t it = 0; !stop.load(std::memory_order_acquire); ++it) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const data::InstancePair& pair = base[state % base.size()];
    const entity::RecordRef left{0, pair.left_id};
    if (it % kLatencyStride == 0) {
      double t0 = NowSeconds();
      const std::optional<int> label = service.LabelOfPair(pair);
      double t1 = NowSeconds();
      const std::optional<uint32_t> entity = service.EntityOfRecord(left);
      const double t2 = NowSeconds();
      for (const double us : {(t1 - t0) * 1e6, (t2 - t1) * 1e6}) {
        const size_t seen = stats->timed++;
        if (seen < kLatencySamples) {
          stats->latency_us.push_back(us);
        } else {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          const size_t slot = state % (seen + 1);
          if (slot < kLatencySamples) stats->latency_us[slot] = us;
        }
      }
      sink += label.value_or(0) + entity.value_or(0);
    } else {
      sink += service.LabelOfPair(pair).value_or(0);
      sink += service.EntityOfRecord(left).value_or(0);
    }
    stats->reads += 2;
    if (probe && it % kProbeStride == 0) {
      const double t0 = NowSeconds();
      const auto snap = service.snapshot();
      const double t1 = NowSeconds();
      const std::optional<size_t> idx = snap->Find(pair);
      const double t2 = NowSeconds();
      const std::optional<uint32_t> entity = snap->EntityOf(left);
      const double t3 = NowSeconds();
      stats->pin_us.push_back((t1 - t0) * 1e6);
      stats->find_us.push_back((t2 - t1) * 1e6);
      stats->entity_of_us.push_back((t3 - t2) * 1e6);
      sink += idx.value_or(0) + entity.value_or(0);
      const double epoch = static_cast<double>(
          writer_epoch.load(std::memory_order_acquire));
      stats->epoch_lag.push_back(
          std::max(0.0, epoch - static_cast<double>(snap->epochs_ingested())));
      stats->queue_depth_max =
          std::max(stats->queue_depth_max, service.pending_crowd_tasks());
    }
    if (it % kValidateStride == 0) {
      const auto snap = service.snapshot();
      if (snap->version() < last_version || !snap->Validate()) {
        ++stats->failures;
      }
      last_version = snap->version();
    }
  }
  stats->sink = sink;
}

/// The reader threads of one repetition. Stops and joins them on every
/// path out of the repetition, before the service they read is destroyed.
class ReaderGroup {
 public:
  ReaderGroup() = default;
  ReaderGroup(const ReaderGroup&) = delete;
  ReaderGroup& operator=(const ReaderGroup&) = delete;
  ~ReaderGroup() { StopAndJoin(); }

  const std::atomic<bool>& stop() const { return stop_; }
  void Add(std::thread thread) { threads_.push_back(std::move(thread)); }
  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

bool SameAsReference(const core::StreamingCertificate& cert,
                     const SyncRun& sync) {
  return cert.resolution.labels == sync.cert.resolution.labels &&
         cert.solution.empty == sync.cert.solution.empty &&
         cert.solution.h_lo == sync.cert.solution.h_lo &&
         cert.solution.h_hi == sync.cert.solution.h_hi &&
         cert.certified == sync.cert.certified &&
         cert.total_inspections == sync.total_inspections;
}

RepResult RunOnce(const Inputs& in, const SyncRun& sync, uint64_t reader_seed,
                  SpanRecorder* rec, Outcome* out) {
  using Scope = SpanRecorder::Scope;
  RepResult r;
  core::ResolutionServiceOptions service_options;
  service_options.streaming = Streaming();
  service_options.crowd_workers = kCrowdWorkers;
  core::ResolutionService service(service_options, kReq);
  std::vector<data::Shard> shards = in.shards;

  std::atomic<size_t> writer_epoch{0};
  r.readers.resize(kReaders);
  for (ReaderStats& s : r.readers) s.latency_us.reserve(kLatencySamples);
  ReaderGroup readers;
  for (size_t k = 0; k < kReaders; ++k) {
    readers.Add(std::thread(ReaderLoop, std::cref(service), std::cref(in.base),
                            DeriveSeed(reader_seed, k), rec != nullptr,
                            std::cref(readers.stop()), std::cref(writer_epoch),
                            &r.readers[k]));
  }

  std::optional<Result<core::StreamingCertificate>> cert;
  const double t0 = NowSeconds();
  {
    Scope rep_span(rec, "rep");
    for (size_t e = 0; e < kShards; ++e) {
      if (e == kShards / 2) {
        service.WaitForReviewDelivery();
        Scope s(rec, "core.service.request_certification");
        const double h0 = NowSeconds();
        out->Op(service.RequestCertification(),
                "serve_mixed: mid-stream certification was dropped");
        r.handoff_ms.push_back((NowSeconds() - h0) * 1e3);
      }
      const std::vector<data::InstancePair> burst = ReviewBurst(e, in.base);
      if (!burst.empty()) {
        Scope s(rec, "core.service.enqueue_review");
        service.EnqueueReview(burst);
        ++out->attempted;
      }
      const size_t arriving = shards[e].pairs.size();
      const double i0 = NowSeconds();
      core::EpochReport report;
      {
        Scope s(rec, "core.service.ingest");
        report = service.Ingest(std::move(shards[e]));
      }
      r.ingest_ms.push_back((NowSeconds() - i0) * 1e3);
      writer_epoch.store(e + 1, std::memory_order_release);
      out->Op(report.pairs_arrived == arriving,
              "serve_mixed: Ingest did not take the whole shard");
    }
    service.WaitForReviewDelivery();
    const double c0 = NowSeconds();
    {
      Scope s(rec, "core.service.request_certification");
      out->Op(service.RequestCertification(),
              "serve_mixed: final certification was dropped");
    }
    r.handoff_ms.push_back((NowSeconds() - c0) * 1e3);
    {
      Scope s(rec, "core.service.drain");
      cert.emplace(service.DrainToQuiescence());
    }
    const double t1 = NowSeconds();
    r.certify_s = t1 - c0;
    r.wall_s = t1 - t0;
  }
  readers.StopAndJoin();

  out->Op(cert->ok(), "serve_mixed: certification returned an error");
  if (cert->ok()) {
    r.certified = (*cert)->certified;
    out->Op(r.certified, "serve_mixed: certification ended uncertified");
    out->Op(SameAsReference(**cert, sync),
            "serve_mixed: the drained service differs from the synchronous "
            "reference");
  }
  std::vector<double> latencies;
  for (const ReaderStats& s : r.readers) {
    out->attempted += s.reads;
    for (size_t f = 0; f < s.failures; ++f) {
      out->Op(false, "serve_mixed: a reader saw an invalid snapshot or a "
                     "version going back");
    }
    latencies.insert(latencies.end(), s.latency_us.begin(),
                     s.latency_us.end());
  }
  r.read_p50_us = WindowedQuantile(latencies, 0.50, 0.005);
  r.read_p99_us = WindowedQuantile(latencies, 0.99, 0.001);

  const std::shared_ptr<const core::ResolutionSnapshot> snap =
      service.snapshot();
  if (cert->ok()) {
    const eval::Quality quality =
        eval::QualityOf(snap->workload(), (*cert)->resolution.labels);
    r.human_cost = (*cert)->total_inspections;
    r.precision = quality.precision;
    r.recall = quality.recall;
  }
  r.entities = snap->num_entities();
  r.snapshots_published = service.snapshots_published();
  r.reviews_folded = service.reviews_folded();
  r.queue_batches = service.queue().batches_inspected();
  r.queue_answers = service.queue().answers_produced();
  const core::StreamingResolver& resolver = service.resolver_unsynchronized();
  r.oracle_requests = resolver.total_requests();
  r.oracle_duplicates = resolver.total_duplicate_requests();
  r.cache = resolver.context().stats();
  if (rec != nullptr) {
    // The size of the clustering each publish rebuilds.
    const double k0 = NowSeconds();
    entity::EntityClustering clustering;
    {
      Scope s(rec, "entity.cluster");
      clustering = entity::EntityClustering::FromLabels(snap->workload(),
                                                        snap->labels());
    }
    r.cluster_s = NowSeconds() - k0;
  }
  return r;
}

double Tail(std::vector<double> ingest_ms) {
  std::sort(ingest_ms.begin(), ingest_ms.end());
  return ingest_ms[kTailIndex];
}

}  // namespace

void RunServeMixed(const RunOptions& options, SpanRecorder* recorder,
                   Outcome* out) {
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = kShards;

  std::vector<double> setup_s;
  std::optional<Inputs> in;
  while (MoreSetup(setup_s)) {
    in.reset();
    const double t0 = NowSeconds();
    in.emplace();
    in->base =
        data::SimulatePairs(data::AbConfigSmall(kAbRealization, kPairs));
    data::WorkloadStream stream(&in->base, stream_options);
    for (size_t e = 0; e < kShards; ++e) in->shards.push_back(stream.ShardAt(e));
    core::ResolutionServiceOptions service_options;
    service_options.streaming = Streaming();
    service_options.crowd_workers = kCrowdWorkers;
    core::ResolutionService service(service_options, kReq);
    setup_s.push_back(NowSeconds() - t0);
  }

  // The reference runs first, so every repetition is checked as it ends and
  // nothing of it stays resident into the next one.
  const SyncRun sync = RunSynchronous(*in);
  out->Op(sync.ok, "serve_mixed: the synchronous reference failed");
  if (!sync.ok) return;

  RepSchedule schedule(options);
  std::vector<double> untraced_wall, traced_wall;
  std::vector<double> ingest_p50, ingest_tail, certify_s, read_p50, read_p99;
  std::vector<double> handoff_ms, pin_us, find_us, entity_of_us, epoch_lag;
  std::vector<double> drain_s, cluster_s;
  size_t queue_depth_max = 0;
  double epoch_lag_max = 0.0;
  std::optional<RepResult> last;
  bool traced = false;
  while (schedule.Next(&traced)) {
    last.reset();
    schedule.StartRepetition();
    RepResult r = RunOnce(
        *in, sync,
        DeriveSeed(options.seed, 100 + schedule.untraced() + schedule.traced()),
        traced ? recorder : nullptr, out);
    schedule.Done(r.wall_s);
    if (traced) {
      traced_wall.push_back(r.wall_s);
      handoff_ms.insert(handoff_ms.end(), r.handoff_ms.begin(),
                        r.handoff_ms.end());
      cluster_s.push_back(r.cluster_s);
      for (const ReaderStats& s : r.readers) {
        pin_us.insert(pin_us.end(), s.pin_us.begin(), s.pin_us.end());
        find_us.insert(find_us.end(), s.find_us.begin(), s.find_us.end());
        entity_of_us.insert(entity_of_us.end(), s.entity_of_us.begin(),
                            s.entity_of_us.end());
        epoch_lag.insert(epoch_lag.end(), s.epoch_lag.begin(),
                         s.epoch_lag.end());
        queue_depth_max = std::max(queue_depth_max, s.queue_depth_max);
      }
    } else {
      untraced_wall.push_back(r.wall_s);
      ingest_p50.push_back(Median(r.ingest_ms));
      ingest_tail.push_back(Tail(r.ingest_ms));
      certify_s.push_back(r.certify_s);
      read_p50.push_back(r.read_p50_us);
      read_p99.push_back(r.read_p99_us);
    }
    if (!r.certified) return;
    r.readers.clear();
    last = std::move(r);
  }
  for (double lag : epoch_lag) epoch_lag_max = std::max(epoch_lag_max, lag);

  out->Set("setup_s", Median(setup_s));
  out->Set("wall_s", Median(untraced_wall));
  out->NoteSeries("untraced wall_s per repetition", untraced_wall);
  out->Set("peak_rss_mb", schedule.peak_rss_mb());
  out->NoteSeries("peak_rss_mb per repetition", schedule.rep_peak_rss_mb());
  out->Set("human_cost", static_cast<double>(last->human_cost));
  out->Set("precision", last->precision);
  out->Set("recall", last->recall);
  out->Set("ingest_p50_ms", Median(ingest_p50));
  out->Set("ingest_tail_ms", Median(ingest_tail));
  out->Set("certify_s", Median(certify_s));
  out->Set("read_p50_us", Median(read_p50));
  out->Set("read_p99_us", Median(read_p99));
  out->notes.push_back(
      std::to_string(in->base.size()) + " pairs in " +
      std::to_string(kShards) + " shards, " + std::to_string(kReaders) +
      " closed-loop readers, " + std::to_string(kCrowdWorkers) +
      " crowd worker, " + std::to_string(schedule.untraced()) +
      " untraced + " + std::to_string(schedule.traced()) +
      " traced repetitions, " +
      std::to_string(ThreadPool::Global()->num_threads()) + " pool threads");
  out->notes.push_back(
      "ingest_tail_ms is the p84.4 of the 64 Ingest latencies of a "
      "repetition (10 beyond it); read percentiles pool both readers, "
      "1 in " + std::to_string(kLatencyStride) +
      " iterations timed, a uniform sample of at most " +
      std::to_string(kLatencySamples) + " timings per reader kept");
  if (!options.trace) return;

  const double n = static_cast<double>(schedule.traced());
  out->Set("trace_overhead_frac",
           Median(traced_wall) / Median(untraced_wall) - 1.0);
  out->Set("common.pool_threads",
           static_cast<double>(ThreadPool::Global()->num_threads()));
  SetEngineCounters(last->cache, last->oracle_requests,
                    last->oracle_duplicates, out);
  out->Set("entity.cluster_s", Median(cluster_s));
  out->Set("entity.entities", static_cast<double>(last->entities));
  out->Set("core.service.cert_handoff_ms", Median(handoff_ms));
  out->Set("core.service.drain_s",
           recorder->TotalSeconds("core.service.drain") / n);
  out->Set("core.service.snapshots_published",
           static_cast<double>(last->snapshots_published));
  out->Set("core.service.reviews_folded",
           static_cast<double>(last->reviews_folded));
  out->Set("core.service.queue_batches",
           static_cast<double>(last->queue_batches));
  out->Set("core.service.queue_answers",
           static_cast<double>(last->queue_answers));
  out->Set("core.service.queue_depth_max",
           static_cast<double>(queue_depth_max));
  out->Set("core.service.read_epoch_lag_p50", Median(epoch_lag));
  out->Set("core.service.read_epoch_lag_max", epoch_lag_max);
  out->Set("core.service.snapshot_pin_p50_us",
           WindowedQuantile(pin_us, 0.5, 0.005));
  out->Set("core.snapshot.find_p50_us", WindowedQuantile(find_us, 0.5, 0.005));
  out->Set("entity.entity_of_p50_us",
           WindowedQuantile(entity_of_us, 0.5, 0.005));
  out->Set("core.streaming.ingest_p50_ms", Median(sync.ingest_ms));
  out->Set("core.streaming.certify_s", sync.certify_s);
  out->Set("gp.prov_extensions", static_cast<double>(sync.prov_extensions));
  out->Set("gp.prov_grid_fits", static_cast<double>(sync.prov_grid_fits));
  out->Set("core.service.publish_overhead_ms",
           Median(ingest_p50) - Median(sync.ingest_ms));
}

}  // namespace perfbench
