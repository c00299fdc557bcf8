// What the workloads share: the Men-2 set-up, the answered-request
// record and its verification, and the direct core/graph probes a traced
// run times beside each request.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/distance_query.h"
#include "core/live_objects.h"
#include "core/path_query.h"
#include "engine/query_engine.h"
#include "engine/venue_bundle.h"
#include "graph/dijkstra.h"

namespace perfbench {

namespace eng = ::viptree::engine;

// Shipped defaults of §4.1 the query mixes use.
inline constexpr size_t kKnnK = 5;
inline constexpr double kRangeRadius = 100.0;
inline constexpr size_t kMen2Objects = 1000;

// Builds the Men-2 venue at paper scale with kMen2Objects objects placed
// from `seed`.
struct Men2Setup {
  std::shared_ptr<const eng::VenueBundle> bundle;
  std::vector<viptree::IndoorPoint> objects;
  double build_ms = 0.0;  // VenueBundle::Build alone
};
Men2Setup BuildMen2(uint64_t seed);

// Every workload sets up this many times in a run and reports the median.
inline constexpr int kSetupRepeats = 5;

// A uniformly random indoor point (synth::RandomIndoorPoint).
viptree::IndoorPoint RandomPoint(const viptree::Venue& venue,
                                 viptree::Rng& rng);

// One answered request, as the load generator saw it.
struct Answer {
  eng::Query query;
  eng::Result result;
  int64_t submit_ns = 0;
  int64_t complete_ns = 0;
  bool ok = false;
};

// Structural checks on every answer (path connected and as long as its
// distance, object answers ascending / within k / within the radius), and
// the brute-force oracle on up to `sample_per_type` answers of each type,
// picked deterministically by position. Failures go to `report`.
void VerifyAnswers(const eng::VenueBundle& bundle, const ObjectRecord& record,
                   const std::vector<Answer>& answers, size_t sample_per_type,
                   Report* report);

// The live object set of `bundle` must equal `expected`, position for
// position.
void VerifyLiveObjects(const eng::VenueBundle& bundle,
                       const std::vector<viptree::IndoorPoint>& expected,
                       Report* report);

// Direct calls into the core and graph layers for one query, each inside a
// span (traced runs only): VIPDistanceQuery / IPDistanceQuery for distance
// pairs (split by LeafOfPartition), VIPPathQuery, the kNN ascent and search
// separately, the range search, and a DijkstraEngine Start + RunToTargets
// from the query's doors to the doors its leaf-local work targets.
class CoreProbe {
 public:
  CoreProbe(const eng::VenueBundle& bundle, Tracer& tracer);

  // Runs the probes for `query` under `parent`; returns the time of the
  // direct core call that answers it (us), for the engine-overhead figure.
  double Probe(const eng::Query& query, uint64_t request, int64_t parent);

  // The per-layer metrics the probes feed.
  void AddMetrics(Report* report) const;
  // Folds another probe's counters into this one (several venues, one
  // figure).
  void AddCounts(const CoreProbe& other);

 private:
  const eng::VenueBundle& bundle_;
  Tracer& tracer_;
  viptree::VIPDistanceQuery vip_;
  viptree::IPDistanceQuery ip_;
  viptree::VIPPathQuery path_;
  viptree::DijkstraEngine dijkstra_;
  std::shared_ptr<const viptree::ObjectSnapshot> snapshot_;
  std::unique_ptr<viptree::SnapshotQuery> objects_;
  std::vector<double> nodes_visited_, objects_considered_, settled_;
  size_t distance_pairs_ = 0, same_leaf_pairs_ = 0;
};

// Runs each query through QueryEngine::Run and then through `probe`, both
// inside spans, and returns the median of Run minus the direct core call:
// the engine layer's own cost per query.
double ProbeQueries(const std::shared_ptr<const eng::VenueBundle>& bundle,
                    const std::vector<eng::Query>& queries, CoreProbe& probe,
                    Tracer& tracer);

// Span names (one definition so probes and metrics agree).
namespace span {
inline constexpr const char* kRequest = "request";
inline constexpr const char* kEngineRun = "engine.query_engine.run";
inline constexpr const char* kCrossLeaf = "core.distance.cross_leaf";
inline constexpr const char* kSameLeaf = "core.distance.same_leaf";
inline constexpr const char* kIpTree = "core.distance.ip_tree";
inline constexpr const char* kPath = "core.path.vip";
inline constexpr const char* kKnn = "core.knn";
inline constexpr const char* kKnnAscent = "core.knn.ascent";
inline constexpr const char* kKnnSearch = "core.knn.search";
inline constexpr const char* kRange = "core.range";
inline constexpr const char* kLeafDijkstra = "graph.dijkstra.leaf";
inline constexpr const char* kSave = "io.snapshot.save";
inline constexpr const char* kLoad = "io.snapshot.load";
inline constexpr const char* kEncode = "net.wire.encode";
inline constexpr const char* kDecode = "net.wire.decode";
inline constexpr const char* kQueue = "engine.service.queue";
inline constexpr const char* kExec = "engine.service.exec";
inline constexpr const char* kPublish = "core.live_objects.publish";
}  // namespace span

// Every per-layer metric a traced run prints. Each workload fills what its
// path exercises; the rest print as 0 ("this layer does no work here").
struct LayerMetrics {
  double engine_overhead_us = 0, build_ms = 0, save_ms = 0, load_ms = 0;
  double encode_us = 0, decode_us = 0, request_bytes = 0, response_bytes = 0;
  double shard_hop_us = 0, router_hop_p50_us = 0, router_hop_p99_us = 0;
  double serial_rtt_us = 0, hop_sum_ratio = 0;
  double queue_us = 0, exec_us = 0;
  double plan_groups = 0, plan_ascents_reused = 0, plan_mean_group = 0;
  double publish_us = 0, merge_watermark = 0, speedup_1w = 0;
  double busy_threads = 0, trace_overhead_pct = 0;

  void AddTo(Report* report) const;
};

// The latency figures every workload reports (the end-to-end metrics other
// than set-up, memory and throughput), from samples kept in request order
// and summarized with ChunkedQuantile.
struct LatencyMetrics {
  std::vector<double> distance, path, knn, range, update;

  void Record(eng::QueryType type, double micros);
  void AddTo(Report* report) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
