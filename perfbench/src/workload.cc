#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "oracle.h"
#include "synth/objects.h"
#include "synth/presets.h"

namespace perfbench {

using viptree::DoorId;
using viptree::IndoorPoint;
using viptree::ObjectId;

Men2Setup BuildMen2(uint64_t seed) {
  Men2Setup setup;
  viptree::Venue venue =
      viptree::synth::MakeDataset(viptree::synth::Dataset::kMen2, 1.0);
  viptree::Rng rng(seed);
  setup.objects = viptree::synth::PlaceObjects(venue, kMen2Objects, rng);
  const int64_t start = NowNs();
  eng::VenueBundle bundle =
      eng::VenueBundle::Build(std::move(venue), setup.objects);
  setup.build_ms = MicrosBetween(start, NowNs()) / 1000.0;
  setup.bundle = std::make_shared<const eng::VenueBundle>(std::move(bundle));
  return setup;
}

IndoorPoint RandomPoint(const viptree::Venue& venue, viptree::Rng& rng) {
  return viptree::synth::RandomIndoorPoint(venue, rng);
}

namespace {

std::string Where(const char* what, size_t index, const std::string& error) {
  return std::string(what) + " answer " + std::to_string(index) + ": " + error;
}

bool IsObjectQuery(eng::QueryType type) {
  return type == eng::QueryType::kKnn || type == eng::QueryType::kRange;
}

}  // namespace

void VerifyAnswers(const eng::VenueBundle& bundle, const ObjectRecord& record,
                   const std::vector<Answer>& answers, size_t sample_per_type,
                   Report* report) {
  const viptree::Venue& venue = bundle.venue();
  const viptree::D2DGraph& graph = bundle.graph();
  Oracle oracle(venue, graph);
  size_t per_type[8] = {};
  size_t seen[8] = {};
  for (const Answer& a : answers) ++per_type[static_cast<size_t>(a.query.type)];

  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (!a.ok) continue;
    const eng::Query& q = a.query;
    const eng::Result& r = a.result;
    const char* name = eng::QueryTypeName(q.type);
    if (q.type == eng::QueryType::kPath) {
      const std::string e =
          CheckPath(venue, graph, q.source, q.target, r.distance, r.doors);
      if (!e.empty()) report->Fail(Where(name, i, e));
    } else if (IsObjectQuery(q.type)) {
      const bool knn = q.type == eng::QueryType::kKnn;
      const std::string e = CheckObjectsShape(
          r.objects, knn ? q.k : r.objects.size(),
          knn ? viptree::kInfDistance : q.radius);
      if (!e.empty()) report->Fail(Where(name, i, e));
    }

    // Evenly spread oracle sample of each type.
    const size_t t = static_cast<size_t>(q.type);
    const size_t stride = std::max<size_t>(1, per_type[t] / sample_per_type);
    if (seen[t]++ % stride != 0 || seen[t] > stride * sample_per_type) {
      continue;
    }
    oracle.FromPoint(q.source);
    if (q.type == eng::QueryType::kDistance ||
        q.type == eng::QueryType::kPath) {
      const double want = oracle.ToPoint(q.target);
      if (!Near(want, r.distance)) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "oracle %.6f vs %.6f", want,
                      r.distance);
        report->Fail(Where(name, i, buf));
      }
      continue;
    }
    std::vector<std::vector<double>> candidates(record.num_objects());
    for (size_t o = 0; o < record.num_objects(); ++o) {
      for (const IndoorPoint& p : record.Candidates(
               static_cast<ObjectId>(o), a.submit_ns, a.complete_ns)) {
        candidates[o].push_back(oracle.ToPoint(p));
      }
    }
    const std::string e =
        q.type == eng::QueryType::kKnn
            ? CheckKnnAgainst(r.objects, q.k, candidates)
            : CheckRangeAgainst(r.objects, q.radius, candidates);
    if (!e.empty()) report->Fail(Where(name, i, e));
  }
}

void VerifyLiveObjects(const eng::VenueBundle& bundle,
                       const std::vector<IndoorPoint>& expected,
                       Report* report) {
  const std::shared_ptr<const viptree::ObjectSnapshot> snap =
      bundle.live_objects().Acquire();
  if (snap->num_live != expected.size() || !snap->removed.empty()) {
    report->Fail("live object count differs from the record");
    return;
  }
  for (size_t o = 0; o < expected.size(); ++o) {
    const auto* overlay = snap->FindOverlay(static_cast<ObjectId>(o));
    const IndoorPoint& live = overlay != nullptr
                                  ? overlay->point
                                  : snap->base->object(static_cast<ObjectId>(o));
    if (live.partition != expected[o].partition ||
        !(live.position == expected[o].position)) {
      report->Fail("live object " + std::to_string(o) +
                   " is not where the record puts it");
      return;
    }
  }
}

CoreProbe::CoreProbe(const eng::VenueBundle& bundle, Tracer& tracer)
    : bundle_(bundle),
      tracer_(tracer),
      vip_(bundle.tree(), bundle.query_options()),
      ip_(bundle.tree().base(), bundle.query_options()),
      path_(bundle.tree(), bundle.query_options()),
      dijkstra_(bundle.graph()) {}

double CoreProbe::Probe(const eng::Query& q, uint64_t request,
                        int64_t parent) {
  const viptree::IPTree& tree = bundle_.tree().base();
  const viptree::Venue& venue = bundle_.venue();
  std::shared_ptr<const viptree::ObjectSnapshot> snap =
      bundle_.live_objects().Acquire();
  if (snap != snapshot_) {
    snapshot_ = snap;
    objects_ = std::make_unique<viptree::SnapshotQuery>(
        tree, snapshot_, bundle_.query_options());
  }
  // Doors the leaf-local Dijkstra has to settle for this query.
  std::vector<DoorId> targets;
  double core_us = 0.0;
  const int64_t start = NowNs();
  switch (q.type) {
    case eng::QueryType::kDistance: {
      const bool same_leaf = tree.LeafOfPartition(q.source.partition) ==
                             tree.LeafOfPartition(q.target.partition);
      ++distance_pairs_;
      {
        ScopedSpan s(tracer_, same_leaf ? span::kSameLeaf : span::kCrossLeaf,
                     request, parent);
        vip_.Distance(q.source, q.target);
      }
      core_us = MicrosBetween(start, NowNs());
      {
        ScopedSpan s(tracer_, span::kIpTree, request, parent);
        ip_.Distance(q.source, q.target);
      }
      if (same_leaf) {
        ++same_leaf_pairs_;
        for (const DoorId d : venue.DoorsOf(q.target.partition)) {
          targets.push_back(d);
        }
      }
      break;
    }
    case eng::QueryType::kPath: {
      ScopedSpan s(tracer_, span::kPath, request, parent);
      path_.Path(q.source, q.target);
      core_us = MicrosBetween(start, NowNs());
      break;
    }
    case eng::QueryType::kKnn: {
      viptree::SearchStats stats;
      {
        ScopedSpan knn(tracer_, span::kKnn, request, parent);
        viptree::AscentDistances ascent;
        {
          ScopedSpan s(tracer_, span::kKnnAscent, request, knn.id());
          ascent = objects_->ComputeAscent(q.source);
        }
        ScopedSpan s(tracer_, span::kKnnSearch, request, knn.id());
        objects_->KnnWithAscent(q.source, q.k, ascent, &stats);
      }
      core_us = MicrosBetween(start, NowNs());
      nodes_visited_.push_back(static_cast<double>(stats.nodes_visited));
      objects_considered_.push_back(
          static_cast<double>(stats.objects_considered));
      break;
    }
    case eng::QueryType::kRange: {
      ScopedSpan s(tracer_, span::kRange, request, parent);
      objects_->Range(q.source, q.radius);
      core_us = MicrosBetween(start, NowNs());
      break;
    }
    case eng::QueryType::kBooleanKnn:
      return 0.0;
  }
  if (q.type == eng::QueryType::kKnn || q.type == eng::QueryType::kRange) {
    const viptree::NodeId leaf = tree.LeafOfPartition(q.source.partition);
    for (const ObjectId o : snapshot_->base->ObjectsInLeaf(leaf)) {
      for (const DoorId d :
           venue.DoorsOf(snapshot_->base->object(o).partition)) {
        targets.push_back(d);
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  }
  if (!targets.empty()) {
    std::vector<viptree::DijkstraSource> sources;
    for (const DoorId d : venue.DoorsOf(q.source.partition)) {
      sources.push_back({d, venue.DistanceToDoor(q.source, d)});
    }
    ScopedSpan s(tracer_, span::kLeafDijkstra, request, parent);
    dijkstra_.Start(sources);
    dijkstra_.RunToTargets(targets);
    settled_.push_back(static_cast<double>(dijkstra_.NumSettledInSearch()));
  }
  return core_us;
}

double ProbeQueries(const std::shared_ptr<const eng::VenueBundle>& bundle,
                    const std::vector<eng::Query>& queries, CoreProbe& probe,
                    Tracer& tracer) {
  eng::QueryEngine engine(bundle);
  std::vector<double> overhead;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t root = tracer.Begin(span::kRequest, i);
    const int64_t run = tracer.Begin(span::kEngineRun, i, root);
    const int64_t start = NowNs();
    engine.Run(queries[i]);
    const double run_us = MicrosBetween(start, NowNs());
    tracer.End(run);
    overhead.push_back(run_us - probe.Probe(queries[i], i, root));
    tracer.End(root);
  }
  return Median(overhead);
}

void CoreProbe::AddCounts(const CoreProbe& other) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(nodes_visited_, other.nodes_visited_);
  append(objects_considered_, other.objects_considered_);
  append(settled_, other.settled_);
  distance_pairs_ += other.distance_pairs_;
  same_leaf_pairs_ += other.same_leaf_pairs_;
}

void CoreProbe::AddMetrics(Report* report) const {
  const auto med = [this](const char* name) {
    return Median(tracer_.SelfTimes(name));
  };
  report->Add("core.distance.cross_leaf_us", med(span::kCrossLeaf), "us");
  report->Add("core.distance.same_leaf_us", med(span::kSameLeaf), "us");
  report->Add("core.distance.same_leaf_pct",
              distance_pairs_ == 0 ? 0.0
                                   : 100.0 * static_cast<double>(same_leaf_pairs_) /
                                         static_cast<double>(distance_pairs_),
              "%");
  report->Add("core.distance.ip_tree_us", med(span::kIpTree), "us");
  report->Add("core.path.vip_us", med(span::kPath), "us");
  report->Add("core.knn.ascent_us", med(span::kKnnAscent), "us");
  report->Add("core.knn.search_us", med(span::kKnnSearch), "us");
  report->Add("core.knn.self_us", med(span::kKnn), "us");
  report->Add("core.knn.nodes_visited", Mean(nodes_visited_), "count");
  report->Add("core.knn.objects_considered", Mean(objects_considered_),
              "count");
  report->Add("core.range.us", med(span::kRange), "us");
  report->Add("graph.dijkstra.leaf_us", med(span::kLeafDijkstra), "us");
  report->Add("graph.dijkstra.leaf_settled", Mean(settled_), "count");
}

void LayerMetrics::AddTo(Report* report) const {
  report->Add("engine.query_engine.overhead_us", engine_overhead_us, "us");
  report->Add("engine.venue_bundle.build_ms", build_ms, "ms");
  report->Add("io.snapshot.save_ms", save_ms, "ms");
  report->Add("io.snapshot.load_ms", load_ms, "ms");
  report->Add("net.wire.encode_us", encode_us, "us");
  report->Add("net.wire.decode_us", decode_us, "us");
  report->Add("net.wire.request_bytes", request_bytes, "B");
  report->Add("net.wire.response_bytes", response_bytes, "B");
  report->Add("net.shard.hop_us", shard_hop_us, "us");
  report->Add("net.router.hop_p50_us", router_hop_p50_us, "us");
  report->Add("net.router.hop_p99_us", router_hop_p99_us, "us");
  report->Add("net.serial_rtt_us", serial_rtt_us, "us");
  report->Add("net.hop_sum_ratio", hop_sum_ratio, "ratio");
  report->Add("engine.service.queue_us", queue_us, "us");
  report->Add("engine.service.exec_us", exec_us, "us");
  report->Add("engine.exec_plan.groups", plan_groups, "count");
  report->Add("engine.exec_plan.ascents_reused", plan_ascents_reused, "count");
  report->Add("engine.exec_plan.mean_group_size", plan_mean_group, "count");
  report->Add("core.live_objects.publish_us", publish_us, "us");
  report->Add("core.live_objects.merge_watermark", merge_watermark, "count");
  report->Add("engine.service.speedup_1w", speedup_1w, "ratio");
  report->Add("load.busy_threads", busy_threads, "threads");
  report->Add("trace.overhead_pct", trace_overhead_pct, "%");
}

void LatencyMetrics::Record(eng::QueryType type, double micros) {
  switch (type) {
    case eng::QueryType::kDistance: distance.push_back(micros); break;
    case eng::QueryType::kPath: path.push_back(micros); break;
    case eng::QueryType::kKnn: knn.push_back(micros); break;
    case eng::QueryType::kRange: range.push_back(micros); break;
    case eng::QueryType::kBooleanKnn: break;
  }
}

void LatencyMetrics::AddTo(Report* report) const {
  report->Add("distance_p50_us", ChunkedQuantile(distance, 0.5), "us");
  report->Add("distance_p99_us", ChunkedQuantile(distance, 0.99), "us");
  report->Add("path_p50_us", ChunkedQuantile(path, 0.5), "us");
  report->Add("knn_p50_us", ChunkedQuantile(knn, 0.5), "us");
  report->Add("knn_p99_us", ChunkedQuantile(knn, 0.99), "us");
  report->Add("range_p50_us", ChunkedQuantile(range, 0.5), "us");
  report->Add("update_p50_us", ChunkedQuantile(update, 0.5), "us");
  report->Add("update_p99_us", ChunkedQuantile(update, 0.99), "us");
  std::fprintf(stderr,
               "samples: distance %zu, path %zu, knn %zu, range %zu, "
               "update %zu\n",
               distance.size(), path.size(), knn.size(), range.size(),
               update.size());
}

}  // namespace perfbench
