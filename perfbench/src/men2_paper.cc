// men2-paper: one client runs a closed loop of QueryEngine::Run on Men-2 at
// paper scale with 1000 objects — uniform sources and targets, four
// distance queries and one path, kNN (k = 5) and range (r = 100) query per
// round (§4.1). Distance queries are cheap except for the ~3% of pairs in
// one leaf, which set the distance p99; four per round give that tail
// enough samples to read the same from run to run.
// The core and graph layers do all the work; the service, planner and net
// layers none. Between rounds, bursts of single-object moves go through
// QueryEngine::ApplyObjectDelta on the otherwise idle engine, which gives
// the update figures the publish cost without contention; after each burst
// the set-up objects are restored (a fresh packed index, no overlay), so
// every query sees exactly the paper's object set.


#include <pthread.h>
#include <sched.h>

#include "workloads.h"

namespace perfbench {

namespace {

// Distinct query rounds, reused in order. A 45 s run gets through about
// 19k, so it repeats no query, and the ~3.5% same-leaf distance pairs that
// set the distance p99 are over 2500 distinct pairs.
constexpr size_t kRounds = 32768;
constexpr size_t kPerRound = 7;
// One burst moves kBurst distinct objects: the last one takes the overlay
// past the default merge watermark (64) and triggers the CSR merge, so each
// burst is one full merge cycle. A burst every kBurstEvery rounds gives
// about 30k moves in a 45 s run, spread over it.
constexpr size_t kBurst = 65;
constexpr size_t kBurstEvery = 40;
constexpr size_t kOracleSample = 100;
// The client visits the allowed CPUs in turn, one per chunk of the run
// (kChunks slots, so each of 4 vCPUs gets 4, spread over the run). On a
// virtual machine one vCPU can run far slower than the others for many
// seconds (host contention the guest does not see); a single thread left
// on it read 1.8x slower for a whole run. Visiting every vCPU alike makes
// every run sample them alike, and the chunk median leaves a slow one out.
// Slots last seconds: the caches are cold after a move, and at 0.2 s slots
// those first queries were over 1% of the kNN samples and set its p99.

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinCallingThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

// One burst of kBurst moves of distinct objects on the idle engine, timed
// one by one; the live set must then equal the set-up objects plus the
// burst, and is reset to the set-up objects.
void MoveBurst(eng::QueryEngine& engine, const Men2Setup& setup,
               viptree::Rng& rng, size_t* move_id, Tracer& tracer,
               LatencyMetrics* latency, Report* report) {
  ObjectRecord burst(setup.objects);
  std::vector<viptree::ObjectId> ids(kMen2Objects);
  for (size_t o = 0; o < ids.size(); ++o) ids[o] = static_cast<viptree::ObjectId>(o);
  for (size_t m = 0; m < kBurst; ++m) {
    std::swap(ids[m], ids[m + rng.UniformIndex(ids.size() - m)]);
    burst.AddMove(ids[m], RandomPoint(engine.venue(), rng));
  }
  for (size_t m = 0; m < kBurst; ++m) {
    viptree::ObjectDelta delta;
    delta.moves.push_back({burst.MoveObject(m), burst.MoveTarget(m)});
    const uint64_t id = (*move_id)++;
    const int64_t start = NowNs();
    burst.SetSubmitted(m, start);
    const int64_t publish = tracer.Begin(span::kPublish, id);
    const std::optional<std::string> error = engine.ApplyObjectDelta(delta);
    tracer.End(publish);
    const int64_t end = NowNs();
    burst.SetCompleted(m, end);
    report->CountAttempted(1);
    if (error.has_value()) {
      report->CountFailed(1);
      report->Fail("move " + std::to_string(id) + ": " + *error);
      continue;
    }
    latency->update.push_back(MicrosBetween(start, end));
  }
  VerifyLiveObjects(engine.bundle(), burst.Final(), report);
  engine.SetObjects(setup.objects);
}

}  // namespace

int RunMen2Paper(const Args& args, Report* report) {
  std::vector<double> setup_s;
  Men2Setup setup;
  std::unique_ptr<eng::QueryEngine> engine;
  double build_ms = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    const int64_t start = NowNs();
    setup = BuildMen2(args.seed);
    engine = std::make_unique<eng::QueryEngine>(setup.bundle);
    setup_s.push_back(MicrosBetween(start, NowNs()) / 1e6);
    build_ms = setup.build_ms;
  }
  const viptree::Venue& venue = engine->venue();

  viptree::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<eng::Query> queries;
  queries.reserve(kRounds * kPerRound);
  for (size_t r = 0; r < kRounds; ++r) {
    for (int d = 0; d < 4; ++d) {
      const viptree::IndoorPoint s = RandomPoint(venue, rng);
      queries.push_back(eng::Query::Distance(s, RandomPoint(venue, rng)));
    }
    queries.push_back(eng::Query::Path(RandomPoint(venue, rng),
                                       RandomPoint(venue, rng)));
    queries.push_back(eng::Query::Knn(RandomPoint(venue, rng), kKnnK));
    queries.push_back(eng::Query::Range(RandomPoint(venue, rng), kRangeRadius));
  }
  const ObjectRecord record(setup.objects);

  Tracer tracer(args.trace);
  LatencyMetrics latency;
  CoreProbe probe(*setup.bundle, tracer);
  std::vector<double> traced_run_us, untraced_run_us, overhead_us;
  std::vector<Answer> answers;
  answers.reserve(queries.size());
  std::vector<int64_t> done_ns;

  // Whole rounds until the time is up. A traced run traces every other
  // round, so both halves see the same conditions and the gap between them
  // is the tracing overhead.
  const double cpu_start = ProcessCpuSeconds();
  const int64_t loop_start = NowNs();
  const int64_t loop_end =
      loop_start + static_cast<int64_t>(args.seconds * 1e9);
  size_t rounds = 0;
  size_t move_id = 0;
  const std::vector<int> cpus = AllowedCpus();
  size_t next_cpu = 0;
  const int64_t slot_ns =
      static_cast<int64_t>(args.seconds * 1e9) / static_cast<int64_t>(kChunks);
  int64_t next_slot = loop_start;
  while (NowNs() < loop_end) {
    if (cpus.size() > 1 && NowNs() >= next_slot) {
      PinCallingThread(cpus[next_cpu++ % cpus.size()]);
      next_slot += slot_ns;
    }
    if (rounds % kBurstEvery == kBurstEvery - 1) {
      MoveBurst(*engine, setup, rng, &move_id, tracer, &latency, report);
    }
    const bool traced = args.trace && rounds % 2 == 1;
    for (size_t j = 0; j < kPerRound; ++j) {
      const uint64_t id = rounds * kPerRound + j;
      const eng::Query& q = queries[id % queries.size()];
      Answer a;
      a.query = q;
      int64_t root = -1;
      if (traced) root = tracer.Begin(span::kRequest, id);
      const int64_t run_span = traced ? tracer.Begin(span::kEngineRun, id, root) : -1;
      a.submit_ns = NowNs();
      a.result = engine->Run(q);
      a.complete_ns = NowNs();
      tracer.End(run_span);
      a.ok = true;
      const double us = MicrosBetween(a.submit_ns, a.complete_ns);
      done_ns.push_back(a.complete_ns);
      if (!args.trace) {
        latency.Record(q.type, us);
      } else if (traced) {
        traced_run_us.push_back(us);
        overhead_us.push_back(us - probe.Probe(q, id, root));
        tracer.End(root);
      } else {
        untraced_run_us.push_back(us);
      }
      answers.push_back(std::move(a));
    }
    ++rounds;
  }
  const double loop_s = MicrosBetween(loop_start, NowNs()) / 1e6;
  const double busy = (ProcessCpuSeconds() - cpu_start) / loop_s;
  report->CountAttempted(answers.size());

  VerifyAnswers(*setup.bundle, record, answers, kOracleSample, report);
  VerifyLiveObjects(*setup.bundle, record.Final(), report);

  if (!args.trace) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("index_bytes", static_cast<double>(engine->IndexMemoryBytes()),
                "B");
    report->Add("throughput_qps", WindowedRate(done_ns), "1/s");
    latency.AddTo(report);
    return 0;
  }
  probe.AddMetrics(report);
  LayerMetrics layers;
  layers.engine_overhead_us = Median(overhead_us);
  layers.build_ms = build_ms;
  layers.publish_us = Median(tracer.Durations(span::kPublish));
  layers.merge_watermark = static_cast<double>(
      setup.bundle->live_objects().EffectiveMergeWatermark());
  layers.busy_threads = busy;
  const double untraced = Mean(untraced_run_us);
  layers.trace_overhead_pct =
      untraced > 0.0 ? 100.0 * (Mean(traced_run_us) - untraced) / untraced
                     : 0.0;
  layers.AddTo(report);
  DumpSpans(tracer, args);
  return 0;
}

}  // namespace perfbench
