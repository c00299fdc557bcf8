// The workloads. Each sets up, runs for Args::seconds, checks every answer,
// and fills `report` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). Returns a non-zero exit code only when
// it cannot run at all.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "workload.h"

namespace perfbench {

int RunMen2Paper(const Args& args, Report* report);
int RunMen2Hotspot(const Args& args, Report* report);

// The io and net layers of a traced run (wire_probe.cc): snapshot save and
// load of `bundle`, then serial round trips of already answered distance
// queries through a router and straight to the owning shard, each of which
// must return the in-process answer. Fills the io/net fields of `layers`;
// failures go to `report`.
void ProbeWire(const eng::VenueBundle& bundle,
               const std::vector<Answer>& distances, Tracer& tracer,
               LayerMetrics* layers, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
