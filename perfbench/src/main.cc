// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload of the repo benchmark and prints its result record as
// the last line of stdout (see perfbench/README.md).

#include <cstdio>
#include <cstring>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::Report report;
  int code = 0;
  if (args.workload == "men2-paper") {
    code = perfbench::RunMen2Paper(args, &report);
  } else if (args.workload == "men2-hotspot") {
    code = perfbench::RunMen2Hotspot(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (code != 0) return code;
  report.Print();
  return 0;
}
