// perfbench: runs one workload of the hybrid-tree benchmark and prints its
// result as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 the per-layer metrics of the traced run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "geometry/kernels/kernels.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\n");
  return 2;
}

/// Host facts a figure is meaningless without, on standard error.
void PrintHost() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::fprintf(stderr, "perfbench: host nproc=%u simd=%s cpu=%s\n",
               std::thread::hardware_concurrency(),
               ht::kernels::TierName(ht::kernels::ActiveTier()), cpu.c_str());
}

void PrintResult(const pb::RunOutput& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      args.workload = v;
    } else if (key == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(v);
    } else if (key == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--trace-file") {
      args.trace_file = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  PrintHost();
  pb::RunOutput out;
  if (!pb::RunWorkload(args, &out)) return 1;
  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
  }
  PrintResult(out);
  return 0;
}
