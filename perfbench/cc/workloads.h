// The benchmark's workloads: a seeded script of k-NN, distance-range, box,
// insert and delete operations replayed in passes over a hybrid tree that
// starts every pass from the same state.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pb {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty: nowhere.
  std::string trace_file;
};

/// Runs one workload. Returns false (with a message on stderr) when the
/// workload is unknown or the library fails in a way that stops the run.
bool RunWorkload(const RunArgs& args, RunOutput* out);

}  // namespace pb
