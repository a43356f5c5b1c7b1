#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_set>

#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data.h"
#include "data/dataset.h"
#include "estimator.h"
#include "exec/query_executor.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "trace.h"

namespace pb {
namespace {

using Clock = std::chrono::steady_clock;
using ht::Box;
using ht::HybridTree;
using ht::IoStats;
using ht::PagedFile;
using ht::Status;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

enum Kind : uint8_t { kKnn, kRange, kBox, kInsert, kDelete, kKinds };
const char* const kKindNames[kKinds] = {"knn", "range", "box", "insert",
                                        "delete"};
bool IsRead(Kind k) { return k == kKnn || k == kRange || k == kBox; }

constexpr size_t kK = 10;          // neighbours per k-NN query
constexpr size_t kMinPasses = 2;   // best-of needs at least two passes
constexpr size_t kRungOps = 300;   // per query kind, traced rungs only
constexpr double kTracedScriptS = 10;  // script time of a traced run
constexpr size_t kSampleCenters = 40;  // selectivity calibration
constexpr size_t kPoints = 100000;     // FOURIER 16-d, bulk-loaded
constexpr double kSelectivity = 0.0007;  // mean share of points per range
                                         // or box query

/// One workload: data, storage configuration and the operation mix of its
/// script. Why each exists is in perfbench/README.md.
struct Spec {
  const char* name;
  double pool_fraction;  // buffer pool / tree pages; 0 = unbounded
  bool warm;             // fill the pool and sidecars before timing
  bool interleave;       // writes mixed among reads, else after them
  size_t count[kKinds];  // operations of each kind in the script
  // Nominal time of one pass on the reference host (README). The pass
  // count is --seconds / pass_s, fixed for a given --seconds, so every
  // commit takes its minima over the same number of passes.
  double pass_s;
};

const Spec kSpecs[] = {
    {"search-warm", 0.0, true, false, {600, 300, 1000, 100, 100}, 1.0},
    {"mixed-write", 0.25, false, true, {500, 600, 600, 1000, 500}, 2.75},
};

struct Op {
  Kind kind;
  uint32_t arg;  // index into that kind's inputs
};

struct Inputs {
  Points initial;      // bulk-loaded; ids are row numbers
  Points inserts;      // inserted with ids initial.size() + row
  Points centers;      // k-NN, then range, then box centers
  std::vector<Box> boxes;
  std::vector<uint64_t> deletes;  // distinct ids of initial points
  double radius = 0.0;
  std::vector<Op> script;

  size_t count_knn = 0;  // k-NN centers come first in `centers`

  std::span<const float> Center(Kind k, uint32_t arg) const {
    return centers.Row(k == kKnn ? arg : count_knn + arg);
  }
};

/// Quantile of the distances from the centers to every second point of
/// `data`: the query size that gives the wanted mean selectivity.
template <typename DistFn>
double CalibrateSize(const Points& data, const Points& centers,
                     double selectivity, DistFn dist) {
  std::vector<double> d;
  for (size_t c = 0; c < centers.size(); ++c) {
    for (size_t i = 0; i < data.size(); i += 2) {
      d.push_back(dist(centers.Row(c), data.Row(i)));
    }
  }
  const size_t nth = static_cast<size_t>(selectivity * d.size());
  std::nth_element(d.begin(), d.begin() + nth, d.end());
  return d[nth];
}

double LInf(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

template <typename T>
void Shuffle(std::vector<T>& v, size_t begin, size_t end, Rng& rng) {
  for (size_t i = end; i > begin + 1; --i) {
    std::swap(v[i - 1], v[begin + rng.Below(i - begin)]);
  }
}

// The database is fixed, like the paper's FOURIER: the seed
// draws the query points, the inserted points, the deleted ids and the
// order of the script. Query sizes are calibrated once, on the database.
constexpr uint64_t kDatabaseSeed = 0x6879627269643939ULL;
constexpr uint64_t kCalibrationSeed = kDatabaseSeed + 1;
constexpr uint64_t kQuerySalt = 0x9e3779b97f4a7c15ULL;

/// `n` FOURIER-like points, in the database's [0,1]^16.
Points Draw(size_t n, uint64_t seed, const Normalizer& norm) {
  Points p = GenFourier(n, 16, seed);
  norm.Apply(&p);
  return p;
}

Inputs MakeInputs(const Spec& s, uint64_t seed) {
  Inputs in;
  in.initial = GenFourier(kPoints, 16, kDatabaseSeed);
  const Normalizer norm(in.initial);
  norm.Apply(&in.initial);
  const Points calib = Draw(kSampleCenters, kCalibrationSeed, norm);
  in.radius = CalibrateSize(in.initial, calib, kSelectivity, L2);
  const double half = CalibrateSize(in.initial, calib, kSelectivity, LInf);

  const size_t n_centers = s.count[kKnn] + s.count[kRange] + s.count[kBox];
  const Points drawn = Draw(s.count[kInsert] + n_centers, seed + kQuerySalt,
                            norm);
  in.inserts = Slice(drawn, 0, s.count[kInsert]);
  in.centers = Slice(drawn, s.count[kInsert], drawn.size());
  in.count_knn = s.count[kKnn];
  const size_t box0 = s.count[kKnn] + s.count[kRange];
  const uint32_t dim = in.initial.dim;
  for (size_t i = 0; i < s.count[kBox]; ++i) {
    const auto c = in.centers.Row(box0 + i);
    std::vector<float> lo(dim), hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d] = static_cast<float>(std::max(0.0, c[d] - half));
      hi[d] = static_cast<float>(std::min(1.0, c[d] + half));
    }
    in.boxes.push_back(Box::FromBounds(std::move(lo), std::move(hi)));
  }
  Rng rng(seed);
  std::unordered_set<uint64_t> chosen;
  while (in.deletes.size() < s.count[kDelete]) {
    const uint64_t id = rng.Below(kPoints);
    if (chosen.insert(id).second) in.deletes.push_back(id);
  }
  for (Kind k : {kKnn, kRange, kBox, kInsert, kDelete}) {
    for (uint32_t i = 0; i < s.count[k]; ++i) in.script.push_back({k, i});
  }
  if (s.interleave) {
    Shuffle(in.script, 0, in.script.size(), rng);
  } else {
    Shuffle(in.script, 0, n_centers, rng);
    Shuffle(in.script, n_centers, in.script.size(), rng);
  }
  return in;
}

bool Fail(const Status& s, const char* what) {
  if (s.ok()) return false;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  return true;
}

/// The tree every pass starts from: a bulk-loaded, flushed in-memory
/// file that is copied and reopened, so each pass sees the same pages,
/// pool and caches.
class Fixture {
 public:
  explicit Fixture(const Spec& spec) : spec_(spec) {}

  /// Bulk load + Flush + Open: the set-up a user pays once. Timed.
  bool Build(const Points& initial, Tracer* tracer, double* setup_s) {
    ht::HybridTreeOptions opts;
    opts.dim = initial.dim;
    const ht::Dataset data = ToDataset(initial);
    ScopedSpan setup(tracer, "setup");
    const auto t0 = Clock::now();
    pristine_ = std::make_unique<ht::MemPagedFile>();
    {
      ht::Result<std::unique_ptr<HybridTree>> t = [&] {
        ScopedSpan s(tracer, "core.BulkLoad", setup.id());
        return ht::BulkLoad(opts, pristine_.get(), data);
      }();
      if (Fail(t.status(), "bulk load")) return false;
      ScopedSpan f(tracer, "core.Flush", setup.id());
      if (Fail(t.ValueOrDie()->Flush(), "flush")) return false;
    }
    pool_pages_ = static_cast<size_t>(spec_.pool_fraction *
                                      pristine_->page_count());
    {
      ScopedSpan s(tracer, "core.Open", setup.id());
      auto t = HybridTree::Open(pristine_.get(), pool_pages_);
      if (Fail(t.status(), "open")) return false;
    }
    *setup_s = Since(t0);
    return true;
  }

  /// A fresh copy of the pristine tree, opened with the workload's pool.
  bool OpenPass(const Inputs& in) {
    tree_.reset();
    file_.reset();
    if (!CopyPristine()) return false;
    auto t = HybridTree::Open(file_.get(), pool_pages_);
    if (Fail(t.status(), "open pass tree")) return false;
    tree_ = std::move(t).ValueOrDie();
    if (spec_.warm) {
      // One range query covering the whole cube reads every page and
      // builds every quantized sidecar: the warm state of a serving tree.
      std::vector<uint64_t> all;
      ht::L2Metric l2;
      if (Fail(tree_->SearchRangeInto(in.centers.Row(0), 4.0 * in.initial.dim,
                                      l2, nullptr, &all),
               "warm-up scan")) {
        return false;
      }
    }
    return true;
  }

  HybridTree* tree() { return tree_.get(); }
  PagedFile* file() { return file_.get(); }

 private:
  bool CopyPristine() {
    auto copy = std::make_unique<ht::MemPagedFile>(pristine_->page_size());
    ht::Page page(pristine_->page_size());
    std::vector<ht::PageId> unused;
    for (ht::PageId id = 0; id < pristine_->page_count(); ++id) {
      auto got = copy->Allocate();
      if (Fail(got.status(), "allocate") || got.ValueOrDie() != id) {
        return false;
      }
      if (pristine_->Read(id, &page).ok()) {
        if (Fail(copy->Write(id, page), "copy page")) return false;
      } else {
        unused.push_back(id);  // a freed page of the pristine file
      }
    }
    for (ht::PageId id : unused) {
      if (Fail(copy->Free(id), "free page")) return false;
    }
    copy->ResetStats();
    file_ = std::move(copy);
    return true;
  }

  const Spec& spec_;
  std::unique_ptr<PagedFile> pristine_;
  size_t pool_pages_ = 0;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<HybridTree> tree_;
};

struct OpResult {
  bool ok = false;
  std::vector<uint64_t> ids;  // range / box, ascending
  Neighbors nn;               // k-NN
  bool operator==(const OpResult& o) const {
    return ok == o.ok && ids == o.ids && nn == o.nn;
  }
};

/// What pass 1 measured besides time.
struct PassCounts {
  IoStats by_kind[kKinds];  // buffer-pool deltas per operation kind
  uint64_t logical_reads = 0;
  uint64_t file_writes = 0;   // script + closing Flush
  uint64_t file_bytes = 0;
  uint64_t stored = 0;
  uint64_t quant_pages = 0;
  ht::TreeStats stats;        // traced run only
};

Status RunOp(HybridTree* tree, const Inputs& in, const Op& op,
             const ht::DistanceMetric& l2, ht::SearchScratch* scratch,
             OpResult* r) {
  const uint64_t n0 = in.initial.size();
  switch (op.kind) {
    case kKnn:
      return tree->SearchKnnInto(in.Center(kKnn, op.arg), kK, l2, scratch,
                                 &r->nn);
    case kRange:
      return tree->SearchRangeInto(in.Center(kRange, op.arg), in.radius, l2,
                                   scratch, &r->ids);
    case kBox:
      return tree->SearchBoxInto(in.boxes[op.arg], scratch, &r->ids);
    case kInsert:
      return tree->Insert(in.inserts.Row(op.arg), n0 + op.arg);
    case kDelete: {
      const uint64_t id = in.deletes[op.arg];
      return tree->Delete(in.initial.Row(id), id);
    }
    case kKinds:
      break;
  }
  return Status::InvalidArgument("unknown operation");
}

/// Replays the script on the oracle's live set and checks every recorded
/// answer of pass 1; returns the indices of wrong operations.
std::unordered_set<size_t> CheckPass(const Inputs& in,
                                     const std::vector<OpResult>& res,
                                     LiveSet* live) {
  for (size_t i = 0; i < in.initial.size(); ++i) {
    live->Insert(i, in.initial.Row(i));
  }
  std::unordered_set<size_t> bad;
  for (size_t i = 0; i < in.script.size(); ++i) {
    const Op& op = in.script[i];
    const OpResult& r = res[i];
    std::string err = r.ok ? "" : "status not OK";
    if (r.ok) {
      switch (op.kind) {
        case kKnn:
          err = CheckKnn(*live, in.Center(kKnn, op.arg), kK, r.nn);
          break;
        case kRange:
          err = CheckRange(*live, in.Center(kRange, op.arg), in.radius, r.ids);
          break;
        case kBox:
          err = CheckBox(*live, in.boxes[op.arg].lo(), in.boxes[op.arg].hi(),
                         r.ids);
          break;
        case kInsert:
          live->Insert(in.initial.size() + op.arg, in.inserts.Row(op.arg));
          break;
        case kDelete:
          if (!live->Erase(in.deletes[op.arg])) err = "deleted a dead id";
          break;
        case kKinds:
          break;
      }
    }
    if (!err.empty()) {
      if (bad.size() < 5) {
        std::fprintf(stderr, "perfbench: op %zu (%s): %s\n", i,
                     kKindNames[op.kind], err.c_str());
      }
      bad.insert(i);
    }
  }
  return bad;
}

/// After pass 1: the tree holds exactly the oracle's live multiset.
bool AuditTree(HybridTree* tree, const LiveSet& live) {
  std::vector<std::pair<uint64_t, std::vector<float>>> got;
  const Status s = tree->ScanAll([&](uint64_t id, std::span<const float> p) {
    got.emplace_back(id, std::vector<float>(p.begin(), p.end()));
  });
  if (Fail(s, "scan")) return false;
  std::string err = CheckContents(live, std::move(got));
  if (err.empty() && tree->size() != live.size()) err = "size() is wrong";
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: audit: %s\n", err.c_str());
    return false;
  }
  return !Fail(tree->CheckInvariants(), "invariants");
}

void Put(RunOutput* out, const std::string& name, double value,
         const char* unit) {
  out->metrics[name] = Metric{value, unit};
}

std::vector<double> Minima(const BestOfPasses& best, const Inputs& in,
                           Kind k) {
  std::vector<double> v;
  for (size_t i = 0; i < in.script.size(); ++i) {
    if (in.script[i].kind == k) v.push_back(best.Best(i));
  }
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over operations of each operation's fastest span `name`.
double MedianBestSpan(const Tracer& t, const std::string& name) {
  std::map<int64_t, double> best;
  for (const Span& s : t.Finished(name)) {
    const double sec = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    auto [it, fresh] = best.emplace(s.op, sec);
    if (!fresh) it->second = std::min(it->second, sec);
  }
  std::vector<double> v;
  for (const auto& [op, sec] : best) v.push_back(sec);
  return Quantile(std::move(v), 0.5);
}

class Runner {
 public:
  Runner(const Spec& spec, const RunArgs& args, RunOutput* out)
      : spec_(spec), args_(args), out_(out), fixture_(spec) {}

  bool Run() {
    in_ = MakeInputs(spec_, args_.seed);
    double setup_s = 0.0;
    if (!fixture_.Build(in_.initial, tracer(), &setup_s)) return false;
    if (!RunPasses()) return false;
    if (args_.trace) {
      // The script passes above ran with spans on: their throughput against
      // an untraced run of the same seed is the tracing overhead.
      std::fprintf(stderr, "perfbench: traced ops_per_s %.1f\n", OpsPerSecond());
      if (!LayerMetrics()) return false;
      if (!args_.trace_file.empty() && !tracer_.Write(args_.trace_file)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args_.trace_file.c_str());
        return false;
      }
      return true;
    }
    E2eMetrics(setup_s);
    return true;
  }

 private:
  Tracer* tracer() { return args_.trace ? &tracer_ : nullptr; }

  /// Replays the script in a fixed number of passes from the pristine tree;
  /// pass 1 is recorded and checked against the oracle, later passes must
  /// reproduce it.
  bool RunPasses() {
    const size_t n = in_.script.size();
    best_ = std::make_unique<BestOfPasses>(n);
    std::vector<OpResult> first(n);
    OpResult cur;
    std::unordered_set<size_t> bad;
    const ht::L2Metric l2;
    const double seconds =
        args_.trace ? std::min(args_.seconds, kTracedScriptS) : args_.seconds;
    const size_t total = std::max(
        kMinPasses, static_cast<size_t>(std::lround(seconds / spec_.pass_s)));
    double measured = 0.0;
    for (size_t pass = 0; pass < total; ++pass) {
      if (!fixture_.OpenPass(in_)) return false;
      HybridTree* tree = fixture_.tree();
      ht::SearchScratch scratch;
      ScopedSpan pass_span(tracer(), "pass", -1, static_cast<int64_t>(pass));
      const IoStats file0 = fixture_.file()->stats();
      PassCounts counts;
      const auto pass_start = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        const Op& op = in_.script[i];
        OpResult& r = pass == 0 ? first[i] : cur;
        r.ids.clear();
        r.nn.clear();
        const IoStats before = tree->pool().StatsSnapshot();
        Status s;
        {
          ScopedSpan span(tracer(), std::string("script.") + kKindNames[op.kind],
                          pass_span.id(), static_cast<int64_t>(i));
          const auto t0 = Clock::now();
          s = RunOp(tree, in_, op, l2, &scratch, &r);
          best_->Record(i, Since(t0));
        }
        r.ok = s.ok();
        if (op.kind == kRange || op.kind == kBox) {
          std::sort(r.ids.begin(), r.ids.end());
        }
        const IoStats delta = tree->pool().StatsSnapshot().Delta(before);
        counts.by_kind[op.kind].Accumulate(delta);
        if (IsRead(op.kind)) counts.logical_reads += delta.logical_reads;
        if (pass > 0 && !(cur == first[i])) {
          if (!bad.count(i)) {
            std::fprintf(stderr, "perfbench: op %zu differs in pass %zu\n", i,
                         pass + 1);
          }
          ++out_->failed;
        } else if (pass > 0 && bad.count(i)) {
          ++out_->failed;
        }
      }
      if (Fail(tree->Flush(), "flush after script")) return false;
      const double pass_s = Since(pass_start);
      measured += pass_s;
      std::fprintf(stderr, "perfbench: pass %zu: %.3f s\n", pass + 1, pass_s);
      counts.file_writes = fixture_.file()->stats().Delta(file0).writes;
      counts.file_bytes = static_cast<uint64_t>(fixture_.file()->page_count()) *
                          fixture_.file()->page_size();
      counts.stored = tree->size();
      counts.quant_pages = tree->CachedQuantPages();
      out_->attempted += n;
      if (pass == 0) {
        LiveSet live(in_.initial.dim);
        bad = CheckPass(in_, first, &live);
        out_->failed += bad.size();
        if (!AuditTree(tree, live)) out_->correct = false;
        if (args_.trace) {
          auto st = tree->ComputeStats();
          if (Fail(st.status(), "stats")) return false;
          counts.stats = st.ValueOrDie();
        }
        counts_ = counts;
      } else if (counts.logical_reads != counts_.logical_reads ||
                 counts.file_writes != counts_.file_writes) {
        std::fprintf(stderr,
                     "perfbench: counts differ in pass %zu: reads %llu vs "
                     "%llu, writes %llu vs %llu\n",
                     pass + 1,
                     static_cast<unsigned long long>(counts.logical_reads),
                     static_cast<unsigned long long>(counts_.logical_reads),
                     static_cast<unsigned long long>(counts.file_writes),
                     static_cast<unsigned long long>(counts_.file_writes));
        out_->correct = false;
      }
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu passes, %.2f s\n",
                 spec_.name, static_cast<unsigned long long>(args_.seed),
                 total, measured);
    return true;
  }

  double OpsPerSecond() const {
    double total = 0.0;
    for (size_t i = 0; i < best_->ops(); ++i) total += best_->Best(i);
    return Ratio(best_->ops(), total);
  }

  void E2eMetrics(double setup_s) {
    auto us = [&](Kind k, double q) {
      return Quantile(Minima(*best_, in_, k), q) * 1e6;
    };
    size_t reads = 0;
    for (Kind k : {kKnn, kRange, kBox}) reads += spec_.count[k];
    Put(out_, "setup_s", setup_s, "s");
    Put(out_, "ops_per_s", OpsPerSecond(), "1/s");
    Put(out_, "knn_p50_us", us(kKnn, 0.5), "us");
    Put(out_, "range_p50_us", us(kRange, 0.5), "us");
    Put(out_, "box_p50_us", us(kBox, 0.5), "us");
    Put(out_, "insert_p50_us", us(kInsert, 0.5), "us");
    Put(out_, "delete_p50_us", us(kDelete, 0.5), "us");
    Put(out_, "pages_read_per_op", Ratio(counts_.logical_reads, reads),
        "pages");
    Put(out_, "pages_written_per_insert",
        Ratio(counts_.file_writes, spec_.count[kInsert]), "pages");
    Put(out_, "index_bytes_per_point",
        Ratio(counts_.file_bytes, counts_.stored), "bytes");
  }

  bool LayerMetrics();
  bool ServeRung(const std::vector<Op>& ops);

  const Spec& spec_;
  const RunArgs& args_;
  RunOutput* out_;
  Fixture fixture_;
  Tracer tracer_;
  Inputs in_;
  std::unique_ptr<BestOfPasses> best_;
  PassCounts counts_;
};

}  // namespace

bool RunWorkload(const RunArgs& args, RunOutput* out) {
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) return Runner(s, args, out).Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return false;
}

}  // namespace pb

namespace pb {
namespace {

/// The traced run: per-layer counts from the script's pass 1, then the
/// script's read queries replayed at each rung of the ladder (kernel, core
/// tree, executor, sharded index, server), every call inside a span.
bool Runner::LayerMetrics() {
  const ht::L2Metric l2;
  IoStats reads;
  size_t nreads = 0;
  for (Kind k : {kKnn, kRange, kBox}) {
    reads.Accumulate(counts_.by_kind[k]);
    nreads += spec_.count[k];
  }
  const uint64_t hits = reads.logical_reads - reads.physical_reads;
  Put(out_, "core.height", counts_.stats.height, "levels");
  Put(out_, "core.data_pages", counts_.stats.data_nodes, "pages");
  Put(out_, "core.data_utilization", counts_.stats.avg_data_utilization,
      "ratio");
  Put(out_, "storage.logical_reads_per_op",
      Ratio(reads.logical_reads, nreads), "pages");
  Put(out_, "storage.hit_rate", reads.HitRate(), "ratio");
  Put(out_, "storage.hits_per_op", Ratio(hits, nreads), "pages");
  Put(out_, "storage.physical_reads_per_op",
      Ratio(reads.physical_reads, nreads), "pages");
  Put(out_, "storage.evictions_per_op", Ratio(reads.evictions, nreads),
      "pages");
  Put(out_, "storage.pages_written", counts_.file_writes, "pages");
  Put(out_, "storage.quant_cached_pages", counts_.quant_pages, "pages");

  // The rungs run on a fresh copy of the pristine tree.
  if (!fixture_.OpenPass(in_)) return false;
  HybridTree* tree = fixture_.tree();
  std::vector<Op> ops;
  size_t taken[kKinds] = {};
  for (const Op& op : in_.script) {
    if (IsRead(op.kind) && taken[op.kind] < kRungOps) {
      ++taken[op.kind];
      ops.push_back(op);
    }
  }

  // Kernel rung: batch L2 over the tree's own data-page rows.
  std::vector<float> rows;
  if (Fail(tree->ScanAll([&](uint64_t, std::span<const float> p) {
             rows.insert(rows.end(), p.begin(), p.end());
           }),
           "scan rows")) {
    return false;
  }
  const uint32_t dim = in_.initial.dim;
  const size_t npts = rows.size() / dim;
  const size_t chunk = tree->data_node_capacity();
  std::vector<double> dist(chunk);
  const size_t kernel_queries = std::min<size_t>(taken[kKnn], 100);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < kernel_queries; ++q) {
      ScopedSpan s(&tracer_, "geometry.batch_l2", -1, static_cast<int64_t>(q));
      for (size_t off = 0; off < npts; off += chunk) {
        l2.BatchDistance(in_.Center(kKnn, q), rows.data() + off * dim, dim,
                         std::min(chunk, npts - off), dist.data());
      }
    }
  }
  Put(out_, "geometry.kernel_points_per_s",
      Ratio(npts, MedianBestSpan(tracer_, "geometry.batch_l2")), "points/s");

  // Core rung: the tree's *Into calls, twice; counts must repeat exactly.
  std::vector<OpResult> core_res(ops.size());
  IoStats core_io;
  uint64_t leaf_visits = 0;
  ht::SearchScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    const IoStats before = tree->pool().StatsSnapshot();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      OpResult& r = core_res[i];
      ht::KnnSearchInfo info;
      Status s;
      {
        ScopedSpan span(&tracer_, std::string("core.") + kKindNames[op.kind],
                        -1, static_cast<int64_t>(i));
        s = op.kind == kKnn
                ? tree->SearchKnnBoundedInto(in_.Center(kKnn, op.arg), kK, l2,
                                             {}, &scratch, &r.nn, &info)
                : RunOp(tree, in_, op, l2, &scratch, &r);
      }
      if (Fail(s, "core rung")) return false;
      if (pass == 0) leaf_visits += info.leaf_visits;
    }
    const IoStats d = tree->pool().StatsSnapshot().Delta(before);
    if (pass == 1 && d.logical_reads != core_io.logical_reads) {
      std::fprintf(stderr, "perfbench: core rung reads differ across passes\n");
      out_->correct = false;
    }
    core_io = d;
  }
  for (Kind k : {kKnn, kRange, kBox}) {
    Put(out_, std::string("core.") + kKindNames[k] + "_us",
        MedianBestSpan(tracer_, std::string("core.") + kKindNames[k]) * 1e6,
        "us");
  }
  const uint64_t scanned = core_io.scan_points + core_io.cursor_scan_points;
  Put(out_, "geometry.points_scanned_per_op",
      Ratio(scanned, taken[kKnn] + taken[kRange]), "points");
  Put(out_, "geometry.quant_prune_ratio",
      Ratio(core_io.quant_pruned + core_io.cursor_quant_pruned, scanned),
      "ratio");
  Put(out_, "core.leaf_visits_per_knn", Ratio(leaf_visits, taken[kKnn]),
      "pages");

  // Executor rung: the same queries as one QueryExecutor batch, 1 worker.
  ht::Workload batch;
  batch.metric = &l2;
  for (const Op& op : ops) {
    if (op.kind == kBox) {
      batch.queries.push_back(ht::Query::MakeBox(in_.boxes[op.arg]));
    } else {
      const auto c = in_.Center(op.kind, op.arg);
      std::vector<float> center(c.begin(), c.end());
      batch.queries.push_back(
          op.kind == kKnn ? ht::Query::MakeKnn(std::move(center), kK)
                          : ht::Query::MakeRange(std::move(center), in_.radius));
    }
  }
  {
    ht::ThreadPool pool(1);
    ht::QueryExecutor exec(tree, &pool);
    for (int pass = 0; pass < 2; ++pass) {
      auto rep = [&] {
        ScopedSpan s(&tracer_, "exec.run", -1, pass);
        return exec.Run(batch);
      }();
      if (Fail(rep.status(), "executor")) return false;
      const ht::BatchReport& report = rep.ValueOrDie();
      bool same = report.failed == 0 &&
                  report.io.logical_reads == core_io.logical_reads;
      for (size_t i = 0; same && i < ops.size(); ++i) {
        std::vector<uint64_t> ids = report.results[i].ids;
        std::sort(ids.begin(), ids.end());
        std::vector<uint64_t> core_ids = core_res[i].ids;
        std::sort(core_ids.begin(), core_ids.end());
        same = ids == core_ids && report.results[i].neighbors == core_res[i].nn;
      }
      if (!same) {
        std::fprintf(stderr, "perfbench: executor disagrees with core rung\n");
        out_->correct = false;
      }
    }
  }
  double exec_s = 1e300;
  for (const Span& s : tracer_.Finished("exec.run")) {
    exec_s = std::min(exec_s, (s.end_ns - s.start_ns) * 1e-9);
  }
  Put(out_, "exec.batch_us_per_op", exec_s / ops.size() * 1e6, "us");

  // Storage rung: direct PagedFile::Read of a seeded sample of the pages
  // in use (a freed page cannot be read).
  {
    PagedFile* file = fixture_.file();
    ht::Page page(file->page_size());
    Rng rng(args_.seed);
    std::vector<ht::PageId> ids;
    while (ids.size() < 500) {
      const auto id = static_cast<ht::PageId>(rng.Below(file->page_count()));
      if (file->Read(id, &page).ok()) ids.push_back(id);
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < ids.size(); ++i) {
        ScopedSpan s(&tracer_, "storage.Read", -1, static_cast<int64_t>(i));
        if (Fail(file->Read(ids[i], &page), "page read")) return false;
      }
    }
    Put(out_, "storage.page_read_us",
        MedianBestSpan(tracer_, "storage.Read") * 1e6, "us");
  }
  return ServeRung(ops);
}

}  // namespace
}  // namespace pb

namespace pb {
namespace {

/// Serving rungs: the same k-NN queries through ShardedIndex (inline
/// scatter) and Server::Execute, then closed-loop clients. Clients scatter
/// inline, so 4 clients use 4 threads in all.
bool Runner::ServeRung(const std::vector<Op>& ops) {
  const ht::L2Metric l2;
  ht::HybridTreeOptions topts;
  topts.dim = in_.initial.dim;
  ht::ShardedIndexOptions sopts;
  sopts.shards = 4;
  std::unique_ptr<ht::ShardedIndex> index;
  {
    ScopedSpan s(&tracer_, "serve.Build");
    auto built = ht::ShardedIndex::Build(topts, sopts, ToDataset(in_.initial),
                                         nullptr);
    if (Fail(built.status(), "sharded build")) return false;
    index = std::move(built).ValueOrDie();
  }
  ht::Server server(index.get());
  std::vector<ht::Request> requests;
  for (const Op& op : ops) {
    if (op.kind == kBox) continue;
    const auto c = in_.Center(op.kind, op.arg);
    std::vector<float> center(c.begin(), c.end());
    ht::Request r;
    r.tenant = "bench";
    r.metric = &l2;
    r.query = op.kind == kKnn
                  ? ht::Query::MakeKnn(std::move(center), kK)
                  : ht::Query::MakeRange(std::move(center), in_.radius);
    requests.push_back(std::move(r));
  }
  std::vector<ht::QueryResult> reference(requests.size());
  ht::KnnExecStats knn_stats;
  size_t knn_requests = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const ht::Query& q = requests[i].query;
      if (q.type != ht::Query::Type::kKnn) continue;
      ht::ExecOptions eo;
      if (pass == 0) {
        eo.knn_stats = &knn_stats;
        ++knn_requests;
      }
      Neighbors nn;
      ScopedSpan s(&tracer_, "serve.shard_knn", -1, static_cast<int64_t>(i));
      if (Fail(index->SearchKnn(q.center, kK, l2, eo, &nn), "shard knn")) {
        return false;
      }
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const bool knn = requests[i].query.type == ht::Query::Type::kKnn;
      ht::QueryResult r;
      {
        ScopedSpan s(&tracer_, knn ? "serve.request_knn" : "serve.request_range",
                     -1, static_cast<int64_t>(i));
        r = server.Execute(requests[i]);
      }
      if (Fail(r.status, "request")) return false;
      if (pass == 0) reference[i] = std::move(r);
    }
  }
  Put(out_, "serve.shard_knn_us",
      MedianBestSpan(tracer_, "serve.shard_knn") * 1e6, "us");
  Put(out_, "serve.request_knn_us",
      MedianBestSpan(tracer_, "serve.request_knn") * 1e6, "us");
  Put(out_, "serve.leaf_visits_per_request",
      Ratio(knn_stats.leaf_visits, knn_requests), "pages");

  // The single-client answers are checked against the oracle (a sample:
  // each check is a full scan), then every concurrent answer against them.
  LiveSet live(in_.initial.dim);
  for (size_t i = 0; i < in_.initial.size(); ++i) {
    live.Insert(i, in_.initial.Row(i));
  }
  for (size_t i = 0; i < requests.size(); i += 10) {
    const ht::Query& q = requests[i].query;
    const std::string err =
        q.type == ht::Query::Type::kKnn
            ? CheckKnn(live, q.center, kK, reference[i].neighbors)
            : CheckRange(live, q.center, in_.radius, reference[i].ids);
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench: server request %zu: %s\n", i,
                   err.c_str());
      out_->correct = false;
    }
  }
  for (size_t clients : {1, 4}) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> done{0};
    std::atomic<bool> mismatch{false};
    const std::string name = "serve.clients_" + std::to_string(clients);
    ScopedSpan group(&tracer_, name);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t j = c; !stop.load(std::memory_order_relaxed);
             j += clients) {
          const size_t i = j % requests.size();
          ht::QueryResult r;
          {
            ScopedSpan s(&tracer_, "serve.client_request", group.id(),
                         static_cast<int64_t>(i));
            r = server.Execute(requests[i]);
          }
          if (!r.status.ok() || r.ids != reference[i].ids ||
              r.neighbors != reference[i].neighbors) {
            mismatch.store(true);
          }
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double secs = Since(t0);
    if (mismatch.load()) {
      std::fprintf(stderr, "perfbench: %s answers differ from 1 client\n",
                   name.c_str());
      out_->correct = false;
    }
    Put(out_,
        "serve.ops_per_s_" + std::to_string(clients) +
            (clients == 1 ? "_client" : "_clients"),
        done.load() / secs, "1/s");
  }
  return true;
}

}  // namespace
}  // namespace pb
