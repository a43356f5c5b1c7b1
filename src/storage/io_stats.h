// Copyright 2026 The HybridTree Authors.
// I/O accounting for the paged storage engine and the evaluation harness.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ht {

/// Buffer-pool eviction policy (see storage/buffer_pool.h). kLru is the
/// classic recency-only pool the paper figures use; kSlru is the
/// scan-resistant segmented policy (probationary + protected segments with
/// a frequency sketch) — byte-identical query RESULTS either way, only the
/// physical-read pattern differs.
enum class CachePolicy : uint8_t { kLru = 0, kSlru = 1 };

/// Access classes for buffer-pool traffic, threaded from the call sites via
/// AccessClassScope (storage/buffer_pool.h). The class drives SLRU
/// admission (scans and bulk loads enter the probationary segment only, so
/// one-touch streams never displace the multi-touch query working set) and
/// splits the cache counters below for observability.
enum class AccessClass : uint8_t {
  kQuery = 0,     // point/box/range/k-NN search traversal (the default)
  kScan = 1,      // full-tree sweeps: ScanAll, ELS rebuild, stats/validation
  kPrefetch = 2,  // speculative fills issued by the prefetch pipeline
  kIngest = 3,    // Insert/InsertBatch/Delete/Flush/bulk-load write paths
};
inline constexpr size_t kNumAccessClasses = 4;

inline const char* AccessClassName(AccessClass c) {
  switch (c) {
    case AccessClass::kQuery:
      return "query";
    case AccessClass::kScan:
      return "scan";
    case AccessClass::kPrefetch:
      return "prefetch";
    case AccessClass::kIngest:
      return "ingest";
  }
  return "unknown";
}

/// Counters maintained by BufferPool / PagedFile. "Logical" reads count
/// every page fetch requested by an index structure; "physical" reads count
/// fetches that missed the buffer pool and touched the backing file. A
/// hybrid-tree data page whose in-memory quantized sidecar rules out every
/// row of a range or k-NN scan is not read, so it adds no logical read
/// (its scan still counts in scan_points / quant_pruned below).
///
/// The paper reports *disk accesses per query* assuming each visited node
/// costs one random access, and normalizes sequential scan by a factor of
/// 10 (sequential I/O ≈ 10x faster than random). The harness therefore uses
/// logical reads with a cold (or bypassed) cache as the figure-of-merit and
/// keeps physical counters for buffer-pool experiments.
struct IoStats {
  uint64_t logical_reads = 0;
  uint64_t physical_reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t evictions = 0;
  /// Number of ReadBatch round trips issued to a backing file (each may
  /// cover many pages; the per-page cost is in physical_reads).
  uint64_t batch_reads = 0;
  /// Number of WriteBatch round trips issued to a backing file (the
  /// write-side dual of batch_reads; per-page cost is in writes).
  uint64_t batch_writes = 0;
  /// Pages handed to the prefetch pipeline (scheduled for a best-effort,
  /// non-pinning fill). Prefetched fills count as physical reads only —
  /// never as logical reads, which stay the paper's figure-of-merit.
  uint64_t prefetch_issued = 0;
  /// Fetches that hit a frame brought in by prefetch (first pin only).
  uint64_t prefetch_hits = 0;
  /// Points entering a batched data-page distance scan (filtered or not).
  uint64_t scan_points = 0;
  /// Points that survived the quantized-code filter and were refined with
  /// an exact distance. Only bumped on filtered scans.
  uint64_t quant_refined = 0;
  /// Points pruned by the quantized-code lower bound without an exact
  /// distance computation. scan_points on a filtered page splits exactly
  /// into quant_refined + quant_pruned.
  uint64_t quant_pruned = 0;
  /// Cursor-path duals of scan_points / quant_refined / quant_pruned:
  /// data-page scans driven by an incremental KnnCursor count here INSTEAD
  /// of the batch-path counters above, so cursor-path pruning (the serving
  /// tier's scatter-gather k-NN) is distinguishable from batch-path
  /// pruning. Same splitting invariant: cursor_scan_points on a filtered
  /// page is exactly cursor_quant_refined + cursor_quant_pruned.
  uint64_t cursor_scan_points = 0;
  uint64_t cursor_quant_refined = 0;
  uint64_t cursor_quant_pruned = 0;
  /// Demand fetches (Fetch / FetchMany / New) admitted over a shard's
  /// capacity target because every resident frame was pinned by concurrent
  /// queries. The overflow is transient: the eviction loop drains the
  /// shard back to target as soon as pins release. A persistently nonzero
  /// rate means the pool is undersized for its concurrency.
  uint64_t pin_overflows = 0;

  /// Per-access-class cache counters, indexed by AccessClass. Hits and
  /// misses cover demand accesses (Fetch / FetchMany) only — New() and
  /// prefetch fills are counted by allocations / prefetch_issued above —
  /// so class_hits[c] + class_misses[c] is class c's demand-fetch count.
  /// Evictions are charged to the class that ADMITTED the victim frame
  /// (kPrefetch for prefetched-never-referenced pages), which is what
  /// makes scan/prefetch cache pollution directly visible.
  std::array<uint64_t, kNumAccessClasses> class_hits{};
  std::array<uint64_t, kNumAccessClasses> class_misses{};
  std::array<uint64_t, kNumAccessClasses> class_evictions{};

  void Reset() { *this = IoStats{}; }

  /// Buffer-pool hit rate over the counted window: the fraction of logical
  /// reads served without touching the backing file.
  double HitRate() const {
    if (logical_reads == 0) return 0.0;
    const uint64_t misses =
        physical_reads < logical_reads ? physical_reads : logical_reads;
    return 1.0 - static_cast<double>(misses) /
                     static_cast<double>(logical_reads);
  }

  /// Fraction of all scanned points — batch and cursor paths combined —
  /// pruned by the quantized-code lower bound without an exact distance
  /// computation. 0 when no points were scanned.
  double QuantPruneRate() const {
    const uint64_t total = scan_points + cursor_scan_points;
    if (total == 0) return 0.0;
    return static_cast<double>(quant_pruned + cursor_quant_pruned) /
           static_cast<double>(total);
  }

  /// Demand-fetch hit rate of one access class (class_hits over
  /// class_hits + class_misses); 0 when the class saw no traffic.
  double ClassHitRate(AccessClass c) const {
    const uint64_t h = class_hits[static_cast<size_t>(c)];
    const uint64_t m = class_misses[static_cast<size_t>(c)];
    if (h + m == 0) return 0.0;
    return static_cast<double>(h) / static_cast<double>(h + m);
  }

  /// Adds `other` into this (used to merge per-shard / per-worker counters).
  void Accumulate(const IoStats& other) {
    logical_reads += other.logical_reads;
    physical_reads += other.physical_reads;
    writes += other.writes;
    allocations += other.allocations;
    frees += other.frees;
    evictions += other.evictions;
    batch_reads += other.batch_reads;
    batch_writes += other.batch_writes;
    prefetch_issued += other.prefetch_issued;
    prefetch_hits += other.prefetch_hits;
    scan_points += other.scan_points;
    quant_refined += other.quant_refined;
    quant_pruned += other.quant_pruned;
    cursor_scan_points += other.cursor_scan_points;
    cursor_quant_refined += other.cursor_quant_refined;
    cursor_quant_pruned += other.cursor_quant_pruned;
    pin_overflows += other.pin_overflows;
    for (size_t c = 0; c < kNumAccessClasses; ++c) {
      class_hits[c] += other.class_hits[c];
      class_misses[c] += other.class_misses[c];
      class_evictions[c] += other.class_evictions[c];
    }
  }

  IoStats Delta(const IoStats& since) const {
    IoStats d;
    d.logical_reads = logical_reads - since.logical_reads;
    d.physical_reads = physical_reads - since.physical_reads;
    d.writes = writes - since.writes;
    d.allocations = allocations - since.allocations;
    d.frees = frees - since.frees;
    d.evictions = evictions - since.evictions;
    d.batch_reads = batch_reads - since.batch_reads;
    d.batch_writes = batch_writes - since.batch_writes;
    d.prefetch_issued = prefetch_issued - since.prefetch_issued;
    d.prefetch_hits = prefetch_hits - since.prefetch_hits;
    d.scan_points = scan_points - since.scan_points;
    d.quant_refined = quant_refined - since.quant_refined;
    d.quant_pruned = quant_pruned - since.quant_pruned;
    d.cursor_scan_points = cursor_scan_points - since.cursor_scan_points;
    d.cursor_quant_refined = cursor_quant_refined - since.cursor_quant_refined;
    d.cursor_quant_pruned = cursor_quant_pruned - since.cursor_quant_pruned;
    d.pin_overflows = pin_overflows - since.pin_overflows;
    for (size_t c = 0; c < kNumAccessClasses; ++c) {
      d.class_hits[c] = class_hits[c] - since.class_hits[c];
      d.class_misses[c] = class_misses[c] - since.class_misses[c];
      d.class_evictions[c] = class_evictions[c] - since.class_evictions[c];
    }
    return d;
  }
};

}  // namespace ht
