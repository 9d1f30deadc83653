// Campaign telemetry: a lock-cheap metrics registry.
//
// Fault-injection campaigns run millions of units; knowing how fast
// they run (per-unit latency percentiles, units/sec per worker) and
// what they actually did (faults armed vs. applied vs. skipped, NaN/Inf
// detections, journal bytes) is the precondition for every perf PR and
// for trusting the KPI denominators.  The registry is designed so the
// hot path never blocks:
//
//   * Counter / Gauge are single relaxed atomics.
//   * Histogram buckets are fixed at construction (no rehash, no
//     allocation on record()); recording is a binary search plus a few
//     relaxed atomic adds.
//   * The registry mutex guards only name resolution — call sites
//     resolve `Counter&` / `Histogram&` once and update lock-free.
//
// Determinism contract: counters accumulate commutatively, so their
// final values are identical for any worker count or scheduling order
// (the basis of the byte-identical `metrics.json` counter section at
// --jobs 1 vs N).  Gauges and histograms record wall-clock facts and
// are explicitly excluded from that guarantee.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/stopwatch.h"

namespace alfi::util {

/// Monotonic event count.  add() is a single relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (throughput, ratios).  set() is a relaxed store,
/// set_max() a relaxed compare-exchange loop.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the value to `v` when larger: the maximum over every writer.
  void set_max(double v) {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram for non-negative samples (latencies in ms).
///
/// Bucket upper bounds are fixed at construction; bucket i counts
/// samples v with v <= bounds[i] (first such i), plus one overflow
/// bucket past the last bound.  record() is lock-free: a binary search
/// over the immutable bounds and relaxed atomic updates.  Percentiles
/// are estimated by linear interpolation inside the covering bucket and
/// clamped to the observed [min, max].
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Smallest / largest recorded sample; 0.0 while empty.
  double min() const;
  double max() const;
  /// p in [0, 100]; 0.0 while empty.
  double percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the per-bucket counts (bounds().size() + 1 entries,
  /// the last one the overflow bucket).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Log-spaced 10us .. 60s default bounds for latency histograms (ms).
  static std::span<const double> default_latency_bounds_ms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named metrics, shared by every campaign worker.  Lookup takes the
/// registry mutex; the returned references stay valid (and lock-free to
/// update) for the registry's lifetime.  Iteration is sorted by name,
/// so serialized output is deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers with the given bucket bounds (default: latency ms
  /// bounds); an existing histogram is returned as-is.
  Histogram& histogram(const std::string& name,
                       std::span<const double> upper_bounds = {});

  /// Sorted-by-name snapshots for serialization.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Span timing built on util/stopwatch.h: records the elapsed
/// milliseconds into a histogram when stopped (or destroyed).
class SpanTimer {
 public:
  explicit SpanTimer(Histogram& sink) : sink_(&sink) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { stop(); }

  /// Records once; further calls return the first measurement.
  double stop_ms();
  void stop() { stop_ms(); }

 private:
  Histogram* sink_;
  Stopwatch watch_;
  bool stopped_ = false;
  double elapsed_ms_ = 0.0;
};

}  // namespace alfi::util
