// Measurement helpers of the served-workload benchmark: latency summaries,
// result digests for answer checking, the in-memory span recorder of the
// traced run, and the context recorded with every result.
#ifndef PREFBENCH_MEASURE_H_
#define PREFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace prefbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median (mean of the two middle values for even counts); 0 when empty.
double Median(std::vector<double> values);

/// A tail latency: the highest percentile of {99.9, 99, 95, 90, 75, 50}
/// that leaves at least ten samples beyond it, with the sample count.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// The percentile TailOf picks for `samples` values.
double TailPercentile(size_t samples);

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// 64-bit digest of a result: schema, every value with its type, and the
/// ranked utilities. Served responses are digested on receipt and compared
/// with the reference engine's results after the timed window, so the
/// window never pays for a full comparison.
uint64_t ResultDigest(const prefdb::Relation& relation,
                      const std::vector<double>& utilities);

/// Rows as a sorted multiset of their renderings: the subscription fold
/// and final-table checks compare these.
std::multiset<std::string> RowBag(const prefdb::Relation& relation);

/// One recorded span. Spans of one request share a root; `parent` is 0
/// for roots.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory (thread-safe) and writes them out as JSON when
/// the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  uint64_t Record(const std::string& name, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);
  /// A root span with no duration of its own yet, to group children.
  uint64_t NewId();
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

/// Runs `fn`, records it as span `name` under `parent`, returns its ms.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, uint64_t parent,
             Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  Clock::time_point t1 = Clock::now();
  tracer->Record(name, parent, t0, t1);
  return MsBetween(t0, t1);
}

/// The hardware and build a result was measured on.
struct RunContext {
  size_t nproc = 0;
  std::string cpu_model;
  size_t l2_bytes = 0;
  size_t l3_bytes = 0;
  std::string build_type;
  std::string compiler;
  std::string commit;
  std::string source_digest;
  uint64_t seed = 0;
  std::string workload;

  static RunContext Detect();
  std::string Json() const;
};

/// Peak resident memory of this process so far, in MiB.
double PeakRssMb();

/// Renders a double with every digit, for the JSON result line.
std::string JsonNumber(double value);

}  // namespace prefbench

#endif  // PREFBENCH_MEASURE_H_
