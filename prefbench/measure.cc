#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "exec/hardware.h"

namespace prefbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double TailPercentile(size_t samples) {
  const double n = static_cast<double>(samples);
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (100.0 - p) / 100.0 + 1e-9 >= 10.0) return p;
  }
  return 50.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  tail.percentile = TailPercentile(values.size());
  tail.value = Percentile(std::move(values), tail.percentile);
  return tail;
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

void MixValue(uint64_t* h, const prefdb::Value& v) {
  const unsigned char tag = static_cast<unsigned char>(v.type());
  Mix(h, &tag, 1);
  if (v.is_int()) {
    int64_t x = v.as_int();
    Mix(h, &x, sizeof x);
  } else if (v.is_double()) {
    double x = v.as_double();
    Mix(h, &x, sizeof x);
  } else if (v.is_string()) {
    const std::string& s = v.as_string();
    uint64_t len = s.size();
    Mix(h, &len, sizeof len);
    Mix(h, s.data(), s.size());
  }
}

}  // namespace

uint64_t ResultDigest(const prefdb::Relation& relation,
                      const std::vector<double>& utilities) {
  uint64_t h = 14695981039346656037ULL;
  for (const prefdb::Attribute& a : relation.schema().attributes()) {
    Mix(&h, a.name.data(), a.name.size());
    const unsigned char type = static_cast<unsigned char>(a.type);
    Mix(&h, &type, 1);
  }
  uint64_t rows = relation.size();
  Mix(&h, &rows, sizeof rows);
  const size_t cols = relation.schema().size();
  for (size_t r = 0; r < relation.size(); ++r) {
    for (size_t c = 0; c < cols; ++c) MixValue(&h, relation.ValueAt(r, c));
  }
  for (double u : utilities) Mix(&h, &u, sizeof u);
  return h;
}

std::multiset<std::string> RowBag(const prefdb::Relation& relation) {
  std::multiset<std::string> bag;
  for (size_t r = 0; r < relation.size(); ++r) {
    bag.insert(relation.RowAt(r).ToString());
  }
  return bag;
}

uint64_t Tracer::Record(const std::string& name, uint64_t parent,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  auto ns = [this](Clock::time_point t) {
    return static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  };
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, name, ns(start), ns(end)});
  return id;
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000U, nullptr);
  if (max_ext >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

RunContext RunContext::Detect() {
  RunContext ctx;
  ctx.nproc = std::thread::hardware_concurrency();
  ctx.cpu_model = CpuModel();
  ctx.l2_bytes = prefdb::DetectedL2CacheBytes();
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  ctx.l3_bytes = l3 > 0 ? static_cast<size_t>(l3) : 0;
  ctx.build_type = PREFBENCH_BUILD_TYPE;
  ctx.compiler = PREFBENCH_COMPILER;
  return ctx;
}

std::string RunContext::Json() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(cpu_model) +
         ", \"l2_bytes\": " + std::to_string(l2_bytes) +
         ", \"l3_bytes\": " + std::to_string(l3_bytes) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"commit\": " + JsonString(commit) +
         ", \"source_digest\": " + JsonString(source_digest) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"workload\": " + JsonString(workload) + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace prefbench
