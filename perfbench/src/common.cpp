#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>

#include "ecocloud/dc/monitor_kernel.hpp"

// Binary-wide heap-allocation counter: while counting is on, every global
// operator new in this process (the engine's included) bumps it, so
// alloc_per_event can be read from outside the library. Counting is off in
// timed runs, which then take only a relaxed load of a flag that nothing
// writes. Each thread counts on its own cache line, so the parallel runs of
// traced mode do not contend on one counter.
namespace {
constexpr std::size_t kAllocStripes = 64;
struct alignas(64) AllocStripe {
  std::atomic<std::uint64_t> count{0};
};
AllocStripe g_allocations[kAllocStripes];
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_next_stripe{0};
thread_local std::size_t t_stripe = kAllocStripes;  // unassigned

[[gnu::noinline]] void count_allocation() {
  if (t_stripe == kAllocStripes) {
    t_stripe = g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kAllocStripes;
  }
  g_allocations[t_stripe].count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    long kib = 0;
    if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) {
      mb = static_cast<double>(kib) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

void count_allocations(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t allocation_count() {
  std::uint64_t total = 0;
  for (const AllocStripe& s : g_allocations) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(" \t"));
    return model;
  }
  return "unknown";
}

std::string l3_size() {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    if (read_first_line(dir + "level") == "3") return read_first_line(dir + "size");
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string provenance_json(const Options& opt, const std::string& workload_args) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream o;
  o << "{\"workload\":" << json_string(opt.workload)
    << ",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
    << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"workload_args\":" << json_string(workload_args)
    << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"cpu_model\":" << json_string(cpu_model())
    << ",\"l3\":" << json_string(l3_size())
    << ",\"monitor_kernel\":" << json_string(ecocloud::dc::monitor_kernel_name())
    << ",\"compiler\":" << json_string(compiler)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"git_rev\":" << json_string(opt.git_rev) << "}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
std::uint64_t ns_of(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}
}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.start_ns = ns_of(Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = ns_of(Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_ns = ns_of(start);
  span.end_ns = ns_of(end);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Rollup> Tracer::rollup() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Rollup> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Rollup& r = by_name[s.name];
    r.name = s.name;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++r.count;
    r.total_s += d;
    r.self_s += d - child_s[i];
  }
  std::vector<Rollup> out;
  for (auto& [name, r] : by_name) out.push_back(r);
  return out;
}

void Tracer::write(const std::string& path, const std::string& provenance) const {
  std::ofstream out(path);
  out << "{\"provenance\":" << provenance << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
        << ",\"run\":" << json_string(s.run) << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Reconcile table

void print_reconcile(const std::string& workload, const std::string& target_name,
                     double target_s, const std::vector<ReconcileRow>& rows) {
  std::printf("# reconcile %s: unit cost x count per layer vs measured %s = %.3f s\n",
              workload.c_str(), target_name.c_str(), target_s);
  std::printf("#   %-28s %14s %14s %12s %12s %8s\n", "layer", "unit_cost_s",
              "count", "unit*count_s", "measured_s", "gap");
  double sum = 0.0;
  for (const ReconcileRow& r : rows) {
    if (r.unit_cost_s < 0.0) {  // no unit-cost driver: the measured time
      sum += r.measured_s;
      std::printf("#   %-28s %14s %14.0f %12s %12.4f %8s\n", r.layer.c_str(), "-",
                  r.count, "-", r.measured_s, "-");
      continue;
    }
    const double predicted = r.unit_cost_s * r.count;
    sum += predicted;
    if (r.measured_s < 0.0) {
      std::printf("#   %-28s %14.9f %14.0f %12.4f %12s %8s\n", r.layer.c_str(),
                  r.unit_cost_s, r.count, predicted, "-", "-");
      continue;
    }
    const double gap =
        r.measured_s > 0.0 ? (r.measured_s - predicted) / r.measured_s : 0.0;
    std::printf("#   %-28s %14.9f %14.0f %12.4f %12.4f %7.1f%%%s\n", r.layer.c_str(),
                r.unit_cost_s, r.count, predicted, r.measured_s, gap * 100.0,
                std::fabs(gap) > 0.10 ? "  GAP>10%" : "");
  }
  const double gap = target_s > 0.0 ? (target_s - sum) / target_s : 0.0;
  std::printf("#   %-28s %14s %14s %12.4f %12.4f %7.1f%%%s\n", "TOTAL", "", "",
              sum, target_s, gap * 100.0,
              std::fabs(gap) > 0.10 ? "  GAP>10% (unexplained share)" : "");
}

}  // namespace perfbench
