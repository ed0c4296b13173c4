#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <vector>

#include "util/json_writer.hpp"

namespace perfbench {
namespace {

struct SpanRecord {
  const char* name = "";
  std::uint64_t op = 0;     ///< the op (trial, request, pass) it belongs to
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 for a root span
  double start_us = 0.0;    ///< since process start
  double end_us = 0.0;
  std::uint64_t allocs_thread = 0;
  std::uint64_t allocs_process = 0;
  double work = 0.0;        ///< caller-defined count (messages, cells, ...)
};

std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

#if PERFBENCH_TRACED
const std::chrono::steady_clock::time_point g_trace_epoch =
    std::chrono::steady_clock::now();
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;
std::atomic<std::int64_t> g_next_id{0};
thread_local std::int64_t t_current = -1;

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_trace_epoch).count();
}
#endif

}  // namespace

#if PERFBENCH_TRACED
void count_alloc() noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
}

std::uint64_t allocs_process() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

Span::Span(const char* name, std::uint64_t op, std::int64_t parent)
    : name_(name),
      op_(op),
      parent_(parent == kInheritParent ? t_current : parent),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)),
      saved_current_(t_current),
      start_(std::chrono::steady_clock::now()),
      allocs_thread_(t_allocs),
      allocs_process_(allocs_process()) {
  t_current = id_;
}

Span::~Span() {
  const auto end = std::chrono::steady_clock::now();
  SpanRecord record;
  record.name = name_;
  record.op = op_;
  record.id = id_;
  record.parent = parent_;
  record.start_us = us_since_epoch(start_);
  record.end_us = us_since_epoch(end);
  record.allocs_thread = t_allocs - allocs_thread_;
  record.allocs_process = allocs_process() - allocs_process_;
  record.work = work_;
  t_current = saved_current_;
  std::lock_guard lock(g_spans_mutex);
  g_spans.push_back(record);
}
#else
std::uint64_t allocs_process() noexcept { return 0; }
#endif

bool write_trace(const std::string& path) {
  std::vector<SpanRecord> all;
  {
    std::lock_guard lock(g_spans_mutex);
    all = g_spans;
  }

  // Self time: a span's duration minus the part of it its children cover.
  // Children that ran concurrently on pool workers can cover more than the
  // parent's wall time; self time is then clamped at zero.
  std::map<std::int64_t, double> child_us;
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  struct Summary {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::uint64_t allocs_thread = 0;
    double work = 0.0;
  };
  std::map<std::string, Summary> by_name;
  for (const SpanRecord& s : all) {
    Summary& sum = by_name[s.name];
    const double dur = s.end_us - s.start_us;
    const auto child = child_us.find(s.id);
    ++sum.count;
    sum.total_us += dur;
    sum.self_us +=
        std::max(0.0, dur - (child == child_us.end() ? 0.0 : child->second));
    sum.allocs_thread += s.allocs_thread;
    sum.work += s.work;
  }

  flip::JsonWriter json(0);
  json.begin_object().field("schema", "perfbench-trace-v1");
  json.key("summary").begin_object();
  for (const auto& [name, sum] : by_name) {
    json.key(name)
        .begin_object()
        .field("count", sum.count)
        .field("total_ms", sum.total_us / 1000.0)
        .field("self_ms", sum.self_us / 1000.0)
        .field("allocs_thread", sum.allocs_thread)
        .field("work", sum.work)
        .end_object();
  }
  json.end_object();
  json.key("spans").begin_array();
  for (const SpanRecord& s : all) {
    json.begin_object()
        .field("name", s.name)
        .field("id", static_cast<std::int64_t>(s.id))
        .field("parent", static_cast<std::int64_t>(s.parent))
        .field("op", s.op)
        .field("start_us", s.start_us)
        .field("end_us", s.end_us)
        .field("allocs_thread", s.allocs_thread)
        .field("allocs_process", s.allocs_process)
        .field("work", s.work)
        .end_object();
  }
  json.end_array().end_object();

  std::ofstream out(path);
  out << json.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench

#if PERFBENCH_TRACED
// Counting global allocation functions: every path through new / new[]
// (the nothrow and array forms forward to these in libstdc++) bumps the
// counters above. The matching default deletes free() what these return.
void* operator new(std::size_t size) {
  perfbench::count_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif
