#pragma once
// Span and counter recording for the traced benchmark binary.
//
// flipbench_traced is built with PERFBENCH_TRACED=1: every call the
// benchmark makes into a library module is wrapped in a Span that records
// its name, start, end, parent span, op id, the allocations made while it
// was open (on its own thread and process-wide) and a work count (messages,
// cells, bytes) set by the caller. Spans are kept in memory and written as
// one JSON document when the run ends. The plain flipbench binary compiles
// all of this to nothing, so the end-to-end numbers are measured without
// it; the difference between the two is reported as tracing overhead.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

#if PERFBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/// Allocations through the global operator new since process start, on
/// all threads. Zero in the untraced binary, which does not replace
/// operator new.
std::uint64_t allocs_process() noexcept;

/// Span parent argument meaning "the innermost span open on this thread".
inline constexpr std::int64_t kInheritParent = -2;

#if PERFBENCH_TRACED
/// Opens a span on construction and closes it on destruction. The parent
/// is the innermost span open on the same thread, or `parent` when given
/// (spans opened on pool workers name the span that caused them).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0,
                std::int64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_work(double work) noexcept { work_ = work; }
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t op_;
  std::int64_t parent_;
  std::int64_t id_;
  std::int64_t saved_current_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t allocs_thread_;
  std::uint64_t allocs_process_;
  double work_ = 0.0;
};
#else
/// The untraced binary's span: compiles away entirely.
class Span {
 public:
  explicit Span(const char* /*name*/, std::uint64_t /*op*/ = 0,
                std::int64_t /*parent*/ = kInheritParent) noexcept {}
  void set_work(double /*work*/) noexcept {}
  [[nodiscard]] std::int64_t id() const noexcept { return -1; }
};
#endif

/// Writes the spans and a per-name summary (count, total and self time,
/// allocations, work) as JSON to `path`. Returns false on a write error.
bool write_trace(const std::string& path);

}  // namespace perfbench
