// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the library (span names are "<layer>.<call>", the layer being
// the src/ module).  A span holds its name, start, end, the span that
// enclosed it on the same thread, and the id of the operation it belongs
// to.  Spans stay in memory and are written out once, when the run ends.
// A disabled tracer costs one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string, "<layer>.<call>"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;      ///< 1-based, unique within the run
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id shared by one op's spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Scoped span; inherits the enclosing span's op id when `op` is 0.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t op = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Tracer;
    Tracer* tracer_;  ///< null when tracing is off
    SpanRecord record_;
    Span* enclosing_ = nullptr;
  };

  /// Records a span measured elsewhere (e.g. a round trip timed by hand),
  /// as a child of this thread's innermost open span; `op` 0 inherits its
  /// op id.
  void record(const char* name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, std::uint64_t op);

  std::vector<SpanRecord> spans() const;

  /// Writes every span as tab-separated "name start_ns end_ns id parent op"
  /// lines (times relative to the first span).
  void write(const std::string& path) const;

 private:
  std::uint64_t nextId();

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t lastId_ = 0;
};

/// Each span's own time: its duration minus the union of its children's
/// intervals (clipped to the span).  Indexed like `spans`.
std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord>& spans);

/// Total self time per layer (the span name's prefix before the first '.').
std::map<std::string, double> selfMsByLayer(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
