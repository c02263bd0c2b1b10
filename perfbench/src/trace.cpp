#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t toNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Innermost open span on this thread (spans nest per thread).
thread_local Tracer::Span* t_current = nullptr;

}  // namespace

std::uint64_t Tracer::nextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++lastId_;
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t op)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  enclosing_ = t_current;
  record_.name = name;
  record_.id = tracer_->nextId();
  record_.parent = enclosing_ != nullptr ? enclosing_->record_.id : 0;
  record_.op = op != 0 || enclosing_ == nullptr ? op : enclosing_->record_.op;
  t_current = this;
  record_.startNs = nowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.endNs = nowNs();
  t_current = enclosing_;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(record_);
}

void Tracer::record(const char* name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::uint64_t op) {
  if (!enabled_) return;
  SpanRecord r;
  r.name = name;
  r.startNs = toNs(start);
  r.endNs = toNs(end);
  r.parent = t_current != nullptr ? t_current->record_.id : 0;
  r.op = op != 0 || t_current == nullptr ? op : t_current->record_.op;
  std::lock_guard<std::mutex> lock(mutex_);
  r.id = ++lastId_;
  spans_.push_back(r);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.startNs < b.startNs;
                              })
                 ->startNs;
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\top\n");
  for (const SpanRecord& s : all) {
    std::fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<long long>(s.startNs - origin),
                 static_cast<long long>(s.endNs - origin),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> indexOf;
  for (std::size_t i = 0; i < spans.size(); ++i) indexOf[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = indexOf.find(spans[i].parent);
    if (spans[i].parent != 0 && it != indexOf.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].startNs, s.startNs);
      const std::int64_t b = std::min(spans[c].endNs, s.endNs);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t runStart = 0;
    std::int64_t runEnd = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= runEnd) {
        runEnd = std::max(runEnd, b);
        continue;
      }
      if (open) covered += runEnd - runStart;
      runStart = a;
      runEnd = b;
      open = true;
    }
    if (open) covered += runEnd - runStart;
    self[i] = (s.endNs - s.startNs) - covered;
  }
  return self;
}

std::map<std::string, double> selfMsByLayer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    const std::size_t dot = name.find('.');
    out[dot == std::string::npos ? name : name.substr(0, dot)] +=
        static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

}  // namespace perfbench
