#include "rtbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace rtbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t item) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = tracer_->open_;
  s.item = item;
  index_ = tracer_->add(s);
  tracer_->open_ = index_;
  tracer_->spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  tracer_->open_ = s.parent;
}

std::int32_t Tracer::add(const Span& s) {
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"item\": %lld}\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<long long>(s.item));
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union merged so far
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void add_layer_metrics(const std::vector<Span>& spans, const std::vector<std::int64_t>& self_ns,
                       const std::string& base, Report& report, const std::string& note) {
  std::vector<double> us;
  double busy_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (base != spans[i].name) continue;
    us.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    busy_s += static_cast<double>(self_ns[i]) / 1e9;
  }
  const Timing t = summarize(us);
  report.add(base + "_p50_us", t.p50, "us", t.n, note, true);
  report.add(base + "_p90_us", t.p90, "us", t.n, tail_note(t, "us") + note, true);
  report.add(base + "_calls", static_cast<double>(t.n), "count", t.n, note, true);
  report.add(base + "_busy_s", busy_s, "s", t.n, "self time" + note, true);
}

}  // namespace rtbench
