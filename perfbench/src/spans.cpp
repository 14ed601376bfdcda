#include "spans.hpp"

#include <algorithm>
#include <chrono>

namespace pb {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t self_time_ns(
    std::uint64_t start, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = start;  // everything before cursor is accounted
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return (end - start) - covered;
}

std::int64_t SpanRecorder::begin(const char* name, const char* cat,
                                 std::uint64_t op) {
  if (!enabled_) return -1;
  SpanRecord r;
  r.name = name;
  r.cat = cat;
  r.op = op;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void SpanRecorder::end(std::int64_t idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Spans close innermost first; an early exit (exception) unwinds them
  // in that order too.
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

std::int64_t SpanRecorder::add(SpanRecord r) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(r));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<std::uint64_t> SpanRecorder::self_times_ns() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                             s.end_ns);
    }
  }
  std::vector<std::uint64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = self_time_ns(spans_[i].start_ns, spans_[i].end_ns,
                          std::move(kids[i]));
  }
  return out;
}

harness::Json SpanRecorder::to_chrome(harness::Json meta) const {
  using harness::Json;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  auto us = [t0](std::uint64_t ns) {
    return double(static_cast<std::int64_t>(ns - t0)) / 1e3;
  };
  Json events = Json::array();
  for (const SpanRecord& s : spans_) {
    Json args = Json::object();
    args.add("op", s.op);
    if (s.async) {
      for (const char* ph : {"b", "e"}) {
        Json e = Json::object();
        e.add("name", s.name);
        e.add("cat", s.cat);
        e.add("ph", ph);
        e.add("ts", us(ph[0] == 'b' ? s.start_ns : s.end_ns));
        e.add("id", s.op);
        e.add("pid", 1);
        e.add("tid", 2);
        if (ph[0] == 'b') e.add("args", args);
        events.push_back(std::move(e));
      }
      continue;
    }
    Json e = Json::object();
    e.add("name", s.name);
    e.add("cat", s.cat);
    e.add("ph", "X");
    e.add("ts", us(s.start_ns));
    e.add("dur", double(s.end_ns - s.start_ns) / 1e3);
    e.add("pid", 1);
    e.add("tid", 1);
    e.add("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.add("traceEvents", std::move(events));
  doc.add("displayTimeUnit", "ms");
  doc.add("otherData", std::move(meta));
  return doc;
}

}  // namespace pb
