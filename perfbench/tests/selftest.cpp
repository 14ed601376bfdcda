// Self-tests of the benchmark's own arithmetic and determinism: the
// nearest-rank percentile and the tail choice, seeded schedules, metric
// names, span self time and the span file format. Run through
// tests/test_perfbench.py, or directly: exits 0 when every check passes.
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "ldc/harness/json.hpp"
#include "serve_driver.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  CHECK(pb::percentile({}, 0.5) == 0.0);
  CHECK(pb::percentile({7.0}, 0.99) == 7.0);
  CHECK(pb::percentile(one_to(100), 0.5) == 50.0);
  CHECK(pb::percentile(one_to(100), 0.99) == 99.0);
  CHECK(pb::percentile(one_to(100), 0.999) == 100.0);
  CHECK(pb::percentile(one_to(200), 0.9) == 180.0);  // 0.9*200 is exact
  CHECK(pb::percentile(one_to(10), 0.0) == 1.0);
  CHECK(pb::median(one_to(5)) == 3.0);
  CHECK(pb::samples_beyond(100, 0.9) == 10);
  CHECK(pb::samples_beyond(36, 0.72) == 10);
}

void test_tail_choice() {
  CHECK(pb::tail_percentile_for(100) == 90);
  CHECK(pb::tail_percentile_for(1000) == 99);
  CHECK(pb::tail_percentile_for(36) == 72);
  CHECK(pb::tail_percentile_for(20) == 50);
  CHECK(pb::tail_percentile_for(19) == 0);
  // The choice is the highest: one point more leaves fewer than ten.
  for (std::size_t n : {20u, 36u, 50u, 120u, 6000u}) {
    const int p = pb::tail_percentile_for(n);
    CHECK(pb::samples_beyond(n, p / 100.0) >= 10);
    if (p < 99) CHECK(pb::samples_beyond(n, (p + 1) / 100.0) < 10);
  }
  for (const pb::WorkloadInfo& w : pb::workloads()) {
    CHECK(w.tail_percentile() >= 50);
    CHECK(pb::samples_beyond(w.min_ops, w.tail_percentile() / 100.0) >= 10);
  }
}

void test_serve_plan_is_seeded() {
  const pb::ServePlan a = pb::make_serve_plan(7, 2.0);
  const pb::ServePlan b = pb::make_serve_plan(7, 2.0);
  CHECK(a.arrivals.size() == std::size_t(2 * pb::kServeRate));
  CHECK(a.hot == pb::kHotSpecs);
  CHECK(a.arrivals.size() == b.arrivals.size());
  CHECK(a.specs.size() == b.specs.size());
  for (std::size_t i = 0; i < a.arrivals.size() && i < b.arrivals.size(); ++i) {
    CHECK(a.arrivals[i].due_ns == b.arrivals[i].due_ns);
    CHECK(a.arrivals[i].spec == b.arrivals[i].spec);
    if (i > 0) CHECK(a.arrivals[i].due_ns > a.arrivals[i - 1].due_ns);
  }
  for (std::size_t i = 0; i < a.specs.size() && i < b.specs.size(); ++i) {
    CHECK(a.specs[i].canonical() == b.specs[i].canonical());
  }
  // Cold specs are never repeated: each is used by exactly one arrival.
  std::set<std::uint32_t> cold;
  std::size_t cold_arrivals = 0;
  for (const pb::Arrival& ar : a.arrivals) {
    if (ar.spec >= a.hot) {
      ++cold_arrivals;
      cold.insert(ar.spec);
    }
  }
  CHECK(cold.size() == cold_arrivals);
  CHECK(cold_arrivals > 30 && cold_arrivals < 150);  // ~30% of 300
  // Another seed changes the graphs but not the hot set's kinds of job.
  const pb::ServePlan c = pb::make_serve_plan(8, 2.0);
  CHECK(c.specs[0].canonical() != a.specs[0].canonical());
  for (std::size_t r = 0; r < a.hot; ++r) {
    CHECK(c.specs[r].algorithm == a.specs[r].algorithm);
    CHECK(c.specs[r].graph.n == a.specs[r].graph.n);
  }
}

void test_metric_names() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* defs :
       {&pb::end_to_end_metrics(), &pb::per_layer_metrics()}) {
    for (const pb::MetricDef& d : *defs) {
      CHECK(std::regex_match(d.name, name_re));
      CHECK(std::regex_match(d.unit, unit_re));
      CHECK(seen.insert(d.name).second);
    }
  }
  for (const pb::WorkloadInfo& w : pb::workloads()) {
    CHECK(std::regex_match(w.name, name_re));
  }
}

void test_self_time() {
  using V = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  CHECK(pb::self_time_ns(0, 100, V{}) == 100);
  CHECK(pb::self_time_ns(0, 100, V{{10, 20}, {30, 50}}) == 70);
  // Overlapping children count once; parts outside the parent not at all.
  CHECK(pb::self_time_ns(0, 100, V{{10, 20}, {15, 30}, {90, 120}}) == 70);
  CHECK(pb::self_time_ns(0, 100, V{{200, 300}}) == 100);
  CHECK(pb::self_time_ns(0, 100, V{{0, 100}}) == 0);
  CHECK(pb::self_time_ns(50, 50, V{}) == 0);

  pb::SpanRecorder rec(true);
  rec.add({"op", "bench", 0, 100, -1, 1, false});
  rec.add({"a", "x", 10, 40, 0, 1, false});
  rec.add({"b", "y", 40, 70, 0, 1, false});
  rec.add({"c", "z", 45, 50, 2, 1, false});
  const std::vector<std::uint64_t> self = rec.self_times_ns();
  CHECK(self[0] == 40);  // op: 100 - 30 - 30
  CHECK(self[1] == 30);
  CHECK(self[2] == 25);  // b: 30 - 5
  CHECK(self[3] == 5);
  // Children plus the op's self time reconcile with the op's duration.
  CHECK(self[0] + 30 + 30 == 100);

  // Live spans nest by open order and close innermost first.
  pb::SpanRecorder live(true);
  {
    pb::Span outer(live, "outer", "bench", 3);
    pb::Span inner(live, "inner", "bench", 3);
  }
  CHECK(live.spans().size() == 2);
  CHECK(live.spans()[1].parent == 0);
  CHECK(live.spans()[0].end_ns >= live.spans()[1].end_ns);
  pb::SpanRecorder off(false);
  { pb::Span s(off, "x", "bench", 0); }
  CHECK(off.spans().empty());
}

void test_chrome_json_parses() {
  pb::SpanRecorder rec(true);
  rec.add({"op", "bench", 1000, 5000, -1, 0, false});
  rec.add({"request", "service", 2000, 9000, -1, 4, true});
  ldc::harness::Json meta = ldc::harness::Json::object();
  meta.add("workload", "selftest");
  const std::string text = rec.to_chrome(std::move(meta)).dump();
  const ldc::harness::Json doc = ldc::harness::Json::parse(text);
  const auto& events = doc.at("traceEvents").as_array();
  CHECK(events.size() == 3);  // one X event, one b/e pair
  CHECK(events[0].at("ph").as_string() == "X");
  CHECK(events[0].at("dur").as_double() == 4.0);
  CHECK(events[1].at("ph").as_string() == "b");
  CHECK(events[2].at("ph").as_string() == "e");
  CHECK(doc.at("otherData").at("workload").as_string() == "selftest");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_choice();
  test_serve_plan_is_seeded();
  test_metric_names();
  test_self_time();
  test_chrome_json_parses();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
