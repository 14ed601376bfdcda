// Experiment harness: registry semantics, JSON round-trips, the metric
// sink's JSONL/CSV output, CLI parsing, and the baseline checker's
// verdicts (exact pass / deterministic drift / wall-clock tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "ldc/harness/baseline.hpp"
#include "ldc/harness/experiment.hpp"
#include "ldc/harness/json.hpp"
#include "ldc/harness/registry.hpp"
#include "ldc/harness/runner.hpp"
#include "ldc/harness/sink.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::harness {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Json

TEST(HarnessJson, RoundTripsScalars) {
  const std::string doc =
      R"({"a":1,"b":-7,"c":18446744073709551615,"d":2.5,"e":"x\ny","f":true,)"
      R"("g":null,"h":[1,2,3],"i":{}})";
  const Json j = Json::parse(doc);
  EXPECT_EQ(j.at("a").as_uint(), 1u);
  EXPECT_EQ(j.at("b").as_int(), -7);
  // uint64 max must survive exactly — it cannot round-trip via double.
  EXPECT_EQ(j.at("c").as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(j.at("d").as_double(), 2.5);
  EXPECT_EQ(j.at("e").as_string(), "x\ny");
  EXPECT_TRUE(j.at("f").as_bool());
  EXPECT_TRUE(j.at("g").is_null());
  EXPECT_EQ(j.at("h").as_array().size(), 3u);
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(HarnessJson, PreservesInsertionOrder) {
  Json obj = Json::object();
  obj.add("zeta", 1);
  obj.add("alpha", 2);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":2})");
  EXPECT_EQ(Json::parse(obj.dump()).dump(), obj.dump());
}

TEST(HarnessJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
}

TEST(HarnessJson, RejectsMalformedNumberTokens) {
  // The number scanner consumes any digit/.eE+- run; the parser must then
  // reject tokens whose valid prefix hides trailing garbage instead of
  // silently decoding a different value.
  EXPECT_THROW(Json::parse("1e5e5"), JsonError);
  EXPECT_THROW(Json::parse("1.2.3"), JsonError);
  EXPECT_THROW(Json::parse("[5-2]"), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
  EXPECT_THROW(Json::parse("-"), JsonError);
  EXPECT_EQ(Json::parse("1e5").as_double(), 1e5);
  EXPECT_EQ(Json::parse("-3").as_int(), -3);
}

TEST(HarnessJson, AstralPlaneRoundTripsAsSurrogatePairs) {
  // Non-BMP codepoints must survive dump/parse: the writer synthesizes a
  // \uXXXX surrogate pair from the 4-byte UTF-8 sequence, the parser
  // recombines it. U+1F600 GRINNING FACE = 😀.
  const std::string emoji = "\xF0\x9F\x98\x80";
  Json obj = Json::object();
  obj.add("s", emoji);
  const std::string dumped = obj.dump();
  EXPECT_NE(dumped.find("\\ud83d\\ude00"), std::string::npos) << dumped;
  EXPECT_EQ(dumped.find('\xF0'), std::string::npos)
      << "raw non-BMP bytes leaked into the escaped output";
  EXPECT_EQ(Json::parse(dumped).at("s").as_string(), emoji);
  // Escaped input decodes to the same UTF-8 bytes directly.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), emoji);
  // BMP codepoints keep passing through as raw UTF-8 (no escaping).
  const std::string bmp = "gr\xC3\xBC n";  // ü
  EXPECT_EQ(Json::parse(Json(bmp).dump()).as_string(), bmp);
  EXPECT_EQ(Json(bmp).dump().find("\\u"), std::string::npos);
}

TEST(HarnessJson, LoneSurrogateEscapesAreRejected) {
  EXPECT_THROW(Json::parse(R"("\uD83D")"), JsonError);        // high, no low
  EXPECT_THROW(Json::parse(R"("\uD83Dx")"), JsonError);       // high + text
  // High surrogate followed by a \u escape that is not a low surrogate.
  EXPECT_THROW(Json::parse(R"("\uD83D\u0041")"), JsonError);
  EXPECT_THROW(Json::parse(R"("\uDE00")"), JsonError);        // bare low
  EXPECT_THROW(Json::parse(R"("\uD8")"), JsonError);          // short hex
}

TEST(HarnessJson, MissingKeyLookup) {
  const Json j = Json::parse(R"({"a":1})");
  EXPECT_EQ(j.find("b"), nullptr);
  EXPECT_THROW(j.at("b"), JsonError);
}

TEST(HarnessJson, ParseLineAcceptsOneDocument) {
  const Json j = Json::parse_line(R"({"op":"submit","id":3})");
  EXPECT_EQ(j.at("id").as_uint(), 3u);
  // Leading spaces/tabs before the document are legal JSON whitespace.
  EXPECT_EQ(Json::parse_line("  \t{\"a\":1}").at("a").as_uint(), 1u);
}

TEST(HarnessJson, ParseLineRejectsEmbeddedNewlines) {
  // A newline inside the "line" is a framing violation: the transport
  // glued two frames together (or a raw \n leaked into a string field).
  // The offset must point at the offending byte.
  try {
    Json::parse_line("{\"a\":1}\n{\"b\":2}");
    FAIL() << "embedded \\n accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("byte 7"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Json::parse_line("{\"a\":1}\r"), JsonError);
  EXPECT_THROW(Json::parse_line("\n"), JsonError);
}

TEST(HarnessJson, ParseLineRejectsBlankLines) {
  // parse() skips leading whitespace, so a whitespace-only line used to
  // slip through concatenated with the next document; as a *line* it must
  // be an explicit error instead of a silent accept.
  EXPECT_THROW(Json::parse_line(""), JsonError);
  EXPECT_THROW(Json::parse_line("   "), JsonError);
  EXPECT_THROW(Json::parse_line("\t \t"), JsonError);
}

// ---------------------------------------------------------------------------
// Registry

Experiment make_experiment(std::string name, std::string claim = "claim") {
  Experiment e;
  e.name = std::move(name);
  e.claim = std::move(claim);
  e.run = [](ExperimentContext&) {};
  return e;
}

TEST(HarnessRegistry, SortsFindsAndFilters) {
  Registry r;
  r.add(make_experiment("e02_beta", "message bits"));
  r.add(make_experiment("e01_alpha", "round complexity"));
  r.add(make_experiment("a1_gamma", "ablation"));
  ASSERT_EQ(r.size(), 3u);

  const auto all = r.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "a1_gamma");
  EXPECT_EQ(all[1]->name, "e01_alpha");
  EXPECT_EQ(all[2]->name, "e02_beta");

  ASSERT_NE(r.find("e01_alpha"), nullptr);
  EXPECT_EQ(r.find("e01_alpha")->claim, "round complexity");
  EXPECT_EQ(r.find("nope"), nullptr);

  EXPECT_EQ(r.match({}).size(), 3u);              // empty filter = all
  EXPECT_EQ(r.match({"e0"}).size(), 2u);          // name substring
  EXPECT_EQ(r.match({"ablation"}).size(), 1u);    // claim substring
  EXPECT_EQ(r.match({"e0", "ablation"}).size(), 3u);  // union
  EXPECT_TRUE(r.match({"zzz"}).empty());
}

TEST(HarnessRegistry, RejectsBadRegistrations) {
  Registry r;
  r.add(make_experiment("dup"));
  EXPECT_THROW(r.add(make_experiment("dup")), std::invalid_argument);
  EXPECT_THROW(r.add(make_experiment("")), std::invalid_argument);
  Experiment no_run;
  no_run.name = "no_run";
  EXPECT_THROW(r.add(std::move(no_run)), std::invalid_argument);
}

TEST(HarnessRegistry, GlobalInstanceHoldsAllEighteen) {
  // The experiment TUs are linked into ldc_bench; this test links only the
  // four the round guard below runs, so the global registry here only
  // checks the singleton exists and is usable; the CLI smoke path covers
  // the full roster.
  EXPECT_NO_THROW(Registry::instance().all());
}

// ---------------------------------------------------------------------------
// ResultTable / ExperimentContext

TEST(HarnessTable, ArityMismatchThrows) {
  ResultTable t("t", {"a", "b"});
  t.add_row({std::uint64_t{1}, "x"});
  EXPECT_THROW(t.add_row({std::uint64_t{1}}), std::invalid_argument);
  EXPECT_EQ(t.rows().size(), 1u);
}

TEST(HarnessContext, PickSelectsAxis) {
  RunConfig full_cfg;
  ExperimentContext full("x", full_cfg);
  RunConfig smoke_cfg;
  smoke_cfg.smoke = true;
  ExperimentContext smoke("x", smoke_cfg);
  const std::vector<int> f = {1, 2, 3}, s = {1};
  EXPECT_EQ(full.pick(f, s).size(), 3u);
  EXPECT_EQ(smoke.pick(f, s).size(), 1u);
  EXPECT_FALSE(full.smoke());
  EXPECT_TRUE(smoke.smoke());
}

BitWriter tiny_message() {
  BitWriter w;
  w.write(1, 8);
  return w;
}

// One broadcast round on a small ring, so metrics and a trace exist.
void one_round(Network& net) {
  std::vector<BitWriter> msgs(net.graph().n(), tiny_message());
  net.exchange_broadcast(msgs);
}

TEST(HarnessContext, PrepareRecordCapturesMetricsAndTrace) {
  RunConfig cfg;
  ExperimentContext ctx("x", cfg);
  const Graph g = gen::ring(6);
  Network net(g);
  ctx.prepare(net);
  one_round(net);
  ctx.record("one-round", net);
  auto result = ctx.take_result();
  ASSERT_EQ(result.runs.size(), 1u);
  const MetricRecord& rec = result.runs[0];
  EXPECT_EQ(rec.label, "one-round");
  EXPECT_EQ(rec.metrics.rounds, 1u);
  EXPECT_GT(rec.metrics.messages, 0u);
  EXPECT_NE(rec.trace_digest, 0u);
  ASSERT_EQ(rec.rounds.size(), 1u);
}

TEST(HarnessContext, ReusedNetworkAddressBindsLatestTrace) {
  RunConfig cfg;
  ExperimentContext ctx("x", cfg);
  const Graph g = gen::ring(6);
  // Experiments construct Networks as loop-body locals, so every iteration
  // reuses the same address; optional::emplace reproduces that exactly.
  std::optional<Network> net;
  for (int rounds = 1; rounds <= 2; ++rounds) {
    net.emplace(g);
    ctx.prepare(*net);
    for (int r = 0; r < rounds; ++r) one_round(*net);
    ctx.record("iter" + std::to_string(rounds), *net);
  }
  auto result = ctx.take_result();
  ASSERT_EQ(result.runs.size(), 2u);
  // record() must bind each run to the trace of the *latest* prepare for
  // that address, not the first iteration's stale trace.
  ASSERT_EQ(result.runs[0].rounds.size(), 1u);
  ASSERT_EQ(result.runs[1].rounds.size(), 2u);
  EXPECT_NE(result.runs[0].trace_digest, result.runs[1].trace_digest);
}

TEST(HarnessContext, TableReferencesStaySable) {
  RunConfig cfg;
  ExperimentContext ctx("x", cfg);
  auto& t1 = ctx.table("first", {"a"});
  t1.add_row({std::uint64_t{1}});
  // Opening more tables must not invalidate t1 (deque storage).
  for (int i = 0; i < 50; ++i) ctx.table("t" + std::to_string(i), {"a"});
  t1.add_row({std::uint64_t{2}});
  EXPECT_EQ(ctx.take_result().tables.front().rows().size(), 2u);
}

// ---------------------------------------------------------------------------
// Sink

ExperimentResult small_result() {
  RunConfig cfg;
  ExperimentContext ctx("tiny", cfg);
  auto& t = ctx.table("tiny: demo", {"k", "rounds", "wall ms (obs)"});
  t.add_row({"a", std::uint64_t{3}, 1.25});
  const Graph g = gen::ring(4);
  Network net(g);
  ctx.prepare(net);
  one_round(net);
  ctx.record("demo", net);
  return ctx.take_result();
}

TEST(HarnessSink, WritesParseableJsonlAndCsv) {
  const fs::path dir =
      fs::temp_directory_path() / "ldc_harness_sink_test";
  fs::remove_all(dir);
  {
    Provenance prov;
    prov.git_rev = "abc1234";
    prov.engine = "serial";
    Sink sink(dir.string(), prov);
    sink.write(small_result());
  }
  std::ifstream jsonl(dir / "results.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_run = false, saw_row = false, saw_metrics = false,
       saw_round = false;
  while (std::getline(jsonl, line)) {
    ++lines;
    const Json j = Json::parse(line);  // every line is one valid document
    const std::string type = j.at("type").as_string();
    if (type == "run") {
      saw_run = true;
      EXPECT_EQ(j.at("git_rev").as_string(), "abc1234");
    } else if (type == "table_row") {
      saw_row = true;
      EXPECT_EQ(j.at("experiment").as_string(), "tiny");
      EXPECT_EQ(j.at("cells").at("rounds").as_uint(), 3u);
    } else if (type == "metrics") {
      saw_metrics = true;
      EXPECT_EQ(j.at("label").as_string(), "demo");
      EXPECT_EQ(j.at("rounds").as_uint(), 1u);
      EXPECT_NE(j.at("trace_digest").as_uint(), 0u);
    } else if (type == "round") {
      saw_round = true;
    }
  }
  EXPECT_GE(lines, 4u);
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_row);
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_round);

  std::ifstream csv(dir / "csv" / "tiny.0.csv");
  ASSERT_TRUE(csv.good());
  std::string title, header, row;
  ASSERT_TRUE(std::getline(csv, title));  // "# <table title>" comment
  EXPECT_EQ(title.rfind("# ", 0), 0u);
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_NE(header.find("rounds"), std::string::npos);
  EXPECT_NE(row.find("3"), std::string::npos);
  fs::remove_all(dir);
}

TEST(HarnessSink, ObservationalColumnDetection) {
  EXPECT_TRUE(observational_column("wall ms (obs)"));
  EXPECT_TRUE(observational_column("Wall ns"));
  EXPECT_TRUE(observational_column("speedup (obs)"));
  EXPECT_FALSE(observational_column("rounds"));
  EXPECT_FALSE(observational_column("total bits"));
}

// ---------------------------------------------------------------------------
// Baseline

std::vector<ExperimentResult> one_result() {
  std::vector<ExperimentResult> v;
  v.push_back(small_result());
  return v;
}

Provenance test_provenance() {
  Provenance p;
  p.git_rev = "test";
  p.engine = "serial";
  return p;
}

TEST(HarnessBaseline, ExactMatchPasses) {
  const auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  const auto diff = check_baseline(base, results, {}, /*ran_all=*/true);
  EXPECT_TRUE(diff.ok()) << (diff.mismatches.empty()
                                 ? ""
                                 : diff.mismatches.front());
}

TEST(HarnessBaseline, RoundTripThroughTextPasses) {
  const auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  const Json reparsed = Json::parse(base.dump_pretty());
  EXPECT_TRUE(check_baseline(reparsed, results, {}, true).ok());
}

TEST(HarnessBaseline, PerturbedRoundCountFails) {
  auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  // Deliberate drift: bump a deterministic metric (the acceptance
  // criterion — a perturbed round count must be caught).
  results[0].runs[0].metrics.rounds += 1;
  const auto diff = check_baseline(base, results, {}, true);
  EXPECT_FALSE(diff.ok());
}

TEST(HarnessBaseline, PerturbedTableCellFails) {
  auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  ResultTable t(results[0].tables[0].title(),
                results[0].tables[0].headers());
  t.add_row({"a", std::uint64_t{4}, 1.25});  // rounds 3 -> 4
  results[0].tables[0] = t;
  EXPECT_FALSE(check_baseline(base, results, {}, true).ok());
}

TEST(HarnessBaseline, PerturbedDigestFails) {
  auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  results[0].runs[0].trace_digest ^= 1;
  EXPECT_FALSE(check_baseline(base, results, {}, true).ok());
}

TEST(HarnessBaseline, ObservationalColumnsExemptFromDiff) {
  auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  ResultTable t(results[0].tables[0].title(),
                results[0].tables[0].headers());
  t.add_row({"a", std::uint64_t{3}, 99999.0});  // wall column only
  results[0].tables[0] = t;
  EXPECT_TRUE(check_baseline(base, results, {}, true).ok());
}

TEST(HarnessBaseline, WallClockTolerance) {
  auto results = one_result();
  results[0].runs[0].metrics.wall_ns = 10'000'000;  // 10ms
  const Json base = baseline_json(results, test_provenance());

  BaselineOptions opt;
  opt.wall_tolerance = 10.0;
  opt.wall_floor_ns = 1'000'000;

  // Within 10x: pass.
  results[0].runs[0].metrics.wall_ns = 90'000'000;
  EXPECT_TRUE(check_baseline(base, results, opt, true).ok());

  // Beyond 10x: drift.
  results[0].runs[0].metrics.wall_ns = 200'000'000;
  EXPECT_FALSE(check_baseline(base, results, opt, true).ok());

  // Both sides under the absolute floor: always pass, however large the
  // ratio (sub-millisecond smoke timings are jitter).
  auto tiny = one_result();
  tiny[0].runs[0].metrics.wall_ns = 10;
  const Json tiny_base = baseline_json(tiny, test_provenance());
  tiny[0].runs[0].metrics.wall_ns = 900'000;
  EXPECT_TRUE(check_baseline(tiny_base, tiny, opt, true).ok());
}

TEST(HarnessBaseline, MissingExperimentIsDriftOnlyWhenRanAll) {
  const auto results = one_result();
  Json base = baseline_json(results, test_provenance());
  // Baseline gains an experiment the fresh run lacks.
  std::vector<ExperimentResult> two = one_result();
  two.push_back(small_result());
  two[1].name = "other";
  base = baseline_json(two, test_provenance());
  EXPECT_FALSE(check_baseline(base, results, {}, /*ran_all=*/true).ok());
  EXPECT_TRUE(check_baseline(base, results, {}, /*ran_all=*/false).ok());
  // A fresh experiment missing from the baseline is drift either way.
  EXPECT_FALSE(check_baseline(baseline_json(results, test_provenance()), two,
                              {}, false)
                   .ok());
}

TEST(HarnessBaseline, TruncatedBaselineRowReportsArityMismatch) {
  const auto results = one_result();
  std::string text = baseline_json(results, test_provenance()).dump();
  // Hand-truncate the table row ["a",3,1.25] to ["a",3]: the checker must
  // report the arity disagreement, not read past the row's end.
  const std::string full_row = ", 1.25]";
  const auto at = text.find(full_row);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, full_row.size(), "]");
  const auto diff = check_baseline(Json::parse(text), results, {}, true);
  EXPECT_FALSE(diff.ok());
  ASSERT_FALSE(diff.mismatches.empty());
  EXPECT_NE(diff.mismatches.front().find("arity"), std::string::npos);
}

TEST(HarnessBaseline, SaveLoadRoundTrip) {
  const auto results = one_result();
  const Json base = baseline_json(results, test_provenance());
  const fs::path path =
      fs::temp_directory_path() / "ldc_harness_baseline_test.json";
  save_baseline(path.string(), base);
  const Json loaded = load_baseline(path.string());
  EXPECT_TRUE(check_baseline(loaded, results, {}, true).ok());
  EXPECT_TRUE(loaded.at("config").at("smoke").as_bool() == false);
  fs::remove(path);
  EXPECT_THROW(load_baseline(path.string()), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CLI parsing

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v = {"ldc_bench"};
  v.insert(v.end(), args);
  return v;
}

TEST(HarnessCli, ParsesFlagCombinations) {
  auto a = argv_of({"--smoke", "--filter", "oldc", "--shards", "4", "--out",
                    "d", "--baseline", "b.json", "--check"});
  const CliOptions o =
      parse_cli(static_cast<int>(a.size()), a.data());
  EXPECT_TRUE(o.smoke);
  EXPECT_TRUE(o.check);
  ASSERT_EQ(o.filters.size(), 1u);
  EXPECT_EQ(o.filters[0], "oldc");
  EXPECT_EQ(o.shards, 4u);
  EXPECT_TRUE(o.sharded);  // --shards implies the sharded engine
  EXPECT_EQ(o.out_dir, "d");
  EXPECT_EQ(o.baseline_path, "b.json");
}

TEST(HarnessCli, RejectsBadUsage) {
  auto check_only = argv_of({"--check"});
  EXPECT_THROW(
      parse_cli(static_cast<int>(check_only.size()), check_only.data()),
      std::invalid_argument);
  auto unknown = argv_of({"--frobnicate"});
  EXPECT_THROW(parse_cli(static_cast<int>(unknown.size()), unknown.data()),
               std::invalid_argument);
  auto bad_shards = argv_of({"--shards", "0"});
  EXPECT_THROW(
      parse_cli(static_cast<int>(bad_shards.size()), bad_shards.data()),
      std::invalid_argument);
  for (const char* engine : {"quantum", "parallel"}) {
    auto bad_engine = argv_of({"--engine", engine});
    EXPECT_THROW(
        parse_cli(static_cast<int>(bad_engine.size()), bad_engine.data()),
        std::invalid_argument)
        << engine;
  }
}

// Registers one no-op experiment in the *global* registry so run_cli has
// something to (not) match against.
const Registrar cli_probe{{
    .name = "zz_cli_probe",
    .claim = "test-only probe for run_cli selection",
    .axes = {},
    .run = [](ExperimentContext&) {},
}};

TEST(HarnessCli, UnmatchedFilterIsUsageErrorNamingTheFilter) {
  CliOptions o;
  o.filters = {"no_such_experiment_zzz"};
  o.print_tables = false;
  std::ostringstream out, err;
  // A typo'd --filter in a CI gate must not look like success: nothing
  // ran, so nothing was checked.
  EXPECT_EQ(run_cli(o, out, err), 2);
  EXPECT_NE(err.str().find("no experiments match"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("'no_such_experiment_zzz'"), std::string::npos)
      << err.str();

  // Same selection logic, matching filter: exit 0.
  CliOptions ok;
  ok.filters = {"zz_cli_probe"};
  ok.print_tables = false;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli(ok, out2, err2), 0);
}

// ---------------------------------------------------------------------------
// Round guard: every round a table prints is the simulator's.

/// Runs a registered experiment at smoke scale, as `ldc_bench --smoke`.
ExperimentResult run_smoke(const std::string& name) {
  const Experiment* e = Registry::instance().find(name);
  if (e == nullptr) throw std::runtime_error("not registered: " + name);
  RunConfig cfg;
  cfg.smoke = true;
  ExperimentContext ctx(name, cfg);
  e->run(ctx);
  return ctx.take_result();
}

const MetricRecord& record_of(const ExperimentResult& r,
                              const std::string& label) {
  for (const MetricRecord& rec : r.runs) {
    if (rec.label == label) return rec;
  }
  throw std::runtime_error(r.name + ": no record " + label);
}

std::size_t column(const ResultTable& t, const std::string& header) {
  const auto& h = t.headers();
  const auto it = std::find(h.begin(), h.end(), header);
  if (it == h.end()) throw std::runtime_error(t.title() + ": no " + header);
  return static_cast<std::size_t>(it - h.begin());
}

std::uint64_t cell(const ResultTable& t, std::size_t row,
                   const std::string& header) {
  return std::get<std::uint64_t>(t.rows()[row][column(t, header)]);
}

/// Asserts that column `header` of every row equals the metrics.rounds of
/// the record labelled `label_of(row)`.
template <typename LabelOf>
void expect_simulator_rounds(const ExperimentResult& r, const ResultTable& t,
                             const std::string& header, LabelOf label_of) {
  ASSERT_FALSE(t.rows().empty()) << t.title();
  for (std::size_t i = 0; i < t.rows().size(); ++i) {
    const std::string label = label_of(i);
    EXPECT_EQ(cell(t, i, header), record_of(r, label).metrics.rounds)
        << t.title() << " / " << header << " / " << label;
  }
}

TEST(HarnessRoundGuard, E1RoundCellsAreSimulatorRounds) {
  const auto r = run_smoke("e01_rounds_vs_delta");
  const ResultTable& t = r.tables.at(0);
  const std::vector<std::pair<std::string, std::string>> cols = {
      {"pipeline(Thm1.4)", "pipeline/"},
      {"one-class", "one-class/"},
      {"KW-batched", "kw/"},
      {"Luby(rand)", "luby/"}};
  for (const auto& [header, prefix] : cols) {
    expect_simulator_rounds(r, t, header, [&](std::size_t i) {
      return prefix + "Delta=" + std::to_string(cell(t, i, "Delta"));
    });
  }
}

TEST(HarnessRoundGuard, E5RoundCellsAreSimulatorRounds) {
  const auto r = run_smoke("e05_arbdefective_vs_d");
  const ResultTable& t = r.tables.at(0);
  for (const auto& [header, prefix] :
       std::vector<std::pair<std::string, std::string>>{
           {"pipeline rounds", "pipeline/"}, {"greedy rounds", "greedy/"}}) {
    expect_simulator_rounds(r, t, header, [&](std::size_t i) {
      return prefix + "d=" + std::to_string(cell(t, i, "d"));
    });
  }
}

TEST(HarnessRoundGuard, E12RoundCellsAreSimulatorRounds) {
  const auto r = run_smoke("e12_n_scaling");
  for (std::size_t k = 0; k < r.tables.size(); ++k) {
    const ResultTable& t = r.tables[k];
    const std::string prefix = k == 0 ? "pipeline/" : "pipeline/Delta=8/";
    expect_simulator_rounds(r, t, "rounds", [&](std::size_t i) {
      return prefix + "n=" + std::to_string(cell(t, i, "n"));
    });
  }
  EXPECT_EQ(r.tables.size(), 2u);  // Delta = 12, then Delta = 8
}

TEST(HarnessRoundGuard, A2PhaseColumnsSumToSimulatorRounds) {
  const auto r = run_smoke("a2_qfactor");
  const ResultTable& t = r.tables.at(0);
  ASSERT_EQ(t.rows().size(), r.runs.size());
  for (std::size_t i = 0; i < t.rows().size(); ++i) {
    const MetricRecord& rec = r.runs[i];
    const std::uint64_t phases =
        cell(t, i, "arbdef rounds") + cell(t, i, "oldc rounds") +
        cell(t, i, "commit rounds") + cell(t, i, "tail rounds");
    EXPECT_EQ(cell(t, i, "rounds"), rec.metrics.rounds) << rec.label;
    EXPECT_EQ(phases + count_marked(rec.rounds, "a2/linial"),
              rec.metrics.rounds)
        << rec.label;
  }
}

}  // namespace
}  // namespace ldc::harness
