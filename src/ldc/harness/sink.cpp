#include "ldc/harness/sink.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <variant>

#ifndef LDC_GIT_REV
#define LDC_GIT_REV "unknown"
#endif
#ifndef LDC_BUILD_TYPE
#define LDC_BUILD_TYPE ""
#endif
#ifndef LDC_BUILD_FLAGS
#define LDC_BUILD_FLAGS ""
#endif

namespace ldc::harness {
namespace {

const char* engine_name(Network::Engine e) {
  switch (e) {
    case Network::Engine::kSharded: return "sharded";
    case Network::Engine::kDist: return "dist";
    case Network::Engine::kSerial: break;
  }
  return "serial";
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string cell_text(const ResultTable::Cell& cell) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else {
          // Reuse JSON number formatting so CSV and JSONL agree exactly.
          return Json(v).dump();
        }
      },
      cell);
}

}  // namespace

Provenance make_provenance(const RunConfig& config) {
  Provenance p;
  p.git_rev = LDC_GIT_REV;
  p.build_type = LDC_BUILD_TYPE;
  p.build_flags = LDC_BUILD_FLAGS;
  p.engine = engine_name(config.engine);
  p.threads = config.threads;
  p.smoke = config.smoke;
  return p;
}

Json to_json(const Provenance& p) {
  Json o = Json::object();
  o.add("git_rev", p.git_rev);
  o.add("build_type", p.build_type);
  o.add("build_flags", p.build_flags);
  o.add("engine", p.engine);
  o.add("threads", static_cast<std::uint64_t>(p.threads));
  o.add("smoke", p.smoke);
  return o;
}

Json to_json(const RunMetrics& m) {
  Json o = Json::object();
  o.add("rounds", m.rounds);
  o.add("messages", m.messages);
  o.add("total_bits", m.total_bits);
  o.add("max_message_bits", static_cast<std::uint64_t>(m.max_message_bits));
  o.add("congest_violations", m.congest_violations);
  o.add("messages_dropped", m.messages_dropped);
  o.add("messages_corrupted", m.messages_corrupted);
  o.add("node_crashes", m.node_crashes);
  o.add("node_sleeps", m.node_sleeps);
  o.add("wall_ns", m.wall_ns);
  return o;
}

Json to_json(const ResultTable::Cell& cell) {
  return std::visit([](const auto& v) { return Json(v); }, cell);
}

bool observational_column(const std::string& header) {
  std::string h = header;
  std::transform(h.begin(), h.end(), h.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return h.find("wall") != std::string::npos ||
         h.find("(obs)") != std::string::npos;
}

Sink::Sink(std::string out_dir, const Provenance& provenance)
    : out_dir_(std::move(out_dir)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const char* sub : {"", "csv", "tables"}) {
    const fs::path p = fs::path(out_dir_) / sub;
    fs::create_directories(p, ec);
    if (ec) {
      throw std::runtime_error("sink: cannot create " + p.string() + ": " +
                               ec.message());
    }
  }
  const std::string path = (fs::path(out_dir_) / "results.jsonl").string();
  jsonl_.open(path, std::ios::trunc);
  if (!jsonl_) throw std::runtime_error("sink: cannot open " + path);
  Json run = Json::object();
  run.add("type", "run");
  run.add("schema", std::uint64_t{1});
  const Json prov = to_json(provenance);
  for (const auto& [k, v] : prov.as_object()) run.add(k, v);
  jsonl_ << run.dump() << '\n';
}

void Sink::write(const ExperimentResult& result) {
  for (const ResultTable& t : result.tables) {
    const auto& headers = t.headers();
    for (std::size_t r = 0; r < t.rows().size(); ++r) {
      Json row = Json::object();
      row.add("type", "table_row");
      row.add("experiment", result.name);
      row.add("table", t.title());
      row.add("index", static_cast<std::uint64_t>(r));
      Json cells = Json::object();
      for (std::size_t c = 0; c < headers.size(); ++c) {
        cells.add(headers[c], to_json(t.rows()[r][c]));
      }
      row.add("cells", std::move(cells));
      jsonl_ << row.dump() << '\n';
    }
  }
  for (const MetricRecord& rec : result.runs) {
    Json m = Json::object();
    m.add("type", "metrics");
    m.add("experiment", result.name);
    m.add("label", rec.label);
    m.add("engine", engine_name(rec.engine));
    m.add("threads", static_cast<std::uint64_t>(rec.threads));
    m.add("trace_digest", rec.trace_digest);
    const Json metrics = to_json(rec.metrics);
    for (const auto& [k, v] : metrics.as_object()) m.add(k, v);
    jsonl_ << m.dump() << '\n';
    for (const Trace::Round& round : rec.rounds) {
      Json r = Json::object();
      r.add("type", "round");
      r.add("experiment", result.name);
      r.add("label", rec.label);
      r.add("round", round.index);
      r.add("mark", round.mark);
      r.add("messages", round.messages);
      r.add("bits", round.bits);
      r.add("max_message_bits",
            static_cast<std::uint64_t>(round.max_message_bits));
      r.add("wall_ns", round.wall_ns);
      if (round.faults.any()) {
        Json f = Json::object();
        f.add("dropped", round.faults.dropped);
        f.add("corrupted", round.faults.corrupted);
        f.add("crashes", round.faults.crashes);
        f.add("sleeps", round.faults.sleeps);
        r.add("faults", std::move(f));
      }
      jsonl_ << r.dump() << '\n';
    }
  }
  Json close = Json::object();
  close.add("type", "experiment");
  close.add("experiment", result.name);
  close.add("tables", static_cast<std::uint64_t>(result.tables.size()));
  close.add("runs", static_cast<std::uint64_t>(result.runs.size()));
  close.add("wall_ns", result.wall_ns);
  jsonl_ << close.dump() << '\n';
  jsonl_.flush();

  write_csv(result);
  write_tables(result);
}

void Sink::write_csv(const ExperimentResult& result) {
  namespace fs = std::filesystem;
  for (std::size_t i = 0; i < result.tables.size(); ++i) {
    const ResultTable& t = result.tables[i];
    const std::string path =
        (fs::path(out_dir_) / "csv" /
         (result.name + "." + std::to_string(i) + ".csv"))
            .string();
    std::ofstream os(path, std::ios::trunc);
    if (!os) throw std::runtime_error("sink: cannot open " + path);
    os << "# " << t.title() << '\n';
    for (std::size_t c = 0; c < t.headers().size(); ++c) {
      os << (c == 0 ? "" : ",") << csv_escape(t.headers()[c]);
    }
    os << '\n';
    for (const auto& row : t.rows()) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << (c == 0 ? "" : ",") << csv_escape(cell_text(row[c]));
      }
      os << '\n';
    }
  }
}

void Sink::write_tables(const ExperimentResult& result) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::path(out_dir_) / "tables" / (result.name + ".txt")).string();
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("sink: cannot open " + path);
  for (const ResultTable& t : result.tables) t.to_table().print(os);
}

}  // namespace ldc::harness
