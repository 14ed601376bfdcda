#include "ldc/runtime/trace.hpp"

#include <ostream>

#include "ldc/support/prf.hpp"

namespace ldc {

void Trace::record_round(std::uint64_t messages, std::uint64_t bits,
                         std::size_t max_message_bits, std::uint64_t wall_ns,
                         const RoundFaults& faults) {
  Round r;
  r.index = rounds_.size();
  r.messages = messages;
  r.bits = bits;
  r.max_message_bits = max_message_bits;
  r.wall_ns = wall_ns;
  r.faults = faults;
  r.mark = current_mark_;
  rounds_.push_back(std::move(r));
}

void Trace::record_silent(std::uint64_t k, std::uint64_t wall_ns) {
  for (std::uint64_t i = 0; i < k; ++i) {
    record_round(0, 0, 0, i == 0 ? wall_ns : 0);
  }
}

void Trace::record_absorbed(const RunMetrics& m, const char* mark) {
  if (m.rounds == 0) return;
  const std::size_t first = rounds_.size();
  record_round(m.messages, m.total_bits, m.max_message_bits, m.wall_ns,
               RoundFaults{m.messages_dropped, m.messages_corrupted,
                           m.node_crashes, m.node_sleeps});
  record_silent(m.rounds - 1);
  if (mark == nullptr) return;
  for (std::size_t i = first; i < rounds_.size(); ++i) rounds_[i].mark = mark;
}

void Trace::add_wall_ns(std::uint64_t wall_ns) {
  if (!rounds_.empty()) rounds_.back().wall_ns += wall_ns;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = 0x1dc0ffee;
  for (const auto& r : rounds_) {
    h = hash_combine(h, r.messages);
    h = hash_combine(h, r.bits);
    h = hash_combine(h, r.max_message_bits);
    if (r.faults.any()) {  // fault-free transcripts keep the legacy fold
      h = hash_combine(h, r.faults.dropped);
      h = hash_combine(h, r.faults.corrupted);
      h = hash_combine(h, r.faults.crashes);
      h = hash_combine(h, r.faults.sleeps);
      h = hash_combine(h, 0x0fau);  // domain-separate faulty rounds
    }
  }
  return hash_combine(h, rounds_.size());
}

void Trace::print(std::ostream& os) const {
  std::string last_mark = "\x01";  // sentinel unequal to any real mark
  for (const auto& r : rounds_) {
    if (r.mark != last_mark) {
      os << "--- " << (r.mark.empty() ? "(unmarked)" : r.mark) << " ---\n";
      last_mark = r.mark;
    }
    os << "round " << r.index << ": " << r.messages << " msgs, " << r.bits
       << " bits (max " << r.max_message_bits << ")";
    if (r.faults.any()) {
      os << " [faults: " << r.faults.dropped << " dropped, "
         << r.faults.corrupted << " corrupted, " << r.faults.crashes
         << " crashes, " << r.faults.sleeps << " sleeps]";
    }
    os << "\n";
  }
}

std::uint64_t count_marked(const std::vector<Trace::Round>& rows,
                           std::string_view prefix) {
  std::uint64_t k = 0;
  for (const auto& r : rows) k += r.mark.starts_with(prefix) ? 1 : 0;
  return k;
}

}  // namespace ldc
