#include "ldc/arb/beg_arbdefective.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/support/prf.hpp"

namespace ldc::arb {

ArbdefectiveResult arbdefective_color(Network& net,
                                      const ArbdefectiveOptions& opt) {
  const Graph& g = net.graph();
  const std::uint32_t n = g.n();
  const std::uint32_t q = opt.colors;
  if (static_cast<std::uint64_t>(q) * (opt.defect + 1) <= g.max_degree()) {
    throw std::invalid_argument(
        "arbdefective_color: need colors * (defect+1) > Delta");
  }
  const Prf prf(opt.seed);

  ArbdefectiveResult res;
  res.phi.assign(n, kUncolored);
  std::vector<std::uint32_t> commit_round(n, ~0u);
  // Per node: committed load per color among its neighbors, q per node.
  std::vector<std::uint32_t> load(std::size_t{n} * q, 0);
  // Round state, kept across rounds. The (neighbor, color) proposals a
  // proposer heard sit at the start of its CSR row of `heard`.
  std::vector<Color> proposal(n, kUncolored);
  std::vector<BitWriter> msgs(n);
  std::vector<NodeId> proposers;  // ascending: both rounds' senders
  std::vector<char> commits(n, 0);
  std::vector<std::pair<NodeId, Color>> heard(2 * g.m());
  std::vector<std::uint32_t> heard_count(n, 0);

  std::uint32_t committed = 0;
  for (std::uint32_t round = 0; round < opt.max_rounds && committed < n;
       ++round) {
    // Propose: first-fit — the lowest color class whose committed load is
    // still within the defect budget. (First-fit, not least-loaded: it
    // fills classes up to their budget the way the locally-iterative
    // algorithms do, so downstream consumers see arbdefect ~ d rather
    // than a near-proper coloring.)
    proposers.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (res.phi[v] != kUncolored) continue;
      const std::uint32_t* lv = load.data() + std::size_t{v} * q;
      Color best = kUncolored;
      if (opt.selection == ArbSelection::kFirstFit) {
        for (Color c = 0; c < q; ++c) {
          if (lv[c] <= opt.defect) {
            best = c;
            break;
          }
        }
      } else {
        std::uint32_t best_load = ~0u;
        for (Color c = 0; c < q; ++c) {
          if (lv[c] <= opt.defect && lv[c] < best_load) {
            best_load = lv[c];
            best = c;
          }
        }
      }
      if (best == kUncolored) {
        throw std::logic_error(
            "arbdefective_color: no color under budget (pigeonhole "
            "violated)");
      }
      proposal[v] = best;
      proposers.push_back(v);
      msgs[v].clear();
      msgs[v].write_bounded(best, q - 1);
    }
    const auto inboxes = net.exchange_broadcast(msgs, proposers);

    // Commit unless an adjacent *uncommitted* proposer with the same color
    // has higher priority. Priorities PRF(round, id) are locally
    // computable by neighbors. Every heard proposal is kept for the ack
    // round.
    auto priority = [&](NodeId v) {
      return prf.at(hash_combine(round, g.id(v)));
    };
    for (NodeId v : proposers) {
      bool ok = true;
      std::pair<NodeId, Color>* seen = heard.data() + g.row_begin(v);
      std::uint32_t k = 0;
      for (auto [u, r] : inboxes[v]) {
        const Color cu = static_cast<Color>(r.read_bounded(q - 1));
        seen[k++] = {u, cu};
        if (ok && cu == proposal[v] && priority(u) > priority(v)) ok = false;
      }
      heard_count[v] = k;
      commits[v] = ok ? 1 : 0;
    }
    // Second exchange: announce commits so everyone updates loads. (One
    // bit "committed" suffices — the color was already announced.)
    for (NodeId v : proposers) {
      msgs[v].clear();
      msgs[v].write(commits[v], 1);
    }
    const auto ackboxes = net.exchange_broadcast(msgs, proposers);
    // A proposer counts a committed neighbor's color only if it heard
    // that proposal. Both lists ascend by sender, so one merge walk pairs
    // them; a color outside [0, q) (a corrupted proposal) counts nowhere.
    for (NodeId v : proposers) {
      const std::pair<NodeId, Color>* seen = heard.data() + g.row_begin(v);
      const std::pair<NodeId, Color>* end = seen + heard_count[v];
      std::uint32_t* lv = load.data() + std::size_t{v} * q;
      for (auto [u, r] : ackboxes[v]) {
        while (seen != end && seen->first < u) ++seen;
        if (r.read(1) == 1 && seen != end && seen->first == u &&
            seen->second < q) {
          ++lv[seen->second];
        }
      }
    }
    for (NodeId v : proposers) {
      if (commits[v] != 0) {
        res.phi[v] = proposal[v];
        commit_round[v] = round;
        ++committed;
      }
    }
  }
  res.success = committed == n;

  // Orientation: same-color edges point later -> earlier; all other edges
  // by commit time as well (harmless and keeps the orientation total).
  // Orient from the later committer to the earlier one; ties cannot happen
  // for same-colored neighbors (the priority rule forbids simultaneous
  // same-color commits); break other ties by id.
  auto later = [&](NodeId v, NodeId u) {
    return commit_round[v] > commit_round[u] ||
           (commit_round[v] == commit_round[u] && g.id(v) > g.id(u));
  };
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    std::uint32_t outdeg = 0;
    for (NodeId u : g.neighbors(v)) outdeg += later(v, u) ? 1 : 0;
    out[v].reserve(outdeg);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (v < u) {
        if (later(v, u)) {
          out[v].push_back(u);
        } else {
          out[u].push_back(v);
        }
      }
    }
  }
  res.orientation = Orientation(g, std::move(out));
  return res;
}

}  // namespace ldc::arb
