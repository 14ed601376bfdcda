#include "ldc/arb/beg_arbdefective.hpp"

#include <stdexcept>
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
  // Per node: committed load per color among its neighbors.
  std::vector<std::vector<std::uint32_t>> load(n);
  for (NodeId v = 0; v < n; ++v) load[v].assign(q, 0);

  std::uint32_t committed = 0;
  for (std::uint32_t round = 0; round < opt.max_rounds && committed < n;
       ++round) {
    // Propose: first-fit — the lowest color class whose committed load is
    // still within the defect budget. (First-fit, not least-loaded: it
    // fills classes up to their budget the way the locally-iterative
    // algorithms do, so downstream consumers see arbdefect ~ d rather
    // than a near-proper coloring.)
    std::vector<Color> proposal(n, kUncolored);
    std::vector<Message> msgs(n);
    std::vector<NodeId> proposers;  // ascending: both rounds' senders
    for (NodeId v = 0; v < n; ++v) {
      if (res.phi[v] != kUncolored) continue;
      Color best = kUncolored;
      if (opt.selection == ArbSelection::kFirstFit) {
        for (Color c = 0; c < q; ++c) {
          if (load[v][c] <= opt.defect) {
            best = c;
            break;
          }
        }
      } else {
        std::uint32_t best_load = ~0u;
        for (Color c = 0; c < q; ++c) {
          if (load[v][c] <= opt.defect && load[v][c] < best_load) {
            best_load = load[v][c];
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
      BitWriter w;
      w.write_bounded(best, q - 1);
      msgs[v] = Message::from(w);
    }
    const auto inboxes = net.exchange_broadcast(msgs, proposers);

    // Commit unless an adjacent *uncommitted* proposer with the same color
    // has higher priority. Priorities PRF(round, id) are locally
    // computable by neighbors.
    auto priority = [&](NodeId v) {
      return prf.at(hash_combine(round, g.id(v)));
    };
    std::vector<bool> commits(n, false);
    for (NodeId v = 0; v < n; ++v) {
      if (proposal[v] == kUncolored) continue;
      bool ok = true;
      for (const auto& [u, m] : inboxes[v]) {
        auto r = m.reader();
        const Color cu = static_cast<Color>(r.read_bounded(q - 1));
        if (cu == proposal[v] && priority(u) > priority(v)) {
          ok = false;
          break;
        }
      }
      commits[v] = ok;
    }
    // Second exchange: announce commits so everyone updates loads. (One
    // bit "committed" suffices — the color was already announced.)
    std::vector<Message> ack(n);
    for (NodeId v : proposers) {
      BitWriter w;
      w.write(commits[v] ? 1 : 0, 1);
      ack[v] = Message::from(w);
    }
    const auto ackboxes = net.exchange_broadcast(ack, proposers);
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& [u, m] : ackboxes[v]) {
        auto r = m.reader();
        if (r.read(1) == 1) ++load[v][proposal[u]];
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (commits[v]) {
        res.phi[v] = proposal[v];
        commit_round[v] = round;
        ++committed;
      }
    }
  }
  res.success = committed == n;

  // Orientation: same-color edges point later -> earlier; all other edges
  // by commit time as well (harmless and keeps the orientation total).
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (v < u) {
        // Orient from the later committer to the earlier one; ties cannot
        // happen for same-colored neighbors (the priority rule forbids
        // simultaneous same-color commits); break other ties by id.
        const bool v_later = commit_round[v] > commit_round[u] ||
                             (commit_round[v] == commit_round[u] &&
                              g.id(v) > g.id(u));
        if (v_later) {
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
