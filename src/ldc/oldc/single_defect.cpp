#include "ldc/oldc/single_defect.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "ldc/coloring/validate.hpp"
#include "ldc/mt/conflict.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/support/math.hpp"
#include "ldc/support/packed_palette.hpp"
#include "ldc/support/prf.hpp"

namespace ldc::oldc {
namespace {

// Candidate families are pure functions of (type, set size, family size);
// memoize them so equal-typed nodes share one materialization.
class FamilyCache {
 public:
  const mt::CandidateFamily& get(std::uint64_t type_key,
                                 std::span<const Color> list,
                                 std::uint32_t set_size,
                                 std::uint32_t kprime) {
    const std::uint64_t k =
        hash_combine(type_key, hash_combine(set_size, kprime));
    auto it = cache_.find(k);
    if (it == cache_.end()) {
      it = cache_
               .emplace(k, std::make_unique<mt::CandidateFamily>(
                               type_key, list, set_size, kprime))
               .first;
    }
    return *it->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::unique_ptr<mt::CandidateFamily>>
      cache_;
};

struct NeighborInfo {
  std::uint32_t gamma = 0;
  const mt::CandidateFamily* family = nullptr;
  std::span<const Color> chosen_set;  ///< C_u once its index arrived
  Color chosen_color = kUncolored;    ///< final color once announced
};

}  // namespace

OldcResult solve_single_defect(Network& net, const SingleDefectInput& in) {
  const Graph& g = *in.graph;
  const Orientation& orient = *in.orientation;
  const std::uint32_t n = g.n();
  if (in.lists.size() != n || in.defects.size() != n) {
    throw std::invalid_argument("solve_single_defect: per-node data size");
  }

  OldcResult res;
  res.phi.assign(n, kUncolored);

  // --- Local preprocessing: gamma-classes, residues, candidate families.
  std::uint32_t h = 1;
  std::vector<std::uint32_t> gamma(n);
  for (NodeId v = 0; v < n; ++v) {
    gamma[v] = gamma_class(orient.beta(v), in.defects[v], 2);
    h = std::max(h, gamma[v]);
  }
  const std::uint32_t tau =
      mt::effective_tau(in.params, h, in.color_space, in.m);
  res.stats.h = h;
  res.stats.tau = tau;

  FamilyCache cache;
  std::vector<std::vector<Color>> restricted(n);
  std::vector<const mt::CandidateFamily*> family(n);
  for (NodeId v = 0; v < n; ++v) {
    restricted[v] = mt::best_residue_sublist(in.lists[v], in.g);
    if (restricted[v].empty()) {
      throw std::invalid_argument("solve_single_defect: empty color list");
    }
    const std::uint64_t ki =
        sat_mul(std::uint64_t{1} << gamma[v], tau);
    const std::uint32_t set_size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ki, restricted[v].size()));
    const std::uint64_t key = mt::type_key((*in.initial)[v], restricted[v]);
    family[v] = &cache.get(key, restricted[v], set_size, in.params.kprime);
    if (family[v]->set_size() < ki) ++res.stats.degraded;
  }

  // --- Round 1: broadcast types (initial color, gamma-class, defect, list).
  net.mark("oldc/types");
  // What v knows of each neighbour, CSR-aligned: u's entry is
  // nb[edge(v, u)].
  std::vector<NeighborInfo> nb(2 * g.m());
  auto edge = [&](NodeId v, NodeId u) {
    return g.row_begin(v) + g.neighbor_index(v, u);
  };
  {
    std::vector<BitWriter> msgs(n);
    net.run_node_programs([&](NodeId v) {
      BitWriter& w = msgs[v];
      w.write_bounded((*in.initial)[v], in.m - 1);
      w.write_bounded(gamma[v], h);
      w.write_varint(in.defects[v]);
      encode_color_list(w, restricted[v], in.color_space);
    });
    const auto inboxes = net.exchange_broadcast(msgs);
    // Serial decode: FamilyCache is shared-mutable (memoizes candidate
    // families across equal-typed nodes), so this pass must not fan out.
    std::vector<Color> u_list;
    for (NodeId v = 0; v < n; ++v) {
      for (auto [u, r] : inboxes[v]) {
        const std::uint64_t u_initial = r.read_bounded(in.m - 1);
        NeighborInfo info;
        info.gamma = static_cast<std::uint32_t>(r.read_bounded(h));
        const std::uint32_t u_defect =
            static_cast<std::uint32_t>(r.read_varint());
        decode_color_list(r, in.color_space, u_list);
        const std::uint64_t ki =
            sat_mul(std::uint64_t{1} << info.gamma, tau);
        const std::uint32_t set_size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ki, u_list.size()));
        (void)u_defect;
        info.family = &cache.get(mt::type_key(u_initial, u_list), u_list,
                                 set_size, in.params.kprime);
        nb[edge(v, u)] = info;
      }
    }
  }

  // --- Local P1: pick the candidate set with the fewest conflicted
  // out-neighbors of gamma-class <= own.
  std::vector<std::uint32_t> chosen_index(n, 0);
  std::vector<std::uint8_t> p1_relaxed(n, 0);
  net.run_node_programs([&](NodeId v) {
    const auto kv = family[v]->view();
    std::uint32_t best_j = 0;
    std::uint32_t best_dc = ~0u;
    for (std::uint32_t j = 0; j < kv.count && best_dc > 0; ++j) {
      const auto cj = kv.set(j);
      std::uint32_t dc = 0;
      for (NodeId u : orient.out(v)) {
        const auto& info = nb[edge(v, u)];
        if (info.gamma > gamma[v]) continue;
        const auto ku = info.family->view();
        for (std::uint32_t s = 0; s < ku.count; ++s) {
          if (mt::tau_g_conflict(cj, ku.set(s), tau, in.g)) {
            ++dc;
            break;
          }
        }
      }
      if (dc < best_dc) {
        best_dc = dc;
        best_j = j;
      }
    }
    chosen_index[v] = best_j;
    p1_relaxed[v] = (2 * best_dc > in.defects[v]) ? 1 : 0;
  });
  for (NodeId v = 0; v < n; ++v) res.stats.p1_relaxed += p1_relaxed[v];

  // --- Round 2: broadcast the chosen candidate index (one bounded
  // word: a word round).
  net.mark("oldc/p1-index");
  {
    std::vector<std::uint64_t> words(n);
    net.run_node_programs([&](NodeId v) { words[v] = chosen_index[v]; });
    const WordMail inboxes =
        net.exchange_broadcast_word(words, in.params.kprime - 1);
    net.run_node_programs([&](NodeId v) {
      for (const auto [u, word] : inboxes[v]) {
        const auto j = static_cast<std::uint32_t>(word);
        auto& info = nb[edge(v, u)];
        info.chosen_set = info.family->set(
            std::min(j, info.family->size() - 1));
      }
    });
  }

  // --- Problem P0: descending gamma-classes pick minimum-frequency colors.
  net.mark("oldc/p0-classes");
  const auto my_set = [&](NodeId v) { return family[v]->set(chosen_index[v]); };
  for (std::uint32_t cls = h; cls >= 1; --cls) {
    std::vector<std::uint64_t> words(n);
    std::vector<NodeId> members;  // the class, ascending: the senders
    for (NodeId v = 0; v < n; ++v) {
      if (gamma[v] == cls) members.push_back(v);
    }
    net.run_node_programs(members, [&](NodeId v) {
      const auto cv = my_set(v);
      Color best = cv.empty() ? restricted[v].front() : cv.front();
      std::uint64_t best_f = ~0ULL;
      // Packed fast path: the g-dilated union of every constraining color.
      // A candidate absent from the union has frequency f == 0, and the
      // loop below picks the *first* minimum — so the first absent
      // candidate (list order) is the exact answer. Only when every
      // candidate conflicts does the exact counting loop run. The palette
      // is per-thread scratch: built and cleared once per node.
      static thread_local PackedPalette forbid;
      forbid.reset(in.color_space);
      for (NodeId u : orient.out(v)) {
        const auto& info = nb[edge(v, u)];
        if (info.gamma <= gamma[v]) {
          for (Color y : info.chosen_set) forbid.insert_window(y, in.g);
        } else if (info.chosen_color != kUncolored) {
          forbid.insert_window(info.chosen_color, in.g);
        }
      }
      const std::uint64_t zero_conflict =
          forbid.first_absent(std::span<const Color>(cv));
      if (zero_conflict != PackedPalette::npos) {
        best = static_cast<Color>(zero_conflict);
        best_f = 0;
      } else {
        for (Color x : cv) {
          std::uint64_t f = 0;
          for (NodeId u : orient.out(v)) {
            const auto& info = nb[edge(v, u)];
            if (info.gamma <= gamma[v]) {
              f += mt::mu_g(x, info.chosen_set, in.g);
            } else if (info.chosen_color != kUncolored) {
              const std::int64_t diff =
                  static_cast<std::int64_t>(info.chosen_color) - x;
              if (static_cast<std::uint64_t>(diff < 0 ? -diff : diff) <=
                  in.g) {
                ++f;
              }
            }
          }
          if (f < best_f) {
            best_f = f;
            best = x;
          }
        }
      }
      res.phi[v] = best;
      words[v] = best;
    });
    const WordMail inboxes =
        net.exchange_broadcast_word(words, in.color_space - 1, members);
    net.run_node_programs([&](NodeId v) {
      for (const auto [u, word] : inboxes[v]) {
        nb[edge(v, u)].chosen_color =
            static_cast<Color>(word);
      }
    });
  }

  // --- Validate; repair if the pigeonhole margin was missed.
  LdcInstance check_inst;
  check_inst.graph = in.graph;
  check_inst.color_space = in.color_space;
  check_inst.lists.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    check_inst.lists[v].colors = in.lists[v];
    check_inst.lists[v].defects.assign(in.lists[v].size(), in.defects[v]);
  }
  res.valid = static_cast<bool>(
      validate_oldc(check_inst, orient, res.phi, in.g));
  if (!res.valid && in.run_repair) {
    repair::Options ropt;
    ropt.g = in.g;
    ropt.orientation = in.orientation;
    net.mark("oldc/repair");
    auto rep = repair::repair(net, check_inst, res.phi, ropt);
    if (!rep.success) {
      throw InfeasibleError("solve_single_defect: repair failed (instance infeasible?)");
    }
    res.phi = std::move(rep.phi);
    res.stats.repaired = true;
  }
  return res;
}

}  // namespace ldc::oldc
