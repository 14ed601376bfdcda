#include "ldc/oldc/two_phase.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "ldc/coloring/validate.hpp"
#include "ldc/mt/conflict.hpp"
#include "ldc/oldc/class_plan.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/rounding.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/support/math.hpp"
#include "ldc/support/packed_palette.hpp"
#include "ldc/support/prf.hpp"

namespace ldc::oldc {
namespace {

// Memoized candidate families (same trick as single_defect).
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

}  // namespace

TwoPhaseResult solve_two_phase(Network& net, const TwoPhaseInput& in) {
  const LdcInstance& inst = *in.inst;
  const Graph& g = *inst.graph;
  const Orientation& orient = *in.orientation;
  const std::uint32_t n = g.n();
  TwoPhaseResult res;
  res.phi.assign(n, kUncolored);

  // --- Global parameters (Lemma 3.8).
  const std::uint32_t h =
      std::max(1, ceil_log2(std::max<std::uint64_t>(2, orient.max_beta())));
  const std::uint32_t hp = static_cast<std::uint32_t>(
      pow4_ceil(std::max<std::uint64_t>(1, ceil_log2(8ULL * h))));
  const std::uint32_t tau = static_cast<std::uint32_t>(pow4_ceil(
      mt::effective_tau(in.params, h, inst.color_space, in.m)));
  const std::uint32_t tau_bar = static_cast<std::uint32_t>(
      pow4_ceil(mt::effective_tau(in.params, hp, h, in.m)));
  const std::uint64_t alpha = pow4_ceil(std::max(1u, in.alpha));
  res.stats.h = h;
  res.stats.tau = tau;

  // --- Per-node bucketing and auxiliary class lists (Lemma 3.8 planning,
  // factored into oldc/class_plan for direct unit testing).
  ClassPlanParams plan_params;
  plan_params.h = h;
  plan_params.hp = hp;
  plan_params.tau_bar = tau_bar;
  plan_params.alpha = alpha;
  std::vector<ClassPlan> plans(n);
  for (NodeId v = 0; v < n; ++v) {
    plans[v] = plan_classes(inst.lists[v], orient.beta(v), plan_params);
    res.stats.clamped_classes += plans[v].clamped;
  }

  // --- Assign gamma-classes by solving the auxiliary OLDC instance over
  // color space [h] with window g = floor(log2 h) (Lemma 3.6). Its rounds
  // carry the multi-defect solver's own oldc/ marks.
  std::vector<std::uint32_t> cls(n);
  std::vector<std::uint32_t> dv(n);        // single rounded defect
  std::vector<std::vector<Color>> used(n);  // bucket colors in play
  {
    LdcInstance aux;
    aux.graph = &g;
    aux.color_space = h;
    aux.lists.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      aux.lists[v].colors = std::move(plans[v].aux_colors);
      aux.lists[v].defects = std::move(plans[v].aux_defects);
    }
    MultiDefectInput mdi;
    mdi.inst = &aux;
    mdi.orientation = in.orientation;
    mdi.initial = in.initial;
    mdi.m = in.m;
    mdi.g = ilog2(std::max(1u, h));
    mdi.params = in.params;
    mdi.run_repair = in.run_repair;
    const auto aux_res = solve_multi_defect(net, mdi);
    for (NodeId v = 0; v < n; ++v) {
      cls[v] = static_cast<std::uint32_t>(aux_res.phi[v]) + 1;
      const std::uint32_t mu = plans[v].mu_of(cls[v]);
      dv[v] = plans[v].bucket_defect(mu);
      // The bucket's colors move out of the plan, which is done with.
      for (auto& [m, colors] : plans[v].bucket_colors) {
        if (m == mu) used[v] = std::move(colors);
      }
      std::sort(used[v].begin(), used[v].end());
    }
  }

  // What v knows of its neighbours sits in CSR-aligned tables: u's entry
  // is at edge(v, u).
  auto edge = [&](NodeId v, NodeId u) {
    return g.row_begin(v) + g.neighbor_index(v, u);
  };
  std::vector<std::uint64_t> words(n);  // every word round's payloads
  std::vector<NodeId> members;          // a class, ascending: its senders

  net.mark("two-phase/class-announce");
  // --- One round: everyone announces its gamma-class (one bounded
  // word: a word round).
  std::vector<std::uint32_t> nb_cls(2 * g.m());
  {
    for (NodeId v = 0; v < n; ++v) words[v] = cls[v];
    const WordMail inboxes = net.exchange_broadcast_word(words, h);
    for (NodeId v = 0; v < n; ++v) {
      for (const auto [u, word] : inboxes[v]) {
        nb_cls[edge(v, u)] =
            static_cast<std::uint32_t>(word);
      }
    }
  }

  net.mark("two-phase/phase-I");
  // --- Phase I: ascending classes; prune, pick candidate sets.
  FamilyCache cache;
  // Per node: chosen set (own) and per-neighbor chosen set once known.
  std::vector<std::span<const Color>> own_set(n);
  std::vector<std::span<const Color>> nb_set(2 * g.m());
  std::vector<const mt::CandidateFamily*> pending_family(n, nullptr);
  std::vector<const mt::CandidateFamily*> nb_family(2 * g.m());

  PackedPalette lower_union;  // prune scratch, reused across nodes/classes
  std::vector<BitWriter> msgs(n);  // round A payloads, kept across classes
  std::vector<Color> u_list;       // round A decode buffer
  std::vector<std::uint32_t> chosen(n);
  // A class's pruned lists, back to back: reserved up front so the spans
  // into it stay valid while it fills.
  std::vector<Color> pruned_store;
  std::vector<std::span<const Color>> pruned(n);
  for (std::uint32_t i = 1; i <= h; ++i) {
    // Local: members of V_i prune and build candidate families.
    members.clear();
    std::size_t room = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (cls[v] != i) continue;
      members.push_back(v);
      room += used[v].size();
    }
    pruned_store.clear();
    pruned_store.reserve(room);
    for (NodeId v : members) {
      // Membership union of all lower-class out-neighbor sets: a color
      // absent from the union is held by no such neighbor (count 0, always
      // kept), so the per-neighbor counting loop runs only for colors that
      // are at least somewhere.
      lower_union.reset(inst.color_space);
      for (NodeId u : orient.out(v)) {
        const auto ui = edge(v, u);
        if (nb_cls[ui] >= i) continue;
        for (Color y : nb_set[ui]) lower_union.insert(y);
      }
      const std::size_t start = pruned_store.size();
      for (Color x : used[v]) {
        std::uint32_t cnt = 0;
        if (lower_union.contains(x)) {
          for (NodeId u : orient.out(v)) {
            const auto ui = edge(v, u);
            if (nb_cls[ui] >= i) continue;
            const auto cu = nb_set[ui];
            if (std::binary_search(cu.begin(), cu.end(), x)) ++cnt;
          }
        }
        if (4ULL * cnt > dv[v]) {
          ++res.stats.pruned_colors;
        } else {
          pruned_store.push_back(x);
        }
      }
      if (pruned_store.size() == start) {
        // Safety: never run out of colors entirely.
        pruned_store.insert(pruned_store.end(), used[v].begin(),
                            used[v].end());
        ++res.stats.p1_relaxed;
      }
      pruned[v] = std::span<const Color>(pruned_store).subspan(start);
      const std::uint64_t ki = sat_mul(std::uint64_t{1} << i, tau);
      const std::uint32_t set_size = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(ki, pruned[v].size()));
      const std::uint64_t key = mt::type_key((*in.initial)[v], pruned[v]);
      pending_family[v] =
          &cache.get(key, pruned[v], set_size, in.params.kprime);
      if (set_size < ki) ++res.stats.degraded;
    }

    // Round A: V_i broadcasts (initial color, pruned list).
    std::fill(nb_family.begin(), nb_family.end(), nullptr);
    {
      for (NodeId v : members) {
        BitWriter& w = msgs[v];
        w.clear();
        w.write_bounded((*in.initial)[v], in.m - 1);
        encode_color_list(w, pruned[v], inst.color_space);
      }
      const auto inboxes = net.exchange_broadcast(msgs, members);
      for (NodeId v = 0; v < n; ++v) {
        for (auto [u, r] : inboxes[v]) {
          const std::uint64_t u_initial = r.read_bounded(in.m - 1);
          decode_color_list(r, inst.color_space, u_list);
          const std::uint64_t ki = sat_mul(std::uint64_t{1} << i, tau);
          const std::uint32_t set_size = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(ki, u_list.size()));
          nb_family[edge(v, u)] = &cache.get(
              mt::type_key(u_initial, u_list), u_list, set_size,
              in.params.kprime);
        }
      }
    }

    // Local P1 against same-class out-neighbors only.
    for (NodeId v : members) {
      const auto kv = pending_family[v]->view();
      std::uint32_t best_j = 0, best_dc = ~0u;
      for (std::uint32_t j = 0; j < kv.count && best_dc > 0; ++j) {
        const auto cj = kv.set(j);
        std::uint32_t dc = 0;
        for (NodeId u : orient.out(v)) {
          const auto ui = edge(v, u);
          if (nb_cls[ui] != i || nb_family[ui] == nullptr) continue;
          const auto ku = nb_family[ui]->view();
          for (std::uint32_t s = 0; s < ku.count; ++s) {
            if (mt::tau_g_conflict(cj, ku.set(s), tau, 0)) {
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
      chosen[v] = best_j;
      if (4ULL * best_dc > dv[v]) ++res.stats.p1_relaxed;
      own_set[v] = pending_family[v]->set(best_j);
    }

    // Round B: V_i broadcasts the chosen index (one bounded word).
    {
      for (NodeId v : members) words[v] = chosen[v];
      const WordMail inboxes =
          net.exchange_broadcast_word(words, in.params.kprime - 1, members);
      for (NodeId v = 0; v < n; ++v) {
        for (const auto [u, word] : inboxes[v]) {
          const auto j = static_cast<std::uint32_t>(word);
          const auto ui = edge(v, u);
          const auto* fam = nb_family[ui];
          if (fam != nullptr) {
            nb_set[ui] = fam->set(std::min(j, fam->size() - 1));
          }
        }
      }
    }
  }

  net.mark("two-phase/phase-II");
  // --- Phase II: descending classes pick final colors.
  std::vector<Color> nb_final(2 * g.m(), kUncolored);
  PackedPalette forbid;        // Phase II scratch, reused across nodes
  std::vector<NodeId> contrib; // same-class out-neighbors that count
  for (std::uint32_t i = h; i >= 1; --i) {
    members.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (cls[v] != i) continue;
      members.push_back(v);
      const auto cv = own_set[v];
      Color best = cv.empty() ? used[v].front() : cv.front();
      std::uint64_t best_f = ~0ULL;
      // The tau&g-conflict test against a same-class neighbor depends on
      // the two chosen sets only, never on the candidate x — decide it
      // once per neighbor instead of once per (x, neighbor) pair. Only
      // non-conflicted same-class neighbors count (the conflicted
      // <= d_v/4 are charged to the P1 budget); lower classes are covered
      // by Phase I pruning.
      contrib.clear();
      forbid.reset(inst.color_space);
      for (NodeId u : orient.out(v)) {
        const auto ui = edge(v, u);
        const std::uint32_t uc = nb_cls[ui];
        if (uc > i) {
          if (nb_final[ui] != kUncolored) forbid.insert(nb_final[ui]);
        } else if (uc == i) {
          const auto cu = nb_set[ui];
          if (!cu.empty() && !mt::tau_g_conflict(cv, cu, tau, 0)) {
            contrib.push_back(u);
            for (Color y : cu) forbid.insert(y);
          }
        }
      }
      // Packed fast path: a candidate absent from the union of announced
      // finals and contributing sets has frequency f == 0, and the exact
      // loop picks the first minimum — so the first absent candidate (in
      // list order) is the exact answer.
      const std::uint64_t zero_conflict =
          forbid.first_absent(std::span<const Color>(cv));
      if (zero_conflict != PackedPalette::npos) {
        best = static_cast<Color>(zero_conflict);
      } else {
        for (Color x : cv) {
          std::uint64_t f = 0;
          for (NodeId u : orient.out(v)) {
            const auto ui = edge(v, u);
            if (nb_cls[ui] > i && nb_final[ui] == x) ++f;
          }
          for (NodeId u : contrib) {
            const auto cu = nb_set[edge(v, u)];
            if (std::binary_search(cu.begin(), cu.end(), x)) ++f;
          }
          if (f < best_f) {
            best_f = f;
            best = x;
          }
        }
      }
      res.phi[v] = best;
      words[v] = best;
    }
    const WordMail inboxes =
        net.exchange_broadcast_word(words, inst.color_space - 1, members);
    for (NodeId v = 0; v < n; ++v) {
      for (const auto [u, word] : inboxes[v]) {
        nb_final[edge(v, u)] = static_cast<Color>(word);
      }
    }
  }

  // --- Validate against the original instance; repair if needed.
  res.valid = static_cast<bool>(validate_oldc(inst, orient, res.phi, 0));
  if (!res.valid && in.run_repair) {
    repair::Options ropt;
    ropt.orientation = in.orientation;
    net.mark("two-phase/repair");
    auto rep = repair::repair(net, inst, res.phi, ropt);
    if (!rep.success) {
      throw InfeasibleError("solve_two_phase: repair failed");
    }
    res.phi = std::move(rep.phi);
    res.stats.repaired = true;
  }
  return res;
}

}  // namespace ldc::oldc
