// Kuhn-Wattenhofer batched color reduction [KW06] for the standard
// (Delta+1)-coloring problem: a proper m-coloring is reduced to Delta+1
// colors in O(Delta * log(m / Delta)) rounds by halving the palette in
// parallel blocks of 2(Delta+1) colors, one upper color class per round.
//
// Every round is a word round (Network::exchange_broadcast_word, one
// bounded word per sender): first every node announces its color in one
// dense round, then, in each halving pass, the upper-half classes are
// bucketed once and round `off` lists only its class's nodes as senders,
// which broadcast the color they recolor to. Picks run over
// the class and decodes over its receivers (ClassRounds), so a round
// costs its class, not n; neighbour colors live in one CSR-aligned array,
// each stamped with the pass it was heard in, and a pass end renumbers
// only φ: a known color is brought up to date when a pick reads it.
#pragma once

#include <cstdint>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::baselines {

struct KwResult {
  Coloring phi;            ///< proper, with colors in [0, palette)
  std::uint64_t palette;   ///< Delta + 1 once reduced (m if m <= Delta + 1)
};

/// `initial` must be proper with colors < m. Output is a proper
/// (Delta+1)-coloring (colors in [0, Delta+1)).
KwResult kw_reduce(Network& net, const Coloring& initial, std::uint64_t m);

/// Linial from IDs, then kw_reduce: the O(Delta log Delta + log* n)
/// standard-coloring baseline of experiment E1.
KwResult linial_then_kw(Network& net);

}  // namespace ldc::baselines
