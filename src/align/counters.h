#ifndef ALAE_ALIGN_COUNTERS_H_
#define ALAE_ALIGN_COUNTERS_H_

#include <cstdint>

namespace alae {

// Instrumentation shared by the exact engines; feeds Tables 4/5 and the
// filtering/reusing ratios of Figs 7 and 10.
//
// Cost classes follow the paper's accounting (§7.2, Table 4): a cell whose
// recurrence touches one predecessor (the simplified Eq. 3 used in no-gap
// regions) costs 1, a fork-boundary cell with two live predecessors costs
// 2, and a full affine cell (M, Ga, Gb) costs 3. BWT-SW computes every cell
// at cost 3. EMR cells are assigned, not calculated, and count only as
// accessed.
struct DpCounters {
  uint64_t cells_cost1 = 0;
  uint64_t cells_cost2 = 0;
  uint64_t cells_cost3 = 0;
  uint64_t assigned = 0;        // EMR cells (sa*i, no recurrence)
  uint64_t reused = 0;          // cells copied from an earlier fork (§4)
  uint64_t forks_opened = 0;
  uint64_t forks_skipped_domination = 0;
  // Always 0: no engine implements §3.2.1's bitset global filter
  // (domination replaces it). Kept only because bench/e2e/layers.cc reads
  // it.
  uint64_t forks_skipped_bitset = 0;
  uint64_t trie_nodes_visited = 0;

  // FM-index hot path: single-symbol backward-search steps (pattern/q-gram
  // descent), batched sigma-way extends (one per expanded trie node), and
  // LF walk steps spent locating hit positions.
  uint64_t fm_extends = 0;
  uint64_t fm_extend_alls = 0;
  uint64_t fm_lf_steps = 0;
  // Singleton-chain steps served by a direct text read after the chain
  // crossed an SA sample (each replaces one fm_extend AND the LF walk the
  // hit's Locate would later have spent).
  uint64_t fm_text_steps = 0;

  uint64_t Calculated() const {
    return cells_cost1 + cells_cost2 + cells_cost3;
  }
  uint64_t Accessed() const { return Calculated() + reused + assigned; }
  uint64_t ComputationCost() const {
    return cells_cost1 + 2 * cells_cost2 + 3 * cells_cost3;
  }

  void Merge(const DpCounters& o) {
    cells_cost1 += o.cells_cost1;
    cells_cost2 += o.cells_cost2;
    cells_cost3 += o.cells_cost3;
    assigned += o.assigned;
    reused += o.reused;
    forks_opened += o.forks_opened;
    forks_skipped_domination += o.forks_skipped_domination;
    forks_skipped_bitset += o.forks_skipped_bitset;
    trie_nodes_visited += o.trie_nodes_visited;
    fm_extends += o.fm_extends;
    fm_extend_alls += o.fm_extend_alls;
    fm_lf_steps += o.fm_lf_steps;
    fm_text_steps += o.fm_text_steps;
  }

  void Reset() { *this = DpCounters(); }
};

}  // namespace alae

#endif  // ALAE_ALIGN_COUNTERS_H_
