#include "src/core/alae.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "src/align/dp.h"
#include "src/align/simd_dp.h"
#include "src/core/fork.h"
#include "src/core/reuse.h"

namespace alae {

AlaeIndex::AlaeIndex(Sequence text, FmIndexOptions options)
    : text_(std::move(text)), fm_(text_.Reversed(), options) {}

AlaeIndex::AlaeIndex(Sequence text, FmIndex fm)
    : text_(std::move(text)), fm_(std::move(fm)) {
  // The caller owns the text<->index pairing (content can't be verified
  // cheaply here), but shape mismatches are detectable and would otherwise
  // surface as out-of-bounds text reads deep inside the engines.
  assert(fm_.text_size() == text_.size() &&
         "adopted FM-index was built over a text of a different length");
  assert(fm_.sigma() == text_.sigma() &&
         "adopted FM-index was built over a different alphabet");
}

Alae::Alae(const AlaeIndex& index, AlaeConfig config)
    : index_(index), config_(config) {}

// ---------------------------------------------------------------------------
// AlaeQueryPlan
// ---------------------------------------------------------------------------

AlaeQueryPlan::AlaeQueryPlan(Sequence query, const ScoringScheme& scheme,
                             int32_t threshold, const AlaeConfig& config)
    : query_(std::move(query)),
      scheme_(scheme),
      threshold_(threshold),
      config_(config),
      filters_(scheme, static_cast<int64_t>(query_.size()), threshold, config),
      gram_table_(query_, filters_.q()) {
  // The anchoring work list: the distinct grams in first-occurrence order,
  // identical for every index the plan runs against. A run's first
  // position is its smallest, so sweeping the columns in order and keeping
  // each run at its first position lists the runs without a sort.
  if (gram_table_.size() > 0) {
    run_at_.resize(query_.size() - filters_.q() + 1);
    for (size_t run = 0; run < gram_table_.size(); ++run) {
      for (int32_t j : gram_table_.occurrences(run)) {
        run_at_[static_cast<size_t>(j)] = static_cast<int32_t>(run);
      }
    }
    grams_.reserve(gram_table_.size());
    for (size_t j = 0; j < run_at_.size(); ++j) {
      const int32_t run = run_at_[j];
      if (gram_table_.occurrences(static_cast<size_t>(run))[0] ==
          static_cast<int32_t>(j)) {
        grams_.push_back({static_cast<int32_t>(j), run});
      }
    }
  }
  profile_ = BuildDeltaProfile(scheme_, query_);
  if (config_.reuse) query_lcp_ = std::make_unique<LcpIndex>(query_);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

// The engine is written over `L` index lanes: the fused sharded execution
// (Alae::RunSharded) walks the union of the lanes' suffix tries, paying the
// fork DP once per distinct path while each lane pays only range extension
// and hit location. The single-index Run is the L == 1 special case of the
// same code.
class Alae::Engine {
 public:
  Engine(const std::vector<const AlaeIndex*>& indexes,
         const AlaeQueryPlan& plan, const CancelToken* cancel)
      : scan_(cancel),
        indexes_(indexes),
        config_(plan.config()),
        query_(plan.query()),
        scheme_(plan.scheme()),
        m_(static_cast<int64_t>(plan.query().size())),
        threshold_(plan.threshold()),
        filters_(plan.filters()),
        gram_table_(plan.gram_table()),
        grams_(plan.grams()),
        run_at_(plan.run_at()),
        profile_(plan.profile()),
        query_lcp_(plan.query_lcp()),
        reuse_group_(config_.reuse ? query_lcp_ : nullptr) {
    const size_t lanes = indexes_.size();
    n_.reserve(lanes);
    fms_.reserve(lanes);
    cursors_.reserve(lanes);
    for (const AlaeIndex* index : indexes_) {
      n_.push_back(index->text_size());
      fms_.push_back(&index->fm());
      cursors_.emplace_back(index->fm());
      texts_.push_back(index->text().symbols().data());
    }
    results_.resize(lanes);
  }

  void Run(std::vector<ResultCollector>* results, AlaeRunStats* stats);

 private:
  struct Frame {
    // Live lanes only, as parallel arrays: lane ids (ascending) and their
    // nonempty SA ranges. A lane whose range empties simply drops out of
    // the child frame, so deep in the union trie — where a path typically
    // survives in one shard — per-node work degrades to the single-index
    // engine's.
    std::vector<uint32_t> lanes;
    std::vector<SaRange> ranges;
    // Lanes whose singleton chain crossed an SA sample and got converted
    // to direct text descent: pos_vals[i] is the lane-local END position
    // of this node's (unique) occurrence. Extension is one text read —
    // the next matched symbol is text[pos+1] — and hit flushing needs no
    // Locate at all. Results are identical to keeping the lane on FM
    // extends; only the work per step changes.
    std::vector<uint32_t> pos_lanes;
    std::vector<int64_t> pos_vals;
    // Expansion result, bucketed by symbol: child_lanes[c]/child_ranges[c]
    // are exactly child c's live-lane arrays, built in ONE pass over this
    // node's lanes (a singleton lane contributes one bucket push, not a
    // sigma-wide block) and swapped into the child frame when its symbol
    // comes up. Buckets are (re)initialised at expansion time, so
    // ResetFrame leaves them alone.
    std::vector<std::vector<uint32_t>> child_lanes;
    std::vector<std::vector<SaRange>> child_ranges;
    std::vector<std::vector<uint32_t>> child_pos_lanes;
    std::vector<std::vector<int64_t>> child_pos_vals;
    std::vector<DiagFork> diag;  // forks in the cheap EMR/NGR phase
    std::vector<ForkState> gap;  // forks with open gap regions
    // Lazily located text end positions, parallel to `lanes`.
    std::vector<std::vector<int64_t>> ends;
    bool located = false;
    Symbol next_child = 0;
  };

  // One (column, score) hit discovered while computing a child row.
  struct PendingHit {
    int32_t col;    // 0-based query end index
    int32_t score;
  };

  // Upper bound on per-node child fan-out (alphabet codes); DNA uses 4-5,
  // protein ~21 — 64 leaves generous headroom for custom alphabets.
  static constexpr size_t kMaxStride = 64;

  size_t lanes() const { return indexes_.size(); }
  const FmIndex& fm(size_t lane) const { return *fms_[lane]; }
  // The fused walk's rank calls all go through per-lane cursors: view and
  // dispatch are resolved once per run, not once per call — at one-core
  // L2-resident shard sizes the wrapper overhead is a measurable slice of
  // every per-lane operation.
  const FmIndex::RankCursor& cur(size_t lane) const { return cursors_[lane]; }

  void ProcessGram(size_t run);
  // Fills dominated_: one ExtendBatch per lane over the anchors still
  // dominated in every earlier lane.
  void AnchorDomination();

  ForkState OpenGapRegion(int32_t anchor, int64_t row, int32_t fgoe_score);

  // A gap-fork row step, split around its kernel call so two sibling
  // forks' windows can issue as ONE paired kernel (16 int16 lanes for the
  // 1..8-cell rows that dominate deep descent). BeginGapRow builds the
  // reuse prefix and the RowSpec; the caller runs the kernel (single or
  // paired); FinishGapRow consumes the stats and runs the scalar
  // boundary/tail cells. Begin + ComputeRowAuto + Finish is exactly the
  // old single-fork step.
  struct GapStep {
    ForkState next;
    const ForkState* fork = nullptr;
    const int32_t* prof = nullptr;  // symbol profile lane at fgoe_col
    bool has_kernel = false;
    simd::RowSpec spec;
    simd::RowStats stats;
    int64_t start = 0;
    int64_t copied_cnt = 0;   // cells taken verbatim from the reuse source
    int32_t chain_gb = 0;     // raw chain state entering the kernel window
    int32_t chain_mu = 0;
  };
  void BeginGapRow(const ForkState& fork, Symbol c, int64_t row,
                   const ForkState* source, int slot, GapStep* step);
  ForkState FinishGapRow(GapStep* step, int64_t row);

  // Finds a reuse source among this row's already-updated gap forks.
  static const ForkState* FindSource(const std::vector<ForkState>& updated,
                                     int32_t anchor) {
    if (anchor < 0) return nullptr;
    for (const ForkState& f : updated) {
      if (f.anchor == anchor) return &f;
    }
    return nullptr;
  }

  void NoteCell(int32_t col, int32_t score) {
    if (score >= threshold_) pending_hits_.push_back({col, score});
  }

  // Flushes pending hits for a node whose paths end at depth `depth`.
  void FlushNode(Frame* frame, int64_t depth);

  // Cooperative cancellation: ticked per trie node and per DP-row cell
  // block, so a fired token stops the walk within ~one stride of work.
  CancelScan scan_;

  const std::vector<const AlaeIndex*>& indexes_;
  std::vector<const FmIndex*> fms_;  // per-lane, hoisted out of hot loops
  std::vector<FmIndex::RankCursor> cursors_;  // parallel to fms_
  const AlaeConfig& config_;
  const Sequence& query_;
  const ScoringScheme& scheme_;
  std::vector<int64_t> n_;  // per-lane text length
  std::vector<const Symbol*> texts_;  // per-lane original (forward) text
  int64_t m_;
  int32_t threshold_;
  // Query-side compiled state, all borrowed from the (immutable) plan.
  const FilterContext& filters_;
  const QGramTable& gram_table_;
  const std::vector<AlaeQueryPlan::Gram>& grams_;
  const std::vector<int32_t>& run_at_;
  const std::vector<int32_t>& profile_;
  // Every run's subtree root in every lane, lane-major (lane l, run r at
  // l * runs + r): the anchoring descent extends each lane's runs in place.
  std::vector<SaRange> gram_roots_;
  // Per query column: 1 when the gram there is dominated by the preceding
  // query symbol in every lane. Empty when domination is off.
  std::vector<uint8_t> dominated_;
  const LcpIndex* query_lcp_;
  RowReuseGroup reuse_group_;

  std::vector<ResultCollector> results_;  // one per lane
  DpCounters counters_;
  uint64_t anchors_considered_ = 0;
  uint64_t grams_searched_ = 0;

  std::vector<PendingHit> pending_hits_;

  // Buffers for the one-cell-shifted diagonal view of the previous row —
  // one per in-flight GapStep, so a pending pair cannot alias.
  std::vector<int32_t> scratch_diag_m_[2];

  // Retired gap-row buffers, recycled so the DFS does not pay three heap
  // allocations per stepped row.
  std::vector<simd::DpRow> row_pool_;

  void AcquireRow(simd::DpRow* row) {
    if (!row_pool_.empty()) {
      *row = std::move(row_pool_.back());
      row_pool_.pop_back();
      row->Clear();
      row->lo = 0;
    }
  }
  void ReleaseRow(simd::DpRow&& row) { row_pool_.push_back(std::move(row)); }

  // The DFS stack as persistent slots: depth is bounded by Lmax, frames
  // are never moved or destroyed mid-run, and a slot's vectors keep their
  // capacity across pushes at the same depth — steady-state descent does
  // no frame allocation at all. dfs_stack_[0] is the current gram's root.
  std::vector<Frame> dfs_stack_;

  static void ResetFrame(Frame* frame) {
    frame->lanes.clear();
    frame->ranges.clear();
    frame->pos_lanes.clear();
    frame->pos_vals.clear();
    // child_lanes/child_ranges are cleared by the expansion pass itself.
    frame->diag.clear();
    frame->gap.clear();
    frame->ends.clear();
    frame->located = false;
    frame->next_child = 0;
  }
};

void Alae::Engine::Run(std::vector<ResultCollector>* results,
                       AlaeRunStats* stats) {
  const int32_t q = filters_.q();
  bool any_lane = false;
  for (int64_t n : n_) any_lane = any_lane || n >= q;
  if (m_ >= q && any_lane) {
    // Size the persistent DFS slots once: children sit at stack level
    // depth - q, and depth never exceeds lmax.
    const size_t max_levels = static_cast<size_t>(
        std::max<int64_t>(1, filters_.lmax() - q + 2));
    if (dfs_stack_.size() < max_levels) dfs_stack_.resize(max_levels);

    // Root anchoring: locate every distinct gram's subtree in every lane,
    // descending the gram set in key order as a prefix tree. The walk is
    // level-order: at depth k, every gram that has diverged from its
    // key-order predecessor (lcp <= k) owns a tree node and extends its
    // range by one symbol; a gram whose lcp equals k diverges now and is
    // seeded from the nearest earlier owner, with which it shares the
    // depth-k prefix. Each level is then issued as one ExtendBatch per
    // lane behind a cross-lane prefetch pass — the (gram x lane) boundary
    // blocks of a level are independent fetches, so batching overlaps the
    // misses that the old lane-major descent paid one serial chain at a
    // time. This is what keeps the fused walk's per-lane anchoring cost
    // roughly flat in the shard count.
    const size_t num_lanes = lanes();
    const size_t num_slots = gram_table_.size();
    // Seed source per slot: the nearest earlier slot with lcp <= this
    // slot's lcp. Every slot in between shares more than lcp symbols with
    // its own predecessor, hence (transitively) the whole depth-lcp prefix.
    std::vector<int32_t> seed_from(num_slots, -1);
    for (size_t s = 1; s < num_slots; ++s) {
      int32_t s2 = static_cast<int32_t>(s) - 1;
      while (gram_table_.lcp(static_cast<size_t>(s2)) > gram_table_.lcp(s)) {
        --s2;
      }
      seed_from[s] = s2;
    }
    // Per-(lane, slot) ranges, lane-major so each lane's level batch is
    // one contiguous in-place ExtendBatch. Unseeded slots sit at the
    // empty range, which batch-extends to empty for free.
    gram_roots_.assign(num_lanes * num_slots, SaRange{});
    std::vector<Symbol> level_syms(num_slots, 0);
    for (int32_t k = 0; k < q && !scan_.fired(); ++k) {
      for (size_t s = 0; s < num_slots; ++s) {
        const int32_t lcp = gram_table_.lcp(s);
        if (lcp > k) continue;  // still aliasing an earlier gram's node
        if (lcp == k) {
          for (size_t l = 0; l < num_lanes; ++l) {
            gram_roots_[l * num_slots + s] =
                s == 0 ? (n_[l] >= q ? fm(l).FullRange() : SaRange{})
                       : gram_roots_[l * num_slots +
                                     static_cast<size_t>(seed_from[s])];
          }
        }
        level_syms[s] =
            query_[static_cast<size_t>(gram_table_.occurrences(s)[0] + k)];
      }
      int64_t live = 0;
      for (size_t l = 0; l < num_lanes; ++l) {
        const SaRange* lane_ranges = gram_roots_.data() + l * num_slots;
        for (size_t s = 0; s < num_slots; ++s) {
          if (!lane_ranges[s].Empty()) {
            cur(l).PrefetchRange(lane_ranges[s]);
            ++live;
          }
        }
      }
      if (scan_.Tick(std::max<int64_t>(live, 1))) break;
      for (size_t l = 0; l < num_lanes; ++l) {
        SaRange* lane_ranges = gram_roots_.data() + l * num_slots;
        cur(l).ExtendBatch(lane_ranges, level_syms.data(), lane_ranges,
                          static_cast<int>(num_slots));
      }
      counters_.fm_extends += static_cast<uint64_t>(live);
    }
    if (config_.domination_filter && !scan_.fired()) AnchorDomination();
    for (size_t g = 0; g < grams_.size() && !scan_.fired(); ++g) {
      ProcessGram(static_cast<size_t>(grams_[g].run));
    }
  }
  if (stats != nullptr) {
    stats->counters = counters_;
    stats->anchors_considered = anchors_considered_;
    stats->grams_searched = grams_searched_;
  }
  *results = std::move(results_);
}

void Alae::Engine::AnchorDomination() {
  // The gram g at column j is dominated by c = P[j-1] in a lane exactly
  // when occ(c·g) == occ(g) > 0 there, and c·g is gram(j-1)'s root extended
  // by P[j+q-1]. A skip needs every lane, so an anchor is a candidate only
  // where both grams occur in every lane, and each lane extends just the
  // candidates every earlier lane dominated.
  const size_t num_lanes = lanes();
  const size_t num_slots = gram_table_.size();
  const size_t q = static_cast<size_t>(filters_.q());
  std::vector<int32_t> candidates;
  for (size_t j = 1; j < run_at_.size(); ++j) {
    bool all = true;
    for (size_t l = 0; l < num_lanes && all; ++l) {
      const SaRange* roots = gram_roots_.data() + l * num_slots;
      all = !roots[run_at_[j]].Empty() && !roots[run_at_[j - 1]].Empty();
    }
    if (all) candidates.push_back(static_cast<int32_t>(j));
  }
  std::vector<SaRange> ranges;
  std::vector<Symbol> syms;
  for (size_t l = 0; l < num_lanes && !candidates.empty(); ++l) {
    const SaRange* roots = gram_roots_.data() + l * num_slots;
    ranges.clear();
    syms.clear();
    for (int32_t j : candidates) {
      ranges.push_back(roots[run_at_[static_cast<size_t>(j) - 1]]);
      syms.push_back(query_[static_cast<size_t>(j) + q - 1]);
      cur(l).PrefetchRange(ranges.back());
    }
    cur(l).ExtendBatch(ranges.data(), syms.data(), ranges.data(),
                       static_cast<int>(ranges.size()));
    counters_.fm_extends += ranges.size();
    size_t kept = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const int32_t j = candidates[i];
      if (ranges[i].Count() == roots[run_at_[static_cast<size_t>(j)]].Count()) {
        candidates[kept++] = j;
      }
    }
    candidates.resize(kept);
  }
  dominated_.assign(run_at_.size(), 0);
  for (int32_t j : candidates) dominated_[static_cast<size_t>(j)] = 1;
}

void Alae::Engine::ProcessGram(size_t run) {
  const std::span<const int32_t> anchors = gram_table_.occurrences(run);
  const int32_t q = filters_.q();
  const size_t num_lanes = lanes();
  ++grams_searched_;

  // The gram's subtree root in every lane was anchored up front (Run's
  // prefix-tree descent); lanes where the gram does not occur drop out
  // here and are never touched again for this gram.
  Frame& root = dfs_stack_[0];
  ResetFrame(&root);
  for (size_t l = 0; l < num_lanes; ++l) {
    const SaRange& range = gram_roots_[l * gram_table_.size() + run];
    if (range.Empty()) continue;
    root.lanes.push_back(static_cast<uint32_t>(l));
    root.ranges.push_back(range);
  }
  if (root.lanes.empty()) return;

  std::vector<DiagFork> root_forks;
  root_forks.reserve(anchors.size());
  for (int32_t anchor : anchors) {
    ++anchors_considered_;
    // Skipping is a work-pruning choice, never a correctness one: the
    // dominating fork reproduces the skipped fork's hits.
    if (!dominated_.empty() && dominated_[static_cast<size_t>(anchor)]) {
      ++counters_.forks_skipped_domination;
      continue;
    }
    root_forks.push_back({anchor, scheme_.sa * q, -1, 0});
    ++counters_.forks_opened;
  }
  // Lemma 2 reuse assignments: each fork copies from the earlier anchor
  // whose query suffix shares the longest prefix (anchors are ascending).
  if (config_.reuse && query_lcp_ != nullptr) {
    for (size_t k = 1; k < root_forks.size(); ++k) {
      int64_t best = 0;
      for (size_t j = 0; j < k; ++j) {
        int64_t l = static_cast<int64_t>(query_lcp_->Lcp(
            static_cast<size_t>(root_forks[j].anchor),
            static_cast<size_t>(root_forks[k].anchor)));
        if (l > best) {
          best = l;
          root_forks[k].src_anchor = root_forks[j].anchor;
        }
      }
      root_forks[k].shared_len = static_cast<int32_t>(best);
      if (best <= q) root_forks[k].src_anchor = -1;  // nothing beyond EMR
    }
  }
  if (root_forks.empty()) return;
  counters_.assigned +=
      static_cast<uint64_t>(q) * root_forks.size();  // EMR cells

  // Root-level bookkeeping: EMR scores can already be results when
  // q == ceil(H/sa).
  root.diag = std::move(root_forks);
  pending_hits_.clear();
  for (const DiagFork& fork : root.diag) {
    for (int32_t i = 1; i <= q; ++i) {
      NoteCell(fork.anchor + i - 1, scheme_.sa * i);
    }
  }
  // EMR hits end at depth-relative rows; FlushNode records end positions
  // for the node's full depth q, so translate per-row hits here instead.
  if (!pending_hits_.empty()) {
    for (size_t i_lane = 0; i_lane < root.lanes.size(); ++i_lane) {
      const size_t l = root.lanes[i_lane];
      std::vector<int64_t> ends = fm(l).Locate(
          root.ranges[i_lane], &counters_.fm_lf_steps, scan_.token());
      for (int64_t& p : ends) p = n_[l] - 1 - p;  // end of the q-char path
      for (const PendingHit& hit : pending_hits_) {
        // hit.col - fork-relative row encodes the cell's own depth: the
        // cell at EMR row i ends q - i characters before the path end.
        // (col = anchor + i - 1  =>  i = col - anchor + 1; we stored col
        // absolute, so recover i from the score: score = sa * i.)
        int32_t i = hit.score / scheme_.sa;
        for (int64_t end : ends) {
          results_[l].Add(end - (q - i), hit.col, hit.score,
                          end - (q - i) - i + 1);
        }
      }
    }
    pending_hits_.clear();
  }

  // Iterative DFS over the subtree (the union of the lanes' subtrees: a
  // node is expanded while any lane's range is nonempty, and the fork DP —
  // a function of the path characters and the query only — is shared).
  // Frames live in persistent stack slots (dfs_stack_[level]); "pop" just
  // lowers the level, leaving the slot's buffers for the next push there.
  size_t level = 1;
  const int sigma = query_.sigma();
  // ExtendAll fills one entry per *index* symbol; stride for whichever
  // alphabet is widest so a query/index mismatch cannot overflow.
  size_t stride = static_cast<size_t>(sigma);
  for (size_t l = 0; l < num_lanes; ++l) {
    stride = std::max(stride, static_cast<size_t>(fm(l).sigma()));
  }
  assert(stride <= kMaxStride && "alphabet wider than the fan-out bound");

  while (level > 0) {
    // Cooperative abort: one tick per node visit (DP cells are accounted
    // inside FinishGapRow); a fired token abandons the walk mid-subtree —
    // results gathered so far stay valid, the rest never materialise.
    if (scan_.Tick()) break;
    Frame& top = dfs_stack_[level - 1];
    if (top.next_child >= sigma) {
      for (ForkState& fork : top.gap) ReleaseRow(std::move(fork.cells));
      top.gap.clear();
      --level;
      continue;
    }
    int64_t depth = static_cast<int64_t>(q) + static_cast<int64_t>(level);
    if (top.next_child == 0) {
      // First visit: the children's depth is fixed for the whole frame, so
      // the length filter prunes all of them at once, and one batched
      // ExtendAll per live lane over the two boundary blocks replaces
      // sigma single-symbol Extend calls.
      if (depth > filters_.lmax()) {
        for (ForkState& fork : top.gap) ReleaseRow(std::move(fork.cells));
        top.gap.clear();
        --level;
        continue;
      }
      if (top.child_lanes.size() < stride) {
        top.child_lanes.resize(stride);
        top.child_ranges.resize(stride);
        top.child_pos_lanes.resize(stride);
        top.child_pos_vals.resize(stride);
      }
      for (size_t c = 0; c < stride; ++c) {
        top.child_lanes[c].clear();
        top.child_ranges[c].clear();
        top.child_pos_lanes[c].clear();
        top.child_pos_vals[c].clear();
      }
      SaRange block[kMaxStride];
      if (top.lanes.size() > 1) {
        // Cross-lane prefetch: each live lane is about to rank its
        // boundary block(s); issuing every lane's fetch up front lets the
        // misses overlap instead of serialising lane by lane. Singleton
        // ranges only touch the block holding their one row.
        for (size_t i = 0; i < top.lanes.size(); ++i) {
          const SaRange& r = top.ranges[i];
          if (r.Count() == 1) {
            cur(top.lanes[i]).PrefetchRow(r.lo);
          } else {
            cur(top.lanes[i]).PrefetchRange(r);
          }
        }
      }
      for (size_t i = 0; i < top.lanes.size(); ++i) {
        const SaRange& r = top.ranges[i];
        const uint32_t lane = top.lanes[i];
        const FmIndex::RankCursor& cursor = cur(lane);
        if (r.Count() == 1) {
          // Deep nodes are mostly singleton chains; one access + one rank
          // (and one bucket push) replaces the two all-symbol boundary
          // ranks and the sigma-wide child scan.
          Symbol only = 0;
          SaRange child;
          if (cursor.ExtendSingleton(r.lo, &only, &child)) {
            // The chain visits consecutive text positions, so it crosses
            // an SA sample within sample_rate steps; the moment the child
            // row carries one, the lane's position is known for free and
            // the rest of the chain becomes direct text reads.
            const int64_t p = cursor.SampledPosition(child.lo);
            if (p >= 0) {
              top.child_pos_lanes[only].push_back(lane);
              top.child_pos_vals[only].push_back(n_[lane] - 1 - p);
            } else {
              top.child_lanes[only].push_back(lane);
              top.child_ranges[only].push_back(child);
            }
          }
          ++counters_.fm_extends;
        } else {
          cursor.ExtendAll(r, block);
          const size_t index_sigma = static_cast<size_t>(cursor.sigma());
          for (size_t c = 0; c < index_sigma; ++c) {
            if (block[c].Empty()) continue;
            if (block[c].Count() == 1) {
              const int64_t p = cursor.SampledPosition(block[c].lo);
              if (p >= 0) {
                top.child_pos_lanes[c].push_back(lane);
                top.child_pos_vals[c].push_back(n_[lane] - 1 - p);
                continue;
              }
            }
            top.child_lanes[c].push_back(lane);
            top.child_ranges[c].push_back(block[c]);
          }
          ++counters_.fm_extend_alls;
        }
      }
      // Converted lanes: one sequential text read each — the next matched
      // symbol is the one after the current occurrence's end — and the
      // lane dies when the match runs off the text.
      for (size_t i = 0; i < top.pos_lanes.size(); ++i) {
        const uint32_t lane = top.pos_lanes[i];
        const int64_t nt = top.pos_vals[i] + 1;
        if (nt >= n_[lane]) continue;
        const Symbol sym = texts_[lane][nt];
        top.child_pos_lanes[sym].push_back(lane);
        top.child_pos_vals[sym].push_back(nt);
        ++counters_.fm_text_steps;
      }
    }
    Symbol c = top.next_child++;
    // The expansion pass bucketed child c's live lanes already; an empty
    // bucket means the symbol extends nowhere and the candidate dies
    // unpriced.
    if (top.child_lanes[c].empty() && top.child_pos_lanes[c].empty()) continue;

    // Evolve every fork by one row. Gap forks go first (their reuse
    // sources are earlier gap forks), then the cheap diagonal forks, whose
    // FGOE transitions append new gap regions; within each category anchor
    // order guarantees reuse sources are updated before dependants.
    pending_hits_.clear();
    reuse_group_.NewRow();
    Frame& child = dfs_stack_[level];
    ResetFrame(&child);
    child.lanes.swap(top.child_lanes[c]);
    child.ranges.swap(top.child_ranges[c]);
    child.pos_lanes.swap(top.child_pos_lanes[c]);
    child.pos_vals.swap(top.child_pos_vals[c]);
    child.diag.reserve(top.diag.size());
    child.gap.reserve(top.gap.size());
    // Step forks two at a time: both pending kernel windows issue as one
    // ComputeRowPair call (one 16-lane int16 kernel when both rows are
    // narrow). Finishing in fork order keeps child.gap and the hit stream
    // identical to the sequential step. The only ordering hazard is Lemma-3
    // reuse — a fork whose source is still pending would miss its prefix
    // copy — so such a fork forces a flush first.
    {
      GapStep steps[2];
      size_t npend = 0;
      auto flush = [&]() {
        if (npend == 2 && steps[0].has_kernel && steps[1].has_kernel) {
          simd::ComputeRowPair(steps[0].spec, steps[1].spec, &steps[0].stats,
                               &steps[1].stats);
        } else {
          for (size_t j = 0; j < npend; ++j) {
            if (steps[j].has_kernel) {
              simd::ComputeRowAuto(steps[j].spec, &steps[j].stats);
            }
          }
        }
        for (size_t j = 0; j < npend; ++j) {
          ForkState next = FinishGapRow(&steps[j], depth);
          if (!next.cells.Empty()) {
            child.gap.push_back(std::move(next));
          } else {
            ReleaseRow(std::move(next.cells));
          }
        }
        npend = 0;
      };
      for (const ForkState& fork : top.gap) {
        if (npend > 0 && fork.reuse_src_anchor >= 0) {
          bool src_pending = false;
          for (size_t j = 0; j < npend; ++j) {
            if (steps[j].next.anchor == fork.reuse_src_anchor) {
              src_pending = true;
            }
          }
          if (src_pending) flush();
        }
        BeginGapRow(fork, c, depth,
                    FindSource(child.gap, fork.reuse_src_anchor),
                    static_cast<int>(npend), &steps[npend]);
        if (++npend == 2) flush();
      }
      flush();
    }
    const int32_t fgoe_threshold = filters_.fgoe_threshold();
    for (const DiagFork& fork : top.diag) {
      int64_t col = static_cast<int64_t>(fork.anchor) + depth - 1;  // 0-based
      if (col >= m_) continue;  // Diagonal ran off the query.
      // Lemma 2: within the shared prefix, this fork's diagonal score
      // equals the already-updated source fork's (anchor order guarantees
      // the source was stepped first). Copy instead of computing.
      int32_t score;
      const DiagFork* src = nullptr;
      if (fork.src_anchor >= 0 && depth <= fork.shared_len) {
        auto it = std::lower_bound(
            child.diag.begin(), child.diag.end(), fork.src_anchor,
            [](const DiagFork& f, int32_t a) { return f.anchor < a; });
        if (it != child.diag.end() && it->anchor == fork.src_anchor) {
          src = &*it;
        }
      }
      if (src != nullptr) {
        score = src->score;
        ++counters_.reused;
      } else {
        score =
            fork.score + scheme_.Delta(c, query_[static_cast<size_t>(col)]);
        ++counters_.cells_cost1;  // Simplified recurrence, Eq. 3.
        if (score <= filters_.Bound(depth, col)) continue;
      }
      NoteCell(static_cast<int32_t>(col), score);
      if (score > fgoe_threshold) {
        child.gap.push_back(OpenGapRegion(fork.anchor, depth, score));
      } else {
        child.diag.push_back(
            {fork.anchor, score, fork.src_anchor, fork.shared_len});
      }
    }
    ++counters_.trie_nodes_visited;
    // A child with no live forks never becomes the top; its slot (and any
    // buffers it grew) is simply reused by the next push at this level.
    if (child.diag.empty() && child.gap.empty()) continue;

    FlushNode(&child, depth);
    ++level;
  }
}

void Alae::Engine::FlushNode(Frame* frame, int64_t depth) {
  if (pending_hits_.empty()) return;
  if (!frame->located) {
    frame->ends.resize(frame->lanes.size());
    for (size_t i = 0; i < frame->lanes.size(); ++i) {
      frame->ends[i] = fm(frame->lanes[i])
                           .Locate(frame->ranges[i], &counters_.fm_lf_steps,
                                   scan_.token());
      for (int64_t& p : frame->ends[i]) p = n_[frame->lanes[i]] - 1 - p;
    }
    frame->located = true;
  }
  for (size_t i = 0; i < frame->lanes.size(); ++i) {
    ResultCollector& out = results_[frame->lanes[i]];
    for (const PendingHit& hit : pending_hits_) {
      for (int64_t end : frame->ends[i]) {
        out.Add(end, hit.col, hit.score, end - depth + 1);
      }
    }
  }
  // Converted lanes carry their end position outright — no Locate walk.
  for (size_t i = 0; i < frame->pos_lanes.size(); ++i) {
    ResultCollector& out = results_[frame->pos_lanes[i]];
    const int64_t end = frame->pos_vals[i];
    for (const PendingHit& hit : pending_hits_) {
      out.Add(end, hit.col, hit.score, end - depth + 1);
    }
  }
  pending_hits_.clear();
}

ForkState Alae::Engine::OpenGapRegion(int32_t anchor, int64_t row,
                                      int32_t fgoe_score) {
  ForkState next;
  AcquireRow(&next.cells);
  next.anchor = anchor;
  next.phase = ForkState::kGap;
  next.fgoe_row = static_cast<int32_t>(row);
  next.fgoe_col = static_cast<int32_t>(anchor + row - 1);

  RowReuseGroup::Assignment assignment;
  if (config_.reuse) {
    assignment = reuse_group_.Register(next.anchor, next.fgoe_col);
    next.reuse_src_anchor = assignment.source_anchor;
    next.reuse_len = assignment.shared_len;
  }

  // Seed row: the FGOE cell plus its rightward Gb extension entries
  // (paper §3.1.3: from the FGOE we calculate the (l, pi_p + l) extension).
  next.cells.PushCell(fgoe_score, kNegInf, kNegInf);
  int32_t gb = kNegInf;
  const int32_t row_bound = filters_.RowBound(row);
  const int64_t col_cut = filters_.ColCut(row_bound);
  for (int64_t d = 1;; ++d) {
    int64_t col = next.fgoe_col + d;
    if (col >= m_) break;
    gb = std::max(gb + scheme_.ss,
                  next.cells.m[static_cast<size_t>(d - 1)] + scheme_.sg +
                      scheme_.ss);
    ++counters_.cells_cost2;  // Boundary cell: two live inputs.
    int32_t bound = col <= col_cut ? row_bound : filters_.Bound(row, col);
    if (gb <= bound) break;
    next.cells.PushCell(gb, kNegInf, gb);
    NoteCell(static_cast<int32_t>(col), gb);
  }
  return next;
}

void Alae::Engine::BeginGapRow(const ForkState& fork, Symbol c, int64_t row,
                               const ForkState* source, int slot,
                               GapStep* step) {
  step->fork = &fork;
  step->has_kernel = false;
  step->copied_cnt = 0;
  // The kernels merge into RowStats (the scalar tail extends what a vector
  // prefix recorded), so a reused pairing slot must start from a clean one —
  // a stale alive window would make FinishGapRow read past this row's cells.
  step->stats = simd::RowStats();
  ForkState& next = step->next;
  next = ForkState();
  AcquireRow(&next.cells);
  next.anchor = fork.anchor;
  next.fgoe_col = fork.fgoe_col;
  next.fgoe_row = fork.fgoe_row;
  next.reuse_src_anchor = fork.reuse_src_anchor;
  next.reuse_len = fork.reuse_len;

  const int32_t ss = scheme_.ss;
  const int32_t open_ext = scheme_.sg + scheme_.ss;
  const int64_t prev_lo = fork.cells.lo;
  const int64_t prev_hi = fork.cells.hi();
  const int32_t row_bound = filters_.RowBound(row);
  const int64_t col_base = filters_.ColTermBase();
  const int32_t col_step = filters_.ColTermStep();

  // Copyable prefix from the reuse source: offsets below the shared query
  // length evolve identically (Lemma 3), so take them verbatim — three
  // SoA block copies.
  bool copied = false;
  if (source != nullptr && config_.reuse) {
    int64_t src_lo = source->cells.lo;
    int64_t hi = std::min(source->cells.hi(), fork.reuse_len - 1);
    if (src_lo <= hi) {
      const int64_t cnt = hi - src_lo + 1;
      next.cells.lo = src_lo;
      next.cells.m.assign(source->cells.m.begin(),
                          source->cells.m.begin() + cnt);
      next.cells.ga.assign(source->cells.ga.begin(),
                           source->cells.ga.begin() + cnt);
      next.cells.gb.assign(source->cells.gb.begin(),
                           source->cells.gb.begin() + cnt);
      counters_.reused += static_cast<uint64_t>(cnt);
      // Hits inside the copied prefix are noted by FinishGapRow, so the
      // hit stream stays per-fork contiguous under pairing.
      step->copied_cnt = cnt;
      copied = true;
    }
  }

  // Candidate window: offsets with previous-row inputs run through
  // prev_hi + 1. The kernel sweeps the fully-in-range part [start, prev_hi]
  // with direct pointers into the previous row's lanes (only the diagonal
  // view can need a one-cell shift copy); the prev_hi + 1 cell, whose only
  // previous-row input is the diagonal, is folded into the scalar tail.
  int64_t start =
      copied ? next.cells.lo + next.cells.Size() : prev_lo;
  if (!copied) next.cells.lo = start;
  const int64_t max_d = m_ - 1 - next.fgoe_col;  // last offset inside P
  const int64_t kend = std::min(prev_hi, max_d);

  int32_t chain_gb = kNegInf;  // raw chain state of cell (start - 1)
  int32_t chain_mu = kNegInf;
  if (!next.cells.Empty()) {
    chain_gb = next.cells.gb.back();
    chain_mu = next.cells.m.back();
  }

  const int32_t* prof = profile_.data() +
                        static_cast<size_t>(c) * static_cast<size_t>(m_) +
                        static_cast<size_t>(next.fgoe_col);
  step->prof = prof;
  const int64_t len = kend - start + 1;
  if (len > 0) {
    simd::RowSpec& spec = step->spec;
    spec.prev_m = fork.cells.m.data() + (start - prev_lo);
    spec.prev_ga = fork.cells.ga.data() + (start - prev_lo);
    if (start - 1 >= prev_lo) {
      spec.prev_diag_m = fork.cells.m.data() + (start - 1 - prev_lo);
    } else {
      // start == prev_lo: shift the M lane right by one, dead on the left.
      std::vector<int32_t>& scratch = scratch_diag_m_[slot];
      scratch.resize(static_cast<size_t>(len));
      scratch[0] = kNegInf;
      std::copy(fork.cells.m.begin(), fork.cells.m.begin() + (len - 1),
                scratch.begin() + 1);
      spec.prev_diag_m = scratch.data();
    }
    spec.delta = prof + start;
    const size_t base = next.cells.m.size();
    next.cells.m.resize(base + static_cast<size_t>(len));
    next.cells.ga.resize(base + static_cast<size_t>(len));
    next.cells.gb.resize(base + static_cast<size_t>(len));
    spec.out_m = next.cells.m.data() + base;
    spec.out_ga = next.cells.ga.data() + base;
    spec.out_gb = next.cells.gb.data() + base;
    spec.len = len;
    spec.gap_extend = ss;
    spec.gap_open_extend = open_ext;
    spec.gb_init = std::max(chain_gb + ss, chain_mu + open_ext);
    spec.bound_base = row_bound;
    spec.bound0 = static_cast<int32_t>(std::max<int64_t>(
        col_base + (next.fgoe_col + start) * col_step, kNegInf));
    spec.bound_step = col_step;
    step->has_kernel = true;
  }
  step->start = start;
  step->chain_gb = chain_gb;
  step->chain_mu = chain_mu;
}

ForkState Alae::Engine::FinishGapRow(GapStep* step, int64_t row) {
  const ForkState& fork = *step->fork;
  ForkState& next = step->next;
  const int32_t ss = scheme_.ss;
  const int32_t open_ext = scheme_.sg + scheme_.ss;
  const int64_t prev_lo = fork.cells.lo;
  const int64_t prev_hi = fork.cells.hi();
  const int32_t row_bound = filters_.RowBound(row);
  const int64_t col_base = filters_.ColTermBase();
  const int32_t col_step = filters_.ColTermStep();
  // Bound(row, col) in the kernel's affine decomposition, for the scalar
  // cells computed outside the kernel call.
  const auto bound_at = [row_bound, col_base, col_step](int64_t col) {
    return static_cast<int32_t>(std::max<int64_t>(
        row_bound, std::max<int64_t>(col_base + col * col_step, kNegInf)));
  };
  bool any_alive = false;

  if (step->copied_cnt > 0) {
    const int64_t lo = next.cells.lo;
    for (int64_t d = lo; d < lo + step->copied_cnt; ++d) {
      int32_t mv = next.cells.m[static_cast<size_t>(d - lo)];
      int64_t col = next.fgoe_col + d;
      if (mv != kNegInf && col < m_) {
        any_alive = true;
        NoteCell(static_cast<int32_t>(col), mv);
      }
    }
  }

  const int64_t start = step->start;
  const int64_t hi_candidate = prev_hi + 1;
  const int64_t max_d = m_ - 1 - next.fgoe_col;  // last offset inside P
  const int32_t* prof = step->prof;
  int32_t chain_gb = step->chain_gb;
  int32_t chain_mu = step->chain_mu;
  if (step->has_kernel) {
    const simd::RowSpec& spec = step->spec;
    const simd::RowStats& stats = step->stats;
    const int64_t len = spec.len;
    scan_.Tick(len);  // account the kernel's cells toward the cancel stride
    if (start == 0) {
      ++counters_.cells_cost2;  // Left boundary: no Gb/diag inputs.
      counters_.cells_cost3 += static_cast<uint64_t>(len - 1);
    } else {
      counters_.cells_cost3 += static_cast<uint64_t>(len);
    }
    if (stats.first_alive >= 0) {
      any_alive = true;
      for (int64_t k = stats.first_alive; k <= stats.last_alive; ++k) {
        int32_t mv = spec.out_m[k];
        if (mv != kNegInf) {
          NoteCell(static_cast<int32_t>(next.fgoe_col + start + k), mv);
        }
      }
    }
    chain_gb = stats.gb_last;
    chain_mu = stats.mu_last;
  }

  // The prev_hi + 1 candidate: its previous-row input is the diagonal only.
  if (start <= hi_candidate && hi_candidate <= max_d) {
    const int64_t d = hi_candidate;
    const int64_t col = next.fgoe_col + d;
    int32_t gb = std::max(chain_gb + ss, chain_mu + open_ext);
    int32_t diag = (d - 1 >= prev_lo && d - 1 <= prev_hi)
                       ? fork.cells.m[static_cast<size_t>(d - 1 - prev_lo)] +
                             prof[col - next.fgoe_col]
                       : kNegInf;
    int32_t mu = std::max(diag, gb);
    int32_t bound = bound_at(col);
    ++counters_.cells_cost3;
    if (mu > bound) {
      NoteCell(static_cast<int32_t>(col), mu);
      any_alive = true;
      next.cells.PushCell(mu, kNegInf, std::max(gb, kNegInf));
    } else {
      next.cells.PushCell(kNegInf, kNegInf, std::max(gb, kNegInf));
    }
    chain_gb = gb;
    chain_mu = mu;
  }

  // Gb spill beyond the candidate window: a pure horizontal chain with no
  // previous-row inputs, stepped scalar. Bounds only grow along the row, so
  // the chain is finished the moment it cannot beat the next cell's bound.
  const int64_t tail_d = std::max(start, hi_candidate + 1);
  for (int64_t d = tail_d;; ++d) {
    int64_t col = next.fgoe_col + d;
    if (col >= m_) break;
    int32_t gb = std::max(chain_gb + ss, chain_mu + open_ext);
    if (gb <= bound_at(col)) break;
    ++counters_.cells_cost3;
    NoteCell(static_cast<int32_t>(col), gb);
    any_alive = true;
    next.cells.PushCell(gb, kNegInf, gb);
    chain_gb = gb;
    chain_mu = gb;
  }

  if (!any_alive) {
    next.cells.Clear();
    return std::move(step->next);
  }
  // Trim dead edges in the M lane. A dead cell's soft Ga chain is bounded
  // by that cell's prune bound, and bounds are non-decreasing across rows
  // and columns, so an edge cell with a dead M can never influence a later
  // surviving cell — dropping it is exact.
  int64_t size = next.cells.Size();
  int64_t front = 0;
  while (front < size && next.cells.m[static_cast<size_t>(front)] == kNegInf) {
    ++front;
  }
  int64_t back = size;
  while (back > front &&
         next.cells.m[static_cast<size_t>(back - 1)] == kNegInf) {
    --back;
  }
  if (back <= front) {
    next.cells.Clear();
    return std::move(step->next);
  }
  auto trim = [front, back](std::vector<int32_t>* lane) {
    lane->erase(lane->begin() + static_cast<ptrdiff_t>(back), lane->end());
    lane->erase(lane->begin(), lane->begin() + static_cast<ptrdiff_t>(front));
  };
  trim(&next.cells.m);
  trim(&next.cells.ga);
  trim(&next.cells.gb);
  next.cells.lo += front;
  return std::move(step->next);
}

ResultCollector Alae::Run(const Sequence& query, const ScoringScheme& scheme,
                          int32_t threshold, AlaeRunStats* stats,
                          const CancelToken* cancel) const {
  AlaeQueryPlan plan(query, scheme, threshold, config_);
  return Run(plan, stats, cancel);
}

ResultCollector Alae::Run(const AlaeQueryPlan& plan, AlaeRunStats* stats,
                          const CancelToken* cancel) const {
  std::vector<const AlaeIndex*> indexes{&index_};
  std::vector<ResultCollector> results;
  Engine engine(indexes, plan, cancel);
  engine.Run(&results, stats);
  return std::move(results[0]);
}

void Alae::RunSharded(const AlaeQueryPlan& plan,
                      const std::vector<const AlaeIndex*>& indexes,
                      std::vector<ResultCollector>* results,
                      AlaeRunStats* stats, const CancelToken* cancel) {
  results->clear();
  if (indexes.empty()) return;
  Engine engine(indexes, plan, cancel);
  engine.Run(results, stats);
}

}  // namespace alae
