// Differential tests of the shared affine-gap row kernel: every vector
// implementation must agree bit-for-bit with the scalar oracle on the full
// output arrays and on the returned chain state, over ragged row lengths,
// degenerate inputs, and scores near the sentinel/saturation edges. Plus
// dispatch plumbing and an engine-level exactness re-run per tier.

#include "src/align/simd_dp.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/baseline/bwt_sw.h"
#include "src/baseline/smith_waterman.h"
#include "src/core/alae.h"
#include "src/sim/generator.h"
#include "src/util/rng.h"

namespace alae {
namespace simd {
namespace {

// Restores the dispatched tier on scope exit so tests cannot leak a forced
// tier into each other.
class TierGuard {
 public:
  TierGuard() : saved_(ActiveDpTier()) {}
  ~TierGuard() { SetDpTier(saved_); }

 private:
  DpTier saved_;
};

std::vector<DpTier> SupportedVectorTiers() {
  std::vector<DpTier> tiers;
  if (DpTierSupported(DpTier::kSse2)) tiers.push_back(DpTier::kSse2);
  if (DpTierSupported(DpTier::kAvx2)) tiers.push_back(DpTier::kAvx2);
  return tiers;
}

struct RowCase {
  std::vector<int32_t> prev_m, prev_ga, diag_m, delta;
  RowSpec spec;  // pointers filled by Bind()

  void Bind(std::vector<int32_t>* out_m, std::vector<int32_t>* out_ga,
            std::vector<int32_t>* out_gb) {
    int64_t len = spec.len;
    out_m->assign(static_cast<size_t>(len), 12345);
    out_ga->assign(static_cast<size_t>(len), 12345);
    spec.prev_m = prev_m.data();
    spec.prev_ga = prev_ga.data();
    spec.prev_diag_m = diag_m.data();
    spec.delta = delta.data();
    spec.out_m = out_m->data();
    spec.out_ga = out_ga->data();
    if (out_gb != nullptr) {
      out_gb->assign(static_cast<size_t>(len), 12345);
      spec.out_gb = out_gb->data();
    } else {
      spec.out_gb = nullptr;
    }
  }
};

// A live score drawn from one of three regimes: small engine-like values,
// large values near the kernel's documented saturation ceiling, and values
// hovering just above the squash threshold.
int32_t RandomScore(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return static_cast<int32_t>(rng.Range(-200, 200));
    case 1:
      return static_cast<int32_t>(
          rng.Range(INT32_MAX / 8, INT32_MAX / 4 - 1000));
    case 2:
      return static_cast<int32_t>(rng.Range(kNegInf / 2 - 500, kNegInf / 2 + 500));
    default:
      return static_cast<int32_t>(rng.Range(0, 60));
  }
}

RowCase RandomCase(Rng& rng, int64_t len) {
  RowCase c;
  c.spec.len = len;
  int32_t ss = static_cast<int32_t>(rng.Range(-30, -1));
  int32_t sg = static_cast<int32_t>(rng.Range(-40, 0));
  c.spec.gap_extend = ss;
  c.spec.gap_open_extend = sg + ss;
  c.spec.gb_init = rng.Bernoulli(0.5)
                       ? kNegInf
                       : static_cast<int32_t>(rng.Range(-100, 5000));
  c.spec.bound_base = rng.Bernoulli(0.5)
                          ? 0
                          : static_cast<int32_t>(rng.Range(0, 100));
  if (rng.Bernoulli(0.5)) {
    c.spec.bound0 = kNegInf;
    c.spec.bound_step = 0;
  } else {
    c.spec.bound0 = static_cast<int32_t>(rng.Range(-5000, 50));
    c.spec.bound_step = static_cast<int32_t>(rng.Range(0, 20));
  }
  double dead_p = rng.NextDouble();  // whole spectrum: dense rows to husks
  auto lane = [&](std::vector<int32_t>* v) {
    v->resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      (*v)[static_cast<size_t>(i)] =
          rng.Bernoulli(dead_p) ? kNegInf : RandomScore(rng);
    }
  };
  lane(&c.prev_m);
  lane(&c.prev_ga);
  lane(&c.diag_m);
  c.delta.resize(static_cast<size_t>(len));
  int32_t sa = static_cast<int32_t>(rng.Range(1, 20));
  int32_t sb = static_cast<int32_t>(rng.Range(-30, -1));
  for (int64_t i = 0; i < len; ++i) {
    c.delta[static_cast<size_t>(i)] = rng.Bernoulli(0.3) ? sa : sb;
  }
  return c;
}

void ExpectSameRow(RowCase& c, DpTier tier, uint64_t tag) {
  std::vector<int32_t> sm, sga, sgb, vm, vga, vgb;
  RowStats sstats, vstats;
  bool with_gb = (tag % 3) != 0;  // exercise the nullable Gb output too
  c.Bind(&sm, &sga, with_gb ? &sgb : nullptr);
  ComputeRowScalar(c.spec, &sstats);
  c.Bind(&vm, &vga, with_gb ? &vgb : nullptr);
  TierGuard guard;
  ASSERT_TRUE(SetDpTier(tier));
  ComputeRow(c.spec, &vstats);
  ASSERT_EQ(sm, vm) << "M lane, tier " << DpTierName(tier) << " case " << tag;
  ASSERT_EQ(sga, vga) << "Ga lane, tier " << DpTierName(tier) << " case "
                      << tag;
  if (with_gb) {
    ASSERT_EQ(sgb, vgb) << "Gb lane, tier " << DpTierName(tier) << " case "
                        << tag;
  }
  EXPECT_EQ(sstats.first_alive, vstats.first_alive) << "case " << tag;
  EXPECT_EQ(sstats.last_alive, vstats.last_alive) << "case " << tag;
  EXPECT_EQ(sstats.gb_last, vstats.gb_last) << "case " << tag;
  EXPECT_EQ(sstats.mu_last, vstats.mu_last) << "case " << tag;
}

TEST(SimdDp, VectorTiersMatchScalarOracle) {
  std::vector<DpTier> tiers = SupportedVectorTiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  Rng rng(1234);
  uint64_t tag = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Ragged lengths hammer the remainder path: everything from 1 to a few
    // hundred, dwelling around the 4/8-lane block boundaries.
    int64_t len;
    switch (rng.Below(4)) {
      case 0:
        len = rng.Range(1, 9);
        break;
      case 1:
        len = rng.Range(1, 33);
        break;
      case 2:
        len = rng.Range(1, 300);
        break;
      default:
        len = 8 * rng.Range(1, 16);  // exact AVX2 blocks, no remainder
        break;
    }
    RowCase c = RandomCase(rng, len);
    for (DpTier tier : tiers) ExpectSameRow(c, tier, ++tag);
  }
}

TEST(SimdDp, AllDeadAndAllLiveRows) {
  std::vector<DpTier> tiers = SupportedVectorTiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  for (int64_t len : {1, 7, 8, 9, 64, 257}) {
    RowCase dead;
    dead.spec.len = len;
    dead.prev_m.assign(static_cast<size_t>(len), kNegInf);
    dead.prev_ga.assign(static_cast<size_t>(len), kNegInf);
    dead.diag_m.assign(static_cast<size_t>(len), kNegInf);
    dead.delta.assign(static_cast<size_t>(len), -3);
    uint64_t tag = 1000 + static_cast<uint64_t>(len);
    for (DpTier tier : tiers) ExpectSameRow(dead, tier, tag);

    RowCase live;
    live.spec.len = len;
    live.spec.gap_extend = -2;
    live.spec.gap_open_extend = -7;
    live.prev_m.assign(static_cast<size_t>(len), 40);
    live.prev_ga.assign(static_cast<size_t>(len), 20);
    live.diag_m.assign(static_cast<size_t>(len), 41);
    live.delta.assign(static_cast<size_t>(len), 1);
    for (DpTier tier : tiers) ExpectSameRow(live, tier, tag + 5000);
  }
}

TEST(SimdDp, ScalarOracleHandValues) {
  // Tiny hand-checked row: prev M = [10, -inf], prev Ga dead, ss=-2, sg=-5.
  // Cell 0: Ga = 10-7 = 3, diag dead, Gb = gb_init = -inf => M~ = 3.
  // Cell 1: Ga dead, diag = 10+1 = 11, Gb = max(-inf, 3-7) = -4 => M~ = 11.
  std::vector<int32_t> prev_m = {10, kNegInf};
  std::vector<int32_t> prev_ga = {kNegInf, kNegInf};
  std::vector<int32_t> diag_m = {kNegInf, 10};
  std::vector<int32_t> delta = {1, 1};
  std::vector<int32_t> out_m(2), out_ga(2), out_gb(2);
  RowSpec spec;
  spec.prev_m = prev_m.data();
  spec.prev_ga = prev_ga.data();
  spec.prev_diag_m = diag_m.data();
  spec.delta = delta.data();
  spec.out_m = out_m.data();
  spec.out_ga = out_ga.data();
  spec.out_gb = out_gb.data();
  spec.len = 2;
  spec.gap_extend = -2;
  spec.gap_open_extend = -7;
  RowStats stats;
  ComputeRowScalar(spec, &stats);
  EXPECT_EQ(out_m[0], 3);
  EXPECT_EQ(out_m[1], 11);
  EXPECT_EQ(out_ga[0], 3);
  EXPECT_EQ(out_ga[1], kNegInf);
  EXPECT_EQ(out_gb[1], -4);
  EXPECT_EQ(stats.first_alive, 0);
  EXPECT_EQ(stats.last_alive, 1);
  EXPECT_EQ(stats.mu_last, 11);
  EXPECT_EQ(stats.gb_last, -4);
}

TEST(SimdDp, DispatchForceAndRestore) {
  TierGuard guard;
  ASSERT_TRUE(DpTierSupported(DpTier::kScalar));
  EXPECT_TRUE(SetDpTier(DpTier::kScalar));
  EXPECT_EQ(ActiveDpTier(), DpTier::kScalar);
  for (DpTier tier : SupportedVectorTiers()) {
    EXPECT_TRUE(SetDpTier(tier));
    EXPECT_EQ(ActiveDpTier(), tier);
  }
  // Unsupported tiers are refused without changing the dispatch.
  if (!DpTierSupported(DpTier::kAvx2)) {
    DpTier before = ActiveDpTier();
    EXPECT_FALSE(SetDpTier(DpTier::kAvx2));
    EXPECT_EQ(ActiveDpTier(), before);
  }
  EXPECT_STREQ(DpTierName(DpTier::kScalar), "scalar");
  EXPECT_STREQ(DpTierName(DpTier::kSse2), "sse2");
  EXPECT_STREQ(DpTierName(DpTier::kAvx2), "avx2");
}

// ComputeRowPair under `tier` must be bit-exact against two sequential
// scalar rows: output arrays and returned chain state of both rows.
void ExpectSamePair(RowCase& ca, RowCase& cb, DpTier tier, uint64_t tag) {
  std::vector<int32_t> sm_a, sga_a, sgb_a, sm_b, sga_b, sgb_b;
  std::vector<int32_t> vm_a, vga_a, vgb_a, vm_b, vga_b, vgb_b;
  bool gb_a = (tag % 3) != 0;  // exercise the nullable Gb outputs too
  bool gb_b = (tag % 5) != 0;
  RowStats ssa, ssb, vsa, vsb;
  ca.Bind(&sm_a, &sga_a, gb_a ? &sgb_a : nullptr);
  cb.Bind(&sm_b, &sga_b, gb_b ? &sgb_b : nullptr);
  ComputeRowScalar(ca.spec, &ssa);
  ComputeRowScalar(cb.spec, &ssb);
  ca.Bind(&vm_a, &vga_a, gb_a ? &vgb_a : nullptr);
  cb.Bind(&vm_b, &vga_b, gb_b ? &vgb_b : nullptr);
  TierGuard guard;
  ASSERT_TRUE(SetDpTier(tier));
  ComputeRowPair(ca.spec, cb.spec, &vsa, &vsb);
  ASSERT_EQ(sm_a, vm_a) << "pair row a M, tier " << DpTierName(tier)
                        << " case " << tag;
  ASSERT_EQ(sga_a, vga_a) << "pair row a Ga, case " << tag;
  if (gb_a) {
    ASSERT_EQ(sgb_a, vgb_a) << "pair row a Gb, case " << tag;
  }
  ASSERT_EQ(sm_b, vm_b) << "pair row b M, tier " << DpTierName(tier)
                        << " case " << tag;
  ASSERT_EQ(sga_b, vga_b) << "pair row b Ga, case " << tag;
  if (gb_b) {
    ASSERT_EQ(sgb_b, vgb_b) << "pair row b Gb, case " << tag;
  }
  EXPECT_EQ(ssa.first_alive, vsa.first_alive) << "case " << tag;
  EXPECT_EQ(ssa.last_alive, vsa.last_alive) << "case " << tag;
  EXPECT_EQ(ssa.gb_last, vsa.gb_last) << "case " << tag;
  EXPECT_EQ(ssa.mu_last, vsa.mu_last) << "case " << tag;
  EXPECT_EQ(ssb.first_alive, vsb.first_alive) << "case " << tag;
  EXPECT_EQ(ssb.last_alive, vsb.last_alive) << "case " << tag;
  EXPECT_EQ(ssb.gb_last, vsb.gb_last) << "case " << tag;
  EXPECT_EQ(ssb.mu_last, vsb.mu_last) << "case " << tag;
}

// ComputeRowPair must be bit-exact against two sequential scalar rows for
// every tier — under kAvx2 that exercises the 16-lane int16 pair kernel
// (both rows 1..8 cells), everywhere else the sequential fallback.
TEST(SimdDp, PairedRowsMatchSequentialScalar) {
  std::vector<DpTier> tiers = {DpTier::kScalar};
  for (DpTier t : SupportedVectorTiers()) tiers.push_back(t);
  Rng rng(555);
  uint64_t tag = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int64_t len_a = rng.Range(1, 9);
    int64_t len_b = rng.Range(1, 9);
    RowCase ca = RandomCase(rng, len_a);
    RowCase cb = RandomCase(rng, len_b);
    for (DpTier tier : tiers) ExpectSamePair(ca, cb, tier, ++tag);
  }
}

// Int16 pair-kernel boundary cases: real scores straddling the int16
// representable range force the load/compute clip detectors (and the
// per-half scalar recompute), while scores just inside it must flow
// through the narrow path — both must match the scalar oracle exactly.
// (The generic sweep above covers the far regimes; this one dwells on the
// +-32767 rails where the sentinel encoding and saturating arithmetic
// meet.)
TEST(SimdDp, Int16TierSaturationRails) {
  if (!DpTierSupported(DpTier::kAvx2)) {
    GTEST_SKIP() << "no avx2 on this host";
  }
  Rng rng(777);
  uint64_t tag = 90000;
  auto railed_case = [&] {
    RowCase c = RandomCase(rng, rng.Range(1, 8));
    auto rail = [&](int32_t v) {
      switch (rng.Below(6)) {
        case 0:
          return static_cast<int32_t>(rng.Range(32700, 33000));
        case 1:
          return static_cast<int32_t>(rng.Range(-33000, -32700));
        case 2:
          return 32767;
        case 3:
          return -32768;
        case 4:
          return -32767;
        default:
          return v;  // keep the generic draw
      }
    };
    for (auto* lane : {&c.prev_m, &c.prev_ga, &c.diag_m}) {
      for (auto& v : *lane) {
        if (v != kNegInf && rng.Bernoulli(0.4)) v = rail(v);
      }
    }
    if (c.spec.gb_init != kNegInf && rng.Bernoulli(0.2)) {
      c.spec.gb_init = rail(c.spec.gb_init);
    }
    return c;
  };
  for (int trial = 0; trial < 400; ++trial) {
    RowCase ca = railed_case();
    RowCase cb = railed_case();
    ExpectSamePair(ca, cb, DpTier::kAvx2, ++tag);
  }
}

// The exactness re-run: the engines that now route their inner rows through
// the dispatched kernel must report identical hit sets under every tier,
// and identical to the Smith-Waterman truth.
TEST(SimdDp, EnginesExactUnderEveryTier) {
  SequenceGenerator gen(4242);
  Sequence text = gen.Random(600, Alphabet::Dna());
  Sequence query = gen.HomologousQuery(text, 80, 0.7, 0.2, 0.05);
  ScoringScheme scheme = ScoringScheme::Default();
  const int32_t threshold = 12;
  ResultCollector truth = SmithWaterman::Run(text, query, scheme, threshold);

  std::vector<DpTier> tiers = {DpTier::kScalar};
  for (DpTier t : SupportedVectorTiers()) tiers.push_back(t);
  TierGuard guard;
  for (DpTier tier : tiers) {
    ASSERT_TRUE(SetDpTier(tier));
    AlaeIndex index(text);
    Alae alae(index);
    EXPECT_EQ(truth.Sorted(), alae.Run(query, scheme, threshold).Sorted())
        << "ALAE under " << DpTierName(tier);
    FmIndex rev(text.Reversed());
    BwtSw bwtsw(rev, static_cast<int64_t>(text.size()));
    EXPECT_EQ(truth.Sorted(), bwtsw.Run(query, scheme, threshold).Sorted())
        << "BWT-SW under " << DpTierName(tier);
  }
}

}  // namespace
}  // namespace simd
}  // namespace alae
