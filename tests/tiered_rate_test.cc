// TieredRate: marginal vs flat-bracket evaluation against the paper's
// Tables 3 and 4, plus validation and property checks.

#include "pricing/tiered_rate.h"

#include <gtest/gtest.h>

#include "pricing/providers.h"

namespace cloudview {
namespace {

TieredRate PaperStorageTiers() {
  return ProviderRegistry::Global().Model("aws-2012")->storage_schedule();
}

TieredRate PaperTransferTiers() {
  return ProviderRegistry::Global().Model("aws-2012")->transfer_out_schedule();
}

TEST(TieredRate, CreateRejectsEmpty) {
  EXPECT_TRUE(TieredRate::Create({}).status().IsInvalidArgument());
}

TEST(TieredRate, CreateRejectsNegativeRate) {
  auto r = TieredRate::Create(
      {{DataSize::FromGB(1), Money::FromCents(-1)}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TieredRate, CreateRejectsNonIncreasingBounds) {
  auto r = TieredRate::Create({
      {DataSize::FromGB(10), Money::FromCents(10)},
      {DataSize::FromGB(5), Money::FromCents(5)},
      {DataSize::FromGB(20), Money::FromCents(1)},
  });
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TieredRate, FlatSchedule) {
  TieredRate flat = TieredRate::Flat(Money::FromCents(10));
  EXPECT_EQ(flat.MarginalCost(DataSize::FromGB(500)),
            Money::FromDollars(50));
  EXPECT_EQ(flat.FlatBracketCost(DataSize::FromGB(500)),
            Money::FromDollars(50));
  EXPECT_EQ(flat.RateFor(DataSize::FromTB(100)), Money::FromCents(10));
}

// --- Paper Table 3 (bandwidth) ---------------------------------------------
TEST(TieredRate, Table3FreeFirstGB) {
  TieredRate t = PaperTransferTiers();
  EXPECT_EQ(t.MarginalCost(DataSize::FromGB(1)), Money::Zero());
  EXPECT_EQ(t.MarginalCost(DataSize::FromMB(512)), Money::Zero());
}

TEST(TieredRate, Table3TenGBCosts108) {
  // (10 - 1) x $0.12 = $1.08 (paper Example 1).
  EXPECT_EQ(PaperTransferTiers().MarginalCost(DataSize::FromGB(10)),
            Money::FromMicros(1'080'000));
}

TEST(TieredRate, Table3CrossesIntoSecondPaidTier) {
  // 12 TB = 1 GB free + (10 TB - 1 GB) @ 0.12 + 2 TB @ 0.09.
  Money expected = Money::FromMicros(120'000).ScaleBy(10 * 1024 - 1, 1) +
                   Money::FromMicros(90'000).ScaleBy(2 * 1024, 1);
  EXPECT_EQ(PaperTransferTiers().MarginalCost(DataSize::FromTB(12)),
            expected);
}

// --- Paper Table 4 (storage) ------------------------------------------------
TEST(TieredRate, Table4Below1TBBothSemanticsAgree) {
  TieredRate t = PaperStorageTiers();
  EXPECT_EQ(t.MarginalCost(DataSize::FromGB(500)), Money::FromDollars(70));
  EXPECT_EQ(t.FlatBracketCost(DataSize::FromGB(500)),
            Money::FromDollars(70));
}

TEST(TieredRate, Table4FlatBracketAppliesContainingRate) {
  TieredRate t = PaperStorageTiers();
  // 2560 GB sits in the "next 49 TB" bracket: whole volume at $0.125.
  EXPECT_EQ(t.FlatBracketCost(DataSize::FromGB(2560)),
            Money::FromDollars(320));
  // Marginal: first 1024 GB at 0.14, the rest at 0.125.
  Money marginal = Money::FromMicros(140'000).ScaleBy(1024, 1) +
                   Money::FromMicros(125'000).ScaleBy(1536, 1);
  EXPECT_EQ(t.MarginalCost(DataSize::FromGB(2560)), marginal);
}

TEST(TieredRate, RateForBoundaryBelongsToLowerBracket) {
  TieredRate t = PaperStorageTiers();
  EXPECT_EQ(t.RateFor(DataSize::FromTB(1)), Money::FromMicros(140'000));
  EXPECT_EQ(t.MarginalRateAfter(DataSize::FromTB(1)),
            Money::FromMicros(125'000));
}

TEST(TieredRate, ZeroVolumeCostsNothing) {
  EXPECT_EQ(PaperStorageTiers().MarginalCost(DataSize::Zero()),
            Money::Zero());
  EXPECT_EQ(PaperStorageTiers().FlatBracketCost(DataSize::Zero()),
            Money::Zero());
  EXPECT_EQ(PaperStorageTiers().RateFor(DataSize::Zero()),
            Money::FromMicros(140'000));
}

// --- Bracket-boundary edge cases ---------------------------------------------

TEST(TieredRate, MarginalExactlyOnTierEdge) {
  TieredRate t = PaperStorageTiers();
  // Exactly 1 TB: every byte still bills in the first bracket.
  EXPECT_EQ(t.MarginalCost(DataSize::FromTB(1)),
            Money::FromMicros(140'000).ScaleBy(1024, 1));
  // One byte past the edge adds (1/GB) of the *second* bracket's rate.
  Money edge = t.MarginalCost(DataSize::FromTB(1));
  Money past = t.MarginalCost(DataSize::FromTB(1) + DataSize::FromBytes(1));
  EXPECT_EQ(past - edge, Money::FromMicros(125'000)
                             .ScaleBy(1, DataSize::kBytesPerGB));
}

TEST(TieredRate, FlatBracketExactlyOnTierEdge) {
  TieredRate t = PaperStorageTiers();
  // A volume exactly on a bound belongs to the lower bracket: the whole
  // 1 TB bills at $0.14/GB...
  EXPECT_EQ(t.FlatBracketCost(DataSize::FromTB(1)),
            Money::FromMicros(140'000).ScaleBy(1024, 1));
  // ...and one byte more re-rates the *entire* volume at $0.125/GB —
  // flat-bracket billing is discontinuous at the edge, stepping *down*
  // here because the next bracket is cheaper.
  DataSize just_past = DataSize::FromTB(1) + DataSize::FromBytes(1);
  EXPECT_EQ(t.FlatBracketCost(just_past),
            Money::FromMicros(125'000)
                .ScaleBy(just_past.bytes(), DataSize::kBytesPerGB));
  EXPECT_LT(t.FlatBracketCost(just_past),
            t.FlatBracketCost(DataSize::FromTB(1)));
}

TEST(TieredRate, TransferEdgeOfFreeTier) {
  TieredRate t = PaperTransferTiers();
  // Exactly 1 GB: still entirely inside the free bracket, under both
  // semantics.
  EXPECT_EQ(t.MarginalCost(DataSize::FromGB(1)), Money::Zero());
  EXPECT_EQ(t.FlatBracketCost(DataSize::FromGB(1)), Money::Zero());
  // One byte past: marginal bills exactly that byte at $0.12/GB.
  EXPECT_EQ(t.MarginalCost(DataSize::FromGB(1) + DataSize::FromBytes(1)),
            Money::FromMicros(120'000).ScaleBy(1, DataSize::kBytesPerGB));
}

TEST(TieredRate, ExtrapolatedTopBracketOfAwsStorage) {
  TieredRate t = PaperStorageTiers();
  // Above 500 TB the schedule runs on the extrapolated $0.095 rate.
  EXPECT_EQ(t.RateFor(DataSize::FromTB(600)), Money::FromMicros(95'000));
  EXPECT_EQ(t.MarginalRateAfter(DataSize::FromTB(500)),
            Money::FromMicros(95'000));
  // 600 TB marginal = 1 TB @ .14 + 49 TB @ .125 + 450 TB @ .11
  //                 + 100 TB @ .095, in GB.
  Money expected = Money::FromMicros(140'000).ScaleBy(1024, 1) +
                   Money::FromMicros(125'000).ScaleBy(49 * 1024, 1) +
                   Money::FromMicros(110'000).ScaleBy(450 * 1024, 1) +
                   Money::FromMicros(95'000).ScaleBy(100 * 1024, 1);
  EXPECT_EQ(t.MarginalCost(DataSize::FromTB(600)), expected);
  // Flat-bracket: the whole 600 TB at the top rate.
  EXPECT_EQ(t.FlatBracketCost(DataSize::FromTB(600)),
            Money::FromMicros(95'000).ScaleBy(600 * 1024, 1));
}

TEST(TieredRate, ExtrapolatedTopBracketOfAwsTransfer) {
  TieredRate t = PaperTransferTiers();
  // Above 150 TB egress runs on the extrapolated $0.05 rate.
  EXPECT_EQ(t.RateFor(DataSize::FromTB(200)), Money::FromMicros(50'000));
  // 151 TB: free GB + (10 TB - 1 GB) @ .12 + 40 TB @ .09 + 100 TB @ .07
  //       + 1 TB @ .05.
  Money expected = Money::FromMicros(120'000).ScaleBy(10 * 1024 - 1, 1) +
                   Money::FromMicros(90'000).ScaleBy(40 * 1024, 1) +
                   Money::FromMicros(70'000).ScaleBy(100 * 1024, 1) +
                   Money::FromMicros(50'000).ScaleBy(1024, 1);
  EXPECT_EQ(t.MarginalCost(DataSize::FromTB(151)), expected);
}

// --- Properties --------------------------------------------------------------
TEST(TieredRate, MarginalCostIsMonotone) {
  TieredRate t = PaperTransferTiers();
  Money prev = Money::Zero();
  for (int gb = 0; gb <= 2048; gb += 64) {
    Money cost = t.MarginalCost(DataSize::FromGB(gb));
    EXPECT_GE(cost, prev);
    prev = cost;
  }
}

TEST(TieredRate, MarginalNeverExceedsFlatTopRate) {
  // With decreasing rates, marginal <= first-rate x volume.
  TieredRate t = PaperStorageTiers();
  for (int64_t tb : {1, 10, 100, 600}) {
    DataSize v = DataSize::FromTB(tb);
    Money cap = Money::FromMicros(140'000).ScaleBy(v.bytes(),
                                                   DataSize::kBytesPerGB);
    EXPECT_LE(t.MarginalCost(v), cap);
  }
}

TEST(TieredRate, MarginalIsSubadditiveAcrossSplit) {
  // Decreasing-rate schedules: cost(a+b) <= cost(a) + cost(b).
  TieredRate t = PaperStorageTiers();
  DataSize a = DataSize::FromGB(900);
  DataSize b = DataSize::FromGB(300);
  EXPECT_LE(t.MarginalCost(a + b),
            t.MarginalCost(a) + t.MarginalCost(b));
}

TEST(TieredRate, ToStringListsTiers) {
  std::string s = PaperStorageTiers().ToString();
  EXPECT_NE(s.find("up to 1 TB: $0.14/GB"), std::string::npos);
  EXPECT_NE(s.find("above: $0.095/GB"), std::string::npos);
}

}  // namespace
}  // namespace cloudview
