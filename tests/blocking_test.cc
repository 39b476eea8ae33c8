#include <gtest/gtest.h>

#include <algorithm>

#include "blocking/blockers.h"
#include "data/northdk_generator.h"
#include "geo/distance.h"
#include "geo/quadflex.h"

namespace skyex::blocking {
namespace {

data::SpatialEntity Entity(const std::string& name, double lat, double lon,
                           const std::string& phone = "") {
  data::SpatialEntity e;
  e.name = name;
  e.phone = phone;
  e.location = geo::GeoPoint{lat, lon, true};
  return e;
}

// ------------------------------------------------------------- TokenBlock

TEST(TokenBlock, PairsRecordsSharingAToken) {
  data::Dataset d;
  d.entities = {Entity("cafe amelie", 57.0, 9.9),
                Entity("amelie bistro", 57.5, 10.0),
                Entity("grill hjoernet", 57.2, 9.5)};
  const auto pairs = TokenBlock(d);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (geo::CandidatePair{0, 1}));
}

TEST(TokenBlock, DropsOversizedBlocks) {
  data::Dataset d;
  for (int i = 0; i < 20; ++i) {
    d.entities.push_back(Entity("cafe number" + std::to_string(i),
                                57.0, 9.9));
  }
  TokenBlockOptions options;
  options.max_block_size = 10;  // the "cafe" block has 20 members
  options.include_categories = false;
  EXPECT_TRUE(TokenBlock(d, options).empty());
}

TEST(TokenBlock, ShortTokensIgnored) {
  data::Dataset d;
  d.entities = {Entity("ab kiosk", 57.0, 9.9), Entity("ab salon", 57.1, 9.8)};
  TokenBlockOptions options;
  options.min_token_length = 3;
  EXPECT_TRUE(TokenBlock(d, options).empty());
}

TEST(TokenBlock, CategoriesBlockToo) {
  data::Dataset d;
  auto a = Entity("alpha", 57.0, 9.9);
  a.categories = {"restaurant"};
  auto b = Entity("beta", 57.5, 10.0);
  b.categories = {"restaurant"};
  d.entities = {a, b};
  EXPECT_EQ(TokenBlock(d).size(), 1u);
  TokenBlockOptions no_cat;
  no_cat.include_categories = false;
  EXPECT_TRUE(TokenBlock(d, no_cat).empty());
}

// --------------------------------------------------- Sorted neighborhood

TEST(SortedNeighborhood, WindowBoundsPairCount) {
  data::Dataset d;
  for (int i = 0; i < 50; ++i) {
    d.entities.push_back(Entity("name" + std::to_string(i), 57.0, 9.9));
  }
  SortedNeighborhoodOptions options;
  options.window = 5;
  options.passes = 1;
  const auto pairs = SortedNeighborhoodBlock(d, options);
  // Each record pairs with at most window-1 successors.
  EXPECT_LE(pairs.size(), d.size() * (options.window - 1));
  EXPECT_GT(pairs.size(), 0u);
}

TEST(SortedNeighborhood, SimilarPrefixesLandTogether) {
  data::Dataset d;
  d.entities = {Entity("cafe amelie", 57.0, 9.9),
                Entity("cafe amelia", 57.5, 10.0),
                Entity("zzz unrelated", 57.2, 9.5),
                Entity("mmm middle", 57.3, 9.6)};
  SortedNeighborhoodOptions options;
  options.window = 2;
  options.passes = 1;
  const auto pairs = SortedNeighborhoodBlock(d, options);
  EXPECT_NE(std::find(pairs.begin(), pairs.end(),
                      geo::CandidatePair{0, 1}),
            pairs.end());
}

TEST(SortedNeighborhood, ReversedPassCatchesSuffixMatches) {
  data::Dataset d;
  // Same suffix, different prefix: only the reversed-key pass pairs them
  // (the forward sort puts "aaa..." and "zzz..." far apart).
  d.entities = {Entity("aaa bageri vestergade", 57.0, 9.9),
                Entity("zzz bageri vestergade", 57.5, 10.0)};
  for (int i = 0; i < 30; ++i) {
    d.entities.push_back(Entity("mid" + std::to_string(i) + " filler",
                                57.2, 9.5));
  }
  SortedNeighborhoodOptions one_pass;
  one_pass.window = 2;
  one_pass.passes = 1;
  const auto forward_only = SortedNeighborhoodBlock(d, one_pass);
  SortedNeighborhoodOptions two_pass = one_pass;
  two_pass.passes = 2;
  const auto both = SortedNeighborhoodBlock(d, two_pass);
  const geo::CandidatePair target{0, 1};
  EXPECT_EQ(std::find(forward_only.begin(), forward_only.end(), target),
            forward_only.end());
  EXPECT_NE(std::find(both.begin(), both.end(), target), both.end());
}

// -------------------------------------------------------------- GridBlock

TEST(GridBlock, FindsPairsWithinRadius) {
  data::Dataset d;
  d.entities = {Entity("a", 57.0000, 9.9000), Entity("b", 57.0002, 9.9002),
                Entity("c", 57.3000, 10.2000)};
  GridBlockOptions options;
  options.cell_m = 100.0;
  options.radius_m = 100.0;
  const auto pairs = GridBlock(d, options);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (geo::CandidatePair{0, 1}));
}

TEST(GridBlock, FindsPairsAcrossCellBoundaries) {
  // Points straddling a cell edge are still compared via the 3×3
  // neighborhood scan.
  data::Dataset d;
  const double lat_step = geo::MetersToLatDegrees(100.0);
  const double boundary = std::ceil(57.0 / lat_step) * lat_step;
  d.entities = {Entity("a", boundary - 1e-7, 9.9),
                Entity("b", boundary + 1e-7, 9.9)};
  GridBlockOptions options;
  options.cell_m = 100.0;
  options.radius_m = 100.0;
  EXPECT_EQ(GridBlock(d, options).size(), 1u);
}

TEST(GridBlock, AgreesWithQuadFlexOnRecall) {
  data::NorthDkOptions gen;
  gen.num_entities = 1000;
  const data::Dataset d = data::GenerateNorthDk(gen);
  GridBlockOptions options;
  options.cell_m = 200.0;
  options.radius_m = 200.0;
  const auto grid_pairs = GridBlock(d, options);
  const BlockingQuality grid_q = EvaluateBlocking(d, grid_pairs);
  const BlockingQuality quad_q =
      EvaluateBlocking(d, geo::QuadFlexBlock(d.Points()));
  // The flat 200 m grid is a superset-ish blocker: its completeness must
  // be at least QuadFlex's (which shrinks the radius in dense areas).
  EXPECT_GE(grid_q.PairCompleteness() + 1e-12, quad_q.PairCompleteness());
  EXPECT_GT(quad_q.PairCompleteness(), 0.7);
}

// ------------------------------------------------------ Blocking quality

TEST(EvaluateBlockingTest, CountsRulePositivesWithoutCartesian) {
  data::Dataset d;
  // Three records share a phone (3 pairs), two share a website (1 pair),
  // one of the website pairs also shares the phone → total 4 distinct.
  auto a = Entity("a", 57.0, 9.9, "+4511111111");
  auto b = Entity("b", 57.0, 9.9, "+4511111111");
  auto c = Entity("c", 57.0, 9.9, "+4511111111");
  auto e = Entity("e", 57.0, 9.9, "+4522222222");
  a.website = "www.x.dk";
  e.website = "www.x.dk";
  d.entities = {a, b, c, e};

  const BlockingQuality q = EvaluateBlocking(d, {{0, 1}, {0, 3}});
  EXPECT_EQ(q.true_pairs_total, 4u);   // {ab, ac, bc} + {ae}
  EXPECT_EQ(q.true_pairs_covered, 2u);  // ab and ae were blocked
  EXPECT_EQ(q.candidate_pairs, 2u);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 0.5);
  EXPECT_NEAR(q.ReductionRatio(4), 1.0 - 2.0 / 6.0, 1e-12);
}

TEST(EvaluateBlockingTest, DoubleCountedPairsSubtractedOnce) {
  data::Dataset d;
  auto a = Entity("a", 57.0, 9.9, "+4511111111");
  auto b = Entity("b", 57.0, 9.9, "+4511111111");
  a.website = "www.same.dk";
  b.website = "www.same.dk";
  d.entities = {a, b};
  const BlockingQuality q = EvaluateBlocking(d, {});
  EXPECT_EQ(q.true_pairs_total, 1u);  // same phone AND website: one pair
}

}  // namespace
}  // namespace skyex::blocking
