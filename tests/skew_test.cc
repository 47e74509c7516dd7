// Skew-aware shuffle: planner unit tests plus the determinism property —
// the planned reduce's outputs must be byte-identical between serial and
// threaded runs, for the blocking operators and for both plan templates end
// to end, and the operators' candidate sets must equal the MapSide
// enumeration's.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "core/pipeline.h"
#include "mapreduce/skew.h"
#include "rules/feature.h"
#include "rules/rule.h"
#include "workload/generator.h"

namespace falcon {
namespace {

// --- planner units ---------------------------------------------------------------

// Pair load of each of `bins` bins under `plan`.
std::vector<size_t> BinLoads(const ShardPlan& plan, size_t bins) {
  std::vector<size_t> loads(bins, 0);
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    loads[plan.bin_of[s]] += plan.shards[s].weight();
  }
  return loads;
}

size_t ActiveBins(const std::vector<size_t>& loads) {
  return static_cast<size_t>(
      std::count_if(loads.begin(), loads.end(), [](size_t l) { return l > 0; }));
}

// max/mean load over the bins that received work.
double StragglerRatio(const std::vector<size_t>& loads) {
  const size_t total = std::accumulate(loads.begin(), loads.end(), size_t{0});
  const double mean =
      static_cast<double>(total) / static_cast<double>(ActiveBins(loads));
  return static_cast<double>(*std::max_element(loads.begin(), loads.end())) /
         mean;
}

// True when every shard of `plan` covers its whole block.
bool AllShardsWhole(const ShardPlan& plan, const std::vector<size_t>& weights) {
  for (const auto& s : plan.shards) {
    if (s.weight() != weights[s.block]) return false;
  }
  return true;
}

TEST(SplitBlockTest, EmptyBlockProducesNoShards) {
  EXPECT_TRUE(SplitBlock(3, 0, 10).empty());
}

TEST(SplitBlockTest, ZeroBudgetMeansUnsplittable) {
  auto shards = SplitBlock(2, 100, 0);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (ReduceShard{2, 0, 100}));
}

TEST(SplitBlockTest, UnderBudgetStaysWhole) {
  auto shards = SplitBlock(0, 10, 10);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (ReduceShard{0, 0, 10}));
}

TEST(SplitBlockTest, OversizedBlockSplitsEvenlyAndCoversRange) {
  // 100 values, budget 30 -> ceil(100/30) = 4 pieces of 25 each: even
  // split, no remainder sliver, contiguous cover of [0, 100).
  auto shards = SplitBlock(7, 100, 30);
  ASSERT_EQ(shards.size(), 4u);
  size_t pos = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.block, 7u);
    EXPECT_EQ(s.begin, pos);
    EXPECT_LE(s.weight(), 30u);
    EXPECT_GE(s.weight(), 25u);
    pos = s.end;
  }
  EXPECT_EQ(pos, 100u);
}

TEST(SplitBlockTest, RemainderSpreadsAcrossPieces) {
  // 11 values, budget 3 -> 4 pieces sized 3/3/3/2 (base + remainder),
  // never 3/3/3/1/1 or a trailing sliver.
  auto shards = SplitBlock(0, 11, 3);
  ASSERT_EQ(shards.size(), 4u);
  size_t total = 0;
  for (const auto& s : shards) {
    EXPECT_GE(s.weight(), 2u);
    EXPECT_LE(s.weight(), 3u);
    total += s.weight();
  }
  EXPECT_EQ(total, 11u);
}

TEST(AutoPairBudgetTest, SpreadsTotalOverOversubscribedBins) {
  EXPECT_EQ(AutoPairBudget(1000, 10, 4), 25u);  // ceil(1000 / 40)
  EXPECT_EQ(AutoPairBudget(41, 10, 4), 2u);     // ceil(41 / 40)
  EXPECT_EQ(AutoPairBudget(0, 10, 4), 1u);      // floor of 1
}

TEST(PlanReduceShardsTest, EmptyWeightsMakeEmptyPlan) {
  ShardPlan plan = PlanReduceShards({}, 8, 0, true);
  EXPECT_TRUE(plan.shards.empty());
  EXPECT_TRUE(plan.bin_of.empty());
  EXPECT_EQ(ActiveBins(BinLoads(plan, 8)), 0u);
}

TEST(PlanReduceShardsTest, ZeroWeightBlocksProduceNoShards) {
  // Budget 10 keeps both non-empty blocks whole, so only the zero-weight
  // skip is exercised (budget 0 would auto-derive a unit budget here and
  // split them).
  ShardPlan plan = PlanReduceShards({0, 5, 0, 3}, 2, 10, true);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].block, 1u);
  EXPECT_EQ(plan.shards[1].block, 3u);
}

TEST(PlanReduceShardsTest, AllEqualBlocksBalancePerfectlyWithoutSplits) {
  std::vector<size_t> weights(16, 10);
  ShardPlan plan = PlanReduceShards(weights, 4, 0, true);
  // auto budget = ceil(160 / 16) = 10: blocks are exactly at budget, so
  // none split.
  ASSERT_EQ(plan.shards.size(), 16u);
  EXPECT_TRUE(AllShardsWhole(plan, weights));
  const std::vector<size_t> loads = BinLoads(plan, 4);
  EXPECT_EQ(ActiveBins(loads), 4u);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 40u);
  EXPECT_DOUBLE_EQ(StragglerRatio(loads), 1.0);
}

TEST(PlanReduceShardsTest, OneGiantBlockSplitsAcrossAllBins) {
  // One hot block owning ~all weight: hashing keys to tasks would put it on
  // one task; the planner must spread it over every bin.
  std::vector<size_t> weights = {1000, 1, 1, 1};
  ShardPlan plan = PlanReduceShards(weights, 4, 0, true);
  EXPECT_GT(plan.shards.size(), 4u);
  const std::vector<size_t> loads = BinLoads(plan, 4);
  EXPECT_EQ(ActiveBins(loads), 4u);
  // Critical path shrinks from 1000 to ~1000/4.
  EXPECT_LE(*std::max_element(loads.begin(), loads.end()),
            1000u / 4 + plan.budget);
  EXPECT_LE(StragglerRatio(loads), 1.2);
}

TEST(PlanReduceShardsTest, UnsplittableGiantBlockStaysWhole) {
  std::vector<size_t> weights = {1000, 1, 1, 1};
  ShardPlan plan = PlanReduceShards(weights, 4, 0, false);
  ASSERT_EQ(plan.shards.size(), 4u);
  EXPECT_TRUE(AllShardsWhole(plan, weights));
  // Bin packing alone cannot beat the hot block's own weight.
  const std::vector<size_t> loads = BinLoads(plan, 4);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 1000u);
}

TEST(PlanReduceShardsTest, ShardsStayInCanonicalOrder) {
  std::vector<size_t> weights = {5, 100, 3, 60, 1};
  ShardPlan plan = PlanReduceShards(weights, 3, 20, true);
  for (size_t i = 1; i < plan.shards.size(); ++i) {
    const auto& prev = plan.shards[i - 1];
    const auto& cur = plan.shards[i];
    EXPECT_TRUE(prev.block < cur.block ||
                (prev.block == cur.block && prev.end == cur.begin));
  }
  ASSERT_EQ(plan.bin_of.size(), plan.shards.size());
  for (size_t bin : plan.bin_of) EXPECT_LT(bin, 3u);
}

TEST(PlanReduceShardsTest, SingleBinTakesEverything) {
  std::vector<size_t> weights = {50, 7, 12};
  ShardPlan plan = PlanReduceShards(weights, 1, 0, true);
  EXPECT_EQ(BinLoads(plan, 1), std::vector<size_t>{69});
  for (size_t bin : plan.bin_of) EXPECT_EQ(bin, 0u);
}

TEST(PlanReduceShardsTest, PlanIsAPureFunctionOfItsInputs) {
  std::vector<size_t> weights = {40, 9, 200, 3, 77, 77, 1};
  ShardPlan a = PlanReduceShards(weights, 5, 0, true);
  ShardPlan b = PlanReduceShards(weights, 5, 0, true);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.bin_of, b.bin_of);
  EXPECT_EQ(a.budget, b.budget);
}

// --- operator-level determinism -------------------------------------------------

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

// Zipf-heavy products and the title-similarity rule: hot tokens make hot
// A-row blocks, so the reduce plan actually splits (asserted below) instead
// of degenerating into the no-split case.
struct SkewFixture {
  GeneratedDataset data;
  FeatureSet fs;
  RuleSequence seq;
  IndexCatalog catalog;
  Cluster build_cluster{FastCluster()};

  SkewFixture() {
    WorkloadOptions opt;
    opt.size_a = 200;
    opt.size_b = 500;
    opt.seed = 11;
    opt.zipf_s = 1.4;
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
    fs.BuildTokenStores(data.a, data.b);

    int jac_title = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac_title = f.id;
      }
    }
    EXPECT_GE(jac_title, 0);
    Rule r;
    r.predicates = {{jac_title, jac_title, PredOp::kLe, 0.4}};
    r.selectivity = 0.05;
    seq.rules = {r};
    seq.selectivity = 0.05;

    IndexBuilder builder(&data.a, &fs, &build_cluster);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
  }

  ApplyResult Run(ApplyMethod m, int threads) {
    ClusterConfig cfg = FastCluster();
    cfg.local_threads = threads;
    Cluster cluster(cfg);
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  m, ApplyOptions{});
    EXPECT_TRUE(res.ok()) << ApplyMethodName(m) << ": "
                          << res.status().ToString();
    return res.ok() ? std::move(*res) : ApplyResult{};
  }
};

class SkewPartitionerEquivalence
    : public ::testing::TestWithParam<ApplyMethod> {};

// Sorted candidate set of `pairs`, for comparing operators whose output
// orders differ by construction.
std::vector<CandidatePair> Sorted(std::vector<CandidatePair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST_P(SkewPartitionerEquivalence, ThreadInvariantAndMatchesMapSide) {
  static SkewFixture* fixture = new SkewFixture();
  static const std::vector<CandidatePair>* map_side =
      new std::vector<CandidatePair>(
          Sorted(fixture->Run(ApplyMethod::kMapSide, 1).pairs));
  ApplyResult serial = fixture->Run(GetParam(), 1);
  ASSERT_FALSE(serial.pairs.empty());
  // Byte identity, order included, across thread counts.
  ApplyResult threaded = fixture->Run(GetParam(), 4);
  EXPECT_EQ(serial.pairs, threaded.pairs);
  EXPECT_EQ(serial.candidates_examined, threaded.candidates_examined);
  // The same candidate set as enumerating A x B in the mappers.
  EXPECT_EQ(Sorted(serial.pairs), *map_side);
}

INSTANTIATE_TEST_SUITE_P(
    Operators, SkewPartitionerEquivalence,
    ::testing::Values(ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
                      ApplyMethod::kReduceSplit),
    [](const ::testing::TestParamInfo<ApplyMethod>& info) {
      return ApplyMethodName(info.param);
    });

TEST(SkewPartitionerTest, HotBlocksActuallySplitOnZipfData) {
  SkewFixture fixture;
  // The build-time profile must flag the Zipf skew the generator injected.
  EXPECT_GE(fixture.catalog.MergedBlockProfile().skew, 2.0);
  ApplyResult skew = fixture.Run(ApplyMethod::kApplyAll, 1);
  auto it = skew.main_job.counters.find("skew/split_blocks");
  ASSERT_NE(it, skew.main_job.counters.end());
  EXPECT_GT(it->second, 0) << "no block exceeded the pair budget; the "
                              "fixture no longer exercises splitting";
}

TEST(SkewPartitionerTest, IndexProfileReportsPostingDistribution) {
  SkewFixture fixture;
  const BlockProfile& p = fixture.catalog.MergedBlockProfile();
  EXPECT_GT(p.num_blocks, 0u);
  EXPECT_GT(p.num_postings, 0u);
  EXPECT_GE(p.max_block, p.p99_block);
  EXPECT_GE(static_cast<double>(p.max_block), p.mean_block);
  EXPECT_GT(p.est_pairs, 0.0);
}

// --- pipeline-level determinism -------------------------------------------------

// Both plan templates must emit identical candidates and matches at 1 and 4
// local threads. Two legitimate (pre-existing, thread-count-independent)
// sources of run-to-run divergence are switched off so the comparison
// isolates the engine: deterministic_rule_cost replaces MEASURED per-rule
// times in rule ranking/sequence scoring with a predicate-count proxy
// (real-clock noise flips near-tied rules), and enable_masking = false
// removes Algorithm-2 speculative reuse, whose job-completes-inside-window
// test is inherently timing-dependent. Everything else is covered by the
// determinism contract.
MatchResult RunPlan(bool force_blocking, int threads) {
  WorkloadOptions opt;
  // Matcher-only enumerates A x B, so that template runs on a smaller task.
  opt.size_a = force_blocking ? 150 : 60;
  opt.size_b = force_blocking ? 400 : 150;
  opt.seed = 9;
  opt.zipf_s = 1.3;
  GeneratedDataset data = GenerateProducts(opt);

  ClusterConfig ccfg = FastCluster();
  ccfg.local_threads = threads;
  Cluster cluster(ccfg);

  SimulatedCrowdConfig crowd_cfg;
  crowd_cfg.error_rate = 0.03;
  crowd_cfg.seed = 9;
  SimulatedCrowd crowd(crowd_cfg, data.truth.MakeOracle());

  FalconConfig cfg;
  cfg.sample_size = 4000;
  cfg.sample_y = 40;
  cfg.al_max_iterations = 8;
  cfg.max_rules_to_eval = 8;
  cfg.max_rules_exhaustive = 6;
  cfg.seed = 9;
  cfg.score_gamma = 0.0;
  cfg.deterministic_rule_cost = true;
  cfg.enable_masking = false;
  cfg.matcher_only_max_bytes =
      force_blocking ? 1 * 1024 * 1024 : 1ull << 40;

  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, cfg);
  EXPECT_EQ(pipeline.NeedsBlocking(), force_blocking);
  auto res = pipeline.Run();
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? std::move(*res) : MatchResult{};
}

TEST(SkewPartitionerPipelineTest, BlockerPlanByteIdentical) {
  MatchResult serial = RunPlan(true, 1);
  MatchResult threaded = RunPlan(true, 4);
  EXPECT_EQ(serial.candidates, threaded.candidates);
  EXPECT_EQ(serial.matches, threaded.matches);
}

TEST(SkewPartitionerPipelineTest, MatcherOnlyPlanByteIdentical) {
  MatchResult serial = RunPlan(false, 1);
  MatchResult threaded = RunPlan(false, 4);
  EXPECT_EQ(serial.candidates, threaded.candidates);
  EXPECT_EQ(serial.matches, threaded.matches);
}

TEST(TaskLoadStatsTest, PipelineRollupIsPopulated) {
  MatchResult res = RunPlan(true, 1);
  const RunMetrics& m = res.metrics;
  EXPECT_GT(m.mr_tasks, 0u);
  EXPECT_GE(m.task_vtime_max, m.task_vtime_mean);
  EXPECT_GE(m.task_vtime_max, m.task_vtime_p99);
  EXPECT_GE(m.straggler_ratio, 1.0);
}

TEST(TaskLoadStatsTest, NearestRankP99OverDistinctTaskSeconds) {
  ClusterConfig cfg;
  cfg.task_overhead = VDuration::Zero();
  Cluster cluster(cfg);
  // Task i takes i seconds, listed in descending order: the p99 is the
  // ceil(0.99 n)-th smallest value, and the max below 100 tasks.
  auto load_of = [&](int n) {
    std::vector<double> seconds;
    for (int i = n; i >= 1; --i) seconds.push_back(static_cast<double>(i));
    return cluster.ComputeTaskLoad(seconds);
  };
  const TaskLoadStats n200 = load_of(200);
  EXPECT_EQ(n200.tasks, 200u);
  EXPECT_DOUBLE_EQ(n200.p99_seconds, 198.0);
  EXPECT_DOUBLE_EQ(n200.max_seconds, 200.0);
  const TaskLoadStats n50 = load_of(50);
  EXPECT_DOUBLE_EQ(n50.p99_seconds, 50.0);
  EXPECT_DOUBLE_EQ(n50.max_seconds, 50.0);
}

// --- Zipf sampler ---------------------------------------------------------------

TEST(ZipfSamplerTest, DegenerateInputsYieldRankZero) {
  Rng rng(1);
  ZipfSampler none(0, 1.2);
  EXPECT_EQ(none.Sample(&rng), 0u);
  ZipfSampler flat(100, 0.0);
  EXPECT_EQ(flat.Sample(&rng), 0u);
}

TEST(ZipfSamplerTest, HighExponentConcentratesMassOnHeadRanks) {
  Rng rng(42);
  ZipfSampler zipf(1000, 1.4);
  size_t head = 0;
  const size_t kDraws = 4000;
  for (size_t i = 0; i < kDraws; ++i) {
    size_t r = zipf.Sample(&rng);
    ASSERT_LT(r, 1000u);
    if (r < 10) ++head;
  }
  // At s = 1.4, the top-10 ranks carry well over a third of the mass.
  EXPECT_GT(head, kDraws / 3);
}

TEST(ZipfSamplerTest, ZeroExponentKeepsLegacyGeneratorBytes) {
  WorkloadOptions opt;
  opt.size_a = 50;
  opt.size_b = 120;
  opt.seed = 3;
  GeneratedDataset legacy = GenerateProducts(opt);
  opt.zipf_s = 0.0;  // explicit default: must not change a single byte
  GeneratedDataset same = GenerateProducts(opt);
  ASSERT_EQ(legacy.a.num_rows(), same.a.num_rows());
  for (RowId r = 0; r < legacy.a.num_rows(); ++r) {
    for (size_t c = 0; c < legacy.a.num_cols(); ++c) {
      EXPECT_EQ(legacy.a.Get(r, c), same.a.Get(r, c));
    }
  }
}

TEST(ZipfSamplerTest, ZipfWorkloadSkewsTokenBlocks) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 200;
  opt.seed = 3;
  GeneratedDataset uniform = GenerateProducts(opt);
  opt.zipf_s = 1.4;
  GeneratedDataset zipf = GenerateProducts(opt);
  auto max_title_token_freq = [](const Table& t) {
    std::map<std::string, size_t> freq;
    int col = t.schema().IndexOf("title");
    EXPECT_GE(col, 0);
    for (RowId r = 0; r < t.num_rows(); ++r) {
      std::string title(t.Get(r, static_cast<size_t>(col)));
      size_t pos = 0;
      while (pos < title.size()) {
        size_t sp = title.find(' ', pos);
        if (sp == std::string::npos) sp = title.size();
        if (sp > pos) ++freq[title.substr(pos, sp - pos)];
        pos = sp + 1;
      }
    }
    size_t best = 0;
    for (const auto& [w, n] : freq) best = std::max(best, n);
    return best;
  };
  // The Zipf workload's hottest title token appears far more often.
  EXPECT_GT(max_title_token_freq(zipf.a), 2 * max_title_token_freq(uniform.a));
}

}  // namespace
}  // namespace falcon
