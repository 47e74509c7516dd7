// End-to-end integration tests of the Falcon pipeline.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {
namespace {

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

FalconConfig SmallConfig() {
  FalconConfig cfg;
  cfg.sample_size = 6000;
  cfg.sample_y = 50;
  cfg.al_max_iterations = 12;
  cfg.max_rules_to_eval = 10;
  cfg.max_rules_exhaustive = 8;
  cfg.pair_selection_mask_threshold = 1000;
  cfg.matcher_only_max_bytes = 1 * 1024 * 1024;  // force blocking plan
  cfg.seed = 7;
  return cfg;
}

struct E2E {
  GeneratedDataset data;
  Cluster cluster{FastCluster()};
  SimulatedCrowd crowd;

  explicit E2E(uint64_t seed = 7, double error = 0.03)
      : data(MakeData(seed)),
        crowd(MakeCrowdConfig(seed, error), data.truth.MakeOracle()) {}

  static GeneratedDataset MakeData(uint64_t seed) {
    WorkloadOptions opt;
    opt.size_a = 300;
    opt.size_b = 900;
    opt.seed = seed;
    return GenerateProducts(opt);
  }
  static SimulatedCrowdConfig MakeCrowdConfig(uint64_t seed, double error) {
    SimulatedCrowdConfig c;
    c.error_rate = error;
    c.seed = seed;
    return c;
  }
};

TEST(PipelineTest, BlockingPlanEndToEnd) {
  E2E e;
  FalconPipeline pipeline(&e.data.a, &e.data.b, &e.crowd, &e.cluster,
                          SmallConfig());
  EXPECT_TRUE(pipeline.NeedsBlocking());
  auto r = pipeline.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MatchResult& res = r.value();
  const RunMetrics& m = res.metrics;

  // Quality: well above chance on a 300x900 task.
  auto q = EvaluateMatches(res.matches, e.data.truth);
  EXPECT_GT(q.f1, 0.6) << "P=" << q.precision << " R=" << q.recall;
  // Blocking kept most true matches and pruned most of A x B.
  EXPECT_GT(BlockingRecall(res.candidates, e.data.truth), 0.85);
  EXPECT_LT(res.candidates.size(),
            e.data.a.num_rows() * e.data.b.num_rows() / 4);
  EXPECT_EQ(m.candidate_size, res.candidates.size());
  EXPECT_TRUE(m.used_blocking);
  EXPECT_FALSE(res.sequence.rules.empty());

  // Accounting invariants.
  EXPECT_GT(m.crowd_time.seconds, 0.0);
  EXPECT_GT(m.machine_time.seconds, 0.0);
  EXPECT_LE(m.machine_unmasked.seconds, m.machine_time.seconds + 1e-9);
  EXPECT_NEAR(m.total_time.seconds,
              m.crowd_time.seconds + m.machine_unmasked.seconds, 1e-6);
  EXPECT_GT(m.questions, 0u);
  EXPECT_NEAR(m.cost, e.crowd.total_cost(), 1e-9);
  EXPECT_LT(m.cost, ComputeCostCap());
  EXPECT_FALSE(m.operators.empty());
  // Every unmasked operator duration is bounded by its raw duration.
  for (const auto& op : m.operators) {
    EXPECT_LE(op.unmasked.seconds, op.raw.seconds + 1e-9) << op.name;
  }
}

// Smoke test for real multi-threaded execution: the full pipeline must run
// under a threaded cluster and bill (virtually) the same machine time as the
// serial path. Exact equality is impossible — per-task seconds are MEASURED
// thread-CPU times, so they carry run-to-run noise even serially, and that
// noise can steer rule selection — but concurrency must not systematically
// inflate the virtual clock, so the totals stay within a loose band.
TEST(PipelineTest, ParallelPipelineMatchesSerialAccounting) {
  struct Outcome {
    double f1 = 0.0;
    double machine_seconds = 0.0;
  };
  auto run = [](int threads) {
    ClusterConfig ccfg = FastCluster();
    ccfg.local_threads = threads;
    GeneratedDataset data = E2E::MakeData(7);
    Cluster cluster(ccfg);
    SimulatedCrowd crowd(E2E::MakeCrowdConfig(7, 0.03),
                         data.truth.MakeOracle());
    FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, SmallConfig());
    auto r = pipeline.Run();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    Outcome out;
    if (r.ok()) {
      out.f1 = EvaluateMatches(r->matches, data.truth).f1;
      for (const JobStats& job : cluster.JobHistorySnapshot()) {
        out.machine_seconds += job.Total().seconds;
      }
    }
    return out;
  };
  Outcome serial = run(1);
  Outcome parallel = run(4);
  EXPECT_GT(serial.f1, 0.6);
  EXPECT_GT(parallel.f1, 0.6);
  ASSERT_GT(serial.machine_seconds, 0.0);
  EXPECT_NEAR(parallel.machine_seconds, serial.machine_seconds,
              0.3 * serial.machine_seconds);
}

TEST(PipelineTest, MaskingReducesUnmaskedMachineTime) {
  FalconConfig masked_cfg = SmallConfig();
  FalconConfig unmasked_cfg = SmallConfig();
  unmasked_cfg.enable_masking = false;

  E2E e1;
  FalconPipeline p1(&e1.data.a, &e1.data.b, &e1.crowd, &e1.cluster,
                    masked_cfg);
  auto r1 = p1.Run();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  E2E e2;
  FalconPipeline p2(&e2.data.a, &e2.data.b, &e2.crowd, &e2.cluster,
                    unmasked_cfg);
  auto r2 = p2.Run();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  // Same data/crowd seeds: unmasked machine time must not grow with masking.
  EXPECT_LT(r1->metrics.machine_unmasked.seconds,
            r2->metrics.machine_unmasked.seconds + 1e-6);
  // And masking must not change the blocking recall materially: outputs stay
  // correct, only the schedule changes.
  double rec1 = BlockingRecall(r1->candidates, e1.data.truth);
  double rec2 = BlockingRecall(r2->candidates, e2.data.truth);
  EXPECT_NEAR(rec1, rec2, 0.15);
}

TEST(PipelineTest, MatcherOnlyPlanForTinyTables) {
  WorkloadOptions opt;
  opt.size_a = 60;
  opt.size_b = 120;
  opt.seed = 11;
  auto data = GenerateProducts(opt);
  Cluster cluster(FastCluster());
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, data.truth.MakeOracle());
  FalconConfig cfg = SmallConfig();
  cfg.matcher_only_max_bytes = size_t{1} * 1024 * 1024 * 1024;
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, cfg);
  EXPECT_FALSE(pipeline.NeedsBlocking());
  auto r = pipeline.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->metrics.used_blocking);
  EXPECT_EQ(r->candidates.size(), data.a.num_rows() * data.b.num_rows());
  auto q = EvaluateMatches(r->matches, data.truth);
  EXPECT_GT(q.f1, 0.6);
}

TEST(PipelineTest, EmptyTableRejected) {
  Table empty(Schema({{"x", AttrType::kString}}));
  E2E e;
  FalconPipeline pipeline(&empty, &e.data.b, &e.crowd, &e.cluster,
                          SmallConfig());
  auto r = pipeline.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, StableQualityAcrossRepeatedRuns) {
  auto run_f1 = [&]() {
    E2E e(13, 0.0);
    FalconPipeline p(&e.data.a, &e.data.b, &e.crowd, &e.cluster,
                     SmallConfig());
    auto r = p.Run();
    EXPECT_TRUE(r.ok());
    return r.ok() ? EvaluateMatches(r->matches, e.data.truth).f1 : -1.0;
  };
  // The crowd and learners are seed-deterministic, but select_opt_seq's
  // cost model uses MEASURED per-pair rule times (as in the paper), so the
  // chosen sequence — and with it F1 — may vary slightly across runs.
  double f1a = run_f1();
  double f1b = run_f1();
  EXPECT_GT(f1a, 0.5);
  EXPECT_GT(f1b, 0.5);
  EXPECT_NEAR(f1a, f1b, 0.15);
}

TEST(PipelineTest, BudgetLedgerStaysUnderCap) {
  E2E e;
  FalconPipeline pipeline(&e.data.a, &e.data.b, &e.crowd, &e.cluster,
                          SmallConfig());
  auto r = pipeline.Run();
  ASSERT_TRUE(r.ok());
  EXPECT_LE(e.crowd.ledger().spent(), e.crowd.ledger().cap());
}

TEST(PipelineTest, OracleCrowdDrugMatchingScenario) {
  // Section 11.1: in-house "crowd of one" for sensitive data.
  WorkloadOptions opt;
  opt.size_a = 250;
  opt.size_b = 600;
  opt.seed = 5;
  auto data = GenerateDrugs(opt);
  Cluster cluster(FastCluster());
  OracleCrowdConfig ccfg;
  OracleCrowd crowd(ccfg, data.truth.MakeOracle());
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, SmallConfig());
  auto r = pipeline.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto q = EvaluateMatches(r->matches, data.truth);
  EXPECT_GT(q.f1, 0.7);
  EXPECT_DOUBLE_EQ(r->metrics.cost, 0.0);  // in-house expert is free
}

}  // namespace
}  // namespace falcon
