#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/greedy.h"
#include "util/units.h"

namespace kairos::core {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, double rows = 0,
                                     int samples = 6) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, rows);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

TEST(GreedyTest, PacksByRam) {
  ConsolidationProblem prob;
  for (int i = 0; i < 6; ++i) prob.workloads.push_back(MakeProfile("w", 0.2, 30.0));
  // 96 GB * 0.95 - overhead: three 30 GB workloads fit per server.
  const GreedyResult g = GreedySingleResource(prob, Resource::kRam);
  EXPECT_TRUE(g.feasible);
  EXPECT_EQ(g.servers_used, 2);
}

TEST(GreedyTest, SingleResourceBlindSpot) {
  // RAM-greedy packs 3 per server, but CPU then overflows: greedy-by-RAM
  // must be reported infeasible (the paper's Figure 7 "no result" case).
  ConsolidationProblem prob;
  for (int i = 0; i < 6; ++i) prob.workloads.push_back(MakeProfile("w", 5.0, 30.0));
  const GreedyResult by_ram = GreedySingleResource(prob, Resource::kRam);
  EXPECT_FALSE(by_ram.feasible);
  // But greedy-by-CPU happens to produce a feasible packing here.
  const GreedyResult best = GreedyBaseline(prob);
  EXPECT_TRUE(best.feasible);
  EXPECT_EQ(best.servers_used, 3);  // 10.8 usable cores -> 2 x 5.0 per server
}

TEST(GreedyTest, MultiResourceAlwaysCompletes) {
  ConsolidationProblem prob;
  for (int i = 0; i < 5; ++i) prob.workloads.push_back(MakeProfile("w", 3.0, 25.0));
  const Assignment a = GreedyMultiResource(prob, 0);
  EXPECT_EQ(a.server_of_slot.size(), 5u);
  Evaluator ev(prob, 5);
  ev.Load(a.server_of_slot);
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(GreedyTest, FractionalBound) {
  ConsolidationProblem prob;
  // 10 workloads x 24 GB = 240 GB; capacity 91.2 GB -> ceil = 3.
  for (int i = 0; i < 10; ++i) prob.workloads.push_back(MakeProfile("w", 0.5, 24.0));
  EXPECT_EQ(BoundEngine::FractionalServerBound(prob), 3);
}

TEST(GreedyTest, FractionalBoundCpuBinding) {
  ConsolidationProblem prob;
  // 8 workloads x 4 cores = 32 cores; capacity 10.8 -> ceil = 3.
  for (int i = 0; i < 8; ++i) prob.workloads.push_back(MakeProfile("w", 4.0, 2.0));
  EXPECT_EQ(BoundEngine::FractionalServerBound(prob), 3);
}

TEST(EngineTest, TrivialSingleServer) {
  ConsolidationProblem prob;
  for (int i = 0; i < 4; ++i) prob.workloads.push_back(MakeProfile("w", 0.5, 8.0));
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, 1);
  EXPECT_DOUBLE_EQ(plan.consolidation_ratio, 4.0);
}

TEST(EngineTest, FindsMinimalServerCount) {
  // 6 x 40 GB: two per server -> 3 servers minimum.
  ConsolidationProblem prob;
  for (int i = 0; i < 6; ++i) prob.workloads.push_back(MakeProfile("w", 0.5, 40.0));
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, 3);
  EXPECT_EQ(plan.fractional_lower_bound, 3);
}

TEST(EngineTest, MatchesIdealizedBoundWhenPossible) {
  ConsolidationProblem prob;
  for (int i = 0; i < 12; ++i) prob.workloads.push_back(MakeProfile("w", 1.0, 14.0));
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, plan.fractional_lower_bound);
}

TEST(EngineTest, ReplicasOnDistinctServers) {
  ConsolidationProblem prob;
  prob.workloads.push_back(MakeProfile("r", 0.5, 8.0));
  prob.workloads.back().replicas = 3;
  prob.workloads.push_back(MakeProfile("s", 0.5, 8.0));
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  // Three replicas need three distinct servers.
  EXPECT_GE(plan.servers_used, 3);
  const auto& a = plan.assignment.server_of_slot;
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[0], a[2]);
  EXPECT_NE(a[1], a[2]);
}

TEST(EngineTest, PinningRespected) {
  ConsolidationProblem prob;
  for (int i = 0; i < 3; ++i) prob.workloads.push_back(MakeProfile("w", 0.5, 8.0));
  prob.workloads[1].pinned_server = 2;
  prob.max_servers = 4;
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.assignment.server_of_slot[1], 2);
}

TEST(EngineTest, HeterogeneousLoadsBalanced) {
  ConsolidationProblem prob;
  for (int i = 0; i < 4; ++i) prob.workloads.push_back(MakeProfile("big", 3.0, 30.0));
  for (int i = 0; i < 8; ++i) prob.workloads.push_back(MakeProfile("small", 0.3, 6.0));
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, 2);
  // Each server should carry roughly half the RAM.
  ASSERT_EQ(plan.server_loads.size(), 2u);
  const double r0 = plan.server_loads[0].ram_bytes[0];
  const double r1 = plan.server_loads[1].ram_bytes[0];
  EXPECT_NEAR(r0 / (r0 + r1), 0.5, 0.15);
}

TEST(EngineTest, BoundedAndUnboundedAgree) {
  ConsolidationProblem prob;
  for (int i = 0; i < 8; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i), 1.0 + 0.2 * i,
                                         10.0 + 2.0 * i));
  }
  EngineOptions bounded;
  EngineOptions unbounded;
  unbounded.use_bounded_k = false;
  unbounded.direct_evaluations = 2000;
  const ConsolidationPlan p1 = ConsolidationEngine(prob, bounded).Solve();
  const ConsolidationPlan p2 = ConsolidationEngine(prob, unbounded).Solve();
  EXPECT_TRUE(p1.feasible);
  EXPECT_TRUE(p2.feasible);
  // The bounded search never does worse on server count.
  EXPECT_LE(p1.servers_used, p2.servers_used);
}

TEST(EngineTest, TimeVaryingAntiCorrelatedLoadsShareServer) {
  // Two workloads each peaking at 8 cores but at different times fit on
  // one 12-core machine only because the engine uses time series.
  ConsolidationProblem prob;
  monitor::WorkloadProfile a = MakeProfile("a", 0, 8.0);
  a.cpu_cores = util::TimeSeries(300, {8.0, 8.0, 0.5, 0.5});
  monitor::WorkloadProfile b = MakeProfile("b", 0, 8.0);
  b.cpu_cores = util::TimeSeries(300, {0.5, 0.5, 8.0, 8.0});
  prob.workloads = {a, b};
  ConsolidationEngine engine(prob, EngineOptions{});
  const ConsolidationPlan plan = engine.Solve();
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, 1);

  // Correlated peaks (both at once) cannot share.
  ConsolidationProblem prob2;
  monitor::WorkloadProfile c = a;
  prob2.workloads = {a, c};
  const ConsolidationPlan plan2 = ConsolidationEngine(prob2, EngineOptions{}).Solve();
  EXPECT_TRUE(plan2.feasible);
  EXPECT_EQ(plan2.servers_used, 2);
}

TEST(EngineTest, RenderProducesSummary) {
  ConsolidationProblem prob;
  for (int i = 0; i < 3; ++i) prob.workloads.push_back(MakeProfile("w", 0.5, 8.0));
  const ConsolidationPlan plan = ConsolidationEngine(prob, EngineOptions{}).Solve();
  const std::string text = plan.Render();
  EXPECT_NE(text.find("FEASIBLE"), std::string::npos);
  EXPECT_NE(text.find("server"), std::string::npos);
}

}  // namespace
}  // namespace kairos::core
