// Google-benchmark microbenchmarks of the hot primitives: buffer-pool
// touches, flush-batch selection, disk-model evaluation, objective
// evaluation and incremental move deltas, and DIRECT iterations. These
// bound the cost of monitoring (must be negligible next to transaction
// work) and of the consolidation engine's inner loops.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/pricing_kernel.h"
#include "db/buffer_pool.h"
#include "db/flusher.h"
#include "model/analytic.h"
#include "obs/sink.h"
#include "online/ingest.h"
#include "online/streaming_profile.h"
#include "opt/direct.h"
#include "sim/disk.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos {
namespace {

void BM_BufferPoolTouchHit(benchmark::State& state) {
  db::BufferPool pool(1 << 16);
  for (db::PageId p = 0; p < (1 << 16); ++p) pool.Touch(p, false);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.Touch(static_cast<db::PageId>(rng.UniformInt(0, (1 << 16) - 1)), false));
  }
}
BENCHMARK(BM_BufferPoolTouchHit);

void BM_BufferPoolTouchMissEvict(benchmark::State& state) {
  db::BufferPool pool(1 << 12);
  db::PageId next = 0;
  for (auto _ : state) {
    const bool dirty = (next & 3) == 0;
    benchmark::DoNotOptimize(pool.Touch(next, dirty));
    ++next;
  }
}
BENCHMARK(BM_BufferPoolTouchMissEvict);

void BM_FlusherSelectBatch(benchmark::State& state) {
  db::BufferPool pool(1 << 16);
  util::Rng rng(2);
  for (int i = 0; i < (1 << 14); ++i) {
    pool.Touch(static_cast<db::PageId>(rng.UniformInt(0, (1 << 16) - 1)), true);
  }
  db::Flusher flusher{db::FlusherConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(flusher.SelectBatch(pool, 0.1, 0.5, false, 120.0));
  }
}
BENCHMARK(BM_FlusherSelectBatch);

void BM_DiskSortedWriteCost(benchmark::State& state) {
  sim::Disk disk{sim::DiskSpec{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.SortedWriteCost(1000, 16384, 4ULL << 30));
  }
}
BENCHMARK(BM_DiskSortedWriteCost);

void BM_DiskModelPredict(benchmark::State& state) {
  const model::DiskModel m = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  double ws = 1e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.PredictWriteBytesPerSec(ws, 500.0));
    ws = ws < 90e9 ? ws + 1e9 : 1e9;
  }
}
BENCHMARK(BM_DiskModelPredict);

core::ConsolidationProblem MakeProblem(int n, int samples) {
  static std::vector<core::ConsolidationProblem> keep;
  core::ConsolidationProblem prob;
  util::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.1, 1.5);
      ram[t] = rng.Uniform(4e9, 20e9);
      rows[t] = rng.Uniform(10, 200);
    }
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = 8e9;
    prob.workloads.push_back(p);
  }
  return prob;
}

void BM_EvaluatorFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto prob = MakeProblem(n, 288);
  core::Evaluator ev(prob, std::max(2, n / 8));
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, ev.max_servers() - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.Evaluate(assignment));
  }
}
BENCHMARK(BM_EvaluatorFull)->Arg(32)->Arg(128)->Arg(196);

// --- MoveDelta ops/sec: the incremental hot path of every local search,
// --- SA/tabu sweep, and online re-solve. Items-per-second in the report
// --- is moves evaluated (or applied) per second.

void BM_EvaluatorMoveDelta(benchmark::State& state) {
  const auto prob = MakeProblem(196, 288);
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    benchmark::DoNotOptimize(ev.MoveDelta(slot, to));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorMoveDelta);

void BM_EvaluatorMoveDeltaDisk(benchmark::State& state) {
  // Same shape with an active nonlinear disk axis on every server: adds
  // two saturation-frontier evaluations per what-if.
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    benchmark::DoNotOptimize(ev.MoveDelta(slot, to));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorMoveDeltaDisk);

void BM_EvaluatorMoveDeltaBatched(benchmark::State& state) {
  // The batched counterpart of BM_EvaluatorMoveDeltaDisk: one slot scored
  // against every server of the fleet per MoveDeltaBatch call (the
  // cross-shard rebalancer's access pattern). Items processed counts
  // *candidate moves*, directly comparable to the scalar bench's rate —
  // the batch amortizes the slot-removal half of the delta across the
  // whole target row. Args: fleet size, servers [0, used) the slots spread
  // over (24 of 24 overloads most of them; 72 of 96 keeps all but one
  // within capacity and leaves 24 targets empty), and whether the batch
  // passes LocalSearch's -1e-9 cutoff, under which an empty target whose
  // floor cannot improve is not priced.
  const int servers = static_cast<int>(state.range(0));
  const int used = static_cast<int>(state.range(1));
  const bool cutoff = state.range(2) != 0;
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, servers);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, used - 1));
  ev.Load(assignment);
  std::vector<int> targets(servers);
  for (int j = 0; j < servers; ++j) targets[j] = j;
  std::vector<double> deltas;
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    if (cutoff) {
      ev.MoveDeltaBatch(slot, targets, &deltas, -1e-9);
    } else {
      ev.MoveDeltaBatch(slot, targets, &deltas);
    }
    benchmark::DoNotOptimize(deltas.data());
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}
BENCHMARK(BM_EvaluatorMoveDeltaBatched)
    ->Args({24, 24, 0})
    ->Args({96, 72, 0})
    ->Args({96, 72, 1});

void BM_EvaluateDirectWalk(benchmark::State& state) {
  // One DIRECT-like run: 4000 assignments, each one slot away from an
  // earlier one, evaluated in order — without (arg 0) or with (arg 1) a
  // ServerCostMemo that lives for the run, as in the engine's RunDirect.
  // Items processed counts evaluations.
  const bool use_memo = state.range(0) != 0;
  const auto prob = MakeProblem(64, 288);
  const int servers = 12;
  core::Evaluator ev(prob, servers);
  util::Rng rng(5);
  std::vector<std::vector<int>> walk(1, std::vector<int>(ev.num_slots()));
  for (auto& a : walk[0]) a = static_cast<int>(rng.UniformInt(0, servers - 1));
  while (walk.size() < 4000) {
    std::vector<int> next = walk[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(walk.size()) - 1))];
    next[static_cast<size_t>(rng.UniformInt(0, ev.num_slots() - 1))] =
        static_cast<int>(rng.UniformInt(0, servers - 1));
    walk.push_back(std::move(next));
  }
  for (auto _ : state) {
    core::ServerCostMemo memo;
    double sum = 0;
    for (const std::vector<int>& a : walk) {
      sum += ev.Evaluate(a, use_memo ? &memo : nullptr);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * walk.size());
}
BENCHMARK(BM_EvaluateDirectWalk)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EvaluatorApplyMove(benchmark::State& state) {
  const auto prob = MakeProblem(196, 288);
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    ev.ApplyMove(slot, to);
    benchmark::DoNotOptimize(ev.current_cost());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorApplyMove);

// The anneal/LocalSearch swap on the BM_EvaluatorMoveDeltaDisk problem:
// a QuoteSwap of two slots on different servers (2 pricings), then nothing
// (SwapQuote, the reject path) or ApplySwap (SwapCommit: 4 row updates, no
// pricing). Items processed counts swaps.
void SwapBench(benchmark::State& state, bool commit) {
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int a = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    int b = a;
    while (ev.assignment()[b] == ev.assignment()[a]) {
      b = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    }
    const core::MoveQuote quote = ev.QuoteSwap(a, b);
    if (commit) ev.ApplySwap(quote);
    benchmark::DoNotOptimize(quote.delta);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EvaluatorSwapQuote(benchmark::State& state) { SwapBench(state, false); }
BENCHMARK(BM_EvaluatorSwapQuote);

void BM_EvaluatorSwapCommit(benchmark::State& state) { SwapBench(state, true); }
BENCHMARK(BM_EvaluatorSwapCommit);

// Anneal's relocation on the same problem: a QuoteMove of an unpinned slot
// to another server (2 pricings), then nothing (MoveQuote, the reject
// path) or ApplyMove(quote) (MoveCommit: 2 row updates, no pricing). Items
// processed counts relocations.
void MoveQuoteBench(benchmark::State& state, bool commit) {
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    int to = static_cast<int>(rng.UniformInt(0, 22));
    if (to >= ev.assignment()[slot]) ++to;
    const core::MoveQuote quote = ev.QuoteMove(slot, to);
    if (commit) ev.ApplyMove(quote);
    benchmark::DoNotOptimize(quote.delta);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EvaluatorMoveQuote(benchmark::State& state) {
  MoveQuoteBench(state, false);
}
BENCHMARK(BM_EvaluatorMoveQuote);

void BM_EvaluatorMoveCommit(benchmark::State& state) {
  MoveQuoteBench(state, true);
}
BENCHMARK(BM_EvaluatorMoveCommit);

// The pricing kernel alone on one path: a server's samples (CPU, RAM and
// an active disk axis, a few samples over a limit) summed by
// core::PriceSamplesOn. Registered in main() as
// BM_PricingKernel/<path>/<samples> for every path the host runs. Items
// processed counts pricings.
void BM_PricingKernel(benchmark::State& state, core::PricingKernel path,
                      int samples) {
  util::Rng rng(11);
  std::vector<double> cpu(samples), ram(samples), rate(samples);
  for (int t = 0; t < samples; ++t) {
    cpu[t] = rng.Uniform(2.0, 11.0);
    ram[t] = rng.Uniform(20e9, 80e9);
    rate[t] = rng.Uniform(100.0, 1900.0);
  }
  core::PricingConstants k;
  k.cpu_overhead = 0.5;
  k.ram_overhead = 0.5e9;
  k.cpu_full = 12.0;
  k.ram_full = 96e9;
  k.disk_full = 2000.0;
  k.cpu_limit = 10.8;
  k.ram_limit = 91.2e9;
  k.disk_limit = 1800.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PriceSamplesOn(
        path, k, {cpu.data()}, {ram.data()}, {rate.data()}, samples));
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterPricingKernelBenchmarks() {
  for (core::PricingKernel path :
       {core::PricingKernel::kAvx2, core::PricingKernel::kBaseline}) {
    if (!core::PricingKernelRuns(path)) continue;
    for (int samples : {48, 288, 290}) {
      const std::string name = std::string("BM_PricingKernel/") +
                               core::PricingKernelName(path) + "/" +
                               std::to_string(samples);
      benchmark::RegisterBenchmark(name.c_str(), BM_PricingKernel, path,
                                   samples);
    }
  }
}

// --- Observability substrate: the null-sink branch and the attached-sink
// --- write path must both be negligible next to a DIRECT probe (the
// --- granularity the engine instruments at).

void BM_RegistryCounter(benchmark::State& state) {
  obs::Sink sink;
  obs::Counter* c = sink.metrics().counter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounter);

void BM_TraceSinkEmit(benchmark::State& state) {
  obs::Sink sink;
  const uint32_t track = sink.trace().InternTrack("bench");
  const uint32_t name = sink.trace().InternName("event");
  int64_t i = 0;
  for (auto _ : state) {
    sink.trace().Emit(track, name, obs::EventKind::kPoint, i++, 1, 0.5);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSinkEmit);

/// The engine probe loop with a null vs attached sink: ProbeK carries the
/// instrumented branch, so the two arms bound the observer's overhead at
/// probe granularity (expected: indistinguishable — a DIRECT probe costs
/// orders of magnitude more than a ring write).
void BM_EngineProbeLoop(benchmark::State& state) {
  const bool attached = state.range(0) != 0;
  const auto prob = MakeProblem(32, 64);
  obs::Sink sink;
  core::EngineOptions options;
  options.probe_direct_evaluations = 60;
  options.sink = attached ? &sink : nullptr;
  core::ConsolidationEngine engine(prob, options);
  const int k = std::max(2, 32 / 4);
  for (auto _ : state) {
    core::Assignment out;
    benchmark::DoNotOptimize(engine.ProbeK(k, 60, &out));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(attached ? "sink=attached" : "sink=null");
}
BENCHMARK(BM_EngineProbeLoop)->Arg(0)->Arg(1);

// --- Telemetry ingestion: the fused IngestBatch hot loop vs the striped
// --- parallel IngestPlane. Items processed counts telemetry samples, so the
// --- rates are the samples/sec ladder of the online control plane's
// --- ingestion tier.

constexpr int kIngestStreams = 8192;
constexpr size_t kIngestWindow = 12;

std::vector<online::TelemetrySample> MakeIngestStep(int streams) {
  util::Rng rng(13);
  std::vector<online::TelemetrySample> step(streams);
  for (auto& s : step) {
    s.cpu_cores = rng.Exponential(0.8);
    s.ram_bytes = rng.Uniform(1e9, 8e9);
    s.update_rows_per_sec = rng.Exponential(50.0);
    s.working_set_bytes = rng.Uniform(1e9, 6e9);
  }
  return step;
}

void BM_IngestBatch(benchmark::State& state) {
  online::StreamingProfileBuilder builder(kIngestStreams, kIngestWindow, 300.0);
  const auto step = MakeIngestStep(kIngestStreams);
  for (auto _ : state) {
    builder.IngestBatch(step.data(), 0, kIngestStreams);
    builder.CommitStep();
    benchmark::DoNotOptimize(builder.samples_seen());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
}
BENCHMARK(BM_IngestBatch);

void BM_StreamingStats(benchmark::State& state) {
  // One Stats pass over every stream of full W-sample windows: the
  // per-stream fingerprint read a control step's drift scan pays. 2W + 3
  // steps leave the ring wrapped with its oldest slot at 3, as in a
  // steady-state controller. Items processed counts streams.
  const size_t window = static_cast<size_t>(state.range(0));
  online::StreamingProfileBuilder builder(kIngestStreams, window, 300.0);
  const auto base = MakeIngestStep(kIngestStreams);
  auto step = base;
  util::Rng rng(19);
  for (size_t t = 0; t < 2 * window + 3; ++t) {
    for (int w = 0; w < kIngestStreams; ++w) {
      const double f = rng.Uniform(0.9, 1.1);
      step[w].cpu_cores = base[w].cpu_cores * f;
      step[w].ram_bytes = base[w].ram_bytes * f;
      step[w].update_rows_per_sec = base[w].update_rows_per_sec * f;
    }
    builder.IngestBatch(step.data(), 0, kIngestStreams);
    builder.CommitStep();
  }
  for (auto _ : state) {
    for (int w = 0; w < kIngestStreams; ++w) {
      benchmark::DoNotOptimize(builder.Stats(w));
    }
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
  state.SetLabel("W=" + std::to_string(window));
}
BENCHMARK(BM_StreamingStats)->Arg(12)->Arg(288);

void BM_IngestBatchStriped(benchmark::State& state) {
  online::StreamingProfileBuilder builder(kIngestStreams, kIngestWindow, 300.0);
  online::IngestOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.stripes = 16;  // enough stripes to feed 8 workers
  online::IngestPlane plane(&builder, options);
  const auto step = MakeIngestStep(kIngestStreams);
  for (auto _ : state) {
    plane.IngestStep(step);
    benchmark::DoNotOptimize(builder.samples_seen());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
  state.SetLabel("threads=" + std::to_string(options.threads));
}
BENCHMARK(BM_IngestBatchStriped)->Arg(2)->Arg(4)->Arg(8);

void BM_DirectSphere(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  opt::DirectOptimizer direct;
  opt::DirectOptions opts;
  opts.max_evaluations = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct.Minimize(
        [](const std::vector<double>& x) {
          double s = 0;
          for (double xi : x) s += (xi - 0.4) * (xi - 0.4);
          return s;
        },
        dims, opts));
  }
}
BENCHMARK(BM_DirectSphere)->Arg(4)->Arg(32)->Arg(128);

}  // namespace
}  // namespace kairos

// Custom main instead of BENCHMARK_MAIN(): the harness flags (--smoke,
// --metrics-out) must be stripped before benchmark::Initialize, which
// rejects arguments it does not recognize, and the run ends by writing the
// standard BENCH_microbench.json report.
int main(int argc, char** argv) {
  kairos::bench::BenchReporter reporter("microbench", argc, argv);
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) continue;
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  kairos::RegisterPricingKernelBenchmarks();
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteReport();
}
