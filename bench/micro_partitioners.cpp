// Micro-benchmarks: partitioner throughput and scaling.
//
// Measures the partitioning algorithms themselves (the "partitioning time"
// component of the PAC metric) across grain sizes and processor counts,
// plus the Berger–Rigoutsos clusterer and the work-grid rasterization.
//
// In addition to the google-benchmark suite, main() first runs a small
// fixed harness over the hot pipeline kernels — prefix-sum splitters vs the
// reference scan kernels, serial vs parallel WorkGrid build, the
// communication fold, the execution model's mapping of a repartition and
// the owner-map projection — and writes the results to
// BENCH_partition_pipeline.json (name -> ns/op, cells, threads; each entry
// the median of 5 timed batches after its own warm-up) so runs can be
// diffed mechanically.  It then runs the equivalence gates below.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/synthetic.hpp"
#include "pragma/core/exec_model.hpp"
#include "pragma/partition/metrics.hpp"
#include "pragma/util/stats.hpp"
#include "pragma/util/table.hpp"
#include "pragma/util/thread_pool.hpp"

using namespace pragma;

namespace {

/// Work in SFC order, the sequence the reference scan kernels divide.
std::vector<double> sfc_sequence(const partition::WorkGrid& grid) {
  std::vector<double> sequence;
  sequence.reserve(grid.cell_count());
  for (const std::uint32_t c : grid.order()) sequence.push_back(grid.work(c));
  return sequence;
}

const amr::GridHierarchy& sample_hierarchy() {
  static const amr::GridHierarchy hierarchy = [] {
    amr::Rm3dConfig config;
    config.coarse_steps = 200;
    amr::Rm3dEmulator emulator(config);
    for (int s = 0; s < 160; ++s) emulator.advance();
    return emulator.hierarchy();
  }();
  return hierarchy;
}

void BM_Partition(benchmark::State& state, const char* name) {
  const auto partitioner = partition::make_partitioner(name);
  const partition::WorkGrid grid(sample_hierarchy(),
                                 partitioner->preferred_grain(),
                                 partitioner->curve());
  const auto targets =
      partition::equal_targets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner->partition(grid, targets));
  }
  state.SetLabel(std::string(name) + " cells=" +
                 std::to_string(grid.cell_count()));
}

// Prefix-sum kernel vs the original reference scan, on the same RM3D
// sequence.  The prefix variant shares the grid's prebuilt PrefixSums view,
// exactly as the partitioners do.
void BM_SplitterPrefix(
    benchmark::State& state,
    partition::Breaks (*splitter)(const partition::PrefixSums&,
                                  std::span<const double>)) {
  const partition::WorkGrid grid(sample_hierarchy(), 2);
  const auto targets =
      partition::equal_targets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter(grid.prefix_sums(), targets));
  }
  state.SetLabel("cells=" + std::to_string(grid.cell_count()));
}

void BM_SplitterReference(
    benchmark::State& state,
    partition::Breaks (*splitter)(std::span<const double>,
                                  std::span<const double>)) {
  const partition::WorkGrid grid(sample_hierarchy(), 2);
  const std::vector<double> sequence = sfc_sequence(grid);
  const auto targets =
      partition::equal_targets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter(sequence, targets));
  }
  state.SetLabel("cells=" + std::to_string(grid.cell_count()));
}

void BM_WorkGridBuild(benchmark::State& state) {
  const int grain = static_cast<int>(state.range(0));
  // thread arg 0 = auto (hardware_concurrency), 1 = the serial path
  const int threads =
      util::resolve_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::WorkGrid(
        sample_hierarchy(), grain, partition::CurveKind::kHilbert, threads));
  }
}

void BM_PacMetrics(benchmark::State& state) {
  const auto partitioner = partition::make_partitioner("G-MISP+SP");
  const partition::WorkGrid grid(sample_hierarchy(),
                                 partitioner->preferred_grain(),
                                 partitioner->curve());
  const auto targets = partition::equal_targets(64);
  const partition::PartitionResult result =
      partitioner->partition(grid, targets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::evaluate_pac(grid, result, targets));
  }
}

void BM_Regrid(benchmark::State& state) {
  amr::Rm3dConfig config;
  config.coarse_steps = 200;
  amr::Rm3dEmulator emulator(config);
  for (int s = 0; s < 120; ++s) emulator.advance();
  for (auto _ : state) {
    emulator.regrid();
  }
}

// ---- Fixed JSON harness ---------------------------------------------------

struct PipelineEntry {
  std::string name;
  double ns_per_op = 0.0;
  std::size_t cells = 0;
  int threads = 1;
};

/// Time `fn` with a plain steady_clock loop: after a warm-up call (first
/// touch, curve cache), one timed call sizes a batch to ~40 ms, and the
/// median ns/op over kBatches timed batches is reported, so one slow batch
/// cannot move it.
template <typename Fn>
double time_ns_per_op(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  constexpr int kBatches = 5;
  constexpr double kBatchSeconds = 0.04;
  constexpr double kMaxIters = 1u << 20;
  const auto seconds_of = [&fn](std::size_t iters) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  fn();
  const double once = std::max(seconds_of(1), 1e-9);
  const auto iters = static_cast<std::size_t>(
      std::clamp(kBatchSeconds / once, 1.0, kMaxIters));
  std::vector<double> ns_per_op(kBatches);
  for (double& ns : ns_per_op)
    ns = seconds_of(iters) * 1e9 / static_cast<double>(iters);
  return util::median(ns_per_op);
}

bool write_pipeline_json(const std::vector<PipelineEntry>& entries,
                         const char* path) {
  util::BenchJsonWriter json;
  for (const PipelineEntry& e : entries)
    json.entry(e.name)
        .field("ns_per_op", e.ns_per_op)
        .field("cells", e.cells)
        .field("threads", e.threads);
  return json.write(path);
}

std::vector<PipelineEntry> run_pipeline_harness() {
  const amr::GridHierarchy& hierarchy = sample_hierarchy();
  const partition::WorkGrid grid(hierarchy, 2);
  const std::vector<double> sequence = sfc_sequence(grid);
  const std::size_t cells = grid.cell_count();
  const auto targets = partition::equal_targets(64);
  const int hw = util::resolve_threads(0);

  std::vector<PipelineEntry> entries;
  auto add = [&](std::string name, int threads, double ns) {
    entries.push_back({std::move(name), ns, cells, threads});
  };

  struct SplitterPair {
    const char* name;
    partition::Breaks (*prefix)(const partition::PrefixSums&,
                                std::span<const double>);
    partition::Breaks (*reference)(std::span<const double>,
                                   std::span<const double>);
  };
  const SplitterPair splitters[] = {
      {"greedy_split", &partition::greedy_split,
       &partition::reference_greedy_split},
      {"plain_greedy_split", &partition::plain_greedy_split,
       &partition::reference_plain_greedy_split},
      {"optimal_split", &partition::optimal_split,
       &partition::reference_optimal_split},
      {"dissection_split", &partition::dissection_split,
       &partition::reference_dissection_split},
  };
  for (const SplitterPair& s : splitters) {
    add(std::string(s.name) + "/prefix", 1, time_ns_per_op([&] {
          benchmark::DoNotOptimize(s.prefix(grid.prefix_sums(), targets));
        }));
    add(std::string(s.name) + "/reference", 1, time_ns_per_op([&] {
          benchmark::DoNotOptimize(s.reference(sequence, targets));
        }));
  }

  for (const int threads : {1, hw}) {
    add("workgrid_build", threads, time_ns_per_op([&] {
          benchmark::DoNotOptimize(partition::WorkGrid(
              hierarchy, 2, partition::CurveKind::kHilbert, threads));
        }));
    if (hw == 1) break;
  }

  const auto partitioner = partition::make_partitioner("G-MISP+SP");
  const partition::PartitionResult result =
      partitioner->partition(grid, targets);
  add("communication_volume", 1, time_ns_per_op([&] {
        benchmark::DoNotOptimize(
            partition::communication_volume(grid, result.owners));
      }));

  // A repartition as the replay and the managed run cost it: the new
  // assignment mapped with the migration from the previous one.
  const partition::OwnerMap previous =
      partition::make_partitioner("SFC")->partition(grid, targets).owners;
  const core::ExecutionModel model;
  add("execution_model_map", 1, time_ns_per_op([&] {
        benchmark::DoNotOptimize(
            model.map(grid, result.owners, nullptr, &previous));
      }));

  // pBD-ISP's grain-4 assignment projected onto this grain-2 lattice.
  const partition::WorkGrid native(hierarchy, 4,
                                   partition::CurveKind::kMorton);
  const partition::OwnerMap coarse =
      partition::make_partitioner("pBD-ISP")->partition(native, targets)
          .owners;
  add("project_owners", 1, time_ns_per_op([&] {
        benchmark::DoNotOptimize(core::project_owners(
            coarse, native.lattice_dims(), grid.lattice_dims()));
      }));
  return entries;
}

// ---- Equivalence gates ----------------------------------------------------
//
// Run once on a 1M-cell synthetic lattice: the vectorized build must match
// WorkGrid::reference_build bitwise, the execution model's communication
// tally must match partition::communication_volume's fold, and a mapping
// with a previous assignment must match the two-pass form (the mapping
// alone, then a separate migration loop).  Any violation makes the binary
// exit nonzero, which is what the perf-smoke CI job checks.

/// Bitwise comparison of every array a grid build produces.
bool grids_bitwise_equal(const partition::WorkGrid& a,
                         const partition::WorkGrid& b, const char* what,
                         int& failures) {
  const auto fail = [&](const char* field) {
    std::fprintf(stderr, "GATE FAILED: %s: %s differs bitwise\n", what,
                 field);
    ++failures;
    return false;
  };
  if (a.cell_count() != b.cell_count() || a.num_levels() != b.num_levels())
    return fail("shape");
  const std::size_t n = a.cell_count();
  for (std::size_t c = 0; c < n; ++c) {
    const double wa = a.work(c);
    const double wb = b.work(c);
    if (std::memcmp(&wa, &wb, sizeof(double)) != 0) return fail("work");
    if (a.levels_present(c) != b.levels_present(c)) return fail("levels");
    const double sa = a.storage(c);
    const double sb = b.storage(c);
    if (std::memcmp(&sa, &sb, sizeof(double)) != 0) return fail("storage");
  }
  // With equal work, an equal curve order gives an equal SFC sequence.
  if (a.order() != b.order()) return fail("order");
  for (std::size_t i = 0; i <= n; ++i) {
    const double pa = a.prefix_sums().prefix(i);
    const double pb = b.prefix_sums().prefix(i);
    if (std::memcmp(&pa, &pb, sizeof(double)) != 0) return fail("prefix");
  }
  const double ta = a.total_work();
  const double tb = b.total_work();
  if (std::memcmp(&ta, &tb, sizeof(double)) != 0) return fail("total_work");
  return true;
}

/// The two-pass migration oracle: a lattice-order loop over both owner
/// maps after the mapping, then the worst processor's bytes over its
/// uplink.
double two_pass_migration_time(const partition::WorkGrid& grid,
                               const partition::OwnerMap& previous,
                               const partition::OwnerMap& current,
                               const grid::Cluster& cluster,
                               const core::ExecModelConfig& config) {
  const auto nprocs = static_cast<std::size_t>(
      std::max(previous.nprocs, current.nprocs));
  std::vector<double> outgoing(nprocs, 0.0);
  std::vector<double> incoming(nprocs, 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const int from = previous.owner[c];
    const int to = current.owner[c];
    if (from == to) continue;
    const double bytes = grid.storage(c) * config.bytes_per_cell;
    outgoing[static_cast<std::size_t>(from)] += bytes;
    incoming[static_cast<std::size_t>(to)] += bytes;
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < nprocs && p < cluster.size(); ++p) {
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    if (rate <= 0.0) continue;
    worst = std::max(worst, (outgoing[p] + incoming[p]) / rate);
  }
  return worst * config.redistribution_overhead;
}

/// Every field map() tallies without a previous assignment.
bool mapped_bitwise_equal(const core::MappedLoad& a,
                          const core::MappedLoad& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return same(a.work, b.work) && same(a.face_cells, b.face_cells) &&
         same(a.messages, b.messages) &&
         std::memcmp(&a.communication, &b.communication, sizeof(double)) ==
             0 &&
         std::memcmp(&a.wan_face_cells, &b.wan_face_cells, sizeof(double)) ==
             0 &&
         std::memcmp(&a.wan_messages, &b.wan_messages, sizeof(double)) == 0;
}

int run_equivalence_gates() {
  // 128 x 128 x 64 grain cells at grain 2 = 1,048,576 cells.
  amr::SyntheticConfig config;
  config.base_dims = {256, 256, 128};
  config.box_count = 96;
  config.box_edge = 32;
  constexpr int kGrain = 2;
  const amr::GridHierarchy hierarchy =
      amr::SyntheticAppGenerator(config).build_hierarchy();

  int failures = 0;
  const partition::WorkGrid grid(hierarchy, kGrain);
  grids_bitwise_equal(grid,
                      partition::WorkGrid::reference_build(hierarchy, kGrain),
                      "vectorized vs reference build", failures);

  const auto partitioner = partition::make_partitioner("G-MISP+SP");
  const partition::OwnerMap owners =
      partitioner->partition(grid, partition::equal_targets(64)).owners;
  const double folded = partition::communication_volume(grid, owners);
  const double mapped = core::ExecutionModel{}.map(grid, owners).communication;
  if (std::memcmp(&mapped, &folded, sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: execution-model communication differs "
                 "from communication_volume (%.17g vs %.17g)\n",
                 mapped, folded);
    ++failures;
  }

  // A non-integer bytes_per_cell makes the migration sums order-sensitive,
  // and the previous assignment has more processors than the new one.
  core::ExecModelConfig exec;
  exec.bytes_per_cell = 80.3;
  const core::ExecutionModel model(exec);
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(80);
  const partition::OwnerMap previous =
      partition::make_partitioner("SFC")
          ->partition(grid, partition::equal_targets(80))
          .owners;
  const core::MappedLoad one = model.map(grid, owners, nullptr, &previous);
  if (!mapped_bitwise_equal(one, model.map(grid, owners))) {
    std::fprintf(stderr,
                 "GATE FAILED: mapping with a previous assignment differs "
                 "from the mapping alone\n");
    ++failures;
  }
  const double migration = model.migration_time(one, cluster);
  const double two_pass =
      two_pass_migration_time(grid, previous, owners, cluster, exec);
  if (std::memcmp(&migration, &two_pass, sizeof(double)) != 0 ||
      !(migration > 0.0)) {
    std::fprintf(stderr,
                 "GATE FAILED: one-sweep migration time differs from the "
                 "two-pass form (%.17g vs %.17g)\n",
                 migration, two_pass);
    ++failures;
  }
  return failures;
}

}  // namespace

BENCHMARK_CAPTURE(BM_Partition, sfc, "SFC")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Partition, isp, "ISP")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Partition, gmisp, "G-MISP")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Partition, gmisp_sp, "G-MISP+SP")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_Partition, pbd_isp, "pBD-ISP")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Partition, sp_isp, "SP-ISP")->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_SplitterPrefix, greedy, &partition::greedy_split)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_SplitterReference, greedy,
                  &partition::reference_greedy_split)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_SplitterPrefix, optimal, &partition::optimal_split)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_SplitterReference, optimal,
                  &partition::reference_optimal_split)
    ->Arg(64);
BENCHMARK(BM_WorkGridBuild)->ArgsProduct({{2, 4, 8}, {1, 0}});
BENCHMARK(BM_PacMetrics);
BENCHMARK(BM_Regrid);

int main(int argc, char** argv) {
  const std::vector<PipelineEntry> entries = run_pipeline_harness();
  if (write_pipeline_json(entries, "BENCH_partition_pipeline.json"))
    std::printf("wrote BENCH_partition_pipeline.json (%zu entries)\n",
                entries.size());
  else
    std::fprintf(stderr,
                 "could not write BENCH_partition_pipeline.json\n");
  for (const PipelineEntry& e : entries)
    std::printf("  %-36s threads=%d  %12.1f ns/op\n", e.name.c_str(),
                e.threads, e.ns_per_op);
  const int gate_failures = run_equivalence_gates();
  if (gate_failures > 0) {
    std::fprintf(stderr, "%d equivalence gate(s) failed\n", gate_failures);
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
