/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event-queue throughput (two-level calendar queue vs the seed's
 * std::function heap), DRAM command throughput, PIM kernel execution,
 * systolic-array model evaluation, compiled-layer caching and the
 * full runIteration path with the channel-symmetry fast path on and
 * off. These guard the simulator's own performance — the Fig. 12
 * grid replays hundreds of millions of DRAM commands — and track the
 * perf trajectory across PRs.
 *
 * Run with no arguments to emit BENCH_engine.json (the tracked
 * artifact); any explicit --benchmark_* flags suppress the default
 * output file. The Fig. 12-style sweeps are tagged "Grid" and can be
 * excluded in smoke runs via
 * --benchmark_filter=-.*Grid.*
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/event_queue.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "dram/controller.h"
#include "model/llm_config.h"
#include "npu/systolic_array.h"

using namespace neupims;
using namespace neupims::dram;

namespace {

// ---------------------------------------------------------------------------
// Event queue: bucketed calendar queue vs the seed heap reference.
// ---------------------------------------------------------------------------

template <typename Queue>
void
scheduleRunWorkload(benchmark::State &state)
{
    for (auto _ : state) {
        Queue eq;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(static_cast<Cycle>(i), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    scheduleRunWorkload<EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleRun)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(262144);

void
BM_EventQueueScheduleRunHeap(benchmark::State &state)
{
    scheduleRunWorkload<HeapEventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleRunHeap)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(262144);

/**
 * The simulator's steady-state pattern: many concurrent short-delta
 * reschedule chains (controller kicks, stream completions) with
 * moderate-size captures.
 */
template <typename Queue>
void
chainedWorkload(benchmark::State &state)
{
    const int chains = static_cast<int>(state.range(0));
    const int hops = static_cast<int>(state.range(1));
    for (auto _ : state) {
        Queue eq;
        long sink = 0;
        for (int c = 0; c < chains; ++c) {
            auto body =
                std::make_shared<std::function<void(int)>>();
            *body = [&eq, &sink, body](int left) {
                ++sink;
                if (left > 0) {
                    eq.scheduleIn(
                        17 + static_cast<Cycle>(left % 191),
                        [body, left] { (*body)(left - 1); });
                }
            };
            eq.schedule(static_cast<Cycle>(c % 64),
                        [body, hops] { (*body)(hops); });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * chains *
                            (hops + 1));
}

void
BM_EventQueueChained(benchmark::State &state)
{
    chainedWorkload<EventQueue>(state);
}
BENCHMARK(BM_EventQueueChained)->Args({256, 1000});

void
BM_EventQueueChainedHeap(benchmark::State &state)
{
    chainedWorkload<HeapEventQueue>(state);
}
BENCHMARK(BM_EventQueueChainedHeap)->Args({256, 1000});

// ---------------------------------------------------------------------------
// DRAM controller and PIM kernels.
// ---------------------------------------------------------------------------

void
BM_MemStream(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        TimingParams t;
        Organization org;
        MemoryController mc(eq, t, org, ControllerConfig::make(true));
        for (int i = 0; i < rows; ++i) {
            MemJob job;
            job.bank = i % org.banksPerChannel;
            job.row = i / org.banksPerChannel;
            job.bursts = org.burstsPerRow();
            mc.enqueueMem(std::move(job));
        }
        eq.run();
        benchmark::DoNotOptimize(mc.completedMemJobs());
    }
    state.SetItemsProcessed(state.iterations() * rows);
    state.SetBytesProcessed(state.iterations() * rows * 1024);
}
BENCHMARK(BM_MemStream)->Arg(1024)->Arg(16384);

void
BM_PimKernel(benchmark::State &state)
{
    const bool composite = state.range(1) != 0;
    for (auto _ : state) {
        EventQueue eq;
        TimingParams t;
        Organization org;
        MemoryController mc(eq, t, org,
                            ControllerConfig::make(composite));
        PimJob job;
        job.rowTiles = static_cast<int>(state.range(0));
        job.banksUsed = t.pimParallelBanks;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = composite;
        mc.enqueuePim(std::move(job));
        eq.run();
        benchmark::DoNotOptimize(mc.completedPimJobs());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PimKernel)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 1});

void
BM_SystolicArrayModel(benchmark::State &state)
{
    npu::SystolicArrayPool pool(npu::SystolicArrayConfig{}, 8);
    std::int64_t m = state.range(0);
    Cycle total = 0;
    for (auto _ : state) {
        npu::GemmShape shape{m, 7168, 7168};
        total += pool.gemmCycles(shape);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_SystolicArrayModel)->Arg(64)->Arg(512);

// ---------------------------------------------------------------------------
// Compiler: layer compilation with and without the memoization cache.
// ---------------------------------------------------------------------------

void
BM_CompileLayer(benchmark::State &state)
{
    const bool cached = state.range(0) != 0;
    auto llm = model::gpt3_30b();
    model::MemShape mem;
    model::Compiler compiler(llm, llm.defaultTp, mem);
    auto comp = core::uniformComposition(512, 512, mem.channels);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        if (!cached) {
            // A fresh compiler per iteration defeats the cache.
            model::Compiler cold(llm, llm.defaultTp, mem);
            sink += cold.compileLayer(comp.full).mha.totalSoftmaxElems;
        } else {
            sink += compiler.compileLayer(comp.full)
                        .mha.totalSoftmaxElems;
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileLayer)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cached"});

// ---------------------------------------------------------------------------
// Full engine: runIteration on Fig. 12-style cells and grid sweeps,
// with the channel-symmetry fast path off (reference) and on.
// ---------------------------------------------------------------------------

core::IterationResult
runCell(const core::DeviceConfig &dev, const model::LlmConfig &llm,
        int batch, int context)
{
    auto comp = core::uniformComposition(batch, context,
                                         dev.org.channels);
    core::DeviceExecutor exec(dev, llm, llm.defaultTp,
                              llm.layersPerDevice(llm.defaultPp));
    int window = dev.flags.subBatchInterleaving ? 3 : 2;
    return exec.runIteration(comp, window, 1);
}

void
BM_RunIteration(benchmark::State &state)
{
    const bool symmetry = state.range(0) != 0;
    auto llm = model::gpt3_7b();
    auto dev = core::DeviceConfig::neuPims();
    dev.flags.channelSymmetry = symmetry;
    Cycle sink = 0;
    for (auto _ : state) {
        sink += runCell(dev, llm, 256, 512).iterationCycles;
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunIteration)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"symmetry"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/**
 * A controller-bound runIteration cell small enough for the CI filter
 * `-(Grid|RunIteration)`, so the committed BENCH_engine.json always
 * carries one full-engine number; BM_RunIteration stays the big cell.
 */
void
BM_EngineCell(benchmark::State &state)
{
    auto llm = model::gpt3_7b();
    auto dev = core::DeviceConfig::neuPims();
    dev.flags.channelSymmetry = true;
    Cycle sink = 0;
    for (auto _ : state) {
        sink += runCell(dev, llm, 64, 128).iterationCycles;
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineCell)->Unit(benchmark::kMillisecond);

/**
 * A reduced Fig. 12 grid (all three simulated systems, the paper's
 * batch axis, ShareGPT/Alpaca-scale contexts) — the wall-clock
 * acceptance workload for the symmetry fast path. Bit-identity of
 * the two variants is covered by tests/core/test_symmetry.cc.
 */
void
BM_Fig12GridSweep(benchmark::State &state)
{
    const bool symmetry = state.range(0) != 0;
    auto llm = model::gpt3_7b();
    std::vector<core::DeviceConfig> systems = {
        core::DeviceConfig::npuOnly(),
        core::DeviceConfig::naiveNpuPim(),
        core::DeviceConfig::neuPims(),
    };
    for (auto &dev : systems)
        dev.flags.channelSymmetry = symmetry;

    Cycle sink = 0;
    for (auto _ : state) {
        for (const auto &dev : systems) {
            for (int batch : {64, 128, 256, 384, 512}) {
                for (int context : {128, 512}) {
                    sink += runCell(dev, llm, batch, context)
                                .iterationCycles;
                }
            }
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(BM_Fig12GridSweep)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"symmetry"})
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

} // namespace

int
main(int argc, char **argv)
{
    // Default to emitting the tracked perf artifact; explicit
    // --benchmark_* flags take full control instead.
    std::vector<std::string> args(argv, argv + argc);
    bool has_flags = false;
    for (const auto &a : args) {
        if (a.rfind("--benchmark_", 0) == 0)
            has_flags = true;
    }
    if (!has_flags) {
        args.push_back("--benchmark_out=BENCH_engine.json");
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> argv2;
    argv2.reserve(args.size());
    for (auto &a : args)
        argv2.push_back(a.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    // Build type of *this* binary (library_build_type reports the
    // system benchmark library's, which stays "debug" regardless):
    // CI's staleness check requires a committed artifact built with
    // optimizations on.
#ifdef NDEBUG
    benchmark::AddCustomContext("build_type", "release");
#else
    benchmark::AddCustomContext("build_type", "debug");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
