/**
 * @file
 * Integration tests of the device execution engine: the paper's
 * qualitative orderings must hold on a scaled-down model (so the
 * suite stays fast), and the executor's accounting must be
 * internally consistent.
 */

#include <gtest/gtest.h>

#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"

namespace neupims::core {
namespace {

/** A small decoder model that keeps simulations under a second. */
model::LlmConfig
tinyModel()
{
    model::LlmConfig cfg;
    cfg.name = "tiny-1B";
    cfg.numLayers = 8;
    cfg.numHeads = 8;
    cfg.dModel = 1024;
    cfg.defaultTp = 1;
    cfg.defaultPp = 1;
    return cfg;
}

/** A long-context batch so MHA matters (the PIM regime). */
BatchComposition
longContextBatch(const DeviceConfig &dev, const model::LlmConfig &llm,
                 int batch, int seq)
{
    std::vector<runtime::SequenceSample> samples(batch);
    for (int i = 0; i < batch; ++i) {
        samples[i].inputLength = seq + (i % 7) * 32;
        samples[i].outputLength = 64;
        samples[i].generatedTokens = i % 32;
    }
    return buildComposition(samples, dev.org.channels,
                            dev.flags.minLoadPacking,
                            latencyParamsFor(dev, llm, 1));
}

IterationResult
run(const DeviceConfig &dev, const model::LlmConfig &llm, int batch,
    int seq, int window = 3)
{
    DeviceExecutor exec(dev, llm, 1, llm.numLayers);
    return exec.runIteration(longContextBatch(dev, llm, batch, seq),
                             window, 1);
}

TEST(Executor, ProducesPositiveConsistentNumbers)
{
    auto llm = tinyModel();
    auto res = run(DeviceConfig::neuPims(), llm, 32, 256);
    EXPECT_GT(res.windowCycles, 0u);
    EXPECT_GT(res.perLayerCycles, 0u);
    EXPECT_GE(res.iterationCycles, res.windowCycles);
    EXPECT_GT(res.throughputTokensPerSec, 0.0);
    EXPECT_GT(res.totalFlops, 0.0);
    EXPECT_GT(res.dataBusBytes, 0u);
    for (double u : {res.npuUtil, res.pimUtil, res.bwUtil, res.vuUtil}) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(Executor, DeterministicAcrossRuns)
{
    auto llm = tinyModel();
    auto a = run(DeviceConfig::neuPims(), llm, 32, 256);
    auto b = run(DeviceConfig::neuPims(), llm, 32, 256);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.iterationCycles, b.iterationCycles);
    EXPECT_DOUBLE_EQ(a.npuUtil, b.npuUtil);
}

TEST(Executor, PaperOrderingHoldsInPimFriendlyRegime)
{
    auto llm = tinyModel();
    const int batch = 64, seq = 512;
    auto npu = run(DeviceConfig::npuOnly(), llm, batch, seq);
    auto naive = run(DeviceConfig::naiveNpuPim(), llm, batch, seq);
    auto neu = run(DeviceConfig::neuPims(), llm, batch, seq);
    // NPU-only < naive NPU+PIM < NeuPIMs (Fig. 12's ordering).
    EXPECT_GT(naive.throughputTokensPerSec,
              npu.throughputTokensPerSec);
    EXPECT_GT(neu.throughputTokensPerSec,
              naive.throughputTokensPerSec);
}

TEST(Executor, NeuPimsRaisesNpuAndPimUtilization)
{
    auto llm = tinyModel();
    auto naive = run(DeviceConfig::naiveNpuPim(), llm, 64, 512);
    auto neu = run(DeviceConfig::neuPims(), llm, 64, 512);
    EXPECT_GT(neu.npuUtil, naive.npuUtil);   // Table 4 column order
    EXPECT_GT(neu.bwUtil, naive.bwUtil);
}

TEST(Executor, NpuOnlyNeverTouchesPim)
{
    auto llm = tinyModel();
    auto res = run(DeviceConfig::npuOnly(), llm, 16, 128);
    EXPECT_EQ(res.pimBankBusyCycles, 0u);
    EXPECT_EQ(res.commands.totalPim(), 0u);
}

TEST(Executor, PimSystemsOffloadKvTraffic)
{
    auto llm = tinyModel();
    auto npu = run(DeviceConfig::npuOnly(), llm, 32, 512);
    auto neu = run(DeviceConfig::neuPims(), llm, 32, 512);
    // The KV sweep leaves the external data bus when PIM handles MHA
    // (per-iteration traffic shrinks even though SBI re-streams
    // weights).
    EXPECT_GT(npu.dataBusBytes, neu.dataBusBytes / 2);
    EXPECT_GT(neu.commands.totalPim(), 0u);
}

TEST(Executor, CompositeInterfaceCutsCommandTraffic)
{
    auto llm = tinyModel();
    auto naive = run(DeviceConfig::naiveNpuPim(), llm, 32, 512);
    auto drb = run(DeviceConfig::ablation(true, false, false), llm, 32,
                   512);
    EXPECT_GT(naive.commands.count(dram::CommandType::PimDotProduct),
              0u);
    EXPECT_EQ(drb.commands.count(dram::CommandType::PimDotProduct), 0u);
    EXPECT_GT(drb.commands.count(dram::CommandType::PimGemv), 0u);
    EXPECT_LT(drb.commands.totalPim(), naive.commands.totalPim());
}

TEST(Executor, SerialModesReportPhaseBreakdown)
{
    auto llm = tinyModel();
    auto naive = run(DeviceConfig::naiveNpuPim(), llm, 32, 512);
    EXPECT_GT(naive.phases.qkvCycles, 0u);
    EXPECT_GT(naive.phases.mhaCycles, 0u);
    EXPECT_GT(naive.phases.projFfnCycles, 0u);
    // The naive integration idles the NPU during MHA (Fig. 6): the
    // compute phases are an order of magnitude busier.
    EXPECT_LT(naive.phases.npuUtilMha, 0.05);
    EXPECT_GT(naive.phases.npuUtilQkv, 10 * naive.phases.npuUtilMha);
    EXPECT_GT(naive.phases.npuUtilQkv, 0.1);
    EXPECT_GT(naive.phases.pimUtilMha, 0.0);
}

TEST(Executor, SbiFallsBackBelowThreshold)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::neuPims();
    ASSERT_GT(dev.sbiMinBatch, 16);
    // Below the threshold the executor runs serially: phases appear.
    auto small = run(dev, llm, 16, 256);
    EXPECT_GT(small.phases.mhaCycles, 0u);
    // Above it the sub-batches overlap: no serial phase breakdown.
    auto large = run(dev, llm, 2 * dev.sbiMinBatch, 256);
    EXPECT_EQ(large.phases.mhaCycles, 0u);
}

TEST(Executor, ForcedSbiReStreamsWeights)
{
    auto llm = tinyModel();
    auto serial = DeviceConfig::ablation(true, true, false);
    auto sbi = DeviceConfig::ablation(true, true, true);
    auto a = run(serial, llm, 32, 128);
    auto b = run(sbi, llm, 32, 128);
    // Interleaving splits the batch: the weight stream runs once per
    // sub-batch (the §8.2 small-batch penalty).
    EXPECT_GT(b.dataBusBytes, a.dataBusBytes * 14 / 10);
}

TEST(Executor, IterationComposesOverDeviceLayers)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::naiveNpuPim();
    DeviceExecutor exec4(dev, llm, 1, 4);
    DeviceExecutor exec8(dev, llm, 1, 8);
    auto batch = longContextBatch(dev, llm, 32, 256);
    auto r4 = exec4.runIteration(batch, 3, 1);
    auto r8 = exec8.runIteration(batch, 3, 1);
    // Same per-layer behaviour, double the layers: iteration grows by
    // 4 extra steady-state periods.
    EXPECT_EQ(r8.iterationCycles - r4.iterationCycles,
              4 * r8.perLayerCycles);
}

TEST(Executor, LongerContextSlowsIteration)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::naiveNpuPim();
    auto short_ctx = run(dev, llm, 32, 128);
    auto long_ctx = run(dev, llm, 32, 1024);
    EXPECT_GT(long_ctx.iterationCycles, short_ctx.iterationCycles);
}

TEST(ExecutorDeathTest, BadWindowPanics)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::neuPims();
    DeviceExecutor exec(dev, llm, 1, llm.numLayers);
    auto batch = longContextBatch(dev, llm, 8, 64);
    EXPECT_DEATH((void)exec.runIteration(batch, 1, 1), "assertion");
}

TEST(ExecutorDeathTest, SimThreadsAboveOnePanics)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::neuPims();
    dev.simThreads = 4;
    EXPECT_DEATH(DeviceExecutor(dev, llm, 1, llm.numLayers),
                 "threaded channel stepping was removed");
}

} // namespace
} // namespace neupims::core
