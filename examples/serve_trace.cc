/**
 * @file
 * Closed-loop serving driver: replays request-arrival traffic through
 * the full serving stack — traffic model -> time-ordered request pool
 * -> Orca-style iteration scheduler -> iteration-latency model — and
 * reports per-request TTFT / time-between-tokens / end-to-end
 * percentiles for every combination of the four backends (NPU-only,
 * NPU+PIM, NeuPIMs, NeuPIMs+SBI), the three traffic models (poisson,
 * bursty, replay) and both datasets (ShareGPT, Alpaca).
 *
 * Deterministic under a fixed --seed: the per-config checksum folds
 * every request's finish cycle, so two runs with the same arguments
 * print identical tables and checksums on any platform.
 *
 *   ./serve_trace [--requests N] [--rate RPS] [--seed S]
 *                 [--model NAME] [--backend NAME] [--traffic KIND]
 *                 [--dataset NAME] [--trace FILE.csv] [--measured]
 *                 [--calibrate] [--dump-trace]
 *                 [--mem-sched frfcfs|pim-frfcfs|paws]
 *                 [--prefill legacy|whole|chunked] [--chunk N]
 *                 [--no-piggyback]
 *                 [--preempt off|recompute|swap]
 *                 [--victim lifo|fewest|longest] [--swap-gbps F]
 *                 [--kv-scale N]
 *                 [--policy fcfs|priority|edf]
 *                 [--classes uniform|two-tier|three-tier]
 *                 [--slo-ttft-ms F] [--slo-tpt-ms F] [--aging-ms F]
 *                 [--fault SPEC] [--client-timeout-ms F]
 *                 [--retries N] [--retry-backoff-ms F]
 *                 [--shed-watermark F] [--shed-wait-ms F]
 *                 [--prefix-share] [--hot-fraction F]
 *                 [--sys-tokens N] [--turns F] [--think-ms F]
 *                 [--hybrid N] [--hybrid-anchors FILE]
 *
 * --trace replays an external CSV (arrival_us,input,output rows) in
 * place of the synthetic fixed-rate replay trace. --measured swaps
 * the analytic iteration model for the memoized cycle-accurate
 * executor (orders of magnitude slower; small request counts only).
 * --calibrate anchors the analytic model to one measured point per
 * backend first. --prefill selects the prompt-pass policy (default
 * chunked with a --chunk token budget, piggybacked onto decode
 * iterations unless --no-piggyback); the report's TTFT splits into
 * queueing + prefill + first-decode accordingly.
 *
 * --preempt selects the memory-pressure policy: off stalls admission
 * while the KV cache is full (legacy), recompute frees victims' pages
 * and re-runs their sequences through chunked prefill, swap parks
 * pages in a host tier over a --swap-gbps link. --victim picks the
 * eviction order; --kv-scale shrinks device KV capacity by an integer
 * factor to drive over-capacity scenarios without changing traffic.
 *
 * --mem-sched selects the DRAM command-arbitration policy of every
 * backend's memory controllers (dram/mem_sched.h): frfcfs is the
 * paper's arbitration (bit-identical to the historical engine),
 * pim-frfcfs drains PIM at row-buffer-friendly priority, paws runs
 * PAWS-style cap-and-switch MEM<->PIM modes. The choice also selects
 * the analytic model's calibrated SBI overlap surface. Runs whose
 * latency model executed the cycle-accurate engine (--measured, or
 * --calibrate's anchor) print a mem-sched summary line (row-hit rate,
 * stall/waste cycles, mode switches) under the config row.
 *
 * --policy selects the scheduling policy that owns admission order,
 * prefill-budget sharing, victim scoring and restore order (fcfs
 * reproduces the historical scheduler bit-for-bit); --classes stamps
 * arrivals with a priority-class mix carrying per-request SLO
 * targets, --slo-ttft-ms/--slo-tpt-ms set the default targets for
 * requests without their own, and --aging-ms tunes PriorityClass
 * anti-starvation aging. Multi-class runs append per-class latency
 * and SLO-attainment lines under each config row.
 *
 * --fault injects deterministic fault events
 * ("kind:startMs[:chan[:durMs[:factor]]]", comma-separated; kinds
 * fail|brownout|straggler — DESIGN.md §10). Faults require the
 * preemption lifecycle for recovery, so --fault with --preempt off
 * auto-upgrades to recompute (a note is printed).
 * --client-timeout-ms gives every request an impatient client that
 * abandons it at the deadline; --retries re-submits abandoned
 * attempts after exponential backoff (first delay
 * --retry-backoff-ms). --shed-watermark/--shed-wait-ms arm the
 * load-shedding admission gate (free-KV fraction / oldest-wait
 * watermarks). Runs with any robustness event print an availability
 * summary line (timeouts, sheds, retries, wasted tokens, recovery
 * time, goodput) under the config row.
 *
 * --prefix-share turns on refcounted copy-on-write KV page sharing
 * over the radix prefix index (runtime/kv_cache.h, DESIGN.md §13):
 * admission binds whole prompt pages already in the index by
 * reference and prefill starts at the first uncached token. Off (the
 * default) reproduces every pre-sharing trace byte-for-byte. The
 * "session" --traffic kind generates multi-turn conversations with a
 * shared system prompt — --hot-fraction sets the share of sessions
 * carrying it, --sys-tokens its length, --turns the mean turns per
 * session and --think-ms the mean think-time gap between turns. Runs
 * with sharing enabled print a prefix summary line (hit rate, tokens/
 * pages deduplicated, COW copies) under the config row.
 *
 * --hybrid N swaps in the hybrid-fidelity model: the engine executes
 * every Nth iteration plus forced samples on composition changes,
 * everything between is analytically fast-forwarded at the last
 * measured/analytic ratio; a sampling summary line prints under each
 * config row. --hybrid-anchors FILE preloads the persisted
 * measured/analytic anchor sidecar (written by bench/fig_serving_latency
 * next to BENCH_serving.json, and re-saved here after the run) so the
 * fast-forward starts calibrated instead of at ratio 1.0.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/serving_setup.h"
#include "model/llm_config.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

using namespace neupims;

namespace {

struct Options
{
    int requests = 96;
    double rate = 0.0; ///< 0 = per-dataset default
    std::uint64_t seed = 42;
    std::string model = "GPT3-13B";
    std::string backend = "all";
    std::string traffic = "all";
    std::string dataset = "all";
    std::string traceCsv;
    std::string prefill = "chunked";
    int chunkTokens = 256;
    bool piggyback = true;
    std::string preempt = "off";
    std::string victim = "lifo";
    double swapGbps = 64.0;
    int kvScale = 1;
    std::string policy = "fcfs";
    std::string classes = "uniform";
    std::string memSched = "frfcfs";
    double sloTtftMs = 250.0;
    double sloTptMs = 25.0;
    double agingMs = 50.0;
    std::string fault;
    double clientTimeoutMs = 0.0;
    int retries = 0;
    double retryBackoffMs = 5.0;
    double shedWatermark = 0.0;
    double shedWaitMs = 0.0;
    /** Refcounted COW prefix sharing (runtime/kv_cache.h). */
    bool prefixShare = false;
    /** Session-traffic shape (used by --traffic session only). */
    double hotFraction = 0.75;
    int sysTokens = 192;
    double meanTurns = 3.0;
    double thinkMs = 150.0;
    int maxLen = 0; ///< 0 = dataset default
    bool measured = false;
    bool calibrate = false;
    bool dumpTrace = false;
    /** Hybrid fidelity: engine-sample every Nth iteration (0 = off). */
    int hybrid = 0;
    /** Anchor sidecar preloaded into and saved from the hybrid model. */
    std::string hybridAnchors;
};

/**
 * Per-dataset default arrival rate: ~2/3 of full NeuPIMs' sustainable
 * token throughput, so the strongest backend runs loaded-but-stable
 * while the baselines saturate and queue — the regime where the
 * serving designs differentiate.
 */
double
defaultRate(const runtime::DatasetConfig &ds)
{
    return ds.name == "Alpaca" ? 320.0 : 48.0;
}

/** FNV-1a over every completed request's finish cycle (determinism). */
std::uint64_t
finishChecksum(const runtime::ServingEngine &engine, int submitted)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (RequestId id = 0; id < submitted; ++id) {
        const runtime::Request &req = engine.pool().request(id);
        fold(req.status == runtime::RequestStatus::Done
                 ? req.finishCycle
                 : kCycleMax);
    }
    return h;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--requests N] [--rate RPS] [--seed S]\n"
        "          [--model NAME] [--backend "
        "NPU-only|NPU+PIM|NeuPIMs|NeuPIMs+SBI|all]\n"
        "          [--traffic poisson|bursty|replay|session|all] "
        "[--dataset ShareGPT|Alpaca|all]\n"
        "          [--trace FILE.csv] [--measured] [--calibrate] "
        "[--dump-trace]\n"
        "          [--prefill legacy|whole|chunked] [--chunk N] "
        "[--no-piggyback]\n"
        "          [--mem-sched frfcfs|pim-frfcfs|paws]\n"
        "          [--preempt off|recompute|swap] [--victim "
        "lifo|fewest|longest]\n"
        "          [--swap-gbps F] [--kv-scale N] [--policy "
        "fcfs|priority|edf]\n"
        "          [--classes uniform|two-tier|three-tier]\n"
        "          [--slo-ttft-ms F] [--slo-tpt-ms F] [--aging-ms F]\n"
        "          [--fault kind:startMs[:chan[:durMs[:factor]]],...]\n"
        "          [--client-timeout-ms F] [--retries N] "
        "[--retry-backoff-ms F]\n"
        "          [--shed-watermark F] [--shed-wait-ms F]\n"
        "          [--prefix-share] [--hot-fraction F] "
        "[--sys-tokens N]\n"
        "          [--turns F] [--think-ms F]\n"
        "          [--hybrid N] [--hybrid-anchors FILE]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--requests")
            opt.requests = std::atoi(value());
        else if (arg == "--rate")
            opt.rate = std::atof(value());
        else if (arg == "--seed")
            opt.seed = static_cast<std::uint64_t>(std::atoll(value()));
        else if (arg == "--model")
            opt.model = value();
        else if (arg == "--backend")
            opt.backend = value();
        else if (arg == "--traffic")
            opt.traffic = value();
        else if (arg == "--dataset")
            opt.dataset = value();
        else if (arg == "--trace")
            opt.traceCsv = value();
        else if (arg == "--prefill")
            opt.prefill = value();
        else if (arg == "--chunk")
            opt.chunkTokens = std::atoi(value());
        else if (arg == "--no-piggyback")
            opt.piggyback = false;
        else if (arg == "--preempt")
            opt.preempt = value();
        else if (arg == "--victim")
            opt.victim = value();
        else if (arg == "--swap-gbps")
            opt.swapGbps = std::atof(value());
        else if (arg == "--kv-scale")
            opt.kvScale = std::atoi(value());
        else if (arg == "--policy")
            opt.policy = value();
        else if (arg == "--mem-sched")
            opt.memSched = value();
        else if (arg == "--classes")
            opt.classes = value();
        else if (arg == "--slo-ttft-ms")
            opt.sloTtftMs = std::atof(value());
        else if (arg == "--slo-tpt-ms")
            opt.sloTptMs = std::atof(value());
        else if (arg == "--aging-ms")
            opt.agingMs = std::atof(value());
        else if (arg == "--fault")
            opt.fault = value();
        else if (arg == "--client-timeout-ms")
            opt.clientTimeoutMs = std::atof(value());
        else if (arg == "--retries")
            opt.retries = std::atoi(value());
        else if (arg == "--retry-backoff-ms")
            opt.retryBackoffMs = std::atof(value());
        else if (arg == "--shed-watermark")
            opt.shedWatermark = std::atof(value());
        else if (arg == "--shed-wait-ms")
            opt.shedWaitMs = std::atof(value());
        else if (arg == "--prefix-share")
            opt.prefixShare = true;
        else if (arg == "--hot-fraction")
            opt.hotFraction = std::atof(value());
        else if (arg == "--sys-tokens")
            opt.sysTokens = std::atoi(value());
        else if (arg == "--turns")
            opt.meanTurns = std::atof(value());
        else if (arg == "--think-ms")
            opt.thinkMs = std::atof(value());
        else if (arg == "--max-len")
            opt.maxLen = std::atoi(value());
        else if (arg == "--hybrid")
            opt.hybrid = std::atoi(value());
        else if (arg == "--hybrid-anchors")
            opt.hybridAnchors = value();
        else if (arg == "--measured")
            opt.measured = true;
        else if (arg == "--calibrate")
            opt.calibrate = true;
        else if (arg == "--dump-trace")
            opt.dumpTrace = true;
        else {
            usage(argv[0]);
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    auto llm = model::modelByName(opt.model);

    // Fault recovery re-dispatches force-evicted requests through the
    // preemption lifecycle; there is no recovery path with it off.
    if (!opt.fault.empty() && opt.preempt == "off") {
        std::printf("# --fault requires preemption for recovery; "
                    "upgrading --preempt off -> recompute\n");
        opt.preempt = "recompute";
    }

    std::vector<core::ServingBackend> backends;
    if (opt.backend == "all")
        backends = core::standardServingBackends();
    else
        backends.push_back(core::servingBackendByName(opt.backend));
    for (auto &b : backends)
        core::applyMemSched(b.device, opt.memSched);

    std::vector<std::string> traffics;
    if (opt.traffic == "all")
        traffics = runtime::standardTrafficKinds();
    else
        traffics.push_back(opt.traffic);

    std::vector<runtime::DatasetConfig> datasets;
    if (opt.dataset == "all" || opt.dataset == "ShareGPT")
        datasets.push_back(runtime::shareGptDataset());
    if (opt.dataset == "all" || opt.dataset == "Alpaca")
        datasets.push_back(runtime::alpacaDataset());
    if (datasets.empty())
        fatal("unknown dataset '", opt.dataset,
              "' (expected ShareGPT|Alpaca|all)");
    if (opt.maxLen > 0) {
        for (auto &ds : datasets)
            ds.maxLength = opt.maxLen;
    }

    runtime::PrefillPolicy policy = runtime::prefillPolicyByName(opt.prefill);
    runtime::ClassMix mix = runtime::classMixByName(opt.classes);
    std::printf("NeuPIMs closed-loop serving: %s, %d requests, "
                "seed %llu, %s iteration model, %s prefill"
                " (chunk %d%s), %s preemption (victim %s, "
                "%.0f GB/s%s), %s policy (%s classes), "
                "%s mem-sched\n\n",
                llm.name.c_str(), opt.requests,
                static_cast<unsigned long long>(opt.seed),
                opt.hybrid > 0 ? "hybrid"
                : opt.measured ? "measured"
                               : "analytic",
                opt.prefill.c_str(), opt.chunkTokens,
                opt.piggyback ? ", piggyback" : "",
                opt.preempt.c_str(), opt.victim.c_str(), opt.swapGbps,
                opt.kvScale > 1 ? ", shrunk KV" : "",
                opt.policy.c_str(), opt.classes.c_str(),
                opt.memSched.c_str());
    std::printf("%-12s %-8s %-9s %5s %9s %9s %6s | %8s %8s %8s | "
                "%8s %8s %8s | %8s %8s | %6s | %4s %4s %7s | %s\n",
                "backend", "traffic", "dataset", "done", "span(ms)",
                "tok/s", "batch", "ttft-p50", "ttft-p95", "ttft-p99",
                "queue-50", "prefil-50", "1dec-50", "e2e-p50",
                "e2e-p99", "tbt-ms", "pree", "drop", "swap-MB",
                "checksum");

    for (const auto &backend : backends) {
        std::unique_ptr<runtime::IterationLatencyModel> latency;
        core::HybridIterationModel *hybrid = nullptr;
        if (opt.hybrid > 0) {
            auto h = core::makeHybridIterationModel(
                backend.device, llm, opt.hybrid, 64, opt.hybridAnchors);
            if (!opt.hybridAnchors.empty() && h->anchorCount() > 0)
                std::printf("# hybrid %s: preloaded %d anchors "
                            "from %s\n",
                            backend.name.c_str(),
                            static_cast<int>(h->anchorCount()),
                            opt.hybridAnchors.c_str());
            hybrid = h.get();
            latency = std::move(h);
        } else {
            latency = core::makeIterationModel(backend.device, llm,
                                               opt.measured);
        }
        if (opt.calibrate && !opt.measured && opt.hybrid == 0) {
            double s =
                static_cast<core::AnalyticIterationModel *>(
                    latency.get())
                    ->calibrate(256, 512);
            std::printf("# calibrated %s: scale %.3f\n",
                        backend.name.c_str(), s);
        }
        for (const auto &ds : datasets) {
            double rate = opt.rate > 0 ? opt.rate : defaultRate(ds);
            for (const auto &kind : traffics) {
                std::unique_ptr<runtime::TrafficModel> traffic;
                if (kind == "replay" && !opt.traceCsv.empty()) {
                    traffic = runtime::ReplayTraffic::fromCsvFile(
                        opt.traceCsv);
                } else if (kind == "session") {
                    runtime::SessionTrafficConfig scfg;
                    scfg.hotFraction = opt.hotFraction;
                    scfg.systemPromptTokens = opt.sysTokens;
                    scfg.meanTurns = opt.meanTurns;
                    scfg.thinkMs = opt.thinkMs;
                    traffic = runtime::makeSessionTraffic(
                        ds, rate, opt.requests, opt.seed, scfg);
                } else {
                    traffic = runtime::makeTraffic(kind, ds, rate,
                                                   opt.requests,
                                                   opt.seed);
                }
                traffic->setClassMix(mix, opt.seed);
                if (opt.clientTimeoutMs > 0)
                    traffic->setClientTimeout(static_cast<Cycle>(
                        opt.clientTimeoutMs * 1e6));

                auto cfg = core::servingConfigFor(backend.device, llm);
                cfg.scheduler.prefill.policy = policy;
                cfg.scheduler.prefill.chunkTokens = opt.chunkTokens;
                cfg.scheduler.prefill.piggyback = opt.piggyback;
                core::ServingOptions serving_opt;
                serving_opt.preempt = opt.preempt;
                serving_opt.victim = opt.victim;
                serving_opt.swapGbps = opt.swapGbps;
                serving_opt.policy = opt.policy;
                serving_opt.agingMs = opt.agingMs;
                serving_opt.sloTtftMs = opt.sloTtftMs;
                serving_opt.sloTptMs = opt.sloTptMs;
                serving_opt.kvScale = opt.kvScale;
                serving_opt.fault = opt.fault;
                serving_opt.faultSeed = opt.seed;
                serving_opt.retries = opt.retries;
                serving_opt.retryBackoffMs = opt.retryBackoffMs;
                serving_opt.shedWatermark = opt.shedWatermark;
                serving_opt.shedWaitMs = opt.shedWaitMs;
                serving_opt.prefixShare = opt.prefixShare;
                core::applyServingOptions(cfg, serving_opt);
                runtime::ServingEngine engine(cfg, *traffic, *latency);
                auto report = engine.run();
                report.backend = backend.name;
                report.dataset = ds.name;

                std::printf(
                    "%-12s %-8s %-9s %5d %9.1f %9.0f %6.1f | %8.1f "
                    "%8.1f %8.1f | %8.1f %8.1f %8.1f | %8.0f %8.0f | "
                    "%6.2f | %4llu %4d %7.1f | %016llx\n",
                    backend.name.c_str(), report.traffic.c_str(),
                    ds.name.c_str(), report.requestsCompleted,
                    cyclesToMicros(report.makespanCycles) / 1e3,
                    report.tokensPerSecond(), report.meanBatchSize,
                    report.ttftUs.p50() / 1e3,
                    report.ttftUs.p95() / 1e3,
                    report.ttftUs.p99() / 1e3,
                    report.queueUs.p50() / 1e3,
                    report.prefillUs.p50() / 1e3,
                    report.firstDecodeUs.p50() / 1e3,
                    report.e2eUs.p50() / 1e3,
                    report.e2eUs.p99() / 1e3,
                    report.tbtUs.mean() / 1e3,
                    static_cast<unsigned long long>(
                        report.preemptions),
                    report.requestsDropped,
                    static_cast<double>(report.swapOutBytes +
                                        report.swapInBytes) /
                        1e6,
                    static_cast<unsigned long long>(finishChecksum(
                        engine, report.requestsSubmitted)));

                // Prefix-sharing summary whenever the feature is on:
                // how much prefill the radix index collapsed.
                if (opt.prefixShare) {
                    std::printf(
                        "    prefix: hit %.1f%% (%llu/%llu) | "
                        "tok-dedup %llu pages-dedup %llu | cow %llu "
                        "published %llu reclaimed %llu\n",
                        report.prefixHitRate * 100.0,
                        static_cast<unsigned long long>(
                            report.prefixHits),
                        static_cast<unsigned long long>(
                            report.prefixAdmissions),
                        static_cast<unsigned long long>(
                            report.prefixTokensDeduped),
                        static_cast<unsigned long long>(
                            report.prefixPagesDeduped),
                        static_cast<unsigned long long>(
                            report.prefixCowCopies),
                        static_cast<unsigned long long>(
                            report.prefixPagesPublished),
                        static_cast<unsigned long long>(
                            report.prefixPagesReclaimed));
                }

                // Availability summary whenever the run degraded at
                // all (faults, timeouts, retries or shedding).
                if (report.requestsTimedOut > 0 ||
                    report.requestsShed > 0 ||
                    report.requestsRetried > 0 ||
                    report.channelsFailed > 0 ||
                    report.channelsBrownedOut > 0 ||
                    report.faultPreemptions > 0) {
                    std::printf(
                        "    avail: timeout=%d shed=%d retried=%d "
                        "wasted-tok=%llu chfail=%d brown=%d "
                        "fault-pree=%llu kv-lost=%llu | recovery-ms "
                        "p50 %.1f max %.1f (n=%d) | goodput %d req "
                        "%.0f tok/s\n",
                        report.requestsTimedOut, report.requestsShed,
                        report.requestsRetried,
                        static_cast<unsigned long long>(
                            report.wastedTokens),
                        report.channelsFailed,
                        report.channelsBrownedOut,
                        static_cast<unsigned long long>(
                            report.faultPreemptions),
                        static_cast<unsigned long long>(
                            report.kvPagesLost),
                        report.recoveryUs.p50() / 1e3,
                        report.recoveryUs.maxValue() / 1e3,
                        static_cast<int>(report.recoveryUs.count()),
                        report.requestsInSlo,
                        report.goodputTokensPerSecond());
                }

                // Hybrid-fidelity sampling summary: how much of the
                // run the event engine actually executed.
                if (hybrid != nullptr) {
                    std::printf(
                        "    hybrid N=%d: sampled=%llu (forced %llu) "
                        "fast-forwarded=%llu engine-runs=%llu "
                        "anchors=%d ratio=%.4f\n",
                        hybrid->sampleEvery(),
                        static_cast<unsigned long long>(
                            hybrid->sampledIterations()),
                        static_cast<unsigned long long>(
                            hybrid->forcedSamples()),
                        static_cast<unsigned long long>(
                            hybrid->fastForwarded()),
                        static_cast<unsigned long long>(
                            hybrid->executorRuns()),
                        static_cast<int>(hybrid->anchorCount()),
                        hybrid->ratio());
                }

                // DRAM arbitration summary whenever the latency
                // model ran the cycle-accurate memory system
                // (--measured accumulates it over cache-miss runs,
                // --calibrate carries its anchor run's stats).
                if (report.memSched.valid) {
                    std::printf(
                        "    mem-sched %s: row-hit %.1f%% "
                        "(h/m/c %llu/%llu/%llu) | cmds mem %llu "
                        "pim %llu | stall %llu waste %llu | "
                        "switches %llu | bank-util %.1f%%\n",
                        report.memSched.policy.c_str(),
                        report.memSched.rowHitRate * 100.0,
                        static_cast<unsigned long long>(
                            report.memSched.rowHits),
                        static_cast<unsigned long long>(
                            report.memSched.rowMisses),
                        static_cast<unsigned long long>(
                            report.memSched.rowConflicts),
                        static_cast<unsigned long long>(
                            report.memSched.memCommands),
                        static_cast<unsigned long long>(
                            report.memSched.pimCommands),
                        static_cast<unsigned long long>(
                            report.memSched.pimStallCycles),
                        static_cast<unsigned long long>(
                            report.memSched.pimWasteCycles),
                        static_cast<unsigned long long>(
                            report.memSched.modeSwitches),
                        report.memSched.memBankUtil * 100.0);
                }

                // Per-class breakdown whenever the run actually has
                // classes to break down.
                if (report.classes.size() > 1) {
                    for (const auto &cls : report.classes) {
                        std::printf(
                            "    class %d: n=%-4d done=%-4d "
                            "drop=%-3d pree=%-3d | ttft-p50 %8.1f "
                            "p95 %8.1f | e2e-p95 %8.0f | "
                            "slo-ttft %5.1f%% slo-tpt %5.1f%%\n",
                            cls.priorityClass, cls.submitted,
                            cls.completed, cls.dropped,
                            cls.preempted, cls.ttftUs.p50() / 1e3,
                            cls.ttftUs.p95() / 1e3,
                            cls.e2eUs.p95() / 1e3,
                            cls.ttftAttainment * 100.0,
                            cls.tptAttainment * 100.0);
                    }
                }

                if (opt.dumpTrace) {
                    for (const auto &row : engine.trace()) {
                        std::printf("    iter %4d @%12llu +%9llu "
                                    "batch %3d pf %2d/%4dt admit %2d "
                                    "retire %2d wait %3d kv %4.1f%% "
                                    "pre %2d res %2d park %2d "
                                    "swap %5.1fMB\n",
                                    row.iteration,
                                    static_cast<unsigned long long>(
                                        row.startCycle),
                                    static_cast<unsigned long long>(
                                        row.iterationCycles),
                                    row.batch, row.prefilling,
                                    row.prefillTokens, row.admitted,
                                    row.retired, row.waiting,
                                    row.kvUtilization * 100.0,
                                    row.preempted, row.restored,
                                    row.preemptedPool,
                                    static_cast<double>(
                                        row.swapOutBytes +
                                        row.swapInBytes) /
                                        1e6);
                        if (row.timedOut > 0 || row.shed > 0 ||
                            row.retriesScheduled > 0 ||
                            row.faultPreempted > 0 ||
                            row.offlineChannels > 0)
                            std::printf("         timeout %2d shed %2d "
                                        "retry %2d fault-pre %2d "
                                        "offline-ch %2d\n",
                                        row.timedOut, row.shed,
                                        row.retriesScheduled,
                                        row.faultPreempted,
                                        row.offlineChannels);
                    }
                }
            }
        }
        if (hybrid != nullptr && !opt.hybridAnchors.empty()) {
            if (hybrid->saveAnchors(opt.hybridAnchors))
                std::printf("# hybrid %s: saved %d anchors to %s\n",
                            backend.name.c_str(),
                            static_cast<int>(hybrid->anchorCount()),
                            opt.hybridAnchors.c_str());
            else
                std::printf("# hybrid %s: FAILED to save anchors "
                            "to %s\n",
                            backend.name.c_str(),
                            opt.hybridAnchors.c_str());
        }
    }
    return 0;
}
