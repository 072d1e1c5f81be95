/**
 * @file
 * Benchmark driver: runs one named workload of the NeuPIMs serving
 * stack or of the cycle-accurate engine and prints one JSON line
 * holding the metrics, the request accounting, the host context and
 * every failed correctness check. run.py in this directory builds and
 * wraps it; NOTES.md explains the workloads and what each metric
 * should move.
 *
 *   perfbench_driver --workload NAME [--seed N] [--trace 0|1]
 *                    [--seconds S] [--spans FILE]
 *
 * Every repetition builds fresh configs, latency models and traffic
 * from the seed (setup), then serves or runs the engine grid (run).
 * The first repetition is a warm-up, timed only when it takes 1 s or
 * more. With --trace 0 repetitions are timed until the process has
 * run for --seconds (at least one). run_s sums the fastest CPU time
 * of each part of the run over them: each engine cell, and the rest
 * (the whole serving run); run.py combines several driver processes
 * the same way. With --trace 1 three untraced and three traced
 * repetitions alternate: the traced ones record a span around each
 * call into a layer, from outside the library, and give the per-layer
 * metrics and the tracing overhead. The per-layer figures and the
 * spans written to --spans are those of the fastest traced
 * repetition.
 *
 * run_s and setup_s are process CPU time, which leaves out the time
 * the process waits for a CPU (other processes, hypervisor steal);
 * the spans and the tracing overhead use wall time. setup_s is the
 * fastest of all set-ups, those of the repetitions and at least 21
 * more made after them; every simulated number and count is exact and
 * must repeat bit for bit.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_builder.h"
#include "core/executor.h"
#include "core/serving_setup.h"
#include "model/llm_config.h"
#include "runtime/latency_stats.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"
#include "runtime/workload.h"

using namespace neupims;

namespace {

using Clock = std::chrono::steady_clock;
using runtime::LatencyStats;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU time of this process so far: the simulator runs on one thread,
 * and waiting for a CPU does not count. */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- tracing -----------------------------------------------------------

/** Layers a span can belong to; "bench" is the driver's own code. */
enum Layer { kBench, kRuntime, kTraffic, kPricing, kEngine, kNumLayers };
const char *const kLayerNames[kNumLayers] = {"bench", "runtime",
                                             "traffic", "pricing",
                                             "engine"};

/** Bounds on traced over untraced run time. Host contention can make
 * either repetition of a pair the slower one by a fifth; a traced run
 * outside these bounds has spans that miss work or cost too much. */
constexpr double kMinTraceOverhead = 0.75;
constexpr double kMaxTraceOverhead = 2.0;

struct Span
{
    Layer layer;
    double start; ///< seconds since the tracer was made
    double end;
    int parent;     ///< index of the enclosing span, -1 for the root
    long iteration; ///< serving iteration / grid cell, -1 for none
};

/** In-memory span recorder for one repetition (single-threaded). */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    int
    open(Layer layer, long iteration)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({layer, now(), 0.0, parent, iteration});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int span)
    {
        spans_[span].end = now();
        stack_.pop_back();
    }

    /** Self time per layer: each span's duration minus the part its
     * direct children cover (children nest and never overlap). */
    std::array<double, kNumLayers>
    selfSeconds() const
    {
        std::vector<double> covered(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                covered[s.parent] += s.end - s.start;
        }
        std::array<double, kNumLayers> self{};
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].layer] +=
                spans_[i].end - spans_[i].start - covered[i];
        return self;
    }

    /** Durations of every span of @p layer. */
    std::vector<double>
    durations(Layer layer) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.layer == layer)
                out.push_back(s.end - s.start);
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "index\tname\tstart_s\tend_s\tparent\titeration\n";
        char line[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(line, sizeof(line), "%zu\t%s\t%.9f\t%.9f\t%d\t%ld\n",
                          i, kLayerNames[s.layer], s.start, s.end,
                          s.parent, s.iteration);
            out << line;
        }
        return static_cast<bool>(out);
    }

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Forwards to the real latency model and spans every call. */
class TracedLatencyModel : public runtime::IterationLatencyModel
{
  public:
    TracedLatencyModel(runtime::IterationLatencyModel &inner,
                       Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    const std::string &name() const override { return inner_.name(); }

    Cycle
    iterationCycles(const runtime::IterationSchedule &schedule) override
    {
        int span = tracer_.open(kPricing, calls_);
        Cycle cycles = inner_.iterationCycles(schedule);
        tracer_.close(span);
        ++calls_;
        if (!schedule.prefill.empty())
            ++mixed_;
        return cycles;
    }

    runtime::MemSchedSummary
    memSchedSummary() const override
    {
        return inner_.memSchedSummary();
    }

    long calls() const { return calls_; }
    long mixed() const { return mixed_; }

  private:
    runtime::IterationLatencyModel &inner_;
    Tracer &tracer_;
    long calls_ = 0;
    long mixed_ = 0;
};

/** Forwards to the real traffic model and spans every arrival. */
class TracedTraffic : public runtime::TrafficModel
{
  public:
    TracedTraffic(runtime::TrafficModel &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    const std::string &name() const override { return inner_.name(); }

    std::optional<runtime::ArrivalEvent>
    next() override
    {
        int span = tracer_.open(kTraffic, -1);
        auto ev = inner_.next();
        tracer_.close(span);
        return ev;
    }

  private:
    runtime::TrafficModel &inner_;
    Tracer &tracer_;
};

// --- results -------------------------------------------------------------

/** FNV-1a fold of simulated outputs (determinism checks). */
struct Checksum
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

using Metrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build fresh state from the seed (timed as setup_s). */
    virtual void setup() = 0;

    /** Drop the state setup() built (run() does this itself). */
    virtual void release() = 0;

    /** Run on the state setup() built, then release it (timed as
     * run_s). Appends failed correctness checks to @p errors and
     * returns the checksum of the simulated outputs. */
    virtual std::uint64_t run(Tracer *tracer,
                              std::vector<std::string> &errors) = 0;

    /** Results of the last run, end-to-end or per-layer: simulated
     * figures and counts. Per-layer metrics of layers the workload
     * never reaches are left out (run.py reports them as 0). */
    virtual void simMetrics(Metrics &m, bool per_layer) const = 0;

    /** Requests (serving) or grid cells (engine) per run. */
    virtual long attempted() const = 0;
    virtual long failed() const = 0;

    /** Summed simulated engine window cycles of the last run (0 when
     * the workload cannot observe them from outside). */
    virtual double engineWindowCycles() const { return 0.0; }

    /** CPU seconds of each separately timed part of the last run (the
     * engine's grid cells); empty when the run is one part. */
    virtual std::vector<double> partSeconds() const { return {}; }
};

// --- serving workloads ------------------------------------------------------

struct ServeSpec
{
    std::string backend;
    runtime::DatasetConfig dataset;
    std::string traffic; ///< "poisson" | "session"
    double rate;         ///< requests per second
    int requests;
    bool prefixShare;
};

class ServeWorkload : public Workload
{
  public:
    ServeWorkload(const ServeSpec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed)
    {
    }

    void
    setup() override
    {
        core::DeviceConfig dev =
            core::servingBackendByName(spec_.backend).device;
        dev.simThreads = 1;
        model::LlmConfig llm = model::gpt3_13b();

        cfg_ = core::servingConfigFor(dev, llm);
        core::ServingOptions opt;
        opt.preempt = "recompute";
        opt.prefixShare = spec_.prefixShare;
        core::applyServingOptions(cfg_, opt);

        latency_ = core::makeIterationModel(dev, llm);

        // The whole arrival schedule is drawn here, open loop.
        std::unique_ptr<runtime::TrafficModel> gen =
            spec_.traffic == "session"
                ? runtime::makeSessionTraffic(spec_.dataset, spec_.rate,
                                              spec_.requests, seed_)
                : runtime::makeTraffic(spec_.traffic, spec_.dataset,
                                       spec_.rate, spec_.requests, seed_);
        traffic_ = std::make_unique<runtime::ReplayTraffic>(gen->name(),
                                                            gen->drain());
    }

    std::uint64_t
    run(Tracer *tracer, std::vector<std::string> &errors) override
    {
        int rep = tracer ? tracer->open(kBench, -1) : -1;
        std::optional<TracedLatencyModel> traced_latency;
        std::optional<TracedTraffic> traced_traffic;
        runtime::IterationLatencyModel *latency = latency_.get();
        runtime::TrafficModel *traffic = traffic_.get();
        if (tracer) {
            traced_latency.emplace(*latency_, *tracer);
            traced_traffic.emplace(*traffic_, *tracer);
            latency = &*traced_latency;
            traffic = &*traced_traffic;
        }

        Checksum sum;
        {
            runtime::ServingEngine engine(cfg_, *traffic, *latency);
            int span = tracer ? tracer->open(kRuntime, -1) : -1;
            report_ = engine.run();
            if (tracer)
                tracer->close(span);
            for (RequestId id = 0; id < report_.requestsSubmitted; ++id) {
                const runtime::Request &req = engine.pool().request(id);
                sum.fold(req.status == runtime::RequestStatus::Done
                             ? req.finishCycle
                             : kCycleMax);
            }
        }
        const runtime::ServingReport &r = report_;
        for (std::uint64_t v :
             {std::uint64_t(r.iterations), r.generatedTokens,
              r.preemptions, r.restores, r.prefixAdmissions,
              r.prefixHits, r.prefixCowCopies, r.prefixPagesPublished,
              r.prefixPagesReclaimed, std::uint64_t(r.requestsDropped)})
            sum.fold(v);

        const long settled = long(r.requestsCompleted) +
                             r.requestsDropped + r.requestsTimedOut +
                             r.requestsShed + r.requestsInFlight;
        if (settled != r.requestsSubmitted)
            errors.push_back(
                "request conservation: submitted " +
                std::to_string(r.requestsSubmitted) +
                " != completed+dropped+timed out+shed+in flight " +
                std::to_string(settled));
        if (r.hitSafetyStop)
            errors.push_back("serving run hit its safety stop");
        if (r.requestsSubmitted != spec_.requests)
            errors.push_back("submitted " +
                             std::to_string(r.requestsSubmitted) +
                             " requests, expected " +
                             std::to_string(spec_.requests));
        if (r.requestsCompleted == 0 || r.makespanCycles == 0)
            errors.push_back("serving run completed nothing");

        if (tracer) {
            pricingCalls_ = traced_latency->calls();
            pricingMixed_ = traced_latency->mixed();
        }
        release();
        if (tracer)
            tracer->close(rep);
        return sum.h;
    }

    void
    release() override
    {
        latency_.reset();
        traffic_.reset();
    }

    void
    simMetrics(Metrics &m, bool per_layer) const override
    {
        const runtime::ServingReport &r = report_;
        if (!per_layer) {
            m["sim_tokens_per_s"] = r.tokensPerSecond();
            return;
        }
        const double submitted = r.requestsSubmitted;
        m["sim_ttft_p50_ms"] = r.ttftUs.p50() / 1e3;
        // A tail percentile needs >= 10 samples beyond it.
        if (r.ttftUs.count() >= 1000)
            m["sim_ttft_p99_ms"] = r.ttftUs.p99() / 1e3;
        if (r.tbtUs.count() >= 1000)
            m["sim_tbt_p99_ms"] = r.tbtUs.p99() / 1e3;
        m["sim_slo_share"] = r.requestsInSlo / submitted;
        m["failed_share"] = failed() / submitted;
        m["requests.sent"] = r.requestsSubmitted;
        m["requests.completed"] = r.requestsCompleted;
        m["requests.failed"] = static_cast<double>(failed());
        m["runtime.iterations"] = r.iterations;
        m["runtime.mean_batch"] = r.meanBatchSize;
        m["runtime.sim_queue_p50_ms"] = r.queueUs.p50() / 1e3;
        m["kv.preemptions"] = static_cast<double>(r.preemptions);
        m["kv.restores"] = static_cast<double>(r.restores);
        m["kv.prefix_hit_rate"] = r.prefixHitRate;
        m["kv.pages_published"] =
            static_cast<double>(r.prefixPagesPublished);
        m["kv.pages_reclaimed"] =
            static_cast<double>(r.prefixPagesReclaimed);
        m["kv.cow_copies"] = static_cast<double>(r.prefixCowCopies);
        m["pricing.calls"] = static_cast<double>(pricingCalls_);
        m["pricing.mixed_share"] =
            pricingCalls_ > 0 ? double(pricingMixed_) / pricingCalls_ : 0.0;
    }

    long attempted() const override { return report_.requestsSubmitted; }

    long
    failed() const override
    {
        return long(report_.requestsDropped) + report_.requestsTimedOut +
               report_.requestsShed + report_.requestsInFlight;
    }

  private:
    ServeSpec spec_;
    std::uint64_t seed_;
    runtime::ServingConfig cfg_;
    std::unique_ptr<runtime::IterationLatencyModel> latency_;
    std::unique_ptr<runtime::ReplayTraffic> traffic_;
    runtime::ServingReport report_;
    long pricingCalls_ = 0; ///< of the last traced run
    long pricingMixed_ = 0;
};

// --- engine workload ----------------------------------------------------

/** One Fig. 12 cell: a system running one warm decode batch. */
struct EngineCell
{
    core::DeviceConfig dev;
    runtime::DatasetConfig dataset;
    int batch;
};

class EngineWorkload : public Workload
{
  public:
    EngineWorkload(std::vector<EngineCell> cells, std::uint64_t seed)
        : cells_(std::move(cells)), seed_(seed)
    {
        for (EngineCell &c : cells_) {
            c.dev.flags.channelSymmetry = true;
            c.dev.simThreads = 1;
        }
    }

    void
    setup() override
    {
        model::LlmConfig llm = model::gpt3_13b();
        const int tp = llm.defaultTp;
        const int layers = llm.layersPerDevice(llm.defaultPp);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const EngineCell &c = cells_[i];
            // Every cell sees the same warm batch, as in the Fig. 12
            // bench.
            runtime::WorkloadGenerator gen(c.dataset, seed_);
            auto samples = gen.warmBatch(c.batch);
            auto est = core::latencyParamsFor(c.dev, llm, tp);
            comps_.push_back(core::buildComposition(
                samples, c.dev.org.channels, c.dev.flags.minLoadPacking,
                est));
            executors_.push_back(std::make_unique<core::DeviceExecutor>(
                c.dev, llm, tp, layers));
        }
    }

    std::uint64_t
    run(Tracer *tracer, std::vector<std::string> &errors) override
    {
        int rep = tracer ? tracer->open(kBench, -1) : -1;
        results_.clear();
        cellSeconds_.clear();
        Checksum sum;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            // Interleaved execution needs an extra layer to settle
            // into its cadence; serial modes repeat per layer.
            const int window =
                cells_[i].dev.flags.subBatchInterleaving ? 3 : 2;
            int span = tracer ? tracer->open(kEngine, long(i)) : -1;
            const double c0 = cpuSeconds();
            results_.push_back(
                executors_[i]->runIteration(comps_[i], window, 1));
            cellSeconds_.push_back(cpuSeconds() - c0);
            if (tracer)
                tracer->close(span);
            const core::IterationResult &r = results_.back();
            for (std::uint64_t v :
                 {r.windowCycles, r.iterationCycles, r.dataBusBytes,
                  r.memSched.memCommands, r.memSched.pimCommands,
                  r.memSched.modeSwitches, r.memSched.pimStallCycles})
                sum.fold(v);
            if (r.iterationCycles == 0 || r.windowCycles == 0)
                errors.push_back("engine cell " + std::to_string(i) +
                                 " simulated no cycles");
            for (double u : {r.npuUtil, r.pimUtil, r.bwUtil}) {
                if (!(u >= 0.0 && u <= 1.0))
                    errors.push_back("engine cell " + std::to_string(i) +
                                     " utilization outside [0, 1]");
            }
        }
        release();
        if (tracer)
            tracer->close(rep);
        return sum.h;
    }

    void
    release() override
    {
        comps_.clear();
        executors_.clear();
    }

    void
    simMetrics(Metrics &m, bool per_layer) const override
    {
        double tokens = 0.0, seconds = 0.0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            tokens += cells_[i].batch;
            seconds += results_[i].iterationCycles * 1e-9; // 1 GHz
        }
        if (!per_layer) {
            m["sim_tokens_per_s"] = tokens / seconds;
            return;
        }
        dram::MemSchedStats ms;
        double bus = 0.0, npu = 0.0, pim = 0.0, bw = 0.0;
        for (const core::IterationResult &r : results_) {
            ms.rowHits += r.memSched.rowHits;
            ms.rowMisses += r.memSched.rowMisses;
            ms.rowConflicts += r.memSched.rowConflicts;
            ms.memCommands += r.memSched.memCommands;
            ms.pimCommands += r.memSched.pimCommands;
            ms.modeSwitches += r.memSched.modeSwitches;
            ms.pimStallCycles += r.memSched.pimStallCycles;
            bus += static_cast<double>(r.dataBusBytes);
            npu += r.npuUtil;
            pim += r.pimUtil;
            bw += r.bwUtil;
        }
        const double n = static_cast<double>(results_.size());
        m["dram.mem_cmds"] = static_cast<double>(ms.memCommands);
        m["dram.pim_cmds"] = static_cast<double>(ms.pimCommands);
        m["dram.mode_switches"] = static_cast<double>(ms.modeSwitches);
        m["dram.pim_stall_cycles"] = static_cast<double>(ms.pimStallCycles);
        m["dram.row_hit_rate"] = ms.rowHitRate();
        m["dram.data_bus_mb"] = bus / 1e6;
        m["npu.util"] = npu / n;
        m["pim.util"] = pim / n;
        m["bw.util"] = bw / n;
    }

    long attempted() const override { return long(cells_.size()); }
    long failed() const override { return 0; }

    std::vector<double> partSeconds() const override { return cellSeconds_; }

    double
    engineWindowCycles() const override
    {
        double cycles = 0.0;
        for (const core::IterationResult &r : results_)
            cycles += static_cast<double>(r.windowCycles);
        return cycles;
    }

  private:
    std::vector<EngineCell> cells_;
    std::uint64_t seed_;
    std::vector<core::BatchComposition> comps_;
    std::vector<std::unique_ptr<core::DeviceExecutor>> executors_;
    std::vector<core::IterationResult> results_;
    std::vector<double> cellSeconds_;
};

// --- workloads by name ----------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    const runtime::DatasetConfig share_gpt = runtime::shareGptDataset();
    const runtime::DatasetConfig alpaca = runtime::alpacaDataset();
    // 4000 requests serve in a few tenths of a second, so a run
    // repeats them often enough for its fastest repetition to be
    // steady on a shared host.
    if (name == "serve_analytic")
        return std::make_unique<ServeWorkload>(
            ServeSpec{"NeuPIMs+SBI", share_gpt, "poisson", 48.0, 4000,
                      false},
            seed);
    if (name == "serve_sessions")
        return std::make_unique<ServeWorkload>(
            ServeSpec{"NeuPIMs+SBI", alpaca, "session", 96.0, 4000,
                      true},
            seed);
    if (name == "engine_fig12") {
        // The systems of the Fig. 12 bench on Alpaca at batch 128,
        // where NeuPIMs runs below sbiMinBatch and so without SBI, as
        // the bench does. ShareGPT's long-tailed lengths make a batch
        // of 64 or 128 move the host time with the seed by 18-20%.
        std::vector<EngineCell> cells;
        for (const core::DeviceConfig &dev :
             {core::DeviceConfig::npuOnly(),
              core::DeviceConfig::naiveNpuPim(),
              core::DeviceConfig::neuPims()})
            cells.push_back({dev, alpaca, 128});
        return std::make_unique<EngineWorkload>(std::move(cells), seed);
    }
    return nullptr;
}

// --- output -------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_analytic|serve_sessions|"
                 "engine_fig12 [--seed N] [--trace 0|1] "
                 "[--seconds S] [--spans FILE]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 42; // NEUPIMS_BENCH_SEED's default
    bool trace = false;
    double seconds = 0.0;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *value = argv[++i];
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--trace")
            trace = std::atoi(value) != 0;
        else if (arg == "--seconds")
            seconds = std::atof(value);
        else if (arg == "--spans")
            spans_path = value;
        else
            usage(argv[0]);
    }
    std::unique_ptr<Workload> wl = makeWorkload(workload_name, seed);
    if (!wl)
        usage(argv[0]);

    std::vector<std::string> errors;
    const Clock::time_point start = Clock::now();
    std::uint64_t reference = 0;
    std::size_t anchors = 0;
    LatencyStats run_s, traced_run_s; // wall time
    LatencyStats setup_s; // CPU time, untraced only
    // Fastest CPU time of each part of the run over the untraced
    // repetitions: the workload's parts, then the rest of the run.
    std::vector<double> fastest_parts;
    double last_rep_s = 0.0;
    double first_rep_rss_mb = 0.0;
    // Untraced, repetitions are timed while the next one is expected to
    // end within --seconds. Traced, untraced and traced alternate so
    // both see the same host conditions.
    auto more_reps = [&] {
        if (trace)
            return run_s.count() + traced_run_s.count() < 6;
        return run_s.count() == 0 ||
               secondsBetween(start, Clock::now()) + last_rep_s < seconds;
    };
    // The per-layer figures come from the fastest traced repetition.
    Tracer fastest_trace;
    double fastest_engine_cycles = 0.0;
    for (int rep = 0; more_reps(); ++rep) {
        const bool traced = trace && run_s.count() > traced_run_s.count();
        Tracer tracer;
        const Clock::time_point t0 = Clock::now();
        const double c0 = cpuSeconds();
        wl->setup();
        Clock::time_point t1 = Clock::now();
        const double c1 = cpuSeconds();
        std::uint64_t sum = wl->run(traced ? &tracer : nullptr, errors);
        const double c2 = cpuSeconds();
        Clock::time_point t2 = Clock::now();
        last_rep_s = secondsBetween(t0, t2);
        if (rep == 0) {
            reference = sum;
            anchors = core::calibrationAnchorCount();
            // Later repetitions reuse memory the allocator kept, and
            // its footprint grows with their number for a while.
            first_rep_rss_mb = peakRssMb();
            // Warm-up: first-touch allocation and lazy statics land
            // here. It is timed only when they are a negligible share.
            if (secondsBetween(t1, t2) < 1.0)
                continue;
        }
        if (sum != reference)
            errors.push_back("simulated outputs differ in repetition " +
                             std::to_string(rep) +
                             (traced ? " (traced)" : ""));
        if (core::calibrationAnchorCount() != anchors)
            errors.push_back("calibration anchors grew in repetition " +
                             std::to_string(rep));
        if (!traced) {
            run_s.record(secondsBetween(t1, t2));
            std::vector<double> parts = wl->partSeconds();
            double rest = c2 - c1;
            for (double p : parts)
                rest -= p;
            parts.push_back(rest);
            if (fastest_parts.empty())
                fastest_parts = parts;
            for (std::size_t i = 0; i < parts.size(); ++i)
                fastest_parts[i] = std::min(fastest_parts[i], parts[i]);
            setup_s.record(c1 - c0);
            continue;
        }
        traced_run_s.record(secondsBetween(t1, t2));
        if (secondsBetween(t1, t2) <= traced_run_s.percentile(0)) {
            fastest_trace = std::move(tracer);
            fastest_engine_cycles = wl->engineWindowCycles();
        }
    }
    // Set-up is short: repeat it alone until it has enough samples
    // and enough time, and keep the fastest. Contention from other
    // tenants only ever adds time.
    const std::size_t setup_target = setup_s.count() + 21;
    const double setup_start = cpuSeconds();
    while (setup_s.count() < 2000 &&
           (setup_s.count() < setup_target ||
            cpuSeconds() - setup_start < 0.5)) {
        const double c0 = cpuSeconds();
        wl->setup();
        setup_s.record(cpuSeconds() - c0);
        wl->release();
    }

    Metrics m;
    if (!trace) {
        m["setup_s"] = setup_s.percentile(0);
        double run_cpu_s = 0.0;
        for (double p : fastest_parts)
            run_cpu_s += p;
        m["run_s"] = run_cpu_s;
        m["peak_rss_mb"] = first_rep_rss_mb;
        wl->simMetrics(m, false);
    } else {
        // Repetitions are identical, so the last one's counts stand
        // for all of them.
        wl->simMetrics(m, true);
        const auto self = fastest_trace.selfSeconds();
        m["bench.s"] = self[kBench];
        m["runtime.self_s"] = self[kRuntime];
        m["traffic.s"] = self[kTraffic];
        m["pricing.s"] = self[kPricing];
        m["engine.s"] = self[kEngine];
        if (m.count("runtime.iterations") && m["runtime.iterations"] > 0)
            m["runtime.us_per_iter"] =
                self[kRuntime] * 1e6 / m["runtime.iterations"];
        LatencyStats pricing_call_s, engine_run_s;
        for (double d : fastest_trace.durations(kPricing))
            pricing_call_s.record(d);
        for (double d : fastest_trace.durations(kEngine))
            engine_run_s.record(d);
        if (pricing_call_s.count() > 0)
            m["pricing.us_per_call_p50"] = pricing_call_s.p50() * 1e6;
        // A tail percentile needs >= 10 samples beyond it.
        if (pricing_call_s.count() >= 1000)
            m["pricing.us_per_call_p99"] = pricing_call_s.p99() * 1e6;
        if (engine_run_s.count() > 0)
            m["engine.ms_per_run_p50"] = engine_run_s.p50() * 1e3;
        if (fastest_engine_cycles > 0)
            m["engine.host_ns_per_sim_cycle"] =
                self[kEngine] * 1e9 / fastest_engine_cycles;
        if (m.count("dram.mem_cmds"))
            m["dram.ns_per_cmd"] = self[kEngine] * 1e9 /
                                   (m["dram.mem_cmds"] + m["dram.pim_cmds"]);
        // The self times must account for the traced run: their sum,
        // set against the untraced run time, is the tracing overhead.
        double self_total = 0.0;
        for (double t : self)
            self_total += t;
        m["trace.run_s"] = traced_run_s.percentile(0);
        m["trace.overhead"] = self_total / run_s.percentile(0);
        if (!(m["trace.overhead"] >= kMinTraceOverhead &&
              m["trace.overhead"] <= kMaxTraceOverhead))
            errors.push_back("span self times (" + jsonNumber(self_total) +
                             " s) do not account for the run (" +
                             jsonNumber(run_s.percentile(0)) +
                             " s untraced)");
        if (!spans_path.empty() && !fastest_trace.write(spans_path))
            errors.push_back("cannot write spans to " + spans_path);
    }
    for (const auto &[name, value] : m) {
        if (!std::isfinite(value))
            errors.push_back("metric " + name + " is not finite");
    }

    std::string out = "{\"correct\": ";
    out += errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(wl->attempted());
    out += ", \"failed\": " + std::to_string(wl->failed());
    out += ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, value] : m) {
        out += sep + jsonString(name) + ": " + jsonNumber(value);
        sep = ", ";
    }
    out += "}, \"context\": {\"workload\": " + jsonString(workload_name);
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    out += ", \"cpu\": " + jsonString(cpuModel());
    out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
    out += ", \"ndebug\": true";
#else
    out += ", \"ndebug\": false";
#endif
    out += ", \"compiler\": " + jsonString(__VERSION__);
    out += ", \"sim_threads\": 1";
    char checksum[24];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(reference));
    out += ", \"sim_checksum\": " + jsonString(checksum);
    out += ", \"setup_samples\": " + std::to_string(setup_s.count());
    out += ", \"run_reps\": " + std::to_string(run_s.count());
    if (!trace) {
        out += ", \"run_wall_s\": " + jsonNumber(run_s.percentile(0));
        out += ", \"run_parts_s\": [";
        sep = "";
        for (double p : fastest_parts) {
            out += sep + jsonNumber(p);
            sep = ", ";
        }
        out += "]";
    }
    out += ", \"traced_reps\": " + std::to_string(traced_run_s.count());
    out += "}, \"errors\": [";
    sep = "";
    for (const std::string &e : errors) {
        out += sep + jsonString(e);
        sep = ", ";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}
