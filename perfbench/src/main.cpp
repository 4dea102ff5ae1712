/// \file perfbench: runs one workload of the repository benchmark and
/// prints its result line. Usually started through run.py, which builds it:
///
///   perfbench --workload <gemm_backends|serve_saturate|graph_pipeline|
///                         serve_roundtrip|serve_roundtrip_pool>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--trace-dir <dir>] [--source-sha <sha>]
///
/// With --trace 0 the result carries the end-to-end metrics; with
/// --trace 1 it carries the per-layer metrics, and the kept spans are
/// written to <trace-dir>/<workload>-<seed>.json.
#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace perfbench
{
    auto processCpuSeconds() -> double
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto const tv = [](timeval const& t) { return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6; };
        return tv(ru.ru_utime) + tv(ru.ru_stime);
    }

    auto threadCpuSeconds() -> double
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    auto peakRssMib() -> double
    {
        // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
        // mark of the image that exec'd this process (the launching script).
        std::ifstream status("/proc/self/status");
        std::string line;
        while(std::getline(status, line))
            if(line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0; // kB
        return 0.0;
    }

    auto Site::medianUs() const -> double
    {
        std::vector<double> us;
        us.reserve(spans_.size());
        for(auto const& s : spans_)
            us.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
        return percentile(us, 0.5);
    }

    auto writeTrace(std::string const& path, std::vector<std::pair<int, Site const*>> const& sites) -> bool
    {
        std::ofstream out(path);
        if(!out)
            return false;
        out << "{\"traceEvents\":[";
        bool first = true;
        out << std::fixed << std::setprecision(3);
        for(auto const& [lane, site] : sites)
            for(auto const& s : site->spans())
            {
                out << (first ? "\n" : ",\n") << "{\"name\":\"" << site->name() << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
                    << lane << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
                    << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3 << ",\"args\":{\"op\":" << s.op
                    << "}}";
                first = false;
            }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

    void printResult(Options const& opt, Result const& result)
    {
        std::ostringstream line;
        line << "provenance: nproc=" << std::thread::hardware_concurrency() << " compiler=" << PERFBENCH_COMPILER
             << " build_type=" << PERFBENCH_BUILD_TYPE
#ifdef ALPAKA_REPRO_TRACE
             << " trace=ON"
#else
             << " trace=OFF"
#endif
#ifdef ALPAKA_REPRO_FAULTINJECT
             << " faultinject=ON"
#else
             << " faultinject=OFF"
#endif
#ifdef ALPAKA_REPRO_ALLOCTRACK
             << " alloctrack=ON"
#else
             << " alloctrack=OFF"
#endif
             << " source_sha=" << opt.sourceSha << " workload=" << opt.workload << " seed=" << opt.seed
             << " seconds=" << opt.seconds << " bench_trace=" << (opt.trace ? 1 : 0) << '\n';
        line << "{\"correct\": " << (result.correct ? "true" : "false") << ", \"attempted\": " << result.attempted
             << ", \"failed\": " << result.failed << ", \"metrics\": {";
        line << std::setprecision(17);
        for(std::size_t i = 0; i < result.metrics.size(); ++i)
        {
            auto const& [name, vu] = result.metrics[i];
            auto const value = std::isfinite(vu.first) ? vu.first : 0.0;
            line << (i > 0 ? ", " : "") << '"' << name << "\": {\"value\": " << value << ", \"unit\": \"" << vu.second
                 << "\"}";
        }
        line << "}}\n";
        std::cout << line.str() << std::flush;
    }

    void OpSamples::putEndToEnd(
        Result& result,
        double setupSeconds,
        std::uint64_t ops,
        double wallSeconds,
        double programCpuSeconds)
    {
        result.put("setup_s", setupSeconds, "s");
        result.put("ops_per_s", wallSeconds > 0.0 ? static_cast<double>(ops) / wallSeconds : 0.0, "op/s");
        result.put("op_p50_us", percentile(us, 0.50), "us");
        result.put("op_p90_us", percentile(us, 0.90), "us");
        result.put("cpu_us_per_op", ops > 0 ? programCpuSeconds * 1e6 / static_cast<double>(ops) : 0.0, "us");
        result.put("peak_rss_mib", peakRssMib(), "MiB");
    }

    auto perLayerMetrics() -> std::vector<LayerMetric> const&
    {
        static std::vector<LayerMetric> const list{
            {"core.launch_ms.omp2blocks", "ms"},
            {"core.launch_ms.taskblocks", "ms"},
            {"core.launch_ms.threads", "ms"},
            {"core.launch_ms.cudasim", "ms"},
            {"core.launch_ms_alone.omp2blocks", "ms"},
            {"core.launch_ms_alone.taskblocks", "ms"},
            {"core.launch_ms_alone.threads", "ms"},
            {"core.launch_ms_alone.cudasim", "ms"},
            {"native.omp_gemm_ms", "ms"},
            {"native.sim_gemm_ms", "ms"},
            {"gpusim.fiber_switches_per_op", "count/op"},
            {"threadpool.jobs_per_op", "count/op"},
            {"threadpool.parks_per_op", "count/op"},
            {"threadpool.steals_per_op", "count/op"},
            {"graph.node_handoff_us", "us"},
            {"mempool.hit_ratio", "ratio"},
            {"mempool.bytes_held_mib", "MiB"},
            {"net.client_submit_us", "us"},
            {"net.client_poll_us_per_op", "us/op"},
            {"net.door_poll_busy_us_per_op", "us/op"},
            {"net.door_idle_polls_per_op", "count/op"},
            {"net.frames_in_per_op", "count/op"},
            {"net.rx_stalls_per_kop", "count/kop"},
            {"serve.batch_size_mean", "req/batch"},
            {"serve.queue_wait_p50_us", "us"},
            {"serve.in_service_p50_us", "us"},
            {"serve.direct_ops_per_s", "op/s"},
            {"router.shard_share_min", "ratio"},
            {"bench.traced_ops_per_s", "op/s"}};
        return list;
    }

    void putPerLayer(Result& result, std::map<std::string, double> const& measured, std::vector<LayerMetric> const& extra)
    {
        auto const& list = perLayerMetrics();
        for(auto const& [name, value] : measured)
        {
            auto const listed = [&](std::vector<LayerMetric> const& l)
            { return std::any_of(l.begin(), l.end(), [&](LayerMetric const& m) { return name == m.name; }); };
            if(!listed(list) && !listed(extra))
                throw std::logic_error("perfbench: unlisted per-layer metric " + name);
        }
        for(auto const* l : {&list, &extra})
            for(auto const& m : *l)
            {
                auto const it = measured.find(m.name);
                result.put(m.name, it != measured.end() ? it->second : 0.0, m.unit);
            }
    }

    Watchdog::Watchdog(Options const& opt, std::chrono::milliseconds deadline, std::function<Result()> report)
        : opt_(opt)
        , deadline_(deadline)
        , report_(std::move(report))
        , thread_([this] { run(); })
    {
    }

    Watchdog::~Watchdog()
    {
        {
            std::scoped_lock lock(sleepMutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    void Watchdog::run()
    {
        auto const deadlineNs = std::chrono::duration_cast<std::chrono::nanoseconds>(deadline_).count();
        std::unique_lock sleep(sleepMutex_);
        while(!wake_.wait_for(sleep, std::chrono::milliseconds{50}, [this] { return stop_; }))
        {
            auto const start = startNs_.load(std::memory_order_relaxed);
            if(start == 0 || nowNs() - start < deadlineNs)
                continue;
            // Never unlocked: the workload must not touch the reported
            // state again before the process ends.
            mutex_.lock();
            auto result = report_();
            ++result.attempted;
            ++result.failed;
            std::cerr << "perfbench: an op exceeded the " << deadline_.count()
                      << " ms deadline; reporting it as failed and ending the run\n";
            printResult(opt_, result);
            std::_Exit(0);
        }
    }
} // namespace perfbench

namespace
{
    auto usage() -> int
    {
        std::cerr << "usage: perfbench --workload <gemm_backends|serve_saturate|graph_pipeline|serve_roundtrip|"
                     "serve_roundtrip_pool> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--source-sha <sha>]\n";
        return 2;
    }
} // namespace

auto main(int argc, char** argv) -> int
{
    perfbench::Options opt;
    opt.start = perfbench::Clock::now();
    try
    {
        for(int i = 1; i + 1 < argc; i += 2)
        {
            std::string_view const key = argv[i];
            std::string const value = argv[i + 1];
            if(key == "--workload")
                opt.workload = value;
            else if(key == "--seed")
                opt.seed = std::stoull(value);
            else if(key == "--seconds")
                opt.seconds = std::stod(value);
            else if(key == "--trace")
                opt.trace = value != "0";
            else if(key == "--trace-dir")
                opt.traceDir = value;
            else if(key == "--source-sha")
                opt.sourceSha = value;
            else
                return usage();
        }
        if(argc % 2 == 0 || !(opt.seconds > 0.0))
            return usage();

        perfbench::Result result;
        if(opt.workload == "gemm_backends")
            result = perfbench::runGemmBackends(opt);
        else if(opt.workload == "graph_pipeline")
            result = perfbench::runGraphPipeline(opt);
        else if(opt.workload == "serve_saturate")
            result = perfbench::runServeSaturate(opt);
        else if(opt.workload == "serve_roundtrip")
            result = perfbench::runServeRoundTrip(opt, false);
        else if(opt.workload == "serve_roundtrip_pool")
            result = perfbench::runServeRoundTrip(opt, true);
        else
            return usage();
        perfbench::printResult(opt, result);
        return 0;
    }
    catch(std::exception const& e)
    {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
