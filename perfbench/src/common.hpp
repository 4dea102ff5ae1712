/// \file Shared machinery of the workloads: options, clocks, CPU and memory
/// accounting, the benchmark-side span recorder, the stall watchdog and
/// the result line.
#pragma once

#include "checks.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench
{
    using Clock = std::chrono::steady_clock;

    struct Options
    {
        std::string workload;
        std::uint64_t seed = 1;
        double seconds = 10.0;
        bool trace = false;
        std::string traceDir = ".bench_build/traces";
        std::string sourceSha = "unknown";
        Clock::time_point start = Clock::now(); //!< main() entry
    };

    [[nodiscard]] inline auto nowNs() noexcept -> std::int64_t
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count();
    }

    //! CPU seconds of the whole process (user + system, getrusage).
    [[nodiscard]] auto processCpuSeconds() -> double;
    //! CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
    [[nodiscard]] auto threadCpuSeconds() -> double;
    //! Peak resident set of the process in MiB (getrusage ru_maxrss).
    [[nodiscard]] auto peakRssMib() -> double;

    //! Set-up time: wall time from main() entry to the first timed op,
    //! less the benchmark's own work in between (input generation and
    //! reference results), which a workload wraps in exclude().
    class SetupClock
    {
    public:
        explicit SetupClock(Clock::time_point start) noexcept : start_(start)
        {
        }
        template<typename TFn>
        void exclude(TFn&& fn)
        {
            auto const t0 = Clock::now();
            fn();
            excluded_ += Clock::now() - t0;
        }
        //! Set-up seconds so far; call it when the first timed op starts.
        [[nodiscard]] auto seconds() const -> double
        {
            return std::chrono::duration<double>(Clock::now() - start_ - excluded_).count();
        }

    private:
        Clock::time_point start_;
        Clock::duration excluded_{};
    };

    //! One named span site of the traced run. Every call adds to the
    //! site's total; every `every`-th call also keeps its span (bounded
    //! by `cap`) for the medians and the trace file. One Site per thread.
    class Site
    {
    public:
        struct Span
        {
            std::int64_t startNs;
            std::int64_t endNs;
            std::uint64_t op;
        };

        Site(std::string name, std::size_t every = 1, std::size_t cap = 1 << 16)
            : name_(std::move(name))
            , every_(every)
            , cap_(cap)
        {
            spans_.reserve(cap_);
        }

        void add(std::int64_t startNs, std::int64_t endNs, std::uint64_t op)
        {
            totalNs_ += endNs - startNs;
            if(calls_++ % every_ == 0 && spans_.size() < cap_)
                spans_.push_back({startNs, endNs, op});
        }

        [[nodiscard]] auto name() const noexcept -> std::string const&
        {
            return name_;
        }
        [[nodiscard]] auto calls() const noexcept -> std::uint64_t
        {
            return calls_;
        }
        [[nodiscard]] auto totalUs() const noexcept -> double
        {
            return static_cast<double>(totalNs_) / 1e3;
        }
        [[nodiscard]] auto spans() const noexcept -> std::vector<Span> const&
        {
            return spans_;
        }
        //! Median kept span duration in microseconds.
        [[nodiscard]] auto medianUs() const -> double;
        void reset()
        {
            spans_.clear();
            calls_ = 0;
            totalNs_ = 0;
        }

    private:
        std::string name_;
        std::size_t every_;
        std::size_t cap_;
        std::vector<Span> spans_;
        std::uint64_t calls_ = 0;
        std::int64_t totalNs_ = 0;
    };

    //! Times \p fn into \p site when tracing, runs it bare otherwise.
    template<typename TFn>
    auto spanned(Site* site, std::uint64_t op, TFn&& fn) -> decltype(fn())
    {
        if(site == nullptr)
            return fn();
        auto const t0 = nowNs();
        struct Add
        {
            Site* site;
            std::int64_t t0;
            std::uint64_t op;
            ~Add()
            {
                site->add(t0, nowNs(), op);
            }
        } add{site, t0, op};
        return fn();
    }

    //! Writes the kept spans of \p sites (each tagged with its thread
    //! lane) as a Chrome trace_event file. \returns false on I/O failure.
    auto writeTrace(std::string const& path, std::vector<std::pair<int, Site const*>> const& sites) -> bool;

    //! A workload's outcome. Metrics are printed in insertion order.
    struct Result
    {
        bool correct = true;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

        void put(std::string name, double value, std::string unit)
        {
            metrics.emplace_back(std::move(name), std::make_pair(value, std::move(unit)));
        }
    };

    //! Prints the provenance line and then the result line (the last line
    //! of standard output), and flushes.
    void printResult(Options const& opt, Result const& result);

    //! Exact per-op samples of the timed phase and the end-to-end metrics
    //! derived from them.
    struct OpSamples
    {
        std::vector<double> us;

        //! ops_per_s, op_p50_us, op_p90_us, cpu_us_per_op, peak_rss_mib,
        //! after setup_s.
        void putEndToEnd(
            Result& result,
            double setupSeconds,
            std::uint64_t ops,
            double wallSeconds,
            double programCpuSeconds);
    };

    //! The per-layer metrics of a traced run (BENCHMARK.json's per_layer
    //! list), in their fixed order with their units. Every workload
    //! reports the full list; a metric of a layer that does no such work on
    //! the workload reads 0.
    struct LayerMetric
    {
        char const* name;
        char const* unit;
    };
    [[nodiscard]] auto perLayerMetrics() -> std::vector<LayerMetric> const&;
    //! Puts every per-layer metric, then the workload's \p extra ones,
    //! into \p result, taking the measured values from \p measured.
    //! \throws std::logic_error on a measured name in neither list.
    void putPerLayer(
        Result& result,
        std::map<std::string, double> const& measured,
        std::vector<LayerMetric> const& extra = {});

    //! Bounds every wait of a run. A workload marks each op (or blocking
    //! shutdown step) with begin()/end(); one still running after the
    //! deadline makes the watchdog print the result that report() gives,
    //! with the stalled op counted as attempted and failed, and end the
    //! process: the program's threads may be stuck for good, and process
    //! exit is what stops them. report() runs under lock(), which the
    //! workload holds whenever it touches what report() reads.
    class Watchdog
    {
    public:
        Watchdog(Options const& opt, std::chrono::milliseconds deadline, std::function<Result()> report);
        ~Watchdog();
        Watchdog(Watchdog const&) = delete;
        auto operator=(Watchdog const&) -> Watchdog& = delete;

        void begin() noexcept
        {
            startNs_.store(nowNs(), std::memory_order_relaxed);
        }
        void end() noexcept
        {
            startNs_.store(0, std::memory_order_relaxed);
        }
        [[nodiscard]] auto lock() -> std::unique_lock<std::mutex>
        {
            return std::unique_lock<std::mutex>(mutex_);
        }

    private:
        void run();

        Options const& opt_;
        std::chrono::milliseconds deadline_;
        std::function<Result()> report_;
        std::atomic<std::int64_t> startNs_{0};
        std::mutex mutex_;
        std::mutex sleepMutex_;
        std::condition_variable wake_;
        bool stop_ = false;
        std::thread thread_;
    };

    //! The workloads (README.md says which BENCHMARK.json runs).
    auto runGemmBackends(Options const& opt) -> Result;
    auto runGraphPipeline(Options const& opt) -> Result;
    auto runServeSaturate(Options const& opt) -> Result;
    //! One client, window 1, one shard; on ThreadPool::global() or on a
    //! dedicated one-worker pool.
    auto runServeRoundTrip(Options const& opt, bool dedicatedPool) -> Result;

    //! The serving workloads' shape.
    struct ServeShape
    {
        std::size_t clients;
        std::size_t window; //!< requests in flight per client, <= 64
        std::size_t shards;
        bool dedicatedPool; //!< a one-worker ThreadPool per service instead of the global one
    };
    auto runServe(Options const& opt, ServeShape const& shape) -> Result;
} // namespace perfbench
