/// \file graph_pipeline: submission-bound work on one StreamCpuAsync of
/// AccCpuTaskBlocks. One op is stepsPerOp steps and one stream wait; each
/// step replays a captured 8-node diamond graph (six kernels, a copy and
/// an event record), then runs one directly enqueued kernel on
/// stream-ordered scratch (allocAsync / freeAsync). Kernel bodies are
/// trivial, so graph replay, the memory pool, stream enqueue and the
/// thread pool's dispatch do the work.
///
/// Checks: after every op the diamond's copied-out result must be the
/// closed form out[b] = 3.5 b + 4 (the buffer is poisoned before the op),
/// and at the end each scratch accumulator must hold steps * its seeded
/// per-step value.
#include "common.hpp"

#include <alpaka/alpaka.hpp>
#include <graph/capture.hpp>
#include <graph/exec.hpp>
#include <graph/graph.hpp>
#include <threadpool/thread_pool.hpp>

#include <filesystem>
#include <iostream>
#include <limits>

namespace perfbench
{
    namespace
    {
        using namespace alpaka;
        using Size = std::size_t;
        using Acc = acc::AccCpuTaskBlocks<Dim1, Size>;

        constexpr Size blocks = 8;
        constexpr std::size_t stepsPerOp = 32;
        constexpr std::size_t warmupOps = 16;
        constexpr std::size_t resubmitOps = 64;

        //! Per-layer metrics only this workload measures (it is not in
        //! BENCHMARK.json; see README.md).
        std::vector<LayerMetric> const graphOnly{
            {"graph.replay_call_us", "us"},
            {"graph.resubmit_step_us", "us"},
            {"core.enqueue_us", "us"},
            {"core.wait_us", "us"},
            {"mempool.alloc_async_us", "us"},
            {"mempool.free_async_us", "us"}};

        struct SourceKernel
        {
            template<typename TAcc>
            ALPAKA_FN_ACC void operator()(TAcc const& acc, double* out) const
            {
                auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
                out[b] = static_cast<double>(b);
            }
        };
        struct MulAddKernel
        {
            template<typename TAcc>
            ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* in, double* out, double m, double a) const
            {
                auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
                out[b] = in[b] * m + a;
            }
        };
        struct Join2Kernel
        {
            template<typename TAcc>
            ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* x, double const* y, double* out) const
            {
                auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
                out[b] = x[b] + y[b];
            }
        };
        struct AddInKernel
        {
            template<typename TAcc>
            ALPAKA_FN_ACC void operator()(TAcc const& acc, double const* x, double* out) const
            {
                auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
                out[b] += x[b];
            }
        };
        //! The step's direct kernel: stages the per-step value through the
        //! stream-ordered scratch block and accumulates it.
        struct ScratchAccumKernel
        {
            template<typename TAcc>
            ALPAKA_FN_ACC void operator()(TAcc const& acc, double* scratch, double const* value, double* sum) const
            {
                auto const b = idx::getIdx<Grid, Blocks>(acc)[0];
                scratch[b] = value[b];
                sum[b] += scratch[b];
            }
        };

        //! Host buffers of the pipeline (the CPU device addresses host
        //! memory directly).
        struct Buffers
        {
            std::vector<double> a = std::vector<double>(blocks);
            std::vector<double> b1 = std::vector<double>(blocks);
            std::vector<double> b2 = std::vector<double>(blocks);
            std::vector<double> b3 = std::vector<double>(blocks);
            std::vector<double> c = std::vector<double>(blocks);
            std::vector<double> out = std::vector<double>(blocks);
            std::vector<double> value = std::vector<double>(blocks);
            std::vector<double> sum = std::vector<double>(blocks);
        };
    } // namespace

    auto runGraphPipeline(Options const& opt) -> Result
    {
        SetupClock setup(opt.start);
        Buffers buf;
        setup.exclude(
            [&]
            {
                Rng rng(opt.seed);
                for(auto& v : buf.value)
                    v = rng.integer(1, 64);
            });

        auto const dev = dev::DevMan<Acc>::getDevByIdx(0);
        workdiv::WorkDivMembers<Dim1, Size> const wd(blocks, Size{1}, Size{1});
        Vec<Dim1, Size> const extent(blocks);
        mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> cView(buf.c.data(), dev, extent);
        mem::view::ViewPlainPtr<dev::DevCpu, double, Dim1, Size> outView(buf.out.data(), dev, extent);
        event::EventCpu ev(dev);
        stream::StreamCpuAsync s(dev);

        // The diamond: source -> three branches -> two joins -> copy-out
        // -> event record; out[b] = (2b) + (b + 3) + (0.5b + 1).
        auto const enqueueDiamond = [&]
        {
            stream::enqueue(s, exec::create<Acc>(wd, SourceKernel{}, buf.a.data()));
            stream::enqueue(s, exec::create<Acc>(wd, MulAddKernel{}, buf.a.data(), buf.b1.data(), 2.0, 0.0));
            stream::enqueue(s, exec::create<Acc>(wd, MulAddKernel{}, buf.a.data(), buf.b2.data(), 1.0, 3.0));
            stream::enqueue(s, exec::create<Acc>(wd, MulAddKernel{}, buf.a.data(), buf.b3.data(), 0.5, 1.0));
            stream::enqueue(s, exec::create<Acc>(wd, Join2Kernel{}, buf.b1.data(), buf.b2.data(), buf.c.data()));
            stream::enqueue(s, exec::create<Acc>(wd, AddInKernel{}, buf.b3.data(), buf.c.data()));
            mem::view::copy(s, outView, cView, extent);
            stream::enqueue(s, ev);
        };
        graph::Graph g;
        {
            graph::Capture capture(g);
            capture.add(s);
            enqueueDiamond();
            capture.end();
        }
        graph::Exec exec(g);

        std::unique_ptr<Site> replaySite, allocSite, enqueueSite, freeSite, waitSite, resubmitSite;
        if(opt.trace)
        {
            replaySite = std::make_unique<Site>("graph.replay", 8);
            allocSite = std::make_unique<Site>("mempool.alloc_async", 8);
            enqueueSite = std::make_unique<Site>("core.enqueue", 8);
            freeSite = std::make_unique<Site>("mempool.free_async", 8);
            waitSite = std::make_unique<Site>("core.wait");
            resubmitSite = std::make_unique<Site>("graph.resubmit_op");
        }

        std::uint64_t steps = 0;
        auto const step = [&](std::uint64_t op, bool replay)
        {
            if(replay)
                spanned(replaySite.get(), op, [&] { exec.replay(s); });
            else
                enqueueDiamond();
            auto scratch = spanned(allocSite.get(), op, [&] { return mem::buf::allocAsync<double, Size>(s, blocks); });
            spanned(
                enqueueSite.get(),
                op,
                [&]
                {
                    stream::enqueue(
                        s,
                        exec::create<Acc>(wd, ScratchAccumKernel{}, scratch.data(), buf.value.data(), buf.sum.data()));
                });
            spanned(freeSite.get(), op, [&] { mem::buf::freeAsync(s, scratch); });
            ++steps;
        };
        // One op; \returns whether the diamond's result was right.
        auto const runOp = [&](std::uint64_t op, bool replay) -> bool
        {
            std::fill(buf.out.begin(), buf.out.end(), std::numeric_limits<double>::quiet_NaN());
            for(std::size_t i = 0; i < stepsPerOp; ++i)
                step(op, replay);
            spanned(waitSite.get(), op, [&] { s.wait(); });
            for(Size b = 0; b < blocks; ++b)
                if(buf.out[b] != 3.5 * static_cast<double>(b) + 4.0)
                    return false;
            return true;
        };

        Result result;
        for(std::size_t w = 0; w < warmupOps; ++w)
            result.correct = runOp(0, true) && result.correct;
        if(opt.trace)
            for(auto* site : {replaySite.get(), allocSite.get(), enqueueSite.get(), freeSite.get(), waitSite.get()})
                site->reset();

        OpSamples samples;
        std::uint64_t ops = 0;
        double setupSeconds = setup.seconds();
        double wall = 0.0;
        double cpu = 0.0;
        Watchdog watchdog(
            opt,
            std::chrono::seconds{20},
            [&]
            {
                Result r;
                r.attempted = ops;
                if(opt.trace)
                    putPerLayer(r, {}, graphOnly);
                else
                    samples.putEndToEnd(r, setupSeconds, ops, wall, cpu);
                return r;
            });

        auto& pool = threadpool::ThreadPool::global();
        auto& mpool = mempool::Pool::forDev(dev);
        auto const pool0 = pool.counters();
        auto const mem0 = mpool.stats();
        auto const cpu0 = processCpuSeconds();
        auto const t0 = Clock::now();
        auto const until = t0 + std::chrono::duration<double>(opt.seconds);
        std::uint64_t wrongOps = 0;
        while(Clock::now() < until)
        {
            watchdog.begin();
            auto const opStart = nowNs();
            bool const ok = runOp(ops, true);
            auto const opUs = static_cast<double>(nowNs() - opStart) / 1e3;
            watchdog.end();
            auto const lock = watchdog.lock();
            samples.us.push_back(opUs);
            ++ops;
            wrongOps += ok ? 0 : 1;
            wall = std::chrono::duration<double>(Clock::now() - t0).count();
            cpu = processCpuSeconds() - cpu0;
        }
        auto const pool1 = pool.counters();
        auto const mem1 = mpool.stats();
        result.attempted = ops;
        result.failed = wrongOps;
        result.correct = result.correct && wrongOps == 0;

        if(opt.trace)
        {
            std::map<std::string, double> layer;
            auto const perOp = [&](std::uint64_t d) { return static_cast<double>(d) / static_cast<double>(ops); };
            layer["graph.replay_call_us"] = replaySite->medianUs();
            layer["mempool.alloc_async_us"] = allocSite->medianUs();
            layer["core.enqueue_us"] = enqueueSite->medianUs();
            layer["mempool.free_async_us"] = freeSite->medianUs();
            layer["core.wait_us"] = waitSite->medianUs();
            layer["threadpool.jobs_per_op"] = perOp(pool1.jobs - pool0.jobs);
            layer["threadpool.parks_per_op"] = perOp(pool1.parks - pool0.parks);
            layer["threadpool.steals_per_op"] = perOp(pool1.steals - pool0.steals);
            auto const hits = mem1.cacheHits - mem0.cacheHits;
            auto const misses = mem1.cacheMisses - mem0.cacheMisses;
            layer["mempool.hit_ratio"]
                = hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
            layer["mempool.bytes_held_mib"] = static_cast<double>(mem1.bytesHeld) / (1024.0 * 1024.0);
            layer["bench.traced_ops_per_s"] = static_cast<double>(ops) / wall;

            // The same step enqueued node by node: what replay saves.
            for(std::uint64_t r = 0; r < resubmitOps; ++r)
            {
                watchdog.begin();
                bool const ok = spanned(resubmitSite.get(), r, [&] { return runOp(r, false); });
                watchdog.end();
                result.correct = result.correct && ok;
            }
            layer["graph.resubmit_step_us"] = resubmitSite->medianUs() / static_cast<double>(stepsPerOp);

            std::filesystem::create_directories(opt.traceDir);
            std::vector<std::pair<int, Site const*>> lanes;
            for(auto const* site :
                {replaySite.get(), allocSite.get(), enqueueSite.get(), freeSite.get(), waitSite.get(), resubmitSite.get()})
                lanes.emplace_back(0, site);
            if(!writeTrace(opt.traceDir + "/graph_pipeline-" + std::to_string(opt.seed) + ".json", lanes))
                std::cerr << "perfbench: could not write the trace file\n";
            putPerLayer(result, layer, graphOnly);
        }
        else
            samples.putEndToEnd(result, setupSeconds, ops, wall, cpu);

        for(Size b = 0; b < blocks; ++b)
            if(buf.sum[b] != static_cast<double>(steps) * buf.value[b])
            {
                std::cerr << "perfbench: scratch accumulator " << b << " holds " << buf.sum[b] << ", expected "
                          << static_cast<double>(steps) * buf.value[b] << '\n';
                result.correct = false;
            }
        return result;
    }
} // namespace perfbench
