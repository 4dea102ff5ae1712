/// \file gemm_backends: the paper's single-source claim under load. One op
/// is a round that launches the same tiled DGEMM kernel
/// (workload::GemmTiledElemKernel) on AccCpuOmp2Blocks, AccCpuTaskBlocks,
/// AccCpuThreads and AccGpuCudaSim, one after another in one process.
///
/// Inputs are integer-valued, so every partial sum is an exact double. Each
/// launch accumulates (beta = 1) into its back-end's C; at the end every C
/// must equal C0 + launches * A*B exactly, with A*B from the benchmark's
/// own naive GEMM. A missing, doubled or wrong launch shows there.
#include "common.hpp"

#include <alpaka/alpaka.hpp>
#include <native/native.hpp>
#include <threadpool/thread_pool.hpp>
#include <workload/kernels.hpp>

#include <array>
#include <filesystem>
#include <iostream>
#include <memory>

namespace perfbench
{
    namespace
    {
        using namespace alpaka;
        using Size = std::size_t;
        using Vec2 = Vec<Dim2, Size>;

        //! CPU back-ends run at n = 256 (the paper's Fig. 8 shape at a
        //! size a 4-core box finishes in milliseconds); the simulated GPU
        //! executes every thread as a fiber, so it runs a smaller extent.
        constexpr Size cpuN = 256;
        constexpr Size simN = 128;
        constexpr std::size_t warmupRounds = 16;
        constexpr std::size_t aloneLaunches = 8;
        constexpr std::size_t nativeReps = 8;

        //! Seeded integer-valued inputs of one extent and their exact
        //! product, computed by the benchmark itself.
        struct Inputs
        {
            Size n;
            std::vector<double> a, b, c0, ab;

            Inputs(Size extent, Rng& rng) : n(extent), a(n * n), b(n * n), c0(n * n), ab(n * n)
            {
                for(auto& v : a)
                    v = rng.integer(-8, 8);
                for(auto& v : b)
                    v = rng.integer(-8, 8);
                for(auto& v : c0)
                    v = rng.integer(-64, 64);
                naiveGemm(n, a.data(), b.data(), ab.data());
            }
        };

        //! One back-end: its stream, its device copies of A/B/C and the
        //! pre-created kernel task.
        class Backend
        {
        public:
            Backend(char const* name, Inputs const& in) : name_(name), in_(in)
            {
            }
            virtual ~Backend() = default;
            Backend(Backend const&) = delete;
            auto operator=(Backend const&) -> Backend& = delete;

            //! Enqueues one GEMM and waits for it.
            void launch()
            {
                launchImpl();
                ++launches_;
            }
            //! Elements of C that differ from C0 + launches * A*B.
            [[nodiscard]] auto mismatches() -> std::size_t
            {
                auto const c = readC();
                return gemmMismatches(in_.n, c.data(), in_.n, in_.c0, in_.ab, launches_);
            }
            [[nodiscard]] auto name() const noexcept -> char const*
            {
                return name_;
            }

        protected:
            virtual void launchImpl() = 0;
            //! Dense n x n host copy of C.
            virtual auto readC() -> std::vector<double> = 0;

            char const* name_;
            Inputs const& in_;
            std::uint64_t launches_ = 0;
        };

        template<typename TAcc, typename TStream>
        class BackendOf final : public Backend
        {
            using Dev = typename TAcc::Dev;
            using Buf = decltype(mem::buf::alloc<double, Size>(std::declval<Dev const&>(), std::declval<Vec2>()));
            using HostView = mem::view::ViewPlainPtr<dev::DevCpu, double, Dim2, Size>;
            using Task = decltype(exec::create<TAcc>(
                std::declval<workdiv::WorkDivMembers<Dim2, Size>>(),
                workload::GemmTiledElemKernel{},
                Size{},
                double{},
                std::declval<double const*>(),
                Size{},
                std::declval<double const*>(),
                Size{},
                double{},
                std::declval<double*>(),
                Size{}));

        public:
            BackendOf(char const* name, Inputs const& in, Vec2 const& blockThreads, Vec2 const& threadElems)
                : Backend(name, in)
                , dev_(dev::DevMan<TAcc>::getDevByIdx(0))
                , stream_(dev_)
                , extent_(in.n, in.n)
                , a_(mem::buf::alloc<double, Size>(dev_, extent_))
                , b_(mem::buf::alloc<double, Size>(dev_, extent_))
                , c_(mem::buf::alloc<double, Size>(dev_, extent_))
                , task_(exec::create<TAcc>(
                      workload::gemmTiledWorkDiv(in.n, blockThreads, threadElems),
                      workload::GemmTiledElemKernel{},
                      in.n,
                      1.0,
                      static_cast<double const*>(a_.data()),
                      a_.rowPitchBytes() / sizeof(double),
                      static_cast<double const*>(b_.data()),
                      b_.rowPitchBytes() / sizeof(double),
                      1.0,
                      c_.data(),
                      c_.rowPitchBytes() / sizeof(double)))
            {
                auto const host = dev::PltfCpu::getDevByIdx(0);
                HostView va(const_cast<double*>(in.a.data()), host, extent_);
                HostView vb(const_cast<double*>(in.b.data()), host, extent_);
                HostView vc(const_cast<double*>(in.c0.data()), host, extent_);
                mem::view::copy(stream_, a_, va, extent_);
                mem::view::copy(stream_, b_, vb, extent_);
                mem::view::copy(stream_, c_, vc, extent_);
                wait::wait(stream_);
            }

        private:
            void launchImpl() override
            {
                stream::enqueue(stream_, task_);
                wait::wait(stream_);
            }

            auto readC() -> std::vector<double> override
            {
                std::vector<double> c(in_.n * in_.n);
                HostView vc(c.data(), dev::PltfCpu::getDevByIdx(0), extent_);
                mem::view::copy(stream_, vc, c_, extent_);
                wait::wait(stream_);
                return c;
            }

            Dev dev_;
            TStream stream_;
            Vec2 extent_;
            Buf a_, b_, c_;
            Task task_;
        };

        constexpr std::array<char const*, 4> backendKeys{"omp2blocks", "taskblocks", "threads", "cudasim"};

        template<typename TFn>
        auto medianMs(std::size_t reps, TFn&& fn) -> double
        {
            std::vector<double> ms;
            for(std::size_t r = 0; r < reps; ++r)
            {
                auto const t0 = Clock::now();
                fn();
                ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
            }
            return percentile(ms, 0.5);
        }
    } // namespace

    auto runGemmBackends(Options const& opt) -> Result
    {
        SetupClock setup(opt.start);
        Rng rng(opt.seed);
        std::unique_ptr<Inputs> cpuIn;
        std::unique_ptr<Inputs> simIn;
        setup.exclude(
            [&]
            {
                cpuIn = std::make_unique<Inputs>(cpuN, rng);
                simIn = std::make_unique<Inputs>(simN, rng);
            });

        auto const one = Vec2::ones();
        std::vector<std::unique_ptr<Backend>> backends;
        backends.push_back(std::make_unique<BackendOf<acc::AccCpuOmp2Blocks<Dim2, Size>, stream::StreamCpuSync>>(
            backendKeys[0],
            *cpuIn,
            one,
            Vec2(Size{64}, Size{64})));
        backends.push_back(std::make_unique<BackendOf<acc::AccCpuTaskBlocks<Dim2, Size>, stream::StreamCpuSync>>(
            backendKeys[1],
            *cpuIn,
            one,
            Vec2(Size{64}, Size{64})));
        backends.push_back(std::make_unique<BackendOf<acc::AccCpuThreads<Dim2, Size>, stream::StreamCpuSync>>(
            backendKeys[2],
            *cpuIn,
            one,
            Vec2(Size{64}, Size{64})));
        backends.push_back(
            std::make_unique<BackendOf<acc::AccGpuCudaSim<Dim2, Size>, stream::StreamCudaSimAsync>>(
                backendKeys[3],
                *simIn,
                Vec2(Size{8}, Size{8}),
                Vec2(Size{1}, Size{4})));
        for(std::size_t r = 0; r < warmupRounds; ++r)
            for(auto& be : backends)
                be->launch();

        // Per-layer sites of the traced run, one per back-end launch.
        std::vector<std::unique_ptr<Site>> launchSites;
        if(opt.trace)
            for(auto const* key : backendKeys)
                launchSites.push_back(std::make_unique<Site>(std::string("core.launch.") + key));

        OpSamples samples;
        std::uint64_t ops = 0;
        bool reportEndToEnd = !opt.trace;
        double setupSeconds = 0.0;
        double wall = 0.0;
        double cpu = 0.0;
        Watchdog watchdog(
            opt,
            std::chrono::seconds{20},
            [&]
            {
                Result r;
                r.attempted = ops;
                if(reportEndToEnd)
                    samples.putEndToEnd(r, setupSeconds, ops, wall, cpu);
                else
                    putPerLayer(r, {});
                return r;
            });

        auto& sim = dev::PltfCudaSim::getDevByIdx(0).simDevice();
        auto& pool = threadpool::ThreadPool::global();
        setupSeconds = setup.seconds();

        auto const sim0 = sim.execStats();
        auto const pool0 = pool.counters();
        auto const cpu0 = processCpuSeconds();
        auto const t0 = Clock::now();
        auto const until = t0 + std::chrono::duration<double>(opt.seconds);
        while(Clock::now() < until)
        {
            watchdog.begin();
            auto const opStart = nowNs();
            for(std::size_t i = 0; i < backends.size(); ++i)
                spanned(opt.trace ? launchSites[i].get() : nullptr, ops, [&] { backends[i]->launch(); });
            auto const opUs = static_cast<double>(nowNs() - opStart) / 1e3;
            watchdog.end();
            auto const lock = watchdog.lock();
            samples.us.push_back(opUs);
            ++ops;
            wall = std::chrono::duration<double>(Clock::now() - t0).count();
            cpu = processCpuSeconds() - cpu0;
        }
        auto const sim1 = sim.execStats();
        auto const pool1 = pool.counters();

        Result result;
        result.attempted = ops;
        std::map<std::string, double> layer;
        if(opt.trace)
        {
            auto const perOp = [&](std::uint64_t d) { return static_cast<double>(d) / static_cast<double>(ops); };
            for(std::size_t i = 0; i < backends.size(); ++i)
                layer[std::string("core.launch_ms.") + backendKeys[i]] = launchSites[i]->medianUs() / 1e3;
            layer["gpusim.fiber_switches_per_op"] = perOp(sim1.fiberSwitches - sim0.fiberSwitches);
            layer["threadpool.jobs_per_op"] = perOp(pool1.jobs - pool0.jobs);
            layer["threadpool.parks_per_op"] = perOp(pool1.parks - pool0.parks);
            layer["threadpool.steals_per_op"] = perOp(pool1.steals - pool0.steals);
            layer["bench.traced_ops_per_s"] = static_cast<double>(ops) / wall;

            // Each back-end by itself: the gap to the interleaved launch
            // time is interference between the runtimes.
            std::vector<std::unique_ptr<Site>> aloneSites;
            for(std::size_t i = 0; i < backends.size(); ++i)
            {
                aloneSites.push_back(std::make_unique<Site>(std::string("core.launch_alone.") + backendKeys[i]));
                backends[i]->launch();
                for(std::size_t r = 0; r < aloneLaunches; ++r)
                {
                    watchdog.begin();
                    spanned(aloneSites[i].get(), r, [&] { backends[i]->launch(); });
                    watchdog.end();
                }
                layer[std::string("core.launch_ms_alone.") + backendKeys[i]] = aloneSites[i]->medianUs() / 1e3;
            }

            // The native floor of Fig. 5 at the same extents.
            {
                std::vector<double> c(cpuN * cpuN);
                layer["native.omp_gemm_ms"] = medianMs(
                    nativeReps,
                    [&] {
                        native::omp::gemm(cpuN, 1.0, cpuIn->a.data(), cpuN, cpuIn->b.data(), cpuN, 0.0, c.data(), cpuN);
                    });
                if(c != cpuIn->ab)
                    result.correct = false;
            }
            {
                auto& dev = gpusim::Platform::instance().device(0);
                gpusim::Stream stream(dev, false);
                auto const bytes = simN * simN * sizeof(double);
                auto* const da = static_cast<double*>(dev.memory().allocate(bytes));
                auto* const db = static_cast<double*>(dev.memory().allocate(bytes));
                auto* const dc = static_cast<double*>(dev.memory().allocate(bytes));
                stream.memcpyHtoD(da, simIn->a.data(), bytes);
                stream.memcpyHtoD(db, simIn->b.data(), bytes);
                stream.wait();
                layer["native.sim_gemm_ms"] = medianMs(
                    nativeReps,
                    [&]
                    {
                        native::sim::gemmTiled(stream, simN, 1.0, da, simN, db, simN, 0.0, dc, simN, 8);
                        stream.wait();
                    });
                std::vector<double> c(simN * simN);
                stream.memcpyDtoH(c.data(), dc, bytes);
                stream.wait();
                if(c != simIn->ab)
                    result.correct = false;
                dev.memory().free(da);
                dev.memory().free(db);
                dev.memory().free(dc);
            }

            std::vector<std::pair<int, Site const*>> lanes;
            for(auto const& s : launchSites)
                lanes.emplace_back(0, s.get());
            for(auto const& s : aloneSites)
                lanes.emplace_back(0, s.get());
            std::filesystem::create_directories(opt.traceDir);
            if(!writeTrace(opt.traceDir + "/gemm_backends-" + std::to_string(opt.seed) + ".json", lanes))
                std::cerr << "perfbench: could not write the trace file\n";
        }

        for(auto& be : backends)
            if(auto const bad = be->mismatches(); bad != 0)
            {
                std::cerr << "perfbench: " << be->name() << " C differs from the reference in " << bad
                          << " elements\n";
                result.correct = false;
            }

        if(opt.trace)
            putPerLayer(result, layer);
        else
            samples.putEndToEnd(result, setupSeconds, ops, wall, cpu);
        return result;
    }
} // namespace perfbench
