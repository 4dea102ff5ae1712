/// \file The serving workloads. serve_saturate is request handling under
/// a full window: two client threads each keep 64 requests in flight over
/// the in-process pipe transport, through net::FrontDoor, a 2-shard
/// net::Router and serve::Service batching. The tenants are picked with
/// Router::shardOf so that each shard serves one: the first sends the
/// single-kernel template (out = 2 in + 1), the second a two-node graph
/// template with per-request scratch (out = 36 in + 1). One op is one
/// request, timed from the client's submit to its response.
/// serve_roundtrip(_pool) is the same path with one client, window 1 and
/// one shard, on ThreadPool::global() or on a dedicated one-worker pool.
///
/// Checks: every echo carries the input sent under its id and the
/// template's closed form, computed by the client; after drain() the
/// shards' completed counts sum to the client-verified total (plus at
/// most the failed requests), and every shard served requests. A request unanswered after its deadline is a
/// failed op; the run still ends and reports.
#include "common.hpp"

#include <net/client.hpp>
#include <net/front_door.hpp>
#include <net/router.hpp>
#include <net/transport.hpp>
#include <serve/service.hpp>
#include <threadpool/thread_pool.hpp>

#include <array>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <mutex>

namespace perfbench
{
    namespace
    {
        using namespace alpaka;

        struct WireCfg
        {
            static constexpr std::size_t maxConnections = 4;
            static constexpr std::size_t slotsPerConnection = 64;
            static constexpr std::size_t maxPayload = 64;
            static constexpr std::size_t maxTenantBytes = 48;
            static constexpr std::size_t window = 64;
            static constexpr std::size_t txFrames = 8;
        };
        using WireClient = net::Client<WireCfg>;

        struct Payload
        {
            double in = 0.0;
            double out = 0.0;
        };

        constexpr std::size_t warmupRequests = 100000;
        //! Exact latency samples kept per client: a uniform sample of every
        //! timed response, in a buffer whose size depends neither on the
        //! run length nor on the throughput reached.
        constexpr std::size_t samplesPerClient = 1 << 16;
        constexpr auto requestDeadline = std::chrono::seconds{5};
        constexpr auto directSeconds = std::chrono::seconds{2};

        //! Integer-valued request inputs, so both closed forms are exact.
        auto nextInput(Rng& rng) -> double
        {
            return rng.integer(-1000000, 1000000);
        }

        //! Median of the timed-phase delta of one of the program's log2
        //! latency histograms, interpolated linearly inside its bucket
        //! (bucket b holds [2^(b-1), 2^b) us). Coarse, for reference only.
        auto log2Median(serve::LatencyCounts const& before, serve::LatencyCounts const& after) -> double
        {
            std::uint64_t total = 0;
            for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
                total += after.counts[b] - before.counts[b];
            if(total == 0)
                return 0.0;
            auto const rank = 0.5 * static_cast<double>(total);
            double seen = 0.0;
            for(std::size_t b = 0; b < serve::LatencyCounts::bucketCount; ++b)
            {
                auto const n = static_cast<double>(after.counts[b] - before.counts[b]);
                if(seen + n >= rank && n > 0.0)
                {
                    auto const lo = b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
                    auto const hi = b == 0 ? 1.0 : static_cast<double>(std::uint64_t{1} << b);
                    return lo + (hi - lo) * (rank - seen) / n;
                }
                seen += n;
            }
            return 0.0;
        }

        //! Hand-off timing of the graph template: node 1 stamps its end,
        //! node 2 records the gap to its own start, once per replay. One
        //! per instantiated graph (per worker stream); the replays of one
        //! graph are serialized, so no two threads touch it at once.
        struct Handoff
        {
            std::int64_t stageEndNs = 0;
            Site site{"graph.node_handoff", 8};
        };

        //! Phases the main thread publishes to the clients.
        struct Shared
        {
            std::atomic<bool> go{false};
            std::atomic<std::int64_t> stopAtNs{0};
            std::atomic<int> warmed{0};
            std::atomic<int> drained{0};
            std::atomic<int> finished{0};
        };

        struct ClientState
        {
            std::string tenant;
            serve::TemplateId tmpl = 0;
            bool graphTemplate = false;
            std::uint64_t seed = 0;
            std::unique_ptr<net::Transport> end;

            ServeTally warm;
            ServeTally timed;
            std::uint64_t attempted = 0; //!< timed-phase submits
            std::unique_ptr<Reservoir> samples;
            double cpuSeconds = 0.0; //!< thread CPU over the timed phase
            bool lost = false; //!< the connection closed or never came up

            std::unique_ptr<Site> submitSite;
            std::unique_ptr<Site> pollSite;
        };

        //! Submits until \p stopSubmitting says so, then waits for the
        //! outstanding responses (each bounded by requestDeadline).
        template<typename TStop>
        void pump(
            WireClient& client,
            ClientState& st,
            std::size_t window,
            Rng& rng,
            ServeTally& tally,
            bool timed,
            TStop&& stopSubmitting)
        {
            InFlightTable table;
            std::uint64_t seq = 0;
            std::uint64_t loops = 0;
            bool submitting = true;
            auto const onResponse = [&](WireClient::Response const& r)
            {
                auto const known = table.take(r.reqId);
                auto const now = nowNs();
                Payload echoed;
                bool const ok = r.status == net::Status::Ok && r.payloadLen == sizeof(Payload);
                if(ok)
                    std::memcpy(&echoed, r.payload, sizeof(Payload));
                judgeResponse(tally, known, ok, echoed.in, echoed.out, st.graphTemplate);
                if(timed && known.reqId != 0)
                    st.samples->offer(static_cast<double>(now - known.sentNs) / 1e3);
            };
            while(!client.closed())
            {
                submitting = submitting && !stopSubmitting(seq);
                while(submitting && table.live() < window)
                {
                    Payload p;
                    p.in = nextInput(rng);
                    auto const t0 = nowNs();
                    auto const id = client.trySubmit(st.tmpl, reinterpret_cast<std::byte const*>(&p), sizeof(p));
                    if(id == 0)
                        break; // window or staging full: service the wire
                    auto const t1 = nowNs();
                    if(st.submitSite != nullptr && timed)
                        st.submitSite->add(t0, t1, seq);
                    table.insert(id, t1, p.in);
                    ++seq;
                    if(timed)
                        ++st.attempted;
                    submitting = !stopSubmitting(seq);
                }
                bool const progress
                    = spanned(timed ? st.pollSite.get() : nullptr, seq, [&] { return client.poll(onResponse); });
                if(++loops % 1024 == 0)
                    tally.missing += table.expire(
                        nowNs() - std::chrono::duration_cast<std::chrono::nanoseconds>(requestDeadline).count());
                if(!submitting && table.live() == 0)
                    return;
                if(!progress)
                    std::this_thread::yield();
            }
            tally.missing += table.live();
            st.lost = true;
        }

        void runClient(ClientState& st, std::size_t window, Shared& shared)
        {
            WireClient client(std::move(st.end));
            Rng rng(st.seed);
            client.hello(st.tenant);
            auto const readyBy = Clock::now() + requestDeadline;
            while(!client.ready() && !client.closed() && Clock::now() < readyBy)
                if(!client.poll([](WireClient::Response const&) {}))
                    std::this_thread::yield();
            st.lost = !client.ready();
            if(!st.lost)
                pump(client, st, window, rng, st.warm, false, [](std::uint64_t seq) { return seq >= warmupRequests; });
            shared.warmed.fetch_add(1);
            while(!shared.go.load(std::memory_order_acquire))
                std::this_thread::yield();

            auto const cpu0 = threadCpuSeconds();
            if(!st.lost)
            {
                auto const stopAt = shared.stopAtNs.load();
                pump(client, st, window, rng, st.timed, true, [stopAt](std::uint64_t) { return nowNs() >= stopAt; });
            }
            st.cpuSeconds = threadCpuSeconds() - cpu0;
            shared.drained.fetch_add(1);

            client.bye();
            auto const closeBy = Clock::now() + std::chrono::seconds{1};
            while(!client.closed() && Clock::now() < closeBy)
                if(!client.poll([](WireClient::Response const&) {}))
                    std::this_thread::yield();
            shared.finished.fetch_add(1);
        }

        //! The same tenants, templates and window straight through
        //! Router::submit, without the wire. \returns requests per second,
        //! and adds the verified count to \p verified; a future that does
        //! not resolve within requestDeadline ends the phase as failed.
        auto directPhase(
            net::Router& router,
            std::vector<ClientState> const& cs,
            std::size_t window,
            std::uint64_t& verified,
            bool& ok) -> double
        {
            std::vector<std::uint64_t> done(cs.size(), 0);
            std::vector<char> good(cs.size(), 1);
            auto const t0 = Clock::now();
            {
                std::vector<std::jthread> threads;
                for(std::size_t c = 0; c < cs.size(); ++c)
                    threads.emplace_back(
                        [&, c]
                        {
                            auto const& st = cs[c];
                            Rng rng(st.seed ^ 0xD1EC7ULL);
                            // Heap-held: a stalled request keeps pointing into it.
                            auto payloads = std::make_unique<std::array<Payload, WireCfg::window>>();
                            std::array<serve::Future, WireCfg::window> futures;
                            auto const submit = [&](std::size_t slot)
                            {
                                (*payloads)[slot] = Payload{nextInput(rng), 0.0};
                                serve::Request req;
                                req.tmpl = st.tmpl;
                                req.tenant = st.tenant;
                                req.payload = serve::PayloadView(&(*payloads)[slot], sizeof(Payload));
                                futures[slot] = router.submit(req);
                            };
                            for(std::size_t slot = 0; slot < window; ++slot)
                                submit(slot);
                            auto const until = t0 + directSeconds;
                            // Round-robin over the window: wait for a slot,
                            // check it, refill it until the phase ends.
                            for(std::size_t live = window, slot = 0; live > 0; slot = (slot + 1) % window)
                            {
                                if(!futures[slot].valid())
                                    continue;
                                bool resolved = false;
                                try
                                {
                                    resolved = futures[slot].waitFor(requestDeadline);
                                }
                                catch(std::exception const&)
                                {
                                    resolved = true; // failed request: its payload check fails below
                                    good[c] = 0;
                                }
                                if(!resolved)
                                {
                                    good[c] = 0;
                                    (void) payloads.release();
                                    return;
                                }
                                auto const& p = (*payloads)[slot];
                                auto const expect = st.graphTemplate ? graphOut(p.in) : scaleOut(p.in);
                                good[c] = good[c] != 0 && p.out == expect ? 1 : 0;
                                ++done[c];
                                if(Clock::now() < until)
                                    submit(slot);
                                else
                                {
                                    futures[slot] = serve::Future{};
                                    --live;
                                }
                            }
                        });
            }
            auto const seconds = std::chrono::duration<double>(Clock::now() - t0).count();
            ok = std::all_of(good.begin(), good.end(), [](char g) { return g != 0; });
            std::uint64_t total = 0;
            for(auto const d : done)
                total += d;
            verified += total;
            return static_cast<double>(total) / seconds;
        }
    } // namespace

    auto runServe(Options const& opt, ServeShape const& shape) -> Result
    {
        SetupClock setup(opt.start);
        // Declared before the router: its shards use them.
        std::mutex handoffMutex;
        std::vector<std::shared_ptr<Handoff>> handoffs;
        std::unique_ptr<threadpool::ThreadPool> dedicatedPool;
        net::RouterOptions routerOptions;
        routerOptions.shards = shape.shards;
        routerOptions.shard.cpuWorkers = 1;
        if(shape.dedicatedPool)
        {
            dedicatedPool = std::make_unique<threadpool::ThreadPool>(1);
            routerOptions.shard.pool = dedicatedPool.get();
        }
        net::Router router(routerOptions);

        serve::TemplateDesc scale;
        scale.name = "scale";
        scale.maxBatch = 64;
        scale.body = [](serve::RequestItem const& item)
        {
            auto* const p = static_cast<Payload*>(item.payload);
            p->out = p->in * 2.0 + 1.0;
        };
        serve::TemplateDesc graph36;
        graph36.name = "graph36";
        graph36.maxBatch = 64;
        graph36.scratchBytes = graphScratchElems * sizeof(double);
        // Traced runs time the graph's node-to-node hand-off from inside
        // the node bodies; untraced runs read no clock there.
        graph36.graph = [&handoffMutex, &handoffs, trace = opt.trace](serve::GraphContext& ctx)
        {
            std::shared_ptr<Handoff> handoff;
            if(trace)
            {
                handoff = std::make_shared<Handoff>();
                std::scoped_lock lock(handoffMutex);
                handoffs.push_back(handoff);
            }
            auto const* const cell = ctx.batch();
            graph::Graph g;
            auto const stage = g.addHost(
                {},
                [cell, handoff]
                {
                    auto const& view = **cell;
                    for(std::size_t i = 0; i < view.size(); ++i)
                    {
                        auto const in = static_cast<Payload const*>(view[i].payload)->in;
                        auto* const scratch = static_cast<double*>(view[i].scratch);
                        for(std::size_t k = 0; k < graphScratchElems; ++k)
                            scratch[k] = in * static_cast<double>(k + 1);
                    }
                    if(handoff != nullptr)
                        handoff->stageEndNs = nowNs();
                });
            g.addHost(
                {stage},
                [cell, handoff]
                {
                    if(handoff != nullptr)
                        handoff->site.add(handoff->stageEndNs, nowNs(), 0);
                    auto const& view = **cell;
                    for(std::size_t i = 0; i < view.size(); ++i)
                    {
                        auto const* const scratch = static_cast<double const*>(view[i].scratch);
                        double sum = 1.0;
                        for(std::size_t k = 0; k < graphScratchElems; ++k)
                            sum += scratch[k];
                        static_cast<Payload*>(view[i].payload)->out = sum;
                    }
                });
            return g;
        };

        auto const scaleId = router.registerTemplate(std::move(scale));
        auto const graphId = router.registerTemplate(std::move(graph36));
        // Client c sends the single-kernel template when c is even, the
        // graph template when odd, as a seeded tenant hashing to shard
        // c % shards.
        std::vector<ClientState> cs(shape.clients);
        setup.exclude(
            [&]
            {
                Rng rng(opt.seed);
                for(std::size_t c = 0; c < cs.size(); ++c)
                {
                    cs[c].graphTemplate = c % 2 == 1;
                    cs[c].tmpl = cs[c].graphTemplate ? graphId : scaleId;
                    for(;;)
                    {
                        auto name = "tenant-" + std::to_string(rng.next() % 1000000);
                        auto const taken = std::any_of(cs.begin(), cs.end(), [&](ClientState const& o) { return o.tenant == name; });
                        if(router.shardOf(name) == c % shape.shards && !taken)
                        {
                            cs[c].tenant = std::move(name);
                            break;
                        }
                    }

                    cs[c].seed = rng.next();
                    cs[c].samples = std::make_unique<Reservoir>(samplesPerClient, rng.next());
                    if(opt.trace)
                    {
                        cs[c].submitSite = std::make_unique<Site>("net.client_submit", 16);
                        cs[c].pollSite = std::make_unique<Site>("net.client_poll", 64);
                    }
                }
            });

        net::FrontDoor<WireCfg> door(router);
        for(auto& st : cs)
        {
            auto [serverEnd, clientEnd] = net::makePipePair(1 << 18);
            if(!door.accept(std::move(serverEnd)))
                throw std::runtime_error("serve_saturate: connection table full");
            st.end = std::move(clientEnd);
        }

        Shared shared;
        std::unique_ptr<Site> doorBusySite;
        if(opt.trace)
            doorBusySite = std::make_unique<Site>("net.door_poll_busy", 64);
        std::uint64_t doorIdlePolls = 0;
        auto const pollDoor = [&](bool timed)
        {
            auto const t0 = Clock::now();
            if(door.poll(t0))
            {
                if(timed && doorBusySite != nullptr)
                    doorBusySite->add(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch()).count(),
                        nowNs(),
                        0);
                return;
            }
            if(timed)
                ++doorIdlePolls;
            std::this_thread::yield();
        };

        std::vector<std::jthread> threads;
        for(auto& st : cs)
            threads.emplace_back([&st, &shared, &shape] { runClient(st, shape.window, shared); });
        while(shared.warmed.load() < static_cast<int>(cs.size()))
            pollDoor(false);

        Result result;
        double setupSeconds = setup.seconds();
        Watchdog watchdog(opt, std::chrono::seconds{20}, [&] { return result; });

        auto& pool = threadpool::ThreadPool::global();
        auto& mpool = mempool::Pool::forDev(dev::PltfCpu::getDevByIdx(0));
        auto const router0 = router.stats();
        auto const door0 = door.stats();
        auto const pool0 = pool.counters();
        auto const mem0 = mpool.stats();
        auto const cpu0 = processCpuSeconds();
        auto const t0 = Clock::now();
        shared.stopAtNs.store(
            nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9));
        shared.go.store(true, std::memory_order_release);
        while(shared.drained.load() < static_cast<int>(cs.size()))
            pollDoor(true);
        auto const wall = std::chrono::duration<double>(Clock::now() - t0).count();
        auto const cpu1 = processCpuSeconds();
        auto const router1 = router.stats();
        auto const door1 = door.stats();
        auto const pool1 = pool.counters();
        auto const mem1 = mpool.stats();
        while(shared.finished.load() < static_cast<int>(cs.size()))
            pollDoor(false);
        threads.clear(); // joins

        std::uint64_t verified = 0;
        std::uint64_t failedAll = 0; //!< warm-up and timed
        double clientCpu = 0.0;
        OpSamples samples;
        for(auto const& st : cs)
        {
            result.attempted += st.attempted;
            result.failed += st.timed.failed();
            verified += st.warm.verified + st.timed.verified;
            failedAll += st.warm.failed() + st.timed.failed();
            clientCpu += st.cpuSeconds;
            samples.us.insert(samples.us.end(), st.samples->values().begin(), st.samples->values().end());
            if(st.warm.failed() != 0 || st.lost)
            {
                std::cerr << "perfbench: client " << st.tenant << " lost its connection or failed warm-up requests\n";
                result.correct = false;
            }
            if(st.timed.wrongEcho != 0)
            {
                std::cerr << "perfbench: " << st.timed.wrongEcho << " wrong echoes for " << st.tenant << '\n';
                result.correct = false;
            }
            if(st.timed.missing != 0)
                std::cerr << "perfbench: " << st.timed.missing << " requests of " << st.tenant
                          << " unanswered after " << requestDeadline.count() << " s\n";
        }
        auto const timedOk = result.attempted - result.failed;

        std::map<std::string, double> layer;
        if(opt.trace)
        {
            auto const perOp = [&](double d) { return d / static_cast<double>(timedOk); };
            auto const sum = [](auto const& sites, auto fn)
            {
                double total = 0.0;
                for(auto const& s : sites)
                    total += fn(s);
                return total;
            };
            std::vector<double> submitUs;
            for(auto const& st : cs)
                for(auto const& sp : st.submitSite->spans())
                    submitUs.push_back(static_cast<double>(sp.endNs - sp.startNs) / 1e3);
            layer["net.client_submit_us"] = percentile(submitUs, 0.5);
            layer["net.client_poll_us_per_op"] = perOp(sum(cs, [](ClientState const& st) { return st.pollSite->totalUs(); }));
            layer["net.door_poll_busy_us_per_op"] = perOp(doorBusySite->totalUs());
            layer["net.door_idle_polls_per_op"] = perOp(static_cast<double>(doorIdlePolls));
            layer["net.frames_in_per_op"] = perOp(static_cast<double>(door1.framesIn - door0.framesIn));
            layer["net.rx_stalls_per_kop"] = 1000.0 * perOp(static_cast<double>(door1.rxStalls - door0.rxStalls));
            std::uint64_t completed = 0;
            std::uint64_t batches = 0;
            auto shareMin = std::numeric_limits<double>::max();
            for(std::size_t s = 0; s < router1.perShard.size(); ++s)
            {
                auto const c = router1.perShard[s].completed - router0.perShard[s].completed;
                completed += c;
                batches += router1.perShard[s].batches - router0.perShard[s].batches;
                shareMin = std::min(shareMin, static_cast<double>(c));
            }
            layer["serve.batch_size_mean"]
                = batches > 0 ? static_cast<double>(completed) / static_cast<double>(batches) : 0.0;
            layer["router.shard_share_min"] = completed > 0 ? shareMin / static_cast<double>(completed) : 0.0;
            layer["serve.queue_wait_p50_us"] = log2Median(router0.queueWaitCounts, router1.queueWaitCounts);
            layer["serve.in_service_p50_us"] = log2Median(router0.latencyCounts, router1.latencyCounts);
            std::vector<double> handoffUs;
            for(auto const& h : handoffs)
                for(auto const& sp : h->site.spans())
                    handoffUs.push_back(static_cast<double>(sp.endNs - sp.startNs) / 1e3);
            layer["graph.node_handoff_us"] = percentile(handoffUs, 0.5);
            layer["threadpool.jobs_per_op"] = perOp(static_cast<double>(pool1.jobs - pool0.jobs));
            layer["threadpool.parks_per_op"] = perOp(static_cast<double>(pool1.parks - pool0.parks));
            layer["threadpool.steals_per_op"] = perOp(static_cast<double>(pool1.steals - pool0.steals));
            auto const hits = mem1.cacheHits - mem0.cacheHits;
            auto const misses = mem1.cacheMisses - mem0.cacheMisses;
            layer["mempool.hit_ratio"]
                = hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
            layer["mempool.bytes_held_mib"] = static_cast<double>(mem1.bytesHeld) / (1024.0 * 1024.0);
            layer["bench.traced_ops_per_s"] = static_cast<double>(timedOk) / wall;

            bool directOk = true;
            watchdog.begin();
            layer["serve.direct_ops_per_s"] = directPhase(router, cs, shape.window, verified, directOk);
            watchdog.end();
            if(!directOk)
            {
                std::cerr << "perfbench: the direct Router::submit phase saw a wrong or missing result\n";
                result.correct = false;
            }

            std::filesystem::create_directories(opt.traceDir);
            std::vector<std::pair<int, Site const*>> lanes;
            for(std::size_t c = 0; c < cs.size(); ++c)
            {
                lanes.emplace_back(static_cast<int>(c + 1), cs[c].submitSite.get());
                lanes.emplace_back(static_cast<int>(c + 1), cs[c].pollSite.get());
            }
            lanes.emplace_back(0, doorBusySite.get());
            if(!writeTrace(opt.traceDir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".json", lanes))
                std::cerr << "perfbench: could not write the trace file\n";
            putPerLayer(result, layer);
        }
        else
            samples.putEndToEnd(result, setupSeconds, timedOk, wall, (cpu1 - cpu0) - clientCpu);

        // drain() is the stats barrier: after it the shards' completed
        // counts must account for every verified response, and for no
        // more than the failed ones besides.
        watchdog.begin();
        router.drain();
        watchdog.end();
        auto const fleet = router.stats();
        std::uint64_t completed = 0;
        for(std::size_t s = 0; s < fleet.perShard.size(); ++s)
        {
            completed += fleet.perShard[s].completed;
            if(fleet.perShard[s].completed == 0)
            {
                std::cerr << "perfbench: shard " << s << " served no request\n";
                result.correct = false;
            }
        }
        if(!completedAccountsFor(completed, verified, failedAll))
        {
            std::cerr << "perfbench: shards completed " << completed << " requests, clients verified " << verified
                      << " and " << failedAll << " failed\n";
            result.correct = false;
        }

        watchdog.begin();
        auto const reports = router.shutdown(std::chrono::seconds{5});
        watchdog.end();
        for(auto const& r : reports)
            if(!r.clean)
            {
                // Stuck workers cannot be joined; report and end here.
                std::cerr << "perfbench: a shard did not shut down cleanly\n";
                printResult(opt, result);
                std::_Exit(0);
            }
        return result;
    }

    auto runServeSaturate(Options const& opt) -> Result
    {
        return runServe(opt, ServeShape{2, 64, 2, false});
    }

    auto runServeRoundTrip(Options const& opt, bool dedicatedPool) -> Result
    {
        return runServe(opt, ServeShape{1, 1, 1, dedicatedPool});
    }
} // namespace perfbench
