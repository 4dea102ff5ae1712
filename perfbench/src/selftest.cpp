/// \file Tests of the benchmark's own parts: exact-sample percentiles, the
/// GEMM check, the serving checks and the latency reservoir. Exits 1 on the first failure.
#include "checks.hpp"

#include <cstdio>
#include <cstdlib>

namespace
{
    int failures = 0;

    void expect(bool ok, char const* what)
    {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    }

    void testPercentiles()
    {
        // Sorted: 1 2 3 4 5 6 7 8 9 10; rank = q * 9.
        std::vector<double> v{7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
        expect(perfbench::percentile(v, 0.5) == 5.5, "p50 of 1..10 is 5.5");
        expect(perfbench::percentile(v, 0.9) == 9.1, "p90 of 1..10 is 9.1");
        expect(perfbench::percentile(v, 0.0) == 1.0, "p0 is the minimum");
        expect(perfbench::percentile(v, 1.0) == 10.0, "p100 is the maximum");
        std::vector<double> odd{40, 10, 30, 20, 50};
        expect(perfbench::percentile(odd, 0.5) == 30.0, "p50 of an odd count is the middle sample");
        expect(perfbench::percentile(odd, 0.9) == 46.0, "p90 of 10..50 interpolates to 46");
        std::vector<double> empty;
        expect(perfbench::percentile(empty, 0.5) == 0.0, "empty sample set reads 0");
    }

    void testGemmCheck()
    {
        constexpr std::size_t n = 5;
        perfbench::Rng rng(7);
        std::vector<double> a(n * n), b(n * n), c0(n * n), ab(n * n);
        for(auto* m : {&a, &b, &c0})
            for(auto& x : *m)
                x = rng.integer(-8, 8);
        perfbench::naiveGemm(n, a.data(), b.data(), ab.data());
        // Hand check of one element against the definition.
        double e12 = 0.0;
        for(std::size_t k = 0; k < n; ++k)
            e12 += a[1 * n + k] * b[k * n + 2];
        expect(ab[1 * n + 2] == e12, "naive GEMM element (1,2) matches its dot product");

        // Three accumulated launches, stored with a row pitch of n + 3.
        constexpr std::size_t ldc = n + 3;
        std::vector<double> c(n * ldc, -1.0);
        for(std::size_t i = 0; i < n; ++i)
            for(std::size_t j = 0; j < n; ++j)
                c[i * ldc + j] = c0[i * n + j] + 3.0 * ab[i * n + j];
        expect(perfbench::gemmMismatches(n, c.data(), ldc, c0, ab, 3) == 0, "exact result passes");
        expect(perfbench::gemmMismatches(n, c.data(), ldc, c0, ab, 2) == n * n - [&] {
            std::size_t zero = 0;
            for(auto const x : ab)
                zero += x == 0.0 ? 1 : 0;
            return zero;
        }(), "a wrong launch count fails every non-zero element");
        c[3 * ldc + 4] += 1.0;
        expect(perfbench::gemmMismatches(n, c.data(), ldc, c0, ab, 3) == 1, "one altered element is caught");
    }

    void testServeChecks()
    {
        perfbench::InFlightTable table;
        perfbench::ServeTally tally;
        table.insert(1, 100, 5.0);
        table.insert(2, 110, -3.0);
        table.insert(3, 120, 8.0);
        table.insert(257, 130, 1.0);
        expect(table.live() == 4, "four requests recorded");

        perfbench::judgeResponse(tally, table.take(1), true, 5.0, perfbench::scaleOut(5.0), false);
        expect(tally.verified == 1 && tally.failed() == 0, "a correct echo verifies");

        perfbench::judgeResponse(tally, table.take(2), true, -3.0, perfbench::scaleOut(-3.0) + 1.0, false);
        expect(tally.wrongEcho == 1 && tally.failed() == 1, "a wrong output counts as failed");

        perfbench::judgeResponse(tally, table.take(257), true, 2.0, perfbench::scaleOut(2.0), false);
        expect(tally.wrongEcho == 2, "an echo of another input counts as failed");

        perfbench::judgeResponse(tally, table.take(3), true, 8.0, perfbench::graphOut(8.0), true);
        expect(tally.verified == 2, "the graph template's closed form verifies");

        table.insert(4, 200, 1.0);
        table.insert(5, 900, 2.0);
        tally.missing += table.expire(500);
        expect(tally.missing == 1 && tally.failed() == 3, "a response missing past its deadline counts as failed");
        expect(table.live() == 1, "the expired request left the table");

        auto const late = table.take(4);
        perfbench::judgeResponse(tally, late, true, 1.0, perfbench::scaleOut(1.0), false);
        expect(tally.verified == 2 && tally.failed() == 3, "a late response to an expired request is not counted twice");
        expect(table.take(5).reqId == 5 && table.live() == 0, "the last request is found and removed");

        perfbench::judgeResponse(tally, perfbench::InFlightTable::Entry{6, 0, 1.0}, false, 0.0, 0.0, false);
        expect(tally.wrongEcho == 3, "a non-Ok status counts as failed");

        expect(perfbench::completedAccountsFor(10, 10, 0), "completed equals verified when nothing failed");
        expect(!perfbench::completedAccountsFor(11, 10, 0), "an unverified completion is caught");
        expect(!perfbench::completedAccountsFor(9, 10, 0), "a verified response no shard completed is caught");
        expect(perfbench::completedAccountsFor(12, 10, 3), "failed requests may or may not have completed");
        expect(!perfbench::completedAccountsFor(14, 10, 3), "completions beyond the failed requests are caught");
    }

    void testReservoir()
    {
        perfbench::Reservoir small(8, 1);
        for(int i = 0; i < 5; ++i)
            small.offer(i);
        expect(small.values() == std::vector<double>{0, 1, 2, 3, 4}, "under capacity every value is kept in order");

        // 100 x 1..1000: the median of a uniform sample stays near 500.
        perfbench::Reservoir r(4096, 3);
        for(int k = 0; k < 100; ++k)
            for(int i = 1; i <= 1000; ++i)
                r.offer(i);
        auto kept = r.values();
        expect(r.seen() == 100000 && kept.size() == 4096, "the reservoir keeps its capacity, counts every value");
        auto const p50 = perfbench::percentile(kept, 0.5);
        expect(p50 > 470.0 && p50 < 530.0, "the sample's median is the stream's median within 6 %");
    }
} // namespace

auto main() -> int
{
    testPercentiles();
    testGemmCheck();
    testServeChecks();
    testReservoir();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
