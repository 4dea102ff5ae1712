/// \file The benchmark's own statistics and output checks. Pure functions
/// over plain data, kept apart from the program so selftest.cpp can test
/// them without building a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{
    //! Percentile \p q in [0, 1] of the exact samples, linear interpolation
    //! between the two closest ranks (rank q * (n - 1), the numpy default).
    //! Sorts \p samples in place. 0 for an empty vector.
    [[nodiscard]] inline auto percentile(std::vector<double>& samples, double q) -> double
    {
        if(samples.empty())
            return 0.0;
        std::sort(samples.begin(), samples.end());
        auto const rank = q * static_cast<double>(samples.size() - 1);
        auto const lo = static_cast<std::size_t>(std::floor(rank));
        auto const hi = std::min(lo + 1, samples.size() - 1);
        auto const frac = rank - static_cast<double>(lo);
        return samples[lo] + (samples[hi] - samples[lo]) * frac;
    }

    //! SplitMix64: the seed-to-input generator of every workload.
    class Rng
    {
    public:
        explicit Rng(std::uint64_t seed) noexcept : state_(seed)
        {
        }
        auto next() noexcept -> std::uint64_t
        {
            auto z = (state_ += 0x9E3779B97F4A7C15ULL);
            z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
            return z ^ (z >> 31U);
        }
        //! Integer-valued double uniform in [lo, hi].
        auto integer(int lo, int hi) noexcept -> double
        {
            auto const span = static_cast<std::uint64_t>(hi - lo + 1);
            return static_cast<double>(lo + static_cast<int>(next() % span));
        }

    private:
        std::uint64_t state_;
    };

    //! A fixed-size uniform sample of a stream of values (reservoir
    //! sampling, Algorithm R): each value offered is kept with the same
    //! probability, and the memory used does not depend on how many are.
    class Reservoir
    {
    public:
        Reservoir(std::size_t capacity, std::uint64_t seed) : capacity_(capacity), rng_(seed)
        {
            values_.reserve(capacity_);
        }
        void offer(double v)
        {
            ++seen_;
            if(values_.size() < capacity_)
            {
                values_.push_back(v);
                return;
            }
            // Uniform in [0, seen_) by multiply-shift, without a division.
            auto const j = static_cast<std::uint64_t>((static_cast<unsigned __int128>(rng_.next()) * seen_) >> 64U);
            if(j < capacity_)
                values_[j] = v;
        }
        [[nodiscard]] auto values() const noexcept -> std::vector<double> const&
        {
            return values_;
        }
        [[nodiscard]] auto seen() const noexcept -> std::uint64_t
        {
            return seen_;
        }

    private:
        std::size_t capacity_;
        Rng rng_;
        std::vector<double> values_;
        std::uint64_t seen_ = 0;
    };

    //! C <- A*B for square row-major n x n matrices, plain triple loop:
    //! the benchmark's own reference, independent of the program.
    inline void naiveGemm(std::size_t n, double const* a, double const* b, double* c)
    {
        for(std::size_t i = 0; i < n; ++i)
            for(std::size_t j = 0; j < n; ++j)
            {
                double sum = 0.0;
                for(std::size_t k = 0; k < n; ++k)
                    sum += a[i * n + k] * b[k * n + j];
                c[i * n + j] = sum;
            }
    }

    //! Elements of a GEMM result that differ from the exact expectation
    //! c0 + launches * ab. Integer-valued inputs keep every partial sum an
    //! exact double, so equality is the right test. \p c has a row pitch of
    //! \p ldc elements.
    [[nodiscard]] inline auto gemmMismatches(
        std::size_t n,
        double const* c,
        std::size_t ldc,
        std::vector<double> const& c0,
        std::vector<double> const& ab,
        std::uint64_t launches) -> std::size_t
    {
        std::size_t bad = 0;
        auto const times = static_cast<double>(launches);
        for(std::size_t i = 0; i < n; ++i)
            for(std::size_t j = 0; j < n; ++j)
                bad += c[i * ldc + j] != c0[i * n + j] + times * ab[i * n + j] ? 1 : 0;
        return bad;
    }

    //! The two serving templates' closed forms.
    [[nodiscard]] constexpr auto scaleOut(double in) noexcept -> double
    {
        return 2.0 * in + 1.0;
    }
    inline constexpr std::size_t graphScratchElems = 8;
    //! Graph template: scratch[k] = in * (k + 1), out = sum(scratch) + 1.
    [[nodiscard]] constexpr auto graphOut(double in) noexcept -> double
    {
        return 36.0 * in + 1.0;
    }

    //! Client-side bookkeeping of in-flight serving requests: what was
    //! sent under which id and when, so each response is checked against
    //! the client's own computation and a request that never answers
    //! counts as failed once its deadline passed. The client's window
    //! keeps it to at most 64 entries, so a linear search is enough.
    class InFlightTable
    {
    public:
        struct Entry
        {
            std::uint64_t reqId = 0; //!< 0 = unknown
            std::int64_t sentNs = 0;
            double in = 0.0;
        };

        void insert(std::uint64_t reqId, std::int64_t sentNs, double in)
        {
            entries_.push_back(Entry{reqId, sentNs, in});
        }

        //! Removes and returns the entry of \p reqId; reqId 0 when unknown
        //! (a duplicate or a response to a request already declared lost).
        auto take(std::uint64_t reqId) -> Entry
        {
            auto const it = std::find_if(
                entries_.begin(),
                entries_.end(),
                [reqId](Entry const& e) { return e.reqId == reqId; });
            if(it == entries_.end())
                return Entry{};
            auto const out = *it;
            *it = entries_.back();
            entries_.pop_back();
            return out;
        }

        //! Drops every entry sent before \p cutoffNs. \returns how many.
        auto expire(std::int64_t cutoffNs) -> std::size_t
        {
            auto const before = entries_.size();
            std::erase_if(entries_, [cutoffNs](Entry const& e) { return e.sentNs < cutoffNs; });
            return before - entries_.size();
        }

        [[nodiscard]] auto live() const noexcept -> std::size_t
        {
            return entries_.size();
        }

    private:
        std::vector<Entry> entries_;
    };

    //! Per-client verdicts over responses: a response is verified when its
    //! echoed input is the one sent under its id and its output equals the
    //! template's closed form; anything else is a wrong echo. Requests
    //! still unanswered at their deadline are missing. Wrong echoes and
    //! missing responses are both failed operations.
    struct ServeTally
    {
        std::uint64_t verified = 0;
        std::uint64_t wrongEcho = 0;
        std::uint64_t missing = 0;

        [[nodiscard]] auto failed() const noexcept -> std::uint64_t
        {
            return wrongEcho + missing;
        }
    };

    //! The accounting check after the service drained: every verified
    //! response was completed by a shard, and a shard completed at most
    //! the failed requests besides (a wrong echo, or an answer that came
    //! after its deadline, was still completed).
    [[nodiscard]] inline auto completedAccountsFor(
        std::uint64_t completed,
        std::uint64_t verified,
        std::uint64_t failed) noexcept -> bool
    {
        return verified <= completed && completed <= verified + failed;
    }

    //! Judges one response. \p known is what InFlightTable::take returned
    //! for its id; \p ok is whether the wire status was Ok and the payload
    //! had the expected size.
    inline void judgeResponse(
        ServeTally& tally,
        InFlightTable::Entry const& known,
        bool ok,
        double echoedIn,
        double echoedOut,
        bool graphTemplate)
    {
        if(known.reqId == 0)
            return; // already counted as missing
        auto const expect = graphTemplate ? graphOut(known.in) : scaleOut(known.in);
        if(ok && echoedIn == known.in && echoedOut == expect)
            ++tally.verified;
        else
            ++tally.wrongEcho;
    }
} // namespace perfbench
