/**
 * @file
 * Concurrency stress tests, written to run race-clean under
 * ThreadSanitizer (scripts/check.sh --sanitize=thread, which runs
 * exactly the "concurrency"-labeled CTest cases). They hammer the
 * three pieces of shared-state machinery every parallel run leans
 * on — the ThreadPool, the promise/shared_future BaselineCache, and
 * the campaign ResultCache with multiple in-process shards
 * publishing into one directory — far harder than the functional
 * tests do, so a data race introduced into any of them is caught
 * here before it corrupts a simulation.
 *
 * The tests also run in plain builds (tier1): the assertions hold
 * everywhere, TSan just adds the race verdict.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "driver/thread_pool.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ---- ThreadPool ------------------------------------------------------

TEST(TsanThreadPool, ManyProducersManyRounds)
{
    ThreadPool pool(4);
    std::atomic<uint64_t> ran{0};

    // Several rounds of concurrent submitters: submit() racing
    // submit() and racing the workers draining the queue is exactly
    // the surface a lost notify or unlocked queue touch would break.
    for (int round = 0; round < 8; ++round) {
        std::vector<std::thread> producers;
        producers.reserve(4);
        for (int p = 0; p < 4; ++p) {
            producers.emplace_back([&pool, &ran] {
                for (int j = 0; j < 64; ++j)
                    pool.submit([&ran] {
                        ran.fetch_add(1, std::memory_order_relaxed);
                    });
            });
        }
        for (auto &t : producers)
            t.join();
        pool.wait();
    }
    EXPECT_EQ(ran.load(), 8u * 4u * 64u);
}

TEST(TsanThreadPool, ExceptionUnderLoadReachesWait)
{
    ThreadPool pool(4);
    std::atomic<uint64_t> ran{0};
    for (int j = 0; j < 128; ++j) {
        pool.submit([&ran, j] {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (j % 37 == 5)
                throw std::runtime_error("stress failure");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 128u);
    // The pool must stay usable after a rethrow.
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait();
    EXPECT_EQ(ran.load(), 129u);
}

// ---- BaselineCache ---------------------------------------------------

TEST(TsanBaselineCache, EachKeyComputedOnceAllWaitersAgree)
{
    BaselineCache cache;
    constexpr int kKeys = 6;
    constexpr int kThreads = 8;
    std::atomic<uint32_t> computes[kKeys] = {};

    auto worker = [&](int tid) {
        // Every thread touches every key, in a thread-specific
        // order, so first-requester ownership and waiter handoff
        // both happen many times.
        for (int i = 0; i < kKeys; ++i) {
            int k = (i + tid) % kKeys;
            const RunResult &r = cache.getOrCompute(
                "key" + std::to_string(k), [&, k] {
                    computes[k].fetch_add(1);
                    RunResult result;
                    result.instructionsRetired = 1000u + uint64_t(k);
                    return result;
                });
            EXPECT_EQ(r.instructionsRetired, 1000u + uint64_t(k));
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();

    for (int k = 0; k < kKeys; ++k)
        EXPECT_EQ(computes[k].load(), 1u) << "key" << k;
    EXPECT_EQ(cache.size(), size_t(kKeys));
}

TEST(TsanBaselineCache, ComputeFailurePropagatesToEveryWaiter)
{
    BaselineCache cache;
    std::atomic<uint32_t> threw{0};
    auto worker = [&] {
        try {
            cache.getOrCompute("poison", []() -> RunResult {
                throw std::runtime_error("baseline failed");
            });
        } catch (const std::runtime_error &) {
            threw.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(6);
    for (int t = 0; t < 6; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(threw.load(), 6u);
}

TEST(TsanBaselineCache, LruEvictionNeverCorruptsResults)
{
    // Capacity 2, 6 keys, 8 threads: evictions churn constantly.
    // Recomputing an evicted key is fine — compute-once holds per
    // residency, not per eternity — but a torn or cross-key result
    // never is, and in-flight entries must never be evicted out from
    // under their waiters.
    BaselineCache cache(2);
    constexpr int kKeys = 6;
    constexpr int kThreads = 8;
    auto worker = [&](int tid) {
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < kKeys; ++i) {
                int k = (i + tid) % kKeys;
                const RunResult &r = cache.getOrCompute(
                    "key" + std::to_string(k), [k] {
                        RunResult result;
                        result.instructionsRetired =
                            1000u + uint64_t(k);
                        return result;
                    });
                EXPECT_EQ(r.instructionsRetired, 1000u + uint64_t(k));
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();
    EXPECT_LE(cache.size(), 2u);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.capacity(), 2u);
}

TEST(TsanBaselineCache, LruEvictsLeastRecentlyUsedDeterministically)
{
    BaselineCache cache(2);
    int builds[3] = {0, 0, 0};
    auto make = [&](int k) {
        return cache
            .getOrCompute("key" + std::to_string(k),
                          [&builds, k] {
                              ++builds[k];
                              RunResult result;
                              result.instructionsRetired = uint64_t(k);
                              return result;
                          })
            .instructionsRetired;
    };
    EXPECT_EQ(make(0), 0u);
    EXPECT_EQ(make(1), 1u);
    EXPECT_EQ(make(0), 0u); // touch: key0 becomes most-recent
    EXPECT_EQ(make(2), 2u); // capacity 2: evicts key1, not key0
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(make(0), 0u);
    EXPECT_EQ(builds[0], 1); // survived as the recently-used entry
    EXPECT_EQ(make(1), 1u);
    EXPECT_EQ(builds[1], 2); // evicted, so this ask recomputed
}

TEST(TsanBaselineCache, FailurePropagationSurvivesEviction)
{
    BaselineCache cache(1);
    std::atomic<uint32_t> poisonComputes{0};
    auto poison = [&]() -> RunResult {
        poisonComputes.fetch_add(1);
        throw std::runtime_error("baseline failed");
    };
    // The memoized exception replays without recomputing...
    EXPECT_THROW(cache.getOrCompute("poison", poison),
                 std::runtime_error);
    EXPECT_THROW(cache.getOrCompute("poison", poison),
                 std::runtime_error);
    EXPECT_EQ(poisonComputes.load(), 1u);
    // ...ages out like any result (failed computes are evictable)...
    const RunResult &good = cache.getOrCompute("good", [] {
        RunResult result;
        result.instructionsRetired = 7;
        return result;
    });
    EXPECT_EQ(good.instructionsRetired, 7u);
    EXPECT_GE(cache.evictions(), 1u);
    // ...after which the key recomputes fresh instead of answering
    // from a ghost of the evicted failure.
    EXPECT_THROW(cache.getOrCompute("poison", poison),
                 std::runtime_error);
    EXPECT_EQ(poisonComputes.load(), 2u);
    EXPECT_LE(cache.size(), 1u);
}

// ---- campaign shards sharing one cache directory ---------------------

Campaign
stressCampaign()
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(
        R"({"name":"tsan","prefetchers":["ip_stride"],)"
        R"("workloads":["leslie3d","mcf"],)"
        R"("warmup":500,"sim":2000})",
        &doc, &error))
        << error;
    return expandCampaign(parseCampaignSpec(doc));
}

TEST(TsanCampaignShards, TwoInProcessShardsOneCacheDir)
{
    Campaign campaign = stressCampaign();

    // Reference: unsharded, single-threaded-pool run.
    ResultCache whole(freshDir("tsan_whole"));
    CampaignRunOptions base;
    base.threads = 2;
    base.verbose = false;
    runCampaign(campaign, &whole, base);
    CampaignReport expected = buildReport(campaign, whole, nullptr);

    // Two shards of the same campaign, each on its own pool, racing
    // into ONE cache directory from one process: store() tempfile
    // naming, atomic rename publication and lookup-vs-publish are
    // all exercised concurrently.
    ResultCache shared(freshDir("tsan_sharded"));
    CampaignRunStats stats[2];
    std::vector<std::thread> shards;
    shards.reserve(2);
    for (uint32_t s = 0; s < 2; ++s) {
        shards.emplace_back([&campaign, &shared, &stats, s] {
            CampaignRunOptions opt;
            opt.shardIndex = s;
            opt.shardCount = 2;
            opt.threads = 2;
            opt.verbose = false;
            stats[s] = runCampaign(campaign, &shared, opt);
        });
    }
    for (auto &t : shards)
        t.join();

    EXPECT_EQ(stats[0].executed + stats[1].executed, 4u);
    CampaignReport merged = buildReport(campaign, shared, nullptr);
    EXPECT_EQ(merged.json, expected.json);
    EXPECT_EQ(merged.csv, expected.csv);
}

TEST(TsanCampaignShards, DuplicateFullRunsRaceOnEveryCell)
{
    Campaign campaign = stressCampaign();

    // Harsher than disjoint shards: two full unsharded runs race on
    // *every* cell, so the same hash is written twice concurrently
    // (last rename wins whole) and cache hits race live publishes.
    ResultCache shared(freshDir("tsan_duplicate"));
    std::vector<std::thread> runs;
    runs.reserve(2);
    for (int i = 0; i < 2; ++i) {
        runs.emplace_back([&campaign, &shared] {
            CampaignRunOptions opt;
            opt.threads = 2;
            opt.verbose = false;
            runCampaign(campaign, &shared, opt);
        });
    }
    for (auto &t : runs)
        t.join();

    CampaignReport merged = buildReport(campaign, shared, nullptr);
    CampaignCacheStatus status = campaignStatus(campaign, shared);
    EXPECT_EQ(status.cached, 4u);
    EXPECT_EQ(status.missing, 0u);
    EXPECT_FALSE(merged.json.empty());
}

} // namespace
} // namespace gaze
