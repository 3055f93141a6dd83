/**
 * @file
 * Concurrency stress tests, written to run race-clean under
 * ThreadSanitizer (scripts/check.sh --sanitize=thread, which runs
 * exactly the "concurrency"-labeled CTest cases). They hammer the
 * three pieces of shared-state machinery every parallel run leans
 * on — the ThreadPool, the campaign ResultCache with multiple
 * in-process shards publishing into one directory, and the trace
 * store every job opens its trace through — far harder than the
 * functional tests do, so a data race introduced into any of them is
 * caught here before it corrupts a simulation.
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
#include "workloads/suites.hh"
#include "workloads/trace_store.hh"

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

// ---- TraceStore ------------------------------------------------------

constexpr int kStoreThreads = 8;

/** Hold a generation open until every other thread waits on it. */
void
awaitWaiters(const TraceStore &store)
{
    while (store.stats().reused < uint64_t(kStoreThreads - 1))
        std::this_thread::yield();
}

TEST(TsanTraceStore, ConcurrentOpensShareOneGeneration)
{
    TraceStore store(kTraceStoreBytes);
    std::atomic<int> calls{0};
    auto make = [&store, &calls] {
        calls.fetch_add(1);
        awaitWaiters(store);
        return VectorTrace(std::vector<TraceRecord>(4096));
    };
    std::vector<const TraceRecord *> seen(kStoreThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kStoreThreads; ++t)
        threads.emplace_back([&, t] {
            seen[t] = store.records("one", make)->data();
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(calls.load(), 1);
    for (const TraceRecord *p : seen)
        EXPECT_EQ(p, seen[0]);
    TraceStoreStats s = store.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.generated, 1u);
    EXPECT_EQ(s.reused, uint64_t(kStoreThreads - 1));
}

TEST(TsanTraceStore, FailedGenerationReachesEveryWaiterThenRetries)
{
    TraceStore store(kTraceStoreBytes);
    std::atomic<int> calls{0};
    auto failing = [&store, &calls]() -> VectorTrace {
        calls.fetch_add(1);
        awaitWaiters(store);
        throw std::runtime_error("generator failed");
    };
    std::atomic<int> caught{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kStoreThreads; ++t)
        threads.emplace_back([&] {
            try {
                store.records("flaky", failing);
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "generator failed")
                    caught.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(caught.load(), kStoreThreads);
    EXPECT_EQ(store.stats().entries, 0u);

    // The failure left no entry: the next open generates again.
    TraceRecords recs = store.records("flaky", [&calls] {
        calls.fetch_add(1);
        return VectorTrace(std::vector<TraceRecord>(16));
    });
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(recs->size(), 16u);
}

} // namespace
} // namespace gaze
