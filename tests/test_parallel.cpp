/**
 * @file
 * Tests for the deterministic parallel layer: parallelFor index
 * coverage under contention, nested-region fallback, per-index Rng
 * stream derivation, and thread-count invariance of the sample
 * pipelines (training samples, routing samples, design fan-out).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/router.hh"
#include "sim/design_sim.hh"
#include "sparse/generate.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/random.hh"
#include "workloads/training_data.hh"

namespace misam {
namespace {

// --------------------------------------------------------------------
// parallelFor mechanics
// --------------------------------------------------------------------

TEST(Parallel, ResolveThreadsExplicitWins)
{
    EXPECT_EQ(resolveThreads(3), 3u);
    EXPECT_EQ(resolveThreads(1), 1u);
    EXPECT_GE(resolveThreads(0), 1u);
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    // Tiny bodies + many indices maximizes counter contention; every
    // index must still run exactly once.
    constexpr std::size_t n = 20000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, RepeatedJobsStayExact)
{
    // Reusing the pool across many jobs must not leak indices between
    // generations.
    for (int round = 0; round < 20; ++round) {
        constexpr std::size_t n = 257;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(
            n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round " << round;
    }
}

TEST(Parallel, GrowingPoolAfterUseStaysExact)
{
    // Workers added on demand after the pool has run jobs (explicit
    // request above the initial size) must park until the next
    // generation bump — not run a phantom pass over stale job state.
    ThreadPool pool(1);
    for (unsigned round = 0; round < 6; ++round) {
        constexpr std::size_t n = 503;
        std::vector<std::atomic<int>> hits(n);
        pool.forEach(
            n, [&](std::size_t i) { hits[i].fetch_add(1); },
            1 + 2 * round);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "round " << round << " index " << i;
    }
}

TEST(Parallel, SingleThreadRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    parallelFor(
        16,
        [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++calls;
        },
        1);
    EXPECT_EQ(calls, 16u);
}

TEST(Parallel, ZeroAndOneElementLoops)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { calls.fetch_add(1); }, 4);
    EXPECT_EQ(calls.load(), 0);
    parallelFor(1, [&](std::size_t) { calls.fetch_add(1); }, 4);
    EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock)
{
    constexpr std::size_t outer = 6, inner = 500;
    std::vector<std::atomic<int>> hits(outer * inner);
    parallelFor(
        outer,
        [&](std::size_t o) {
            EXPECT_TRUE(inParallelRegion());
            parallelFor(
                inner,
                [&](std::size_t i) { hits[o * inner + i].fetch_add(1); },
                4);
        },
        4);
    EXPECT_FALSE(inParallelRegion());
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(PoolForkDeath, ForkedChildRunsInlineAndExitsCleanly)
{
    // Warm the global pool in this process; a death-test child is a
    // fork() of it, with the worker handles but none of the threads.
    parallelFor(64, [](std::size_t) {}, 4);
    EXPECT_EXIT(
        {
            std::atomic<int> calls{0};
            parallelFor(64, [&](std::size_t) { calls.fetch_add(1); }, 4);
            fatal("child ran ", calls.load(), " indices");
        },
        testing::ExitedWithCode(1), "child ran 64 indices");
}

// --------------------------------------------------------------------
// per-index Rng streams
// --------------------------------------------------------------------

TEST(Parallel, DerivedSeedsAreDistinctAcrossStreams)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 4096; ++i)
        seeds.push_back(deriveSeed(7, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
    EXPECT_NE(deriveSeed(7, 0), deriveSeed(8, 0));
}

TEST(Parallel, StreamConstructorMatchesDerivedSeed)
{
    Rng direct(deriveSeed(21, 5));
    Rng streamed(21, 5);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(direct.next(), streamed.next());
}

// --------------------------------------------------------------------
// thread-count invariance of the sample pipelines
// --------------------------------------------------------------------

void
expectSamplesIdentical(const std::vector<TrainingSample> &a,
                       const std::vector<TrainingSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].best_design, b[i].best_design) << "sample " << i;
        // Exact (bitwise) equality, not approximate: determinism is the
        // contract.
        EXPECT_EQ(a[i].features.toVector(), b[i].features.toVector())
            << "sample " << i;
        for (std::size_t d = 0; d < kNumDesigns; ++d) {
            EXPECT_EQ(a[i].results[d].total_cycles,
                      b[i].results[d].total_cycles);
            EXPECT_EQ(a[i].results[d].exec_seconds,
                      b[i].results[d].exec_seconds);
            EXPECT_EQ(a[i].results[d].energy_joules,
                      b[i].results[d].energy_joules);
        }
    }
}

TEST(Parallel, TrainingSamplesInvariantToThreadCount)
{
    TrainingDataConfig cfg;
    cfg.num_samples = 24;
    cfg.seed = 77;
    cfg.max_dim = 256;

    cfg.threads = 1;
    const auto serial = generateTrainingSamples(cfg);
    cfg.threads = 4;
    const auto four = generateTrainingSamples(cfg);
    cfg.threads = 0; // MISAM_THREADS / hardware default.
    const auto dflt = generateTrainingSamples(cfg);

    expectSamplesIdentical(serial, four);
    expectSamplesIdentical(serial, dflt);
}

TEST(Parallel, GenerationIsOrderIndependentPerIndex)
{
    // Sample i depends only on (cfg, i) — the property that makes the
    // fan-out legal in the first place.
    TrainingDataConfig cfg;
    cfg.num_samples = 12;
    cfg.seed = 31;
    cfg.max_dim = 256;
    cfg.threads = 2;
    const auto all = generateTrainingSamples(cfg);
    for (std::size_t i : {std::size_t{0}, std::size_t{5},
                          std::size_t{11}}) {
        const TrainingSample lone = generateTrainingSample(cfg, i);
        EXPECT_EQ(lone.best_design, all[i].best_design);
        EXPECT_EQ(lone.features.toVector(), all[i].features.toVector());
    }
}

TEST(Parallel, RoutingSamplesInvariantToThreadCount)
{
    TrainingDataConfig cfg;
    cfg.num_samples = 10;
    cfg.seed = 19;
    cfg.max_dim = 256;

    cfg.threads = 1;
    const auto serial = generateRoutingSamples(cfg);
    cfg.threads = 4;
    const auto four = generateRoutingSamples(cfg);
    ASSERT_EQ(serial.size(), four.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].features.toVector(),
                  four[i].features.toVector());
        for (std::size_t d = 0; d < kNumDevices; ++d) {
            EXPECT_EQ(serial[i].evaluation.outcomes[d].exec_seconds,
                      four[i].evaluation.outcomes[d].exec_seconds);
            EXPECT_EQ(serial[i].evaluation.outcomes[d].energy_joules,
                      four[i].evaluation.outcomes[d].energy_joules);
        }
    }
}

TEST(Parallel, SimulateAllDesignsFanOutMatchesSerial)
{
    Rng rng(5);
    const CsrMatrix a = generateUniform(512, 512, 0.02, rng);
    const CsrMatrix b = generateDenseCsr(512, 128, rng);
    const auto serial = simulateAllDesigns(a, b, 1);
    const auto fanned = simulateAllDesigns(a, b, 4);
    for (std::size_t d = 0; d < kNumDesigns; ++d) {
        EXPECT_EQ(serial[d].total_cycles, fanned[d].total_cycles);
        EXPECT_EQ(serial[d].exec_seconds, fanned[d].exec_seconds);
    }
}

} // namespace
} // namespace misam
