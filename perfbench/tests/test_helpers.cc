// Self-tests of the benchmark's own helpers: order statistics, the span
// recorder's self times, and the replay corpus round trip.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "bench_stats.hh"
#include "corpus.hh"
#include "serve/jobfile.hh"
#include "span_trace.hh"
#include "sparse/convert.hh"
#include "sparse/io.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // descending: helpers must sort
        v.push_back(double(i));
    return v;
}

TEST(NearestRank, SmallestValueCoveringThePercentile)
{
    EXPECT_EQ(nearestRank(100, 50.0), 50u);
    EXPECT_EQ(nearestRank(1000, 99.0), 990u);
    EXPECT_EQ(nearestRank(1001, 99.0), 991u);
    EXPECT_EQ(nearestRank(1, 99.0), 1u);
    EXPECT_EQ(nearestRank(10, 100.0), 10u);
    EXPECT_DOUBLE_EQ(percentile(oneTo(100), 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(oneTo(100), 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(oneTo(1000), 99.0), 990.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
    EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW(nearestRank(10, 0.0), std::invalid_argument);
}

TEST(NearestRank, PercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_TRUE(percentileSupported(1000, 99.0));
    EXPECT_FALSE(percentileSupported(999, 99.0));
    EXPECT_FALSE(percentileSupported(100, 99.0));
    EXPECT_TRUE(percentileSupported(20, 50.0));
    EXPECT_FALSE(percentileSupported(19, 50.0));
    EXPECT_FALSE(percentileSupported(0, 50.0));
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles)
{
    // Reference values from Python 3: statistics.quantiles(data, n=4).
    const auto q10 = quartiles(oneTo(10));
    EXPECT_DOUBLE_EQ(q10[0], 2.75);
    EXPECT_DOUBLE_EQ(q10[1], 5.5);
    EXPECT_DOUBLE_EQ(q10[2], 8.25);
    const auto q5 = quartiles({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(q5[0], 1.5);
    EXPECT_DOUBLE_EQ(q5[1], 3.0);
    EXPECT_DOUBLE_EQ(q5[2], 4.5);
    const auto q2 = quartiles({1.0, 2.0});
    EXPECT_DOUBLE_EQ(q2[0], 0.75);
    EXPECT_DOUBLE_EQ(q2[1], 1.5);
    EXPECT_DOUBLE_EQ(q2[2], 2.25);
    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(SpanTrace, SelfTimeSubtractsChildren)
{
    SpanTrace trace;
    const std::int32_t outer = trace.open("outer", 3);
    const std::int32_t inner = trace.open("inner", 3);
    trace.close(inner);
    // A span left open by a callback closes with its enclosing span.
    trace.open("dangling", 3);
    trace.close(outer);

    const std::vector<Span> &spans = trace.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 0);
    EXPECT_EQ(spans[2].end_ns, spans[0].end_ns);
    const auto self = trace.selfNsByName();
    const std::int64_t total = spans[0].end_ns - spans[0].start_ns;
    EXPECT_EQ(self.at("outer") + self.at("inner") + self.at("dangling"),
              total);
    EXPECT_GE(self.at("outer"), 0);
    EXPECT_THROW(trace.close(inner), std::logic_error);
}

TEST(Corpus, JsonlRoundTripsToTheGeneratedMatrices)
{
    const std::string dir =
        ::testing::TempDir() + "perfbench_corpus_roundtrip";
    std::filesystem::remove_all(dir);
    // Both tenants, with several jobs naming each shared-B file.
    const std::vector<StagedJob> window =
        generateWindow(Workload::ReplayJsonl, 11, 3);
    const std::string jsonl = writeCorpus(dir, window);

    const std::vector<misam::ServeJobSpec> specs =
        misam::parseJobFile(jsonl);
    ASSERT_EQ(specs.size(), window.size());
    for (std::size_t k = 0; k < window.size(); ++k) {
        EXPECT_EQ(specs[k].name, window[k].job.name);
        EXPECT_EQ(specs[k].repetitions, window[k].job.repetitions);
        EXPECT_GT(specFileBytes(specs[k]), 0u);
        const misam::BatchJob loaded = misam::loadServeJob(specs[k]);
        EXPECT_TRUE(loaded.a == window[k].job.a) << specs[k].name;
        EXPECT_TRUE(loaded.b == window[k].job.b) << specs[k].name;
    }
    std::filesystem::remove_all(dir);
}

TEST(Corpus, WriterKeepsEveryDigitOfTheValues)
{
    const misam::CsrMatrix m(2, 3, {0, 2, 3}, {0, 2, 1},
                             {0.1, -1.0 / 3.0, 6.02214076e23});
    std::stringstream text;
    writeMatrixMarketExact(text, m);
    EXPECT_TRUE(misam::cooToCsr(misam::readMatrixMarket(text)) == m);
}

TEST(Workloads, WindowsAreSeededAndNeverRepeatContent)
{
    for (const Workload w : allWorkloads()) {
        const auto a = generateWindow(w, 5, 1);
        const auto again = generateWindow(w, 5, 1);
        const auto next = generateWindow(w, 5, 2);
        ASSERT_EQ(a.size(), kWindowJobs);
        EXPECT_TRUE(a[0].job.a == again[0].job.a) << workloadName(w);
        EXPECT_EQ(a[7].arrival_s, again[7].arrival_s) << workloadName(w);
        // Arrivals continue across the windows of a round.
        EXPECT_LT(a.back().arrival_s, next.front().arrival_s)
            << workloadName(w);
        EXPECT_FALSE(a[0].job.a == next[0].job.a) << workloadName(w);
        EXPECT_NE(a[0].job.name, next[0].job.name) << workloadName(w);
        // B: shared by a tenant's jobs within a round (tenant mixes),
        // never across rounds.
        const auto other_round = generateWindow(w, 5, 1 + kRoundWindows);
        EXPECT_FALSE(a[0].job.b == other_round[0].job.b) << workloadName(w);
        if (w != Workload::UniqueLarge)
            EXPECT_TRUE(a[0].job.b == next[0].job.b) << workloadName(w);
        Workload parsed = Workload::FleetTenants;
        EXPECT_TRUE(parseWorkload(workloadName(w), &parsed));
        EXPECT_EQ(parsed, w);
    }
    Workload unused = Workload::FleetTenants;
    EXPECT_FALSE(parseWorkload("nope", &unused));
}

} // namespace
} // namespace perfbench
