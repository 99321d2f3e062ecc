/**
 * @file
 * The benchmark's three workloads, generated window by window from the
 * run's seed.
 *
 * A run serves its stream in windows of kWindowJobs jobs, and a round
 * of kRoundWindows windows is served by one FleetRouter. Window w is a
 * pure function of (workload, seed, w), so the benchmark stages one
 * block of windows at a time, right before timing it, and never holds
 * the whole stream; every block costs the same staging, so none starts
 * colder than another. Every window draws fresh A operands, and no operand
 * repeats across rounds, so neither SummaryCache nor the process-wide
 * simulator memos can profit from the benchmark repeating itself; the
 * only repeated content is the tenant mix's shared B, by design.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/misam.hh"

namespace perfbench {

enum class Workload {
    FleetTenants, ///< Tenant mix, shared B per tenant: cache hits.
    UniqueLarge,  ///< Unique sparse A and B per job: cache misses.
    ReplayJsonl,  ///< Tenant mix read back from a JSONL + .mtx corpus.
};

/** All workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &allWorkloads();

const char *workloadName(Workload workload);

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload *out);

/** Jobs per window: the closed loop's outstanding requests. */
constexpr std::size_t kWindowJobs = 16;

/** Windows per round; a round is served by one FleetRouter instance. */
constexpr std::size_t kRoundWindows = 16;

/** One generated job with its logical arrival (seconds into its round). */
struct StagedJob
{
    misam::BatchJob job;
    double arrival_s = 0.0;
    std::size_t tenant = 0; ///< Tenant index (tenant-mix workloads).
};

/**
 * Window `window` (counted from the start of the run) of `workload`
 * under `seed`: kWindowJobs jobs in arrival order. Tenant-mix jobs
 * share one B per tenant within a round (each job holds its own copy).
 * Arrivals are logical
 * seconds since the start of the window's round; job names are unique
 * across the run.
 */
std::vector<StagedJob> generateWindow(Workload workload, std::uint64_t seed,
                                      std::size_t window);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
