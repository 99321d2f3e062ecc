#include "workloads.hh"

#include <cmath>

#include "sparse/generate.hh"
#include "util/random.hh"
#include "workloads/traffic.hh"

namespace perfbench {

namespace {

using misam::Index;
using misam::Rng;

// Per-workload seed tags, so the workloads of one seed share no content.
constexpr std::uint64_t kTenantTag = 0x7e11a7;
constexpr std::uint64_t kUniqueTag = 0x0fa1e;
constexpr std::uint64_t kReplayTag = 0x9e91a;
// Job g draws from substream g; each round's arrival clock and each
// round's tenant B operands have their own substreams, far above any
// job index.
constexpr std::uint64_t kArrivalStreamBase = std::uint64_t(1) << 41;
constexpr std::uint64_t kSharedBStreamBase = std::uint64_t(1) << 42;
// Mean logical gap between arrivals: the tenant mix uses bench_fleet's
// 1 s; unique jobs carry less modelled work, so they arrive faster.
// Both keep four boards backlogged, so queueing waits are never zero.
constexpr double kTenantMeanInterarrivalS = 1.0;

// Unique-large operand recipe: four classes, drawn per job, chosen
// against the benchmark's fixed model so the selector predicts every
// design: hypersparse A x hypersparse B (D4), and three classes of
// sparse A x dense-ish, structured-pruned B (D1, D2 and D3 between
// them). A is 1-2k on a side; a sparse B is 1-2k square-ish, a
// dense-ish B keeps 16-32 columns, so an operand stays under about 40k
// nonzeros and nothing dense is materialized.
struct UniqueClass
{
    double a_density_lo, a_density_hi;
    double b_density_lo, b_density_hi;
    double b_cols_lo, b_cols_hi;
};
constexpr UniqueClass kUniqueClasses[] = {
    {2e-4, 2e-3, 2e-4, 5e-3, 1024, 2048},
    {5e-3, 1e-2, 0.3, 0.5, 16, 32},
    {2e-4, 1e-3, 0.3, 0.5, 16, 32},
    {2e-3, 5e-3, 0.3, 0.5, 16, 32},
};
// Densities above this come from the structured-pruned (DNN weight)
// generator; below it from the scientific-matrix generators.
constexpr double kPrunedDensity = 0.1;
constexpr double kUniqueMinDim = 1024;
constexpr double kUniqueMaxDim = 2048;
// Executions each unique job stands for (solver iterations), so the
// engine sees gains large enough to weigh against bitstream loads. One
// value for every job: a spread of repetitions would make a handful of
// jobs dominate the modelled makespan and waits.
constexpr double kUniqueRepetitions = 1e7;
constexpr double kUniqueMeanInterarrivalS = 0.25;

double
logUniform(Rng &rng, double lo, double hi)
{
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

misam::CsrMatrix
uniqueOperand(Index rows, Index cols, double density, Rng &rng)
{
    if (density > kPrunedDensity)
        return misam::generateStructuredPruned(rows, cols, density, 8, rng);
    switch (rng.uniformInt(std::uint64_t(3))) {
    case 0:
        return misam::generateUniform(rows, cols, density, rng);
    case 1: {
        const auto bandwidth = std::max<Index>(
            1, static_cast<Index>(density * cols / 1.6));
        return misam::generateBanded(rows, cols, bandwidth, 0.8, rng);
    }
    default:
        return misam::generateRowImbalanced(rows, cols, density, 0.03,
                                            rng.uniform(4.0, 24.0), rng);
    }
}

/**
 * Arrivals of the window's jobs, seconds since its round began: uniform
 * gaps around `mean_s` from the round's clock substream, replayed from
 * the round's first job.
 */
std::vector<double>
windowArrivals(std::uint64_t base, std::size_t window, double mean_s)
{
    const std::size_t round = window / kRoundWindows;
    const std::size_t first = (window % kRoundWindows) * kWindowJobs;
    Rng clock(base, kArrivalStreamBase + round);
    double t = 0.0;
    std::vector<double> out;
    for (std::size_t k = 0; k < first + kWindowJobs; ++k) {
        t += clock.uniform(0.0, 2.0 * mean_s);
        if (k >= first)
            out.push_back(t);
    }
    return out;
}

std::vector<StagedJob>
tenantWindow(std::uint64_t seed, std::uint64_t tag, std::size_t window,
             const char *prefix)
{
    const std::uint64_t base = misam::deriveSeed(seed, tag);
    // A fresh traffic seed per window gives fresh A operands.
    misam::TrafficConfig traffic;
    traffic.seed = misam::deriveSeed(base, window);
    traffic.jobs = kWindowJobs;
    std::vector<misam::TrafficJob> stream = misam::generateTraffic(traffic);
    // Each tenant's shared B comes from the round's own traffic seed (the
    // first job of each tenant in a one-rotation stream), so B repeats
    // across the round's windows but never across rounds. Every job gets
    // its own copy, as generateTraffic hands out.
    misam::TrafficConfig shared = traffic;
    shared.seed = misam::deriveSeed(base, kSharedBStreamBase +
                                              window / kRoundWindows);
    shared.jobs = 0;
    for (const misam::TrafficTenant &tenant : misam::defaultTenantMix())
        shared.jobs += tenant.weight;
    std::vector<misam::CsrMatrix> tenant_b;
    for (misam::TrafficJob &entry : misam::generateTraffic(shared))
        if (entry.tenant == tenant_b.size())
            tenant_b.push_back(std::move(entry.job.b));
    const std::vector<double> arrivals =
        windowArrivals(base, window, kTenantMeanInterarrivalS);

    std::vector<StagedJob> out;
    out.reserve(stream.size());
    for (std::size_t k = 0; k < stream.size(); ++k) {
        StagedJob staged;
        staged.job = std::move(stream[k].job);
        staged.job.name = std::string(prefix) + std::to_string(window) +
                          "/" + staged.job.name;
        staged.job.b = tenant_b.at(stream[k].tenant);
        staged.arrival_s = arrivals[k];
        staged.tenant = stream[k].tenant;
        out.push_back(std::move(staged));
    }
    return out;
}

std::vector<StagedJob>
uniqueWindow(std::uint64_t seed, std::size_t window)
{
    const std::uint64_t base = misam::deriveSeed(seed, kUniqueTag);
    const std::vector<double> arrivals =
        windowArrivals(base, window, kUniqueMeanInterarrivalS);
    std::vector<StagedJob> out;
    out.reserve(kWindowJobs);
    for (std::size_t k = 0; k < kWindowJobs; ++k) {
        const std::size_t g = window * kWindowJobs + k;
        Rng rng(base, g);
        const UniqueClass &cls =
            kUniqueClasses[rng.uniformInt(std::uint64_t(4))];
        const auto m = static_cast<Index>(
            logUniform(rng, kUniqueMinDim, kUniqueMaxDim));
        const auto inner = static_cast<Index>(
            logUniform(rng, kUniqueMinDim, kUniqueMaxDim));
        const auto n =
            static_cast<Index>(logUniform(rng, cls.b_cols_lo, cls.b_cols_hi));
        StagedJob staged;
        staged.job.name = "unique/" + std::to_string(g);
        staged.job.a = uniqueOperand(
            m, inner,
            logUniform(rng, cls.a_density_lo, cls.a_density_hi), rng);
        staged.job.b = uniqueOperand(
            inner, n, logUniform(rng, cls.b_density_lo, cls.b_density_hi),
            rng);
        staged.job.repetitions = kUniqueRepetitions;
        staged.arrival_s = arrivals[k];
        out.push_back(std::move(staged));
    }
    return out;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        Workload::FleetTenants, Workload::UniqueLarge, Workload::ReplayJsonl};
    return all;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::FleetTenants:
        return "fleet-tenants";
    case Workload::UniqueLarge:
        return "unique-large";
    case Workload::ReplayJsonl:
        return "replay-jsonl";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (const Workload w : allWorkloads()) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

std::vector<StagedJob>
generateWindow(Workload workload, std::uint64_t seed, std::size_t window)
{
    switch (workload) {
    case Workload::FleetTenants:
        return tenantWindow(seed, kTenantTag, window, "tenants/w");
    case Workload::UniqueLarge:
        return uniqueWindow(seed, window);
    case Workload::ReplayJsonl:
        return tenantWindow(seed, kReplayTag, window, "replay/w");
    }
    return {};
}

} // namespace perfbench
