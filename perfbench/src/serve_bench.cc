/**
 * @file
 * End-to-end serving benchmark driver.
 *
 *   serve_bench --workload <fleet-tenants|unique-large|replay-jsonl>
 *               --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *
 * One client drives a 4-board FleetRouter (affinity routing, gather,
 * window 16, one extraction thread) in a closed loop with 16 jobs
 * outstanding: per window it starts a timer, submits the window's 16
 * jobs, calls drain(), and stops the timer. Inputs come from
 * generateWindow(), staged untimed a block of kBlockWindows windows at a
 * time, whose windows are then served back to back; each round of
 * kRoundWindows windows is served by its own FleetRouter. The process
 * runs pinned to one CPU (see pinToOneCpu); only input staging uses the
 * others.
 *
 * --trace 0 serves rounds for --seconds of wall time (and at least the
 * workload's pinned rounds), then prints the end-to-end metrics.
 * --trace 1 serves the pinned rounds twice, once through the FleetRouter
 * and once by composing the router's stages from the library's public
 * calls with a span around each, and prints the per-layer metrics.
 *
 * Correctness gate (both modes): every job's prediction, decision and
 * SimResult must be bit-identical to a serial MisamFramework::
 * executeBatch reference over the same jobs, and every router must
 * settle admitted == completed + rejected; mismatches and rejections
 * count as failed jobs. Determinism gate: the deterministic metrics and
 * per-layer counters must match between the traced and untraced passes
 * and across runs of the same seed (recorded under --work-dir); a
 * mismatch exits non-zero without printing a result.
 *
 * Sim metrics (sim_makespan_s, sim_wait_p99_s) are modelled FPGA
 * seconds from the cycle model, which is not validated against
 * hardware.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include "bench_stats.hh"
#include "core/misam.hh"
#include "core/persistence.hh"
#include "corpus.hh"
#include "identity.hh"
#include "serve/fleet.hh"
#include "serve/jobfile.hh"
#include "serve/lookahead.hh"
#include "serve/summary_cache.hh"
#include "sim/workspace.hh"
#include "span_trace.hh"
#include "sparse/convert.hh"
#include "sparse/fingerprint.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "workloads.hh"
#include "workloads/training_data.hh"

namespace {

using namespace misam;
using perfbench::JobOutcome;
using perfbench::kRoundWindows;
using perfbench::SpanScope;
using perfbench::SpanTrace;
using perfbench::StagedJob;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Served system: four boards, affinity routing, gathered windows of 16,
// one extraction thread (multi-thread extraction pools made wall time
// swing several-fold between identical runs).
constexpr std::size_t kBoards = 4;
constexpr std::size_t kWindow = perfbench::kWindowJobs;
constexpr std::size_t kRoundJobs = kRoundWindows * kWindow;
// Rounds every run serves in full: the deterministic metrics, the
// per-layer counters and the traced run all cover exactly these jobs.
// A nearest-rank p99 needs 1000 for 10 samples beyond it; the modelled
// makespan, waits and load counts need more to settle from seed to
// seed: unique-large's vary with content, so it pins 16384 jobs (their
// 10-seed spread was 0.04-0.06 over 4096), while replay-jsonl's (the
// tenant mix's) do not, and its parsing makes every job cost
// milliseconds, so it pins 2048; fleet-tenants pins 4096.
std::size_t
pinnedRounds(Workload workload)
{
    switch (workload) {
    case Workload::UniqueLarge:
        return 64;
    case Workload::ReplayJsonl:
        return 8;
    case Workload::FleetTenants:
        break;
    }
    return 16;
}
// Inputs are staged this many windows at a time, one thread per window,
// and the block's windows are then served back to back. Throughput is
// the median over blocks, so a burst of host interference moves it
// less than a mean.
constexpr std::size_t kBlockWindows = 4;
constexpr std::size_t kBlockJobs = kBlockWindows * kWindow;
static_assert(kRoundWindows % kBlockWindows == 0);
// Set-up: a fixed training set (the served model is the same for every
// workload and seed; only the traffic comes from --seed), built on one
// thread, repeated so setup_s is a median. 200 samples of at most 768
// rows, a third of them DNN-like, train in about 3 s. With this seed
// the selector tells the two tenants apart and the engine follows it
// (the tenant mix thrashes between D1 and D4), and on unique-large it
// predicts and chooses all four designs; most other training seeds of
// this size leave the engine parked on D4.
constexpr std::size_t kTrainingSamples = 200;
constexpr Index kTrainingMaxDim = 768;
constexpr double kTrainingMlFraction = 0.35;
constexpr std::uint64_t kTrainingSeed = 61;
constexpr std::size_t kSetupRepeats = 3;

struct Options
{
    Workload workload = Workload::FleetTenants;
    std::uint64_t seed = 1;
    double seconds = 40.0;
    bool trace = false;
    std::string work_dir = ".bench_build/run";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "serve_bench: %s\nusage: serve_bench --workload "
                 "<fleet-tenants|unique-large|replay-jsonl> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!perfbench::parseWorkload(value, &opt.workload))
                usage("unknown workload '" + value + "'");
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad seed '" + value + "'");
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
                usage("bad seconds '" + value + "'");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--work-dir") {
            opt.work_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The CPUs the process was allowed to run on when it started. */
cpu_set_t g_start_cpus;

/**
 * Pin the calling thread, and every thread it starts afterwards, to the
 * highest-numbered CPU the process may use. On a shared 4-vCPU host,
 * serving threads spread over vCPUs slowed each other erratically:
 * replay-jsonl's CPU time per job ranged 1.9x over five seeds, and
 * 1.1x with the process pinned to one CPU. The benchmark measures the
 * library's single-core cost, not the host's placement of its threads.
 */
void
pinToOneCpu()
{
    if (sched_getaffinity(0, sizeof(g_start_cpus), &g_start_cpus) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &g_start_cpus))
            cpu = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

/** Let the calling thread run on every CPU the process started with. */
void
unpinThread()
{
    if (sched_setaffinity(0, sizeof(g_start_cpus), &g_start_cpus) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

/** CPU time of every thread of this process so far, in seconds. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

FleetConfig
fleetConfig()
{
    FleetConfig config;
    config.boards = kBoards;
    config.route = RoutePolicy::Affinity;
    config.window = kWindow;
    config.gather = true;
    config.threads = 1;
    return config;
}

TrainingDataConfig
trainingConfig()
{
    TrainingDataConfig config;
    config.num_samples = kTrainingSamples;
    config.seed = kTrainingSeed;
    config.max_dim = kTrainingMaxDim;
    config.ml_fraction = kTrainingMlFraction;
    config.threads = 1;
    return config;
}

/** Median over the timed blocks of jobs per second. */
double
blockThroughput(const std::vector<double> &block_s)
{
    std::vector<double> rates;
    rates.reserve(block_s.size());
    for (const double s : block_s)
        rates.push_back(double(kBlockJobs) / s);
    return perfbench::median(rates);
}

/** Median over the timed blocks of process CPU microseconds per job. */
double
blockCpuUsPerJob(const std::vector<double> &block_cpu_s)
{
    std::vector<double> per_job;
    per_job.reserve(block_cpu_s.size());
    for (const double s : block_cpu_s)
        per_job.push_back(1e6 * s / double(kBlockJobs));
    return perfbench::median(per_job);
}

/** Drop the process-wide simulator memos, so every pass starts cold. */
void
clearSimMemos()
{
    clearSymbolicCache();
    clearCscCache();
    clearNumericCache();
    clearHistogramCache();
}

MisamFramework
loadModel(const std::string &model)
{
    std::istringstream in(model);
    return loadFramework(in);
}

// ---------------------------------------------------------------- set-up

struct SetupRun
{
    std::string model; ///< saveFramework bytes.
    double accuracy = 0.0;
    double seconds = 0.0;
};

/** From nothing to a started FleetRouter, untraced. */
SetupRun
runSetup()
{
    clearSimMemos();
    SetupRun out;
    const Clock::time_point t0 = Clock::now();
    const std::vector<TrainingSample> samples =
        generateTrainingSamples(trainingConfig());
    MisamFramework framework;
    out.accuracy = framework.train(samples).selector_accuracy;
    std::ostringstream saved;
    saveFramework(saved, framework);
    out.model = saved.str();
    MisamFramework loaded = loadModel(out.model);
    {
        FleetRouter router(loaded, fleetConfig());
        out.seconds = secondsBetween(t0, Clock::now());
    }
    return out;
}

bool
sameSample(const TrainingSample &a, const TrainingSample &b)
{
    if (a.best_design != b.best_design)
        return false;
    for (std::size_t f = 0; f < a.features.values.size(); ++f)
        if (!perfbench::sameBits(a.features.values[f], b.features.values[f]))
            return false;
    for (std::size_t d = 0; d < kNumDesigns; ++d)
        if (!perfbench::sameSim(a.results[d], b.results[d]))
            return false;
    return true;
}

/**
 * The same set-up composed from the calls generateTrainingSamples makes
 * per sample, each in a span. Returns the number of samples that differ
 * from `reference` (the untraced set-up's samples) plus one if the
 * model bytes differ from `reference_model`.
 */
std::size_t
runTracedSetup(SpanTrace &trace,
               const std::vector<TrainingSample> &reference,
               const std::string &reference_model)
{
    clearSimMemos();
    const TrainingDataConfig cfg = trainingConfig();
    std::vector<TrainingSample> samples(cfg.num_samples);
    for (std::size_t i = 0; i < cfg.num_samples; ++i) {
        Rng rng(cfg.seed, i);
        for (;;) {
            std::pair<CsrMatrix, CsrMatrix> pair;
            {
                SpanScope span(trace, "setup.generate");
                pair = generateWorkloadPair(cfg, rng);
            }
            if (pair.first.nnz() == 0 || pair.second.nnz() == 0)
                continue;
            TrainingSample &sample = samples[i];
            {
                SpanScope span(trace, "setup.features");
                sample.features = extractFeatures(pair.first, pair.second);
            }
            {
                SpanScope span(trace, "setup.simulate_all");
                const CscMatrix a_csc = csrToCsc(pair.first);
                sample.results =
                    simulateAllDesigns(pair.first, a_csc, pair.second);
                sample.best_design =
                    static_cast<int>(fastestDesign(sample.results));
            }
            break;
        }
    }
    MisamFramework framework;
    {
        SpanScope span(trace, "setup.fit");
        framework.train(samples);
    }
    std::string model;
    {
        SpanScope span(trace, "setup.persist");
        std::ostringstream saved;
        saveFramework(saved, framework);
        model = saved.str();
        MisamFramework loaded = loadModel(model);
        (void)loaded;
    }
    std::size_t mismatches = model == reference_model ? 0 : 1;
    for (std::size_t i = 0; i < samples.size(); ++i)
        if (!sameSample(samples[i], reference[i]))
            ++mismatches;
    return mismatches;
}

// ---------------------------------------------------------------- inputs

/** One window's staged inputs. */
struct WindowInputs
{
    std::vector<StagedJob> jobs;           ///< Generated jobs.
    std::vector<ServeJobSpec> specs;       ///< replay-jsonl: parsed lines.
    std::vector<std::uint64_t> spec_bytes; ///< replay-jsonl: file bytes.
    std::string corpus_dir;

    WindowInputs() = default;
    WindowInputs(const WindowInputs &) = delete;
    WindowInputs &operator=(const WindowInputs &) = delete;
    ~WindowInputs()
    {
        std::error_code ignored; // A leftover file only costs disk.
        if (!corpus_dir.empty())
            std::filesystem::remove_all(corpus_dir, ignored);
    }
};

/**
 * Generate window `window`; for replay-jsonl also write its corpus and
 * parse the JSONL. All of it happens before its block's timer starts;
 * the corpus files go when the inputs do.
 */
void
stageWindow(const Options &opt, std::size_t window, WindowInputs &in)
{
    in.jobs = perfbench::generateWindow(opt.workload, opt.seed, window);
    if (opt.workload != Workload::ReplayJsonl)
        return;
    in.corpus_dir = opt.work_dir + "/corpus/" +
                    perfbench::workloadName(opt.workload) + "-" +
                    std::to_string(opt.seed) + "-w" + std::to_string(window);
    std::filesystem::remove_all(in.corpus_dir);
    in.specs = parseJobFile(perfbench::writeCorpus(in.corpus_dir, in.jobs));
    if (in.specs.size() != in.jobs.size())
        throw std::runtime_error("replay corpus lost job lines");
    for (const ServeJobSpec &spec : in.specs)
        in.spec_bytes.push_back(perfbench::specFileBytes(spec));
}

/**
 * Stage windows first_window.. of one block, one thread per window and
 * on every CPU, so input generation (several times the served work on
 * unique-large) takes less of a run's wall time. Every window is a pure
 * function of its index, so the inputs do not depend on the threads.
 * All threads are joined before the block's timer starts.
 */
void
stageBlock(const Options &opt, std::size_t first_window,
           std::array<WindowInputs, kBlockWindows> &in)
{
    std::array<std::exception_ptr, kBlockWindows> errors;
    {
        // jthreads join on every path out of this scope, a failed spawn
        // included.
        std::vector<std::jthread> threads;
        threads.reserve(kBlockWindows);
        for (std::size_t w = 0; w < kBlockWindows; ++w)
            threads.emplace_back([&, w] {
                try {
                    unpinThread();
                    stageWindow(opt, first_window + w, in[w]);
                } catch (...) {
                    errors[w] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

// ---------------------------------------------------------------- passes

/** Counts the traced and untraced passes must agree on exactly. */
struct PassCounts
{
    std::size_t jobs = 0;
    std::uint64_t summary_hits = 0;
    std::uint64_t summary_misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::size_t affine = 0;
    std::size_t reordered = 0;
    std::size_t paid_loads = 0;
    std::size_t paid_switches = 0;

    bool operator==(const PassCounts &) const = default;
};

/** Deterministic end-to-end metrics over the pinned rounds. */
struct PinnedMetrics
{
    double makespan_s = 0.0;  ///< Mean FleetRouter makespan per round.
    double wait_p99_s = 0.0;  ///< p99 logical wait over the placements.
    double paid_loads_per_1k = 0.0;
};

struct PassResult
{
    std::vector<JobOutcome> outcomes; ///< Admission order, all rounds.
    std::vector<double> latency_s;    ///< Per job, untraced only.
    std::vector<double> block_s;      ///< Wall time of each block.
    double timed_s = 0.0;             ///< Summed timed wall time.
    double staging_s = 0.0;           ///< Untimed: generating inputs.
    double checking_s = 0.0;          ///< Untimed: the reference run.
    std::vector<double> block_cpu_s;  ///< Process CPU time of each block.
    std::size_t windows = 0;
    std::size_t rounds = 0;
    std::size_t failed = 0;           ///< Rejections + ingest mismatches.
    PassCounts pinned;                ///< Over the pinned rounds.
    PinnedMetrics metrics;
    std::vector<double> round_makespans; ///< Pinned rounds.
    std::vector<double> pinned_waits;
};

std::uint64_t
memoHits(const SimKernelCounters &c)
{
    return c.symbolic_hits + c.csc_hits + c.numeric_hits + c.hist_hits;
}

std::uint64_t
memoMisses(const SimKernelCounters &c)
{
    return c.symbolic_misses + c.csc_misses + c.numeric_misses +
           c.hist_misses;
}

void
finishPinned(PassResult &pass)
{
    double sum = 0.0;
    for (const double m : pass.round_makespans)
        sum += m;
    pass.metrics.makespan_s = sum / double(pass.round_makespans.size());
    pass.metrics.wait_p99_s = waitPercentileSeconds(pass.pinned_waits, 99.0);
    pass.metrics.paid_loads_per_1k =
        1000.0 * double(pass.pinned.paid_loads) / double(pass.pinned.jobs);
}

/**
 * Serve rounds through FleetRouter in the closed loop. Stops after the
 * pinned rounds when `until_s` is 0, else once the pass has run for
 * `until_s` seconds of wall time, staging and checks included (never
 * before the pinned rounds). The timed blocks are spread over that
 * whole span, so a run samples the host for as long on every workload.
 *
 * After each block, untimed, the same jobs run through a serial
 * MisamFramework::executeBatch reference (a second framework loaded from
 * the same model, so its decision chain advances exactly as the served
 * one does); a job whose prediction, decision or SimResult differs
 * counts as failed. The reference's own simulator-memo traffic is kept
 * out of the pass's memo counters.
 */
PassResult
serveUntraced(const Options &opt, const std::string &model, double until_s)
{
    MisamFramework framework = loadModel(model);
    MisamFramework reference = loadModel(model);
    SummaryCache cache;
    framework.setSummaryCache(&cache);
    clearSimMemos();
    const bool replay = opt.workload == Workload::ReplayJsonl;
    const std::size_t pinned = pinnedRounds(opt.workload);
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;

    PassResult pass;
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0;; ++round) {
        if (round >= pinned &&
            (until_s <= 0.0 ||
             secondsBetween(start, Clock::now()) >= until_s))
            break;
        FleetRouter router(framework, fleetConfig());
        std::vector<ExecutionReport> expected;
        expected.reserve(kRoundJobs);
        std::vector<Clock::time_point> submitted(kWindow);
        for (std::size_t blk = 0; blk < kRoundWindows / kBlockWindows;
             ++blk) {
            const Clock::time_point s0 = Clock::now();
            std::array<WindowInputs, kBlockWindows> in;
            stageBlock(opt, round * kRoundWindows + blk * kBlockWindows, in);
            // The reference's copies; replay serves loaded matrices, so
            // it can hand the reference the generated ones themselves.
            std::vector<BatchJob> reference_jobs;
            reference_jobs.reserve(kBlockJobs);
            for (WindowInputs &win : in)
                for (StagedJob &staged : win.jobs)
                    reference_jobs.push_back(replay ? std::move(staged.job)
                                                    : staged.job);

            const SimKernelCounters memo0 = simKernelCounters();
            const double cpu0 = processCpuSeconds();
            const Clock::time_point t0 = Clock::now();
            pass.staging_s += secondsBetween(s0, t0);
            Clock::time_point t1 = t0;
            for (std::size_t w = 0; w < kBlockWindows; ++w) {
                const Clock::time_point w0 = Clock::now();
                for (std::size_t i = 0; i < kWindow; ++i) {
                    submitted[i] = Clock::now();
                    BatchJob job = replay ? loadServeJob(in[w].specs[i])
                                          : std::move(in[w].jobs[i].job);
                    router.submit(std::move(job), in[w].jobs[i].arrival_s);
                }
                router.drain();
                t1 = Clock::now();
                for (std::size_t i = 0; i < kWindow; ++i)
                    pass.latency_s.push_back(
                        secondsBetween(submitted[i], t1));
                pass.timed_s += secondsBetween(w0, t1);
            }
            pass.block_cpu_s.push_back(processCpuSeconds() - cpu0);
            pass.block_s.push_back(secondsBetween(t0, t1));
            pass.windows += kBlockWindows;
            const SimKernelCounters memo1 = simKernelCounters();
            if (round < pinned) {
                memo_hits += memoHits(memo1) - memoHits(memo0);
                memo_misses += memoMisses(memo1) - memoMisses(memo0);
            }

            BatchReport batch = reference.executeBatch(reference_jobs, 1);
            for (ExecutionReport &rep : batch.jobs)
                expected.push_back(std::move(rep));
            pass.checking_s += secondsBetween(t1, Clock::now());
        }

        const BatchReport report = router.report();
        const std::vector<FleetRouter::Placement> places =
            router.placements();
        const std::size_t rejected = router.rejected().size();
        pass.failed += rejected;
        if (router.admitted() != router.completed() + rejected ||
            router.admitted() != kRoundJobs) {
            std::fprintf(stderr,
                         "round %zu: admitted %zu != completed %zu + "
                         "rejected %zu\n",
                         round, router.admitted(), router.completed(),
                         rejected);
            pass.failed +=
                kRoundJobs - std::min(kRoundJobs, router.completed());
        }
        for (std::size_t k = 0; k < report.jobs.size(); ++k) {
            JobOutcome outcome;
            outcome.predicted = report.jobs[k].predicted;
            outcome.decision = report.jobs[k].decision;
            outcome.sim = report.jobs[k].sim;
            outcome.place = places[k];
            if (!perfbench::sameResult(outcome, expected[k])) {
                std::fprintf(stderr, "reference mismatch on %s\n",
                             report.jobs[k].name.c_str());
                ++pass.failed;
            }
            pass.outcomes.push_back(outcome);
        }
        if (round < pinned) {
            pass.pinned.jobs += report.jobs.size();
            pass.pinned.paid_switches +=
                std::size_t(report.reconfigurations);
            for (const FleetRouter::Placement &place : places) {
                pass.pinned.affine += place.affine ? 1 : 0;
                pass.pinned_waits.push_back(place.wait_s);
            }
            for (const FleetRouter::BoardTotals &board :
                 router.boardTotals()) {
                pass.pinned.paid_loads += std::size_t(board.paid_loads);
                pass.pinned.reordered += board.stats.reordered_jobs;
            }
            pass.round_makespans.push_back(router.makespanSeconds());
        }
        if (round + 1 == pinned) {
            pass.pinned.summary_hits = cache.summaryHits();
            pass.pinned.summary_misses = cache.summaryMisses();
            pass.pinned.evictions = cache.evictions();
            pass.pinned.memo_hits = memo_hits;
            pass.pinned.memo_misses = memo_misses;
        }
        pass.rounds = round + 1;
    }
    finishPinned(pass);
    return pass;
}

/** Per-layer inputs the traced pass measures besides its spans. */
struct TracedExtras
{
    std::uint64_t ingest_bytes = 0;
    std::uint64_t fingerprint_bytes = 0;
    double modeled_cycles = 0.0;
    std::size_t plan_mismatches = 0; ///< Replayed lookahead != router's.
};

bool
sameWindowPlan(const WindowPlan &a, const WindowPlan &b)
{
    if (a.groups.size() != b.groups.size() || a.order != b.order ||
        a.reordered_jobs != b.reordered_jobs ||
        a.planned_reconfigs != b.planned_reconfigs ||
        a.paid_loads != b.paid_loads ||
        !perfbench::sameBits(a.paid_reconfig_s, b.paid_reconfig_s) ||
        a.resident_after != b.resident_after)
        return false;
    for (std::size_t g = 0; g < a.groups.size(); ++g)
        if (a.groups[g].design != b.groups[g].design ||
            a.groups[g].jobs != b.groups[g].jobs ||
            a.groups[g].loads_bitstream != b.groups[g].loads_bitstream ||
            !perfbench::sameBits(a.groups[g].load_seconds,
                                 b.groups[g].load_seconds))
            return false;
    return true;
}

/**
 * The pinned rounds again, composed from the router's stages with a
 * span around every library call: ingest, fingerprint, cache lookup,
 * feature summary, selector, engine, fleet routing, lookahead, and
 * simulation. Reproduces FleetRouter's per-job results and placements
 * (the caller checks).
 */
PassResult
serveTraced(const Options &opt, const std::string &model, SpanTrace &trace,
            TracedExtras &extras)
{
    MisamFramework framework = loadModel(model);
    std::uint32_t current_job = perfbench::kNoJob;
    SummaryCacheConfig cache_config;
    // The cache computes a summary on a miss inside summary(); the hook
    // marks where that computation starts, and the span it opens ends
    // when the enclosing lookup span closes.
    cache_config.summary_compute_hook = [&trace, &current_job] {
        trace.open("features.summarize", current_job);
    };
    SummaryCache cache(cache_config);
    clearSimMemos();
    MetricsRegistry sim_registry;
    ScopedSimKernelMetrics sim_metrics(&sim_registry);
    const FleetConfig config = fleetConfig();
    const ReconfigTimeModel &time_model =
        framework.engine().config().time_model;
    const bool replay = opt.workload == Workload::ReplayJsonl;

    PassResult pass;
    for (std::size_t round = 0; round < pinnedRounds(opt.workload); ++round) {
        // A fresh FleetRouter starts every board on the engine's current
        // design with an empty logical clock.
        std::vector<BoardState> boards(
            kBoards, BoardState{framework.engine().currentDesign(), 0.0});
        std::vector<double> board_clock(kBoards, 0.0);

        for (std::size_t w = 0; w < kRoundWindows; ++w) {
            WindowInputs in;
            stageWindow(opt, round * kRoundWindows + w, in);
            std::vector<BatchJob> jobs(kWindow);
            std::vector<ExecutionReport> reports(kWindow);
            std::vector<ReconfigDecision> decisions(kWindow);
            std::vector<double> est_latency_s(kWindow);
            std::vector<double> arrival_s(kWindow);
            std::vector<JobOutcome> window_out(kWindow);
            const std::size_t base = (round * kRoundWindows + w) * kWindow;

            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < kWindow; ++i) {
                current_job = static_cast<std::uint32_t>(base + i);
                if (replay) {
                    SpanScope span(trace, "jobfile.load", current_job);
                    jobs[i] = loadServeJob(in.specs[i]);
                } else {
                    jobs[i] = std::move(in.jobs[i].job);
                }
                arrival_s[i] = in.jobs[i].arrival_s;
                {
                    SpanScope span(trace, "fingerprint.matrix", current_job);
                    fingerprintMatrix(jobs[i].a);
                    fingerprintMatrix(jobs[i].b);
                }
                std::shared_ptr<const MatrixFeatureSummary> a_summary;
                std::shared_ptr<const MatrixFeatureSummary> b_summary;
                {
                    SpanScope span(trace, "summary_cache.lookup",
                                   current_job);
                    a_summary = cache.summary(jobs[i].a);
                }
                {
                    SpanScope span(trace, "summary_cache.lookup",
                                   current_job);
                    b_summary = cache.summary(jobs[i].b);
                }
                SpanScope span(trace, "features.combine", current_job);
                reports[i].features = combineFeatures(*a_summary, *b_summary);
            }
            for (std::size_t i = 0; i < kWindow; ++i) {
                const auto job_id = static_cast<std::uint32_t>(base + i);
                ExecutionReport &rep = reports[i];
                {
                    SpanScope span(trace, "ml.predict", job_id);
                    rep.predicted = framework.predictDesign(rep.features);
                }
                {
                    SpanScope span(trace, "reconfig.decide", job_id);
                    rep.decision = framework.engine().decide(
                        rep.features, rep.predicted, jobs[i].repetitions);
                }
                decisions[i] = rep.decision;
                SpanScope span(trace, "ml.latency", job_id);
                est_latency_s[i] = framework.engine().predictLatencySeconds(
                                       rep.features, rep.decision.chosen) *
                                   jobs[i].repetitions;
            }
            const std::vector<BoardState> entry = boards;
            FleetWindowPlan plan;
            {
                SpanScope span(trace, "fleet.route");
                plan = planFleetWindow(decisions, est_latency_s, arrival_s,
                                       config.route, time_model,
                                       config.board_capacity, boards);
            }
            // planFleetWindow re-plans each board's slice with
            // planLookaheadWindow internally; the lookahead layer is
            // timed by replaying those calls on the same chains, and
            // the replay's time is taken out of the fleet layer's.
            std::vector<std::vector<ReconfigDecision>> chains(kBoards);
            for (std::size_t b = 0; b < kBoards; ++b) {
                DesignId prev = entry[b].resident;
                for (const std::size_t j : plan.board_jobs[b]) {
                    ReconfigDecision step;
                    step.chosen = decisions[j].chosen;
                    step.overhead_s =
                        time_model.switchSeconds(prev, step.chosen);
                    step.reconfigure = step.overhead_s > 0.0;
                    step.free_switch =
                        prev != step.chosen && step.overhead_s == 0.0;
                    prev = step.chosen;
                    chains[b].push_back(step);
                }
            }
            std::vector<WindowPlan> replayed(kBoards);
            {
                SpanScope span(trace, "lookahead.plan");
                for (std::size_t b = 0; b < kBoards; ++b)
                    if (!chains[b].empty())
                        replayed[b] = planLookaheadWindow(
                            chains[b], entry[b].resident, time_model);
            }

            for (std::size_t b = 0; b < kBoards; ++b) {
                if (plan.board_jobs[b].empty())
                    continue;
                const WindowPlan &board_plan = plan.board_plans[b];
                double clock_s = board_clock[b];
                for (const LookaheadGroup &group : board_plan.groups) {
                    clock_s += group.load_seconds;
                    for (const std::size_t j : group.jobs) {
                        const std::size_t i = plan.board_jobs[b][j];
                        const auto job_id =
                            static_cast<std::uint32_t>(base + i);
                        std::shared_ptr<const CscMatrix> a_csc;
                        {
                            SpanScope span(trace, "summary_cache.csc",
                                           job_id);
                            a_csc = cache.csc(jobs[i].a);
                        }
                        {
                            SpanScope span(trace, "sim.simulate", job_id);
                            reports[i].sim = simulateDesign(
                                reports[i].decision.chosen, jobs[i].a,
                                *a_csc, jobs[i].b);
                        }
                        const double execute_s = reports[i].sim.exec_seconds *
                                                 jobs[i].repetitions;
                        FleetRouter::Placement &place = window_out[i].place;
                        place.board = b;
                        place.affine = plan.routes[i].affine;
                        place.arrival_s = arrival_s[i];
                        place.start_s = std::max(arrival_s[i], clock_s);
                        place.wait_s = place.start_s - arrival_s[i];
                        clock_s = place.start_s + execute_s;
                        place.finish_s = clock_s;
                    }
                }
                board_clock[b] = clock_s;
            }
            pass.timed_s += secondsBetween(t0, Clock::now());
            ++pass.windows;

            // Untimed bookkeeping and checks.
            for (std::size_t b = 0; b < kBoards; ++b)
                if (!plan.board_jobs[b].empty() &&
                    !sameWindowPlan(replayed[b], plan.board_plans[b]))
                    ++extras.plan_mismatches;
            for (std::size_t i = 0; i < kWindow; ++i) {
                if (replay && (!(jobs[i].a == in.jobs[i].job.a) ||
                               !(jobs[i].b == in.jobs[i].job.b))) {
                    std::fprintf(stderr, "ingest mismatch on %s\n",
                                 jobs[i].name.c_str());
                    ++pass.failed;
                }
                if (replay)
                    extras.ingest_bytes += in.spec_bytes[i];
                extras.fingerprint_bytes += SummaryCache::matrixBytes(
                                                jobs[i].a) +
                                            SummaryCache::matrixBytes(
                                                jobs[i].b);
                extras.modeled_cycles += reports[i].sim.total_cycles;
                window_out[i].predicted = reports[i].predicted;
                window_out[i].decision = reports[i].decision;
                window_out[i].sim = reports[i].sim;
                pass.outcomes.push_back(window_out[i]);
                pass.pinned_waits.push_back(window_out[i].place.wait_s);
                if (reports[i].decision.reconfigure)
                    ++pass.pinned.paid_switches;
            }
            pass.pinned.jobs += kWindow;
            pass.pinned.paid_loads += std::size_t(plan.paid_loads);
            pass.pinned.affine += plan.affine_routed;
            for (std::size_t b = 0; b < kBoards; ++b)
                pass.pinned.reordered += plan.board_plans[b].reordered_jobs;
        }
        pass.round_makespans.push_back(
            *std::max_element(board_clock.begin(), board_clock.end()));
        pass.rounds = round + 1;
    }
    pass.pinned.summary_hits = cache.summaryHits();
    pass.pinned.summary_misses = cache.summaryMisses();
    pass.pinned.evictions = cache.evictions();
    for (const char *kind : {"symbolic", "csc", "numeric", "hist"}) {
        const std::string prefix = std::string("sim.") + kind;
        pass.pinned.memo_hits += sim_registry.counterValue(prefix + ".hits");
        pass.pinned.memo_misses +=
            sim_registry.counterValue(prefix + ".misses");
    }
    finishPinned(pass);
    return pass;
}

// ------------------------------------------------------------- reporting

/** Peak resident set since the last resetPeakRss(), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/** Reset the kernel's peak-RSS mark (Linux clear_refs "5"). */
void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

std::string
hexBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(v));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

/** FNV-1a digest of this executable: records are per build. */
std::string
buildDigest()
{
    std::ifstream exe("/proc/self/exe", std::ios::binary);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    char buf[1 << 16];
    while (exe.read(buf, sizeof(buf)) || exe.gcount() > 0) {
        for (std::streamsize i = 0; i < exe.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 0x100000001b3ULL;
        }
    }
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
    return hex;
}

/**
 * Compare `values` with what earlier runs of this build, workload and
 * seed recorded, then record any new keys. Returns the keys that
 * differ.
 */
std::vector<std::string>
crossCheckRecord(const Options &opt,
                 const std::map<std::string, double> &values)
{
    const std::string dir = opt.work_dir + "/determinism/" + buildDigest();
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" +
                             perfbench::workloadName(opt.workload) +
                             "-seed" + std::to_string(opt.seed) + ".txt";
    std::map<std::string, std::string> recorded;
    {
        std::ifstream in(path);
        std::string key;
        std::string bits;
        while (in >> key >> bits)
            recorded[key] = bits;
    }
    std::vector<std::string> differ;
    for (const auto &[key, value] : values) {
        const auto it = recorded.find(key);
        if (it == recorded.end())
            recorded[key] = hexBits(value);
        else if (it->second != hexBits(value))
            differ.push_back(key);
    }
    std::ofstream out(path);
    for (const auto &[key, bits] : recorded)
        out << key << ' ' << bits << '\n';
    return differ;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

[[noreturn]] void
failDeterminism(const std::string &what)
{
    std::fprintf(stderr, "serve_bench: determinism check failed: %s\n",
                 what.c_str());
    std::exit(1);
}

std::map<std::string, double>
deterministicValues(const PinnedMetrics &m, double accuracy)
{
    return {{"sim_makespan_s", m.makespan_s},
            {"sim_wait_p99_s", m.wait_p99_s},
            {"paid_loads_per_1k", m.paid_loads_per_1k},
            {"model_accuracy", accuracy}};
}

int
runEndToEnd(const Options &opt)
{
    std::vector<double> setup_s;
    SetupRun setup;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
        SetupRun run = runSetup();
        if (r > 0 && (run.model != setup.model ||
                      !perfbench::sameBits(run.accuracy, setup.accuracy)))
            failDeterminism("set-up produced a different model on repeat");
        setup_s.push_back(run.seconds);
        setup = std::move(run);
    }

    resetPeakRss();
    const Clock::time_point serve_start = Clock::now();
    PassResult pass = serveUntraced(opt, setup.model, opt.seconds);
    const double rss_mb = peakRssMb();
    std::fprintf(stderr,
                 "serve pass %.2f s (%.2f s timed, %.2f s staging inputs, "
                 "%.2f s reference check)\n",
                 secondsBetween(serve_start, Clock::now()), pass.timed_s,
                 pass.staging_s, pass.checking_s);
    const std::size_t attempted = pass.outcomes.size();
    const std::size_t failed = std::min(pass.failed, attempted);

    const std::vector<std::string> differ = crossCheckRecord(
        opt, deterministicValues(pass.metrics, setup.accuracy));
    if (!differ.empty())
        failDeterminism("earlier runs of this seed recorded another " +
                        differ.front());
    if (!perfbench::percentileSupported(pass.latency_s.size(), 99.0))
        failDeterminism("too few samples for p99");

    const double throughput = blockThroughput(pass.block_s);
    const double cpu_us_per_job = blockCpuUsPerJob(pass.block_cpu_s);
    const std::array<double, 3> q = perfbench::quartiles(pass.latency_s);
    std::array<std::size_t, kNumDesigns> predicted{};
    std::array<std::size_t, kNumDesigns> chosen{};
    for (const JobOutcome &outcome : pass.outcomes) {
        ++predicted[static_cast<std::size_t>(outcome.predicted)];
        ++chosen[static_cast<std::size_t>(outcome.decision.chosen)];
    }
    // p99 is printed here, not in the result: it follows the host's
    // scheduling jitter (see design.json), so traced runs report it
    // ungated, as serve.latency_p99_ms. CPU time per job is printed too,
    // so a slow run shows whether the host or the program was slow.
    std::printf("%s seed %" PRIu64 ": %zu jobs in %zu windows, %.3f s "
                "timed; %.1f jobs/s, %.1f CPU us/job; latency quartiles "
                "%.3f/%.3f/%.3f ms, p99 %.3f ms; "
                "D1-D4 predicted %zu/%zu/%zu/%zu, chosen %zu/%zu/%zu/%zu; "
                "failed %zu\n",
                perfbench::workloadName(opt.workload), opt.seed, attempted,
                pass.windows, pass.timed_s, throughput, cpu_us_per_job,
                q[0] * 1e3, q[1] * 1e3, q[2] * 1e3,
                perfbench::percentile(pass.latency_s, 99.0) * 1e3,
                predicted[0], predicted[1], predicted[2], predicted[3],
                chosen[0], chosen[1], chosen[2], chosen[3], failed);
    printResult(failed == 0, attempted, failed,
                {{"throughput_jobs_per_s", throughput, "jobs/s"},
                 {"latency_p50_ms",
                  perfbench::percentile(pass.latency_s, 50.0) * 1e3, "ms"},
                 {"setup_s", perfbench::median(setup_s), "s"},
                 {"peak_rss_mb", rss_mb, "MiB"},
                 {"sim_makespan_s", pass.metrics.makespan_s, "sim_s"},
                 {"sim_wait_p99_s", pass.metrics.wait_p99_s, "sim_s"},
                 {"paid_loads_per_1k", pass.metrics.paid_loads_per_1k,
                  "loads/1k_jobs"},
                 {"model_accuracy", setup.accuracy, "ratio"}});
    return 0;
}

/** Layers of the serving path, each with the span names it owns. */
const std::vector<std::pair<const char *, std::vector<const char *>>> &
servingLayers()
{
    static const std::vector<std::pair<const char *, std::vector<const char *>>>
        layers = {
            {"serve/jobfile+sparse/io", {"jobfile.load"}},
            {"sparse/fingerprint", {"fingerprint.matrix"}},
            {"serve/summary_cache",
             {"summary_cache.lookup", "summary_cache.csc"}},
            {"features", {"features.summarize", "features.combine"}},
            {"ml", {"ml.predict", "ml.latency"}},
            {"reconfig", {"reconfig.decide"}},
            {"serve/fleet", {"fleet.route"}},
            {"serve/lookahead", {"lookahead.plan"}},
            {"sim", {"sim.simulate"}},
        };
    return layers;
}

const std::vector<std::pair<const char *, const char *>> &
setupLayers()
{
    static const std::vector<std::pair<const char *, const char *>> layers = {
        {"sparse/generate", "setup.generate"},
        {"features", "setup.features"},
        {"sim", "setup.simulate_all"},
        {"ml", "setup.fit"},
        {"core/persistence", "setup.persist"},
    };
    return layers;
}

int
runTraced(const Options &opt)
{
    // Untraced set-up first: the model to serve and the samples the
    // traced composition must reproduce.
    clearSimMemos();
    const std::vector<TrainingSample> samples =
        generateTrainingSamples(trainingConfig());
    MisamFramework trained;
    const double accuracy = trained.train(samples).selector_accuracy;
    std::ostringstream saved;
    saveFramework(saved, trained);
    const std::string model = saved.str();

    SpanTrace trace(1 << 16);
    const std::size_t setup_mismatches =
        runTracedSetup(trace, samples, model);
    if (setup_mismatches != 0)
        failDeterminism("traced set-up differs from generateTrainingSamples");

    const PassResult untraced = serveUntraced(opt, model, 0.0);
    TracedExtras extras;
    const PassResult traced = serveTraced(opt, model, trace, extras);

    if (extras.plan_mismatches != 0)
        failDeterminism("replayed lookahead plans differ from the router's");
    if (traced.outcomes.size() != untraced.outcomes.size())
        failDeterminism("traced and untraced passes served different jobs");
    for (std::size_t k = 0; k < traced.outcomes.size(); ++k)
        if (!perfbench::sameOutcome(traced.outcomes[k], untraced.outcomes[k]))
            failDeterminism("traced stages differ from the router on job " +
                            std::to_string(k));
    if (!(traced.pinned == untraced.pinned))
        failDeterminism("traced and untraced per-layer counters differ");
    const auto det = deterministicValues(untraced.metrics, accuracy);
    if (det != deterministicValues(traced.metrics, accuracy))
        failDeterminism("traced and untraced deterministic metrics differ");

    const PassCounts &c = traced.pinned;
    const double jobs = double(c.jobs);
    const double windows = double(traced.windows);
    const double summary_lookups = double(c.summary_hits + c.summary_misses);
    const double memo_lookups = double(c.memo_hits + c.memo_misses);
    std::map<std::string, double> counters = det;
    counters["summary_cache.hit_ratio"] = double(c.summary_hits) /
                                          summary_lookups;
    counters["summary_cache.evictions"] = double(c.evictions);
    counters["reconfig.paid_switches_per_1k"] =
        1000.0 * double(c.paid_switches) / jobs;
    counters["fleet.affine_share"] = double(c.affine) / jobs;
    counters["lookahead.reordered_share"] = double(c.reordered) / jobs;
    counters["sim.memo_hit_ratio"] =
        memo_lookups > 0 ? double(c.memo_hits) / memo_lookups : 0.0;
    const std::vector<std::string> differ = crossCheckRecord(opt, counters);
    if (!differ.empty())
        failDeterminism("earlier runs of this seed recorded another " +
                        differ.front());

    const std::size_t attempted = untraced.outcomes.size();
    const std::size_t failed =
        std::min(untraced.failed + traced.failed, attempted);

    // Self times, in seconds per span name.
    std::map<std::string, double> self_s;
    for (const auto &[name, ns] : trace.selfNsByName())
        self_s[name] = double(ns) * 1e-9;
    const auto self = [&](const char *name) {
        const auto it = self_s.find(name);
        return it == self_s.end() ? 0.0 : it->second;
    };
    // The lookahead replay re-ran work planFleetWindow already did
    // inside the fleet.route span; charge it to lookahead only.
    const double route_s = self("fleet.route") - self("lookahead.plan");

    std::map<std::string, double> layer_s;
    for (const auto &[layer, names] : servingLayers())
        for (const char *name : names)
            layer_s[layer] += self(name);
    layer_s["serve/fleet"] = route_s;
    double traced_self_s = 0.0;
    std::string dominant;
    for (const auto &[layer, s] : layer_s) {
        traced_self_s += s;
        if (dominant.empty() || s > layer_s[dominant])
            dominant = layer;
    }
    std::string setup_dominant;
    double setup_best = -1.0;
    for (const auto &[layer, name] : setupLayers())
        if (self(name) > setup_best) {
            setup_best = self(name);
            setup_dominant = layer;
        }

    const double untraced_us_per_job = 1e6 * untraced.timed_s / jobs;
    const double traced_us_per_job = 1e6 * traced.timed_s / jobs;
    const double us = 1e6 / jobs;
    const double us_window = 1e6 / windows;
    const double ingest_s = self("jobfile.load");
    const double fingerprint_s = self("fingerprint.matrix");

    std::filesystem::create_directories(opt.work_dir + "/trace");
    const std::string trace_path =
        opt.work_dir + "/trace/" + perfbench::workloadName(opt.workload) +
        "-seed" + std::to_string(opt.seed) + ".json";
    trace.writeJson(trace_path);

    std::printf("%s seed %" PRIu64 ": traced %zu jobs; dominant serving "
                "layer %s (%.1f us/job of %.1f traced, %.1f untraced); "
                "dominant set-up layer %s; spans in %s\n",
                perfbench::workloadName(opt.workload), opt.seed, c.jobs,
                dominant.c_str(), layer_s[dominant] * us, traced_us_per_job,
                untraced_us_per_job, setup_dominant.c_str(),
                trace_path.c_str());
    printResult(
        failed == 0, attempted, failed,
        {{"jobfile.load_us_per_job", ingest_s * us, "us"},
         {"jobfile.mb_per_s",
          ingest_s > 0 ? double(extras.ingest_bytes) * 1e-6 / ingest_s : 0.0,
          "MB/s"},
         {"fingerprint.us_per_job", fingerprint_s * us, "us"},
         {"fingerprint.mb_per_s",
          double(extras.fingerprint_bytes) * 1e-6 / fingerprint_s, "MB/s"},
         {"summary_cache.lookup_us_per_job", layer_s["serve/summary_cache"] * us,
          "us"},
         {"summary_cache.hit_ratio", counters["summary_cache.hit_ratio"],
          "ratio"},
         {"summary_cache.evictions", counters["summary_cache.evictions"],
          "count"},
         {"features.us_per_job", layer_s["features"] * us, "us"},
         {"ml.predict_us_per_job", layer_s["ml"] * us, "us"},
         {"reconfig.decide_us_per_job", layer_s["reconfig"] * us, "us"},
         {"reconfig.paid_switches_per_1k",
          counters["reconfig.paid_switches_per_1k"], "count"},
         {"fleet.route_us_per_window", route_s * us_window, "us"},
         {"fleet.affine_share", counters["fleet.affine_share"], "ratio"},
         {"lookahead.plan_us_per_window", self("lookahead.plan") * us_window,
          "us"},
         {"lookahead.reordered_share", counters["lookahead.reordered_share"],
          "ratio"},
         {"sim.simulate_us_per_job", self("sim.simulate") * us, "us"},
         {"sim.host_ns_per_modeled_cycle",
          self("sim.simulate") * 1e9 / extras.modeled_cycles, "ns"},
         {"sim.memo_hit_ratio", counters["sim.memo_hit_ratio"], "ratio"},
         {"setup.generate_s", self("setup.generate"), "s"},
         {"setup.features_s", self("setup.features"), "s"},
         {"setup.simulate_all_s", self("setup.simulate_all"), "s"},
         {"setup.fit_s", self("setup.fit"), "s"},
         {"setup.persist_s", self("setup.persist"), "s"},
         {"serve.wait_us_per_job",
          untraced_us_per_job - traced_self_s * us, "us"},
         {"serve.cpu_us_per_job", blockCpuUsPerJob(untraced.block_cpu_s),
          "us"},
         {"serve.latency_p99_ms",
          perfbench::percentile(untraced.latency_s, 99.0) * 1e3, "ms"},
         {"trace.overhead_ratio", untraced.timed_s / traced.timed_s,
          "ratio"}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // One thread everywhere: the extraction pool, training-sample
    // generation, and the per-design fan-out inside simulateAllDesigns
    // all resolve their width from MISAM_THREADS.
    setenv("MISAM_THREADS", "1", 1);
    const Options opt = parseArgs(argc, argv);
    try {
        pinToOneCpu();
        return opt.trace ? runTraced(opt) : runEndToEnd(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "serve_bench: %s\n", e.what());
        return 1;
    }
}
