/**
 * @file
 * Deterministic parallel execution primitives.
 *
 * The dominant wall-clock cost of every bench is labeling training
 * samples with the four cycle-level design simulators. Each sample is
 * independent once it derives its own Rng stream from
 * (seed, sample_index) — see Rng(seed, stream) / deriveSeed() — so the
 * loops can fan out across threads with bit-identical output for any
 * thread count, including 1.
 *
 * The pool is deliberately work-stealing-free: one shared atomic index
 * counter feeds every worker. Determinism never depends on which thread
 * runs which index (work bodies may only touch state owned by their
 * index), so the simplest possible scheduler is also the correct one.
 *
 * Thread-count resolution, everywhere a `threads` knob appears:
 *   explicit argument > 0  →  that many threads
 *   MISAM_THREADS env var  →  its value
 *   otherwise              →  std::thread::hardware_concurrency()
 */

#ifndef MISAM_UTIL_PARALLEL_HH
#define MISAM_UTIL_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace misam {

/** hardware_concurrency(), never 0. */
unsigned hardwareThreads();

/**
 * Resolve a thread-count request: `requested` if positive, else the
 * MISAM_THREADS environment override, else the hardware default.
 */
unsigned resolveThreads(unsigned requested = 0);

/**
 * True while the calling thread is executing inside a parallelFor body.
 * Nested parallelFor calls detect this and run inline — the outer loop
 * already owns all the parallelism, and recursing into the pool from a
 * pool worker would deadlock.
 */
bool inParallelRegion();

/**
 * A fixed-size pool of workers that drain one indexed job at a time
 * from a shared atomic counter (no per-thread deques, no stealing).
 * Jobs are serialized: concurrent forEach() calls queue on a mutex.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (0 is valid: forEach runs inline). */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Number of pool workers (excludes calling threads). */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run fn(i) for every i in [0, n) exactly once, on at most
     * `max_workers` pool workers plus the calling thread. Blocks until
     * every index has run. fn must not throw and may only write state
     * owned by its index. Grows the worker set on demand (capped at
     * kMaxWorkers) so an explicit thread request exceeding the initial
     * size still gets real threads — oversubscription on small hosts is
     * preferable to silently serializing an explicit request.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned max_workers);

    /** Hard cap on pool workers regardless of requests. */
    static constexpr unsigned kMaxWorkers = 64;

    /**
     * The process-wide pool, lazily built with resolveThreads(0) - 1
     * workers (the submitting thread is the remaining lane). Sized once
     * at first use and never destroyed; later MISAM_THREADS changes are
     * ignored, but explicit per-call thread counts can still grow it.
     * In a fork() child forEach runs inline.
     */
    static ThreadPool &global();

  private:
    /**
     * True in a fork() child of the process that built this pool: the
     * child holds copies of the worker handles but none of the threads.
     */
    bool inheritedAcrossFork() const;

    void workerLoop(std::uint64_t start_generation);
    void ensureWorkers(unsigned target);
    void drainJob(std::size_t n,
                  const std::function<void(std::size_t)> &fn);

    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;

    // State of the in-flight job; written under mutex_ before the
    // generation bump, stable until every worker reports done.
    const std::function<void(std::size_t)> *job_fn_ = nullptr;
    std::size_t job_n_ = 0;
    unsigned job_max_workers_ = 0;
    std::atomic<std::size_t> job_next_{0};
    std::atomic<unsigned> job_claims_{0};
    unsigned workers_pending_ = 0;

    std::mutex submit_mutex_; ///< Serializes forEach callers.
    std::vector<std::thread> workers_;
    unsigned fork_epoch_ = 0; ///< Process fork count at construction.
};

/**
 * Run fn(i) for every i in [0, n) exactly once.
 *
 * `threads` resolves as documented above; with a resolved count of 1,
 * n <= 1, or when already inside a parallel region, the loop runs
 * inline on the calling thread — same indices, same results. The
 * effective worker count is capped by the global pool's size.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

} // namespace misam

#endif // MISAM_UTIL_PARALLEL_HH
