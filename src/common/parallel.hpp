/**
 * @file
 * Deterministic worker pool for parallelism across simulations.
 *
 * The sweep engine (driver/sweep.hpp) runs independent points on it;
 * one simulation always steps on one thread (lang::Machine).
 *
 * `WorkerPool` owns `workers - 1` persistent host threads; the caller
 * participates as worker 0, so a pool of N uses exactly N cores while
 * a dispatch is in flight. `run(n, fn)` partitions the index range
 * [0, n) into `workers` *contiguous, statically sized* chunks — chunk
 * boundaries depend only on (n, workers, w), never on timing — and
 * blocks until every chunk has been processed.
 *
 * Determinism contract (docs/ARCHITECTURE.md "Threading model"):
 *
 *  - Workers may only write per-worker or per-index state. Reductions
 *    happen *after* `run` returns, by merging per-worker accumulators
 *    in worker-index order on the calling thread. Atomics are used
 *    for synchronization only, never as a reduction device — an
 *    atomic sum would be bit-stable for integers but would still hide
 *    ordering bugs that break the byte-identical-JSON contract.
 *  - `chunk()` is the single source of truth for the partition, so
 *    tests and callers can reason about exactly which worker touched
 *    which index.
 *
 * The dispatch barrier is spin-then-yield-then-wait: workers burn a
 * short spin, yield for a while, then park on a condition variable.
 * On hosts with fewer cores than workers the spin phase is skipped
 * entirely — a spinner would burn the timeslice the working thread
 * needs (this tunes wall-clock only; results are identical).
 * All cross-thread handoff is acquire/release on `epoch_`/`pending_`,
 * which both TSan and the memory model understand; the mutex is only
 * taken on the slow (parked) path and at dispatch to publish the job.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace capstan::common {

class WorkerPool {
public:
    /** Spawns `workers - 1` threads; requires workers >= 2. */
    explicit WorkerPool(int workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    int workers() const { return workers_; }

    /**
     * Contiguous chunk [begin, end) of [0, n) owned by worker w.
     * Purely arithmetic: the first `n % workers` chunks are one
     * element longer. Exposed so tests can pin the partition.
     */
    static std::pair<int, int> chunk(int n, int workers, int w);

    /**
     * Run `fn(begin, end, worker)` over the static partition of
     * [0, n). The calling thread executes chunk 0; helpers execute
     * the rest. Returns once all chunks are done, with every worker
     * write visible to the caller (acquire/release pairing).
     */
    template <typename Fn>
    void run(int n, Fn &&fn)
    {
        if (n <= 0) {
            return;
        }
        Thunk thunk = [](void *ctx, int begin, int end, int w) {
            (*static_cast<std::remove_reference_t<Fn> *>(ctx))(begin, end,
                                                               w);
        };
        dispatch(n, thunk, &fn);
    }

private:
    using Thunk = void (*)(void *ctx, int begin, int end, int w);

    void dispatch(int n, Thunk fn, void *ctx);
    void workerMain(int w);

    int workers_;
    /** Spin budget before yielding; 0 on oversubscribed hosts. */
    int spin_iters_ = 0;
    std::vector<std::thread> threads_;

    std::mutex m_;
    std::condition_variable cv_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<int> pending_{0};
    std::atomic<bool> stop_{false};

    Thunk job_fn_ = nullptr;
    void *job_ctx_ = nullptr;
    int job_n_ = 0;
};

} // namespace capstan::common
