#include "common/parallel.hpp"

#include "common/check.hpp"

#include <algorithm>

namespace capstan::common {

namespace {

// Spin budget before yielding, yield budget before parking. The sweep
// engine dispatches once per sweep, so workers mostly park between
// jobs; the short spin keeps back-to-back dispatches cheap.
constexpr int kSpinIters = 2048;
constexpr int kYieldIters = 128;

} // namespace

std::pair<int, int> WorkerPool::chunk(int n, int workers, int w)
{
    const int base = n / workers;
    const int rem = n % workers;
    const int begin = w * base + std::min(w, rem);
    const int end = begin + base + (w < rem ? 1 : 0);
    return {begin, end};
}

WorkerPool::WorkerPool(int workers) : workers_(workers)
{
    CAPSTAN_CHECK(workers >= 2,
                  "WorkerPool below two workers is pointless; run serially");
    // Spinning assumes every worker owns a core. On an oversubscribed
    // host a spinner burns the timeslice the worker holding the work
    // needs, turning each dispatch into a scheduler round-trip — so
    // yield immediately instead. Purely a wall-clock policy: results
    // are identical either way.
    const unsigned cores = std::thread::hardware_concurrency();
    spin_iters_ =
        (cores != 0 && cores < static_cast<unsigned>(workers))
            ? 0
            : kSpinIters;
    threads_.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
        threads_.emplace_back([this, w] { workerMain(w); });
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto &t : threads_) {
        t.join();
    }
}

void WorkerPool::dispatch(int n, Thunk fn, void *ctx)
{
    {
        // Publish the job under the lock so a parked worker's wait
        // predicate cannot miss the epoch bump; spinners pair their
        // acquire-load of epoch_ with the release store below.
        std::lock_guard<std::mutex> lk(m_);
        job_fn_ = fn;
        job_ctx_ = ctx;
        job_n_ = n;
        pending_.store(workers_ - 1, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();

    const auto [begin, end] = chunk(n, workers_, 0);
    fn(ctx, begin, end, 0);

    // Chunks are statically balanced, so helpers finish at roughly the
    // same time as worker 0: spin briefly, then yield. The acquire
    // pairs with each helper's release fetch_sub, making their writes
    // visible before run() returns.
    int spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (++spins > spin_iters_) {
            std::this_thread::yield();
        }
    }
}

void WorkerPool::workerMain(int w)
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::uint64_t next = seen + 1;
        int spins = 0;
        while (epoch_.load(std::memory_order_acquire) < next) {
            ++spins;
            if (spins < spin_iters_) {
                continue;
            }
            if (spins < spin_iters_ + kYieldIters) {
                std::this_thread::yield();
                continue;
            }
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] {
                return epoch_.load(std::memory_order_relaxed) >= next;
            });
            break;
        }
        if (stop_.load(std::memory_order_acquire)) {
            return;
        }
        seen = next;
        const auto [begin, end] = chunk(job_n_, workers_, w);
        job_fn_(job_ctx_, begin, end, w);
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

} // namespace capstan::common
