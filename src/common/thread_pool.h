#ifndef JXP_COMMON_THREAD_POOL_H_
#define JXP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jxp {

/// A small fixed-size thread pool built for *deterministic* data
/// parallelism.
///
/// ParallelFor / ParallelForBlocks split [begin, end) into fixed-size
/// blocks of `grain` indices. Block boundaries and block indices depend only
/// on (begin, end, grain) — never on the thread count. Which worker runs a
/// block does depend on timing: workers claim the next unclaimed block from
/// a shared counter, so a slow block never holds back the blocks queued
/// behind it. Any computation whose writes are disjoint per index, plus any
/// reduction that accumulates per block and combines the block partials in
/// block order, therefore produces bit-identical results at every thread
/// count, including 1.
///
/// The calling thread participates as a worker, so a pool of size T spawns
/// T - 1 background threads (ThreadPool(1) spawns none and runs everything
/// inline, in block order). Calls must not be nested or concurrent: a
/// ParallelFor body must not invoke ParallelFor on the same pool, and two
/// threads must not launch on one pool at once; a multi-block launch that
/// overlaps another aborts. Bodies must not throw.
class ThreadPool {
 public:
  /// Creates a pool of `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of workers, including the calling thread.
  size_t num_threads() const { return num_threads_; }

  /// Runs `body(block_begin, block_end, block_index)` once per block of the
  /// fixed partition of [begin, end) into blocks of `grain` indices (the
  /// last block may be short). Workers claim blocks in block order as they
  /// become free; the call returns after every block has finished.
  void ParallelForBlocks(size_t begin, size_t end, size_t grain,
                         const std::function<void(size_t, size_t, size_t)>& body);

  /// Per-index convenience wrapper: runs `fn(i)` for every i in [begin, end)
  /// using the same deterministic block partition.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

 private:
  /// The immutable description of one ParallelForBlocks launch.
  struct Launch {
    const std::function<void(size_t, size_t, size_t)>* body = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    size_t num_blocks = 0;
  };

  /// Runs block `b` of `launch`.
  static void RunBlock(const Launch& launch, size_t b);

  /// Claims blocks of `launch` from `next_block_` and runs them until none
  /// is left.
  void RunClaimedBlocks(const Launch& launch);

  void WorkerLoop();

  const size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Launch launch_;
  uint64_t generation_ = 0;
  size_t workers_done_ = 0;
  bool launch_active_ = false;  // A multi-block launch is in flight.
  bool shutdown_ = false;
  /// The next unclaimed block of the current launch; reset under `mutex_`
  /// before the launch is published.
  std::atomic<size_t> next_block_{0};
};

}  // namespace jxp

#endif  // JXP_COMMON_THREAD_POOL_H_
