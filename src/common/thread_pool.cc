#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace jxp {

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(std::max<size_t>(1, num_threads)) {
  threads_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RunBlock(const Launch& launch, size_t b) {
  const size_t block_begin = launch.begin + b * launch.grain;
  const size_t block_end = std::min(launch.end, block_begin + launch.grain);
  (*launch.body)(block_begin, block_end, b);
}

void ThreadPool::RunClaimedBlocks(const Launch& launch) {
  for (size_t b = next_block_++; b < launch.num_blocks; b = next_block_++) {
    RunBlock(launch, b);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const Launch launch = launch_;
    lock.unlock();
    RunClaimedBlocks(launch);
    lock.lock();
    if (++workers_done_ == num_threads_ - 1) done_cv_.notify_one();
  }
}

void ThreadPool::ParallelForBlocks(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (end <= begin) return;
  JXP_CHECK_GE(grain, 1u);
  Launch launch;
  launch.body = &body;
  launch.begin = begin;
  launch.end = end;
  launch.grain = grain;
  launch.num_blocks = (end - begin + grain - 1) / grain;
  if (num_threads_ == 1 || launch.num_blocks == 1) {
    // Inline execution visits the same blocks in block order, so results
    // match the multi-threaded runs bit for bit.
    for (size_t b = 0; b < launch.num_blocks; ++b) RunBlock(launch, b);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An overlapping launch would reset the block counter and the done
    // count under the running one: blocks would run twice or not at all.
    JXP_CHECK(!launch_active_) << "nested or concurrent ParallelFor on one ThreadPool";
    launch_active_ = true;
    launch_ = launch;
    workers_done_ = 0;
    next_block_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  RunClaimedBlocks(launch);
  // Every worker reports in, even one that claimed nothing, so none can
  // still be reading this launch when the next one resets the counter.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_done_ == num_threads_ - 1; });
  launch_active_ = false;
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn) {
  ParallelForBlocks(begin, end, grain,
                    [&fn](size_t block_begin, size_t block_end, size_t) {
                      for (size_t i = block_begin; i < block_end; ++i) fn(i);
                    });
}

}  // namespace jxp
