// Shared thread pool for real multi-threaded task execution.
//
// The in-process MapReduce engine (src/mapreduce/job.h) simulates a Hadoop
// cluster: parallelism used to exist only on the virtual clock, with every
// task executed serially on one local core. This pool supplies the missing
// physical parallelism: map splits and planned reduce bins become tasks that
// worker threads claim from a shared atomic cursor.
//
// Scheduling is work-stealing-friendly rather than statically partitioned:
// tasks are claimed one at a time with fetch_add, so a thread that finishes
// its task immediately "steals" the next unclaimed index instead of idling
// behind a static assignment — the same dynamic load balancing a deque-based
// stealing scheduler provides, at far lower complexity for the coarse tasks
// (whole map splits / planned reduce bins) the engine produces.
//
// The calling thread participates in every ParallelFor, so a pool of N
// threads means N-1 workers plus the caller, and a ParallelFor can never
// deadlock waiting for a worker that is blocked elsewhere.
#ifndef FALCON_COMMON_THREAD_POOL_H_
#define FALCON_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace falcon {

class ThreadPool {
 public:
  /// Creates a pool with `threads` total execution threads (including the
  /// caller of ParallelFor). Values < 1 are clamped to 1; with 1 thread the
  /// pool spawns no workers and ParallelFor degenerates to a serial loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution threads (workers + the participating caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) .. fn(n-1), distributing indices dynamically over the
  /// workers and the calling thread; returns when every call has finished.
  /// Index claim order is unspecified; callers requiring deterministic
  /// results must make fn(i) write only to per-index state and merge in
  /// index order afterwards. If any fn throws, the first exception is
  /// rethrown on the calling thread after all tasks complete.
  ///
  /// One ParallelFor runs at a time; concurrent callers serialize. fn must
  /// not recursively call ParallelFor on the same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Number of hardware threads, never 0 (falls back to 1).
  static int HardwareThreads();

 private:
  // All per-ParallelFor state lives in a heap-allocated Job shared between
  // the caller and any workers that picked it up. A worker that wakes late
  // (after the job finished and a new one was published) still holds a valid
  // Job whose cursor is exhausted, so it simply returns — counters are never
  // reused across jobs.
  struct Job {
    std::function<void(size_t)> fn;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;                 ///< guards first_error + done_cv wakeup
    std::condition_variable done_cv;
    std::exception_ptr first_error;
  };

  void WorkerLoop();
  /// Claims and runs tasks of `job` until none remain.
  static void RunTasks(const std::shared_ptr<Job>& job);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_cv_;  ///< wakes workers for a new job
  bool stop_ = false;
  std::shared_ptr<Job> job_;   ///< current job (guarded by mu_)
  uint64_t generation_ = 0;    ///< bumped per job so workers wake once each

  std::mutex run_mu_;  ///< serializes concurrent ParallelFor callers
};

}  // namespace falcon

#endif  // FALCON_COMMON_THREAD_POOL_H_
