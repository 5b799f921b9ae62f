// A shared (reader/writer) mutex that admits a waiting writer ahead of new
// readers.
//
// std::shared_mutex leaves the policy to the platform, and glibc's default
// rwlock prefers readers: while overlapping shared holders keep the lock
// busy, an exclusive locker waits forever. That is harmless when shared
// sections are short, but a composite that holds the shared lock for a whole
// search (shard/sharded_index.hpp) starves its insert()/remove() callers
// under steady concurrent reads. Here, once a writer is waiting, lock_shared()
// blocks until that writer has been through, so a writer waits at most for
// the shared holders already inside.
//
// Meets the SharedMutex requirements that std::unique_lock and
// std::shared_lock use (lock/unlock, lock_shared/unlock_shared). Not
// recursive: a thread that already holds the lock shared and calls
// lock_shared() again deadlocks once a writer is waiting in between.
#pragma once

#include <condition_variable>
#include <mutex>

namespace rbc {

class WriterPriorityMutex {
 public:
  void lock() {
    std::unique_lock guard(state_);
    ++writers_waiting_;
    writer_cv_.wait(guard, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }

  void unlock() {
    {
      std::lock_guard guard(state_);
      writer_ = false;
    }
    writer_cv_.notify_one();
    reader_cv_.notify_all();
  }

  void lock_shared() {
    std::unique_lock guard(state_);
    reader_cv_.wait(guard,
                    [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }

  void unlock_shared() {
    bool last = false;
    {
      std::lock_guard guard(state_);
      last = --readers_ == 0;
    }
    if (last) writer_cv_.notify_one();
  }

 private:
  std::mutex state_;
  std::condition_variable writer_cv_;
  std::condition_variable reader_cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

}  // namespace rbc
