// Recycled byte buffers for the serving hot path.
//
// Every request frame body, response body, and reassembly buffer on the
// server used to be a fresh std::string; at tens of thousands of requests
// per second that is the dominant allocation source. A BufferPool keeps a
// bounded free list of cleared strings so steady-state traffic reuses the
// same capacity over and over: FrameReader takes reassembly buffers from
// the pool, the shard's handler builds response bodies in pooled buffers,
// and the reactor returns each body to the pool once its last byte is
// flushed.
//
// Each reactor shard owns one pool, and every user of it runs on that
// shard's thread, so the lock is never contended; it is kept so the pool
// stays safe on its own, and it is never held across an allocation on
// the reuse path. Buffers that grew past `max_buffer_bytes` are dropped
// on release so one huge frame cannot pin its capacity forever, and the
// free list is capped at `max_buffers` so an idle server shrinks back.
#ifndef QLEARN_NET_BUFFER_POOL_H_
#define QLEARN_NET_BUFFER_POOL_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qlearn {
namespace net {

class BufferPool {
 public:
  explicit BufferPool(size_t max_buffers = 64,
                      size_t max_buffer_bytes = 64 * 1024)
      : max_buffers_(max_buffers), max_buffer_bytes_(max_buffer_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty string, reusing pooled capacity when available.
  std::string Acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::string buffer = std::move(free_.back());
        free_.pop_back();
        return buffer;
      }
    }
    return std::string();
  }

  /// Clears `buffer` and keeps its capacity for a later Acquire, unless it
  /// outgrew the per-buffer cap or the pool is full (then it just frees).
  void Release(std::string&& buffer) {
    // An inline (SSO) buffer owns no heap memory worth keeping; computing
    // the threshold from an empty string keeps this portable.
    static const size_t kInlineCapacity = std::string().capacity();
    if (buffer.capacity() <= kInlineCapacity ||
        buffer.capacity() > max_buffer_bytes_) {
      return;  // drop: nothing worth keeping, or too big to pin
    }
    buffer.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.size() >= max_buffers_) return;
    free_.push_back(std::move(buffer));
  }

  /// Buffers currently sitting in the free list (tests assert recycling).
  size_t PooledCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
  }

 private:
  const size_t max_buffers_;
  const size_t max_buffer_bytes_;
  mutable std::mutex mutex_;
  std::vector<std::string> free_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_BUFFER_POOL_H_
