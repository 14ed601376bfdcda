// Bounded FIFO admission queue with backpressure, per-item delivery
// gates and graceful close — the head of the service pipeline.
//
// Semantics:
//  * try_push: non-blocking; false when the queue is at capacity or
//    closed. Admission control *is* this rejection — the caller reports
//    the reason to the client instead of queueing unboundedly.
//  * pop: blocks until an item is deliverable. Returns nullopt only when
//    closed and empty — the worker-loop exit condition.
//  * Strict FIFO: pop order equals successful push order.
//  * Optional per-item gate: a predicate supplied at construction that
//    decides whether an item is currently deliverable (the service uses
//    it for session-scoped pause: while a session is paused its items
//    accumulate, which is how deterministic-burst scripts decouple
//    admission order from worker timing). Pop delivers the oldest
//    *deliverable* item, so FIFO holds within every gate class. Gate
//    state lives outside the queue but changes only through
//    change_gates(), under the queue mutex: a pop scans with that mutex
//    held, so one scan never sees a gate both closed (at an older item)
//    and open (at a younger one), and a pop about to block never misses
//    the wakeup. close() overrides the gates — shutdown must always
//    drain.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace ldc::service {

template <typename T>
class BoundedQueue {
 public:
  /// Returns true when the item may be delivered now. Called with the
  /// queue mutex held, so it must be cheap and lock-free (an atomic read).
  using Gate = std::function<bool(const T&)>;

  explicit BoundedQueue(std::size_t capacity, Gate gate = nullptr)
      : capacity_(capacity), gate_(std::move(gate)) {}

  /// Enqueues unless full or closed; never blocks.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Dequeues the oldest deliverable item; blocks while nothing is
  /// deliverable (empty, or every queued item gated).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (closed_) {  // gates no longer apply: drain in FIFO order
        if (items_.empty()) return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
      }
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (!gate_ || gate_(*it)) {
          T item = std::move(*it);
          items_.erase(it);
          return item;
        }
      }
      cv_.wait(lock);
    }
  }

  /// Changes externally owned gate state: runs flip() under the queue
  /// mutex, then wakes every blocked pop so it re-scans (e.g. a session
  /// pause or resume).
  template <typename Flip>
  void change_gates(Flip&& flip) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      flip();
    }
    cv_.notify_all();
  }

  /// Rejects all further pushes; queued items still drain (close beats
  /// the gates, so a service with paused sessions can always shut down).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  const Gate gate_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ldc::service
