#pragma once

// Unbounded MPMC channel (mutex + condition variable).
//
// This is the only inter-thread communication primitive in the library:
// master->worker generation requests, worker->master results, and the
// multisearch mailboxes are all channels.  Close semantics: push after
// close is refused; pop drains remaining items, then reports closed.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

template <typename T>
class Channel {
 public:
  /// Registers this channel with the telemetry layer under `label`: a
  /// `channel.<label>.depth` gauge tracking queue depth and a
  /// `channel.<label>.wait_ns` histogram of blocking-pop wait times.
  /// Also names the channel for the flight recorder's high-water events.
  /// Call before handing the channel to other threads.
  void enable_telemetry(const std::string& label) {
    label_ = label;
#if TSMO_TELEMETRY_ENABLED
    auto& reg = telemetry::Registry::instance();
    depth_gauge_ = reg.gauge("channel." + label + ".depth");
    wait_hist_ = reg.histogram("channel." + label + ".wait_ns");
#endif
  }

  /// Enqueues an item; returns false (dropping the item) when closed.
  bool push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(item));
      note_depth(queue_.size());
      note_high_water(queue_.size());
    }
    cv_.notify_one();
    return true;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    return take();
  }

  /// Blocks until an item arrives or the channel is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    const std::uint64_t wait_start = wait_begin();
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    wait_end(wait_start);
    return take();
  }

  /// Blocks up to `timeout`; nullopt on timeout or closed-and-drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    const std::uint64_t wait_start = wait_begin();
    cv_.wait_for(lock, timeout,
                 [this] { return !queue_.empty() || closed_; });
    wait_end(wait_start);
    return take();
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  // Called with mutex_ held.
  std::optional<T> take() {
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    note_depth(queue_.size());
    return item;
  }

#if TSMO_TELEMETRY_ENABLED
  // Called with mutex_ held, so gauge updates are ordered per channel.
  void note_depth(std::size_t depth) noexcept {
    if (depth_gauge_.valid() && telemetry::enabled()) {
      telemetry::Registry::instance().gauge_set(
          depth_gauge_, static_cast<std::int64_t>(depth));
    }
  }
  std::uint64_t wait_begin() const noexcept {
    return wait_hist_.valid() && telemetry::enabled() ? now_ns() : 0;
  }
  void wait_end(std::uint64_t wait_start) const noexcept {
    if (wait_start != 0) {
      telemetry::Registry::instance().record_ns(wait_hist_,
                                                now_ns() - wait_start);
    }
  }
  telemetry::GaugeId depth_gauge_{};
  telemetry::HistogramId wait_hist_{};
#else
  void note_depth(std::size_t) noexcept {}
  std::uint64_t wait_begin() const noexcept { return 0; }
  void wait_end(std::uint64_t) const noexcept {}
#endif

  // Called with mutex_ held.  Depth grows one push at a time, so checking
  // for exact powers of two records each doubling of the backlog exactly
  // once per new high-water mark (named channels only).
  void note_high_water(std::size_t depth) noexcept {
    if (depth <= high_water_) return;
    high_water_ = depth;
    if (depth >= 2 && (depth & (depth - 1)) == 0 && !label_.empty()) {
      obs::flight_channel_high_water(label_.c_str(),
                                     static_cast<std::int64_t>(depth));
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  std::string label_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace tsmo
