// Coroutine task type for simulated protocol flows.
//
// A Task<T> is an eagerly-started coroutine running on simulated time.
// Flows read sequentially while the Simulator interleaves them:
//
//   Task<Duration> tcp_connect(Simulator& sim, ...) {
//     co_await sim.sleep(one_way_delay);   // SYN
//     co_await sim.sleep(one_way_delay);   // SYN/ACK
//     co_return sim.now() - start;
//   }
//
// Lifetime contract: a Task must outlive the simulation that drives it
// (pending sleep events hold the coroutine handle). Destroying a Task
// before it completes is a programming error, checked by assert.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "netsim/arena.h"
#include "netsim/simulator.h"

namespace dohperf::netsim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  // Frames come from the shard's arena when one is installed (see
  // netsim/arena.h); the block header makes delete safe either way.
  static void* operator new(std::size_t bytes) {
    return arena_frame_allocate(bytes);
  }
  static void operator delete(void* p) noexcept { arena_frame_free(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    arena_frame_free(p);
  }

  std::suspend_never initial_suspend() noexcept { return {}; }

  /// At final suspension, transfer control to whoever awaited us (if
  /// anyone); the frame stays alive so the Task can read the result.
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      if (auto cont = h.promise().continuation) return cont;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

/// An eagerly-started coroutine yielding a value of type T.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// True once the coroutine has run to completion (or thrown).
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Result accessor; requires done(). Rethrows a stored exception.
  [[nodiscard]] T& result() {
    assert(done());
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
    return *handle_.promise().value;
  }

  // Awaiter so a parent coroutine can `co_await` this task.
  bool await_ready() const noexcept { return done(); }
  void await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
  }
  T await_resume() { return std::move(result()); }

 private:
  void destroy() {
    if (handle_) {
      assert(handle_.done() && "destroying an in-flight Task");
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Specialisation for void-returning flows.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Requires done(); rethrows a stored exception.
  void result() {
    assert(done());
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  bool await_ready() const noexcept { return done(); }
  void await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
  }
  void await_resume() { result(); }

 private:
  void destroy() {
    if (handle_) {
      assert(handle_.done() && "destroying an in-flight Task");
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable returned by Simulator::sleep().
struct Simulator::SleepAwaitable {
  Simulator& sim;
  Duration delay;

  bool await_ready() const noexcept { return delay <= Duration::zero(); }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.schedule_in(delay, h);
  }
  void await_resume() const noexcept {}
};

inline Simulator::SleepAwaitable Simulator::sleep(Duration delay) {
  return SleepAwaitable{*this, delay};
}

}  // namespace dohperf::netsim
