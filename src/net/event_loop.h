// kav::net -- the async substrate for everything that speaks to the
// outside world. One EventLoop is one epoll instance driven by one
// thread: non-blocking fds register interest + a callback, periodic
// timers fire between polls, and other threads reach the loop only
// through post() (task queue + eventfd wakeup) or stop(). The
// telemetry server (obs/telemetry_server.h) runs on it.
//
// Threading contract, enforced with assertions where cheap:
//
//   * add_fd / modify_fd / remove_fd / add_periodic are loop-thread
//     only once run() has started (call them freely before, while the
//     loop is still single-owner; afterwards, hop via post()).
//   * post() and stop() are safe from any thread, including fd
//     callbacks on the loop thread itself.
//   * Callbacks run on the loop thread, one at a time -- handler code
//     needs no locks for state only the loop touches.
//
// The loop never owns fds: whoever registered an fd closes it (after
// remove_fd). TcpListener / TcpConnection (net/tcp.h) wrap that
// pattern for sockets.
//
// Platform: epoll + eventfd, i.e. Linux. On other platforms the
// constructor throws; nothing else in the library links against this
// unless telemetry serving is actually used.
#ifndef KAV_NET_EVENT_LOOP_H
#define KAV_NET_EVENT_LOOP_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "util/thread_safety.h"

namespace kav::net {

// Interest / readiness bits, deliberately not the raw EPOLL* values so
// this header needs no <sys/epoll.h>. kError is delivery-only (always
// monitored): closed/han-gup/error conditions arrive as kError |
// whatever else was ready.
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
inline constexpr std::uint32_t kError = 1u << 2;

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t ready)>;

  EventLoop();
  // The loop must be stopped (run() returned) before destruction when
  // it ever ran; destroying a never-run loop is fine.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` (must already be non-blocking) for `interest`
  // (kReadable/kWritable). The callback receives the ready set each
  // time the fd polls ready.
  void add_fd(int fd, std::uint32_t interest, FdCallback callback);
  // Re-arms an already-added fd with a new interest set.
  void modify_fd(int fd, std::uint32_t interest);
  // Unregisters; the caller still owns (and closes) the fd. Safe to
  // call from inside the fd's own callback.
  void remove_fd(int fd);

  // Runs `fn` every `interval`, first firing one interval from now.
  // Coarse by design (per-poll resolution): idle sweeps and samplers,
  // not high-resolution timers.
  void add_periodic(std::chrono::milliseconds interval,
                    std::function<void()> fn);

  // Blocks servicing the loop until stop(). Re-runnable after a stop.
  // A stop() that lands before run() begins is not lost: that run()
  // drains any posted tasks and returns immediately.
  void run();

  // Requests run() to return once the current dispatch finishes. Any
  // thread; idempotent.
  void stop();

  // Enqueues `task` to run on the loop thread (FIFO, between polls).
  // Any thread. Tasks enqueued after stop() run on the next run().
  void post(std::function<void()> task);

  // True while the calling thread is inside run(). add/modify/remove
  // assert this once the loop is live.
  bool on_loop_thread() const;

  // Closes a raw fd -- a shim so fd-owning callers (e.g. a server
  // refusing an accepted connection) need no platform headers.
  static void close_fd(int fd);

 private:
  struct Periodic {
    std::chrono::milliseconds interval{0};
    std::chrono::steady_clock::time_point next{};
    std::function<void()> fn;
  };

  void wake();
  void drain_wakeup_fd();
  void run_posted_tasks();
  // Milliseconds until the nearest periodic deadline (-1: no timers).
  int poll_timeout_ms() const;
  void fire_due_periodics();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  // The thread currently inside run(); null id otherwise.
  std::atomic<std::thread::id> loop_thread_{};

  // Loop-thread-only state (no lock: see the threading contract).
  std::map<int, FdCallback> callbacks_;
  std::vector<Periodic> periodics_;

  // The one cross-thread door besides stop_: post()'s task queue.
  util::Mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_ KAV_GUARDED_BY(tasks_mutex_);
};

}  // namespace kav::net

#endif  // KAV_NET_EVENT_LOOP_H
