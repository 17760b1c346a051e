#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace jxp {
namespace net {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  JXP_CHECK(ep >= 0);
  epoll_.reset(ep);

  int pipe_fds[2];
  JXP_CHECK(::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) == 0);
  wakeup_reader_.reset(pipe_fds[0]);
  wakeup_writer_.reset(pipe_fds[1]);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_reader_.get();
  JXP_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_reader_.get(), &ev) == 0);
}

EventLoop::~EventLoop() = default;

uint64_t EventLoop::NowMs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - epoch_)
                                   .count());
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  if (fds_.count(fd) != 0) {
    return Status::AlreadyExists("fd already registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(ADD): ") + strerror(errno));
  }
  fds_.emplace(fd, std::move(callback));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  if (fds_.count(fd) == 0) return Status::NotFound("fd not registered");
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(MOD): ") + strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  if (fds_.erase(fd) == 0) return Status::NotFound("fd not registered");
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Status::IOError(std::string("epoll_ctl(DEL): ") + strerror(errno));
  }
  return Status::OK();
}

EventLoop::TimerId EventLoop::AddTimer(uint64_t delay_ms, TimerCallback callback) {
  const TimerId id = next_timer_id_++;
  heap_.push_back({NowMs() + delay_ms, id});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  callbacks_.emplace(id, std::move(callback));
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  if (callbacks_.erase(id) != 0) DropCancelledKeys();
}

void EventLoop::DropCancelledKeys() {
  if (heap_.size() > 2 * callbacks_.size() + 16) {
    std::erase_if(heap_, [&](const TimerKey& key) { return !callbacks_.contains(key.id); });
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
  while (!heap_.empty() && !callbacks_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
}

void EventLoop::FireExpiredTimers(uint64_t now_ms) {
  // Expired callbacks may AddTimer (re-arm); collect the due ids first, so a
  // timer armed by a callback is not fired in the same pass.
  std::vector<TimerId> due;
  while (!heap_.empty() && heap_.front().deadline_ms <= now_ms) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    due.push_back(heap_.back().id);
    heap_.pop_back();
  }
  DropCancelledKeys();
  for (const TimerId id : due) {
    const auto it = callbacks_.find(id);
    if (it == callbacks_.end()) continue;  // Cancelled, possibly by an earlier callback.
    TimerCallback callback = std::move(it->second);
    callbacks_.erase(it);
    callback();
  }
}

int EventLoop::TimeoutUntilNextTimer(uint64_t now_ms, int fallback_ms) const {
  if (heap_.empty()) return fallback_ms;
  const uint64_t earliest = heap_.front().deadline_ms;  // A pending timer's.
  if (earliest <= now_ms) return 0;
  const uint64_t wait = earliest - now_ms;
  const uint64_t cap = fallback_ms < 0 ? std::numeric_limits<int>::max()
                                       : static_cast<uint64_t>(fallback_ms);
  return static_cast<int>(std::min(wait, cap));
}

bool EventLoop::RunOnce(int max_wait_ms) {
  if (stopped_) return false;
  const int timeout = TimeoutUntilNextTimer(NowMs(), max_wait_ms);

  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_.get(), events, 64, timeout);
  } while (n < 0 && errno == EINTR);
  JXP_CHECK(n >= 0);

  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeup_reader_.get()) {
      uint8_t drain[64];
      while (::read(fd, drain, sizeof(drain)) > 0) {
      }
      stopped_ = true;
      continue;
    }
    // Re-check registration: an earlier callback this round may have
    // removed this fd.
    const auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    it->second(events[i].events);
  }

  FireExpiredTimers(NowMs());
  return !stopped_;
}

void EventLoop::Run() {
  while (RunOnce(/*max_wait_ms=*/200)) {
  }
}

void EventLoop::Stop() {
  const uint8_t byte = 1;
  // Write is async-signal-safe; a full pipe still wakes the reader.
  [[maybe_unused]] const ssize_t rc = ::write(wakeup_writer_.get(), &byte, 1);
}

}  // namespace net
}  // namespace jxp
