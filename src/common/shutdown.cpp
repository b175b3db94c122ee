#include "common/shutdown.h"

#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include <atomic>

namespace qfab {

namespace {

std::atomic<int> g_signal_count{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free latch");

extern "C" void latch_handler(int) {
  // First signal: request a drain. Second: hard-exit now. Everything here
  // must be async-signal-safe — atomics, write(2), _Exit only.
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) == 0) {
    static const char msg[] =
        "\n[qfab] drain requested: finishing in-flight units, flushing "
        "journal (interrupt again to abort immediately)\n";
    (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  } else {
    std::_Exit(130);
  }
}

}  // namespace

void install_shutdown_latch() {
  struct sigaction sa = {};
  sa.sa_handler = latch_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: let blocking syscalls see the interrupt
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_requested() {
  return g_signal_count.load(std::memory_order_relaxed) > 0;
}

void request_shutdown() {
  g_signal_count.fetch_add(1, std::memory_order_relaxed);
}

void reset_shutdown_latch_for_tests() {
  g_signal_count.store(0, std::memory_order_relaxed);
}

}  // namespace qfab
