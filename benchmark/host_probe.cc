#include "host_probe.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace dapple::e2e {

namespace {

constexpr std::size_t kCapacity = std::size_t{1} << 17;  // chunks, ~22 min
constexpr std::size_t kTableSize = std::size_t{1} << 12;  // 32 KiB of uint64
constexpr int kTableInserts = 1536;
constexpr int kSortSize = 512;

/// Everything the signal handler touches: fixed buffers, no allocation.
struct ProbeState {
  std::int64_t begins[kCapacity];  // the probe starts, warm-up included
  std::int64_t starts[kCapacity];  // the timed chunk starts
  std::int64_t ends[kCapacity];
  std::uint64_t table[kTableSize];
  double sort_source[kSortSize];
  double sort_buffer[kSortSize];
  volatile std::uint64_t sink;
  volatile std::size_t count;
  volatile sig_atomic_t active;
};

ProbeState g_state;
bool g_installed = false;

std::int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// steady_clock reads CLOCK_MONOTONIC, so its epoch is NowNs()'s.
std::int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

std::uint64_t Lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 16;
}

/// The fixed chunk of work: inserts into a cleared open-addressing table
/// and a sort of 512 doubles.
std::uint64_t Chunk(ProbeState& s) {
  std::memset(s.table, 0, sizeof s.table);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0;
  for (int i = 0; i < kTableInserts; ++i) {
    const std::uint64_t key = Lcg(x) | 1;
    std::size_t slot = static_cast<std::size_t>((key * 0xbf58476d1ce4e5b9ULL) >> 52);
    while (s.table[slot] != 0 && s.table[slot] != key) slot = (slot + 1) & (kTableSize - 1);
    s.table[slot] = key;
    h += slot;
  }
  std::memcpy(s.sort_buffer, s.sort_source, sizeof s.sort_buffer);
  std::sort(s.sort_buffer, s.sort_buffer + kSortSize);
  return h + static_cast<std::uint64_t>(s.sort_buffer[kSortSize / 2]);
}

/// Runs the chunk once to bring its buffers back into cache after the
/// program, then times a second run, so the time does not depend on what
/// the program left in the caches.
void OnTimer(int) {
  ProbeState& s = g_state;
  const std::size_t n = s.count;
  if (!s.active || n >= kCapacity) return;
  const int saved_errno = errno;
  const std::int64_t begin = NowNs();
  s.sink = s.sink + Chunk(s);
  const std::int64_t start = NowNs();
  s.sink = s.sink + Chunk(s);
  const std::int64_t end = NowNs();
  s.begins[n] = begin;
  s.starts[n] = start;
  s.ends[n] = end;
  std::atomic_signal_fence(std::memory_order_release);
  s.count = n + 1;
  errno = saved_errno;
}

}  // namespace

HostProbe::HostProbe() {
  ProbeState& s = g_state;
  DAPPLE_CHECK(!s.active) << "one HostProbe at a time";
  std::uint64_t x = 42;
  for (double& v : s.sort_source) v = static_cast<double>(Lcg(x) % 1000003);
  s.count = 0;
  s.active = 1;

  // The handler stays installed for the life of the process: a signal
  // still pending when the timer is deleted must not take the default
  // action, which ends the process.
  if (!g_installed) {
    struct sigaction action {};
    action.sa_handler = OnTimer;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    DAPPLE_CHECK(sigaction(SIGRTMIN, &action, nullptr) == 0) << "sigaction failed";
    g_installed = true;
  }
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGRTMIN;
  event._sigev_un._tid = gettid();  // sigev_notify_thread_id from glibc 2.37
  DAPPLE_CHECK(timer_create(CLOCK_MONOTONIC, &event, &timer_) == 0) << "timer_create failed";
  const long period_ns = static_cast<long>(kPeriodSeconds * 1e9);
  itimerspec spec{};
  spec.it_interval.tv_nsec = period_ns;
  spec.it_value.tv_nsec = period_ns;
  DAPPLE_CHECK(timer_settime(timer_, 0, &spec, nullptr) == 0) << "timer_settime failed";
  running_ = true;
}

HostProbe::~HostProbe() { Stop(); }

void HostProbe::Stop() {
  if (!running_) return;
  running_ = false;
  timer_delete(timer_);
  ProbeState& s = g_state;
  s.active = 0;
  std::atomic_signal_fence(std::memory_order_acquire);
  const std::size_t n = s.count;
  begins_.assign(s.begins, s.begins + n);
  ends_.assign(s.ends, s.ends + n);
  chunk_seconds_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    chunk_seconds_[k] = 1e-9 * static_cast<double>(s.ends[k] - s.starts[k]);
  }

  // The stretch after probe k runs to probe k+1's begin (the last one has
  // no end); its factor comes from the probes that began within
  // kWindowSeconds of it.
  const auto window = static_cast<std::int64_t>(kWindowSeconds * 1e9);
  factors_.resize(n);
  scaled_.assign(n, 0.0);
  std::vector<double> around;
  std::size_t lo = 0, hi = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t from = ends_[k] - window;
    const std::int64_t to = (k + 1 < n ? begins_[k + 1] : ends_[k]) + window;
    while (lo < k && begins_[lo] < from) ++lo;
    while (hi < n && begins_[hi] <= to) ++hi;
    around.assign(chunk_seconds_.begin() + static_cast<std::ptrdiff_t>(lo),
                  chunk_seconds_.begin() + static_cast<std::ptrdiff_t>(hi));
    factors_[k] = kNominalChunkSeconds / Median(around);
    if (k + 1 < n) {
      scaled_[k + 1] =
          scaled_[k] + 1e-9 * static_cast<double>(begins_[k + 1] - ends_[k]) * factors_[k];
    }
  }
}

double HostProbe::Scaled(std::int64_t t) const {
  if (t < begins_.front()) {
    return -1e-9 * static_cast<double>(begins_.front() - t) * factors_.front();
  }
  const auto k = static_cast<std::size_t>(
      std::upper_bound(begins_.begin(), begins_.end(), t) - begins_.begin() - 1);
  if (t < ends_[k]) return scaled_[k];  // inside a probe: its own time
  return scaled_[k] + 1e-9 * static_cast<double>(t - ends_[k]) * factors_[k];
}

double HostProbe::NominalSeconds(Clock::time_point a, Clock::time_point b) const {
  DAPPLE_CHECK(!running_ && !begins_.empty()) << "HostProbe read before Stop() or empty";
  return Scaled(Ns(b)) - Scaled(Ns(a));
}

double HostProbe::MedianChunkSeconds() const { return Median(chunk_seconds_); }

}  // namespace dapple::e2e
