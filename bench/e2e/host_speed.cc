#include "bench/e2e/host_speed.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace alae {
namespace e2e {
namespace {

constexpr int kChains = 8;
constexpr int kRoundsPerCheck = 512;  // rounds between stop checks

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : lanes_(std::max(1u, std::thread::hardware_concurrency())) {
  for (size_t i = 0; i < lanes_.size(); ++i) {
    threads_.emplace_back([this, i] { Run(&lanes_[i], i); });
  }
}

HostSpeedProbe::~HostSpeedProbe() { Stop(); }

void HostSpeedProbe::Run(Lane* lane, uint64_t seed) {
  sched_param param{};
  lane->idle = pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
  if (!lane->idle) return;  // at normal priority it would compete
  uint64_t x[kChains];
  for (int j = 0; j < kChains; ++j) {
    x[j] = 88172645463325252ull * static_cast<uint64_t>(j + 1) + seed;
  }
  uint64_t sum = 0;
  uint64_t steps = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (int k = 0; k < kRoundsPerCheck; ++k) {
      for (int j = 0; j < kChains; ++j) {
        x[j] ^= x[j] << 13;
        x[j] ^= x[j] >> 7;
        x[j] ^= x[j] << 17;
        sum += x[j] * 0x9E3779B97F4A7C15ull;
      }
    }
    steps += kRoundsPerCheck * kChains;
  }
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  lane->steps = steps;
  lane->checksum = sum;
  lane->cpu_s =
      static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

HostSpeedProbe::Reading HostSpeedProbe::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  Reading r;
  double steps = 0;
  for (const Lane& lane : lanes_) {
    if (!lane.idle) {
      r.error = "cannot run the host speed probe at SCHED_IDLE priority";
      return r;
    }
    steps += static_cast<double>(lane.steps);
    r.cpu_s += lane.cpu_s;
  }
  if (steps == 0 || r.cpu_s <= 0) {
    r.error = "the host speed probe found no idle CPU time to run in";
    return r;
  }
  r.steps_per_cpu_s = steps / r.cpu_s;
  return r;
}

double AtReferenceSpeed(double cpu_s, const HostSpeedProbe::Reading& reading) {
  const double speed =
      reading.steps_per_cpu_s / kReferenceStepsPerCpuSecond;
  return cpu_s * std::pow(speed, kSpeedExponent);
}

}  // namespace e2e
}  // namespace alae
