#ifndef ALAE_BENCH_E2E_HOST_SPEED_H_
#define ALAE_BENCH_E2E_HOST_SPEED_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace alae {
namespace e2e {

// The probe speed, in loop steps per CPU-second, that counts as the
// reference core speed. It is a fixed unit: the probe read 485-830 M steps
// per CPU-second on a shared 4-vCPU Xeon VM, depending on the neighbours.
constexpr double kReferenceStepsPerCpuSecond = 500e6;

// How the benchmark's CPU time follows the probe's speed: as its power
// -0.8. That is the median log-log slope over 22 sets of ten runs (one
// workload each) on the VM; the slopes ranged from 0.4 to 1.05, as part of
// a query's time goes to memory and the kernel, which the neighbours slow
// less than they slow the core's arithmetic. With a power of 1 the spread
// of the rescaled time reached 11%, with 0.8 at most 8.3%.
//
// CPU time t measured while the probe read r steps per CPU-second is
// reported as t * (r / kReferenceStepsPerCpuSecond)^kSpeedExponent: the
// time the same work would take on a core running at the reference speed.
// Changing either constant or the probe's loop makes a new benchmark.
constexpr double kSpeedExponent = 0.8;

// Measures how fast this machine's cores run while something else is being
// measured, without taking CPU time from it. On a shared virtual host the
// CPU time of the same work moves by up to half within minutes, as other
// tenants load the physical cores, caches and power budget under the
// virtual CPUs. (Paravirtual steal accounting already keeps the time the
// hypervisor takes away out of the CPU clocks; this is the slowdown that
// remains.)
//
// One thread per CPU runs at SCHED_IDLE priority: the kernel runs it only
// on a CPU that would otherwise idle and preempts it as soon as anything
// else wants that CPU. Each runs a fixed loop of eight independent xorshift
// chains in registers. It touches no memory, so the measured program's own
// cache and memory traffic cannot slow it; what slows it is what the
// neighbours take from the core. On a shared 4-vCPU Xeon VM, over sets of
// ten seeds of one workload, its speed correlated with the benchmark's CPU
// time per query at -0.88 to -0.99 in 20 of 22 sets; the other two came in
// quiet hours, when its speed hardly moved. A loop of one dependent chain
// slowed a third as much as the benchmark did, and loops over a table
// couple to the program's cache use.
class HostSpeedProbe {
 public:
  struct Reading {
    std::string error;           // non-empty: no valid reading
    double steps_per_cpu_s = 0;
    double cpu_s = 0;            // CPU time the probe's threads used
  };

  HostSpeedProbe();
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  // Stops and joins the threads and returns what they measured. The
  // process's CPU clock read after Stop() includes `cpu_s`.
  Reading Stop();

 private:
  struct alignas(64) Lane {
    bool idle = false;  // SCHED_IDLE was set; otherwise the lane never ran
    uint64_t steps = 0;
    uint64_t checksum = 0;  // keeps the loop's work observable
    double cpu_s = 0;
  };
  void Run(Lane* lane, uint64_t seed);

  std::atomic<bool> stop_{false};
  std::vector<Lane> lanes_;
  std::vector<std::thread> threads_;  // last: joined before lanes_ goes
};

// `cpu_s` measured at `reading`'s speed, rescaled to the reference speed.
double AtReferenceSpeed(double cpu_s, const HostSpeedProbe::Reading& reading);

}  // namespace e2e
}  // namespace alae

#endif  // ALAE_BENCH_E2E_HOST_SPEED_H_
