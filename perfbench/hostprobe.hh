/**
 * @file
 * Host-speed probe: a fixed piece of the benchmark's own work, timed
 * between the measured passes, so the passes' times can be expressed
 * at the reference host's speed.
 *
 * The reference host is a 4-vCPU virtual machine on a shared machine.
 * Preempted vCPUs (steal) stretch wall time, which is why the gated
 * times are CPU times; contended caches, memory and cores stretch CPU
 * time too, by 20-30% over minutes. The probe's CPU time sees that
 * drift. A pass's CPU time divided by the probe's, taken in the same
 * stretch of the run, stays put while both drift; a change to the
 * simulator moves the pass and not the probe, which is code of this
 * directory only and whose work allocates no memory.
 */

#ifndef PERFBENCH_HOSTPROBE_HH
#define PERFBENCH_HOSTPROBE_HH

#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Typical median CPU time of one probe run on the reference host
 * (4-vCPU KVM guest on a Xeon Sapphire Rapids, GCC 12.2,
 * RelWithDebInfo). Normalized times are CPU times scaled by this over
 * the run's own probe median, so on the reference host they read close
 * to raw CPU time. Changing it rescales every gated time: keep it fixed.
 */
constexpr double kProbeReferenceCpuMs = 22.0;

/**
 * The probe: a fixed number of chunks, each churning a binary-heap
 * event queue (the simulator's hot loop) and filling an open-addressing
 * hash table (its caches). One thread per sweep worker claims chunks
 * off a shared counter, as the sweep's pool claims points, so all
 * threads stay busy to the end. Each thread works on an arena
 * allocated once at construction.
 */
class HostProbe
{
  public:
    explicit HostProbe(int threads);

    /** Do the probe's work once; the caller times it. */
    void run();

  private:
    struct Arena {
        std::vector<std::uint64_t> heap;
        std::vector<std::uint64_t> table;
    };

    std::vector<Arena> arenas_;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTPROBE_HH
