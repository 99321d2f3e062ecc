#include "identity.hh"

#include <cstdint>
#include <cstring>

namespace perfbench {

bool
sameBits(double a, double b)
{
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof(a));
    std::memcpy(&ub, &b, sizeof(b));
    return ua == ub;
}

bool
sameDecision(const misam::ReconfigDecision &a,
             const misam::ReconfigDecision &b)
{
    return a.chosen == b.chosen && a.reconfigure == b.reconfigure &&
           a.free_switch == b.free_switch &&
           sameBits(a.current_latency_s, b.current_latency_s) &&
           sameBits(a.best_latency_s, b.best_latency_s) &&
           sameBits(a.overhead_s, b.overhead_s) &&
           sameBits(a.expected_gain_s, b.expected_gain_s);
}

bool
sameSim(const misam::SimResult &a, const misam::SimResult &b)
{
    const misam::DesignStats &x = a.stats;
    const misam::DesignStats &y = b.stats;
    return a.design == b.design &&
           sameBits(a.total_cycles, b.total_cycles) &&
           sameBits(a.exec_seconds, b.exec_seconds) &&
           sameBits(a.read_a_cycles, b.read_a_cycles) &&
           sameBits(a.read_b_cycles, b.read_b_cycles) &&
           sameBits(a.compute_cycles, b.compute_cycles) &&
           sameBits(a.write_c_cycles, b.write_c_cycles) &&
           sameBits(a.overhead_cycles, b.overhead_cycles) &&
           sameBits(a.pe_utilization, b.pe_utilization) &&
           a.multiplies == b.multiplies && a.output_nnz == b.output_nnz &&
           a.num_tiles == b.num_tiles &&
           sameBits(a.avg_power_watts, b.avg_power_watts) &&
           sameBits(a.energy_joules, b.energy_joules) &&
           x.issued_nonzeros == y.issued_nonzeros &&
           x.busy_cycles == y.busy_cycles &&
           x.bubble_cycles == y.bubble_cycles &&
           x.slot_cycles == y.slot_cycles &&
           x.fill_cycles == y.fill_cycles &&
           x.tile_refills == y.tile_refills &&
           x.hbm_read_a_bytes == y.hbm_read_a_bytes &&
           x.hbm_read_b_bytes == y.hbm_read_b_bytes &&
           x.hbm_write_c_bytes == y.hbm_write_c_bytes &&
           x.b_bytes_dense_equiv == y.b_bytes_dense_equiv;
}

bool
samePlacement(const misam::FleetRouter::Placement &a,
              const misam::FleetRouter::Placement &b)
{
    return a.board == b.board && a.affine == b.affine &&
           sameBits(a.arrival_s, b.arrival_s) &&
           sameBits(a.start_s, b.start_s) && sameBits(a.wait_s, b.wait_s) &&
           sameBits(a.finish_s, b.finish_s);
}

bool
sameResult(const JobOutcome &a, const misam::ExecutionReport &b)
{
    return a.predicted == b.predicted && sameDecision(a.decision, b.decision) &&
           sameSim(a.sim, b.sim);
}

bool
sameOutcome(const JobOutcome &a, const JobOutcome &b)
{
    return a.predicted == b.predicted &&
           sameDecision(a.decision, b.decision) && sameSim(a.sim, b.sim) &&
           samePlacement(a.place, b.place);
}

} // namespace perfbench
