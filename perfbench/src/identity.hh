/**
 * @file
 * Bit-exact comparisons of the per-job outcomes the benchmark checks:
 * the selector's prediction, the engine's decision, the simulated
 * result, and the router's logical placement. Doubles compare by bit
 * pattern, so -0.0 vs 0.0 or two NaN payloads count as different.
 */

#ifndef PERFBENCH_IDENTITY_HH
#define PERFBENCH_IDENTITY_HH

#include "core/misam.hh"
#include "serve/fleet.hh"

namespace perfbench {

/** What one served job produced, as the correctness gate compares it. */
struct JobOutcome
{
    misam::DesignId predicted = misam::DesignId::D1;
    misam::ReconfigDecision decision;
    misam::SimResult sim;
    misam::FleetRouter::Placement place;
};

bool sameBits(double a, double b);
bool sameDecision(const misam::ReconfigDecision &a,
                  const misam::ReconfigDecision &b);
bool sameSim(const misam::SimResult &a, const misam::SimResult &b);
bool samePlacement(const misam::FleetRouter::Placement &a,
                   const misam::FleetRouter::Placement &b);

/** predicted, decision and sim (the executeBatch reference has no
 *  placement). */
bool sameResult(const JobOutcome &a, const misam::ExecutionReport &b);

/** Everything, placement included. */
bool sameOutcome(const JobOutcome &a, const JobOutcome &b);

} // namespace perfbench

#endif // PERFBENCH_IDENTITY_HH
