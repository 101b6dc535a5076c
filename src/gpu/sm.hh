/**
 * @file
 * SM occupancy model: a pool of CTA slots (numSms x ctasPerSm) with
 * SM-range partitioning, used by the asymmetric kernel overlapping
 * optimizer to co-schedule kernels on disjoint SM sets.
 */

#ifndef CAIS_GPU_SM_HH
#define CAIS_GPU_SM_HH

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"

namespace cais
{

/** CTA slot pool of one GPU. */
class SmPool
{
  public:
    SmPool(EventQueue &eq, int num_sms, int ctas_per_sm);

    int numSms() const { return sms; }

    /**
     * Claim a free slot whose SM lies in [from, to) (fractions of the
     * SM array). @return the slot id, or -1 when none is free.
     */
    int acquire(double from, double to);

    /** True if acquire(from, to) would succeed. */
    bool hasFree(double from, double to) const;

    void release(int slot);

    int freeCount() const { return freeSlots; }

    /** Busy slot-cycles accumulated so far (utilization numerator). */
    Cycle busySlotCycles() const;

    /**
     * Mean fraction of occupied slots over [0, t] — the GPU
     * "SM utilization" figure quoted in the paper (Sec. II-C).
     */
    double utilization(Cycle t) const;

  private:
    int smOfSlot(int slot) const { return slot % sms; }

    EventQueue &eq;
    int sms;
    std::vector<Cycle> busyAt; ///< acquire time, or ~0ull when free
    int freeSlots;
    Cycle accumulated = 0;     ///< finished occupancy
};

} // namespace cais

#endif // CAIS_GPU_SM_HH
