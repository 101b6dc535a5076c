/**
 * @file
 * Round-robin arbiter, as used by NVSwitch port arbitration and by
 * CAIS's traffic control between load and reduction virtual channels
 * (Sec. III-C of the paper).
 */

#ifndef CAIS_NOC_ARBITER_HH
#define CAIS_NOC_ARBITER_HH

#include <cstdint>

#include "common/types.hh"

namespace cais
{

/** Stateful round-robin arbiter over at most 32 requesters. */
class RoundRobinArbiter
{
  public:
    /** Widest arbitration: one bit of the ready mask per input. */
    static constexpr int maxInputs = 32;

    explicit RoundRobinArbiter(int num_inputs);

    /**
     * Grant the first ready input at or after cursor(), wrapping.
     * @param ready bit i set when input i is requesting.
     * @return granted input index, or -1 if none ready.
     */
    int pick(std::uint32_t ready);

    /** Number of inputs arbitrated over. */
    int inputs() const { return n; }

    /** Index that would be checked first on the next pick. */
    int cursor() const { return last + 1 == n ? 0 : last + 1; }

  private:
    int n;
    int last;
};

} // namespace cais

#endif // CAIS_NOC_ARBITER_HH
