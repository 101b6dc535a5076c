/**
 * @file
 * Round-robin arbiter, as used by NVSwitch port arbitration and by
 * CAIS's traffic control between load and reduction virtual channels
 * (Sec. III-C of the paper).
 */

#ifndef CAIS_NOC_ARBITER_HH
#define CAIS_NOC_ARBITER_HH

#include <functional>

#include "common/types.hh"

namespace cais
{

/** Stateful round-robin arbiter over a fixed number of requesters. */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int num_inputs);

    /**
     * Grant the next ready input after the previous grant.
     * @param ready predicate telling whether input i is requesting.
     * @return granted input index, or -1 if none ready.
     */
    int pick(const std::function<bool(int)> &ready);

    /** Number of inputs arbitrated over. */
    int inputs() const { return n; }

    /** Index that would be checked first on the next pick. */
    int cursor() const { return (last + 1) % n; }

  private:
    int n;
    int last;
};

} // namespace cais

#endif // CAIS_NOC_ARBITER_HH
