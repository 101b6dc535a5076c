#include "noc/arbiter.hh"

#include <bit>

#include "common/log.hh"

namespace cais
{

RoundRobinArbiter::RoundRobinArbiter(int num_inputs)
    : n(num_inputs), last(num_inputs - 1)
{
    if (num_inputs <= 0 || num_inputs > maxInputs)
        panic("arbiter needs 1..%d inputs, one ready-mask bit each "
              "(got %d)",
              maxInputs, num_inputs);
}

int
RoundRobinArbiter::pick(std::uint32_t ready)
{
    if (n < maxInputs)
        ready &= (1u << n) - 1;
    if (ready == 0)
        return -1;
    // Inputs at or after the cursor take priority; wrap to the lowest
    // ready input otherwise.
    std::uint32_t ahead = ready & (~0u << cursor());
    last = std::countr_zero(ahead ? ahead : ready);
    return last;
}

} // namespace cais
