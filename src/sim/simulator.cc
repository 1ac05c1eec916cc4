#include "sim/simulator.hh"

namespace relief
{

Tick
Simulator::run(Tick limit)
{
    stopRequested_ = false;
    while (!stopRequested_ && events_.runOne(limit))
        ;
    return now();
}

} // namespace relief
