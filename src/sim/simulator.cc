#include "sim/simulator.hh"

namespace relief
{

Tick
Simulator::run(Tick limit)
{
    while (events_.runOne(limit))
        ;
    return now();
}

} // namespace relief
