#include "mem/bandwidth_resource.hh"

#include "sim/hostprof.hh"

#include <algorithm>
#include <utility>

#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"

namespace relief
{

BandwidthResource::BandwidthResource(std::string name, double gbPerSec,
                                     Tick fixedLatency)
    : name_(std::move(name)), gbPerSec_(gbPerSec),
      fixedLatency_(fixedLatency)
{
    RELIEF_ASSERT(gbPerSec > 0.0, "resource ", name_,
                  " needs positive bandwidth");
}

Tick
BandwidthResource::holdTime(std::uint64_t bytes) const
{
    return fixedLatency_ + transferTime(bytes, gbPerSec_);
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes)
{
    return claim(earliest, bytes, earliest, RequestorTag{});
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes,
                         Tick request_time, const RequestorTag &tag)
{
    // Queueing delay at *this* resource: how far its existing backlog
    // alone pushes the claim past its request time. A chain's common
    // start (earliest) can be later still — that wait belongs to the
    // other resources in the path and is accounted there.
    Tick pending = nextFree_ > request_time ? nextFree_ - request_time : 0;
    waitTicks_ += pending;

    Tick start = std::max(earliest, nextFree_);
    Tick hold = holdTime(bytes);
    Tick end = start + hold;
    nextFree_ = end;
    busy_.add(request_time, start, end);
    totalBytes_.add(bytes);
    numTransfers_.add(1);
    if (ledger_)
        ledger_->record(ledgerId_, tag, request_time, pending, start,
                        hold, bytes);
    return start;
}

double
BandwidthResource::occupancy(Tick upTo) const
{
    if (upTo == 0)
        return 0.0;
    return double(busyTime(upTo)) / double(upTo);
}

void
BandwidthResource::resetStats()
{
    totalBytes_.reset();
    numTransfers_.reset();
    waitTicks_ = 0;
    busy_.clear();
}

TransferTiming
reserveTransfer(const std::vector<BandwidthResource *> &path, Tick now,
                std::uint64_t bytes)
{
    return reserveTransfer(path, now, bytes, RequestorTag{});
}

TransferTiming
reserveTransfer(const std::vector<BandwidthResource *> &path, Tick now,
                std::uint64_t bytes, const RequestorTag &tag)
{
    RELIEF_ASSERT(!path.empty(), "transfer over an empty resource path");
    // Attribute reservation work (occupancy walk, claims, the ledger
    // behind them) to the memory system rather than the DMA event
    // driving it; free when host profiling is off.
    HostProfScope prof(HostCat::Mem);

    Tick start = now;
    Tick latencySum = 0;
    double minBw = path.front()->bandwidth();
    for (const auto *res : path) {
        start = std::max(start, res->nextFree());
        latencySum += res->fixedLatency();
        minBw = std::min(minBw, res->bandwidth());
    }
    // Claim each resource from the common start so FIFO order is
    // preserved across the chain; each measures its own queueing
    // contribution against the request time.
    for (auto *res : path)
        res->claim(start, bytes, now, tag);

    TransferTiming timing;
    timing.start = start;
    timing.end = start + latencySum + transferTime(bytes, minBw);
    return timing;
}

} // namespace relief
