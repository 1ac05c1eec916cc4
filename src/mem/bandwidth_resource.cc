#include "mem/bandwidth_resource.hh"

#include "sim/hostprof.hh"

#include <algorithm>
#include <tuple>
#include <utility>

#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"

namespace relief
{

BandwidthResource::BandwidthResource(std::string name, double gbPerSec,
                                     Tick fixedLatency)
    : name_(std::move(name)), gbPerSec_(gbPerSec),
      fixedLatency_(fixedLatency), hold_(fixedLatency)
{
    RELIEF_ASSERT(gbPerSec > 0.0, "resource ", name_,
                  " needs positive bandwidth");
    // Room for every tier-1 mix's backlog: the hot path never grows it.
    held_.reserve(64);
}

Tick
BandwidthResource::holdTime(std::uint64_t bytes) const
{
    return fixedLatency_ + transferTime(bytes, gbPerSec_);
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes)
{
    return reserve(earliest, bytes, earliest, 0);
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes,
                         Tick request_time, const RequestorTag &tag)
{
    return reserve(earliest, bytes, request_time,
                   ledger_ ? ledger_->keyFor(tag) : 0);
}

Tick
BandwidthResource::reserve(Tick earliest, std::uint64_t bytes,
                           Tick request_time, int key)
{
    // Queueing delay at *this* resource: how far its existing backlog
    // alone pushes the claim past its request time. A chain's common
    // start (earliest) can be later still — that wait belongs to the
    // other resources in the path and is accounted there.
    Tick pending = nextFree_ > request_time ? nextFree_ - request_time : 0;
    waitTicks_ += pending;

    // Every burst of a chunked transfer has the same size.
    if (bytes != holdBytes_) {
        holdBytes_ = bytes;
        hold_ = holdTime(bytes);
    }
    Tick start = std::max(earliest, nextFree_);
    nextFree_ = start + hold_;
    heldTicks_ += hold_;
    latestRequest_ = std::max(latestRequest_, request_time);
    totalBytes_.add(bytes);
    numTransfers_.add(1);

    // Reservations ended by the request time delay no one any more.
    while (head_ < held_.size() && held_[head_].end <= request_time)
        ++head_;
    if (ledger_)
        ledger_->record(*this, key, request_time, pending, hold_, bytes);
    if (held_.size() == held_.capacity() && head_ > 0) {
        // Reclaim ended entries instead of growing: the record is
        // bounded by the work in flight.
        held_.erase(held_.begin(), held_.begin() + std::ptrdiff_t(head_));
        head_ = 0;
    }
    held_.push_back({start, nextFree_, std::int32_t(key)});
    return start;
}

Tick
BandwidthResource::busyTime(Tick upTo) const
{
    RELIEF_ASSERT(upTo >= latestRequest_, "busy time of ", name_,
                  " queried up to ", upTo, ", before request time ",
                  latestRequest_);
    // A hold ending past upTo ends past every request time, so it is
    // still in the record, at its end: subtract the overhang.
    Tick busy = heldTicks_;
    for (auto r = held_.rbegin(); r != held_.rend() - head_ && r->end > upTo;
         ++r) {
        busy -= r->end - std::max(r->start, upTo);
    }
    return busy;
}

double
BandwidthResource::occupancy(Tick upTo) const
{
    if (upTo == 0)
        return 0.0;
    return double(busyTime(upTo)) / double(upTo);
}

namespace
{

/** Sum of @p hops' fixed latencies, and the first hop of least
 *  bandwidth. */
std::pair<Tick, BandwidthResource *>
routeConstants(const std::vector<BandwidthResource *> &hops)
{
    RELIEF_ASSERT(!hops.empty(), "transfer over an empty resource path");
    std::pair<Tick, BandwidthResource *> constants{0, hops.front()};
    for (BandwidthResource *res : hops) {
        constants.first += res->fixedLatency();
        if (res->bandwidth() < constants.second->bandwidth())
            constants.second = res;
    }
    return constants;
}

} // namespace

void
ResourceRoute::finish()
{
    std::tie(latencySum, slowest) = routeConstants(hops);
}

TransferTiming
claimRoute(const std::vector<BandwidthResource *> &hops, Tick latency_sum,
           BandwidthResource &slowest, Tick now, std::uint64_t bytes,
           const RequestorTag &tag)
{
    // Attribute reservation work (claims and the ledger behind them)
    // to the memory system rather than the DMA event driving it; free
    // when host profiling is off.
    HostProfScope prof(HostCat::Mem);

    Tick start = now;
    for (const BandwidthResource *res : hops)
        start = std::max(start, res->nextFree_);
    // Claim each resource from the common start so FIFO order is
    // preserved across the chain; each measures its own queueing
    // contribution against the request time. The hops normally share
    // one ledger, so the key is resolved once per transfer.
    const PressureLedger *keyed = nullptr;
    int key = 0;
    for (BandwidthResource *res : hops) {
        if (res->ledger_ != keyed) {
            keyed = res->ledger_;
            key = keyed ? keyed->keyFor(tag) : 0;
        }
        res->reserve(start, bytes, now, key);
    }
    // The slowest hop's hold, less its latency, is bytes over the
    // bottleneck bandwidth.
    return {start, start + latency_sum + slowest.hold_ -
                       slowest.fixedLatency_};
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
    auto [latency_sum, slowest] = routeConstants(path);
    return claimRoute(path, latency_sum, *slowest, now, bytes, tag);
}

TransferTiming
reserveTransfer(const ResourceRoute &route, Tick now, std::uint64_t bytes,
                const RequestorTag &tag)
{
    return claimRoute(route.hops, route.latencySum, *route.slowest, now,
                      bytes, tag);
}

} // namespace relief
