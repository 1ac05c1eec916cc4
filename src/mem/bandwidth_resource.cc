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
    if (!row_)
        unsealedPanic();
    // Every burst of a chunked transfer has the same size.
    if (bytes != holdBytes_) {
        holdBytes_ = bytes;
        hold_ = holdTime(bytes);
    }
    PressureSlot &own = row_[key];
    own.bytes += bytes;
    own.transfers += 1;
    own.serviceTicks += hold_;
    latestRequest_ = std::max(latestRequest_, request_time);

    if (nextFree_ <= request_time) {
        // Every held reservation has ended by the request time (the
        // newest ends at nextFree_): none delays this claim, and none
        // can delay a later one.
        held_.clear();
        head_ = 0;
    } else {
        // Queueing delay at *this* resource: how far its existing
        // backlog alone pushes the claim past its request time. A
        // chain's common start (earliest) can be later still — that
        // wait belongs to the other resources in the path and is
        // accounted there.
        Tick pending = nextFree_ - request_time;
        own.waitSuffered += pending;
        // Reservations ended by the request time delay no one any
        // more. The newest ends past it, so the scan stops in range.
        while (held_[head_].end <= request_time)
            ++head_;
        chargeWait(request_time, pending);
        if (held_.size() == held_.capacity() && head_ > 0) {
            // Reclaim ended entries instead of growing: the record is
            // bounded by the work in flight.
            held_.erase(held_.begin(),
                        held_.begin() + std::ptrdiff_t(head_));
            head_ = 0;
        }
    }
    Tick start = std::max(earliest, nextFree_);
    nextFree_ = start + hold_;
    held_.push_back({start, nextFree_, std::int32_t(key)});
    return start;
}

void
BandwidthResource::chargeWait(Tick request_time, Tick pending)
{
    // Walk the wait interval [request_time, request_time+pending) over
    // the outstanding reservations, oldest first, charging each
    // segment to the reservation covering the pipe or, across an idle
    // gap or a pruned entry, the next one holding it. The newest entry
    // ends exactly where the wait does and after the request time, so
    // no pruning has dropped it and the whole interval is always
    // attributed: caused == suffered per resource. A pruned entry can
    // overlap the wait only when this request time lags an earlier
    // claim's, which only the public tagged claim() allows (claimRoute
    // passes one clock).
    Tick low = request_time;
    Tick wait_end = request_time + pending;
    for (auto r = held_.begin() + std::ptrdiff_t(head_);
         r != held_.end() && low < wait_end; ++r) {
        if (r->end <= low)
            continue;
        Tick hi = std::min(r->end, wait_end);
        row_[r->key].waitCaused += hi - low;
        low = hi;
    }
    RELIEF_ASSERT(low == wait_end, name_, ": wait walk stopped at ", low,
                  " short of ", wait_end);
}

void
BandwidthResource::unsealedPanic() const
{
    panic("pressure ledger recording before seal(): resource ", name_,
          " is attached but has no counter row");
}

PressureSlot
BandwidthResource::total() const
{
    PressureSlot sum;
    for (int key = 0; key < rowKeys_; ++key)
        sum.accumulate(row_[key]);
    return sum;
}

Tick
BandwidthResource::busyTime(Tick upTo) const
{
    RELIEF_ASSERT(upTo >= latestRequest_, "busy time of ", name_,
                  " queried up to ", upTo, ", before request time ",
                  latestRequest_);
    // A hold ending past upTo ends past every request time, so it is
    // still in the record, at its end: subtract the overhang.
    Tick busy = total().serviceTicks;
    for (auto r = held_.rbegin(); r != held_.rend() - head_ && r->end > upTo;
         ++r) {
        busy -= r->end - std::max(r->start, upTo);
    }
    return busy;
}

int
BandwidthResource::queueDepth(Tick now) const
{
    // Reservation ends are non-decreasing (FIFO pipe), so the count
    // of entries still outstanding at @p now is a binary search away.
    auto it = std::upper_bound(
        held_.begin() + std::ptrdiff_t(head_), held_.end(), now,
        [](Tick t, const Reservation &r) { return t < r.end; });
    return int(held_.end() - it);
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
