/**
 * @file
 * A ledger-attached BandwidthResource against a reference model.
 *
 * The resource keeps one FIFO record of its outstanding reservations
 * and derives busy time, queue depth and the ledger's caused-wait walk
 * from it. The reference keeps them apart: an IntervalUnion of the
 * holds for busy time, and a reservation ring pruned at each request
 * time for the walk and the queue depth. Randomised claims must give
 * exactly the same numbers from both.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "mem/pressure_ledger.hh"
#include "stats/interval_union.hh"

namespace relief
{
namespace
{

/** The reference: busy intervals and the caused-wait ring kept apart. */
class ReferencePipe
{
  public:
    ReferencePipe(const BandwidthResource &res, int num_keys)
        : res_(res), suffered_(num_keys), caused_(num_keys)
    {
    }

    Tick
    claim(Tick earliest, std::uint64_t bytes, Tick request_time, int key)
    {
        Tick pending = nextFree_ > request_time ? nextFree_ - request_time
                                                : 0;
        wait_ += pending;
        suffered_[key] += pending;
        Tick start = std::max(earliest, nextFree_);
        Tick end = start + res_.holdTime(bytes);
        nextFree_ = end;
        busy_.add(request_time, start, end);

        while (head_ < ring_.size() && ring_[head_].end <= request_time)
            ++head_;
        Tick low = request_time;
        Tick wait_end = request_time + pending;
        for (std::size_t i = head_; i < ring_.size() && low < wait_end;
             ++i) {
            if (ring_[i].end <= low)
                continue;
            Tick hi = std::min(ring_[i].end, wait_end);
            caused_[ring_[i].key] += hi - low;
            low = hi;
        }
        if (low < wait_end)
            caused_[0] += wait_end - low;
        ring_.push_back({start, end, key});
        return start;
    }

    int
    queueDepth(Tick now) const
    {
        int depth = 0;
        for (std::size_t i = head_; i < ring_.size(); ++i)
            depth += ring_[i].end > now;
        return depth;
    }

    Tick busyTime(Tick up_to) const { return busy_.covered(up_to); }
    Tick waitTime() const { return wait_; }
    Tick nextFree() const { return nextFree_; }
    Tick suffered(int key) const { return suffered_[std::size_t(key)]; }
    Tick caused(int key) const { return caused_[std::size_t(key)]; }

  private:
    struct Entry
    {
        Tick start;
        Tick end;
        int key;
    };

    const BandwidthResource &res_;
    IntervalUnion busy_;
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    Tick nextFree_ = 0;
    Tick wait_ = 0;
    std::vector<Tick> suffered_;
    std::vector<Tick> caused_;
};

/**
 * 10 k tagged claims on a resource of @p latency: bursts at one request
 * time separated by idle gaps or overlapping the backlog, zero-byte
 * claims, and request times that lag an earlier claim's. After every
 * claim each derived value is compared with the reference.
 */
void
checkAgainstReference(Tick latency, std::uint64_t seed)
{
    PressureLedger ledger;
    ledger.addSource("a");
    ledger.addSource("b");
    ledger.addQosClass("realtime");
    BandwidthResource res("r", 2.5, latency);
    int id = ledger.addResource(res);
    ledger.seal();
    ReferencePipe ref(res, ledger.numKeys());

    std::mt19937_64 rng(seed);
    auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    const int claims = 10000;
    Tick clock = 0;
    Tick latest = 0; // latest request time, as busyTime requires
    for (int i = 0; i < claims; ++i) {
        if (pick(0, 3) == 0) // a new burst, after a gap or mid-backlog
            clock += fromNs(double(pick(0, 600)));
        Tick request = clock;
        if (pick(0, 9) == 0) // lags an earlier claim's request time
            request -= std::min(clock, fromNs(double(pick(1, 300))));
        Tick earliest = request + (pick(0, 4) == 0 ? pick(0, 5000) : 0);
        std::uint64_t bytes = pick(0, 5) == 0 ? 0 : pick(1, 512);

        RequestorTag tag;
        tag.source = std::int16_t(int(pick(0, 2)) - 1); // -1: untagged
        tag.qosClass = std::uint8_t(pick(0, 1));
        tag.traffic = PressureTraffic(pick(0, numPressureTraffic - 1));
        int key = ledger.keyFor(tag);

        Tick start = res.claim(earliest, bytes, request, tag);
        ASSERT_EQ(start, ref.claim(earliest, bytes, request, key))
            << "claim " << i;
        latest = std::max(latest, request);
        ASSERT_EQ(res.nextFree(), ref.nextFree());

        for (Tick up_to :
             {latest, latest + 1, start, ref.nextFree() - 1,
              ref.nextFree(), ref.nextFree() + fromNs(10.0), maxTick}) {
            if (up_to < latest)
                continue;
            ASSERT_EQ(res.busyTime(up_to), ref.busyTime(up_to))
                << "claim " << i << " upTo " << up_to;
        }
        for (Tick now : {request, latest, start, ref.nextFree() - 1,
                         ref.nextFree()}) {
            ASSERT_EQ(ledger.queueDepth(id, now), ref.queueDepth(now))
                << "claim " << i << " now " << now;
        }
        ASSERT_EQ(res.waitTime(), ref.waitTime()) << "claim " << i;
        Tick suffered = 0;
        Tick caused = 0;
        for (int k = 0; k < ledger.numKeys(); ++k) {
            const PressureLedger::Slot &slot = ledger.slot(id, k);
            ASSERT_EQ(slot.waitSuffered, ref.suffered(k))
                << "claim " << i << " key " << k;
            ASSERT_EQ(slot.waitCaused, ref.caused(k))
                << "claim " << i << " key " << k;
            suffered += slot.waitSuffered;
            caused += slot.waitCaused;
        }
        ASSERT_EQ(caused, suffered) << "claim " << i;
    }
    // The stream really queued and idled.
    EXPECT_GT(res.waitTime(), 0u);
    EXPECT_LT(res.busyTime(latest), latest);
}

TEST(ReservationRecordTest, ZeroLatencyResourceMatchesReference)
{
    checkAgainstReference(0, 11);
}

TEST(ReservationRecordTest, LatencyResourceMatchesReference)
{
    checkAgainstReference(fromNs(7.0), 12);
}

} // namespace
} // namespace relief
