/** @file Unit tests for the memory-pressure attribution ledger. */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/banked_memory.hh"
#include "mem/bandwidth_resource.hh"
#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{
namespace
{

RequestorTag
tag(int source, int qos = 0,
    PressureTraffic traffic = PressureTraffic::DramFetch)
{
    RequestorTag t;
    t.source = std::int16_t(source);
    t.qosClass = std::uint8_t(qos);
    t.traffic = traffic;
    return t;
}

TEST(PressureLedgerTest, KeyMappingRoundTrips)
{
    PressureLedger ledger;
    int a = ledger.addSource("accA");
    int b = ledger.addSource("accB");
    int rt = ledger.addQosClass("realtime");
    BandwidthResource res("r", 1.0, 0);
    ledger.addResource(res);
    ledger.seal();

    EXPECT_EQ(ledger.numSources(), 2);
    EXPECT_EQ(ledger.numQosClasses(), 2); // implicit "default" + one
    EXPECT_EQ(ledger.numKeys(), 1 + 2 * 2 * numPressureTraffic);

    for (int src : {a, b}) {
        for (int qos : {0, rt}) {
            for (int t = 0; t < numPressureTraffic; ++t) {
                int key =
                    ledger.keyFor(tag(src, qos, PressureTraffic(t)));
                EXPECT_GT(key, 0);
                EXPECT_LT(key, ledger.numKeys());
                EXPECT_EQ(ledger.keySource(key), src);
                EXPECT_EQ(ledger.keyQos(key), qos);
                EXPECT_EQ(int(ledger.keyTraffic(key)), t);
            }
        }
    }
}

TEST(PressureLedgerTest, UntaggedAndOutOfRangeMapToKeyZero)
{
    PressureLedger ledger;
    ledger.addSource("accA");
    BandwidthResource res("r", 1.0, 0);
    ledger.addResource(res);
    ledger.seal();

    EXPECT_EQ(ledger.keyFor(RequestorTag{}), 0);
    EXPECT_EQ(ledger.keyFor(tag(7)), 0);  // source never registered
    EXPECT_EQ(ledger.keyFor(tag(0, 9)), 0); // class never registered
    EXPECT_EQ(ledger.keySource(0), -1);
}

TEST(PressureLedgerTest, SufferedDelayMatchesResourceAggregate)
{
    PressureLedger ledger;
    ledger.addSource("accA");
    ledger.addSource("accB");
    BandwidthResource res("r", 1.0, 0); // 1 B/ns
    int id = ledger.addResource(res);
    ledger.seal();

    res.claim(0, 100, 0, tag(0));             // [0, 100ns), no wait
    res.claim(0, 50, 0, tag(1));              // waits 100 ns
    res.claim(fromNs(120.0), 50, fromNs(120.0), tag(0)); // waits 30 ns

    EXPECT_EQ(res.waitTime(), fromNs(130.0));
    PressureLedger::Slot total = ledger.resourceTotal(id);
    EXPECT_EQ(total.waitSuffered, res.waitTime());
    EXPECT_EQ(total.bytes, res.totalBytes());
    EXPECT_EQ(total.transfers, res.numTransfers());
    // Every picosecond suffered is attributed to somebody.
    EXPECT_EQ(total.waitCaused, total.waitSuffered);
}

TEST(PressureLedgerTest, WaiterBlamesTheHolder)
{
    PressureLedger ledger;
    ledger.addSource("holder");
    ledger.addSource("waiter");
    BandwidthResource res("r", 1.0, 0);
    int id = ledger.addResource(res);
    ledger.seal();

    res.claim(0, 100, 0, tag(0)); // holds [0, 100ns)
    res.claim(0, 10, 0, tag(1));  // requests at 0, starts at 100 ns

    const auto &holder = ledger.slot(id, ledger.keyFor(tag(0)));
    const auto &waiter = ledger.slot(id, ledger.keyFor(tag(1)));
    EXPECT_EQ(holder.waitSuffered, 0u);
    EXPECT_EQ(holder.waitCaused, fromNs(100.0));
    EXPECT_EQ(waiter.waitSuffered, fromNs(100.0));
    EXPECT_EQ(waiter.waitCaused, 0u);
}

TEST(PressureLedgerTest, IdleGapIsBlamedOnTheNextHolder)
{
    PressureLedger ledger;
    ledger.addSource("late");
    ledger.addSource("waiter");
    BandwidthResource res("r", 1.0, 0);
    int id = ledger.addResource(res);
    ledger.seal();

    // The pipe idles over [0, 50ns), then "late" holds [50, 150ns).
    res.claim(fromNs(50.0), 100, fromNs(50.0), tag(0));
    // "waiter" asked at 0 and is pushed to 150 ns; the idle gap it
    // sat through is charged to the reservation that spans past it.
    res.claim(0, 10, 0, tag(1));

    const auto &late = ledger.slot(id, ledger.keyFor(tag(0)));
    const auto &waiter = ledger.slot(id, ledger.keyFor(tag(1)));
    EXPECT_EQ(waiter.waitSuffered, fromNs(150.0));
    EXPECT_EQ(late.waitCaused, fromNs(150.0));
}

TEST(PressureLedgerTest, ConservationHoldsAcrossRingRecycling)
{
    PressureLedger ledger;
    ledger.addSource("a");
    ledger.addSource("b");
    BandwidthResource res("r", 1.0, 0);
    int id = ledger.addResource(res);
    ledger.seal();

    // Far more claims than the ring's initial capacity, alternating
    // sources, with request times advancing so old entries expire and
    // the ring recycles in place rather than growing.
    Tick ask = 0;
    for (int i = 0; i < 1000; ++i) {
        ask += fromNs(30.0);
        res.claim(ask, 100, ask, tag(i % 2));
    }
    PressureLedger::Slot total = ledger.resourceTotal(id);
    EXPECT_EQ(total.transfers, 1000u);
    EXPECT_EQ(total.bytes, res.totalBytes());
    EXPECT_EQ(total.waitSuffered, res.waitTime());
    EXPECT_EQ(total.waitCaused, total.waitSuffered);
    EXPECT_GT(total.waitSuffered, 0u);
}

TEST(PressureLedgerTest, QueueDepthCountsOutstandingReservations)
{
    PressureLedger ledger;
    ledger.addSource("a");
    BandwidthResource res("r", 1.0, 0);
    int id = ledger.addResource(res);
    ledger.seal();

    EXPECT_EQ(ledger.queueDepth(id, 0), 0);
    res.claim(0, 100, 0, tag(0)); // [0, 100ns)
    res.claim(0, 100, 0, tag(0)); // [100, 200ns)
    res.claim(0, 100, 0, tag(0)); // [200, 300ns)
    EXPECT_EQ(ledger.queueDepth(id, 0), 3);
    EXPECT_EQ(ledger.queueDepth(id, fromNs(150.0)), 2);
    EXPECT_EQ(ledger.queueDepth(id, fromNs(250.0)), 1);
    EXPECT_EQ(ledger.queueDepth(id, fromNs(300.0)), 0);
}

TEST(PressureLedgerTest, TopContendersSortByDelayCaused)
{
    PressureLedger ledger;
    ledger.addSource("big");
    ledger.addSource("small");
    BandwidthResource res("r", 1.0, 0);
    int id = ledger.addResource(res);
    ledger.seal();

    res.claim(0, 1000, 0, tag(0)); // holds 1000 ns
    res.claim(0, 10, 0, tag(1));   // waits 1000 ns behind "big"
    res.claim(0, 10, 0, tag(1));   // waits 1010 ns more

    auto rows = ledger.topContenders(id, 8);
    ASSERT_EQ(rows.size(), 2u);
    // "big" caused 1000 ns; "small"'s first claim caused the second
    // one 10 ns of the 1010 it waited — still far less than "big".
    EXPECT_EQ(ledger.keySource(rows[0].key), 0);
    EXPECT_GT(rows[0].slot.waitCaused, rows[1].slot.waitCaused);
    auto top1 = ledger.topContenders(id, 1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].key, rows[0].key);
}

TEST(PressureLedgerTest, TaggedReserveTransferChargesEveryResource)
{
    PressureLedger ledger;
    ledger.addSource("a");
    BandwidthResource first("first", 1.0, 0);
    BandwidthResource second("second", 2.0, 0);
    int f = ledger.addResource(first);
    int s = ledger.addResource(second);
    ledger.seal();

    reserveTransfer({&first, &second}, 0, 100, tag(0));
    EXPECT_EQ(ledger.resourceTotal(f).bytes, 100u);
    EXPECT_EQ(ledger.resourceTotal(s).bytes, 100u);
    // Each resource's hold reflects its own rate.
    EXPECT_EQ(ledger.resourceTotal(f).serviceTicks, fromNs(100.0));
    EXPECT_EQ(ledger.resourceTotal(s).serviceTicks, fromNs(50.0));
}

TEST(PressureLedgerTest, ChainWaitIsMeasuredAgainstRequestTime)
{
    PressureLedger ledger;
    ledger.addSource("a");
    BandwidthResource busy("busy", 1.0, 0);
    BandwidthResource idle("idle", 1.0, 0);
    int busy_id = ledger.addResource(busy);
    int idle_id = ledger.addResource(idle);
    ledger.seal();

    busy.claim(0, 500, 0, tag(0)); // busy until 500 ns
    reserveTransfer({&busy, &idle}, 0, 100, tag(0));
    // The whole chain started at 500 ns. The busy pipe's backlog
    // caused that wait; the idle pipe just started late and charged
    // nothing — matching each resource's own waitTime() counter.
    EXPECT_EQ(ledger.resourceTotal(busy_id).waitSuffered, fromNs(500.0));
    EXPECT_EQ(ledger.resourceTotal(idle_id).waitSuffered, 0u);
    EXPECT_EQ(busy.waitTime(), fromNs(500.0));
    EXPECT_EQ(idle.waitTime(), 0u);
}

TEST(PressureLedgerTest, WriteJsonEmitsSchemaAndBalancedBooks)
{
    PressureLedger ledger;
    ledger.addSource("accA");
    ledger.addQosClass("realtime");
    BandwidthResource res("r", 1.0, 0);
    ledger.addResource(res);
    ledger.seal();

    res.claim(0, 100, 0, tag(0, 1, PressureTraffic::Writeback));
    res.claim(0, 100, 0, tag(0, 1, PressureTraffic::DramFetch));

    std::ostringstream out;
    JsonWriter w(out);
    ledger.writeJson(w, fromNs(200.0), {}, "relief-pressure-v1");
    std::string doc = out.str();
    EXPECT_NE(doc.find("\"schema\": \"relief-pressure-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"realtime\""), std::string::npos);
    EXPECT_NE(doc.find("\"writeback\""), std::string::npos);
    EXPECT_NE(doc.find("\"contenders\""), std::string::npos);

    std::ostringstream embedded;
    JsonWriter embedded_writer(embedded);
    ledger.writeJson(embedded_writer, fromNs(200.0), {}, nullptr);
    EXPECT_EQ(embedded.str().find("\"schema\""), std::string::npos);
}

// --- BankedMemory contention through the ledger ---

BankedMemoryConfig
bankedConfig()
{
    BankedMemoryConfig config;
    config.peakGBs = 10.0;
    config.accessLatency = 0;
    config.numBanks = 4;
    config.bankEfficiency = 0.5;
    config.bankLatency = 0;
    return config;
}

/** Hints mapping to distinct banks (probed via path identity). */
std::pair<std::uint64_t, std::uint64_t>
distinctBankHints(BankedMemory &mem)
{
    for (std::uint64_t h = 2; h < 64; ++h)
        if (mem.path(h)[0] != mem.path(1)[0])
            return {1, h};
    ADD_FAILURE() << "no distinct-bank hint found";
    return {1, 1};
}

TEST(BankedPressureTest, SameBankStreamsSerializeWithMutualBlame)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", bankedConfig());
    PressureLedger ledger;
    ledger.addSource("accA");
    ledger.addSource("accB");
    for (BandwidthResource *res : mem.pressureResources())
        ledger.addResource(*res);
    ledger.seal();

    auto path = mem.path(1);
    int bank_id = path[0]->ledgerId();
    ASSERT_GE(bank_id, 0);

    // Two streams on the same bank: the second serializes behind the
    // first for the bank's full hold (1 MiB at 5 GB/s ~ 200 us).
    const std::uint64_t bytes = 1 << 20;
    auto t1 = reserveTransfer(path, 0, bytes, tag(0));
    auto t2 = reserveTransfer(mem.path(1), 0, bytes, tag(1));
    EXPECT_GE(t2.start, t1.end - mem.channel().holdTime(bytes));

    const auto &first = ledger.slot(bank_id, ledger.keyFor(tag(0)));
    const auto &second = ledger.slot(bank_id, ledger.keyFor(tag(1)));
    EXPECT_GT(second.waitSuffered, 0u);
    EXPECT_EQ(first.waitCaused, second.waitSuffered);
    EXPECT_EQ(second.waitCaused, first.waitSuffered);
}

TEST(BankedPressureTest, DistinctBanksOverlapAndAggregateOnChannel)
{
    Simulator sim;
    BankedMemory mem(sim, "dram", bankedConfig());
    PressureLedger ledger;
    ledger.addSource("accA");
    ledger.addSource("accB");
    for (BandwidthResource *res : mem.pressureResources())
        ledger.addResource(*res);
    ledger.seal();

    auto [h1, h2] = distinctBankHints(mem);
    const std::uint64_t bytes = 1 << 20;
    auto t1 = reserveTransfer(mem.path(h1), 0, bytes, tag(0));
    auto t2 = reserveTransfer(mem.path(h2), 0, bytes, tag(1));

    // Distinct banks overlap their row work: the pair finishes well
    // before the same-bank case (two full bank holds back to back).
    Tick bank_hold = mem.path(h1)[0]->holdTime(bytes);
    EXPECT_LT(std::max(t1.end, t2.end), 2 * bank_hold);

    // Both streams still serialize on the shared channel, and the
    // channel sees the aggregate byte count.
    int channel_id = mem.channel().ledgerId();
    PressureLedger::Slot channel = ledger.resourceTotal(channel_id);
    EXPECT_EQ(channel.bytes, 2 * bytes);
    EXPECT_EQ(channel.waitCaused, channel.waitSuffered);

    // No cross-stream blame on either bank — contention lives only
    // on the channel.
    int b1 = mem.path(h1)[0]->ledgerId();
    int b2 = mem.path(h2)[0]->ledgerId();
    EXPECT_EQ(ledger.resourceTotal(b1).waitSuffered, 0u);
    EXPECT_EQ(ledger.resourceTotal(b2).waitSuffered, 0u);
}

} // namespace
} // namespace relief
