/**
 * @file
 * Heap allocations on the simulator's hot paths, counted with the
 * benchmark's operator-new replacement (perfbench/alloc_count.cc is
 * linked into this binary). A DMA transfer reuses its engine's route
 * table and pooled chunk states, and its completion lives inside the
 * event (a Completion), so once warm it allocates nothing; nor does a
 * RELIEF decision, written in place in the decision log's ring.
 * Busy-time accounting keeps only the intervals still in flight, so
 * whole runs allocate only as their records grow (latency records,
 * decision logs). Serve reuses pooled request DAGs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_count.hh"
#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "sched/decision_log.hh"
#include "serve/server.hh"
#include "workload/scenario.hh"

namespace relief
{
namespace
{

struct Platform
{
    const char *name;
    FabricKind fabric;
    bool banked;
    std::uint64_t burstBytes;
};

const Platform platforms[] = {
    {"flat bus", FabricKind::Bus, false, 0},
    {"banked bus", FabricKind::Bus, true, 0},
    {"banked crossbar, 1 KiB bursts", FabricKind::Crossbar, true, 1024},
    {"flat ring", FabricKind::Ring, false, 0},
};

SocConfig
socConfig(const Platform &platform)
{
    SocConfig config;
    config.fabric = platform.fabric;
    config.bankedMemory = platform.banked;
    config.dma.burstBytes = platform.burstBytes;
    return config;
}

/**
 * @p rounds rounds of one DRAM read, one write-back and one forward
 * from @p producer's scratchpad into @p acc's, each round run to
 * completion. Stream hints cycle so banked memory uses every bank.
 */
void
transferRounds(Soc &soc, Accelerator &acc, Accelerator &producer,
               int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        auto hint = std::uint64_t(i % 16);
        acc.dma().readFromDram(4096, nullptr, hint);
        acc.dma().writeToDram(4096, nullptr, hint);
        acc.dma().forwardFrom(producer.spm(), producer.dma().port(), 4096,
                              nullptr);
        soc.run();
    }
}

TEST(AllocationTest, WarmTransfersAllocateNothing)
{
    for (const Platform &platform : platforms) {
        Soc soc(socConfig(platform));
        std::vector<Accelerator *> accs = soc.accelerators();
        ASSERT_GE(accs.size(), 2u);
        Accelerator &acc = *accs[0];
        Accelerator &producer = *accs[1];

        // Warm-up: each route's first transfer builds it; the rest
        // size the event slab. The occupancy interval stores hold only
        // the intervals in flight, a few entries each, so the warm-up
        // also sizes them.
        transferRounds(soc, acc, producer, 1000);

        std::uint64_t before = allocationCount();
        transferRounds(soc, acc, producer, 1000);
        std::uint64_t allocs = allocationCount() - before;
        EXPECT_EQ(allocs, 0u) << platform.name;
        EXPECT_EQ(acc.dma().outstandingBytes(), 0u) << platform.name;
    }
}

/** A forward whose completion captures what the hardware manager's
 *  does — `this`, the consumer's state, the producer scratchpad and
 *  the partition — filling Completion's whole buffer. */
TEST(AllocationTest, WarmForwardWithTheManagersCompletionAllocatesNothing)
{
    for (const Platform &platform : platforms) {
        Soc soc(socConfig(platform));
        std::vector<Accelerator *> accs = soc.accelerators();
        ASSERT_GE(accs.size(), 2u);
        Accelerator &acc = *accs[0];
        Scratchpad &producer_spm = accs[1]->spm();
        producer_spm.allocateOutput(0, 1, 4096);
        producer_spm.produceOutput(0);

        struct Consumer
        {
            int pendingInputs = 0;
            int landed = 0;
            Tick lastLanded = 0;
        } state;
        auto forwardRounds = [&](int rounds) {
            for (int i = 0; i < rounds; ++i) {
                producer_spm.beginRead(0);
                ++state.pendingInputs;
                auto done = [&soc, &state, spm = &producer_spm, part = 0]() {
                    spm->endRead(part);
                    if (--state.pendingInputs == 0) {
                        ++state.landed;
                        state.lastLanded = soc.sim().now();
                    }
                };
                static_assert(sizeof(done) == Completion::capacity);
                acc.dma().forwardFrom(producer_spm, accs[1]->dma().port(),
                                      4096, std::move(done));
                soc.run();
            }
        };

        forwardRounds(1000); // builds the route, sizes the event slab
        std::uint64_t before = allocationCount();
        forwardRounds(1000);
        std::uint64_t allocs = allocationCount() - before;
        EXPECT_EQ(allocs, 0u) << platform.name;
        EXPECT_EQ(state.landed, 2000) << platform.name;
        EXPECT_EQ(state.lastLanded, soc.sim().now()) << platform.name;
        EXPECT_EQ(producer_spm.partition(0).ongoingReads, 0u)
            << platform.name;
        EXPECT_EQ(soc.sim().events().numHeapCallables(), 0u)
            << platform.name;
    }
}

/** Once each ring slot has held its label, a full lap of decisions
 *  reuses the slots' strings. */
TEST(AllocationTest, WarmDecisionLogLapAllocatesNothing)
{
    DecisionLog log;
    Node candidate;
    Node victim;
    // Both labels are past the small-string buffer.
    candidate.label = "canny.non_max_suppression.tile3";
    victim.label = "deblur.iteration7.convolution";
    auto lap = [&](bool every_victim) {
        for (std::size_t i = 0; i < DecisionLog::capacity; ++i) {
            candidate.id = NodeId(i + 1);
            bool granted = !every_victim && i % 3 == 0;
            log.record(Tick(i), candidate, i % 8,
                       granted ? PromotionReason::Feasible
                               : PromotionReason::VictimWouldMiss,
                       granted ? nullptr : &victim, -STick(i));
        }
    };

    lap(true); // sizes the ring and each slot's strings
    std::uint64_t before = allocationCount();
    lap(false);
    lap(false);
    std::uint64_t allocs = allocationCount() - before;
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(log.size(), 3 * DecisionLog::capacity);
    const PromotionDecision &last = log.at(log.size() - 1);
    EXPECT_EQ(last.label, candidate.label);
    EXPECT_EQ(last.node, NodeId(DecisionLog::capacity));
    EXPECT_TRUE(last.granted); // slot 1023: granted, no victim
    EXPECT_TRUE(last.victim.empty());
    EXPECT_EQ(log.at(log.size() - 2).victim, victim.label);
}

/** Allocations per executed event inside Soc::run of a continuous CDL
 *  run under RELIEF; set-up (Soc, DAG builds) is not counted. */
double
continuousAllocsPerEvent(const SocConfig &config)
{
    resetNodeIds();
    Soc soc(config);
    for (AppId app : parseMix("CDL"))
        soc.submit(buildApp(app), 0, true);
    std::uint64_t before = allocationCount();
    soc.run(continuousWindow);
    std::uint64_t allocs = allocationCount() - before;
    std::uint64_t events = soc.sim().events().numExecuted();
    EXPECT_GT(events, 0u);
    return events ? double(allocs) / double(events) : 0.0;
}

TEST(AllocationTest, ContinuousReliefRunAllocatesRarely)
{
    SocConfig config;
    config.policy = PolicyKind::Relief;
    EXPECT_LE(continuousAllocsPerEvent(config), 0.2);
}

TEST(AllocationTest, BankedBurstRunAllocatesRarely)
{
    SocConfig config = socConfig(platforms[2]);
    config.policy = PolicyKind::Relief;
    EXPECT_LE(continuousAllocsPerEvent(config), 0.02);
}

/** Allocations per executed event of a laxity-admitted serve run near
 *  the platform's capacity (~340 requests/s); the driver's set-up is
 *  not counted. Request DAGs come from per-(app, class) pools, so once
 *  a pool holds as many instances as it has requests in flight, an
 *  arrival builds nothing; forwards and RELIEF decisions allocate
 *  nothing (0.137 per event; 0.373 before they stopped). Kept request
 *  traces are records and would add to the count, so tracing stays
 *  off. */
TEST(AllocationTest, ServeRunAllocatesRarely)
{
    ServeConfig config;
    config.soc.policy = PolicyKind::Relief;
    config.arrival.ratePerSec = 250.0;
    config.admission.kind = AdmissionKind::Laxity;
    config.horizon = fromMs(5000.0);
    ServeDriver driver(config);

    std::uint64_t before = allocationCount();
    ServeReport report = driver.run();
    std::uint64_t allocs = allocationCount() - before;
    std::uint64_t events = driver.soc().sim().events().numExecuted();
    ASSERT_GT(report.total.completed, 100u);
    ASSERT_GT(events, 0u);
    EXPECT_LE(double(allocs) / double(events), 0.2)
        << allocs << " allocations over " << events << " events";
}

} // namespace
} // namespace relief
