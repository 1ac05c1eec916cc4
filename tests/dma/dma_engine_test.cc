/** @file Unit tests for the DMA engine. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dma/dma_engine.hh"
#include "interconnect/bus.hh"
#include "interconnect/ring.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

class DmaEngineTest : public ::testing::Test
{
  protected:
    DmaEngineTest()
    {
        bus_config.arbitrationLatency = 0;
        bus_config.bandwidthGBs = 100.0; // not the bottleneck
        mem_config.accessLatency = 0;
        mem_config.peakGBs = 2.0;
        mem_config.efficiency = 1.0; // 2 B/ns effective
        spm_config.portLatency = 0;
        spm_config.portGBs = 100.0;
        dma_config.setupLatency = 0;
        dma_config.channelGBs = 100.0;
    }

    void
    build()
    {
        bus = std::make_unique<Bus>(sim, "bus", bus_config);
        dram = std::make_unique<MainMemory>(sim, "dram", mem_config);
        dram_port = bus->registerPort("dram");
        spm = std::make_unique<Scratchpad>(sim, "spm", spm_config);
        dma = std::make_unique<DmaEngine>(sim, "dma", *bus, dram_port,
                                          *dram, *spm, dma_config);
    }

    Simulator sim;
    BusConfig bus_config;
    MainMemoryConfig mem_config;
    ScratchpadConfig spm_config;
    DmaConfig dma_config;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<MainMemory> dram;
    PortId dram_port = -1;
    std::unique_ptr<Scratchpad> spm;
    std::unique_ptr<DmaEngine> dma;
};

TEST_F(DmaEngineTest, DramReadTimingFollowsBottleneck)
{
    build();
    Tick end = dma->readFromDram(200, nullptr);
    EXPECT_EQ(end, fromNs(100.0)); // 200 B at 2 B/ns DRAM
}

TEST_F(DmaEngineTest, DmaFlagPrintsTheLaunchLine)
{
    build();
    std::vector<std::string> lines;
    LogSink previous = setLogSink(
        [&lines](LogLevel, const std::string &msg) {
            lines.push_back(msg);
        });
    clearDebugFlags();
    setDebugFlag(DebugFlag::Dma);
    dma->readFromDram(200, nullptr);
    clearDebugFlags();
    setLogSink(std::move(previous));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("dma: dram-read launch 200 bytes, done at " +
                            std::to_string(fromNs(100.0))),
              std::string::npos)
        << lines[0];
}

TEST_F(DmaEngineTest, CallbackFiresAtCompletion)
{
    build();
    Tick fired_at = 0;
    dma->readFromDram(200, [&] { fired_at = sim.now(); });
    sim.run();
    EXPECT_EQ(fired_at, fromNs(100.0));
}

TEST_F(DmaEngineTest, ReadAccountsDramAndSpmTraffic)
{
    build();
    dma->readFromDram(128, nullptr);
    EXPECT_EQ(dram->readBytes(), 128u);
    EXPECT_EQ(spm->writeBytes(), 128u);
    EXPECT_EQ(dma->bytesMoved(TrafficClass::DramRead), 128u);
}

TEST_F(DmaEngineTest, WriteAccountsDramAndSpmTraffic)
{
    build();
    dma->writeToDram(128, nullptr);
    EXPECT_EQ(dram->writeBytes(), 128u);
    EXPECT_EQ(spm->readBytes(), 128u);
    EXPECT_EQ(dma->bytesMoved(TrafficClass::DramWrite), 128u);
}

TEST_F(DmaEngineTest, ReadAndWriteChannelsAreIndependent)
{
    build();
    Tick r = dma->readFromDram(200, nullptr);
    Tick w = dma->writeToDram(200, nullptr);
    // Both contend on DRAM, so the write queues there, but the read
    // channel itself never blocks the write channel.
    EXPECT_EQ(r, fromNs(100.0));
    EXPECT_EQ(w, fromNs(200.0));
    EXPECT_EQ(dma->readChannelFree(), fromNs(2.0));
    EXPECT_GT(dma->writeChannelFree(), dma->readChannelFree());
}

TEST_F(DmaEngineTest, BackToBackReadsQueueOnDram)
{
    build();
    Tick t1 = dma->readFromDram(200, nullptr);
    Tick t2 = dma->readFromDram(200, nullptr);
    EXPECT_EQ(t1, fromNs(100.0));
    EXPECT_EQ(t2, fromNs(200.0));
}

TEST_F(DmaEngineTest, ForwardMovesSpmToSpm)
{
    build();
    Scratchpad producer(sim, "producer", spm_config);
    PortId producer_port = bus->registerPort("producer");
    Tick end = dma->forwardFrom(producer, producer_port, 1000, nullptr);
    // DRAM untouched; bus at 100 GB/s is fastest path.
    EXPECT_EQ(dram->totalBytes(), 0u);
    EXPECT_EQ(producer.readBytes(), 1000u);
    EXPECT_EQ(spm->writeBytes(), 1000u);
    EXPECT_EQ(dma->bytesMoved(TrafficClass::SpmForward), 1000u);
    EXPECT_EQ(end, fromNs(10.0));
}

TEST_F(DmaEngineTest, ForwardClaimsTheProducerItIsGiven)
{
    // Routes are cached per producer port; a different scratchpad
    // behind the same port must still be the one claimed.
    build();
    Scratchpad first(sim, "first", spm_config);
    Scratchpad second(sim, "second", spm_config);
    PortId producer_port = bus->registerPort("producer");
    dma->forwardFrom(first, producer_port, 100, nullptr);
    dma->forwardFrom(second, producer_port, 100, nullptr);
    dma->forwardFrom(second, producer_port, 100, nullptr);
    EXPECT_EQ(first.port().numTransfers(), 1u);
    EXPECT_EQ(second.port().numTransfers(), 2u);
}

TEST_F(DmaEngineTest, ForwardFromSelfPanics)
{
    build();
    EXPECT_THROW(dma->forwardFrom(*spm, dma->port(), 100, nullptr),
                 PanicError);
}

TEST_F(DmaEngineTest, FabricOccupancyRecorded)
{
    build();
    dma->readFromDram(200, nullptr);
    EXPECT_GT(bus->busyTime(), 0u);
    EXPECT_EQ(bus->totalBytes(), 200u);
}

TEST_F(DmaEngineTest, StreamBypassesChannelsAndPorts)
{
    dma_config.streamSetupLatency = 0;
    spm_config.portGBs = 1.0; // would throttle a DMA forward hard
    build();
    Scratchpad producer(sim, "producer", spm_config);
    PortId producer_port = bus->registerPort("producer");
    Tick end = dma->streamFrom(producer, producer_port, 1000, nullptr);
    // Only the 100 GB/s bus is claimed: 10 ns, not the 1000 ns the
    // 1 GB/s SPM ports would impose.
    EXPECT_EQ(end, fromNs(10.0));
    EXPECT_EQ(dma->readChannelFree(), 0u);
    EXPECT_EQ(dma->bytesMoved(TrafficClass::SpmForward), 1000u);
    EXPECT_EQ(producer.readBytes(), 1000u);
    EXPECT_EQ(spm->writeBytes(), 1000u);
}

TEST_F(DmaEngineTest, StreamSetupLatencyApplies)
{
    dma_config.streamSetupLatency = fromNs(100.0);
    build();
    Scratchpad producer(sim, "producer", spm_config);
    PortId producer_port = bus->registerPort("producer");
    Tick end = dma->streamFrom(producer, producer_port, 1000, nullptr);
    EXPECT_EQ(end, fromNs(110.0));
}

TEST_F(DmaEngineTest, StreamCallbackFires)
{
    build();
    Scratchpad producer(sim, "producer", spm_config);
    PortId producer_port = bus->registerPort("producer");
    bool fired = false;
    dma->streamFrom(producer, producer_port, 100, [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST_F(DmaEngineTest, StreamFromSelfPanics)
{
    build();
    EXPECT_THROW(dma->streamFrom(*spm, dma->port(), 100, nullptr),
                 PanicError);
}

TEST_F(DmaEngineTest, SetupLatencyDelaysCompletion)
{
    dma_config.setupLatency = fromNs(500.0);
    build();
    Tick end = dma->readFromDram(200, nullptr);
    EXPECT_EQ(end, fromNs(600.0));
}

TEST_F(DmaEngineTest, ChunkedTransferCompletesWithCorrectAccounting)
{
    dma_config.burstBytes = 64;
    build();
    Tick done_at = 0;
    dma->readFromDram(256, [&] { done_at = sim.now(); });
    sim.run();
    // 4 bursts of 64 B at 2 B/ns DRAM = 128 ns total.
    EXPECT_EQ(done_at, fromNs(128.0));
    EXPECT_EQ(dram->readBytes(), 256u); // counted once, not per chunk
    EXPECT_EQ(dma->bytesMoved(TrafficClass::DramRead), 256u);
}

TEST_F(DmaEngineTest, ChunkingLetsConcurrentStreamsInterleave)
{
    dma_config.burstBytes = 64;
    build();
    // Second engine contending for the same DRAM.
    Scratchpad spm2(sim, "spm2", spm_config);
    DmaEngine dma2(sim, "dma2", *bus, dram_port, *dram, spm2,
                   dma_config);
    Tick done1 = 0, done2 = 0;
    dma->readFromDram(256, [&] { done1 = sim.now(); });
    dma2.readFromDram(256, [&] { done2 = sim.now(); });
    sim.run();
    // Serialized whole-buffer service would finish stream 1 at 128 ns
    // and stream 2 at 256 ns; with burst interleaving both finish near
    // the 256 ns aggregate point.
    EXPECT_GT(done1, fromNs(128.0));
    EXPECT_LE(done2, fromNs(260.0));
    EXPECT_LT(done2 - done1, fromNs(64.0));
}

TEST_F(DmaEngineTest, ChunkingDisabledByDefault)
{
    build();
    Tick end = dma->readFromDram(4096, nullptr);
    EXPECT_EQ(end, transferTime(4096, 2.0));
    // One reservation on the DRAM channel.
    EXPECT_EQ(dram->channel().numTransfers(), 1u);
}

TEST_F(DmaEngineTest, ChunkedForwardAlsoWorks)
{
    dma_config.burstBytes = 100;
    build();
    Scratchpad producer(sim, "producer", spm_config);
    PortId producer_port = bus->registerPort("producer");
    bool done = false;
    dma->forwardFrom(producer, producer_port, 250, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(dma->bytesMoved(TrafficClass::SpmForward), 250u);
    EXPECT_EQ(producer.readBytes(), 250u);
}

TEST(DmaEngineRouteTest, RoutesFollowPortsRegisteredLater)
{
    // A ring routes the shortest way round, which depends on its port
    // count: a route built before another port attached is stale.
    Simulator sim;
    Ring ring(sim, "ring");
    MainMemory dram(sim, "dram");
    PortId dram_port = ring.registerPort("dram");
    Scratchpad spm(sim, "spm");
    DmaEngine dma(sim, "dma", ring, dram_port, dram, spm);

    auto two_ports = ring.path(dma.port(), dram_port);
    dma.writeToDram(64, nullptr);
    sim.run();
    ring.registerPort("late");
    auto three_ports = ring.path(dma.port(), dram_port);
    dma.writeToDram(64, nullptr);
    sim.run();

    ASSERT_EQ(two_ports.size(), 1u);
    ASSERT_EQ(three_ports.size(), 1u);
    ASSERT_NE(two_ports[0], three_ports[0]);
    EXPECT_EQ(two_ports[0]->numTransfers(), 1u);
    EXPECT_EQ(three_ports[0]->numTransfers(), 1u);
}

} // namespace
} // namespace relief
