/** @file Unit tests for scratchpad partition management. */

#include <gtest/gtest.h>

#include "mem/scratchpad.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

class ScratchpadTest : public ::testing::Test
{
  protected:
    Simulator sim;
    Scratchpad spm{sim, "spm", ScratchpadConfig{}};
};

TEST_F(ScratchpadTest, DefaultsToThreePartitions)
{
    EXPECT_EQ(spm.numPartitions(), 3);
    for (int i = 0; i < spm.numPartitions(); ++i) {
        EXPECT_EQ(spm.partition(i).owner, 0u);
        EXPECT_FALSE(spm.partition(i).dataValid);
    }
}

TEST_F(ScratchpadTest, AllocatePreferEmptyPartitions)
{
    EXPECT_EQ(spm.findFreeOutputPartition(), 0);
    spm.allocateOutput(0, 1, 100);
    EXPECT_EQ(spm.findFreeOutputPartition(), 1);
    spm.allocateOutput(1, 2, 100);
    EXPECT_EQ(spm.findFreeOutputPartition(), 2);
}

TEST_F(ScratchpadTest, OutputInvisibleUntilProduced)
{
    spm.allocateOutput(0, 7, 100);
    EXPECT_FALSE(spm.holdsOutput(0, 7));
    spm.produceOutput(0);
    EXPECT_TRUE(spm.holdsOutput(0, 7));
}

TEST_F(ScratchpadTest, OngoingReadsBlockReclaim)
{
    for (int i = 0; i < 3; ++i) {
        spm.allocateOutput(i, NodeId(i + 1), 100);
        spm.produceOutput(i);
    }
    spm.beginRead(0);
    spm.beginRead(1);
    spm.beginRead(2);
    EXPECT_EQ(spm.findFreeOutputPartition(), -1);
    spm.endRead(1);
    EXPECT_EQ(spm.findFreeOutputPartition(), 1);
}

TEST_F(ScratchpadTest, LruVictimAmongReclaimable)
{
    // Produce into 0 then 1 at increasing times; 0 is the older data.
    spm.allocateOutput(0, 1, 100);
    spm.produceOutput(0);
    sim.at(100, [&] {
        spm.allocateOutput(1, 2, 100);
        spm.produceOutput(1);
    });
    sim.run();
    spm.allocateOutput(2, 3, 100); // fill the empty one
    spm.produceOutput(2);
    spm.beginRead(2);
    EXPECT_EQ(spm.findFreeOutputPartition(), 0);
}

TEST_F(ScratchpadTest, ExclusionMaskSkipsPartitions)
{
    EXPECT_EQ(spm.findFreeOutputPartition(0b001), 1);
    EXPECT_EQ(spm.findFreeOutputPartition(0b011), 2);
    EXPECT_EQ(spm.findFreeOutputPartition(0b111), -1);
}

TEST_F(ScratchpadTest, ReadCountingIsBalanced)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    spm.beginRead(0);
    EXPECT_EQ(spm.partition(0).ongoingReads, 2u);
    spm.endRead(0);
    spm.endRead(0);
    EXPECT_EQ(spm.partition(0).ongoingReads, 0u);
    EXPECT_THROW(spm.endRead(0), PanicError);
}

TEST_F(ScratchpadTest, ReleaseWithReadersPanics)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    EXPECT_THROW(spm.release(0), PanicError);
    spm.endRead(0);
    spm.release(0);
    EXPECT_EQ(spm.partition(0).owner, 0u);
}

TEST_F(ScratchpadTest, AllocateOverReadersPanics)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    EXPECT_THROW(spm.allocateOutput(0, 6, 100), PanicError);
}

TEST_F(ScratchpadTest, ReadingInvalidPartitionPanics)
{
    spm.allocateOutput(0, 5, 100);
    EXPECT_THROW(spm.beginRead(0), PanicError);
}

TEST_F(ScratchpadTest, WrittenBackFlag)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    EXPECT_FALSE(spm.partition(0).writtenBack);
    spm.markWrittenBack(0);
    EXPECT_TRUE(spm.partition(0).writtenBack);
    // Reallocation clears the flag.
    spm.release(0);
    spm.allocateOutput(0, 6, 100);
    EXPECT_FALSE(spm.partition(0).writtenBack);
}

TEST_F(ScratchpadTest, EnergyTracksTraffic)
{
    ScratchpadConfig config;
    config.readEnergyPJPerByte = 1.0;
    config.writeEnergyPJPerByte = 2.0;
    Scratchpad s(sim, "s", config);
    s.recordRead(100);
    s.recordWrite(100);
    EXPECT_DOUBLE_EQ(s.energyPJ(), 300.0);
}

TEST_F(ScratchpadTest, HoldsOutputOnlyForOwner)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    EXPECT_FALSE(spm.holdsOutput(0, 6));
    EXPECT_TRUE(spm.holdsOutput(0, 5));
    EXPECT_FALSE(spm.holdsOutput(1, 5)); // another partition
    EXPECT_FALSE(spm.holdsOutput(-1, 5)); // no location yet
    EXPECT_FALSE(spm.holdsOutput(spm.numPartitions(), 5));
    spm.release(0);
    EXPECT_FALSE(spm.holdsOutput(0, 5));
}

} // namespace
} // namespace relief
