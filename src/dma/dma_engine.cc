#include "dma/dma_engine.hh"

#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

const char *
trafficClassName(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::DramRead:
        return "dram-read";
      case TrafficClass::DramWrite:
        return "dram-write";
      case TrafficClass::SpmForward:
        return "spm-forward";
    }
    return "?";
}

DmaEngine::DmaEngine(Simulator &sim, std::string name, Interconnect &fabric,
                     PortId dram_port, MainMemory &dram,
                     Scratchpad &localSpm, const DmaConfig &config)
    : SimObject(sim, std::move(name)), fabric_(fabric), dram_(dram),
      localSpm_(localSpm), config_(config),
      port_(fabric.registerPort(this->name())), dramPort_(dram_port),
      readChannel_(this->name() + ".rd", config.channelGBs,
                   config.setupLatency),
      writeChannel_(this->name() + ".wr", config.channelGBs,
                    config.setupLatency)
{
}

RequestorTag
DmaEngine::makeTag(TrafficClass cls, const TransferCtx &ctx) const
{
    RequestorTag tag;
    tag.source = std::int16_t(sourceId_);
    tag.qosClass = ctx.qosClass;
    tag.requestId = ctx.requestId;
    switch (cls) {
      case TrafficClass::DramRead:
        tag.traffic = PressureTraffic::DramFetch;
        break;
      case TrafficClass::DramWrite:
        tag.traffic = ctx.spill ? PressureTraffic::SpmSpill
                                : PressureTraffic::Writeback;
        break;
      case TrafficClass::SpmForward:
        tag.traffic = PressureTraffic::Forward;
        break;
    }
    return tag;
}

DmaEngine::Route &
DmaEngine::routeSlot(std::vector<Route> &table, int index)
{
    if (fabric_.numPorts() != routedPorts_) {
        readRoutes_.clear();
        writeRoutes_.clear();
        forwardRoutes_.clear();
        streamRoutes_.clear();
        routedPorts_ = fabric_.numPorts();
    }
    if (std::size_t(index) >= table.size())
        table.resize(std::size_t(index) + 1);
    return table[std::size_t(index)];
}

auto
DmaEngine::delivered(std::uint64_t bytes, Completion on_done)
{
    auto done = [this, bytes, cb = std::move(on_done)]() {
        outstanding_ -= bytes;
        if (cb)
            cb();
    };
    static_assert(sizeof(done) <= InlineCallable::capacity,
                  "a transfer's done event must not allocate");
    return done;
}

Tick
DmaEngine::launch(const Route &path, std::uint64_t bytes, TrafficClass cls,
                  Completion on_done, const RequestorTag &tag)
{
    if (config_.burstBytes > 0 && bytes > config_.burstBytes)
        return launchChunked(path, bytes, cls, std::move(on_done), tag);
    auto timing = reserveTransfer(path, now(), bytes, tag);
    fabric_.recordTransfer(timing.start, timing.end, bytes);
    // Producer-side read energy of forwards is accounted by the
    // caller, which knows which scratchpad it pulled from.
    accountTraffic(bytes, cls);
    DPRINTF(Dma, trafficClassName(cls), " launch ", bytes,
            " bytes, done at ", timing.end);

    outstanding_ += bytes;
    sim().at(timing.end, HostCat::Dma, delivered(bytes, std::move(on_done)),
             [this] { return name() + ".done"; });
    return timing.end;
}

Tick
DmaEngine::launchChunked(const Route &path, std::uint64_t bytes,
                         TrafficClass cls, Completion on_done,
                         const RequestorTag &tag)
{
    accountTraffic(bytes, cls);
    DPRINTF(Dma, trafficClassName(cls), " chunked launch ", bytes,
            " bytes in ", config_.burstBytes, "-byte bursts");
    outstanding_ += bytes;

    // Claim one burst now; each burst's completion event claims the
    // next, so competing streams interleave at burst granularity.
    // The returned tick is a lower bound on completion (exact when
    // nothing else queues behind us); the callback fires at the true
    // completion time.
    ChunkState *state = acquireChunk();
    state->path = path; // reuses the recycled state's capacity
    state->remaining = bytes;
    state->onDone = std::move(on_done);
    state->tag = tag;
    issueNextChunk(state);

    Tick optimistic = now();
    for (const auto *res : state->path.hops)
        optimistic = std::max(optimistic, res->nextFree());
    return optimistic +
           transferTime(state->remaining, state->path.slowest->bandwidth());
}

DmaEngine::ChunkState *
DmaEngine::acquireChunk()
{
    if (chunkFree_.empty()) {
        chunkPool_.push_back(std::make_unique<ChunkState>());
        return chunkPool_.back().get();
    }
    ChunkState *state = chunkFree_.back();
    chunkFree_.pop_back();
    return state;
}

void
DmaEngine::releaseChunk(ChunkState *state)
{
    state->path.hops.clear(); // keeps capacity for the next transfer
    state->remaining = 0;
    state->onDone = nullptr;
    state->tag = RequestorTag{};
    chunkFree_.push_back(state);
}

void
DmaEngine::issueNextChunk(ChunkState *state)
{
    std::uint64_t n = std::min(state->remaining, config_.burstBytes);
    state->remaining -= n;
    auto timing = reserveTransfer(state->path, now(), n, state->tag);
    fabric_.recordTransfer(timing.start, timing.end, n);
    sim().at(timing.end, HostCat::Dma,
             [this, state, n]() {
                 outstanding_ -= n;
                 if (state->remaining > 0) {
                     issueNextChunk(state);
                 } else {
                     // Recycle before running the callback: on_done may
                     // start another chunked transfer and reuse this
                     // very state.
                     Completion done = std::move(state->onDone);
                     releaseChunk(state);
                     if (done)
                         done();
                 }
             },
             [this] { return name() + ".chunk"; });
}

void
DmaEngine::accountTraffic(std::uint64_t bytes, TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::DramRead:
        dram_.recordRead(bytes);
        localSpm_.recordWrite(bytes);
        dramReadBytes_.add(bytes);
        break;
      case TrafficClass::DramWrite:
        localSpm_.recordRead(bytes);
        dram_.recordWrite(bytes);
        dramWriteBytes_.add(bytes);
        break;
      case TrafficClass::SpmForward:
        localSpm_.recordWrite(bytes);
        forwardBytes_.add(bytes);
        break;
    }
}

Tick
DmaEngine::readFromDram(std::uint64_t bytes, Completion on_done,
                        std::uint64_t stream_hint,
                        const TransferCtx &ctx)
{
    int mem_route = dram_.route(stream_hint);
    Route &path = routeSlot(readRoutes_, mem_route);
    if (path.hops.empty()) {
        auto mem = dram_.routePath(mem_route);
        auto fabric = fabric_.path(dramPort_, port_);
        path.hops.push_back(&readChannel_);
        path.hops.insert(path.hops.end(), mem.begin(), mem.end());
        path.hops.insert(path.hops.end(), fabric.begin(), fabric.end());
        path.hops.push_back(&localSpm_.port());
        path.finish();
    }
    return launch(path, bytes, TrafficClass::DramRead, std::move(on_done),
                  makeTag(TrafficClass::DramRead, ctx));
}

Tick
DmaEngine::writeToDram(std::uint64_t bytes, Completion on_done,
                       std::uint64_t stream_hint, const TransferCtx &ctx)
{
    int mem_route = dram_.route(stream_hint);
    Route &path = routeSlot(writeRoutes_, mem_route);
    if (path.hops.empty()) {
        auto fabric = fabric_.path(port_, dramPort_);
        auto mem = dram_.routePath(mem_route);
        path.hops.push_back(&writeChannel_);
        path.hops.push_back(&localSpm_.port());
        path.hops.insert(path.hops.end(), fabric.begin(), fabric.end());
        path.hops.insert(path.hops.end(), mem.begin(), mem.end());
        path.finish();
    }
    return launch(path, bytes, TrafficClass::DramWrite, std::move(on_done),
                  makeTag(TrafficClass::DramWrite, ctx));
}

Tick
DmaEngine::forwardFrom(Scratchpad &producer, PortId producer_port,
                       std::uint64_t bytes, Completion on_done,
                       const TransferCtx &ctx)
{
    RELIEF_ASSERT(&producer != &localSpm_,
                  name(), ": use colocation, not forwarding, for the "
                  "local scratchpad");
    producer.recordRead(bytes);
    Route &path = routeSlot(forwardRoutes_, producer_port);
    // The producer's scratchpad is an argument of its own; rebuild if
    // it is not the one this port's route was built for.
    if (path.hops.empty() || path.hops[1] != &producer.port()) {
        auto fabric = fabric_.path(producer_port, port_);
        path.hops.clear();
        path.hops.push_back(&readChannel_);
        path.hops.push_back(&producer.port());
        path.hops.insert(path.hops.end(), fabric.begin(), fabric.end());
        path.hops.push_back(&localSpm_.port());
        path.finish();
    }
    return launch(path, bytes, TrafficClass::SpmForward,
                  std::move(on_done),
                  makeTag(TrafficClass::SpmForward, ctx));
}

Tick
DmaEngine::streamFrom(Scratchpad &producer, PortId producer_port,
                      std::uint64_t bytes, Completion on_done,
                      const TransferCtx &ctx)
{
    RELIEF_ASSERT(&producer != &localSpm_,
                  name(), ": streaming from the local scratchpad");
    producer.recordRead(bytes);
    localSpm_.recordWrite(bytes);
    forwardBytes_.add(bytes);

    Route &path = routeSlot(streamRoutes_, producer_port);
    if (path.hops.empty()) {
        path.hops = fabric_.path(producer_port, port_);
        path.finish();
    }
    auto timing = reserveTransfer(path, now(), bytes,
                                  makeTag(TrafficClass::SpmForward, ctx));
    timing.end += config_.streamSetupLatency;
    fabric_.recordTransfer(timing.start, timing.end, bytes);
    DPRINTF(Dma, "stream ", bytes, " bytes, done at ", timing.end);
    outstanding_ += bytes;
    sim().at(timing.end, HostCat::Dma, delivered(bytes, std::move(on_done)),
             [this] { return name() + ".streamDone"; });
    return timing.end;
}

std::uint64_t
DmaEngine::bytesMoved(TrafficClass cls) const
{
    switch (cls) {
      case TrafficClass::DramRead:
        return dramReadBytes_.value();
      case TrafficClass::DramWrite:
        return dramWriteBytes_.value();
      case TrafficClass::SpmForward:
        return forwardBytes_.value();
    }
    return 0;
}

void
DmaEngine::resetStats()
{
    readChannel_.resetStats();
    writeChannel_.resetStats();
    dramReadBytes_.reset();
    dramWriteBytes_.reset();
    forwardBytes_.reset();
}

} // namespace relief
