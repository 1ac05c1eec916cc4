/**
 * @file
 * Schedule tracing.
 *
 * A TraceRecorder collects labeled time spans on named lanes (one lane
 * per accelerator, DMA direction, or the manager) and renders them
 * either as Chrome trace-event JSON (load into chrome://tracing or
 * Perfetto) or as an ASCII Gantt chart for terminals. The hardware
 * manager emits load/compute/write-back/scheduler spans when a
 * recorder is attached (Soc::enableTracing()).
 *
 * Alongside spans, the recorder collects *counter tracks*: named
 * time-series sampled by the IntervalSampler (ready-queue depth, DRAM
 * bandwidth utilization, outstanding DMA bytes, accelerator
 * occupancy). They are rendered as Chrome "C" events, which Perfetto
 * draws as per-name line charts under the span lanes — one load shows
 * both the schedule and the memory pressure it causes.
 *
 * The third primitive is the *flow event*: a directed arrow from a
 * point on one lane to a point on another, rendered by Perfetto as a
 * curve connecting the two enclosing slices. The hardware manager
 * emits one flow per satisfied DAG edge — producer completion (or
 * write-back) to consumer input load — categorized by how the operand
 * moved ("forward", "colocation", "dram"), so a trace visually shows
 * which data movement the scheduler elided.
 */

#ifndef RELIEF_TRACE_TRACE_HH
#define RELIEF_TRACE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/ticks.hh"

namespace relief
{

/** One traced activity. */
struct TraceSpan
{
    int lane = 0;
    std::string name;
    std::string category;
    Tick start = 0;
    Tick end = 0;
};

/** One sample on a counter track. */
struct CounterSample
{
    int track = 0;
    Tick when = 0;
    double value = 0.0;
};

/**
 * One half of a Perfetto async slice ("b" begin / "e" end). Async
 * events with the same (category, id) share one async track; Perfetto
 * nests them by begin/end order, so emitters must append the halves
 * in properly nested sequence (see trace/span.cc emitAsyncSlices).
 */
struct AsyncEvent
{
    std::uint64_t id = 0; ///< Async-track id (span-context derived).
    std::string name;
    std::string category;
    Tick ts = 0;
    bool begin = true; ///< true = "b", false = "e".
};

/** One directed arrow between two lane/time points (a DAG edge). */
struct TraceFlow
{
    int id = 0; ///< Pairs the "s" and "f" halves in the JSON.
    std::string name;
    std::string category;
    int srcLane = 0;
    Tick srcTime = 0;
    int dstLane = 0;
    Tick dstTime = 0;
};

class TraceRecorder
{
  public:
    TraceRecorder();

    /** Get or create the lane named @p name; returns its id. Lane ids
     *  are dense and ordered by first use. */
    int lane(const std::string &name);

    /** Record the half-open span [start, end) on @p lane_id. */
    void span(int lane_id, std::string name, Tick start, Tick end,
              std::string category = "task");

    std::size_t numSpans() const { return spans_.size(); }
    const std::vector<TraceSpan> &spans() const { return spans_; }
    int numLanes() const { return int(laneNames_.size()); }
    const std::string &laneName(int lane_id) const;

    /** Get or create the counter track named @p name; returns its id.
     *  Track ids are dense and ordered by first use, independent of
     *  lane ids. */
    int counterTrack(const std::string &name);

    /** Record @p value on @p track_id at time @p when. */
    void counter(int track_id, Tick when, double value);

    int numCounterTracks() const { return int(trackNames_.size()); }
    const std::string &counterTrackName(int track_id) const;
    std::size_t numCounterSamples() const { return samples_.size(); }
    const std::vector<CounterSample> &counterSamples() const
    {
        return samples_;
    }

    /**
     * Record an arrow from (@p src_lane, @p src_time) to
     * (@p dst_lane, @p dst_time); returns the flow id that pairs the
     * two halves in the Chrome JSON. Arrows pointing backwards in time
     * are clamped to zero length at the destination.
     */
    int flow(std::string name, std::string category, int src_lane,
             Tick src_time, int dst_lane, Tick dst_time);

    std::size_t numFlows() const { return flows_.size(); }
    const std::vector<TraceFlow> &flows() const { return flows_; }

    /**
     * Append one async ("b"/"e") event half on async track @p id.
     * Halves are rendered in insertion order at equal timestamps, so
     * the caller controls nesting by appending a properly nested
     * sequence (begin parent, begin child, end child, end parent).
     */
    void asyncEvent(std::uint64_t id, std::string name,
                    std::string category, Tick ts, bool begin);

    std::size_t numAsyncEvents() const { return asyncEvents_.size(); }
    const std::vector<AsyncEvent> &asyncEvents() const
    {
        return asyncEvents_;
    }

    /** Latest time across all spans, counter samples, flows, and
     *  async events. */
    Tick horizon() const;

    /**
     * Chrome trace-event JSON: lane metadata first, then every event —
     * complete ("X") spans, counter ("C") samples, flow ("s"/"f")
     * pairs, and async ("b"/"e") halves — sorted by timestamp.
     * Perfetto tolerates unsorted input, but chrome://tracing
     * misrenders flows whose "s" half appears after its "f" half, so
     * the sort (stable, "s" before "f" and async halves in insertion
     * order at equal timestamps) is a documented guarantee of this
     * writer. Every ts and dur is the exact tick in microseconds, up
     * to six fractional digits.
     */
    void writeChromeJson(std::ostream &os) const;

    /**
     * ASCII Gantt chart: one row per lane, @p width character buckets
     * covering [from, to). Each bucket shows the first letter of the
     * span occupying it ('.' when idle).
     */
    void writeGantt(std::ostream &os, Tick from = 0, Tick to = maxTick,
                    int width = 100) const;

  private:
    std::vector<std::string> laneNames_;
    std::unordered_map<std::string, int> laneIds_;
    std::vector<TraceSpan> spans_;
    std::vector<std::string> trackNames_;
    std::unordered_map<std::string, int> trackIds_;
    std::vector<CounterSample> samples_;
    std::vector<TraceFlow> flows_;
    std::vector<AsyncEvent> asyncEvents_;
    int nextFlowId_ = 1;
};

} // namespace relief

#endif // RELIEF_TRACE_TRACE_HH
