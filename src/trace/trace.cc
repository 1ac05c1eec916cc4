#include "trace/trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

namespace
{

/** @p t picoseconds as exact microseconds: the whole part, then up to
 *  six fractional digits with trailing zeros trimmed. */
std::string
exactUs(Tick t)
{
    std::string out = std::to_string(t / 1000000);
    if (Tick frac = t % 1000000) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), ".%06llu",
                      static_cast<unsigned long long>(frac));
        std::size_t len = 7;
        while (buf[len - 1] == '0')
            --len;
        out.append(buf, len);
    }
    return out;
}

} // namespace

TraceRecorder::TraceRecorder()
{
    // Spans, samples, and flows are recorded on the per-event hot path
    // (every launch, every sampler wakeup, every satisfied DAG edge);
    // seed the vectors so early growth never reallocates mid-run.
    spans_.reserve(1024);
    samples_.reserve(4096);
    flows_.reserve(1024);
}

int
TraceRecorder::lane(const std::string &name)
{
    auto it = laneIds_.find(name);
    if (it != laneIds_.end())
        return it->second;
    int id = int(laneNames_.size());
    laneNames_.push_back(name);
    laneIds_.emplace(name, id);
    return id;
}

void
TraceRecorder::span(int lane_id, std::string name, Tick start, Tick end,
                    std::string category)
{
    RELIEF_ASSERT(lane_id >= 0 && lane_id < numLanes(),
                  "trace span on unknown lane ", lane_id);
    if (end <= start)
        return;
    TraceSpan s;
    s.lane = lane_id;
    s.name = std::move(name);
    s.category = std::move(category);
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
}

const std::string &
TraceRecorder::laneName(int lane_id) const
{
    RELIEF_ASSERT(lane_id >= 0 && lane_id < numLanes(),
                  "unknown trace lane ", lane_id);
    return laneNames_[std::size_t(lane_id)];
}

int
TraceRecorder::counterTrack(const std::string &name)
{
    auto it = trackIds_.find(name);
    if (it != trackIds_.end())
        return it->second;
    int id = int(trackNames_.size());
    trackNames_.push_back(name);
    trackIds_.emplace(name, id);
    return id;
}

void
TraceRecorder::counter(int track_id, Tick when, double value)
{
    RELIEF_ASSERT(track_id >= 0 && track_id < numCounterTracks(),
                  "counter sample on unknown track ", track_id);
    CounterSample s;
    s.track = track_id;
    s.when = when;
    s.value = value;
    samples_.push_back(s);
}

const std::string &
TraceRecorder::counterTrackName(int track_id) const
{
    RELIEF_ASSERT(track_id >= 0 && track_id < numCounterTracks(),
                  "unknown counter track ", track_id);
    return trackNames_[std::size_t(track_id)];
}

int
TraceRecorder::flow(std::string name, std::string category, int src_lane,
                    Tick src_time, int dst_lane, Tick dst_time)
{
    RELIEF_ASSERT(src_lane >= 0 && src_lane < numLanes(),
                  "trace flow from unknown lane ", src_lane);
    RELIEF_ASSERT(dst_lane >= 0 && dst_lane < numLanes(),
                  "trace flow to unknown lane ", dst_lane);
    TraceFlow f;
    f.id = nextFlowId_++;
    f.name = std::move(name);
    f.category = std::move(category);
    f.srcLane = src_lane;
    f.srcTime = src_time;
    f.dstLane = dst_lane;
    f.dstTime = std::max(dst_time, src_time);
    flows_.push_back(std::move(f));
    return flows_.back().id;
}

void
TraceRecorder::asyncEvent(std::uint64_t id, std::string name,
                          std::string category, Tick ts, bool begin)
{
    AsyncEvent e;
    e.id = id;
    e.name = std::move(name);
    e.category = std::move(category);
    e.ts = ts;
    e.begin = begin;
    asyncEvents_.push_back(std::move(e));
}

Tick
TraceRecorder::horizon() const
{
    Tick h = 0;
    for (const TraceSpan &s : spans_)
        h = std::max(h, s.end);
    // A counter-only trace (spans disabled or none recorded yet) must
    // still report how far in time it reaches, or Gantt rendering and
    // window clipping see an empty recording.
    for (const CounterSample &s : samples_)
        h = std::max(h, s.when);
    for (const TraceFlow &f : flows_)
        h = std::max(h, f.dstTime);
    for (const AsyncEvent &e : asyncEvents_)
        h = std::max(h, e.ts);
    return h;
}

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    // One entry per emitted event, sortable by timestamp; a flow has
    // two ("s" at the source, "f" at the destination).
    struct Ref
    {
        Tick ts;
        int kind; ///< 0 span, 1 counter, 2 flow, 3 async half.
        int half; ///< Flows: 0 = "s", 1 = "f".
        std::size_t index;
    };
    std::vector<Ref> refs;
    refs.reserve(spans_.size() + samples_.size() + 2 * flows_.size() +
                 asyncEvents_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        refs.push_back({spans_[i].start, 0, 0, i});
    for (std::size_t i = 0; i < samples_.size(); ++i)
        refs.push_back({samples_[i].when, 1, 0, i});
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        refs.push_back({flows_[i].srcTime, 2, 0, i});
        refs.push_back({flows_[i].dstTime, 2, 1, i});
    }
    for (std::size_t i = 0; i < asyncEvents_.size(); ++i)
        refs.push_back({asyncEvents_[i].ts, 3, 0, i});
    // Stability keeps a zero-length flow's "s" (inserted first) ahead
    // of its "f" at equal timestamps, which chrome://tracing requires
    // to bind the arrow — and keeps async halves in the properly
    // nested order their emitter appended them in.
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.ts < b.ts;
                     });

    JsonWriter w(os);
    w.beginArray();
    // One compact object per line; "pid" and "tid" name the track.
    auto event = [&w](std::string_view name) -> JsonWriter & {
        return w.beginObject(JsonLayout::Compact).field("name", name);
    };
    for (int lane_id = 0; lane_id < numLanes(); ++lane_id) {
        event("thread_name")
            .field("ph", "M")
            .field("pid", 1).field("tid", lane_id)
            .key("args").beginObject(JsonLayout::Compact)
            .field("name", laneNames_[std::size_t(lane_id)])
            .end().end();
    }
    for (const Ref &ref : refs) {
        switch (ref.kind) {
          case 0: {
            const TraceSpan &s = spans_[ref.index];
            event(s.name)
                .field("cat", s.category)
                .field("ph", "X")
                .key("ts").literal(exactUs(s.start))
                .key("dur").literal(exactUs(s.end - s.start))
                .field("pid", 1).field("tid", s.lane)
                .end();
            break;
          }
          case 1: {
            // Perfetto groups "C" events by name and renders each as a
            // line chart keyed on args.value.
            const CounterSample &s = samples_[ref.index];
            event(trackNames_[std::size_t(s.track)])
                .field("ph", "C")
                .key("ts").literal(exactUs(s.when))
                .field("pid", 1)
                .key("args").beginObject(JsonLayout::Compact)
                .field("value", s.value)
                .end().end();
            break;
          }
          case 2: {
            // A flow's "f" half carries bp:"e", which binds the
            // arrowhead to the enclosing slice rather than the next
            // slice on the destination lane.
            const TraceFlow &f = flows_[ref.index];
            bool start = ref.half == 0;
            event(f.name)
                .field("cat", f.category)
                .field("ph", start ? "s" : "f");
            if (!start)
                w.field("bp", "e");
            w.field("id", f.id)
                .key("ts").literal(exactUs(start ? f.srcTime : f.dstTime))
                .field("pid", 1).field("tid", start ? f.srcLane : f.dstLane)
                .end();
            break;
          }
          case 3: {
            // Async ("b"/"e") halves; Perfetto groups them into one
            // async track per (cat, id) and nests by emit order.
            const AsyncEvent &e = asyncEvents_[ref.index];
            event(e.name)
                .field("cat", e.category)
                .field("ph", e.begin ? "b" : "e")
                .field("id", e.id)
                .key("ts").literal(exactUs(e.ts))
                .field("pid", 1).field("tid", 0)
                .end();
            break;
          }
        }
    }
    w.end();
    os << "\n";
}

void
TraceRecorder::writeGantt(std::ostream &os, Tick from, Tick to,
                          int width) const
{
    RELIEF_ASSERT(width >= 1, "gantt width must be positive");
    if (to == maxTick)
        to = horizon();
    if (to <= from)
        return;
    Tick bucket = (to - from + Tick(width) - 1) / Tick(width);
    if (bucket == 0)
        bucket = 1;

    std::size_t label_width = 4;
    for (const std::string &name : laneNames_)
        label_width = std::max(label_width, name.size());

    os << std::string(label_width, ' ') << " |" << " [" << toUs(from)
       << " us .. " << toUs(to) << " us, "
       << toUs(bucket) << " us/char]\n";

    for (int lane_id = 0; lane_id < numLanes(); ++lane_id) {
        std::string row(std::size_t(width), '.');
        for (const TraceSpan &s : spans_) {
            if (s.lane != lane_id || s.end <= from || s.start >= to)
                continue;
            Tick s0 = std::max(s.start, from);
            Tick s1 = std::min(s.end, to);
            auto b0 = std::size_t((s0 - from) / bucket);
            auto b1 = std::size_t((s1 - from - 1) / bucket);
            char mark = s.name.empty() ? '#' : s.name[0];
            for (std::size_t b = b0; b <= b1 && b < row.size(); ++b)
                row[b] = mark;
        }
        const std::string &name = laneNames_[std::size_t(lane_id)];
        os << name << std::string(label_width - name.size(), ' ')
           << " |" << row << "\n";
    }
}

} // namespace relief
