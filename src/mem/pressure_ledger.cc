#include "mem/pressure_ledger.hh"
#include "sim/build_info.hh"

#include <algorithm>

#include "mem/bandwidth_resource.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

const char *
pressureTrafficName(PressureTraffic traffic)
{
    switch (traffic) {
      case PressureTraffic::DramFetch:
        return "dram_fetch";
      case PressureTraffic::Writeback:
        return "writeback";
      case PressureTraffic::Forward:
        return "forward";
      case PressureTraffic::SpmSpill:
        return "spm_spill";
    }
    return "unknown";
}

PressureLedger::PressureLedger() { qosClasses_.push_back("default"); }

int
PressureLedger::addSource(const std::string &name)
{
    RELIEF_ASSERT(!sealed_, "pressure ledger sealed; cannot add source ",
                  name);
    sources_.push_back(name);
    return int(sources_.size()) - 1;
}

int
PressureLedger::addQosClass(const std::string &name)
{
    RELIEF_ASSERT(!sealed_, "pressure ledger sealed; cannot add class ",
                  name);
    qosClasses_.push_back(name);
    return int(qosClasses_.size()) - 1;
}

int
PressureLedger::addResource(BandwidthResource &res)
{
    RELIEF_ASSERT(!sealed_, "pressure ledger sealed; cannot add resource ",
                  res.name());
    int id = int(resources_.size());
    resources_.push_back(&res);
    res.ledger_ = this;
    res.ledgerId_ = id;
    return id;
}

void
PressureLedger::seal()
{
    RELIEF_ASSERT(!sealed_, "pressure ledger sealed twice");
    numKeys_ = 1 + numSources() * numQosClasses() * numPressureTraffic;
    slots_.assign(std::size_t(numResources()) * numKeys_, Slot{});
    sealed_ = true;
}

int
PressureLedger::keyFor(const RequestorTag &tag) const
{
    if (tag.source < 0 || tag.source >= numSources() ||
        tag.qosClass >= qosClasses_.size()) {
        return 0;
    }
    return 1 +
           (int(tag.source) * numQosClasses() + int(tag.qosClass)) *
               numPressureTraffic +
           int(tag.traffic);
}

int
PressureLedger::keySource(int key) const
{
    if (key <= 0)
        return -1;
    return (key - 1) / (numPressureTraffic * numQosClasses());
}

int
PressureLedger::keyQos(int key) const
{
    if (key <= 0)
        return 0;
    return ((key - 1) / numPressureTraffic) % numQosClasses();
}

PressureTraffic
PressureLedger::keyTraffic(int key) const
{
    if (key <= 0)
        return PressureTraffic::DramFetch;
    return PressureTraffic((key - 1) % numPressureTraffic);
}

const std::string &
PressureLedger::sourceName(int source) const
{
    return sources_.at(source);
}

const std::string &
PressureLedger::qosClassName(int qos) const
{
    return qosClasses_.at(qos);
}

const BandwidthResource &
PressureLedger::resource(int id) const
{
    return *resources_.at(id);
}

const PressureLedger::Slot &
PressureLedger::slot(int resource, int key) const
{
    RELIEF_ASSERT(sealed_, "pressure ledger not sealed");
    return slots_.at(std::size_t(resource) * numKeys_ + key);
}

void
PressureLedger::chargeWait(const BandwidthResource &res, Slot *row,
                           Tick request_time, Tick pending)
{
    // Walk the wait interval [request_time, request_time+pending) over
    // the resource's outstanding reservations, oldest first, charging
    // each segment to the reservation covering (or, across an idle
    // gap, the next one holding) the pipe. The newest entry ends
    // exactly where the wait does, so the whole interval is always
    // attributed and caused == suffered per resource.
    Tick low = request_time;
    Tick wait_end = request_time + pending;
    for (auto r = res.held_.begin() + std::ptrdiff_t(res.head_);
         r != res.held_.end() && low < wait_end; ++r) {
        if (r->end <= low)
            continue;
        Tick hi = std::min(r->end, wait_end);
        row[r->key].waitCaused += hi - low;
        low = hi;
    }
    if (low < wait_end) {
        // The record was reset mid-backlog (stats reset); keep the
        // books balanced by charging the untagged bucket.
        row[0].waitCaused += wait_end - low;
    }
}

PressureLedger::Slot
PressureLedger::resourceTotal(int resource) const
{
    Slot total;
    for (int key = 0; key < numKeys_; ++key)
        total.accumulate(slot(resource, key));
    return total;
}

PressureLedger::Slot
PressureLedger::qosTotal(int qos) const
{
    Slot total;
    for (int res = 0; res < numResources(); ++res) {
        for (int key = 0; key < numKeys_; ++key) {
            if (keyQos(key) == qos)
                total.accumulate(slot(res, key));
        }
    }
    return total;
}

int
PressureLedger::queueDepth(int resource, Tick now) const
{
    const BandwidthResource &res = *resources_.at(resource);
    // Reservation ends are non-decreasing (FIFO pipe), so the count
    // of entries still outstanding at @p now is a binary search away.
    auto it = std::upper_bound(
        res.held_.begin() + std::ptrdiff_t(res.head_), res.held_.end(), now,
        [](Tick t, const auto &r) { return t < r.end; });
    return int(res.held_.end() - it);
}

std::vector<PressureLedger::Contender>
PressureLedger::topContenders(int resource, int k) const
{
    std::vector<Contender> rows;
    for (int key = 0; key < numKeys_; ++key) {
        const Slot &s = slot(resource, key);
        if (s.transfers == 0)
            continue;
        rows.push_back({key, s});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Contender &a, const Contender &b) {
                  if (a.slot.waitCaused != b.slot.waitCaused)
                      return a.slot.waitCaused > b.slot.waitCaused;
                  if (a.slot.bytes != b.slot.bytes)
                      return a.slot.bytes > b.slot.bytes;
                  return a.key < b.key;
              });
    if (int(rows.size()) > k)
        rows.resize(std::size_t(k));
    return rows;
}

void
PressureLedger::writeJson(JsonWriter &w, Tick end_tick,
                          const Summary &summary,
                          const char *schema) const
{
    RELIEF_ASSERT(sealed_, "pressure ledger not sealed");

    w.beginObject();
    if (schema) {
        // Standalone document: stamp provenance. The embedded form
        // (the stats document's "pressure" member) inherits its
        // parent's build_info instead.
        w.field("schema", schema).key("build_info");
        writeBuildInfoJson(w);
    }
    w.field("end_us", toUs(end_tick));
    w.key("qos_classes").beginArray(JsonLayout::Inline);
    for (const std::string &name : qosClasses_)
        w.value(name);
    w.end().key("traffic").beginArray(JsonLayout::Inline);
    for (int t = 0; t < numPressureTraffic; ++t)
        w.value(pressureTrafficName(PressureTraffic(t)));
    w.end();

    Slot grand;
    for (int res = 0; res < numResources(); ++res)
        grand.accumulate(resourceTotal(res));
    w.key("totals").beginObject()
        .field("bytes", grand.bytes)
        .field("transfers", grand.transfers)
        .field("service_us", toUs(grand.serviceTicks))
        .field("wait_us", toUs(grand.waitSuffered))
        .field("dram_bytes", summary.dramBytes)
        .field("fabric_bytes", summary.fabricBytes)
        .field("bytes_spared_colocation", summary.sparedColocationBytes)
        .field("bytes_spared_forwarding", summary.sparedForwardBytes)
        .end();

    // One row's traffic figures, shared by the QoS and contender rows.
    auto slotFields = [&w](const Slot &slot) {
        w.field("bytes", slot.bytes)
            .field("transfers", slot.transfers)
            .field("service_us", toUs(slot.serviceTicks))
            .field("wait_suffered_us", toUs(slot.waitSuffered))
            .field("wait_caused_us", toUs(slot.waitCaused));
    };
    w.key("qos").beginArray();
    for (int qos = 0; qos < numQosClasses(); ++qos) {
        w.beginObject(JsonLayout::Inline).field("name", qosClasses_[qos]);
        slotFields(qosTotal(qos));
        w.end();
    }
    w.end();

    w.key("resources").beginArray();
    for (int res = 0; res < numResources(); ++res) {
        const BandwidthResource &bw = *resources_[res];
        Slot total = resourceTotal(res);
        w.beginObject()
            .field("name", bw.name())
            .field("peak_gbs", bw.bandwidth())
            .field("bytes", total.bytes)
            .field("transfers", total.transfers)
            .field("service_us", toUs(total.serviceTicks))
            .field("wait_us", toUs(total.waitSuffered))
            .field("busy_us", toUs(bw.busyTime(end_tick)))
            .field("occupancy", end_tick ? bw.occupancy(end_tick) : 0.0)
            .key("contenders").beginArray();
        for (const Contender &row : topContenders(res, reportedContenders)) {
            int src = keySource(row.key);
            w.beginObject(JsonLayout::Inline)
                .field("source", src < 0 ? std::string("untagged")
                                         : sources_[src])
                .field("qos", qosClasses_[keyQos(row.key)])
                .field("traffic", row.key == 0 ? "untagged"
                                               : pressureTrafficName(
                                                     keyTraffic(row.key)));
            slotFields(row.slot);
            w.end();
        }
        w.end().end();
    }
    w.end().end();
}

} // namespace relief
