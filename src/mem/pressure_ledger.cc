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
    RELIEF_ASSERT(res.numTransfers() == 0, "resource ", res.name(),
                  " attached to a pressure ledger after claiming");
    RELIEF_ASSERT(!res.ledger_, "resource ", res.name(),
                  " attached to two pressure ledgers");
    int id = int(resources_.size());
    resources_.push_back(&res);
    res.ledger_ = this;
    res.ledgerId_ = id;
    // No row until seal() sizes the slot table.
    res.row_ = nullptr;
    res.rowKeys_ = 0;
    return id;
}

void
PressureLedger::seal()
{
    RELIEF_ASSERT(!sealed_, "pressure ledger sealed twice");
    numKeys_ = 1 + numSources() * numQosClasses() * numPressureTraffic;
    slots_.assign(std::size_t(numResources()) * numKeys_, Slot{});
    for (int id = 0; id < numResources(); ++id) {
        resources_[id]->row_ = &slots_[std::size_t(id) * numKeys_];
        resources_[id]->rowKeys_ = numKeys_;
    }
    sealed_ = true;
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

PressureLedger::Slot
PressureLedger::resourceTotal(int resource) const
{
    RELIEF_ASSERT(sealed_, "pressure ledger not sealed");
    return resources_.at(resource)->total();
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
    return resources_.at(resource)->queueDepth(now);
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
