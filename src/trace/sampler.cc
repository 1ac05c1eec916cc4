#include "trace/sampler.hh"
#include "sim/build_info.hh"

#include "core/rng.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

TailSampler::TailSampler(const TailSamplerConfig &config)
    : config_(config)
{
    RELIEF_ASSERT(config_.okFraction >= 0.0 && config_.okFraction <= 1.0,
                  "OK-trace sampling fraction must be in [0, 1], got ",
                  config_.okFraction);
}

bool
TailSampler::sampled(std::uint64_t seed, std::uint64_t id,
                     double fraction)
{
    if (fraction >= 1.0)
        return true;
    // 53-bit uniform in [0, 1), same construction as Xoshiro::uniform.
    double u = double(deriveSeed(seed, id) >> 11) * 0x1.0p-53;
    return u < fraction;
}

bool
TailSampler::keep(std::uint64_t id, RequestOutcome outcome)
{
    summary_.offered += 1;
    switch (outcome) {
      case RequestOutcome::Shed:
        summary_.keptShed += 1;
        return true;
      case RequestOutcome::Rejected:
        summary_.keptRejected += 1;
        return true;
      case RequestOutcome::Miss:
      case RequestOutcome::InFlight:
        summary_.admitted += 1;
        summary_.keptMiss += 1;
        return true;
      case RequestOutcome::Ok:
        break;
    }
    summary_.admitted += 1;
    if (sampled(config_.seed, id, config_.okFraction)) {
        summary_.keptOk += 1;
        return true;
    }
    summary_.dropped += 1;
    return false;
}

void
writeTraceDocJson(std::ostream &os,
                  const std::vector<RequestTrace> &traces,
                  const TailSampleSummary &sampling, double ok_fraction,
                  std::uint64_t seed, double horizon_ms)
{
    JsonWriter w(os);
    w.beginObject().field("schema", "relief-trace-v1").key("build_info");
    writeBuildInfoJson(w);
    w.field("seed", seed)
        .field("horizon_ms", horizon_ms)
        .field("ok_fraction", ok_fraction)
        .key("sampling").beginObject(JsonLayout::Inline)
        .field("offered", sampling.offered)
        .field("admitted", sampling.admitted)
        .field("kept_ok", sampling.keptOk)
        .field("kept_miss", sampling.keptMiss)
        .field("kept_shed", sampling.keptShed)
        .field("kept_rejected", sampling.keptRejected)
        .field("dropped", sampling.dropped)
        .end()
        .key("requests").beginArray();
    for (const RequestTrace &trace : traces) {
        w.beginObject()
            .field("id", trace.id)
            .field("class", trace.qosClass)
            .field("app", trace.app)
            .field("outcome", requestOutcomeName(trace.outcome))
            .field("arrival_us", toUs(trace.arrival))
            .field("finish_us", toUs(trace.finish))
            .field("deadline_us", toUs(trace.deadline))
            .field("latency_us", toUs(trace.latency()))
            .key("buckets_us").beginObject(JsonLayout::Inline)
            .field("queue_wait", toUs(trace.buckets.queueWait))
            .field("manager", toUs(trace.buckets.managerOverhead))
            .field("dma_in", toUs(trace.buckets.dmaIn))
            .field("compute", toUs(trace.buckets.compute))
            .field("dma_out", toUs(trace.buckets.dmaOut))
            .field("dep_stall", toUs(trace.buckets.depStall))
            .field("total", toUs(trace.buckets.total()))
            .end()
            .key("spans").beginArray();
        for (const RequestSpan &span : trace.spans) {
            w.beginObject(JsonLayout::Inline)
                .field("kind", spanKindName(span.kind))
                .field("parent", span.parent)
                .field("label", span.label)
                .field("start_us", toUs(span.start))
                .field("end_us", toUs(span.end))
                .end();
        }
        w.end().end();
    }
    w.end().end();
    os << "\n";
}

} // namespace relief
