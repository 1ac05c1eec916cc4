#include "sched/decision_log.hh"

#include <sstream>

#include "sim/logging.hh"

namespace relief
{

const char *
promotionReasonName(PromotionReason reason)
{
    switch (reason) {
      case PromotionReason::Feasible:
        return "feasible";
      case PromotionReason::CheckDisabled:
        return "check-disabled";
      case PromotionReason::NoIdleInstance:
        return "no-idle-instance";
      case PromotionReason::VictimWouldMiss:
        return "victim-would-miss";
    }
    return "?";
}

bool
promotionGranted(PromotionReason reason)
{
    return reason == PromotionReason::Feasible ||
           reason == PromotionReason::CheckDisabled;
}

std::string
PromotionDecision::summary() const
{
    std::ostringstream os;
    os << (granted ? "promote " : "deny ") << label << " (node " << node
       << ", " << accTypeName(type) << "): reason="
       << promotionReasonName(reason) << " laxity=" << laxity
       << " queue_depth=" << queueDepth;
    if (!victim.empty())
        os << " victim=" << victim << " victim_slack=" << victimSlack;
    return os.str();
}

const PromotionDecision &
DecisionLog::record(Tick when, const Node &candidate,
                    std::size_t queue_depth, PromotionReason reason,
                    const Node *victim, STick victim_slack)
{
    if (kept_.size() < capacity)
        kept_.emplace_back();
    PromotionDecision &d = kept_[recorded_ % capacity];
    ++recorded_;
    d.when = when;
    d.node = candidate.id;
    d.label.assign(candidate.label);
    d.type = candidate.params.type;
    d.laxity = candidate.laxityKey - STick(when);
    d.queueDepth = queue_depth;
    d.granted = promotionGranted(reason);
    d.reason = reason;
    if (victim)
        d.victim.assign(victim->label);
    else
        d.victim.clear();
    d.victimSlack = victim_slack;
    if (d.granted)
        ++granted_;
    return d;
}

const PromotionDecision &
DecisionLog::at(std::size_t index) const
{
    RELIEF_ASSERT(index >= first() && index < size(), "decision index ",
                  index, " is not kept (kept: [", first(), ", ", size(),
                  "))");
    return kept_[index % capacity];
}

void
DecisionLog::clear()
{
    kept_.clear();
    recorded_ = 0;
    granted_ = 0;
}

} // namespace relief
