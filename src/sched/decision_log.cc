#include "sched/decision_log.hh"

#include <sstream>
#include <utility>

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

void
DecisionLog::record(PromotionDecision decision)
{
    if (decision.granted)
        ++granted_;
    if (kept_.size() < capacity)
        kept_.push_back(std::move(decision));
    else
        kept_[recorded_ % capacity] = std::move(decision);
    ++recorded_;
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
