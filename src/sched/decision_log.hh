/**
 * @file
 * Structured log of RELIEF promotion decisions.
 *
 * Every forwarding candidate that reaches Algorithm 1's promotion loop
 * produces one PromotionDecision: the candidate's identity and laxity,
 * the queue it targeted, whether promotion was granted, and why. On a
 * denial caused by the feasibility check, the decision also names the
 * *victim* — the waiting node whose laxity could not absorb the
 * candidate's runtime — and the (negative) slack it would have been
 * left with.
 *
 * The log counts every decision but keeps only the most recent
 * DecisionLog::capacity of them, each written in place in its ring
 * slot, so a long run holds a fixed amount of memory and, once every
 * slot has held its longest label, allocates nothing. The kept
 * decisions are queryable in-process (tests assert on individual
 * decisions). Every decision is mirrored line-by-line on the Sched
 * debug flag, so `--debug-flags Sched` prints the whole history.
 */

#ifndef RELIEF_SCHED_DECISION_LOG_HH
#define RELIEF_SCHED_DECISION_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "acc/acc_types.hh"
#include "dag/node.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Why a promotion was granted or denied. */
enum class PromotionReason
{
    Feasible,        ///< Granted: no bypassed node misses its deadline.
    CheckDisabled,   ///< Granted greedily (feasibility ablation).
    NoIdleInstance,  ///< Denied: no idle accelerator of this type.
    VictimWouldMiss, ///< Denied: a waiting node would miss its deadline.
};

const char *promotionReasonName(PromotionReason reason);

/** Whether @p reason corresponds to a granted promotion. */
bool promotionGranted(PromotionReason reason);

/** One promotion decision, recorded at scheduling time. */
struct PromotionDecision
{
    Tick when = 0;             ///< Decision time.
    NodeId node = 0;           ///< Candidate node id.
    std::string label;         ///< Candidate debug label.
    AccType type = AccType(0); ///< Target accelerator type.
    STick laxity = 0;          ///< Candidate laxity at decision time.
    std::size_t queueDepth = 0; ///< Ready-queue depth before insertion.
    bool granted = false;
    PromotionReason reason = PromotionReason::Feasible;
    /** Label of the bounding non-forwarding node the feasibility scan
     *  stopped at; empty when the scan found none. */
    std::string victim;
    /** The victim's laxity minus the candidate's runtime: what the
     *  victim keeps after absorbing the bypass (negative on denial). */
    STick victimSlack = 0;

    /** One-line rendering, shared by the Sched debug flag. */
    std::string summary() const;
};

class DecisionLog
{
  public:
    /** How many of the most recent decisions the log keeps. */
    static constexpr std::size_t capacity = 1024;

    /**
     * Record the decision @p reason about @p candidate, taken at
     * @p when against a ready queue @p queue_depth deep; @p victim and
     * @p victim_slack are the feasibility scan's bound (null and 0
     * when it found none). The decision is written in place: once the
     * ring is full it overwrites the oldest kept one, whose label
     * strings keep their capacity, so a warm log allocates nothing.
     * @return the recorded decision.
     */
    const PromotionDecision &record(Tick when, const Node &candidate,
                                    std::size_t queue_depth,
                                    PromotionReason reason,
                                    const Node *victim,
                                    STick victim_slack);

    /** Decisions recorded since construction or the last clear(). */
    std::size_t size() const { return recorded_; }
    /** Index of the oldest decision still kept (0 until more than
     *  capacity decisions have been recorded). */
    std::size_t first() const { return recorded_ - kept_.size(); }
    /** Decision @p index, counting from the first one recorded;
     *  panics unless first() <= index < size(). */
    const PromotionDecision &at(std::size_t index) const;

    std::uint64_t numGranted() const { return granted_; }
    std::uint64_t numDenied() const { return recorded_ - granted_; }

    void clear();

  private:
    /** Ring of the kept decisions: decision i sits at i % capacity. */
    std::vector<PromotionDecision> kept_;
    std::uint64_t recorded_ = 0;
    std::uint64_t granted_ = 0;
};

} // namespace relief

#endif // RELIEF_SCHED_DECISION_LOG_HH
