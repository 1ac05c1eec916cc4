/**
 * @file
 * RELIEF — RElaxing Least-laxIty to Enable Forwarding (Algorithms 1
 * and 2 of the paper).
 *
 * Newly ready nodes whose parent just finished are *forwarding nodes*:
 * launched immediately, they can pull the parent's output straight from
 * its scratchpad. RELIEF promotes such a candidate to the head of its
 * ready queue when (1) fewer forwarding nodes are queued than idle
 * instances of that accelerator type (so promoted nodes really are the
 * next to run, while the producer's data is still live), and (2) the
 * laxity-driven feasibility check says no waiting node would be pushed
 * past its deadline. Otherwise the node is inserted at its laxity
 * position like vanilla least-laxity.
 *
 * The RELIEF-LAX variant additionally applies LAX's dispatch-time
 * de-prioritization of negative-laxity nodes (evaluated in Section
 * V-E, where the paper shows it hurts fairness).
 */

#ifndef RELIEF_SCHED_RELIEF_HH
#define RELIEF_SCHED_RELIEF_HH

#include <array>
#include <vector>

#include "sched/decision_log.hh"
#include "sched/policy.hh"

namespace relief
{

/** Knobs for RELIEF variants (ablations and the paper's Section VII
 *  discussion of alternative laxity distributions). */
struct ReliefOptions
{
    /** Apply LAX's negative-laxity de-prioritization at dispatch. */
    bool laxDispatch = false;
    /** Laxity distribution: CriticalPath is the paper's RELIEF; Sdr is
     *  the RELIEF-over-HetSched combination Section VII sketches. */
    DeadlineScheme scheme = DeadlineScheme::CriticalPath;
    /** Disable to promote greedily whenever an instance is idle — the
     *  ablation showing why is_feasible() exists. */
    bool feasibilityCheck = true;
};

class ReliefPolicy : public Policy
{
  public:
    /** @param lax_dispatch true = RELIEF-LAX. */
    explicit ReliefPolicy(bool lax_dispatch = false)
        : ReliefPolicy(ReliefOptions{lax_dispatch,
                                     DeadlineScheme::CriticalPath, true})
    {
    }

    explicit ReliefPolicy(const ReliefOptions &options)
        : laxDispatch_(options.laxDispatch), scheme_(options.scheme),
          feasibilityCheck_(options.feasibilityCheck)
    {
    }

    PolicyKind kind() const override
    {
        if (scheme_ == DeadlineScheme::Sdr)
            return PolicyKind::ReliefHetSched;
        return laxDispatch_ ? PolicyKind::ReliefLax : PolicyKind::Relief;
    }
    DeadlineScheme deadlineScheme() const override { return scheme_; }
    void onNodesReady(const std::vector<Node *> &ready,
                      const SchedContext &ctx,
                      ReadyQueues &queues) override;
    Node *selectNext(AccType type, ReadyQueues &queues, Tick now) override;
    Tick pushCost(std::size_t queue_len) const override;

    /** Promotions performed / denied by the feasibility check. */
    std::uint64_t numPromotions() const { return promotions_; }
    std::uint64_t numThrottled() const { return throttled_; }

    /** Every promotion decision taken so far, in order. */
    const DecisionLog &decisionLog() const { return log_; }
    DecisionLog &decisionLog() { return log_; }

    /**
     * Algorithm 2: can @p fnode jump to the head of @p queue without
     * pushing a waiting node past its deadline? On success, charges
     * fnode's runtime to the laxity of every node it bypasses.
     *
     * @param queue The candidate's ready queue.
     * @param fnode Forwarding candidate.
     * @param index The candidate's laxity-sorted position in @p queue.
     * @param now   Current time.
     * @param victim Optional out: the first non-forwarding
     *               positive-laxity node that bounds the check
     *               (nullptr when the scan found none).
     * @param victim_slack Optional out: laxity the victim keeps after
     *               absorbing fnode's runtime (negative on failure).
     */
    static bool isFeasible(ReadyQueue &queue, const Node *fnode,
                           std::size_t index, Tick now,
                           const Node **victim = nullptr,
                           STick *victim_slack = nullptr);

  private:
    bool laxDispatch_;
    DeadlineScheme scheme_ = DeadlineScheme::CriticalPath;
    bool feasibilityCheck_ = true;
    std::uint64_t promotions_ = 0;
    std::uint64_t throttled_ = 0;
    DecisionLog log_;
    /** onNodesReady's per-type forwarding-candidate lists, cleared on
     *  each call and kept for their capacity. */
    std::array<std::vector<Node *>, std::size_t(numAccTypes)> fwdNodes_;
};

} // namespace relief

#endif // RELIEF_SCHED_RELIEF_HH
