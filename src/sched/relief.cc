#include "sched/relief.hh"

#include <algorithm>

#include "sched/baseline_policies.hh"
#include "sim/debug.hh"

namespace relief
{

bool
ReliefPolicy::isFeasible(ReadyQueue &queue, const Node *fnode,
                         std::size_t index, Tick now,
                         const Node **victim, STick *victim_slack)
{
    bool can_forward = true;
    // The queue is laxity-sorted (after the promoted prefix), so the
    // first non-forwarding node with positive current laxity bounds
    // every node behind it: if it can absorb the candidate's runtime,
    // they all can. Negative-laxity nodes are skipped — they are not
    // expected to meet their deadlines with or without the promotion.
    for (std::size_t i = 0; i < index && i < queue.size(); ++i) {
        const Node *node = queue.at(i);
        STick curr_laxity = node->laxityKey - STick(now);
        if (!node->isFwd && curr_laxity > 0) {
            can_forward = curr_laxity > STick(fnode->predictedRuntime);
            if (victim)
                *victim = node;
            if (victim_slack)
                *victim_slack =
                    curr_laxity - STick(fnode->predictedRuntime);
            break;
        }
    }
    if (can_forward) {
        // Everyone the candidate bypasses will wait an extra
        // fnode.runtime; charge it to their stored laxity.
        for (std::size_t i = 0; i < index && i < queue.size(); ++i)
            queue.at(i)->laxityKey -= STick(fnode->predictedRuntime);
    }
    return can_forward;
}

void
ReliefPolicy::onNodesReady(const std::vector<Node *> &ready,
                           const SchedContext &ctx, ReadyQueues &queues)
{
    // Algorithm 1, lines 2-8: laxity-sorted forwarding-candidate lists,
    // one per accelerator type. Root nodes (no just-finished parent)
    // have nothing to forward and go straight to sorted insertion.
    for (auto &list : fwdNodes_)
        list.clear();
    for (Node *node : ready) {
        auto &q = queues[accIndex(node->params.type)];
        if (node->isRoot()) {
            node->isFwd = false;
            q.insertAt(q.findLaxityPos(node), node);
            continue;
        }
        auto &list = fwdNodes_[accIndex(node->params.type)];
        auto pos = std::find_if(list.begin(), list.end(),
                                [node](const Node *other) {
                                    return other->laxityKey >
                                           node->laxityKey;
                                });
        list.insert(pos, node);
    }

    // Algorithm 1, lines 9-23.
    for (std::size_t t = 0; t < std::size_t(numAccTypes); ++t) {
        int max_forwards = ctx.idleCount[t];
        auto &q = queues[t];
        for (Node *node : fwdNodes_[t]) {
            std::size_t index = q.findLaxityPos(node);

            PromotionReason reason;
            const Node *victim = nullptr;
            STick victim_slack = 0;
            if (max_forwards <= 0) {
                reason = PromotionReason::NoIdleInstance;
            } else if (!feasibilityCheck_) {
                reason = PromotionReason::CheckDisabled;
            } else if (isFeasible(q, node, index, ctx.now, &victim,
                                  &victim_slack)) {
                reason = PromotionReason::Feasible;
            } else {
                reason = PromotionReason::VictimWouldMiss;
            }
            const PromotionDecision &d = log_.record(
                ctx.now, *node, q.size(), reason, victim, victim_slack);

            if (d.granted) {
                q.pushFront(node);
                node->isFwd = true;
                --max_forwards;
                ++promotions_;
            } else {
                q.insertAt(index, node);
                node->isFwd = false;
                ++throttled_;
            }
            DPRINTFN(Sched, ctx.now, "relief", d.summary());
        }
    }
}

Node *
ReliefPolicy::selectNext(AccType type, ReadyQueues &queues, Tick now)
{
    auto &q = queues[accIndex(type)];
    if (q.empty())
        return nullptr;
    if (laxDispatch_ && !q.at(0)->isFwd)
        return q.popAt(laxDispatchIndex(q, now));
    return q.popFront();
}

Tick
ReliefPolicy::pushCost(std::size_t queue_len) const
{
    // Sorted insert plus the feasibility scan over bypassed nodes.
    return fromNs(320.0) + fromNs(18.0) * Tick(queue_len);
}

} // namespace relief
