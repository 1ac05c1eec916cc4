#include "dag/dag.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace relief
{

namespace
{
/**
 * Node id allocator. Thread-local so concurrent experiments on a
 * parallel runner's workers never race: ids are unique within a
 * thread, and every DAG of one simulation is built on that
 * simulation's thread. Experiment entry points call resetNodeIds()
 * so a simulation's ids are a pure function of its configuration —
 * ids feed DRAM stream hints, so this is what keeps results
 * bit-identical across --jobs values.
 */
thread_local NodeId nextNodeId = 1;
} // namespace

void
resetNodeIds(NodeId base)
{
    nextNodeId = base;
}

void
skipNodeIds(int count)
{
    nextNodeId += NodeId(count);
}

void
Node::resetRuntimeState()
{
    status = NodeStatus::Waiting;
    completedParents = 0;
    finishedChildren = 0;
    deadline = 0;
    scoreDeadline = 0;
    predictedRuntime = 0;
    laxityKey = 0;
    isFwd = false;
    outputAt = OutputLocation{};
    inputSources.assign(parents.size(), InputSource::Dram);
    readyAt = 0;
    launchedAt = 0;
    finishedAt = 0;
    actualMemTime = 0;
    lifecycle = NodeLifecycle{};
    outputData.clear();
}

Tick
nominalNodeRuntime(const Node &node, double dram_peak_gbs)
{
    if (node.fixedRuntime)
        return node.fixedRuntime;
    Tick compute = computeTime(node.params);
    std::uint64_t bytes =
        std::uint64_t(node.params.numInputs) * node.inputOperandSize() +
        node.outputSize();
    return compute + transferTime(bytes, dram_peak_gbs);
}

Dag::Dag(std::string name, char symbol)
    : name_(std::move(name)), symbol_(symbol)
{
}

Node *
Dag::addNode(const TaskParams &params, std::string label)
{
    RELIEF_ASSERT(!finalized_, name_, ": addNode after finalize");
    auto node = std::make_unique<Node>();
    node->id = nextNodeId++;
    node->dag = this;
    node->indexInDag = int(nodes_.size());
    node->label = std::move(label);
    node->labelHash = std::hash<std::string>{}(node->label);
    node->params = params;
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
}

void
Dag::restampIds()
{
    for (auto &node : nodes_)
        node->id = nextNodeId++;
}

void
Dag::addEdge(Node *parent, Node *child)
{
    RELIEF_ASSERT(!finalized_, name_, ": addEdge after finalize");
    RELIEF_ASSERT(parent && child, name_, ": null edge endpoint");
    RELIEF_ASSERT(parent->dag == this && child->dag == this,
                  name_, ": cross-DAG edge");
    RELIEF_ASSERT(parent != child, name_, ": self edge on ",
                  parent->label);
    // Insertion order is the topological order; enforcing parent-first
    // keeps every downstream traversal a simple forward scan.
    RELIEF_ASSERT(parent->indexInDag < child->indexInDag,
                  name_, ": edges must go forward in insertion order (",
                  parent->label, " -> ", child->label, ")");
    parent->children.push_back(child);
    child->parents.push_back(parent);
    ++numEdges_;
}

void
Dag::finalize(double dram_peak_gbs)
{
    RELIEF_ASSERT(!finalized_, name_, ": finalize twice");
    RELIEF_ASSERT(!nodes_.empty(), name_, ": empty DAG");
    RELIEF_ASSERT(relDeadline_ > 0, name_, ": no deadline set");

    const int n = numNodes();
    std::vector<Tick> runtime(std::size_t(n), 0);
    for (int i = 0; i < n; ++i)
        runtime[std::size_t(i)] =
            nominalNodeRuntime(*nodes_[std::size_t(i)], dram_peak_gbs);

    // up[i]: longest runtime path from any root ending at i, inclusive.
    std::vector<Tick> up(std::size_t(n), Tick(0));
    for (int i = 0; i < n; ++i) {
        const Node &node = *nodes_[std::size_t(i)];
        Tick best = 0;
        for (const Node *p : node.parents) {
            RELIEF_ASSERT(p->indexInDag < i, name_, ": topology broken");
            best = std::max(best, up[std::size_t(p->indexInDag)]);
        }
        up[std::size_t(i)] = best + runtime[std::size_t(i)];
    }

    // down[i]: longest runtime path from i, inclusive, to any leaf.
    std::vector<Tick> down(std::size_t(n), 0);
    for (int i = n - 1; i >= 0; --i) {
        const Node &node = *nodes_[std::size_t(i)];
        Tick best = 0;
        for (const Node *c : node.children)
            best = std::max(best, down[std::size_t(c->indexInDag)]);
        down[std::size_t(i)] = best + runtime[std::size_t(i)];
    }

    criticalPath_ = 0;
    for (int i = 0; i < n; ++i)
        criticalPath_ = std::max(criticalPath_, up[std::size_t(i)]);

    for (int i = 0; i < n; ++i) {
        Node &node = *nodes_[std::size_t(i)];
        // ALAP latest finish: DAG deadline minus the longest chain
        // strictly after this node.
        Tick after = down[std::size_t(i)] - runtime[std::size_t(i)];
        node.relDeadlineCp = after < relDeadline_ ? relDeadline_ - after
                                                  : runtime[std::size_t(i)];

        // SDR: cumulative share of the longest path through this node.
        Tick path = up[std::size_t(i)] + down[std::size_t(i)] -
                    runtime[std::size_t(i)];
        double sdr = path ? double(up[std::size_t(i)]) / double(path) : 1.0;
        node.relDeadlineSdr = Tick(sdr * double(relDeadline_));

        node.resetRuntimeState();
    }
    finalized_ = true;
}

std::vector<Node *>
Dag::allNodes()
{
    std::vector<Node *> out;
    out.reserve(nodes_.size());
    for (auto &node : nodes_)
        out.push_back(node.get());
    return out;
}

std::vector<Node *>
Dag::roots()
{
    std::vector<Node *> out;
    for (auto &node : nodes_)
        if (node->isRoot())
            out.push_back(node.get());
    return out;
}

std::vector<Node *>
Dag::leaves()
{
    std::vector<Node *> out;
    for (auto &node : nodes_)
        if (node->isLeaf())
            out.push_back(node.get());
    return out;
}

Tick
Dag::totalComputeTime() const
{
    Tick total = 0;
    for (const auto &node : nodes_) {
        total += node->fixedRuntime ? node->fixedRuntime
                                    : computeTime(node->params);
    }
    return total;
}

Tick
Dag::nodeRelativeDeadline(const Node &node, DeadlineScheme scheme) const
{
    RELIEF_ASSERT(finalized_, name_, ": deadline query before finalize");
    switch (scheme) {
      case DeadlineScheme::DagDeadline:
        return relDeadline_;
      case DeadlineScheme::CriticalPath:
        return node.relDeadlineCp;
      case DeadlineScheme::Sdr:
        return node.relDeadlineSdr;
    }
    panic("unknown deadline scheme");
}

void
Dag::writeDot(std::ostream &os) const
{
    // One fill color per accelerator type (pastel palette).
    static const char *palette[numAccTypes] = {
        "#f4cccc", "#fce5cd", "#fff2cc", "#d9ead3",
        "#d0e0e3", "#cfe2f3", "#d9d2e9"};

    os << "digraph \"" << name_ << "\" {\n";
    os << "  rankdir=TB;\n";
    os << "  label=\"" << name_ << " (deadline "
       << toMs(relDeadline_) << " ms)\";\n";
    os << "  node [shape=box, style=filled, fontsize=10];\n";
    for (const auto &node : nodes_) {
        os << "  n" << node->indexInDag << " [label=\"" << node->label
           << "\\n" << accTypeSymbol(node->params.type) << ", "
           << toUs(nominalNodeRuntime(*node)) << " us\", fillcolor=\""
           << palette[accIndex(node->params.type)] << "\"];\n";
    }
    for (const auto &node : nodes_) {
        for (const Node *child : node->children) {
            os << "  n" << node->indexInDag << " -> n"
               << child->indexInDag << ";\n";
        }
    }
    os << "}\n";
}

void
Dag::submit(Tick tick)
{
    RELIEF_ASSERT(finalized_, name_, ": submit before finalize");
    arrival_ = tick;
    finish_ = 0;
    numFinished_ = 0;
    for (auto &node : nodes_)
        node->resetRuntimeState();
}

} // namespace relief
