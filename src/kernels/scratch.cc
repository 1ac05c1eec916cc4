#include "kernels/scratch.hh"

#include <utility>

namespace relief
{

ScratchPool &
ScratchPool::forThread()
{
    thread_local ScratchPool pool;
    return pool;
}

std::vector<float>
ScratchPool::acquire()
{
    if (!free_.empty()) {
        std::vector<float> buf = std::move(free_.back());
        free_.pop_back();
        ++reuses_;
        return buf;
    }
    ++allocs_;
    return {};
}

void
ScratchPool::release(std::vector<float> buf)
{
    if (buf.capacity() != 0 && free_.size() < maxPooled)
        free_.push_back(std::move(buf));
}

void
ScratchPool::reset()
{
    free_.clear();
    reuses_ = 0;
    allocs_ = 0;
}

void
resetKernelScratch()
{
    ScratchPool::forThread().reset();
}

ScratchPlane::ScratchPlane(int width, int height)
    : plane_(width, height, ScratchPool::forThread().acquire())
{
}

ScratchPlane::~ScratchPlane()
{
    ScratchPool::forThread().release(std::move(plane_.data()));
}

} // namespace relief
