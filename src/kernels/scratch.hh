/**
 * @file
 * Pooled float buffers for the functional kernels and payloads. The
 * Harris reference draws its intermediate Planes from the pool, and
 * the hardware manager draws every DAG node's output buffer from it,
 * handing the buffer back once the last of the node's children has run
 * its payload (leaves keep theirs until their DAG is resubmitted).
 * Storage is thus recycled across calls and nodes on the same thread
 * instead of being allocated, trimmed and faulted back in by the heap.
 *
 * The `kernels.scratch_*` stats count acquisitions of both kinds. The
 * pool is thread-local and reset (buffers dropped, counters zeroed) at
 * every experiment entry point alongside resetNodeIds(), so the stats
 * are a pure function of the run — independent of what the worker
 * thread executed before — preserving the jobs-invariance contract.
 */

#ifndef RELIEF_KERNELS_SCRATCH_HH
#define RELIEF_KERNELS_SCRATCH_HH

#include <cstdint>
#include <vector>

#include "kernels/image.hh"

namespace relief
{

/** Thread-local recycler of float buffers. */
class ScratchPool
{
  public:
    /** The calling thread's pool. */
    static ScratchPool &forThread();

    /** Take a recycled buffer (unspecified contents, any size) or a
     *  fresh one; callers size/fill it themselves. */
    std::vector<float> acquire();

    /** Take @p buf back for reuse (keeps at most maxPooled; storage
     *  past that, or none at all, is simply dropped). */
    void release(std::vector<float> buf);

    /** Acquisitions served from the pool since the last reset(). */
    std::uint64_t reuses() const { return reuses_; }

    /** Acquisitions that had to allocate fresh storage. */
    std::uint64_t allocs() const { return allocs_; }

    /** Drop pooled buffers and zero the counters. */
    void reset();

  private:
    static constexpr std::size_t maxPooled = 64;

    std::vector<std::vector<float>> free_;
    std::uint64_t reuses_ = 0;
    std::uint64_t allocs_ = 0;
};

/** reset() the calling thread's pool — call where resetNodeIds() is
 *  called so scratch stats are deterministic per run. */
void resetKernelScratch();

/** RAII Plane drawing its storage from the thread's ScratchPool;
 *  zero-filled like a fresh Plane(w, h). */
class ScratchPlane
{
  public:
    ScratchPlane(int width, int height);
    ~ScratchPlane();

    ScratchPlane(const ScratchPlane &) = delete;
    ScratchPlane &operator=(const ScratchPlane &) = delete;

    Plane &operator*() { return plane_; }
    const Plane &operator*() const { return plane_; }
    Plane *operator->() { return &plane_; }
    const Plane *operator->() const { return &plane_; }

  private:
    Plane plane_;
};

} // namespace relief

#endif // RELIEF_KERNELS_SCRATCH_HH
