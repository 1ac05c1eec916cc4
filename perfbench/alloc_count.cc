#include "alloc_count.hh"

#include <cstdlib>
#include <new>

namespace
{
std::uint64_t count = 0;
} // namespace

std::uint64_t
relief::allocationCount()
{
    return count;
}

void *
operator new(std::size_t size)
{
    ++count;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
