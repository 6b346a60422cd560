// Returning freed heap memory to the OS.
//
// glibc keeps what a thread frees in that thread's malloc arena instead
// of handing it back, so a pool worker that once held a large working
// set (a big shard's History, a compaction fold's SegmentWriter state)
// keeps it resident from then on, and which workers did is up to
// scheduling. The code that frees such a working set calls
// release_free_memory() afterwards, at the price of the next user
// faulting those pages back in.
#ifndef KAV_UTIL_MEMORY_H
#define KAV_UTIL_MEMORY_H

namespace kav::util {

// malloc_trim(0) on glibc: every arena's free memory goes back to the
// OS. A no-op on other C libraries.
void release_free_memory();

}  // namespace kav::util

#endif  // KAV_UTIL_MEMORY_H
