#include "util/memory.h"

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace kav::util {

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace kav::util
