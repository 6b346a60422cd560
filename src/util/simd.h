// A leftover name, not a dispatch layer: every column scan is plain
// scalar code. Only kavbench still prints a `simd` info line per run
// (kavbench.cpp); the shim goes once that line does (ROADMAP item 9).
#ifndef KAV_UTIL_SIMD_H
#define KAV_UTIL_SIMD_H

namespace kav::simd {

enum class Level : unsigned char { scalar = 0 };

inline const char* to_string(Level) { return "scalar"; }

inline Level active_level() { return Level::scalar; }

}  // namespace kav::simd

#endif  // KAV_UTIL_SIMD_H
