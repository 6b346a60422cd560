#include "util/crc32c.h"

#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KAV_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define KAV_CRC32C_X86 0
#endif

namespace kav::crc {

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial,
// generated once at startup. table[0] is the classic byte-at-a-time
// table; table[k] advances a byte that sits k positions deeper in the
// 8-byte word, so the hot loop folds 8 input bytes per iteration.
struct Tables {
  std::uint32_t t[8][256];
  Tables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[k][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables shared;
  return shared;
}

#if KAV_CRC32C_X86

// `_mm_crc32_u64` has 3-cycle latency but 1/cycle throughput, so a
// single dependency chain caps out near 8/3 bytes per cycle. The hot
// loop therefore runs THREE independent chains over adjacent
// kStreamBytes slices and recombines them. Recombination uses the
// linearity of the CRC state update: for raw (uninverted) states,
// state(A|B) = zshift_{|B|}(state(A)) ^ state_from_zero(B), where
// zshift_k is the linear operator "append k zero bytes". For the
// fixed k = kStreamBytes that operator is precomputed as 4x256
// byte-slice tables.
constexpr std::size_t kStreamBytes = 1024;

struct ShiftTables {
  std::uint32_t t[4][256];
  ShiftTables() {
    const Tables& tb = tables();
    std::uint32_t basis[32];
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t state = std::uint32_t{1} << bit;
      for (std::size_t step = 0; step < kStreamBytes; ++step) {
        state = tb.t[0][state & 0xff] ^ (state >> 8);
      }
      basis[bit] = state;
    }
    for (int j = 0; j < 4; ++j) {
      for (std::uint32_t v = 0; v < 256; ++v) {
        std::uint32_t image = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if (v & (std::uint32_t{1} << bit)) image ^= basis[8 * j + bit];
        }
        t[j][v] = image;
      }
    }
  }
};

const ShiftTables& shift_tables() {
  static const ShiftTables shared;
  return shared;
}

std::uint32_t zshift_stream(const ShiftTables& st, std::uint32_t x) {
  return st.t[0][x & 0xff] ^ st.t[1][(x >> 8) & 0xff] ^
         st.t[2][(x >> 16) & 0xff] ^ st.t[3][x >> 24];
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t state, const unsigned char* p, std::size_t n) {
  const ShiftTables& st = shift_tables();
  std::uint64_t s = state;
  while (n >= 3 * kStreamBytes) {
    std::uint64_t s0 = s;
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    for (std::size_t i = 0; i < kStreamBytes; i += 8) {
      std::uint64_t w0, w1, w2;
      __builtin_memcpy(&w0, p + i, 8);
      __builtin_memcpy(&w1, p + kStreamBytes + i, 8);
      __builtin_memcpy(&w2, p + 2 * kStreamBytes + i, 8);
      s0 = _mm_crc32_u64(s0, w0);
      s1 = _mm_crc32_u64(s1, w1);
      s2 = _mm_crc32_u64(s2, w2);
    }
    s = zshift_stream(st, zshift_stream(st, static_cast<std::uint32_t>(s0)) ^
                              static_cast<std::uint32_t>(s1)) ^
        static_cast<std::uint32_t>(s2);
    p += 3 * kStreamBytes;
    n -= 3 * kStreamBytes;
  }
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    s = _mm_crc32_u64(s, word);
    p += 8;
    n -= 8;
  }
  std::uint32_t s32 = static_cast<std::uint32_t>(s);
  while (n > 0) {
    s32 = _mm_crc32_u8(s32, *p);
    ++p;
    --n;
  }
  return s32;
}

#endif  // KAV_CRC32C_X86

bool detect_hardware() {
  if (const char* force = std::getenv("KAV_FORCE_SCALAR")) {
    if (force[0] == '1' && force[1] == '\0') return false;
  }
#if KAV_CRC32C_X86
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

bool use_hardware() {
  static const bool cached = detect_hardware();
  return cached;
}

std::uint32_t software_state(std::uint32_t state, const unsigned char* p,
                             std::size_t n) {
  const Tables& tb = tables();
  while (n >= 8) {
    const std::uint32_t lo = state ^ (static_cast<std::uint32_t>(p[0]) |
                                      (static_cast<std::uint32_t>(p[1]) << 8) |
                                      (static_cast<std::uint32_t>(p[2]) << 16) |
                                      (static_cast<std::uint32_t>(p[3]) << 24));
    state = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
            tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^ tb.t[3][p[4]] ^
            tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = tb.t[0][(state ^ *p) & 0xff] ^ (state >> 8);
    ++p;
    --n;
  }
  return state;
}

}  // namespace

std::uint32_t crc32c_software(std::uint32_t crc, const void* data,
                              std::size_t n) {
  return ~software_state(~crc, static_cast<const unsigned char*>(data), n);
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
#if KAV_CRC32C_X86
  if (use_hardware()) return ~crc32c_sse42(~crc, p, n);
#endif
  return ~software_state(~crc, p, n);
}

std::uint32_t crc32c(const void* data, std::size_t n) {
  return crc32c_extend(0, data, n);
}

}  // namespace kav::crc
