// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78):
// the checksum of the .kavb v2.1 integrity pages (docs/FORMATS.md).
// Chosen over the zlib CRC32 because x86-64 has carried a dedicated
// instruction for it since SSE4.2, so verifying a block on the
// zero-copy read path costs ~10-15% of a one-key load (bench_store's
// BM_LoadOneKey_CrcPaired), not a second decode.
//
// Dispatch: the software slicing-by-8 implementation is always
// compiled and IS the semantics; the SSE4.2 variant is compiled behind
// a target attribute, selected once at runtime via cpuid, and must
// produce bit-identical results (tests/store_test.cpp pits them
// against each other and against the published check value
// crc32c("123456789") == 0xE3069283). KAV_FORCE_SCALAR=1 in the
// environment (read once) pins the software path, so a result
// difference can be bisected to the hardware path by rerunning one
// process.
#ifndef KAV_UTIL_CRC32C_H
#define KAV_UTIL_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace kav::crc {

// One-shot checksum of [data, data + n).
std::uint32_t crc32c(const void* data, std::size_t n);

// Incremental form: crc32c(d, n) == crc32c_extend(crc32c_extend(0, d,
// k), d + k, n - k) for any split k. `crc` is a finalized checksum
// (the functions fold the standard pre/post inversion internally), so
// partial values are directly comparable and storable.
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t n);

// The software reference, always available regardless of dispatch --
// the differential test target.
std::uint32_t crc32c_software(std::uint32_t crc, const void* data,
                              std::size_t n);

}  // namespace kav::crc

#endif  // KAV_UTIL_CRC32C_H
