// Durable file I/O primitives.
//
// Long sweep runs write results and checkpoint journals that must never be
// observable in a torn state: a crash between open() and the final write
// would otherwise leave a file that parses but lies. atomic_write_file
// follows the standard tmp + fsync + rename protocol (rename(2) within one
// directory is atomic on POSIX), so readers see either the old contents or
// the complete new contents, never a prefix. crc32 is the frame checksum
// used by the sweep journal (exp/journal.h) and its inspection tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace qfab {

/// Durably replace `path` with `content`: write to a temp file in the same
/// directory, fsync it, rename over `path`, then fsync the directory so the
/// rename itself is persistent. Throws CheckError on any I/O failure (the
/// temp file is removed on error).
void atomic_write_file(const std::string& path, const std::string& content);

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention). `seed` chains
/// incremental computations: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace qfab
