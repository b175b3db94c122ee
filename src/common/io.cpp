#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace qfab {

namespace {

/// Directory part of `path` ("." when there is none).
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync the directory containing a just-renamed file so the rename itself
/// survives power loss. A failed directory fsync means the rename may
/// silently vanish, so real failures (EIO and friends) surface as
/// CheckError with the errno instead of being swallowed. Two cases are
/// tolerated because they mean "cannot be done here", not "was lost":
/// filesystems that refuse directory fsync report EINVAL/ENOTSUP (POSIX
/// allows this), and a directory that grants create-but-not-read permission
/// cannot be opened O_RDONLY at all (EACCES).
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    QFAB_CHECK_MSG(errno == EACCES, "cannot open directory "
                                        << dir << " for fsync: "
                                        << std::strerror(errno));
    return;
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  (void)::close(fd);
  if (rc != 0) {
    QFAB_CHECK_MSG(err == EINVAL || err == ENOTSUP,
                   "fsync of directory " << dir << " failed: "
                                         << std::strerror(err));
  }
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  // The temp file must live in the target directory: rename(2) is only
  // atomic within one filesystem. The pid suffix keeps concurrent writers
  // of different files from colliding; concurrent writers of the *same*
  // path last-write-win, which is the same guarantee rename gives anyway.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  QFAB_CHECK_MSG(fd >= 0, "cannot open " << tmp << " for writing: "
                                         << std::strerror(errno));
  std::size_t written = 0;
  bool ok = true;
  while (ok && written < content.size()) {
    const ssize_t n = ::write(fd, content.data() + written,
                              content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      written += static_cast<std::size_t>(n);
    }
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    QFAB_CHECK_MSG(false, "short write to " << tmp << ": "
                                            << std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    QFAB_CHECK_MSG(false, "cannot rename " << tmp << " over " << path << ": "
                                           << std::strerror(err));
  }
  fsync_dir(dir_of(path));
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace qfab
