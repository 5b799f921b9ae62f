#include "api/persist.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <streambuf>
#include <system_error>
#include <vector>

#include "api/registry.hpp"

namespace rbc {

namespace {

[[noreturn]] void fail(const char* what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(),
                          std::string("rbc::save_index: ") + what + " '" +
                              path + "'");
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Output stream buffer over a file descriptor: Index::save streams the
/// file through a fixed 1 MiB buffer instead of assembling it in memory.
/// Writes at least a buffer long skip the copy. A failed write(2) leaves
/// its errno in error() and fails the stream (badbit).
class FdWriteBuf final : public std::streambuf {
 public:
  explicit FdWriteBuf(int fd) : fd_(fd), buffer_(std::size_t{1} << 20) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  int error() const { return error_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n < static_cast<std::streamsize>(buffer_.size()))
      return std::streambuf::xsputn(s, n);
    if (!drain() || !write_all(s, static_cast<std::size_t>(n))) return 0;
    return n;
  }

  int sync() override { return drain() ? 0 : -1; }

 private:
  bool drain() {
    const bool ok =
        write_all(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    return ok;
  }

  bool write_all(const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = write(fd_, data, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        error_ = errno;
        return false;
      }
      data += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_;
  std::vector<char> buffer_;
  int error_ = 0;
};

}  // namespace

void save_index(const Index& index, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644);
  if (fd < 0) fail("cannot create", tmp);
  auto abort_tmp = [&](const char* what, int error) {
    close(fd);
    unlink(tmp.c_str());
    errno = error;
    fail(what, tmp);
  };

  // Stream straight into the tmp file. A backend that throws mid-save (or
  // one that does not support save at all) leaves a partial tmp file, which
  // is removed before the exception propagates; `path` is never touched.
  FdWriteBuf buffer(fd);
  std::ostream os(&buffer);
  try {
    index.save(os);
  } catch (...) {
    close(fd);
    unlink(tmp.c_str());
    throw;
  }
  if (!os.flush())
    abort_tmp("write to", buffer.error() != 0 ? buffer.error() : EIO);
  // The data must be on disk *before* the rename publishes the name: a
  // crash between rename and a later flush would otherwise leave `path`
  // pointing at garbage — the exact corruption this helper exists to
  // prevent.
  if (fsync(fd) < 0) abort_tmp("fsync", errno);
  if (close(fd) < 0) {
    const int saved = errno;
    unlink(tmp.c_str());
    errno = saved;
    fail("close", tmp);
  }
  if (rename(tmp.c_str(), path.c_str()) < 0) {
    const int saved = errno;
    unlink(tmp.c_str());
    errno = saved;
    fail("rename into place", path);
  }
  // Make the rename itself durable. Best-effort: some filesystems refuse
  // directory fsync, and by this point `path` is already atomic-or-old.
  const int dir_fd =
      open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    fsync(dir_fd);
    close(dir_fd);
  }
}

std::unique_ptr<Index> load_index_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("rbc::load_index_file: cannot open '" + path +
                             "'");
  return load_index(is);
}

}  // namespace rbc
