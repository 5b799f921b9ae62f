// Crash-safe index persistence at the filesystem level.
//
// Index::save(std::ostream&) writes a stream; where that stream lands is
// the caller's problem — and a naive `std::ofstream(path)` is a data-loss
// bug: a crash (or a full disk) mid-write leaves a truncated file at
// `path`, destroying the previous good index. save_index() closes that
// hole with the standard atomic-replace protocol:
//
//   stream Index::save into <path>.tmp -> fsync(tmp) -> close
//     -> rename(tmp, path) -> fsync(parent dir)
//
// The save streams through a fixed-size buffer rather than assembling the
// file in memory first, so saving adds no file-sized allocation to the
// process peak. A save that throws part-way unlinks the partial tmp file.
//
// rename(2) is atomic on POSIX filesystems, so `path` only ever holds
// either the complete old index or the complete new one — never a torn
// mix — no matter where a crash lands (tested against interrupted-write
// fixtures in tests/test_corrupt_files.cpp). This matters doubly for
// serving: RbcServer's hot reload re-reads the file at `path` while a
// writer may be refreshing it — with atomic replacement the reload sees a
// complete index, old or new, never a truncated one. rbc_tool's build
// command saves through this helper.
#pragma once

#include <memory>
#include <string>

#include "api/index.hpp"

namespace rbc {

/// Atomically persists a built index at `path` (see file comment). The
/// intermediate `<path>.tmp` is cleaned up on failure. Throws
/// std::system_error on I/O failure and whatever Index::save throws
/// (std::runtime_error for backends without serialization support).
void save_index(const Index& index, const std::string& path);

/// Convenience: open `path` and restore via rbc::load_index(std::istream&).
/// Throws std::runtime_error when the file cannot be opened or no backend
/// claims its magic.
std::unique_ptr<Index> load_index_file(const std::string& path);

}  // namespace rbc
