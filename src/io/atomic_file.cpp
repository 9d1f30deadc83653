#include "io/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.h"

namespace alfi::io {

namespace {
FileOpsProbe g_probe;  // test-only write-fault shim; null in production
}  // namespace

void set_file_ops_probe_for_testing(FileOpsProbe probe) {
  g_probe = std::move(probe);
}

void notify_file_op(FileOp op, const std::string& path) {
  if (g_probe) g_probe(op, path);
}

void sync_parent_directory(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  notify_file_op(FileOp::kDirSync, parent.string());
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw IoError("cannot open directory for fsync: " + parent.string());
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw IoError("fsync failed on directory: " + parent.string());
}

std::string atomic_temp_path(const std::string& path) { return path + ".tmp"; }

void atomic_commit(const std::string& temp, const std::string& path) {
  notify_file_op(FileOp::kRename, path);
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot commit " + temp + " -> " + path);
  }
}

void atomic_discard(const std::string& temp) {
  std::remove(temp.c_str());
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string temp = atomic_temp_path(path);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot write file: " + temp);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      atomic_discard(temp);
      throw IoError("failed while writing file: " + temp);
    }
  }
  try {
    atomic_commit(temp, path);
  } catch (...) {
    atomic_discard(temp);
    throw;
  }
}

}  // namespace alfi::io
