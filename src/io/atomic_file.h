// Write-temp-then-rename file commits.
//
// Campaign outputs (KPI CSVs, detection JSONs, binary traces, metrics)
// must never be observable half-written: a crash mid-write
// would otherwise leave a truncated file at the final path that a
// resumed run — or a downstream analysis script — happily consumes.
// Every campaign artifact is therefore written to `<path>.tmp` and
// renamed into place only once complete; POSIX rename(2) within one
// directory is atomic, so readers see either the old file or the whole
// new one, never a prefix.
#pragma once

#include <functional>
#include <string>

namespace alfi::io {

// ---- durability probe (write-fault shim for tests) --------------------------

/// The durability-relevant file operations: the journal's directory
/// entry is made durable (kDirSync) before its first frame is appended
/// (kJournalAppend), and the journal fd is fsync'ed (kJournalSync)
/// after its header, at least every few unit frames and at close; an
/// atomic commit renames its temp file into place (kRename).
enum class FileOp {
  kJournalAppend,  ///< journal frame write
  kJournalSync,    ///< fsync of the journal fd
  kDirSync,        ///< fsync of a containing directory
  kRename,         ///< atomic-commit rename into the final path
};

/// Test shim observing (and optionally failing, by throwing) every
/// durability-relevant operation before it runs.  Not thread-safe:
/// install only in single-threaded test code, clear with nullptr.
using FileOpsProbe = std::function<void(FileOp, const std::string& path)>;
void set_file_ops_probe_for_testing(FileOpsProbe probe);

/// Invokes the installed probe (no-op without one).  Internal hook for
/// the journal writer; exposed so io/ stays one probe stream.
void notify_file_op(FileOp op, const std::string& path);

/// fsyncs the directory containing `path` so renames/creates inside it
/// survive power loss.  Throws IoError on failure.
void sync_parent_directory(const std::string& path);

/// How a streaming writer (CsvWriter, BinaryWriter) publishes its file.
enum class WriteMode {
  kDirect,  ///< write straight to the final path (legacy behavior)
  /// Write to `<path>.tmp`, rename into place on close(): a crash can
  /// never leave a truncated file at the final path.  All campaign
  /// outputs use this mode.
  kAtomic,
};

/// The sibling temp path used while the file is being written.
std::string atomic_temp_path(const std::string& path);

/// Renames `temp` onto `path`; throws IoError on failure.  Nothing is
/// fsync'ed: a commit only keeps readers from seeing a half-written
/// file, and surviving power loss is the journal's job (DESIGN.md §8).
void atomic_commit(const std::string& temp, const std::string& path);

/// Removes a leftover temp file, ignoring errors (crash cleanup).
void atomic_discard(const std::string& temp);

/// Whole-file convenience: writes `contents` to the temp path, then
/// commits.  Used by the JSON/YAML emitters.
void write_file_atomic(const std::string& path, const std::string& contents);

}  // namespace alfi::io
