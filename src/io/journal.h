// Append-only, CRC32-framed result journal for crash-safe campaigns —
// the only durable record a campaign keeps.
//
// Each campaign worker spools the serialized result of every completed
// work unit into the journal; a crash (OOM, SIGKILL, power loss) can
// then only lose the units whose frames never reached the disk.  On
// resume the header frame identifies the campaign (fingerprint, task
// kind, unit count), the journal is scanned front to back, the first
// torn or corrupted frame truncates the tail (a crash mid-append leaves
// at most a broken suffix, never a broken middle), and every intact
// unit is replayed into the merge step instead of being recomputed.
//
// File layout — a sequence of frames, each:
//
//   ┌───────────────┬──────────────┬───────────────────┐
//   │ u32 size      │ u32 crc32    │ payload (size B)  │
//   └───────────────┴──────────────┴───────────────────┘
//
// with the payload's first byte a frame kind: kHeader (campaign
// fingerprint + geometry, always frame 0) or kUnit (u64 unit index +
// task-defined result bytes).  All integers little-endian.
//
// ByteWriter/ByteReader are the in-memory little-endian packers used to
// build frame payloads before framing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace alfi::io {

// ---- in-memory little-endian packing ----------------------------------------

/// Builds a byte string with the same encoding as BinaryWriter.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { put(&v, sizeof v); }
  void write_u32(std::uint32_t v) { put(&v, sizeof v); }
  void write_u64(std::uint64_t v) { put(&v, sizeof v); }
  void write_i64(std::int64_t v) { put(&v, sizeof v); }
  void write_f32(float v) { put(&v, sizeof v); }
  void write_f64(double v) { put(&v, sizeof v); }
  void write_string(std::string_view s);
  void write_bytes(std::string_view s) { put(s.data(), s.size()); }

  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  void put(const void* data, std::size_t size);
  std::string bytes_;
};

/// Reads a ByteWriter-encoded byte string; throws ParseError on
/// underrun.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void get(void* data, std::size_t size);
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ---- journal ----------------------------------------------------------------

enum class JournalFrameKind : std::uint8_t { kHeader = 1, kUnit = 2 };

/// Campaign identity recorded in frame 0 and revalidated on resume.
struct JournalHeader {
  std::uint64_t fingerprint = 0;  ///< scenario + fault-matrix + seed hash
  std::uint64_t unit_count = 0;   ///< total campaign work units
  std::string task_kind;          ///< e.g. "imgclass" / "objdet"
};

/// Appends CRC32-framed payloads to a journal file (POSIX fd so frames
/// can be fsync'ed for durability).  Not thread-safe; the campaign
/// executor serializes appends under its merge mutex.
class JournalWriter {
 public:
  /// `resume` = false truncates and writes a fresh header frame;
  /// `resume` = true appends to the existing (already validated) file.
  JournalWriter(const std::string& path, const JournalHeader& header, bool resume);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one completed unit's serialized result.
  void append_unit(std::size_t unit, std::string_view payload);

  /// fsync: every frame appended so far survives a crash.
  void sync();

  void close();

 private:
  void append_frame(std::string_view payload);

  int fd_ = -1;
  std::string path_;
};

/// Result of scanning (and recovering) a journal file.
struct JournalScan {
  JournalHeader header;
  /// Intact unit frames in file order: (unit index, payload bytes).
  std::vector<std::pair<std::size_t, std::string>> units;
  /// Bytes of the file covered by intact frames; anything beyond is a
  /// torn or corrupted tail.
  std::uint64_t valid_bytes = 0;
  /// True when a torn/corrupted tail was found past valid_bytes.
  bool torn_tail = false;
};

/// Scans `path` front to back, stopping at the first incomplete or
/// CRC-mismatching frame.  Throws ParseError when the file has no valid
/// header frame at all (not a journal / corrupted at byte 0).
JournalScan scan_journal(const std::string& path);

/// Truncates the torn tail so subsequent appends extend a clean frame
/// sequence.  No-op when the scan found no tail damage.
void repair_journal(const std::string& path, const JournalScan& scan);

}  // namespace alfi::io
