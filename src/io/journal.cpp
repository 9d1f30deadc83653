#include "io/journal.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/atomic_file.h"
#include "util/hash.h"

namespace alfi::io {

static_assert(std::endian::native == std::endian::little,
              "journal format assumes a little-endian host");

// ---- ByteWriter / ByteReader ------------------------------------------------

void ByteWriter::put(const void* data, std::size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
}

void ByteWriter::write_string(std::string_view s) {
  write_u64(s.size());
  put(s.data(), s.size());
}

void ByteReader::get(void* data, std::size_t size) {
  if (size > bytes_.size() - pos_) {
    throw ParseError("byte buffer underrun");
  }
  std::memcpy(data, bytes_.data() + pos_, size);
  pos_ += size;
}

std::uint8_t ByteReader::read_u8() {
  std::uint8_t v;
  get(&v, sizeof v);
  return v;
}

std::uint32_t ByteReader::read_u32() {
  std::uint32_t v;
  get(&v, sizeof v);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  std::uint64_t v;
  get(&v, sizeof v);
  return v;
}

std::int64_t ByteReader::read_i64() {
  std::int64_t v;
  get(&v, sizeof v);
  return v;
}

float ByteReader::read_f32() {
  float v;
  get(&v, sizeof v);
  return v;
}

double ByteReader::read_f64() {
  double v;
  get(&v, sizeof v);
  return v;
}

std::string ByteReader::read_string() {
  const std::uint64_t size = read_u64();
  if (size > remaining()) throw ParseError("byte buffer string overruns buffer");
  std::string s(static_cast<std::size_t>(size), '\0');
  if (size > 0) get(s.data(), s.size());
  return s;
}

// ---- journal ----------------------------------------------------------------

namespace {

std::string encode_header(const JournalHeader& header) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(JournalFrameKind::kHeader));
  w.write_u64(header.fingerprint);
  w.write_u64(header.unit_count);
  w.write_string(header.task_kind);
  return w.take();
}

/// Sanity cap: one unit's serialized result will never approach this;
/// a larger size field means we are reading garbage.
constexpr std::uint32_t kMaxFrameSize = 1u << 30;

}  // namespace

JournalWriter::JournalWriter(const std::string& path, const JournalHeader& header,
                             bool resume)
    : path_(path) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (resume ? 0 : O_TRUNC);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw IoError("cannot open journal: " + path);
  if (!resume) {
    // A fresh journal's directory entry must itself be durable before
    // any frame is appended, or a crash could lose the whole file.
    sync_parent_directory(path);
    append_frame(encode_header(header));
  }
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::append_frame(std::string_view payload) {
  notify_file_op(FileOp::kJournalAppend, path_);
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  std::string frame;
  frame.reserve(8 + payload.size());
  frame.append(reinterpret_cast<const char*>(&size), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame.append(payload.data(), payload.size());
  std::size_t off = 0;
  while (off < frame.size()) {
    const ::ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) throw IoError("failed while appending to journal: " + path_);
    off += static_cast<std::size_t>(n);
  }
}

void JournalWriter::append_unit(std::size_t unit, std::string_view payload) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(JournalFrameKind::kUnit));
  w.write_u64(unit);
  w.write_bytes(payload);
  append_frame(w.bytes());
}

void JournalWriter::sync() {
  if (fd_ < 0) return;
  notify_file_op(FileOp::kJournalSync, path_);
  if (::fsync(fd_) != 0) {
    throw IoError("fsync failed on journal: " + path_);
  }
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalScan scan_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open journal: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  JournalScan scan;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) break;  // torn frame header
    std::uint32_t size, crc;
    std::memcpy(&size, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (size > kMaxFrameSize || bytes.size() - pos - 8 < size) break;
    const std::string_view payload(bytes.data() + pos + 8, size);
    if (crc32(payload) != crc) break;  // corrupted frame
    // crc32("") == 0, so a zero-filled tail (a crash can extend the file
    // before its data blocks land) reads as empty frames: corruption.
    if (payload.empty()) break;

    ByteReader r(payload);
    const auto kind = static_cast<JournalFrameKind>(r.read_u8());
    if (!saw_header) {
      if (kind != JournalFrameKind::kHeader) break;
      scan.header.fingerprint = r.read_u64();
      scan.header.unit_count = r.read_u64();
      scan.header.task_kind = r.read_string();
      saw_header = true;
    } else if (kind == JournalFrameKind::kUnit && r.remaining() >= 8) {
      const std::uint64_t unit = r.read_u64();
      scan.units.emplace_back(static_cast<std::size_t>(unit),
                              std::string(payload.substr(1 + 8)));
    } else {
      break;  // unknown frame kind or a short unit frame: corruption
    }
    pos += 8 + size;
  }
  if (!saw_header) {
    throw ParseError("journal has no valid header frame: " + path);
  }
  scan.valid_bytes = pos;
  scan.torn_tail = pos < bytes.size();
  return scan;
}

void repair_journal(const std::string& path, const JournalScan& scan) {
  if (!scan.torn_tail) return;
  if (::truncate(path.c_str(), static_cast<::off_t>(scan.valid_bytes)) != 0) {
    throw IoError("cannot truncate torn journal tail: " + path);
  }
}

}  // namespace alfi::io
