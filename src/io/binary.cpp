#include "io/binary.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace alfi::io {

static_assert(std::endian::native == std::endian::little,
              "binary fault-file format assumes a little-endian host");

BinaryWriter::BinaryWriter(const std::string& path, WriteMode mode)
    : final_path_(path),
      path_(mode == WriteMode::kAtomic ? atomic_temp_path(path) : path),
      mode_(mode) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw IoError("cannot write binary file: " + path_);
}

void BinaryWriter::put(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out_) throw IoError("failed while writing binary file: " + path_);
}

void BinaryWriter::write_u8(std::uint8_t v) { put(&v, sizeof v); }
void BinaryWriter::write_u32(std::uint32_t v) { put(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { put(&v, sizeof v); }
void BinaryWriter::write_i64(std::int64_t v) { put(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { put(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { put(&v, sizeof v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  if (!s.empty()) put(s.data(), s.size());
}

void BinaryWriter::write_f32_array(const std::vector<float>& values) {
  write_u64(values.size());
  if (!values.empty()) put(values.data(), values.size() * sizeof(float));
}

void BinaryWriter::write_i64_array(const std::vector<std::int64_t>& values) {
  write_u64(values.size());
  if (!values.empty()) put(values.data(), values.size() * sizeof(std::int64_t));
}

void BinaryWriter::write_header(const char magic[4], std::uint32_t version) {
  put(magic, 4);
  write_u32(version);
}

void BinaryWriter::close() {
  if (!out_.is_open()) return;
  out_.flush();
  const bool flush_ok = static_cast<bool>(out_);
  out_.close();
  if (!flush_ok || out_.fail()) {
    if (mode_ == WriteMode::kAtomic) atomic_discard(path_);
    throw IoError("failed to flush/close binary file: " + path_);
  }
  if (mode_ == WriteMode::kAtomic) atomic_commit(path_, final_path_);
}

BinaryWriter::~BinaryWriter() {
  // Destructors must not throw; an explicit close() is how callers get
  // the error (and, in kAtomic mode, the commit).
  try {
    close();
  } catch (const IoError&) {
  }
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary | std::ios::ate), path_(path) {
  if (!in_) throw IoError("cannot open binary file: " + path);
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (size < 0 || !in_) throw IoError("cannot size binary file: " + path);
  remaining_ = static_cast<std::uint64_t>(size);
}

void BinaryReader::get(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  const std::size_t got = static_cast<std::size_t>(in_.gcount());
  remaining_ -= std::min<std::uint64_t>(got, remaining_);
  if (got != size) throw ParseError("unexpected end of binary file: " + path_);
}

std::size_t BinaryReader::read_length(std::size_t item_size) {
  const std::uint64_t count = read_u64();
  if (count > remaining_ / item_size) {
    throw ParseError("length " + std::to_string(count) + " exceeds the " +
                     std::to_string(remaining_) + " bytes left in " + path_);
  }
  return static_cast<std::size_t>(count);
}

std::uint8_t BinaryReader::read_u8() {
  std::uint8_t v;
  get(&v, sizeof v);
  return v;
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  get(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  get(&v, sizeof v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t v;
  get(&v, sizeof v);
  return v;
}

float BinaryReader::read_f32() {
  float v;
  get(&v, sizeof v);
  return v;
}

double BinaryReader::read_f64() {
  double v;
  get(&v, sizeof v);
  return v;
}

std::string BinaryReader::read_string() {
  std::string s(read_length(1), '\0');
  if (!s.empty()) get(s.data(), s.size());
  return s;
}

std::vector<float> BinaryReader::read_f32_array() {
  std::vector<float> values(read_length(sizeof(float)));
  if (!values.empty()) get(values.data(), values.size() * sizeof(float));
  return values;
}

std::vector<std::int64_t> BinaryReader::read_i64_array() {
  std::vector<std::int64_t> values(read_length(sizeof(std::int64_t)));
  if (!values.empty()) get(values.data(), values.size() * sizeof(std::int64_t));
  return values;
}

std::uint32_t BinaryReader::read_header(const char magic[4]) {
  char buf[4];
  get(buf, 4);
  if (std::memcmp(buf, magic, 4) != 0) {
    throw ParseError("bad magic in binary file: " + path_);
  }
  return read_u32();
}

bool BinaryReader::at_eof() {
  return in_.peek() == std::ifstream::traits_type::eof();
}

}  // namespace alfi::io
