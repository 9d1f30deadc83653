// Little-endian binary record streams.
//
// PyTorchALFI persists the pre-generated fault matrix and the post-run
// corruption trace as binary files (paper §IV.B: "After generating the
// faults, the fault matrix is stored as a binary file").  These helpers
// give the fault-file formats a portable fixed-width little-endian
// encoding with magic/version headers checked on load.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "io/atomic_file.h"
#include "util/error.h"

namespace alfi::io {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path,
                        WriteMode mode = WriteMode::kDirect);

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);

  void write_f32_array(const std::vector<float>& values);
  void write_i64_array(const std::vector<std::int64_t>& values);

  /// Writes a 4-byte magic tag plus a u32 version.
  void write_header(const char magic[4], std::uint32_t version);

  /// Flushes and closes; in kAtomic mode also the commit point (temp
  /// file renamed onto the final path).  Throws IoError when the final
  /// flush failed.
  void close();
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

 private:
  void put(const void* data, std::size_t size);
  std::ofstream out_;
  std::string final_path_;
  std::string path_;  ///< path being written (== final_path_ in kDirect)
  WriteMode mode_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  /// Length-prefixed reads.  A length claiming more bytes than the file
  /// has left throws ParseError before anything is allocated.
  std::string read_string();

  std::vector<float> read_f32_array();
  std::vector<std::int64_t> read_i64_array();

  /// Checks magic and returns the version; throws ParseError on mismatch.
  std::uint32_t read_header(const char magic[4]);

  bool at_eof();

 private:
  void get(void* data, std::size_t size);
  /// Reads a u64 count of `item_size`-byte items and checks that many
  /// bytes are left in the file.
  std::size_t read_length(std::size_t item_size);
  std::ifstream in_;
  std::string path_;
  std::uint64_t remaining_ = 0;  ///< bytes not yet read
};

}  // namespace alfi::io
