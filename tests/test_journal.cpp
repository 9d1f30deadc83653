// io::ByteWriter/ByteReader packing and the CRC32-framed campaign
// journal: roundtrips, torn-tail recovery, corruption detection, and
// the durability ordering observed through the file-ops probe.
#include "io/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "io/atomic_file.h"
#include "test_common.h"
#include "util/error.h"

namespace alfi::io {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void overwrite_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ByteCodec, RoundTripsEveryType) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u32(0xDEADBEEFu);
  writer.write_u64(0x0123456789ABCDEFull);
  writer.write_i64(-42);
  writer.write_f32(3.5f);
  writer.write_f64(-0.125);
  writer.write_string("layer/conv1");
  writer.write_bytes("raw");

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_EQ(reader.read_f32(), 3.5f);
  EXPECT_EQ(reader.read_f64(), -0.125);
  EXPECT_EQ(reader.read_string(), "layer/conv1");
  EXPECT_EQ(reader.remaining(), 3u);
  EXPECT_FALSE(reader.at_end());
}

TEST(ByteCodec, UnderrunThrowsParseError) {
  ByteWriter writer;
  writer.write_u32(7);
  ByteReader reader(writer.bytes());
  EXPECT_THROW(reader.read_u64(), ParseError);
  // A string length that points past the end must not read garbage.
  ByteWriter bad;
  bad.write_u32(1000);  // claims a 1000-byte string follows
  bad.write_bytes("short");
  ByteReader bad_reader(bad.bytes());
  EXPECT_THROW(bad_reader.read_string(), ParseError);
}

JournalHeader test_header() {
  JournalHeader header;
  header.fingerprint = 0xFEEDFACE12345678ull;
  header.unit_count = 24;
  header.task_kind = "imgclass";
  return header;
}

TEST(Journal, WriteScanRoundTrip) {
  test::TempDir dir("journal_rt");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), /*resume=*/false);
    writer.append_unit(3, "unit-three");
    writer.append_unit(1, "unit-one");
    writer.append_unit(17, std::string("\0\x01\x02", 3));  // binary payload
    writer.close();
  }
  const auto scan = scan_journal(path);
  EXPECT_EQ(scan.header.fingerprint, 0xFEEDFACE12345678ull);
  EXPECT_EQ(scan.header.unit_count, 24u);
  EXPECT_EQ(scan.header.task_kind, "imgclass");
  ASSERT_EQ(scan.units.size(), 3u);
  EXPECT_EQ(scan.units[0].first, 3u);
  EXPECT_EQ(scan.units[0].second, "unit-three");
  EXPECT_EQ(scan.units[1].first, 1u);
  EXPECT_EQ(scan.units[2].first, 17u);
  EXPECT_EQ(scan.units[2].second, std::string("\0\x01\x02", 3));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path));
}

TEST(Journal, EmptyPayloadFrameSurvives) {
  test::TempDir dir("journal_empty");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), false);
    writer.append_unit(0, "");
    writer.close();
  }
  const auto scan = scan_journal(path);
  ASSERT_EQ(scan.units.size(), 1u);
  EXPECT_TRUE(scan.units[0].second.empty());
}

TEST(Journal, TornTailIsDetectedAndRepaired) {
  test::TempDir dir("journal_torn");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), false);
    writer.append_unit(0, "alpha");
    writer.append_unit(1, "beta");
    writer.close();
  }
  // Simulate a crash mid-append: keep the first unit frame intact and
  // cut the second frame a few bytes short.
  const std::string whole = file_bytes(path);
  overwrite_file(path, whole.substr(0, whole.size() - 3));

  const auto scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.units.size(), 1u);
  EXPECT_EQ(scan.units[0].second, "alpha");
  EXPECT_LT(scan.valid_bytes, std::filesystem::file_size(path));

  repair_journal(path, scan);
  EXPECT_EQ(std::filesystem::file_size(path), scan.valid_bytes);
  const auto again = scan_journal(path);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.units.size(), 1u);
}

TEST(Journal, BadCrcTruncatesFromCorruptFrame) {
  test::TempDir dir("journal_crc");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), false);
    writer.append_unit(0, "alpha");
    writer.append_unit(1, "beta");
    writer.append_unit(2, "gamma");
    writer.close();
  }
  // Flip one payload byte in the *middle* unit frame; the scan must keep
  // the frames before it and drop it plus everything after.
  auto bytes = file_bytes(path);
  const auto pos = bytes.find("beta");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x01;
  overwrite_file(path, bytes);

  const auto scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.units.size(), 1u);
  EXPECT_EQ(scan.units[0].second, "alpha");
}

TEST(Journal, MissingOrCorruptHeaderThrows) {
  test::TempDir dir("journal_hdr");
  const std::string missing = dir.file("nope.bin");
  EXPECT_THROW(scan_journal(missing), Error);

  const std::string garbage = dir.file("garbage.bin");
  overwrite_file(garbage, "this is not a journal at all, not even close");
  EXPECT_THROW(scan_journal(garbage), ParseError);

  const std::string empty = dir.file("empty.bin");
  overwrite_file(empty, "");
  EXPECT_THROW(scan_journal(empty), ParseError);
}

TEST(Journal, ResumeAppendsAfterRepair) {
  test::TempDir dir("journal_resume");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), false);
    writer.append_unit(0, "alpha");
    writer.append_unit(1, "beta");
    writer.close();
  }
  // Tear the tail, repair, then append more frames in resume mode — the
  // sequence must read back as one clean journal.
  const std::string whole = file_bytes(path);
  overwrite_file(path, whole.substr(0, whole.size() - 1));
  const auto scan = scan_journal(path);
  repair_journal(path, scan);
  {
    JournalWriter writer(path, test_header(), /*resume=*/true);
    writer.append_unit(1, "beta2");
    writer.append_unit(2, "gamma");
    writer.sync();
    writer.close();
  }
  const auto final_scan = scan_journal(path);
  EXPECT_FALSE(final_scan.torn_tail);
  ASSERT_EQ(final_scan.units.size(), 3u);
  EXPECT_EQ(final_scan.units[0].second, "alpha");
  EXPECT_EQ(final_scan.units[1].second, "beta2");
  EXPECT_EQ(final_scan.units[2].second, "gamma");
}

// ---- durability (file-ops probe) --------------------------------------------

/// RAII probe install/clear so a failing assertion can't leak the shim
/// into later tests.
class ScopedFileOpsProbe {
 public:
  explicit ScopedFileOpsProbe(FileOpsProbe probe) {
    set_file_ops_probe_for_testing(std::move(probe));
  }
  ~ScopedFileOpsProbe() { set_file_ops_probe_for_testing(nullptr); }
};

TEST(JournalDurability, FreshJournalSyncsDirectoryBeforeFirstAppend) {
  test::TempDir dir("journal_dirsync");
  const std::string path = dir.file("journal.bin");
  std::vector<FileOp> ops;
  ScopedFileOpsProbe probe([&](FileOp op, const std::string&) {
    ops.push_back(op);
  });
  JournalWriter writer(path, test_header(), /*resume=*/false);
  writer.append_unit(0, "alpha");
  writer.sync();
  writer.close();

  // The journal file's directory entry is made durable before the
  // header (or anything else) is appended — a checkpoint written later
  // must never reference a journal the directory can forget.
  ASSERT_GE(ops.size(), 3u);
  EXPECT_EQ(ops[0], FileOp::kDirSync);
  EXPECT_EQ(ops[1], FileOp::kJournalAppend);  // header frame
  EXPECT_EQ(ops[2], FileOp::kJournalAppend);  // unit frame
  EXPECT_NE(std::find(ops.begin(), ops.end(), FileOp::kJournalSync), ops.end());
}

TEST(JournalDurability, ResumedJournalDoesNotResyncDirectory) {
  test::TempDir dir("journal_resync");
  const std::string path = dir.file("journal.bin");
  {
    JournalWriter writer(path, test_header(), /*resume=*/false);
    writer.append_unit(0, "alpha");
    writer.close();
  }
  std::vector<FileOp> ops;
  ScopedFileOpsProbe probe([&](FileOp op, const std::string&) {
    ops.push_back(op);
  });
  JournalWriter writer(path, test_header(), /*resume=*/true);
  writer.append_unit(1, "beta");
  writer.close();
  // The directory entry already survived one run; resume only appends.
  EXPECT_EQ(std::find(ops.begin(), ops.end(), FileOp::kDirSync), ops.end());
}

// The two tests below kept their names from when an atomic commit could
// also fsync its temp file and directory; only the journal syncs now.
TEST(JournalDurability, AtomicCommitSyncsTempThenRenamesThenSyncsDirectory) {
  test::TempDir dir("atomic_order");
  const std::string path = dir.file("results.json");
  std::vector<FileOp> ops;
  ScopedFileOpsProbe probe([&](FileOp op, const std::string&) {
    ops.push_back(op);
  });
  write_file_atomic(path, "campaign-output");
  // A commit is exactly one rename of the complete temp file.
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0], FileOp::kRename);
  EXPECT_EQ(file_bytes(path), "campaign-output");
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
}

TEST(JournalDurability, InjectedTempSyncFailureLeavesOldFileIntact) {
  test::TempDir dir("atomic_fault");
  const std::string path = dir.file("results.json");
  write_file_atomic(path, "version-1");

  ScopedFileOpsProbe probe([](FileOp op, const std::string&) {
    if (op == FileOp::kRename) throw IoError("injected rename failure");
  });
  EXPECT_THROW(write_file_atomic(path, "version-2"), IoError);
  // The rename never ran: readers still see the complete old file, and
  // the temp file is cleaned up.
  EXPECT_EQ(file_bytes(path), "version-1");
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
}

TEST(JournalDurability, InjectedJournalSyncFailurePropagates) {
  test::TempDir dir("journal_fault");
  const std::string path = dir.file("journal.bin");
  JournalWriter writer(path, test_header(), /*resume=*/false);
  writer.append_unit(0, "alpha");
  {
    ScopedFileOpsProbe probe([](FileOp op, const std::string&) {
      if (op == FileOp::kJournalSync) throw IoError("injected fsync failure");
    });
    EXPECT_THROW(writer.sync(), IoError);
  }
  // With the shim gone the writer is still usable.
  writer.sync();
  writer.close();
  const auto scan = scan_journal(path);
  ASSERT_EQ(scan.units.size(), 1u);
  EXPECT_EQ(scan.units[0].second, "alpha");
}

}  // namespace
}  // namespace alfi::io
