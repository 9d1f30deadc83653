#include "core/fault.h"
#include "core/fault_matrix.h"

#include <fstream>

#include <gtest/gtest.h>

#include "test_common.h"

namespace alfi::core {
namespace {

TEST(Fault, NeuronOffsetConv2d) {
  Fault f;
  f.channel_out = 1;
  f.height = 2;
  f.width = 3;
  // [C=2, H=4, W=5]: offset = (1*4 + 2)*5 + 3 = 33
  EXPECT_EQ(f.neuron_offset(Shape{2, 4, 5}), 33u);
}

TEST(Fault, NeuronOffsetConv3d) {
  Fault f;
  f.channel_out = 1;
  f.depth = 1;
  f.height = 0;
  f.width = 2;
  // [C=2, D=2, H=3, W=4]: ((1*2+1)*3+0)*4+2 = 38
  EXPECT_EQ(f.neuron_offset(Shape{2, 2, 3, 4}), 38u);
}

TEST(Fault, NeuronOffsetLinear) {
  Fault f;
  f.width = 7;
  EXPECT_EQ(f.neuron_offset(Shape{10}), 7u);
}

TEST(Fault, NeuronOffsetOutOfRangeThrows) {
  Fault f;
  f.channel_out = 2;
  f.height = 0;
  f.width = 0;
  EXPECT_THROW(f.neuron_offset(Shape{2, 4, 5}), Error);
  Fault g;
  g.width = 10;
  EXPECT_THROW(g.neuron_offset(Shape{10}), Error);
  Fault h;  // negative coordinates rejected
  h.channel_out = -1;
  h.height = 0;
  h.width = 0;
  EXPECT_THROW(h.neuron_offset(Shape{2, 4, 5}), Error);
}

TEST(Fault, WeightOffsetLinear) {
  Fault f;
  f.channel_out = 2;
  f.channel_in = 3;
  EXPECT_EQ(f.weight_offset(Shape{4, 6}), 15u);
}

TEST(Fault, WeightOffsetConv2d) {
  Fault f;
  f.channel_out = 1;
  f.channel_in = 0;
  f.height = 2;
  f.width = 1;
  // [OC=2, IC=3, KH=3, KW=3]: ((1*3+0)*3+2)*3+1 = 34
  EXPECT_EQ(f.weight_offset(Shape{2, 3, 3, 3}), 34u);
}

TEST(Fault, WeightOffsetConv3d) {
  Fault f;
  f.channel_out = 0;
  f.channel_in = 1;
  f.depth = 1;
  f.height = 0;
  f.width = 1;
  // [2,2,2,2,2]: (((0*2+1)*2+1)*2+0)*2+1 = 13
  EXPECT_EQ(f.weight_offset(Shape{2, 2, 2, 2, 2}), 13u);
}

TEST(Fault, CorruptBitFlip) {
  Fault f;
  f.value_type = ValueType::kBitFlip;
  f.bit_pos = 31;
  EXPECT_EQ(f.corrupt(1.5f), -1.5f);
}

TEST(Fault, CorruptStuckAt) {
  Fault f;
  f.value_type = ValueType::kStuckAt1;
  f.bit_pos = 31;
  EXPECT_EQ(f.corrupt(1.5f), -1.5f);
  EXPECT_EQ(f.corrupt(-1.5f), -1.5f);  // already stuck
  f.value_type = ValueType::kStuckAt0;
  EXPECT_EQ(f.corrupt(-1.5f), 1.5f);
}

TEST(Fault, CorruptRandomValueReplaces) {
  Fault f;
  f.value_type = ValueType::kRandomValue;
  f.number_value = 0.25f;
  EXPECT_EQ(f.corrupt(123.0f), 0.25f);
}

TEST(Fault, ToStringMentionsCoordinates) {
  Fault f;
  f.target = FaultTarget::kWeights;
  f.layer = 3;
  f.channel_out = 1;
  f.channel_in = 2;
  f.bit_pos = 30;
  const std::string text = f.to_string();
  EXPECT_NE(text.find("layer=3"), std::string::npos);
  EXPECT_NE(text.find("bit=30"), std::string::npos);
  EXPECT_NE(text.find("weights"), std::string::npos);
}

FaultMatrix sample_matrix() {
  FaultMatrix matrix;
  Fault neuron;
  neuron.target = FaultTarget::kNeurons;
  neuron.batch = 0;
  neuron.layer = 1;
  neuron.channel_out = 2;
  neuron.height = 3;
  neuron.width = 4;
  neuron.bit_pos = 30;
  matrix.push_back(neuron);

  Fault weight;
  weight.target = FaultTarget::kWeights;
  weight.value_type = ValueType::kRandomValue;
  weight.layer = 0;
  weight.channel_out = 1;
  weight.channel_in = 0;
  weight.height = 1;
  weight.width = 1;
  weight.number_value = -7.5f;
  matrix.push_back(weight);
  return matrix;
}

TEST(FaultMatrix, SliceAndAccess) {
  const FaultMatrix matrix = sample_matrix();
  EXPECT_EQ(matrix.size(), 2u);
  EXPECT_EQ(matrix.at(0).layer, 1);
  const auto slice = matrix.slice(1, 1);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].number_value, -7.5f);
  EXPECT_THROW(matrix.slice(1, 2), Error);
  EXPECT_THROW(matrix.at(2), Error);
}

TEST(FaultMatrix, BinaryRoundTrip) {
  test::TempDir dir("faults");
  const FaultMatrix matrix = sample_matrix();
  matrix.save(dir.file("faults.bin"));
  const FaultMatrix loaded = FaultMatrix::load(dir.file("faults.bin"));
  EXPECT_EQ(loaded, matrix);
}

TEST(FaultMatrix, LoadRejectsWrongMagic) {
  test::TempDir dir("faults");
  {
    std::ofstream out(dir.file("bad.bin"), std::ios::binary);
    out << "XXXXGARBAGE";
  }
  EXPECT_THROW(FaultMatrix::load(dir.file("bad.bin")), ParseError);
}

/// Overwrites the u64 element count that follows a fault file's magic
/// and version.
void corrupt_count(const std::string& path, std::uint64_t count) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8);
  file.write(reinterpret_cast<const char*>(&count), sizeof count);
}

constexpr std::uint64_t kCorruptCount = std::uint64_t{1} << 40;

TEST(FaultMatrix, LoadRejectsCorruptCount) {
  // A count far past the bytes present must hit end-of-file (ParseError)
  // instead of reserving storage for it first.
  test::TempDir dir("faults");
  sample_matrix().save(dir.file("faults.bin"));
  corrupt_count(dir.file("faults.bin"), kCorruptCount);
  EXPECT_THROW(FaultMatrix::load(dir.file("faults.bin")), ParseError);
}

TEST(FaultMatrix, TableRowsMatchTableI) {
  const FaultMatrix matrix = sample_matrix();
  const auto rows = matrix.table_rows();
  ASSERT_EQ(rows.size(), 7u);  // Table I has 7 rows
  ASSERT_EQ(rows[0].size(), 2u);
  // neuron column: Batch, Layer, Channel, Depth, Height, Width, Value
  EXPECT_EQ(rows[0][0], 0);
  EXPECT_EQ(rows[1][0], 1);
  EXPECT_EQ(rows[2][0], 2);
  EXPECT_EQ(rows[3][0], -1);
  EXPECT_EQ(rows[4][0], 3);
  EXPECT_EQ(rows[5][0], 4);
  EXPECT_EQ(rows[6][0], 30);
  // weight column: Layer, OutCh, InCh, ...
  EXPECT_EQ(rows[0][1], 0);
  EXPECT_EQ(rows[1][1], 1);
  EXPECT_EQ(rows[2][1], 0);
}

TEST(FaultMatrix, ToJsonEmitsAllColumns) {
  const FaultMatrix matrix = sample_matrix();
  const io::Json json = matrix.to_json();
  ASSERT_EQ(json.as_array().size(), 2u);
  EXPECT_EQ(json.as_array()[0].at("target").as_string(), "neurons");
  EXPECT_EQ(json.as_array()[1].at("value_type").as_string(), "random_value");
}

TEST(InjectionRecords, BinaryRoundTrip) {
  test::TempDir dir("records");
  std::vector<InjectionRecord> records(2);
  records[0].fault = sample_matrix().at(0);
  records[0].inference_index = 7;
  records[0].original_value = 1.0f;
  records[0].corrupted_value = -1.0f;
  records[0].flip_direction = "0->1";
  records[1].fault = sample_matrix().at(1);
  records[1].original_value = 0.5f;
  records[1].corrupted_value = -7.5f;

  save_injection_records(records, dir.file("trace.bin"));
  const auto loaded = load_injection_records(dir.file("trace.bin"));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].inference_index, 7u);
  EXPECT_EQ(loaded[0].flip_direction, "0->1");
  EXPECT_EQ(loaded[0].fault, records[0].fault);
  EXPECT_EQ(loaded[1].corrupted_value, -7.5f);
  EXPECT_TRUE(loaded[1].flip_direction.empty());
}

TEST(InjectionRecords, LoadRejectsCorruptCount) {
  test::TempDir dir("records");
  std::vector<InjectionRecord> records(2);
  records[0].fault = sample_matrix().at(0);
  records[1].fault = sample_matrix().at(1);
  save_injection_records(records, dir.file("trace.bin"));
  corrupt_count(dir.file("trace.bin"), kCorruptCount);
  EXPECT_THROW(load_injection_records(dir.file("trace.bin")), ParseError);
}

}  // namespace
}  // namespace alfi::core
