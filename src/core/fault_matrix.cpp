#include "core/fault_matrix.h"

#include "io/binary.h"

namespace alfi::core {

namespace {
constexpr char kFaultMagic[4] = {'A', 'L', 'F', 'M'};
constexpr char kRecordMagic[4] = {'A', 'L', 'F', 'R'};
constexpr std::uint32_t kVersion = 1;

void write_fault(io::BinaryWriter& writer, const Fault& fault) {
  writer.write_u8(static_cast<std::uint8_t>(fault.target));
  writer.write_u8(static_cast<std::uint8_t>(fault.value_type));
  writer.write_i64(fault.batch);
  writer.write_i64(fault.layer);
  writer.write_i64(fault.channel_out);
  writer.write_i64(fault.channel_in);
  writer.write_i64(fault.depth);
  writer.write_i64(fault.height);
  writer.write_i64(fault.width);
  writer.write_i64(fault.bit_pos);
  writer.write_f32(fault.number_value);
}

Fault read_fault(io::BinaryReader& reader) {
  Fault fault;
  fault.target = static_cast<FaultTarget>(reader.read_u8());
  fault.value_type = static_cast<ValueType>(reader.read_u8());
  fault.batch = reader.read_i64();
  fault.layer = reader.read_i64();
  fault.channel_out = reader.read_i64();
  fault.channel_in = reader.read_i64();
  fault.depth = reader.read_i64();
  fault.height = reader.read_i64();
  fault.width = reader.read_i64();
  fault.bit_pos = static_cast<int>(reader.read_i64());
  fault.number_value = reader.read_f32();
  return fault;
}

}  // namespace

bool operator==(const Fault& a, const Fault& b) {
  return a.target == b.target && a.value_type == b.value_type && a.batch == b.batch &&
         a.layer == b.layer && a.channel_out == b.channel_out &&
         a.channel_in == b.channel_in && a.depth == b.depth && a.height == b.height &&
         a.width == b.width && a.bit_pos == b.bit_pos &&
         a.number_value == b.number_value;
}

const Fault& FaultMatrix::at(std::size_t column) const {
  ALFI_CHECK(column < faults_.size(), "fault column out of range");
  return faults_[column];
}

std::vector<Fault> FaultMatrix::slice(std::size_t begin, std::size_t count) const {
  ALFI_CHECK(begin + count <= faults_.size(), "fault slice out of range");
  return {faults_.begin() + static_cast<std::ptrdiff_t>(begin),
          faults_.begin() + static_cast<std::ptrdiff_t>(begin + count)};
}

std::vector<std::vector<std::int64_t>> FaultMatrix::table_rows() const {
  std::vector<std::vector<std::int64_t>> rows(7,
                                              std::vector<std::int64_t>(size()));
  for (std::size_t col = 0; col < size(); ++col) {
    const Fault& f = faults_[col];
    if (f.target == FaultTarget::kNeurons) {
      rows[0][col] = f.batch;
      rows[1][col] = f.layer;
      rows[2][col] = f.channel_out;
    } else {
      rows[0][col] = f.layer;
      rows[1][col] = f.channel_out;
      rows[2][col] = f.channel_in;
    }
    rows[3][col] = f.depth;
    rows[4][col] = f.height;
    rows[5][col] = f.width;
    rows[6][col] = f.value_type == ValueType::kRandomValue
                       ? static_cast<std::int64_t>(f.number_value)
                       : f.bit_pos;
  }
  return rows;
}

void FaultMatrix::save(const std::string& path) const {
  io::BinaryWriter writer(path, io::WriteMode::kAtomic);
  writer.write_header(kFaultMagic, kVersion);
  writer.write_u64(faults_.size());
  for (const Fault& fault : faults_) write_fault(writer, fault);
  writer.close();
}

FaultMatrix FaultMatrix::load(const std::string& path) {
  io::BinaryReader reader(path);
  const std::uint32_t version = reader.read_header(kFaultMagic);
  if (version != kVersion) throw ParseError("unsupported fault file version: " + path);
  // No reserve(count): a corrupt count must hit end-of-file (ParseError)
  // after reading the bytes present, not allocate first.
  const std::uint64_t count = reader.read_u64();
  std::vector<Fault> faults;
  for (std::uint64_t i = 0; i < count; ++i) faults.push_back(read_fault(reader));
  return FaultMatrix(std::move(faults));
}

io::Json FaultMatrix::to_json() const {
  io::Json arr = io::Json::array();
  for (const Fault& f : faults_) {
    io::Json entry = io::Json::object();
    entry["target"] = io::Json(to_string(f.target));
    entry["value_type"] = io::Json(to_string(f.value_type));
    entry["batch"] = io::Json(f.batch);
    entry["layer"] = io::Json(f.layer);
    entry["channel_out"] = io::Json(f.channel_out);
    entry["channel_in"] = io::Json(f.channel_in);
    entry["depth"] = io::Json(f.depth);
    entry["height"] = io::Json(f.height);
    entry["width"] = io::Json(f.width);
    entry["bit_pos"] = io::Json(f.bit_pos);
    entry["number_value"] = io::Json(static_cast<double>(f.number_value));
    arr.push_back(entry);
  }
  return arr;
}

void save_injection_records(const std::vector<InjectionRecord>& records,
                            const std::string& path) {
  io::BinaryWriter writer(path, io::WriteMode::kAtomic);
  writer.write_header(kRecordMagic, kVersion);
  writer.write_u64(records.size());
  for (const InjectionRecord& record : records) {
    write_fault(writer, record.fault);
    writer.write_u64(record.inference_index);
    writer.write_f32(record.original_value);
    writer.write_f32(record.corrupted_value);
    writer.write_string(record.flip_direction);
  }
  writer.close();
}

std::vector<InjectionRecord> load_injection_records(const std::string& path) {
  io::BinaryReader reader(path);
  const std::uint32_t version = reader.read_header(kRecordMagic);
  if (version != kVersion) {
    throw ParseError("unsupported injection record file version: " + path);
  }
  const std::uint64_t count = reader.read_u64();  // untrusted: no reserve
  std::vector<InjectionRecord> records;
  for (std::uint64_t i = 0; i < count; ++i) {
    InjectionRecord record;
    record.fault = read_fault(reader);
    record.inference_index = reader.read_u64();
    record.original_value = reader.read_f32();
    record.corrupted_value = reader.read_f32();
    record.flip_direction = reader.read_string();
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace alfi::core
