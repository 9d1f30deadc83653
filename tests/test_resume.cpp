// Crash-safe resume from the journal alone: kill-and-resume
// byte-identity for both harnesses and several job counts, torn-tail
// recovery, refusal of a journal from another campaign, the journal
// header round trip, seeded journal mutations, and CampaignTask
// conformance.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/journal.h"
#include "models/classification.h"
#include "models/yolo_lite.h"
#include "nn/layers.h"
#include "test_common.h"

namespace alfi::core {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Interrupt callback that flips to true after `n` polls — deterministic
/// stand-in for a SIGTERM arriving mid-campaign.
std::function<bool()> interrupt_after(int n) {
  auto counter = std::make_shared<std::atomic<int>>(n);
  return [counter] { return counter->fetch_sub(1) <= 0; };
}

void truncate_file(const std::string& path, std::size_t drop_bytes) {
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, drop_bytes);
  std::filesystem::resize_file(path, size - drop_bytes);
}

// ---- journal header: the identity a resume validates ------------------------

TEST(CheckpointFile, SaveLoadRoundTrip) {
  // The journal's header frame carries everything a resume checks:
  // fingerprint, task kind and unit count.
  test::TempDir dir("ckp_rt");
  const std::string path = dir.file("journal.bin");
  io::JournalHeader header;
  header.fingerprint = 0xABCDEF0011223344ull;
  header.unit_count = 24;
  header.task_kind = "imgclass";
  io::JournalWriter(path, header, /*resume=*/false);
  const io::JournalScan scan = io::scan_journal(path);
  EXPECT_EQ(scan.header.fingerprint, header.fingerprint);
  EXPECT_EQ(scan.header.task_kind, header.task_kind);
  EXPECT_EQ(scan.header.unit_count, header.unit_count);
  EXPECT_TRUE(scan.units.empty());
  EXPECT_FALSE(scan.torn_tail);
}

TEST(CheckpointFile, RejectsGarbage) {
  test::TempDir dir("ckp_bad");
  const std::string path = dir.file("journal.bin");
  std::ofstream(path, std::ios::binary) << "not a journal";
  EXPECT_THROW(io::scan_journal(path), ParseError);
  EXPECT_THROW(io::scan_journal(dir.file("missing.bin")), IoError);
}

// ---- classification ---------------------------------------------------------

/// Untrained (deterministically initialized) AlexNet + synthetic
/// dataset: byte-identity of the outputs does not depend on accuracy.
class ResumeImgClass : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 32, .num_classes = 10, .seed = 17});
    model_ = models::make_mini_alexnet();
    Rng rng(17);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  static Scenario scenario(std::uint64_t seed = 4242) {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = 2;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = seed;
    return s;
  }

  static ImgClassCampaignConfig config(const std::string& out_dir) {
    ImgClassCampaignConfig c;
    c.model_name = "alexnet";
    c.output_dir = out_dir;
    return c;
  }

  /// Uninterrupted reference run (no checkpointing).
  static ImgClassCampaignResult baseline(const std::string& dir) {
    auto c = config(dir);
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    return harness.run();
  }

  static void expect_identical(const ImgClassCampaignResult& a,
                               const ImgClassCampaignResult& b) {
    EXPECT_EQ(file_bytes(a.results_csv), file_bytes(b.results_csv));
    EXPECT_EQ(file_bytes(a.fault_free_csv), file_bytes(b.fault_free_csv));
    EXPECT_EQ(file_bytes(a.fault_bin), file_bytes(b.fault_bin));
    EXPECT_EQ(file_bytes(a.trace_bin), file_bytes(b.trace_bin));
    EXPECT_EQ(file_bytes(a.scenario_yml), file_bytes(b.scenario_yml));
    EXPECT_EQ(a.kpis.total, b.kpis.total);
    EXPECT_EQ(a.kpis.sde, b.kpis.sde);
    EXPECT_EQ(a.kpis.due, b.kpis.due);
    EXPECT_EQ(a.kpis.orig_correct, b.kpis.orig_correct);
    EXPECT_EQ(a.kpis.faulty_correct, b.kpis.faulty_correct);
  }

  /// Interrupts a checkpointed campaign after ~`kill_after` units, then
  /// resumes (possibly with a different job count) and checks the final
  /// outputs byte-match an uninterrupted run.
  void kill_and_resume(std::size_t jobs_first, std::size_t jobs_second,
                       int kill_after) {
    test::TempDir ref_dir("imgclass_ref");
    test::TempDir out_dir("imgclass_out");
    test::TempDir ckp_dir("imgclass_ckp");
    const auto reference = baseline(ref_dir.str());

    auto first = config(out_dir.str());
    first.jobs = jobs_first;
    first.checkpoint_dir = ckp_dir.str();
    first.interrupt = interrupt_after(kill_after);
    std::size_t completed = 0;
    try {
      TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
      harness.run();
      FAIL() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted& e) {
      completed = e.completed_units();
      EXPECT_LT(e.completed_units(), e.total_units());
      EXPECT_EQ(e.total_units(), 24u);
      EXPECT_EQ(e.checkpoint_dir(), ckp_dir.str());
    }
    // The journal alone records the drained campaign: its header names
    // it, and one unit frame per completed unit survives the drain.
    const io::JournalScan scan =
        io::scan_journal(CampaignExecutor::journal_path(ckp_dir.str()));
    EXPECT_EQ(scan.header.task_kind, "imgclass");
    EXPECT_EQ(scan.header.unit_count, 24u);
    EXPECT_EQ(scan.units.size(), completed);
    EXPECT_FALSE(scan.torn_tail);

    auto second = config(out_dir.str());
    second.jobs = jobs_second;
    second.checkpoint_dir = ckp_dir.str();
    second.resume = true;
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
    const auto resumed = harness.run();
    expect_identical(reference, resumed);
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* ResumeImgClass::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> ResumeImgClass::model_;

TEST_F(ResumeImgClass, KillAndResumeSerial) { kill_and_resume(1, 1, 5); }

TEST_F(ResumeImgClass, KillAndResumeParallel) { kill_and_resume(4, 4, 6); }

TEST_F(ResumeImgClass, ResumeWithDifferentJobCount) {
  // Interrupted with 4 workers, finished serially — shard boundaries
  // change between the two processes; outputs must not.
  kill_and_resume(4, 1, 6);
  kill_and_resume(1, 4, 5);
}

TEST_F(ResumeImgClass, TornJournalTailIsRecoveredOnResume) {
  test::TempDir ref_dir("imgclass_torn_ref");
  test::TempDir out_dir("imgclass_torn_out");
  test::TempDir ckp_dir("imgclass_torn_ckp");
  const auto reference = baseline(ref_dir.str());

  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(7);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }
  // Simulate a crash mid-append on top of the drain: rip the last few
  // bytes off the journal.  The torn unit is recomputed on resume.
  truncate_file(CampaignExecutor::journal_path(ckp_dir.str()), 5);

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  expect_identical(reference, harness.run());
}

TEST_F(ResumeImgClass, ResumeRefusesDifferentCampaign) {
  test::TempDir out_dir("imgclass_fp_out");
  test::TempDir ckp_dir("imgclass_fp_ckp");
  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(4);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  // Same checkpoint dir, different fault matrix (seed changed): the
  // journaled payloads would be silently wrong — must refuse.
  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(4243), second);
  EXPECT_THROW(harness.run(), ConfigError);
}

TEST_F(ResumeImgClass, ResumeRefusesJournalWithDifferentUnitCount) {
  // The right fingerprint and task kind but a different unit count in
  // the journal header: resume refuses before trusting a single frame.
  test::TempDir ref_dir("imgclass_count_ref");
  test::TempDir out_dir("imgclass_count_out");
  test::TempDir ckp_dir("imgclass_count_ckp");
  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.resume = true;
  const auto write_header = [&](std::uint64_t unit_count) {
    TestErrorModelsImgClass probe(*model_, *dataset_, scenario(), c);
    const CampaignTask& task = probe;
    io::JournalHeader header;
    header.fingerprint = task.fingerprint();
    header.task_kind = task.task_kind();
    header.unit_count = unit_count;
    io::JournalWriter(CampaignExecutor::journal_path(ckp_dir.str()), header,
                      /*resume=*/false);
  };
  write_header(25);
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    EXPECT_THROW(harness.run(), ConfigError);
  }
  // Control: the same header with the campaign's own count resumes.
  write_header(24);
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  expect_identical(baseline(ref_dir.str()), harness.run());
}

TEST_F(ResumeImgClass, ResumeIgnoresLeftoverCheckpointFile) {
  // Checkpoint directories from older builds also hold a checkpoint.bin.
  // Resume reads the journal alone, so even a garbage one is ignored.
  test::TempDir ref_dir("imgclass_leftover_ref");
  test::TempDir out_dir("imgclass_leftover_out");
  test::TempDir ckp_dir("imgclass_leftover_ckp");
  const auto reference = baseline(ref_dir.str());

  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(5);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }
  std::ofstream(ckp_dir.file("checkpoint.bin"), std::ios::binary)
      << "left behind by an older build";

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  expect_identical(reference, harness.run());
}

TEST_F(ResumeImgClass, ResumingCompletedCampaignReplaysEverything) {
  test::TempDir ref_dir("imgclass_done_ref");
  test::TempDir out_dir("imgclass_done_out");
  test::TempDir ckp_dir("imgclass_done_ckp");
  const auto reference = baseline(ref_dir.str());

  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    expect_identical(reference, harness.run());
  }
  // Resume after completion: every unit replays from the journal, no
  // inference runs, outputs are rewritten identically.
  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  expect_identical(reference, harness.run());
}

TEST_F(ResumeImgClass, MitigatedCampaignSurvivesResume) {
  test::TempDir ref_dir("imgclass_mit_ref");
  test::TempDir out_dir("imgclass_mit_out");
  test::TempDir ckp_dir("imgclass_mit_ckp");
  auto ref_config = config(ref_dir.str());
  ref_config.mitigation = MitigationKind::kRanger;
  ImgClassCampaignResult reference;
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), ref_config);
    reference = harness.run();
  }

  auto first = config(out_dir.str());
  first.mitigation = MitigationKind::kRanger;
  first.jobs = 4;
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(6);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  auto second = config(out_dir.str());
  second.mitigation = MitigationKind::kRanger;
  second.jobs = 2;
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  const auto resumed = harness.run();
  expect_identical(reference, resumed);
  EXPECT_EQ(reference.kpis.resil_sde, resumed.kpis.resil_sde);
}

TEST_F(ResumeImgClass, CheckpointingRejectsBatchedPolicies) {
  // per_batch units are addressed like per_image ones (one image under
  // its batch's fault group), so a checkpointed per_batch campaign
  // interrupts and resumes byte-identically to an uninterrupted run.
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerBatch;
  test::TempDir ref_dir("imgclass_batch_ref");
  test::TempDir out_dir("imgclass_batch_out");
  test::TempDir ckp_dir("imgclass_batch_ckp");
  ImgClassCampaignResult reference;
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, s, config(ref_dir.str()));
    reference = harness.run();
  }

  auto first = config(out_dir.str());
  first.jobs = 4;
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(6);
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, s, first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_LT(e.completed_units(), e.total_units());
  }

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, second);
  const auto resumed = harness.run();
  expect_identical(reference, resumed);
  EXPECT_EQ(resumed.kpis.total, 24u);
}

// ---- corrupt counts in unit payloads ----------------------------------------

constexpr std::uint64_t kCorruptCount = std::uint64_t{1} << 40;

TEST_F(ResumeImgClass, CorruptPayloadCountsThrowParseError) {
  // A payload from a journal or a remote worker whose row or field count
  // is corrupt must underrun (ParseError), not size a vector first.
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), config(""));
  CampaignTask& task = harness;
  const auto payload = [](std::uint64_t rows, std::uint64_t fields) {
    io::ByteWriter w;
    for (int i = 0; i < 7; ++i) w.write_u64(0);  // KPI deltas
    w.write_u64(rows);
    if (rows == 1) w.write_u64(fields);
    return w.take();
  };
  for (const std::string& bytes : {payload(kCorruptCount, 0), payload(1, kCorruptCount)}) {
    EXPECT_THROW(task.classify_unit(0, bytes), ParseError);
    EXPECT_THROW(task.absorb_unit(0, bytes), ParseError);
  }
}

// ---- seeded journal mutations -----------------------------------------------

/// One damaged copy of a journal: `first_damaged` is the offset of its
/// first byte that differs from (or is missing from) the intact file.
struct JournalMutation {
  std::string name;
  std::string bytes;
  std::size_t first_damaged = 0;
};

/// End offset of every frame of an intact journal, in file order.
std::vector<std::size_t> frame_ends(const std::string& bytes) {
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    std::uint32_t size = 0;
    std::memcpy(&size, bytes.data() + pos, 4);
    pos += 8 + size;
    ends.push_back(pos);
  }
  EXPECT_EQ(pos, bytes.size()) << "intact journal must end on a frame boundary";
  return ends;
}

/// Seeded single-bit flips (random, plus one in every frame's size and
/// CRC fields), truncations at and around every frame boundary, and
/// trailing garbage (random bytes, a zero-filled tail, a torn copy of
/// the last frame).
std::vector<JournalMutation> mutate_journal(const std::string& intact,
                                            std::uint64_t seed) {
  const std::vector<std::size_t> ends = frame_ends(intact);
  std::vector<JournalMutation> out;
  const auto flip = [&](std::size_t byte, int bit) {
    JournalMutation m{"flip byte " + std::to_string(byte) + " bit " + std::to_string(bit),
                      intact, byte};
    m.bytes[byte] = static_cast<char>(m.bytes[byte] ^ (1 << bit));
    out.push_back(std::move(m));
  };
  Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    flip(rng.next_below(intact.size()), static_cast<int>(rng.next_below(8)));
  }
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    flip(begin + rng.next_below(4), static_cast<int>(rng.next_below(8)));      // size
    flip(begin + 4 + rng.next_below(4), static_cast<int>(rng.next_below(8)));  // crc
    begin = end;
  }
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 9};
  for (const std::size_t end : ends) {
    for (const std::size_t cut : {end - 1, end, end + 1}) cuts.push_back(cut);
  }
  for (const std::size_t cut : cuts) {
    if (cut >= intact.size()) continue;
    out.push_back({"truncate to " + std::to_string(cut), intact.substr(0, cut), cut});
  }
  for (const std::size_t n : {1u, 7u, 8u, 9u, 64u}) {
    std::string garbage;
    for (std::size_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(rng.next_below(256)));
    }
    out.push_back({"append " + std::to_string(n) + " random bytes", intact + garbage,
                   intact.size()});
  }
  for (const std::size_t n : {8u, 64u}) {
    out.push_back({"append " + std::to_string(n) + " zero bytes",
                   intact + std::string(n, '\0'), intact.size()});
  }
  const std::size_t last_begin = ends.size() > 1 ? ends[ends.size() - 2] : 0;
  out.push_back({"append a torn copy of the last frame",
                 intact + intact.substr(last_begin, 12), intact.size()});
  return out;
}

TEST_F(ResumeImgClass, SeededJournalMutationsScanToTheIntactPrefix) {
  test::TempDir out_dir("mutation_scan_out");
  test::TempDir ckp_dir("mutation_scan_ckp");
  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    harness.run();
  }
  const std::string path = CampaignExecutor::journal_path(ckp_dir.str());
  const std::string intact = file_bytes(path);
  const io::JournalScan reference = io::scan_journal(path);
  ASSERT_EQ(reference.units.size(), 24u);
  const std::vector<std::size_t> ends = frame_ends(intact);

  const std::vector<JournalMutation> mutations = mutate_journal(intact, 2501);
  ASSERT_GT(mutations.size(), 100u);
  for (const JournalMutation& m : mutations) {
    SCOPED_TRACE(m.name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << m.bytes;
    // Frames ending at or before the first damaged byte are intact.
    const auto intact_frames = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), m.first_damaged) - ends.begin());
    if (intact_frames == 0) {  // the header itself is damaged
      EXPECT_THROW(io::scan_journal(path), ParseError);
      continue;
    }
    const io::JournalScan scan = io::scan_journal(path);
    EXPECT_EQ(scan.header.fingerprint, reference.header.fingerprint);
    EXPECT_EQ(scan.valid_bytes, ends[intact_frames - 1]);
    EXPECT_EQ(scan.torn_tail, m.bytes.size() > ends[intact_frames - 1]);
    ASSERT_EQ(scan.units.size(), intact_frames - 1);
    for (std::size_t i = 0; i < scan.units.size(); ++i) {
      EXPECT_EQ(scan.units[i], reference.units[i]) << "frame " << i + 1;
    }
  }
}

TEST_F(ResumeImgClass, SeededJournalMutationsResumeIdenticallyOrRefuse) {
  test::TempDir ref_dir("mutation_ref");
  test::TempDir out_dir("mutation_out");
  test::TempDir ckp_dir("mutation_ckp");
  const auto reference = baseline(ref_dir.str());
  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    harness.run();
  }
  const std::string path = CampaignExecutor::journal_path(ckp_dir.str());
  const std::string intact = file_bytes(path);
  const std::size_t header_end = frame_ends(intact).front();

  // Every fifth mutation: a few dozen resumes over every mutation kind.
  const std::vector<JournalMutation> mutations = mutate_journal(intact, 2501);
  std::size_t resumed = 0;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < mutations.size(); i += 5) {
    const JournalMutation& m = mutations[i];
    SCOPED_TRACE(m.name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << m.bytes;
    auto again = config(out_dir.str());
    again.checkpoint_dir = ckp_dir.str();
    again.resume = true;
    try {
      TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), again);
      expect_identical(reference, harness.run());
      EXPECT_GE(m.first_damaged, header_end) << "resumed from a damaged header";
      ++resumed;
    } catch (const Error& e) {
      // Only a damaged header may refuse; anything past it is a torn
      // tail that resume truncates and recomputes.
      EXPECT_LT(m.first_damaged, header_end) << "refused: " << e.what();
      ++refused;
    }
  }
  EXPECT_GE(resumed + refused, 24u);
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(refused, 0u);
}

// ---- object detection -------------------------------------------------------

class ResumeObjDet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 12, .min_objects = 1, .max_objects = 2, .seed = 41});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    Rng rng(23);
    nn::kaiming_init(detector_->network(), rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static Scenario scenario(std::uint64_t seed = 55) {
    Scenario s;
    s.target = FaultTarget::kWeights;
    s.rnd_bit_range_lo = 26;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 8;
    s.num_runs = 2;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = seed;
    return s;
  }

  static ObjDetCampaignConfig config(const std::string& out_dir) {
    ObjDetCampaignConfig c;
    c.model_name = "yolo";
    c.output_dir = out_dir;
    return c;
  }

  static void expect_identical(const ObjDetCampaignResult& a,
                               const ObjDetCampaignResult& b) {
    EXPECT_EQ(file_bytes(a.ground_truth_json), file_bytes(b.ground_truth_json));
    EXPECT_EQ(file_bytes(a.scenario_yml), file_bytes(b.scenario_yml));
    EXPECT_EQ(file_bytes(a.fault_bin), file_bytes(b.fault_bin));
    EXPECT_EQ(file_bytes(a.trace_bin), file_bytes(b.trace_bin));
    EXPECT_EQ(file_bytes(a.orig_json), file_bytes(b.orig_json));
    EXPECT_EQ(file_bytes(a.corr_json), file_bytes(b.corr_json));
    EXPECT_EQ(a.ivmod.total, b.ivmod.total);
    EXPECT_EQ(a.ivmod.sde_images, b.ivmod.sde_images);
    EXPECT_EQ(a.ivmod.due_images, b.ivmod.due_images);
  }

  void kill_and_resume(std::size_t jobs_first, std::size_t jobs_second,
                       int kill_after) {
    test::TempDir ref_dir("objdet_ref");
    test::TempDir out_dir("objdet_out");
    test::TempDir ckp_dir("objdet_ckp");
    ObjDetCampaignResult reference;
    {
      auto c = config(ref_dir.str());
      TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
      reference = harness.run();
    }

    auto first = config(out_dir.str());
    first.jobs = jobs_first;
    first.checkpoint_dir = ckp_dir.str();
    first.interrupt = interrupt_after(kill_after);
    try {
      TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), first);
      harness.run();
      FAIL() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted& e) {
      EXPECT_LT(e.completed_units(), e.total_units());
      EXPECT_EQ(e.total_units(), 16u);  // 8 images * 2 epochs
    }

    auto second = config(out_dir.str());
    second.jobs = jobs_second;
    second.checkpoint_dir = ckp_dir.str();
    second.resume = true;
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), second);
    expect_identical(reference, harness.run());
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ResumeObjDet::dataset_ = nullptr;
models::YoloLite* ResumeObjDet::detector_ = nullptr;

TEST_F(ResumeObjDet, KillAndResumeSerial) { kill_and_resume(1, 1, 4); }

TEST_F(ResumeObjDet, KillAndResumeParallel) { kill_and_resume(4, 4, 5); }

TEST_F(ResumeObjDet, ResumeWithDifferentJobCount) { kill_and_resume(4, 1, 5); }

TEST_F(ResumeObjDet, CorruptPayloadCountsThrowParseError) {
  // An epoch-0 payload whose detection count is corrupt must underrun
  // (ParseError), not size a vector first.
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config(""));
  CampaignTask& task = harness;
  io::ByteWriter w;
  for (int i = 0; i < 3; ++i) w.write_u8(0);  // due, sde, resil_sde
  w.write_u8(1);                              // detections present
  w.write_i64(0);                             // image id
  w.write_u64(kCorruptCount);                 // orig detection count
  const std::string bytes = w.take();
  EXPECT_THROW(task.classify_unit(0, bytes), ParseError);
  EXPECT_THROW(task.absorb_unit(0, bytes), ParseError);
}

TEST_F(ResumeObjDet, ResumeRefusesDifferentTaskKind) {
  // An objdet checkpoint directory must not satisfy an imgclass resume
  // (and vice versa) even before fingerprints are compared.
  test::TempDir out_dir("objdet_kind_out");
  test::TempDir ckp_dir("objdet_kind_ckp");
  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.interrupt = interrupt_after(3);
  try {
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted&) {
  }

  data::SyntheticShapesClassification cls_data(
      {.size = 32, .num_classes = 10, .seed = 17});
  auto model = models::make_mini_alexnet();
  Rng rng(17);
  nn::kaiming_init(*model, rng);
  ImgClassCampaignConfig cls_config;
  cls_config.checkpoint_dir = ckp_dir.str();
  cls_config.resume = true;
  Scenario cls_scenario;
  cls_scenario.target = FaultTarget::kNeurons;
  cls_scenario.value_type = ValueType::kBitFlip;
  cls_scenario.inj_policy = InjectionPolicy::kPerImage;
  cls_scenario.dataset_size = 12;
  cls_scenario.num_runs = 2;
  cls_scenario.batch_size = 8;
  cls_scenario.rnd_seed = 4242;
  TestErrorModelsImgClass harness(*model, cls_data, cls_scenario, cls_config);
  EXPECT_THROW(harness.run(), ConfigError);
}

// ---- CampaignTask conformance -----------------------------------------------

TEST_F(ResumeImgClass, TaskContractImgClass) {
  auto c = config("");
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  CampaignTask& task = harness;
  EXPECT_EQ(task.task_kind(), "imgclass");
  EXPECT_EQ(task.unit_count(), 24u);  // dataset_size * num_runs
  EXPECT_EQ(task.base_config().model_name, "alexnet");
  EXPECT_EQ(task.task_scenario().dataset_size, 12u);

  // Fingerprint: stable across instances, sensitive to the fault matrix
  // seed and to payload-affecting config (top_k).
  TestErrorModelsImgClass same(*model_, *dataset_, scenario(), c);
  EXPECT_EQ(task.fingerprint(), same.fingerprint());
  TestErrorModelsImgClass reseeded(*model_, *dataset_, scenario(4243), c);
  EXPECT_NE(task.fingerprint(), reseeded.fingerprint());
  auto topk_config = c;
  topk_config.top_k = 3;
  TestErrorModelsImgClass topk(*model_, *dataset_, scenario(), topk_config);
  EXPECT_NE(task.fingerprint(), topk.fingerprint());
}

TEST_F(ResumeObjDet, TaskContractObjDet) {
  auto c = config("");
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
  CampaignTask& task = harness;
  EXPECT_EQ(task.task_kind(), "objdet");
  EXPECT_EQ(task.unit_count(), 16u);
  EXPECT_EQ(task.base_config().model_name, "yolo");

  TestErrorModelsObjDet same(*detector_, *dataset_, scenario(), c);
  EXPECT_EQ(task.fingerprint(), same.fingerprint());
  TestErrorModelsObjDet reseeded(*detector_, *dataset_, scenario(56), c);
  EXPECT_NE(task.fingerprint(), reseeded.fingerprint());
  auto conf_config = c;
  conf_config.conf_threshold = 0.6f;
  TestErrorModelsObjDet thresh(*detector_, *dataset_, scenario(), conf_config);
  EXPECT_NE(task.fingerprint(), thresh.fingerprint());
}

}  // namespace
}  // namespace alfi::core
