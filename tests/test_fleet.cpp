// Distributed campaign fleet (core/fleet.h): wire framing, lease-table
// bookkeeping, local-fork fleet byte-identity vs --jobs 1 for both
// harnesses, chaos SIGKILL with lease re-issue, handshake refusal,
// duplicate-completion dedupe, drain re-arming and the journal's fsync
// points.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/atomic_file.h"
#include "io/journal.h"
#include "io/socket.h"
#include "models/classification.h"
#include "models/yolo_lite.h"
#include "nn/layers.h"
#include "test_common.h"
#include "util/drain.h"

namespace alfi::core {
namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t counter_value(const util::MetricsRegistry& metrics,
                            const std::string& name) {
  for (const auto& [n, v] : metrics.counters()) {
    if (n == name) return v;
  }
  return 0;
}

/// Interrupt callback that flips to true after `n` polls.
std::function<bool()> interrupt_after(int n) {
  auto counter = std::make_shared<std::atomic<int>>(n);
  return [counter] { return counter->fetch_sub(1) <= 0; };
}

// ---- wire framing -----------------------------------------------------------

/// One loopback connection pair, built without a second thread: the
/// kernel completes the TCP handshake against the listen backlog.
struct LoopbackPair {
  LoopbackPair()
      : listener(0),
        client(io::connect_tcp("127.0.0.1", listener.port())),
        server(listener.accept_connection()) {}
  io::Listener listener;
  io::Socket client;
  io::Socket server;
};

/// Drains the socket until the decoder yields one payload.
std::string recv_one(io::Socket& sock, io::FrameDecoder& decoder) {
  std::string payload;
  while (!decoder.next(&payload)) {
    char buf[4096];
    const std::size_t n = sock.recv_some(buf, sizeof buf);
    if (n == 0) ADD_FAILURE() << "peer closed before a full frame arrived";
    decoder.feed(buf, n);
  }
  return payload;
}

TEST(FleetFraming, RoundTripsFramesOverLoopback) {
  LoopbackPair pair;
  const std::string binary("\x00\x01\xFF frame", 8);
  io::send_frame(pair.client, "alpha");
  io::send_frame(pair.client, binary);
  io::send_frame(pair.client, "");

  io::FrameDecoder decoder;
  EXPECT_EQ(recv_one(pair.server, decoder), "alpha");
  EXPECT_EQ(recv_one(pair.server, decoder), binary);
  EXPECT_EQ(recv_one(pair.server, decoder), "");
}

TEST(FleetFraming, DecoderWaitsForWholeFrameUnderBytewiseFeed) {
  LoopbackPair pair;
  io::send_frame(pair.client, "chunked-payload");
  std::string raw;
  char buf[256];
  while (raw.size() < 8 + 15) {
    const std::size_t n = pair.server.recv_some(buf, sizeof buf);
    ASSERT_GT(n, 0u);
    raw.append(buf, n);
  }
  io::FrameDecoder decoder;
  std::string payload;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    decoder.feed(raw.data() + i, 1);
    EXPECT_FALSE(decoder.next(&payload)) << "frame yielded at byte " << i;
  }
  decoder.feed(raw.data() + raw.size() - 1, 1);
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "chunked-payload");
}

TEST(FleetFraming, CorruptedPayloadThrowsParseError) {
  LoopbackPair pair;
  io::send_frame(pair.client, "precious-bytes");
  std::string raw;
  char buf[256];
  while (raw.size() < 8 + 14) {
    const std::size_t n = pair.server.recv_some(buf, sizeof buf);
    ASSERT_GT(n, 0u);
    raw.append(buf, n);
  }
  raw.back() ^= 0x01;  // flip one payload bit: CRC must catch it
  io::FrameDecoder decoder;
  decoder.feed(raw.data(), raw.size());
  std::string payload;
  EXPECT_THROW(decoder.next(&payload), ParseError);
}

TEST(FleetFraming, OversizedFrameThrowsParseError) {
  io::ByteWriter header;
  header.write_u32((1u << 30) + 1);  // past the journal/fleet sanity cap
  header.write_u32(0);
  io::FrameDecoder decoder;
  decoder.feed(header.bytes().data(), header.bytes().size());
  std::string payload;
  EXPECT_THROW(decoder.next(&payload), ParseError);
}

TEST(FleetProtocol, ParseHostPort) {
  const auto [host, port] = parse_host_port("192.168.0.7:4120");
  EXPECT_EQ(host, "192.168.0.7");
  EXPECT_EQ(port, 4120);
  EXPECT_THROW(parse_host_port("no-port"), ConfigError);
  EXPECT_THROW(parse_host_port(":4120"), ConfigError);
  EXPECT_THROW(parse_host_port("host:"), ConfigError);
  EXPECT_THROW(parse_host_port("host:0"), ConfigError);
  EXPECT_THROW(parse_host_port("host:99999"), ConfigError);
  EXPECT_THROW(parse_host_port("host:12x"), ConfigError);
}

// ---- lease table ------------------------------------------------------------

const LeaseTable::CompletedFn kNoneDone = [](std::size_t) { return false; };

TEST(LeaseTable, GrantsCoverEveryUnitExactlyOnce) {
  LeaseTable table(24, 5);
  std::vector<char> covered(24, 0);
  for (LeaseRange lease = table.grant(kNoneDone); !lease.empty();
       lease = table.grant(kNoneDone)) {
    EXPECT_LE(lease.size(), 5u);
    for (std::size_t t = lease.begin; t < lease.end; ++t) {
      EXPECT_FALSE(covered[t]) << "unit " << t << " leased twice";
      covered[t] = 1;
    }
  }
  for (std::size_t t = 0; t < 24; ++t) EXPECT_TRUE(covered[t]) << "unit " << t;
  EXPECT_EQ(table.queued_ranges(), 0u);
}

TEST(LeaseTable, TrimsLeadingAndSplitsAtInteriorCompletedUnits) {
  // One big queued range; units 0, 1 and 4 already completed (resume).
  LeaseTable table(10, 10);
  const std::set<std::size_t> done{0, 1, 4};
  const auto completed = [&](std::size_t t) { return done.count(t) > 0; };

  const LeaseRange first = table.grant(completed);
  EXPECT_EQ(first.begin, 2u);  // leading 0, 1 trimmed
  EXPECT_EQ(first.end, 4u);    // split at completed unit 4

  const LeaseRange second = table.grant(completed);
  EXPECT_EQ(second.begin, 5u);  // 4 trimmed off the requeued remainder
  EXPECT_EQ(second.end, 10u);

  EXPECT_TRUE(table.grant(completed).empty());
}

TEST(LeaseTable, RecycledRangeIsRegrantedFirst) {
  LeaseTable table(20, 5);
  const LeaseRange first = table.grant(kNoneDone);
  EXPECT_EQ(first.begin, 0u);
  // The worker died after shipping units 0 and 1.
  table.recycle({2, first.end});
  const std::set<std::size_t> done{0, 1};
  const LeaseRange reissued =
      table.grant([&](std::size_t t) { return done.count(t) > 0; });
  EXPECT_EQ(reissued.begin, 2u);
  EXPECT_EQ(reissued.end, first.end);
}

TEST(LeaseTable, CapsGrantsAtLeaseUnits) {
  LeaseTable table(16, 4);
  for (LeaseRange lease = table.grant(kNoneDone); !lease.empty();
       lease = table.grant(kNoneDone)) {
    EXPECT_LE(lease.size(), 4u);
  }
}

// ---- drain re-entrancy ------------------------------------------------------

TEST(Drain, HandlersRearmAfterFirstSignal) {
  install_drain_handlers();
  reset_drain_request();
  ASSERT_FALSE(drain_requested());

  // First signal: the handler sets the flag and resets the disposition
  // to SIG_DFL (second ^C kills).
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(drain_requested());

  // A later campaign/lease in the same process resets the request; the
  // machinery must re-arm — if it did not, this raise would terminate
  // the test binary instead of setting the flag.
  reset_drain_request();
  ASSERT_FALSE(drain_requested());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(drain_requested());

  // install_drain_handlers() itself must also re-arm.
  reset_drain_request();
  install_drain_handlers();
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(drain_requested());
  reset_drain_request();
}

// ---- classification fleet ---------------------------------------------------

class FleetImgClass : public ::testing::Test {
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

  /// Serial checkpointed reference: the byte-level ground truth the
  /// fleet merge (outputs AND journal) must match.
  static ImgClassCampaignResult reference(const std::string& out_dir,
                                          const std::string& ckp_dir) {
    auto c = config(out_dir);
    c.jobs = 1;
    c.checkpoint_dir = ckp_dir;
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

  static void expect_identical_journals(const std::string& a,
                                        const std::string& b) {
    EXPECT_EQ(file_bytes(CampaignExecutor::journal_path(a)),
              file_bytes(CampaignExecutor::journal_path(b)));
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* FleetImgClass::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> FleetImgClass::model_;

TEST_F(FleetImgClass, LocalFleetMatchesSerialByteForByte) {
  test::TempDir ref_dir("fleet_ref");
  test::TempDir ref_ckp("fleet_ref_ckp");
  test::TempDir out_dir("fleet_out");
  test::TempDir ckp_dir("fleet_ckp");
  const auto serial = reference(ref_dir.str(), ref_ckp.str());

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 3;
  c.fleet.lease_units = 2;
  c.fleet.heartbeat_ms = 50.0;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  const auto fleet = harness.run();

  expect_identical(serial, fleet);
  // The merge gate: the coordinator's journal is byte-identical to what
  // the serial checkpointed run wrote.
  expect_identical_journals(ref_ckp.str(), ckp_dir.str());
  EXPECT_EQ(counter_value(harness.metrics(), "fleet.workers_joined"), 3u);
  EXPECT_GE(counter_value(harness.metrics(), "fleet.leases_granted"), 12u);
  EXPECT_EQ(counter_value(harness.metrics(), "fleet.worker_deaths"), 0u);
  EXPECT_EQ(counter_value(harness.metrics(), "units.computed"), 24u);
}

TEST_F(FleetImgClass, ChaosSigkilledWorkersAreReleased) {
  test::TempDir ref_dir("chaos_ref");
  test::TempDir ref_ckp("chaos_ref_ckp");
  test::TempDir out_dir("chaos_out");
  test::TempDir ckp_dir("chaos_ckp");
  const auto serial = reference(ref_dir.str(), ref_ckp.str());

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 3;
  c.fleet.lease_units = 2;
  c.fleet.heartbeat_ms = 50.0;
  c.fleet.lease_timeout_ms = 60000.0;  // deaths must come from SIGKILL EOF,
                                       // not slow-test false timeouts
  auto pids = std::make_shared<std::vector<int>>();
  c.fleet.on_local_spawn = [pids](int pid) { pids->push_back(pid); };
  // SIGKILL two of the three workers mid-campaign (at 2 and 6 absorbed
  // units); the survivor must pick up their re-issued leases.
  auto killed = std::make_shared<std::size_t>(0);
  c.fleet.on_progress = [pids, killed](std::size_t done) {
    if (*killed == 0 && done >= 2 && pids->size() >= 1) {
      ::kill((*pids)[0], SIGKILL);
      ++*killed;
    } else if (*killed == 1 && done >= 6 && pids->size() >= 2) {
      ::kill((*pids)[1], SIGKILL);
      ++*killed;
    }
  };
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  const auto fleet = harness.run();

  EXPECT_EQ(*killed, 2u);
  expect_identical(serial, fleet);
  expect_identical_journals(ref_ckp.str(), ckp_dir.str());
  EXPECT_EQ(counter_value(harness.metrics(), "fleet.worker_deaths"), 2u);
  EXPECT_GE(counter_value(harness.metrics(), "fleet.leases_granted"), 12u);
}

TEST_F(FleetImgClass, RemoteWorkerCompletesCampaign) {
  test::TempDir ref_dir("remote_ref");
  test::TempDir ref_ckp("remote_ref_ckp");
  test::TempDir out_dir("remote_out");
  test::TempDir ckp_dir("remote_ckp");
  const auto serial = reference(ref_dir.str(), ref_ckp.str());

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.coordinator = true;  // no forked locals: work arrives over TCP
  std::promise<std::uint16_t> port_promise;
  c.fleet.on_listen = [&](std::uint16_t port) { port_promise.set_value(port); };

  ImgClassCampaignResult fleet;
  TestErrorModelsImgClass coordinator(*model_, *dataset_, scenario(), c);
  std::thread coordinator_thread([&] { fleet = coordinator.run(); });

  // The "remote" worker: its own model, dataset and harness instance,
  // built identically — exactly what a --fleet-worker process has.
  const std::uint16_t port = port_promise.get_future().get();
  data::SyntheticShapesClassification worker_data(
      {.size = 32, .num_classes = 10, .seed = 17});
  auto worker_model = models::make_mini_alexnet();
  Rng rng(17);
  nn::kaiming_init(*worker_model, rng);
  auto wc = config("");
  wc.fleet.connect = "127.0.0.1:" + std::to_string(port);
  TestErrorModelsImgClass worker(*worker_model, worker_data, scenario(), wc);
  worker.run();  // streams every unit, writes no outputs
  coordinator_thread.join();

  expect_identical(serial, fleet);
  expect_identical_journals(ref_ckp.str(), ckp_dir.str());
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.workers_joined"), 1u);
}

TEST_F(FleetImgClass, UnitFrameBeforeHandshakeIsRefused) {
  test::TempDir ref_dir("junk_ref");
  test::TempDir ref_ckp("junk_ref_ckp");
  test::TempDir out_dir("junk_out");
  test::TempDir ckp_dir("junk_ckp");
  const auto serial = reference(ref_dir.str(), ref_ckp.str());

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.coordinator = true;
  std::promise<std::uint16_t> port_promise;
  c.fleet.on_listen = [&](std::uint16_t port) { port_promise.set_value(port); };

  ImgClassCampaignResult fleet;
  std::string coordinator_error;
  TestErrorModelsImgClass coordinator(*model_, *dataset_, scenario(), c);
  std::thread coordinator_thread([&] {
    try {
      fleet = coordinator.run();
    } catch (const std::exception& e) {
      coordinator_error = e.what();
    }
  });
  const std::uint16_t port = port_promise.get_future().get();

  // A peer that never said hello ships a junk result for unit 0.
  io::Socket junk = io::connect_tcp("127.0.0.1", port);
  io::ByteWriter frame;
  frame.write_u8(static_cast<std::uint8_t>(io::JournalFrameKind::kUnit));
  frame.write_u64(0);
  frame.write_bytes("junk");
  io::send_frame(junk, frame.take());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Then a real worker runs the whole campaign.
  std::string worker_error;
  try {
    data::SyntheticShapesClassification worker_data(
        {.size = 32, .num_classes = 10, .seed = 17});
    auto worker_model = models::make_mini_alexnet();
    Rng rng(17);
    nn::kaiming_init(*worker_model, rng);
    auto wc = config("");
    wc.fleet.connect = "127.0.0.1:" + std::to_string(port);
    TestErrorModelsImgClass worker(*worker_model, worker_data, scenario(), wc);
    worker.run();
  } catch (const std::exception& e) {
    worker_error = e.what();
  }
  coordinator_thread.join();

  EXPECT_EQ(worker_error, "");
  ASSERT_EQ(coordinator_error, "");
  expect_identical(serial, fleet);
  expect_identical_journals(ref_ckp.str(), ckp_dir.str());
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.workers_refused"), 1u);
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.workers_joined"), 1u);
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.worker_deaths"), 0u);
  char byte = 0;
  EXPECT_EQ(junk.recv_some(&byte, 1), 0u);  // the coordinator dropped it
}

TEST_F(FleetImgClass, MalformedLeaseGrantThrowsParseError) {
  // A worker refuses an empty lease, a reversed one and one past the
  // campaign's 24 units before it sizes any per-lease state.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> grants = {
      {5, 5}, {6, 2}, {20, 25}, {0, ~std::uint64_t{0}}};
  for (const auto& [begin, end] : grants) {
    io::Listener listener(0);
    std::string error;
    std::thread worker_thread([&] {
      auto wc = config("");
      wc.fleet.connect = "127.0.0.1:" + std::to_string(listener.port());
      TestErrorModelsImgClass worker(*model_, *dataset_, scenario(), wc);
      try {
        worker.run();
        error = "none";
      } catch (const ParseError&) {
        error = "ParseError";
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    // Play the coordinator: welcome the worker, answer its lease
    // request with the malformed grant, then hang up.
    io::Socket sock = listener.accept_connection();
    io::FrameDecoder decoder;
    recv_one(sock, decoder);  // kHello
    io::ByteWriter welcome;
    welcome.write_u8(static_cast<std::uint8_t>(FleetMsgKind::kWelcome));
    welcome.write_u64(1);
    welcome.write_f64(50.0);
    io::send_frame(sock, welcome.take());
    recv_one(sock, decoder);  // kLeaseRequest
    io::ByteWriter grant;
    grant.write_u8(static_cast<std::uint8_t>(FleetMsgKind::kLeaseGrant));
    grant.write_u64(begin);
    grant.write_u64(end);
    io::send_frame(sock, grant.take());
    sock.close();
    worker_thread.join();
    EXPECT_EQ(error, "ParseError") << "lease [" << begin << ", " << end << ")";
  }
}

TEST_F(FleetImgClass, HandshakeRefusesForeignCampaign) {
  test::TempDir out_dir("refuse_out");
  test::TempDir ckp_dir("refuse_ckp");
  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.coordinator = true;
  std::promise<std::uint16_t> port_promise;
  c.fleet.on_listen = [&](std::uint16_t port) { port_promise.set_value(port); };
  std::atomic<bool> stop{false};
  c.interrupt = [&] { return stop.load(); };

  TestErrorModelsImgClass coordinator(*model_, *dataset_, scenario(), c);
  const CampaignTask& task = coordinator;
  const std::uint64_t fingerprint = task.fingerprint();
  std::atomic<bool> drained{false};
  std::thread coordinator_thread([&] {
    try {
      coordinator.run();
    } catch (const CampaignInterrupted&) {
      drained = true;
    }
  });

  // A worker running a DIFFERENT campaign (fingerprint off by one) must
  // be refused before any lease is granted.
  const std::uint16_t port = port_promise.get_future().get();
  io::Socket sock = io::connect_tcp("127.0.0.1", port);
  io::send_frame(sock, encode_fleet_hello(fingerprint + 1, 24, "imgclass"));
  io::FrameDecoder decoder;
  const std::string reply = recv_one(sock, decoder);
  io::ByteReader r(reply);
  EXPECT_EQ(r.read_u8(), static_cast<std::uint8_t>(FleetMsgKind::kRefuse));
  EXPECT_NE(r.read_string().find("fingerprint"), std::string::npos);
  sock.close();

  stop = true;
  coordinator_thread.join();
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.workers_refused"), 1u);
  EXPECT_EQ(counter_value(coordinator.metrics(), "fleet.workers_joined"), 0u);
}

TEST_F(FleetImgClass, DuplicateCompletionsAreDeduplicatedByByteEquality) {
  auto c = config("");
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  CampaignTask& task = harness;
  CampaignProgress progress(task, nullptr);

  EXPECT_TRUE(progress.store(3, "payload-bytes"));
  // A falsely-dead worker ships the same unit again: first-complete
  // wins, the duplicate is dropped.
  EXPECT_FALSE(progress.store(3, "payload-bytes"));
  EXPECT_EQ(progress.payload(3), "payload-bytes");
  // Divergent duplicate bytes can only be corruption — hard error.
  EXPECT_THROW(progress.store(3, "divergent-bytes"), Error);
  EXPECT_THROW(progress.store(99, ""), Error);  // out of range
}

TEST_F(FleetImgClass, FleetRejectsBatchedPolicies) {
  // per_batch units are unit-addressable like per_image ones, so a
  // local fleet runs them byte-identically to checkpointed --jobs 1.
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerBatch;
  test::TempDir ref_dir("fleet_batch_ref");
  test::TempDir ref_ckp("fleet_batch_ref_ckp");
  test::TempDir out_dir("fleet_batch_out");
  test::TempDir ckp_dir("fleet_batch_ckp");
  ImgClassCampaignResult serial;
  {
    auto c = config(ref_dir.str());
    c.checkpoint_dir = ref_ckp.str();
    TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
    serial = harness.run();
  }

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 2;
  c.fleet.lease_units = 3;
  c.fleet.heartbeat_ms = 50.0;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, c);
  const auto fleet = harness.run();
  expect_identical(serial, fleet);
  expect_identical_journals(ref_ckp.str(), ckp_dir.str());
  EXPECT_EQ(fleet.kpis.total, 24u);
}

TEST_F(FleetImgClass, CoordinatorRequiresCheckpointDir) {
  auto c = config("");
  c.fleet.local_workers = 2;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
  EXPECT_THROW(harness.run(), ConfigError);
}

// ---- drain mid-pack flush (satellite: drain re-entrancy) --------------------

TEST_F(FleetImgClass, DrainMidPackFlushesComputedPayloadsPastCursor) {
  test::TempDir ref_dir("flush_ref");
  test::TempDir out_dir("flush_out");
  test::TempDir ckp_dir("flush_ckp");
  ImgClassCampaignResult serial;
  {
    auto rc = config(ref_dir.str());
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), rc);
    serial = harness.run();
  }

  // unit_batch 4 with the 12x2 geometry strides packs by dataset_size:
  // pack {t, t+12} computes unit t+12 long before the ascending cursor
  // reaches it.  A drain must journal those pending pack-mates instead
  // of dropping them.
  auto first = config(out_dir.str());
  first.checkpoint_dir = ckp_dir.str();
  first.unit_batch = 4;
  first.interrupt = interrupt_after(3);
  std::size_t completed = 0;
  try {
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), first);
    harness.run();
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    completed = e.completed_units();
    EXPECT_LT(completed, 12u);
  }
  const auto scan =
      io::scan_journal(CampaignExecutor::journal_path(ckp_dir.str()));
  std::size_t max_unit = 0;
  for (const auto& [unit, payload] : scan.units) {
    max_unit = std::max(max_unit, unit);
  }
  // The flushed pack-mates sit past the absorb cursor (units >= 12
  // while fewer than 12 are absorbed).
  EXPECT_GT(scan.units.size(), completed);
  EXPECT_GE(max_unit, 12u);

  auto second = config(out_dir.str());
  second.checkpoint_dir = ckp_dir.str();
  second.resume = true;
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), second);
  const auto resumed = harness.run();
  expect_identical(serial, resumed);
  // Every journaled unit — including the out-of-order flushed ones —
  // replays instead of recomputing.
  EXPECT_EQ(counter_value(harness.metrics(), "units.replayed"),
            scan.units.size());
}

// ---- durability: the journal's fsync points ---------------------------------

/// Runs the serial campaign under the file-ops probe and returns the
/// journal's durability operations in order: its directory fsync and
/// every frame append and fsync.
std::vector<io::FileOp> journal_ops(ImgClassCampaignConfig c,
                                    const std::shared_ptr<nn::Sequential>& model,
                                    const data::SyntheticShapesClassification& dataset,
                                    const Scenario& scenario) {
  std::vector<io::FileOp> ops;
  io::set_file_ops_probe_for_testing([&](io::FileOp op, const std::string&) {
    if (op == io::FileOp::kDirSync || op == io::FileOp::kJournalAppend ||
        op == io::FileOp::kJournalSync) {
      ops.push_back(op);
    }
  });
  c.jobs = 1;  // single shard runs inline: the probe stays single-threaded
  try {
    TestErrorModelsImgClass harness(*model, dataset, scenario, c);
    harness.run();
  } catch (const CampaignInterrupted&) {
  }
  io::set_file_ops_probe_for_testing(nullptr);
  return ops;
}

TEST_F(FleetImgClass, JournalIsSyncedBeforeEveryCheckpointPublication) {
  // journal.bin is the only durable record, so its fsyncs are the whole
  // durability story.  Four points, on a finished and a drained run.
  test::TempDir out_dir("durable_out");
  test::TempDir done_ckp("durable_ckp");
  test::TempDir drained_ckp("durable_drained_ckp");
  auto c = config(out_dir.str());
  c.checkpoint_dir = done_ckp.str();
  const std::vector<io::FileOp> done = journal_ops(c, model_, *dataset_, scenario());
  c.checkpoint_dir = drained_ckp.str();
  c.interrupt = interrupt_after(5);
  const std::vector<io::FileOp> drained =
      journal_ops(c, model_, *dataset_, scenario());

  for (const std::vector<io::FileOp>* run : {&done, &drained}) {
    const std::vector<io::FileOp>& ops = *run;
    ASSERT_GE(ops.size(), 4u);
    // 1. The directory entry is durable before the first (header) append.
    EXPECT_EQ(ops[0], io::FileOp::kDirSync);
    EXPECT_EQ(ops[1], io::FileOp::kJournalAppend);
    // 2. A journal fsync sits between the header and the first unit frame.
    EXPECT_EQ(ops[2], io::FileOp::kJournalSync);
    // 3. At most kSyncEvery unit frames between fsyncs.
    std::size_t frames = 0;
    std::size_t unsynced = 0;
    for (std::size_t i = 3; i < ops.size(); ++i) {
      EXPECT_NE(ops[i], io::FileOp::kDirSync);
      if (ops[i] == io::FileOp::kJournalAppend) {
        ++frames;
        EXPECT_LE(++unsynced, CampaignProgress::kSyncEvery) << "frame " << frames;
      } else if (ops[i] == io::FileOp::kJournalSync) {
        unsynced = 0;
      }
    }
    EXPECT_GT(frames, 0u);
    // 4. A final fsync at close (finished) or drain (interrupted).
    EXPECT_EQ(ops.back(), io::FileOp::kJournalSync);
  }
  // The finished run journaled every unit; the drained one fewer.
  EXPECT_EQ(std::count(done.begin(), done.end(), io::FileOp::kJournalAppend), 25);
  EXPECT_LT(std::count(drained.begin(), drained.end(), io::FileOp::kJournalAppend), 25);
}

TEST_F(FleetImgClass, FailedJournalSyncPreventsCheckpointPublication) {
  // Write-fault shim: a journal fsync fails, as a dying disk would.  The
  // campaign must surface IoError and publish no final output — results
  // that outlive their journal could never be resumed or re-derived.
  // Fail the header fsync, then the close fsync (the header and three
  // periodic fsyncs of 24 units pass).
  for (const int syncs_before_failure : {0, 4}) {
    test::TempDir out_dir("fault_out");
    test::TempDir ckp_dir("fault_ckp");
    int syncs = 0;
    io::set_file_ops_probe_for_testing([&](io::FileOp op, const std::string&) {
      if (op == io::FileOp::kJournalSync && syncs++ == syncs_before_failure) {
        throw IoError("injected journal fsync failure");
      }
    });
    auto c = config(out_dir.str());
    c.jobs = 1;
    c.checkpoint_dir = ckp_dir.str();
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
    EXPECT_THROW(harness.run(), IoError) << syncs_before_failure;
    io::set_file_ops_probe_for_testing(nullptr);
    EXPECT_EQ(syncs, syncs_before_failure + 1);
    EXPECT_FALSE(std::filesystem::exists(out_dir.file("alexnet_results.csv")));
    EXPECT_FALSE(std::filesystem::exists(out_dir.file("alexnet_fault_free.csv")));
    EXPECT_FALSE(std::filesystem::exists(out_dir.file("alexnet_trace.bin")));
  }
}

TEST_F(FleetImgClass, CheckpointDirHoldsOnlyTheJournal) {
  // Local, steered, fleet and drained checkpointing runs all leave
  // exactly journal.bin in the checkpoint directory.
  const auto expect_only_journal = [](const test::TempDir& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
      names.push_back(entry.path().filename().string());
    }
    EXPECT_EQ(names, std::vector<std::string>{"journal.bin"}) << dir.str();
  };
  test::TempDir out_dir("only_journal_out");
  const auto run_in = [&](const test::TempDir& ckp,
                          const std::function<void(ImgClassCampaignConfig&)>& tweak) {
    auto c = config(out_dir.str());
    c.checkpoint_dir = ckp.str();
    tweak(c);
    try {
      TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), c);
      harness.run();
    } catch (const CampaignInterrupted&) {
    }
    expect_only_journal(ckp);
  };
  test::TempDir local("only_journal_local");
  run_in(local, [](ImgClassCampaignConfig& c) { c.jobs = 2; });
  test::TempDir steered("only_journal_steered");
  run_in(steered, [](ImgClassCampaignConfig& c) { c.steering.budget = 12; });
  test::TempDir fleet("only_journal_fleet");
  run_in(fleet, [](ImgClassCampaignConfig& c) {
    c.fleet.local_workers = 2;
    c.fleet.lease_units = 4;
    c.fleet.heartbeat_ms = 50.0;
  });
  test::TempDir drained("only_journal_drained");
  run_in(drained, [](ImgClassCampaignConfig& c) { c.interrupt = interrupt_after(4); });
}

// ---- object detection fleet -------------------------------------------------

class FleetObjDet : public ::testing::Test {
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

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* FleetObjDet::dataset_ = nullptr;
models::YoloLite* FleetObjDet::detector_ = nullptr;

TEST_F(FleetObjDet, LocalFleetMatchesSerialByteForByte) {
  test::TempDir ref_dir("fleet_od_ref");
  test::TempDir ref_ckp("fleet_od_ref_ckp");
  test::TempDir out_dir("fleet_od_out");
  test::TempDir ckp_dir("fleet_od_ckp");
  ObjDetCampaignResult serial;
  {
    auto rc = config(ref_dir.str());
    rc.jobs = 1;
    rc.checkpoint_dir = ref_ckp.str();
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), rc);
    serial = harness.run();
  }

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 2;
  c.fleet.lease_units = 3;
  c.fleet.heartbeat_ms = 50.0;
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
  const auto fleet = harness.run();

  expect_identical(serial, fleet);
  EXPECT_EQ(file_bytes(CampaignExecutor::journal_path(ref_ckp.str())),
            file_bytes(CampaignExecutor::journal_path(ckp_dir.str())));
  EXPECT_EQ(counter_value(harness.metrics(), "fleet.workers_joined"), 2u);
  EXPECT_EQ(counter_value(harness.metrics(), "units.computed"), 16u);
}

TEST_F(FleetObjDet, ChaosSigkilledWorkerIsReleased) {
  test::TempDir ref_dir("chaos_od_ref");
  test::TempDir out_dir("chaos_od_out");
  test::TempDir ckp_dir("chaos_od_ckp");
  ObjDetCampaignResult serial;
  {
    auto rc = config(ref_dir.str());
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), rc);
    serial = harness.run();
  }

  auto c = config(out_dir.str());
  c.checkpoint_dir = ckp_dir.str();
  c.fleet.local_workers = 3;
  c.fleet.lease_units = 2;
  c.fleet.heartbeat_ms = 50.0;
  c.fleet.lease_timeout_ms = 60000.0;
  auto pids = std::make_shared<std::vector<int>>();
  c.fleet.on_local_spawn = [pids](int pid) { pids->push_back(pid); };
  auto killed = std::make_shared<std::size_t>(0);
  c.fleet.on_progress = [pids, killed](std::size_t done) {
    if (*killed == 0 && done >= 2 && pids->size() >= 1) {
      ::kill((*pids)[0], SIGKILL);
      ++*killed;
    } else if (*killed == 1 && done >= 5 && pids->size() >= 2) {
      ::kill((*pids)[1], SIGKILL);
      ++*killed;
    }
  };
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), c);
  const auto fleet = harness.run();

  EXPECT_EQ(*killed, 2u);
  expect_identical(serial, fleet);
  EXPECT_EQ(counter_value(harness.metrics(), "fleet.worker_deaths"), 2u);
}

}  // namespace
}  // namespace alfi::core
