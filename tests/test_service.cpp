// The service layer (src/service/): spec/reply codecs, the coordinator's
// scheduling and admission control, graceful drain, and the TCP daemon.
// Plus the transport-name registry the service surfaces through its CLIs.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/wire.h"
#include "net/error.h"
#include "net/runtime.h"
#include "net/transport.h"
#include "service/coordinator.h"
#include "service/daemon.h"
#include "service/spec.h"

namespace tft::service {
namespace {

using net::NetError;
using net::NetErrorKind;

SessionSpec small_spec(std::uint64_t seed, std::string tenant = "") {
  SessionSpec spec;
  spec.family = InstanceFamily::kPlanted;
  spec.n = 200;
  spec.k = 4;
  spec.seed = seed;
  spec.tenant = std::move(tenant);
  return spec;
}

ServiceConfig inproc_config(std::size_t live, std::size_t pending) {
  ServiceConfig cfg;
  cfg.net.transport = net::TransportKind::kInProc;
  cfg.net.virtual_clock = true;
  cfg.max_live_sessions = live;
  cfg.max_pending = pending;
  return cfg;
}

/// Holds one session on its worker, live and holding its admission slot,
/// until open(). Tests use it where they need a session to still be running
/// while they submit more, however fast the session itself would be.
class SessionGate {
 public:
  /// Installs the hold on `cfg` for the session with wire id `wire_id`,
  /// after any hook `cfg` already has.
  SessionGate(ServiceConfig& cfg, std::uint32_t wire_id) {
    cfg.on_session_start = [s = state_, wire_id, prev = cfg.on_session_start](std::uint32_t id) {
      if (prev) prev(id);
      if (id != wire_id) return;
      std::unique_lock lock(s->mu);
      s->held = true;
      s->cv.notify_all();
      s->cv.wait(lock, [&] { return s->open; });
    };
  }
  void wait_until_held() {
    std::unique_lock lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->held; });
  }
  void open() {
    {
      const std::lock_guard lock(state_->mu);
      state_->open = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool open = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

// ---- codecs -----------------------------------------------------------------

TEST(ServiceSpec, CodecRoundTripsEveryField) {
  SessionSpec spec;
  spec.protocol = ProtocolKind::kUnrestricted;
  spec.family = InstanceFamily::kMu;
  spec.n = 99'991;
  spec.k = 17;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.eps_micro = 250'000;
  spec.param = 85;
  spec.tenant = "team-rocket";
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
  EXPECT_EQ(decode_spec(encode_spec(SessionSpec{})), SessionSpec{});
}

TEST(ServiceSpec, DecodeRejectsCorruptBytesTyped) {
  const std::vector<std::uint8_t> good = encode_spec(small_spec(1, "t"));
  const auto expect_corrupt = [](std::span<const std::uint8_t> bytes) {
    try {
      (void)decode_spec(bytes);
      FAIL() << "malformed spec bytes must throw";
    } catch (const NetError& e) {
      EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
    }
  };
  expect_corrupt({});                                             // empty
  expect_corrupt(std::span(good).first(good.size() / 2));         // truncated
  std::vector<std::uint8_t> bad_version = good;
  bad_version[0] = 0xFF;                                          // unknown version
  expect_corrupt(bad_version);
}

TEST(ServiceReplyCodec, RoundTripsVerdictAndAccounting) {
  ServiceReply reply;
  reply.status = ReplyStatus::kTriangle;
  reply.session_id = 42;
  reply.triangle = Triangle{3, 7, 11};
  reply.charged_bits = 123'456;
  reply.payload_bits = 123'456;
  reply.messages = 78;
  reply.frames = 31;
  reply.wire_bytes = 20'000;
  reply.accounting_exact = true;
  reply.conformance_ok = true;
  EXPECT_EQ(decode_reply(encode_reply(reply)), reply);

  ServiceReply busy;
  busy.status = ReplyStatus::kBusy;
  busy.error = "service at capacity";
  EXPECT_EQ(decode_reply(encode_reply(busy)), busy);
}

TEST(ServiceSpec, BuildPlayersIsAPureFunctionOfTheSpec) {
  const SessionSpec spec = small_spec(7);
  const auto a = build_players(spec);
  const auto b = build_players(spec);
  ASSERT_EQ(a.size(), spec.k);
  ASSERT_EQ(b.size(), spec.k);
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto ea = a[j].local.edges();
    const auto eb = b[j].local.edges();
    ASSERT_EQ(ea.size(), eb.size()) << "player " << j;
    EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin())) << "player " << j;
  }
}

// ---- transport registry (CLI surface) ---------------------------------------

TEST(ServiceTransports, NameRegistryRoundTrips) {
  for (const auto kind : {net::TransportKind::kSim, net::TransportKind::kInProc,
                          net::TransportKind::kSocket}) {
    const auto parsed = net::parse_transport(net::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << net::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(ServiceTransports, UnknownNamesParseToNullopt) {
  for (const char* bogus : {"", "tcp", "SIM", "in-proc", "socket "}) {
    EXPECT_FALSE(net::parse_transport(bogus).has_value()) << "'" << bogus << "'";
  }
}

// ---- coordinator ------------------------------------------------------------

TEST(ServiceCoordinatorTest, RunsConcurrentSessionsWithExactAccounting) {
  ServiceCoordinator coordinator(inproc_config(/*live=*/2, /*pending=*/8));
  std::vector<std::future<SessionOutcome>> futures;
  futures.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    futures.push_back(coordinator.submit(small_spec(100 + i)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SessionOutcome out = futures[i].get();
    SCOPED_TRACE(i);
    EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
    EXPECT_TRUE(out.accounting_exact);
    EXPECT_TRUE(out.conformance_ok);
    // Wire ids are minted at submission, in submission order, from 1.
    EXPECT_EQ(out.session_id, static_cast<std::uint32_t>(i + 1));
  }
  EXPECT_EQ(coordinator.sessions_completed(), 4u);
  EXPECT_EQ(coordinator.sessions_rejected(), 0u);
}

TEST(ServiceCoordinatorTest, RejectsPastCapacityWithTypedBusy) {
  // One worker, one admitted slot total: the second immediate submit must
  // bounce while the first still occupies admission.
  ServiceConfig cfg = inproc_config(/*live=*/1, /*pending=*/1);
  SessionGate gate(cfg, /*wire_id=*/1);  // keep the single slot occupied
  ServiceCoordinator coordinator(cfg);
  SessionSpec slow = small_spec(1);
  slow.n = 4000;
  auto first = coordinator.submit(slow);
  gate.wait_until_held();
  try {
    (void)coordinator.submit(small_spec(2));
    ADD_FAILURE() << "submit past max_pending must throw kServiceBusy";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kServiceBusy);
  }
  EXPECT_GE(coordinator.sessions_rejected(), 1u);
  gate.open();
  const SessionOutcome out = first.get();
  EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
}

TEST(ServiceCoordinatorTest, FairShareRoundRobinsAcrossTenants) {
  ServiceConfig cfg = inproc_config(/*live=*/1, /*pending=*/8);
  cfg.scheduler = SchedulerKind::kFairShare;
  std::mutex started_mu;
  std::vector<std::uint32_t> started;  // wire ids in the order the worker ran them
  cfg.on_session_start = [&](std::uint32_t id) {
    const std::lock_guard lock(started_mu);
    started.push_back(id);
  };
  SessionGate gate(cfg, /*wire_id=*/1);
  ServiceCoordinator coordinator(cfg);

  // Pin the single worker on a tenant-a session, then queue a, a, b.
  // Round-robin across tenants: b runs before the second queued a.
  SessionSpec slow = small_spec(1, "a");
  slow.n = 6000;
  auto pin = coordinator.submit(slow);
  gate.wait_until_held();
  auto a1 = coordinator.submit(small_spec(2, "a"));
  auto a2 = coordinator.submit(small_spec(3, "a"));
  auto b1 = coordinator.submit(small_spec(4, "b"));
  gate.open();

  (void)b1.get();
  for (auto* f : {&pin, &a1, &a2}) {
    const SessionOutcome out = f->get();
    EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
    EXPECT_TRUE(out.accounting_exact);
  }
  // Wire ids follow submission order: pin 1, a1 2, a2 3, b1 4.
  const std::lock_guard lock(started_mu);
  ASSERT_EQ(started.size(), 4u);
  const auto turn = [&](std::uint32_t id) {
    return std::find(started.begin(), started.end(), id) - started.begin();
  };
  EXPECT_LT(turn(4), std::max(turn(2), turn(3)))
      << "fair-share must not serve tenant a twice before b";
}

TEST(ServiceCoordinatorTest, DrainStopsAdmissionTyped) {
  ServiceCoordinator coordinator(inproc_config(/*live=*/1, /*pending=*/2));
  auto f = coordinator.submit(small_spec(5));
  coordinator.drain();
  EXPECT_TRUE(f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      << "drain must wait for admitted sessions";
  EXPECT_NE(f.get().status, ReplyStatus::kError);
  try {
    (void)coordinator.submit(small_spec(6));
    FAIL() << "submit after drain must throw kClosed";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kClosed);
  }
}

TEST(ServiceCoordinatorTest, RejectsSimTransportAndZeroWorkers) {
  ServiceConfig sim;
  sim.net.transport = net::TransportKind::kSim;
  EXPECT_THROW(ServiceCoordinator{sim}, NetError);
  ServiceConfig none = inproc_config(1, 1);
  none.max_live_sessions = 0;
  EXPECT_THROW(ServiceCoordinator{none}, NetError);
  ServiceConfig starved = inproc_config(4, 2);  // pending < live idles workers
  EXPECT_THROW(ServiceCoordinator{starved}, NetError);
}

// ---- daemon -----------------------------------------------------------------

TEST(ServiceDaemonTest, ServesSpecsOverLoopbackTcp) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceDaemon daemon(inproc_config(/*live=*/2, /*pending=*/8));
  ASSERT_NE(daemon.port(), 0);

  const ServiceReply r1 = request(daemon.port(), small_spec(11));
  const ServiceReply r2 = request(daemon.port(), small_spec(12));
  for (const ServiceReply& r : {r1, r2}) {
    EXPECT_NE(r.status, ReplyStatus::kError) << r.error;
    EXPECT_NE(r.status, ReplyStatus::kBusy);
    EXPECT_TRUE(r.accounting_exact);
    EXPECT_TRUE(r.conformance_ok);
    EXPECT_GT(r.charged_bits, 0u);
    EXPECT_GT(r.wire_bytes, 0u);
  }
  EXPECT_NE(r1.session_id, r2.session_id);
  if (r1.status == ReplyStatus::kTriangle) {
    EXPECT_TRUE(r1.triangle.has_value()) << "a triangle verdict must carry its witness";
  }

  daemon.shutdown();
  EXPECT_EQ(daemon.coordinator().sessions_completed(), 2u);
  // Shutdown is idempotent and the port stops answering.
  daemon.shutdown();
  EXPECT_THROW((void)request(daemon.port(), small_spec(13)), NetError);
}

/// A client that connects and never sends its spec must not hold the
/// daemon's drain: shutdown() wakes the handler blocked reading the spec.
TEST(ServiceDaemonTest, IdleClientDoesNotBlockShutdown) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceDaemon daemon(inproc_config(/*live=*/2, /*pending=*/8));

  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(daemon.port());
  ASSERT_EQ(::connect(idle, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  // A well-formed client is served while the idle one sits there.
  const ServiceReply served = request(daemon.port(), small_spec(21));

  auto drained = std::async(std::launch::async, [&] { daemon.shutdown(); });
  const bool prompt = drained.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // On failure, hang up the idle client so the drain can finish and the
  // test reports instead of blocking.
  if (!prompt) (void)::shutdown(idle, SHUT_RDWR);
  drained.get();
  (void)::close(idle);
  EXPECT_TRUE(prompt) << "shutdown() waited on a client that never sent a spec";

  EXPECT_NE(served.status, ReplyStatus::kError) << served.error;
  EXPECT_NE(served.status, ReplyStatus::kBusy);
  EXPECT_TRUE(served.accounting_exact);
  EXPECT_TRUE(served.conformance_ok);
  EXPECT_GT(served.charged_bits, 0u);
  EXPECT_EQ(daemon.coordinator().sessions_completed(), 1u);
}

/// VmSize of this process in KiB (/proc/self/status); 0 if unavailable.
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(ServiceDaemonTest, ReapsFinishedConnectionThreads) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceDaemon daemon(inproc_config(/*live=*/2, /*pending=*/8));
  // Warm-up: coordinator workers, servicer pollers and allocator arenas
  // reach their steady state before the baseline is read.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ASSERT_NE(request(daemon.port(), small_spec(seed)).status, ReplyStatus::kError);
  }
  const std::uint64_t before = vm_size_kib();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  for (std::uint64_t seed = 100; seed < 164; ++seed) {
    const ServiceReply r = request(daemon.port(), small_spec(seed));
    ASSERT_NE(r.status, ReplyStatus::kError) << r.error;
  }
  // An unjoined handler keeps its whole stack mapped (8 MiB by default), so
  // 64 of them add ~512 MiB. Reaped, only the last connection or two may
  // still be unjoined; the headroom is for the allocator, which reserves
  // address space a 64 MiB arena at a time when threads overlap.
  const std::uint64_t after = vm_size_kib();
  EXPECT_LT(after, before + (std::uint64_t{256} << 10))
      << "VmSize grew from " << before << " KiB to " << after << " KiB over 64 sessions";
  daemon.shutdown();
  EXPECT_EQ(daemon.coordinator().sessions_completed(), 72u);
}

// ---- spec versioning: the shard-affinity field ------------------------------

/// The default (affinity 0) spec must stay byte-identical to the pre-shard
/// v1 wire: reconstruct the v1 encoder's byte string field by field and
/// demand equality. A pre-shard peer decodes today's default specs, and
/// vice versa.
TEST(ServiceSpec, AffinityZeroKeepsTheV1WireBytes) {
  const SessionSpec spec = small_spec(9, "acme");
  BitWriter w;
  w.put_gamma(1);  // the pre-shard version tag
  w.put_gamma(static_cast<std::uint64_t>(spec.protocol));
  w.put_gamma(static_cast<std::uint64_t>(spec.family));
  w.put_gamma(spec.n);
  w.put_gamma(spec.k);
  w.put_bits(spec.seed, 64);
  w.put_gamma(spec.eps_micro);
  w.put_gamma(spec.param);
  w.put_gamma(spec.tenant.size());
  for (const char c : spec.tenant) w.put_bits(static_cast<std::uint8_t>(c), 8);
  EXPECT_EQ(encode_spec(spec), w.bytes());
}

TEST(ServiceSpec, AffinityRoundTripsThroughTheV2Wire) {
  SessionSpec spec = small_spec(10, "acme");
  spec.shard_affinity = 3;
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
  spec.shard_affinity = UINT32_MAX;
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
}

/// Canonicality: one value, one byte string. A v2 encoding carrying
/// affinity 0 (which should have been v1) is rejected, so nobody can mint
/// two distinct byte strings for the same spec.
TEST(ServiceSpec, RejectsNonCanonicalV2WithZeroAffinity) {
  const SessionSpec spec;  // all defaults, affinity 0
  BitWriter w;
  w.put_gamma(2);  // v2 tag on a spec that must encode as v1
  w.put_gamma(static_cast<std::uint64_t>(spec.protocol));
  w.put_gamma(static_cast<std::uint64_t>(spec.family));
  w.put_gamma(spec.n);
  w.put_gamma(spec.k);
  w.put_bits(spec.seed, 64);
  w.put_gamma(spec.eps_micro);
  w.put_gamma(spec.param);
  w.put_gamma(0);  // empty tenant
  w.put_gamma(0);  // the non-canonical zero affinity
  try {
    (void)decode_spec(w.bytes());
    FAIL() << "a v2 spec with affinity 0 must be rejected as non-canonical";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
  }
}

// ---- client retry -----------------------------------------------------------

/// request_with_retry against a capacity-1 daemon: a zero-budget call
/// surfaces the typed kBusy reply (the exit-2 path), while a budgeted call
/// outlasts the busy window and lands a real verdict once the slot frees.
TEST(ServiceDaemonTest, RetryOutlastsABusyWindow) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceConfig cfg = inproc_config(/*live=*/1, /*pending=*/1);
  SessionGate gate(cfg, /*wire_id=*/1);
  ServiceDaemon daemon(cfg);

  // An occupant holds the only admission slot while we probe.
  SessionSpec slow = small_spec(31);
  slow.n = 4000;
  ServiceReply occupant_reply;
  std::thread occupant([&] { occupant_reply = request(daemon.port(), slow); });
  gate.wait_until_held();

  // retries=0 is a plain request: the busy window is observable, typed.
  const ServiceReply busy = request_with_retry(daemon.port(), small_spec(32), 0, 1);
  EXPECT_EQ(busy.status, ReplyStatus::kBusy);
  EXPECT_FALSE(busy.error.empty()) << "a busy reply should say what was full";

  // A budgeted retry converges once the occupant completes: it is released
  // while the retry below is already backing off.
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.open();
  });
  const ServiceReply ok = request_with_retry(daemon.port(), small_spec(33), 400, 5);
  EXPECT_NE(ok.status, ReplyStatus::kBusy) << ok.error;
  EXPECT_NE(ok.status, ReplyStatus::kError) << ok.error;
  EXPECT_TRUE(ok.accounting_exact);

  release.join();
  occupant.join();
  EXPECT_NE(occupant_reply.status, ReplyStatus::kBusy) << occupant_reply.error;
  EXPECT_NE(occupant_reply.status, ReplyStatus::kError) << occupant_reply.error;
}

}  // namespace
}  // namespace tft::service
