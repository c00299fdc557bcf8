// The io and net layers, measured at the end of a men2-hotspot traced run:
// the Men-2 bundle is saved as a snapshot behind a registry manifest and
// loaded back (first Acquire), two net::ShardServers and a net::Router are
// started over that manifest in this process, and 300 distance queries go
// one at a time over loopback, alternately through the router and straight
// to the shard that owns the venue. The per-request hops (client encode,
// router hop, shard hop, service queue, engine execution, client decode)
// come from those round trips.

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <thread>

#include "engine/venue_registry.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace net = ::viptree::net;

constexpr const char* kVenueId = "men2";
constexpr size_t kSerialCalls = 300;

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Waits up to 1 ms for data, then reads whatever is ready into the
// decoder. False on EOF or a socket error.
bool Receive(int fd, net::FrameDecoder* decoder) {
  pollfd p{fd, POLLIN, 0};
  ::poll(&p, 1, 1);
  uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      decoder->Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

struct Connection {
  net::Socket sock;
  net::FrameDecoder decoder;
  uint64_t next_tag = 1;

  bool Open(uint16_t port) {
    const viptree::io::Status s = net::ConnectTcp(
        "127.0.0.1:" + std::to_string(port), 2000.0, &sock);
    if (!s.ok()) std::fprintf(stderr, "connect: %s\n", s.error.c_str());
    return s.ok();
  }
};

// One serial round trip: encode, send, wait for the reply, decode.
struct RoundTrip {
  int64_t start_ns = 0, encoded_ns = 0, decode_ns = 0, end_ns = 0;
  double total_us = 0, encode_us = 0, decode_us = 0;
  size_t request_bytes = 0, response_bytes = 0;
  net::WireResponse response;
};

bool Call(Connection* conn, const net::WireRequest& request, RoundTrip* out) {
  const uint64_t tag = conn->next_tag++;
  const int64_t start = NowNs();
  const std::vector<uint8_t> frame = net::EncodeRequestFrame(request, tag);
  const int64_t encoded = NowNs();
  if (!SendAll(conn->sock.fd(), frame)) return false;
  std::optional<net::Frame> reply;
  const int64_t give_up = start + 5'000'000'000;
  while (!(reply = conn->decoder.Next())) {
    if (conn->decoder.failed() || NowNs() > give_up ||
        !Receive(conn->sock.fd(), &conn->decoder)) {
      return false;
    }
  }
  const int64_t decode_start = NowNs();
  viptree::io::Reader reader(reply->payload);
  std::string error;
  if (!net::DecodeResponsePayload(&reader, &out->response, &error)) {
    return false;
  }
  const int64_t end = NowNs();
  out->start_ns = start;
  out->encoded_ns = encoded;
  out->decode_ns = decode_start;
  out->end_ns = end;
  out->total_us = MicrosBetween(start, end);
  out->encode_us = MicrosBetween(start, encoded);
  out->decode_us = MicrosBetween(decode_start, end);
  out->request_bytes = frame.size();
  out->response_bytes = net::kHeaderBytes + reply->payload.size();
  return reply->tag == tag && out->response.ok();
}

struct Fleet {
  std::unique_ptr<net::ShardServer> shards[2];
  std::unique_ptr<net::Router> router;

  ~Fleet() {
    if (router) router->Stop();
    for (auto& s : shards) {
      if (s) s->Stop();
    }
  }
};

}  // namespace

void ProbeWire(const eng::VenueBundle& bundle,
               const std::vector<Answer>& distances, Tracer& tracer,
               LayerMetrics* layers, Report* report) {
  ::mkdir(".bench_build", 0755);
  const std::string dir =
      ".bench_build/wire-" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string manifest = dir + "/registry.txt";
  const std::string snapshot = std::string(kVenueId) + ".vipsnap";
  const auto cleanup = [&] {
    std::remove((dir + "/" + snapshot).c_str());
    std::remove(manifest.c_str());
    ::rmdir(dir.c_str());
  };

  int64_t t0 = NowNs();
  const viptree::io::Status saved = bundle.Save(dir + "/" + snapshot);
  int64_t t1 = NowNs();
  tracer.Add(span::kSave, 0, t0, t1);
  layers->save_ms = MicrosBetween(t0, t1) / 1000.0;
  if (!saved.ok() ||
      !eng::VenueRegistry::UpsertManifestEntry(manifest, kVenueId, snapshot)
           .ok()) {
    report->Fail("cannot stage the snapshot registry in " + dir);
    cleanup();
    return;
  }
  const auto open = [&]() -> std::optional<eng::VenueRegistry> {
    std::string error;
    std::optional<eng::VenueRegistry> r =
        eng::VenueRegistry::Open(manifest, &error);
    if (!r) report->Fail("registry: " + error);
    return r;
  };
  {
    std::optional<eng::VenueRegistry> mine = open();
    if (!mine) {
      cleanup();
      return;
    }
    t0 = NowNs();
    const std::shared_ptr<const eng::VenueBundle> loaded =
        mine->Acquire(kVenueId);
    t1 = NowNs();
    tracer.Add(span::kLoad, 0, t0, t1);
    layers->load_ms = MicrosBetween(t0, t1) / 1000.0;
    if (loaded == nullptr) report->Fail("the snapshot does not load back");
  }

  Fleet fleet;
  std::vector<std::string> endpoints;
  for (auto& shard : fleet.shards) {
    std::optional<eng::VenueRegistry> r = open();
    if (!r) {
      cleanup();
      return;
    }
    net::ShardServerOptions options;
    options.service.num_threads = 1;
    shard = std::make_unique<net::ShardServer>(std::move(*r), options);
    if (!shard->Start().ok()) {
      report->Fail("shard start failed");
      cleanup();
      return;
    }
    endpoints.push_back("127.0.0.1:" + std::to_string(shard->port()));
  }
  fleet.router = std::make_unique<net::Router>(
      endpoints, std::vector<std::string>{kVenueId}, net::RouterOptions{});
  Connection routed, direct;
  const int64_t deadline = NowNs() + 10'000'000'000;
  bool ready = fleet.router->Start().ok();
  while (ready && fleet.router->healthy_shards() < 2) {
    ready = NowNs() < deadline;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t owner = fleet.router->ShardForVenue(kVenueId);
  if (!ready || !routed.Open(fleet.router->port()) ||
      !direct.Open(fleet.shards[owner]->port())) {
    report->Fail("the router or a shard did not come up");
    cleanup();
    return;
  }

  std::vector<double> enc, dec, queue, exec, shard_hop, router_hop, rtt;
  std::vector<double> request_bytes, response_bytes;
  for (size_t i = 0; i < distances.size() && i < kSerialCalls + 1; ++i) {
    net::WireRequest w;
    w.venue_id = kVenueId;
    w.query = distances[i].query;
    RoundTrip r, d;
    const bool router_first = i % 2 == 0;
    bool ok = true;
    if (router_first) ok = Call(&routed, w, &r);
    ok = ok && Call(&direct, w, &d);
    if (!router_first) ok = ok && Call(&routed, w, &r);
    // Over the wire, from the loaded snapshot, the answer must be the
    // in-process one bit for bit.
    if (!ok || r.response.result.distance != distances[i].result.distance ||
        d.response.result.distance != distances[i].result.distance) {
      report->Fail("serial wire round trip failed or disagreed with the "
                   "in-process answer");
      break;
    }
    if (i == 0) continue;  // the first call loads the venue on its shard
    const int64_t root = tracer.Add(span::kRequest, i, r.start_ns, r.end_ns);
    tracer.Add(span::kEncode, i, r.start_ns, r.encoded_ns, root);
    tracer.Add(span::kDecode, i, r.decode_ns, r.end_ns, root);
    enc.push_back(r.encode_us);
    dec.push_back(r.decode_us);
    queue.push_back(r.response.queue_micros);
    exec.push_back(r.response.result.latency_micros);
    shard_hop.push_back(d.total_us - d.encode_us - d.decode_us -
                        d.response.queue_micros -
                        d.response.result.latency_micros);
    router_hop.push_back(r.total_us - d.total_us);
    rtt.push_back(r.total_us);
    request_bytes.push_back(static_cast<double>(r.request_bytes));
    response_bytes.push_back(static_cast<double>(r.response_bytes));
  }
  report->CountAttempted(2 * rtt.size());
  layers->encode_us = Median(enc);
  layers->decode_us = Median(dec);
  layers->request_bytes = Mean(request_bytes);
  layers->response_bytes = Mean(response_bytes);
  layers->shard_hop_us = Median(shard_hop);
  layers->router_hop_p50_us = Median(router_hop);
  layers->router_hop_p99_us = Quantile(router_hop, 0.99);
  layers->serial_rtt_us = Median(rtt);
  const double sum = Median(enc) + Median(router_hop) + Median(shard_hop) +
                     Median(queue) + Median(exec) + Median(dec);
  layers->hop_sum_ratio =
      layers->serial_rtt_us > 0 ? sum / layers->serial_rtt_us : 0.0;
  std::fprintf(stderr,
               "wire: serial rtt %.1f us = encode %.1f + router %.1f + shard "
               "%.1f + queue %.1f + exec %.1f + decode %.1f (ratio %.3f)\n",
               layers->serial_rtt_us, Median(enc), Median(router_hop),
               Median(shard_hop), Median(queue), Median(exec), Median(dec),
               layers->hop_sum_ratio);
  cleanup();
}

}  // namespace perfbench
