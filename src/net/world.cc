#include "net/world.h"

namespace l96::net {

namespace {
constexpr HostAddress kClientAddr{
    .ip = 0x0A000001,  // 10.0.0.1
    .mac = {0x08, 0x00, 0x2B, 0x00, 0x00, 0x01},
    .boot_id = 0x1001,
};
constexpr HostAddress kServerAddr{
    .ip = 0x0A000002,  // 10.0.0.2
    .mac = {0x08, 0x00, 0x2B, 0x00, 0x00, 0x02},
    .boot_id = 0x2001,
};
}  // namespace

World::World(StackKind kind, const code::StackConfig& client_cfg,
             const code::StackConfig& server_cfg, WireParams wire_params)
    : World(kind, client_cfg, server_cfg, WorldOptions{.wire = wire_params}) {}

World::World(StackKind kind, const code::StackConfig& client_cfg,
             const code::StackConfig& server_cfg, const WorldOptions& options)
    : kind_(kind), wire_(events_, options.wire) {
  client_ = std::make_unique<Host>("client", kind, client_cfg, kClientAddr,
                                   kServerAddr, /*is_client=*/true, events_,
                                   wire_, /*wire_port=*/0,
                                   options.tcp_conn_buckets);
  server_ = std::make_unique<Host>("server", kind, server_cfg, kServerAddr,
                                   kClientAddr, /*is_client=*/false, events_,
                                   wire_, /*wire_port=*/1,
                                   options.tcp_conn_buckets);
  wire_.connect(0, [this](std::span<const std::uint8_t> f) {
    client_->deliver(f);
  });
  wire_.connect(1, [this](std::span<const std::uint8_t> f) {
    server_->deliver(f);
  });
}

void World::start(std::uint64_t target_roundtrips) {
  if (kind_ == StackKind::kTcpIp) {
    server_->tcptest()->serve(kTcpServerPort);
    client_->tcptest()->start(kServerAddr.ip, kTcpClientPort, kTcpServerPort,
                              target_roundtrips);
  } else {
    server_->xrpctest()->serve();
    client_->xrpctest()->run(target_roundtrips);
  }
}

std::uint64_t World::client_roundtrips() const {
  return kind_ == StackKind::kTcpIp ? client_->tcptest()->roundtrips()
                                    : client_->xrpctest()->roundtrips();
}

bool World::run_until_roundtrips(std::uint64_t n, std::uint64_t max_us) {
  return run_until([this, n] { return client_roundtrips() >= n; },
                   max_us == 0 ? n * 100'000 + 10'000'000 : max_us);
}

}  // namespace l96::net
