// Chaos soak CLI: run one seeded soak and print its deterministic digest.
//
//   soak [--chaos] [--workers N] [--json] [--out FILE]
//        [tcp|rpc] [roundtrips] [seed] [rate%] [msg_bytes]
//
// `rate%` is the combined drop+corrupt+duplicate percentage, split evenly
// in the ratio 2:2:1 (e.g. 5 -> 2% drop, 2% corrupt, 1% duplicate) on both
// directions.  `--chaos` threads the mid-soak failure domains into the
// run: a 100 ms link blackout at the 1/3 mark and (TCP only) a 200 ms
// server crash/reboot at the 2/3 mark.  --json emits the l96.soak.v1
// section to stdout instead of the summary line; --out also writes it to
// FILE.  Exit status is 0 iff the soak was clean.
#include <cstdio>
#include <iostream>
#include <string>

#include "harness/argparse.h"
#include "harness/runner.h"

int main(int argc, char** argv) {
  using namespace l96;

  harness::SoakSpec spec;
  spec.kind = net::StackKind::kTcpIp;
  spec.roundtrips = 5000;
  double rate_pct = 5.0;
  spec.msg_bytes = 32;

  harness::ArgParser parser(
      "soak", "run one seeded fault-injection soak and print its "
              "deterministic digest");
  harness::CommonCliArgs common;
  common.add_to(parser);
  parser.add_flag("chaos", "thread mid-soak blackout/crash domains into "
                           "the run", &spec.chaos);
  parser.add_positional("stack", "tcp|rpc (default tcp)",
                        [&](const std::string& v) {
                          if (v == "rpc") {
                            spec.kind = net::StackKind::kRpc;
                            return true;
                          }
                          return v == "tcp";
                        });
  parser.add_positional("roundtrips", "request/response count (default 5000)",
                        &spec.roundtrips);
  parser.add_positional("seed", "fault-plan seed (default 1)",
                        &spec.plan.seed);
  parser.add_positional("rate%", "combined drop+corrupt+duplicate %, "
                                 "split 2:2:1 (default 5)",
                        &rate_pct);
  parser.add_positional("msg_bytes", "request payload bytes (default 32)",
                        &spec.msg_bytes);
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;

  const double unit = rate_pct / 100.0 / 5.0;
  for (int p = 0; p < 2; ++p) {
    spec.plan.rates[p].drop = 2 * unit;
    spec.plan.rates[p].corrupt = 2 * unit;
    spec.plan.rates[p].duplicate = unit;
  }
  // Let the handshake / first exchange settle before the chaos starts.
  spec.plan.start_after_frames = 4;

  harness::SoakRunSpec rs;
  rs.common.workers = common.workers;
  rs.common.out_path = common.out;
  rs.rows = {spec};
  harness::Outcome o;
  try {
    o = harness::run(rs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak: %s\n", e.what());
    return 1;
  }
  const harness::SoakReport& rep = o.soak.front();
  if (common.json) {
    o.section.dump(std::cout);
    std::cout << "\n";
    return rep.ok() ? 0 : 1;
  }
  std::printf("%s %s\n",
              spec.kind == net::StackKind::kRpc ? "rpc" : "tcp",
              rep.summary().c_str());
  return rep.ok() ? 0 : 1;
}
