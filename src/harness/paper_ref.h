// The paper's published values, each kept once, keyed by (table, row,
// column).  bench_paper prints them beside the measured cells and scores
// every one in bench/out/paper.json.
//
// Rows of per-stack tables carry the stack ("tcpip/STD", "rpc/ALL"), so a
// value never shows under the other stack's table.  Derived figures
// (Table 4/5 D%, Table 9's outlined share) are computed from these.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace l96::harness::paper {

struct Ref {
  int table;
  std::string_view row;
  std::string_view column;
  double value;
};

inline constexpr Ref kRefs[] = {
    // Table 1: instructions saved per roundtrip by each Section-2 change;
    // the row is the StackConfig toggle that turns it off.
    {1, "tcb_word_fields", "saved", 324},
    {1, "msg_refresh_shortcut", "saved", 208},
    {1, "usc_sparse_descriptors", "saved", 171},
    {1, "inline_map_cache_test", "saved", 120},
    {1, "careful_inlining", "saved", 119},
    {1, "avoid_int_division", "saved", 90},
    {1, "minor_opts", "saved", 39},
    {1, "total", "saved", 1071},
    // Table 2: the original and the improved x-kernel TCP/IP.
    {2, "latency_us", "Original", 377.7},
    {2, "latency_us", "Improved", 351.0},
    {2, "instructions", "Original", 5821},
    {2, "instructions", "Improved", 4750},
    {2, "cycles", "Original", 18941}, {2, "cycles", "Improved", 15688},
    {2, "CPI", "Original", 3.26}, {2, "CPI", "Improved", 3.30},
    // Table 3: instructions per task on the 80386 [CJRS89] and DEC Unix
    // v3.2c, plus Section 5's CPI context on the same task boundaries.
    {3, "ip->tcp", "80386", 262}, {3, "ip->tcp", "80386 ipintr", 57},
    {3, "ip->tcp", "DEC Unix", 437}, {3, "tcp->socket", "80386", 276},
    {3, "tcp->socket", "DEC Unix", 1004}, {3, "total", "DEC Unix", 1441},
    {3, "mCPI", "DEC Unix", 2.3}, {3, "CPI", "DEC Unix", 4.26},
    {3, "CPI", "x-kernel", 3.3},
    // Table 4: end-to-end roundtrip latency Te [us].
    {4, "tcpip/BAD", "Te", 498.8}, {4, "tcpip/STD", "Te", 351.0},
    {4, "tcpip/OUT", "Te", 336.1}, {4, "tcpip/CLO", "Te", 325.5},
    {4, "tcpip/PIN", "Te", 317.1}, {4, "tcpip/ALL", "Te", 310.8},
    {4, "rpc/BAD", "Te", 457.1}, {4, "rpc/STD", "Te", 399.2},
    {4, "rpc/OUT", "Te", 394.6}, {4, "rpc/CLO", "Te", 383.1},
    {4, "rpc/PIN", "Te", 367.3}, {4, "rpc/ALL", "Te", 365.5},
    // Table 5: Te minus the controller overhead, Te' [us].
    {5, "tcpip/BAD", "Te'", 288.8}, {5, "tcpip/STD", "Te'", 141.0},
    {5, "tcpip/OUT", "Te'", 126.1}, {5, "tcpip/CLO", "Te'", 115.5},
    {5, "tcpip/PIN", "Te'", 107.1}, {5, "tcpip/ALL", "Te'", 100.8},
    {5, "rpc/BAD", "Te'", 247.1}, {5, "rpc/STD", "Te'", 189.2},
    {5, "rpc/OUT", "Te'", 184.6}, {5, "rpc/CLO", "Te'", 173.1},
    {5, "rpc/PIN", "Te'", 157.3}, {5, "rpc/ALL", "Te'", 155.5},
    // Table 6: cold-cache (Miss, Acc, Repl), reported for TCP/IP only.
    {6, "tcpip/STD", "i-Miss", 586}, {6, "tcpip/STD", "i-Acc", 4750},
    {6, "tcpip/STD", "i-Repl", 72}, {6, "tcpip/STD", "d-Miss", 492},
    {6, "tcpip/STD", "d-Acc", 1845}, {6, "tcpip/STD", "d-Repl", 56},
    {6, "tcpip/STD", "b-Miss", 800}, {6, "tcpip/STD", "b-Acc", 1286},
    {6, "tcpip/STD", "b-Repl", 0}, {6, "tcpip/PIN", "i-Repl", 66},
    // Table 7: mCPI, its BAD/ALL ratio, and outlining's iCPI gain.
    {7, "rpc/ALL", "mCPI", 0.81}, {7, "tcpip/BAD/ALL", "mCPI", 3.9},
    {7, "rpc/BAD/ALL", "mCPI", 5.8}, {7, "tcpip/STD-OUT", "iCPI", 0.1},
    // Table 8: share of the b-cache access reduction due to the i-cache.
    {8, "tcpip/BAD->CLO", "I%", 97}, {8, "tcpip/STD->OUT", "I%", 114},
    {8, "tcpip/OUT->CLO", "I%", 91}, {8, "tcpip/OUT->PIN", "I%", 70},
    {8, "tcpip/PIN->ALL", "I%", 93}, {8, "rpc/BAD->CLO", "I%", 99},
    {8, "rpc/STD->OUT", "I%", 71}, {8, "rpc/OUT->CLO", "I%", 94},
    {8, "rpc/OUT->PIN", "I%", 67}, {8, "rpc/PIN->ALL", "I%", 95},
    // Table 9: without (STD) and with (OUT) outlining.
    {9, "tcpip/STD", "unused%", 21}, {9, "tcpip/OUT", "unused%", 15},
    {9, "tcpip/STD", "size", 5841}, {9, "tcpip/OUT", "size", 3856},
    {9, "rpc/STD", "unused%", 22}, {9, "rpc/OUT", "unused%", 16},
    {9, "rpc/STD", "size", 5085}, {9, "rpc/OUT", "size", 3641},
};

/// The entry at (table, row, column), or nullptr when the paper has none.
inline const Ref* find(int table, std::string_view row,
                       std::string_view column) {
  for (const Ref& r : kRefs) {
    if (r.table == table && r.row == row && r.column == column) return &r;
  }
  return nullptr;
}

/// The paper's value at (table, row, column); throws std::out_of_range
/// naming the key when the paper has none.
inline double value(int table, std::string_view row,
                    std::string_view column) {
  if (const Ref* r = find(table, row, column)) return r->value;
  throw std::out_of_range("no paper value for table " +
                          std::to_string(table) + " " + std::string(row) +
                          " " + std::string(column));
}

}  // namespace l96::harness::paper
