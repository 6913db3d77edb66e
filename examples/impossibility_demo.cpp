// Why the paper assumes synchrony: the partition argument, executed.
// Two groups that don't know n or f, cross traffic cut for longer than their
// patience — each is indistinguishable from a world where the other doesn't
// exist, so they decide alone. Then the same protocol with a decision round
// that outlasts the partition: agreement. The knife edge in between is swept.
//
//   $ ./impossibility_demo
#include <cstdio>

#include "impossibility/partition.hpp"

int main() {
  using namespace idonly;

  std::printf("the partition construction (4 nodes input 1 | 4 nodes input 0)\n\n");

  PartitionConfig config;
  config.n_a = 4;
  config.n_b = 4;
  config.decide_round = 10;

  std::printf("%-18s %-12s %-14s\n", "partition rounds", "decided", "outcome");
  for (Round cut : {2, 8, 9, 12, 100000}) {
    config.partition_rounds = cut;
    const auto result = run_partition_execution(config);
    std::printf("%-18lld %-12s %-14s\n", static_cast<long long>(cut),
                result.all_decided ? "all" : "some",
                result.disagreement ? "DISAGREEMENT" : "agreement");
  }

  std::printf(
      "\nsemi-synchronous sweep: partition bound Δ unknown to nodes, decision round T = 10\n\n");
  std::printf("%-10s %-20s\n", "Δ/T", "disagreement rate");
  for (Round delta : {5, 9, 11, 15, 40, 200}) {
    const double rate = semi_sync_disagreement_rate(4, 4, delta, 10, 60, 7);
    std::printf("%-10.1f %.2f\n", static_cast<double>(delta) / 10.0, rate);
  }

  std::printf(
      "\nno finite decision round survives an unknown delay bound — which is the\n"
      "paper's point: agreement without knowing n and f NEEDS the synchronous\n"
      "assumption (and systems like Nakamoto's blockchain implicitly make it).\n");
  return 0;
}
