// experiment_cli — run any library experiment from the command line and emit
// CSV, for scripting sweeps beyond the fixed benchmark grids.
//
//   experiment_cli consensus   --n-correct 10 --n-byz 3 --adversary twofaced --seeds 20
//   experiment_cli rb          --n-correct 7  --n-byz 2 --adversary forgedecho --byz-source
//   experiment_cli approx      --n-correct 13 --n-byz 4 --iterations 12
//   experiment_cli rotor       --n-correct 25 --n-byz 8 --adversary rotorstuffer
//   experiment_cli impossibility --delta 40 --timeout 10 --trials 200
//
// Every row is one seeded run; aggregate with your favourite tools.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/stats.hpp"
#include "harness/runner.hpp"
#include "impossibility/partition.hpp"

namespace {

using namespace idonly;

/// Ceiling of --delta and --timeout: each trial steps up to --timeout rounds.
constexpr std::uint64_t kMaxRounds = 1'000'000;
/// Ceiling of --n-correct and --n-byz: one simulated process per node.
constexpr std::uint64_t kMaxNodes = 100'000;
/// Ceiling of --seeds, --iterations and --trials: one run (or, for
/// --iterations, one approximate-agreement iteration) each.
constexpr std::uint64_t kMaxRuns = 1'000'000;

struct Args {
  std::string experiment;
  std::size_t n_correct = 7;
  std::size_t n_byz = 2;
  std::string adversary = "silent";
  int seeds = 10;
  int iterations = 8;
  bool byz_source = false;
  bool aggregate = false;  ///< print mean/sd/percentile summaries instead of rows
  Round delta = 40;    ///< partition bound Δ, in rounds
  Round timeout = 10;  ///< decision round T
  int trials = 100;
};

AdversaryKind parse_adversary(const std::string& name) {
  for (AdversaryKind kind : all_adversaries()) {
    if (to_string(kind) == name) return kind;
  }
  if (name == "none") return AdversaryKind::kNone;
  std::fprintf(stderr, "unknown adversary '%s'\n", name.c_str());
  std::exit(2);
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.experiment = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric flag's value must be a whole number in [min, max]; anything
    // else is a usage error (exit 2).
    const auto count = [&](std::uint64_t min, std::uint64_t max) {
      const auto value = cli::parse_flag(flag.c_str(), next(), min, max);
      if (!value.has_value()) std::exit(2);
      return *value;
    };
    if (flag == "--n-correct") args.n_correct = count(1, kMaxNodes);
    else if (flag == "--n-byz") args.n_byz = count(0, kMaxNodes);
    else if (flag == "--adversary") args.adversary = next();
    else if (flag == "--seeds") args.seeds = static_cast<int>(count(1, kMaxRuns));
    else if (flag == "--iterations") args.iterations = static_cast<int>(count(1, kMaxRuns));
    else if (flag == "--byz-source") args.byz_source = true;
    else if (flag == "--aggregate") args.aggregate = true;
    else if (flag == "--delta") args.delta = static_cast<Round>(count(0, kMaxRounds));
    else if (flag == "--timeout") args.timeout = static_cast<Round>(count(1, kMaxRounds));
    else if (flag == "--trials") args.trials = static_cast<int>(count(1, kMaxRuns));
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

ScenarioConfig config_from(const Args& args, std::uint64_t seed) {
  ScenarioConfig config;
  config.n_correct = args.n_correct;
  config.n_byzantine = args.n_byz;
  config.adversary = parse_adversary(args.adversary);
  config.seed = seed;
  return config;
}

int run_consensus_cli(const Args& args) {
  if (args.aggregate) {
    std::vector<double> rounds;
    std::vector<double> messages;
    int correct_runs = 0;
    for (int s = 1; s <= args.seeds; ++s) {
      const auto run = run_consensus(config_from(args, s), {0.0, 1.0, 1.0, 0.0});
      rounds.push_back(static_cast<double>(run.rounds));
      messages.push_back(static_cast<double>(run.messages));
      correct_runs += run.all_decided && run.agreement && run.validity ? 1 : 0;
    }
    std::printf("correct_runs %d/%d\nrounds   %s\nmessages %s\n", correct_runs, args.seeds,
                summarize(rounds).to_string().c_str(),
                summarize(messages).to_string().c_str());
    return correct_runs == args.seeds ? 0 : 1;
  }
  std::printf("seed,decided,agreement,validity,phases,rounds,messages\n");
  for (int s = 1; s <= args.seeds; ++s) {
    const auto run = run_consensus(config_from(args, s), {0.0, 1.0, 1.0, 0.0});
    std::printf("%d,%d,%d,%d,%lld,%lld,%llu\n", s, run.all_decided, run.agreement, run.validity,
                static_cast<long long>(run.max_decision_phase),
                static_cast<long long>(run.rounds),
                static_cast<unsigned long long>(run.messages));
  }
  return 0;
}

int run_rb_cli(const Args& args) {
  std::printf("seed,accepted,agreement,relay_ok,first_accept,last_accept,messages\n");
  for (int s = 1; s <= args.seeds; ++s) {
    const auto run = run_reliable_broadcast(config_from(args, s), 42.0, args.byz_source);
    std::printf("%d,%zu,%d,%d,%lld,%lld,%llu\n", s, run.accepted_count, run.agreement,
                run.relay_ok, static_cast<long long>(run.first_accept_round.value_or(-1)),
                static_cast<long long>(run.last_accept_round.value_or(-1)),
                static_cast<unsigned long long>(run.messages));
  }
  return 0;
}

int run_approx_cli(const Args& args) {
  std::printf("seed,iteration,range\n");
  for (int s = 1; s <= args.seeds; ++s) {
    std::vector<double> inputs;
    for (std::size_t i = 0; i < args.n_correct; ++i) inputs.push_back(static_cast<double>(i));
    const auto run = run_approx_agreement(config_from(args, s), inputs, args.iterations);
    for (std::size_t it = 0; it < run.range_per_iteration.size(); ++it) {
      std::printf("%d,%zu,%.10g\n", s, it + 1, run.range_per_iteration[it]);
    }
  }
  return 0;
}

int run_rotor_cli(const Args& args) {
  std::printf("seed,terminated,termination_round,good_witnessed,first_good,messages\n");
  for (int s = 1; s <= args.seeds; ++s) {
    const auto run = run_rotor(config_from(args, s));
    std::printf("%d,%d,%lld,%d,%lld,%llu\n", s, run.all_terminated,
                static_cast<long long>(run.max_termination_round), run.good_round_witnessed,
                static_cast<long long>(run.first_good_round.value_or(-1)),
                static_cast<unsigned long long>(run.messages));
  }
  return 0;
}

int run_impossibility_cli(const Args& args) {
  std::printf("delta,timeout,trials,disagreement_rate\n");
  const double rate = semi_sync_disagreement_rate(args.n_correct / 2 + 1, args.n_correct / 2,
                                                  args.delta, args.timeout, args.trials, 1);
  std::printf("%lld,%lld,%d,%.4f\n", static_cast<long long>(args.delta),
              static_cast<long long>(args.timeout), args.trials, rate);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: experiment_cli <consensus|rb|approx|rotor|impossibility> [flags]\n"
               "flags: --n-correct N --n-byz F --adversary KIND --seeds K --iterations I\n"
               "       --byz-source --aggregate --delta ROUNDS --timeout ROUNDS --trials T\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.experiment == "consensus") return run_consensus_cli(args);
  if (args.experiment == "rb") return run_rb_cli(args);
  if (args.experiment == "approx") return run_approx_cli(args);
  if (args.experiment == "rotor") return run_rotor_cli(args);
  if (args.experiment == "impossibility") return run_impossibility_cli(args);
  usage();
  return 2;
}
