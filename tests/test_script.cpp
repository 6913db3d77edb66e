// Scenario-script DSL: parser (happy path + every error branch) and runner
// (each protocol, satisfied and violated expectations).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <variant>

#include "harness/script.hpp"

namespace idonly {
namespace {

ScenarioScript parse_ok(const std::string& text) {
  const auto result = parse_script(text);
  const auto* script = std::get_if<ScenarioScript>(&result);
  EXPECT_NE(script, nullptr) << (std::holds_alternative<ParseError>(result)
                                     ? std::get<ParseError>(result).message
                                     : "");
  return script != nullptr ? *script : ScenarioScript{};
}

ParseError parse_fail(const std::string& text) {
  const auto result = parse_script(text);
  const auto* error = std::get_if<ParseError>(&result);
  EXPECT_NE(error, nullptr) << "expected a parse error";
  return error != nullptr ? *error : ParseError{};
}

TEST(ScriptParser, FullScript) {
  const auto script = parse_ok(R"(
# comment line
protocol consensus
nodes 10
inputs 0,1,1
byzantine 3 twofaced,noise
seed 99          # trailing comment
max-rounds 250
crash-round 6
expect termination
expect agreement
)");
  EXPECT_EQ(script.protocol, ScriptProtocol::kConsensus);
  EXPECT_EQ(script.config.n_correct, 10u);
  EXPECT_EQ(script.config.n_byzantine, 3u);
  ASSERT_EQ(script.config.adversary_mix.size(), 2u);
  EXPECT_EQ(script.config.adversary_mix[0], AdversaryKind::kTwoFaced);
  EXPECT_EQ(script.config.adversary_mix[1], AdversaryKind::kNoise);
  EXPECT_EQ(script.config.seed, 99u);
  EXPECT_EQ(script.config.crash_round, 6);
  EXPECT_EQ(script.max_rounds, 250);
  ASSERT_EQ(script.inputs.size(), 3u);
  EXPECT_DOUBLE_EQ(script.inputs[2], 1.0);
  ASSERT_EQ(script.expectations.size(), 2u);
}

TEST(ScriptParser, Defaults) {
  const auto script = parse_ok("protocol rotor\n");
  EXPECT_EQ(script.protocol, ScriptProtocol::kRotor);
  EXPECT_EQ(script.config.n_byzantine, 0u);
  EXPECT_EQ(script.config.adversary, AdversaryKind::kNone);
}

TEST(ScriptParser, ErrorsCarryLineNumbers) {
  EXPECT_EQ(parse_fail("protocol consensus\nbogus keyword\n").line, 2);
  EXPECT_EQ(parse_fail("protocol nope\n").line, 1);
  EXPECT_EQ(parse_fail("nodes -3\n").line, 1);
  EXPECT_EQ(parse_fail("nodes 0\n").line, 1);
  EXPECT_EQ(parse_fail("inputs a,b\n").line, 1);
  EXPECT_EQ(parse_fail("byzantine 2 martian\n").line, 1);
  EXPECT_EQ(parse_fail("expect luck\n").line, 1);
  EXPECT_EQ(parse_fail("max-rounds 0\n").line, 1);
  EXPECT_EQ(parse_fail("nodes 7 extra\n").line, 1);
}

TEST(ScriptParser, ByzantineCountHasTheNodesCeiling) {
  // istream wraps "-3" into a huge unsigned count; the ceiling catches it
  // before anything sizes a vector by it.
  for (const char* count : {"-3", "10001", "18446744073709551615"}) {
    const auto error =
        parse_fail(std::string("protocol consensus\nbyzantine ") + count + " silent\n");
    EXPECT_EQ(error.line, 2) << count;
    EXPECT_NE(error.message.find("at most 10000"), std::string::npos) << error.message;
  }
  EXPECT_EQ(parse_ok("byzantine 10000 silent\n").config.n_byzantine, 10'000u);
}

TEST(ScriptParser, NodeIndicesAreCheckedAgainstTheScriptSizes) {
  // Chaos indices range over nodes + byzantine, leave indices over nodes.
  // The check runs after the last line, so the error names the line of the
  // bad index even when the sizes come later.
  EXPECT_EQ(parse_fail("protocol consensus\nnodes 4\nchaos 1-2 crash=99:1-2\n").line, 3);
  EXPECT_EQ(parse_fail("protocol consensus\nnodes 4\nbyzantine 1 silent\n"
                       "chaos 1-2 crash=5:1-2\n")
                .line,
            4);
  EXPECT_EQ(parse_fail("protocol consensus\nchaos 1-2 partition=2-5\nnodes 4\n"
                       "byzantine 1 silent\n")
                .line,
            2);
  const auto leave = parse_fail("protocol totalorder\nnodes 4\nchurn 3 join=2\n"
                                "churn 2 leave=9\n");
  EXPECT_EQ(leave.line, 4);
  EXPECT_NE(leave.message.find("4 correct nodes"), std::string::npos) << leave.message;
  // A leave may not name a Byzantine index.
  EXPECT_EQ(parse_fail("protocol consensus\nnodes 4\nbyzantine 1 silent\nchurn 2 leave=4\n")
                .line,
            4);

  // The last index of each range is fine.
  const auto script = parse_ok(
      "protocol consensus\nchaos 1-2 partition=3-4 crash=4:1-2\nchurn 2 leave=3\n"
      "nodes 4\nbyzantine 1 silent\n");
  ASSERT_EQ(script.chaos_phases.size(), 1u);
  EXPECT_EQ(script.chaos_phases[0].crashes[0].index, 4u);
  EXPECT_EQ(script.churn_events[0].leave_index, 3u);
}

TEST(ScriptParser, NonFiniteInputsRejected) {
  // NaN would break Value's order inside quorum tallies; ±inf has no place
  // in an agreement domain either. Each is a line-numbered parse error.
  for (const char* item : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
    const auto error =
        parse_fail(std::string("protocol consensus\ninputs 0,") + item + ",1\n");
    EXPECT_EQ(error.line, 2) << item;
    EXPECT_NE(error.message.find("non-finite"), std::string::npos) << error.message;
  }
  EXPECT_EQ(parse_ok("inputs -0.0,1e308,-2.5\n").inputs.size(), 3u);
}

TEST(ScriptRunner, ConsensusExpectationsHold) {
  auto script = parse_ok(
      "protocol consensus\nnodes 7\ninputs 0,1\nbyzantine 2 votesplit\nseed 3\n"
      "expect termination\nexpect agreement\nexpect validity\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
  EXPECT_EQ(run.outcomes.size(), 3u);
}

TEST(ScriptRunner, KingProtocol) {
  auto script = parse_ok(
      "protocol king\nnodes 7\ninputs 0,1\nbyzantine 2 silent\nseed 4\nmax-rounds 2000\n"
      "expect termination\nexpect agreement\nexpect validity\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
}

TEST(ScriptRunner, RbWithByzantineSourceAgreementOnly) {
  auto script = parse_ok(
      "protocol rb\nnodes 7\ninputs 5\nbyzantine 2 twofaced\nbyz-source\nseed 6\n"
      "expect agreement\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
}

TEST(ScriptRunner, ApproxContraction) {
  auto script = parse_ok(
      "protocol approx\nnodes 10\ninputs 0,10,20,30\nbyzantine 3 extreme\n"
      "iterations 6\nseed 2\nexpect within-range\nexpect contraction\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
}

TEST(ScriptRunner, RotorGoodRound) {
  auto script = parse_ok(
      "protocol rotor\nnodes 8\nbyzantine 2 rotorstuffer\nseed 9\n"
      "expect termination\nexpect good-round\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
}

TEST(ScriptRunner, RenamingAgreement) {
  auto script = parse_ok(
      "protocol renaming\nnodes 7\nbyzantine 2 noise\nseed 8\n"
      "expect termination\nexpect agreement\n");
  const auto run = run_script(script);
  EXPECT_TRUE(run.all_satisfied) << run.summary;
}

TEST(ScriptRunner, ViolatedExpectationIsReported) {
  // n = 3f: the echo-chamber attack defeats consensus — the runner must say
  // so rather than succeed vacuously.
  auto script = parse_ok(
      "protocol consensus\nnodes 4\ninputs 0,1\nbyzantine 2 echochamber\nseed 1\n"
      "max-rounds 150\nexpect agreement\n");
  const auto run = run_script(script);
  EXPECT_FALSE(run.all_satisfied);
  EXPECT_NE(run.summary.find("FAILED"), std::string::npos);
}

std::string read_scenario(const std::string& name) {
  std::ifstream in(std::string(IDONLY_SCENARIO_DIR) + "/" + name + ".scn");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ScriptRunner, ShippedRbApproxRotorRenamingScenariosKeepTheirRunsAndRecord) {
  // Pinned at the values these scenarios gave before they ran the shared
  // round loop; the loop also gives each a flight recording and metrics.
  struct Pin {
    const char* name;
    Round rounds;
    std::uint64_t messages;
  };
  for (const Pin& pin : {Pin{"rb_forged_echo", 60, 1269}, Pin{"rb_imbs_forged_echo", 60, 1846},
                         Pin{"approx_extreme", 9, 1280}, Pin{"rotor_mixed_adversaries", 14, 3481},
                         Pin{"renaming_crash", 6, 4030}}) {
    const auto script = parse_ok(read_scenario(pin.name));
    ScriptOptions options;
    options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    const auto run = run_script(script, options);
    EXPECT_EQ(run.rounds, pin.rounds) << pin.name;
    EXPECT_EQ(run.messages, pin.messages) << pin.name;
    EXPECT_TRUE(run.all_satisfied) << run.summary;
    EXPECT_EQ(run.outcomes.size(), 2u) << pin.name;
    EXPECT_GT(options.recorder->size(), 0u) << pin.name;
    EXPECT_FALSE(run.metrics_exposition.empty()) << pin.name;
  }
}

TEST(ScriptRunner, SummaryMentionsShape) {
  auto script = parse_ok("protocol consensus\nnodes 4\ninputs 1\nseed 5\nexpect agreement\n");
  const auto run = run_script(script);
  EXPECT_NE(run.summary.find("consensus"), std::string::npos);
  EXPECT_NE(run.summary.find("n=4+0"), std::string::npos);
}

}  // namespace
}  // namespace idonly
