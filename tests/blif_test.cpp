#include "netlist/blif.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

TEST(BlifReader, ParsesCombinationalNames) {
  const Circuit c = read_blif_string(R"(.model and2
.inputs a b
.outputs o
.names a b o
11 1
.end
)");
  EXPECT_EQ(c.num_pis(), 2);
  EXPECT_EQ(c.num_pos(), 1);
  EXPECT_EQ(c.num_gates(), 1);
  EXPECT_EQ(c.num_ffs(), 0);
  const NodeId g = c.find("o");
  ASSERT_NE(g, kNoNode);
  EXPECT_TRUE(c.function(g).bit(0b11));
  EXPECT_FALSE(c.function(g).bit(0b01));
}

TEST(BlifReader, DontCaresAndZeroPolarity) {
  // o = NOT(a AND b) via 0-polarity cover.
  const Circuit c = read_blif_string(R"(.model nand
.inputs a b
.outputs o
.names a b o
11 0
.end
)");
  const NodeId g = c.find("o");
  EXPECT_FALSE(c.function(g).bit(0b11));
  EXPECT_TRUE(c.function(g).bit(0b10));

  const Circuit d = read_blif_string(R"(.model dc
.inputs a b c
.outputs o
.names a b c o
1-1 1
.end
)");
  const NodeId h = d.find("o");
  EXPECT_TRUE(d.function(h).bit(0b101));
  EXPECT_TRUE(d.function(h).bit(0b111));
  EXPECT_FALSE(d.function(h).bit(0b001));
}

TEST(BlifReader, LatchChainsBecomeEdgeWeights) {
  const Circuit c = read_blif_string(R"(.model chain
.inputs a
.outputs o
.latch g q1 0
.latch q1 q2 0
.names a g
1 1
.names q2 o
1 1
.end
)");
  // One consumer of the two-deep chain: 2 FF bits (raw == shared here).
  EXPECT_EQ(c.num_ffs(), 2);
  EXPECT_EQ(c.num_ffs_shared(), 2);
  const NodeId o = c.find("o");
  const auto& e = c.edge(c.fanin_edges(o)[0]);
  EXPECT_EQ(e.from, c.find("g"));
  EXPECT_EQ(e.weight, 2);
}

TEST(BlifReader, SequentialLoopThroughLatch) {
  // Toggle flip-flop: n = NOT q, q = latch(n) — a cycle, legal because the
  // latch breaks it.
  const Circuit c = read_blif_string(R"(.model toggle
.inputs en
.outputs q
.latch n q 0
.names en q n
10 1
01 1
.end
)");
  // q feeds both the gate and the PO: 2 raw FF bits on edges, 1 shared.
  EXPECT_EQ(c.num_ffs(), 2);
  EXPECT_EQ(c.num_ffs_shared(), 1);
  EXPECT_EQ(compute_stats(c).sccs_with_cycle, 1);
}

TEST(BlifReader, ConstantFunctions) {
  const Circuit c = read_blif_string(R"(.model consts
.inputs a
.outputs o1 o0
.names k1
1
.names k0
.names a k1 o1
11 1
.names a k0 o0
10 1
.end
)");
  const NodeId k1 = c.find("k1");
  const NodeId k0 = c.find("k0");
  EXPECT_TRUE(c.function(k1).bit(0));
  EXPECT_FALSE(c.function(k0).bit(0));
}

TEST(BlifReader, RejectsMalformedInput) {
  EXPECT_THROW((void)read_blif_string(".model x\n.inputs a\n.outputs o\n.end\n"), Error);
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.names a o
11 1
.end
)"),
               Error);  // cover row wider than the input list
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.names a o
1 1
.names a o
0 1
.end
)"),
               Error);  // o driven twice
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.latch o o 0
.end
)"),
               Error);  // latch loop without combinational driver
}

std::string toggle_with_latch(const std::string& latch_line) {
  return ".model toggle\n.inputs en\n.outputs q\n" + latch_line +
         "\n.names en q n\n10 1\n01 1\n.end\n";
}

TEST(BlifReader, LatchInitialValuesZeroDontCareAndUnknownReadAsZero) {
  const Circuit plain = read_blif_string(toggle_with_latch(".latch n q"));
  for (const char* init : {"0", "2", "3"}) {
    const Circuit c = read_blif_string(toggle_with_latch(std::string(".latch n q ") + init));
    EXPECT_EQ(write_blif_string(c), write_blif_string(plain)) << "init " << init;
  }
}

TEST(BlifReader, RejectsLatchInitialValueOne) {
  // Reading init 1 as 0 would make every downstream answer (and the audit)
  // about a different circuit.
  try {
    (void)read_blif_string(toggle_with_latch(".latch n q 1"), "t.blif");
    FAIL() << "init 1 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("t.blif:4:"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("initial value 1"), std::string::npos) << e.what();
  }
}

TEST(BlifReader, RejectsLatchTypeAndControl) {
  for (const char* line : {".latch n q re clk", ".latch n q re clk 0", ".latch n q fe clk 1",
                           ".latch n q re", ".latch n q 4", ".latch n q 0 0"}) {
    try {
      (void)read_blif_string(toggle_with_latch(line), "t.blif");
      FAIL() << "accepted: " << line;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("t.blif:4:"), std::string::npos) << e.what();
    }
  }
}

TEST(BlifReader, CommentsAndContinuations) {
  const Circuit c = read_blif_string(R"(.model cc  # trailing comment
# full-line comment
.inputs a \
b
.outputs o
.names a b o
11 1
.end
)");
  EXPECT_EQ(c.num_pis(), 2);
}

TEST(BlifRoundTrip, SamplesSimulateIdentically) {
  for (const std::string& text : {counter3_blif(), pattern_fsm_blif()}) {
    const Circuit original = read_blif_string(text);
    const Circuit reparsed = read_blif_string(write_blif_string(original));
    Rng rng(47);
    const auto stimulus = random_stimulus(rng, original.num_pis(), 128);
    EXPECT_EQ(simulate_sequence(original, stimulus), simulate_sequence(reparsed, stimulus));
  }
}

TEST(BlifRoundTrip, GeneratedCircuitsSurviveExactly) {
  for (const auto& spec : tiny_suite()) {
    const Circuit original = generate_fsm_circuit(spec);
    const Circuit reparsed = read_blif_string(write_blif_string(original));
    EXPECT_EQ(reparsed.num_pis(), original.num_pis()) << spec.name;
    EXPECT_EQ(reparsed.num_pos(), original.num_pos()) << spec.name;
    EXPECT_EQ(reparsed.num_ffs(), original.num_ffs()) << spec.name;
    Rng rng(spec.seed);
    const auto stimulus = random_stimulus(rng, original.num_pis(), 96);
    EXPECT_EQ(simulate_sequence(original, stimulus), simulate_sequence(reparsed, stimulus))
        << spec.name;
  }
}

TEST(BlifWriter, PoNamePrefixIsStripped) {
  const Circuit c = read_blif_string(counter3_blif());
  const std::string text = write_blif_string(c);
  EXPECT_EQ(text.find("$po:"), std::string::npos);
  EXPECT_NE(text.find(".outputs q0 q1 q2"), std::string::npos);
}

}  // namespace
}  // namespace turbosyn
