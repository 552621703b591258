#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "topology/abccc.h"
#include "topology/export.h"
#include "topology/factory.h"

namespace dcn::topo {
namespace {

TEST(FactoryTest, BuildsEveryFamily) {
  for (const std::string& spec : SupportedSpecs()) {
    const std::unique_ptr<Topology> net = MakeTopology(spec);
    ASSERT_NE(net, nullptr) << spec;
    EXPECT_GT(net->ServerCount(), 0u) << spec;
  }
}

TEST(FactoryTest, ParametersReachTheTopology) {
  const std::unique_ptr<Topology> net = MakeTopology("abccc:n=5,k=2,c=3");
  EXPECT_EQ(net->Describe(), "ABCCC(n=5,k=2,c=3)");
  const auto* abccc = dynamic_cast<const Abccc*>(net.get());
  ASSERT_NE(abccc, nullptr);
  EXPECT_EQ(abccc->Params().radices, (std::vector<int>{5, 5, 5}));
  EXPECT_EQ(abccc->Params().c, 3);
}

TEST(FactoryTest, KeyOrderDoesNotMatter) {
  const auto a = MakeTopology("abccc:c=2,n=4,k=1");
  const auto b = MakeTopology("abccc:n=4,k=1,c=2");
  EXPECT_EQ(a->Describe(), b->Describe());
}

TEST(FactoryTest, GabcccSpecParsesDottedRadices) {
  const auto net = MakeTopology("gabccc:radices=4.3.2,c=2");
  // Dotted spec is big-endian a_k..a_0; Describe prints the same order.
  EXPECT_EQ(net->Describe(), "GeneralABCCC(radices=[4,3,2],c=2)");
  EXPECT_EQ(net->ServerCount(), 24u * 3u);
  EXPECT_THROW(MakeTopology("gabccc:radices=4.x.2,c=2"), dcn::InvalidArgument);
  EXPECT_THROW(MakeTopology("gabccc:radices=4.1,c=2"), dcn::InvalidArgument);
  EXPECT_THROW(MakeTopology("gabccc:c=2"), dcn::InvalidArgument);
}

TEST(FactoryTest, BcccSpecYieldsBcccName) {
  EXPECT_EQ(MakeTopology("bccc:n=4,k=1")->Name(), "BCCC");
  EXPECT_EQ(MakeTopology("fattree:k=4")->Name(), "FatTree");
}

TEST(FactoryTest, ErrorsNameTheProblem) {
  try {
    MakeTopology("torus:n=4");
    FAIL() << "expected InvalidArgument";
  } catch (const dcn::InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("unknown family"), std::string::npos);
  }
  try {
    MakeTopology("abccc:n=4,k=1");
    FAIL() << "expected InvalidArgument";
  } catch (const dcn::InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("missing required key 'c'"),
              std::string::npos);
  }
  try {
    MakeTopology("bcube:n=4,k=1,c=2");
    FAIL() << "expected InvalidArgument";
  } catch (const dcn::InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("unknown key 'c'"), std::string::npos);
  }
  EXPECT_THROW(MakeTopology("no-colon"), dcn::InvalidArgument);
  EXPECT_THROW(MakeTopology("abccc:n=x"), dcn::InvalidArgument);
  EXPECT_THROW(MakeTopology("abccc:n"), dcn::InvalidArgument);
  // Invalid parameter values propagate the topology's own validation.
  EXPECT_THROW(MakeTopology("abccc:n=1,k=1,c=2"), dcn::InvalidArgument);
  EXPECT_THROW(MakeTopology("fattree:k=3"), dcn::InvalidArgument);
}

TEST(FactoryTest, ValuesMustBeWholeIntegers) {
  // Each value is parsed whole: trailing garbage, stray spaces and empty
  // values are rejected with the spec and the key in the message.
  for (const auto& [spec, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"abccc:n=4x,k=2,c=2", "'n'"},
           {"abccc:n=4,k=,c=2", "'k'"},
           {"bcube:n=4 ,k=1", "'n'"},
           {"bccc:n=+4,k=1", "'n'"},
           {"gabccc:radices=4.4x.2,c=2", "'radices'"},
           {"gabccc:radices=4..2,c=2", "'radices'"}}) {
    try {
      MakeTopology(spec);
      ADD_FAILURE() << "expected InvalidArgument for " << spec;
    } catch (const dcn::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + spec + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
}

TEST(FactoryTest, DuplicateKeysAreRejected) {
  try {
    MakeTopology("abccc:n=4,k=2,c=2,c=3");
    FAIL() << "expected InvalidArgument";
  } catch (const dcn::InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("duplicate key 'c'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("'abccc:n=4,k=2,c=2,c=3'"),
              std::string::npos);
  }
}

TEST(ExportTest, DotContainsAllNodesAndEdges) {
  const Abccc net{AbcccParams{2, 0, 2}};  // 2 servers, 1 switch, 2 links
  const std::string dot = ToDotString(net);
  EXPECT_NE(dot.find("graph \"ABCCC(n=2,k=0,c=2)\""), std::string::npos);
  EXPECT_NE(dot.find("n0 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("n2 [shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n2"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
  // Labels carry addresses.
  EXPECT_NE(dot.find("label=\"<0;0>\""), std::string::npos);
}

TEST(ExportTest, FailuresRenderedDashedRed) {
  const Abccc net{AbcccParams{2, 0, 2}};
  graph::FailureSet failures{net.Network()};
  failures.KillNode(0);
  failures.KillEdge(1);
  ExportOptions options;
  options.failures = &failures;
  const std::string dot = ToDotString(net, options);
  EXPECT_NE(dot.find("style=dashed, color=red];"), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed, color=red];"), std::string::npos);
}

TEST(ExportTest, LabelsCanBeDisabled) {
  const Abccc net{AbcccParams{2, 0, 2}};
  ExportOptions options;
  options.labels = false;
  const std::string dot = ToDotString(net, options);
  EXPECT_EQ(dot.find("label="), std::string::npos);
}

TEST(ExportTest, CsvListsEveryLinkWithLiveness) {
  const Abccc net{AbcccParams{2, 0, 2}};
  graph::FailureSet failures{net.Network()};
  failures.KillEdge(0);
  ExportOptions options;
  options.failures = &failures;
  std::ostringstream out;
  WriteEdgeCsv(out, net, options);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("edge_id,node_u,label_u,node_v,label_v,alive"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,<0;0>,2,S0(*),0"), std::string::npos);
  EXPECT_NE(csv.find("1,1,<1;0>,2,S0(*),1"), std::string::npos);
}

}  // namespace
}  // namespace dcn::topo
