/**
 * @file
 * Tests for the Graphviz exporter (paper-figure styling).
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "cfg/dot.h"
#include "workload/paper_figures.h"

using namespace balign;

TEST(Dot, ContainsAllNodesAndEdges)
{
    const Program program = figure3Loop();
    const std::string dot = toDot(program.proc(0));
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    for (BlockId id = 0; id < program.proc(0).numBlocks(); ++id) {
        std::string node = "n";
        node += std::to_string(id);
        node += " [";
        EXPECT_NE(dot.find(node), std::string::npos)
            << "node " << id;
    }
    // One arrow per edge.
    std::size_t arrows = 0, pos = 0;
    while ((pos = dot.find("->", pos)) != std::string::npos) {
        ++arrows;
        pos += 2;
    }
    EXPECT_EQ(arrows, program.proc(0).numEdges());
}

TEST(Dot, StylesMatchPaperConventions)
{
    const Program program = figure3Loop();
    const std::string dot = toDot(program.proc(0));
    // Fall-through edges bold, taken edges dashed.
    EXPECT_NE(dot.find("style=bold"), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    // Entry gets a double border.
    EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
    // Return block annotated.
    EXPECT_NE(dot.find("\\nret"), std::string::npos);
}

TEST(Dot, PercentLabelsRespectThreshold)
{
    const Program program = figure3Loop();
    const std::string dot = toDot(program.proc(0));
    // The three hot edges carry 9000 of 27002 transitions each = 33%.
    EXPECT_NE(dot.find("label=\"33\""), std::string::npos);
    // The weight-1 edges are below 1% and stay unlabelled: count EDGE
    // labels (node labels are "[label="; edge labels follow a style).
    std::size_t labels = 0, pos = 0;
    while ((pos = dot.find(", label=", pos)) != std::string::npos) {
        ++labels;
        pos += 8;
    }
    EXPECT_EQ(labels, 3u);
}

TEST(Dot, IndirectEdgesDotted)
{
    Program program("sw");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    b.other(sw, c0, 5);
    const std::string dot = toDot(proc);
    EXPECT_NE(dot.find("style=dotted"), std::string::npos);
    EXPECT_NE(dot.find("\\nijmp"), std::string::npos);
}
