#include "cfg/dot.h"

#include <sstream>

#include "support/stats.h"
#include "support/table.h"

namespace balign {

namespace {

/// Edges below this percentage of the procedure's transitions get no
/// label (the paper's figures omit those under 1%).
constexpr double kMinLabelPct = 1.0;

}  // namespace

void
writeDot(const Procedure &proc, std::ostream &os)
{
    os << "digraph \"" << proc.name() << "\" {\n";
    os << "  node [shape=box, fontname=\"Helvetica\"];\n";
    for (const auto &block : proc.blocks()) {
        os << "  n" << block.id << " [label=\"" << block.id << " ("
           << block.numInstrs << ")";
        if (block.term == Terminator::Return)
            os << "\\nret";
        else if (block.term == Terminator::IndirectJump)
            os << "\\nijmp";
        os << "\"";
        if (block.id == proc.entry())
            os << ", peripheries=2";
        os << "];\n";
    }
    const double total = static_cast<double>(proc.totalEdgeWeight());
    for (const auto &edge : proc.edges()) {
        os << "  n" << edge.src << " -> n" << edge.dst << " [";
        switch (edge.kind) {
          case EdgeKind::FallThrough:
            os << "style=bold";
            break;
          case EdgeKind::Taken:
            os << "style=dashed";
            break;
          case EdgeKind::Other:
            os << "style=dotted";
            break;
        }
        if (total > 0) {
            const double percent =
                pct(static_cast<double>(edge.weight), total);
            if (percent >= kMinLabelPct)
                os << ", label=\"" << fixed(percent, 0) << "\"";
        }
        os << "];\n";
    }
    os << "}\n";
}

std::string
toDot(const Procedure &proc)
{
    std::ostringstream os;
    writeDot(proc, os);
    return os.str();
}

}  // namespace balign
