#include "layout/layout_diff.h"

#include <sstream>

namespace balign {

namespace {

/// Formats an Addr, rendering the kNoAddr sentinel readably.
std::string
addrStr(Addr addr)
{
    return addr == kNoAddr ? "none" : std::to_string(addr);
}

}  // namespace

std::string
describeLayoutDifference(const ProgramLayout &a, const ProgramLayout &b)
{
    std::ostringstream out;
    if (a.procs.size() != b.procs.size()) {
        out << "procedure count " << a.procs.size() << " vs "
            << b.procs.size();
        return out.str();
    }
    if (a.totalInstrs != b.totalInstrs) {
        out << "program totalInstrs " << a.totalInstrs << " vs "
            << b.totalInstrs;
        return out.str();
    }
    for (ProcId p = 0; p < a.procs.size(); ++p) {
        const ProcLayout &pa = a.procs[p];
        const ProcLayout &pb = b.procs[p];
        out.str("");
        out << "proc " << p << ": ";
        if (pa.order != pb.order) {
            out << "block order differs";
            return out.str();
        }
        if (pa.base != pb.base) {
            out << "base " << pa.base << " vs " << pb.base;
            return out.str();
        }
        if (pa.totalInstrs != pb.totalInstrs) {
            out << "totalInstrs " << pa.totalInstrs << " vs "
                << pb.totalInstrs;
            return out.str();
        }
        if (pa.jumpsInserted != pb.jumpsInserted ||
            pa.jumpsRemoved != pb.jumpsRemoved ||
            pa.sensesInverted != pb.sensesInverted) {
            out << "transform counters (" << pa.jumpsInserted << ","
                << pa.jumpsRemoved << "," << pa.sensesInverted << ") vs ("
                << pb.jumpsInserted << "," << pb.jumpsRemoved << ","
                << pb.sensesInverted << ")";
            return out.str();
        }
        if (pa.blocks.size() != pb.blocks.size()) {
            out << "block count " << pa.blocks.size() << " vs "
                << pb.blocks.size();
            return out.str();
        }
        for (BlockId id = 0; id < pa.blocks.size(); ++id) {
            const BlockLayout &ba = pa.blocks[id];
            const BlockLayout &bb = pb.blocks[id];
            out.str("");
            out << "proc " << p << " block " << id << ": ";
            if (ba.addr != bb.addr) {
                out << "addr " << addrStr(ba.addr) << " vs "
                    << addrStr(bb.addr);
                return out.str();
            }
            if (ba.orderIndex != bb.orderIndex) {
                out << "orderIndex " << ba.orderIndex << " vs "
                    << bb.orderIndex;
                return out.str();
            }
            if (ba.finalInstrs != bb.finalInstrs ||
                ba.baseInstrs != bb.baseInstrs) {
                out << "sizes (" << ba.finalInstrs << "," << ba.baseInstrs
                    << ") vs (" << bb.finalInstrs << "," << bb.baseInstrs
                    << ")";
                return out.str();
            }
            if (ba.cond != bb.cond) {
                out << "cond realization differs";
                return out.str();
            }
            if (ba.jumpInserted != bb.jumpInserted ||
                ba.jumpRemoved != bb.jumpRemoved) {
                out << "jump flags (" << ba.jumpInserted << ","
                    << ba.jumpRemoved << ") vs (" << bb.jumpInserted << ","
                    << bb.jumpRemoved << ")";
                return out.str();
            }
            if (ba.branchAddr != bb.branchAddr ||
                ba.jumpAddr != bb.jumpAddr) {
                out << "branch/jump addrs (" << addrStr(ba.branchAddr)
                    << "," << addrStr(ba.jumpAddr) << ") vs ("
                    << addrStr(bb.branchAddr) << "," << addrStr(bb.jumpAddr)
                    << ")";
                return out.str();
            }
        }
    }
    return "";
}

bool
layoutsIdentical(const ProgramLayout &a, const ProgramLayout &b)
{
    return a == b;
}

}  // namespace balign
