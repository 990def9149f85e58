#include "bpred/ras.h"

#include "support/log.h"

namespace balign {

ReturnStack::ReturnStack(std::size_t entries) : stack_(entries, kNoAddr)
{
    if (entries == 0)
        panic("ReturnStack: need at least one entry");
}

}  // namespace balign
