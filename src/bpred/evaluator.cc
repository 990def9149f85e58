#include "bpred/evaluator.h"

namespace balign {

EvalParams
EvalParams::forArch(Arch arch)
{
    EvalParams params;
    params.arch = arch;
    switch (arch) {
      case Arch::BtbSmall:
        params.btbEntries = 64;
        params.btbWays = 2;
        break;
      case Arch::BtbLarge:
        params.btbEntries = 256;
        params.btbWays = 4;
        break;
      default:
        break;
    }
    return params;
}

}  // namespace balign
