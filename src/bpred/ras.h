/**
 * @file
 * Return address stack (paper §6): a 32-entry circular stack, "very
 * accurate at predicting the destination for return instructions". Present
 * in every simulated configuration.
 */

#ifndef BALIGN_BPRED_RAS_H
#define BALIGN_BPRED_RAS_H

#include <vector>

#include "support/types.h"

namespace balign {

/// push() and pop() are defined here so that the batched replay
/// engine's per-op loops inline them.
class ReturnStack
{
  public:
    explicit ReturnStack(std::size_t entries = 32);

    /// Pushes the return address of a call (call site + 1 instruction).
    void
    push(Addr return_addr)
    {
        stack_[top_] = return_addr;
        if (++top_ == stack_.size())
            top_ = 0;
        if (depth_ < stack_.size())
            ++depth_;
    }

    /**
     * Pops the predicted return target. Returns kNoAddr when the stack is
     * empty (underflow: the prediction will miss).
     */
    Addr
    pop()
    {
        if (depth_ == 0)
            return kNoAddr;
        top_ = (top_ == 0 ? stack_.size() : top_) - 1;
        --depth_;
        return stack_[top_];
    }

    /// Current live depth (0..entries; stops growing at capacity although
    /// pushes wrap and overwrite).
    std::size_t depth() const { return depth_; }

    std::size_t capacity() const { return stack_.size(); }

  private:
    std::vector<Addr> stack_;
    std::size_t top_ = 0;    ///< index of the next free slot
    std::size_t depth_ = 0;  ///< live entries (capped at capacity)
};

}  // namespace balign

#endif  // BALIGN_BPRED_RAS_H
