/**
 * @file
 * Program: a collection of procedures plus program-level profile counters.
 */

#ifndef BALIGN_CFG_PROGRAM_H
#define BALIGN_CFG_PROGRAM_H

#include <string>
#include <vector>

#include "cfg/procedure.h"
#include "support/types.h"

namespace balign {

/**
 * Where a Program's edge weights came from. Measured profiles are
 * recorded by a trace walk (profileProgram, sim/batch_replay.h),
 * degraded ones passed through profile/degrade.h afterwards, estimated
 * ones synthesized from the CFG alone by estimate/estimate.h. Serialized
 * alongside the profile and surfaced in `balign lint` so goldens and
 * certificates record which profile kind produced a layout.
 */
enum class ProfileProvenance : std::uint8_t {
    Measured,
    Degraded,
    Estimated,
};

/// Stable lowercase tag ("measured" / "degraded" / "estimated").
const char *profileProvenanceName(ProfileProvenance provenance);

/// Inverse of profileProvenanceName; false on unknown tags.
bool profileProvenanceFromName(const std::string &name,
                               ProfileProvenance &provenance);

/**
 * A whole program. Procedure 0 is "main" (the walk root) unless overridden.
 * Procedures are laid out in id order; the layout engine assigns each
 * procedure a contiguous address range in that order (the paper reorders
 * blocks within procedures only — no procedure splitting or reordering).
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    ProcId mainProc() const { return main_; }
    void setMainProc(ProcId main) { main_ = main; }

    std::size_t numProcs() const { return procs_.size(); }

    const Procedure &proc(ProcId id) const { return procs_[id]; }
    Procedure &proc(ProcId id) { return procs_[id]; }

    const std::vector<Procedure> &procs() const { return procs_; }
    std::vector<Procedure> &procs() { return procs_; }

    /// Adds an empty procedure; returns its id.
    ProcId addProc(std::string name);

    /// Total static instructions across all procedures.
    std::uint64_t totalInstrs() const;

    /// Resets all edge weights across all procedures.
    void clearWeights();

    /// Provenance of the current edge weights (Measured by default; the
    /// profile derivation, degrader and estimator re-tag as they run).
    ProfileProvenance profileProvenance() const { return provenance_; }
    void setProfileProvenance(ProfileProvenance provenance)
    {
        provenance_ = provenance;
    }

  private:
    std::string name_;
    ProcId main_ = 0;
    ProfileProvenance provenance_ = ProfileProvenance::Measured;
    std::vector<Procedure> procs_;
};

}  // namespace balign

#endif  // BALIGN_CFG_PROGRAM_H
