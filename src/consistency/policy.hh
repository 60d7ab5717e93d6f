/**
 * @file
 * Consistency policies: the processor-side issue disciplines that
 * distinguish the memory models compared in the paper.
 *
 * A policy decides, per candidate instruction, whether the processor may
 * *generate* the access given what is still outstanding — the knob that
 * separates sequential consistency, Definition 1 weak ordering, and the
 * two Definition 2 / data-race-free implementations. The matching
 * cache-side mechanisms (reserve bits, the coherence-level treatment of
 * read-only synchronization) are selected through the policy's hints.
 */

#ifndef WO_CONSISTENCY_POLICY_HH
#define WO_CONSISTENCY_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cpu/isa.hh"

namespace wo {

/** Snapshot of a processor's outstanding-access bookkeeping. */
struct ProcState
{
    /** Issued memory ops not yet committed. */
    int outstanding = 0;

    /** Issued memory ops not yet globally performed. */
    int notGloballyPerformed = 0;

    /** Synchronization ops issued but not yet committed. */
    int syncsNotCommitted = 0;

    /** Synchronization ops issued but not yet globally performed. */
    int syncsNotGloballyPerformed = 0;

    /** Writes sitting in the write buffer (relaxed systems). */
    int writeBufferDepth = 0;
};

/**
 * Why a processor cannot dispatch right now. Every stalled cycle is
 * attributed to exactly one reason, giving Figure 3's qualitative stall
 * argument a quantitative per-run breakdown:
 *
 *  - CounterNonzero: the issue discipline is waiting for previous
 *    accesses to be globally performed — the Section 5 counter is
 *    nonzero (SC's one-at-a-time rule; Definition 1's stalls around
 *    synchronization, conditions 2 and 3).
 *  - ReserveBit: the Definition 2 disciplines' only processor-side wait
 *    (condition 4: a previous synchronization is uncommitted). The
 *    length of this wait is governed by the reserve-bit hardware — a
 *    remote reserve queues the sync's recall until the remote counter
 *    clears.
 *  - BufferFull: structural back-pressure — the outstanding-op limit is
 *    reached, or a synchronization waits for the write buffer to drain.
 *  - Fence: an explicit fence instruction is waiting.
 *  - Dependency: a register operand is still busy (scoreboard).
 *  - SameAddr: an earlier access to the same address is uncommitted
 *    (condition 1's same-address ordering).
 */
enum class StallReason : std::uint8_t {
    CounterNonzero,
    ReserveBit,
    BufferFull,
    Fence,
    Dependency,
    SameAddr,
};

inline constexpr int kNumStallReasons = 6;

/** Snake-case reason name ("counter_nonzero", ...). */
const char *toString(StallReason r);

/** Abstract issue policy. */
class ConsistencyPolicy
{
  public:
    virtual ~ConsistencyPolicy() = default;

    /** Short name used in reports ("SC", "WO-Def1", ...). */
    virtual std::string name() const = 0;

    /** May an access of kind @p kind be generated given @p st? */
    virtual bool mayIssue(AccessKind kind, const ProcState &st) const = 0;

    /** The policy's mechanisms need a coherent cache (Definition 2
     * implementations do: reserve bits live in the cache). */
    virtual bool requiresCache() const { return false; }

    /** Cache hint: treat read-only syncs (Test) as writes (Section 5
     * example implementation) or as reads (Section 6 refinement). */
    virtual bool syncReadsAsWrites() const { return true; }

    /** Cache hint: enable the reserve-bit machinery (condition 5). */
    virtual bool useReserveBits() const { return false; }

    /** Whether a write buffer (reads bypassing pending writes) is legal
     * under this policy. */
    virtual bool allowWriteBuffer() const { return false; }

    /**
     * Stall attribution: the reason behind a mayIssue() refusal (only
     * meaningful when mayIssue just returned false). The default covers
     * the globally-performed waits of SC and Definition 1; the
     * Definition 2 implementations override it — their only wait is
     * condition 4, whose duration the reserve-bit hardware governs.
     */
    virtual StallReason
    refusalReason(AccessKind, const ProcState &) const
    {
        return StallReason::CounterNonzero;
    }
};

/** Identifiers for the built-in policies. */
enum class PolicyKind {
    Sc,       ///< sequential consistency (Scheurich/Dubois condition)
    Def1,     ///< old weak ordering (Dubois/Scheurich/Briggs Definition 1)
    Def2Drf0, ///< the paper's Section 5 implementation w.r.t. DRF0
    Def2Drf1, ///< the Section 6 refinement (read-only syncs relaxed)
    Relaxed,  ///< no ordering constraints (exhibits Figure 1 violations)
};

/** Name of a policy kind ("SC", "WO-Def1", ...). */
std::string toString(PolicyKind k);

/** Command-line policy name -> kind: sc, def1, def2drf0, def2drf1 or
 * relaxed; nullopt for anything else. */
std::optional<PolicyKind> parsePolicyKind(const std::string &name);

/** The command-line name parsePolicyKind maps to @p k ("sc", ...). */
const char *cliName(PolicyKind k);

/** Factory for built-in policies. */
std::unique_ptr<ConsistencyPolicy> makePolicy(PolicyKind kind);

} // namespace wo

#endif // WO_CONSISTENCY_POLICY_HH
