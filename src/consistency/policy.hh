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
 *
 * The set is closed: the machines differ only in their issue conditions
 * and hints, so each policy is one row of a constant table (policyOf),
 * and its issue gate is one case of ConsistencyPolicy::block.
 */

#ifndef WO_CONSISTENCY_POLICY_HH
#define WO_CONSISTENCY_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cpu/isa.hh"

namespace wo {

/** Snapshot of a processor's outstanding-access bookkeeping. */
struct ProcState
{
    /** Issued memory ops not yet globally performed. */
    int notGloballyPerformed = 0;

    /** Synchronization ops issued but not yet committed. */
    int syncsNotCommitted = 0;

    /** Synchronization ops issued but not yet globally performed. */
    int syncsNotGloballyPerformed = 0;
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

/** Identifiers for the built-in policies; each indexes its row of
 * kPolicies. */
enum class PolicyKind {
    Sc,       ///< sequential consistency (Scheurich/Dubois condition)
    Def1,     ///< old weak ordering (Dubois/Scheurich/Briggs Definition 1)
    Def2Drf0, ///< the paper's Section 5 implementation w.r.t. DRF0
    Def2Drf1, ///< the Section 6 refinement (read-only syncs relaxed)
    Relaxed,  ///< no ordering constraints (exhibits Figure 1 violations)
};

inline constexpr int kNumPolicyKinds = 5;

/** The programs a policy promises sequentially consistent results for. */
enum class ScPromise : std::uint8_t {
    All,  ///< every program
    Drf0, ///< exactly the DRF0 programs
    None, ///< no program
};

/** One issue discipline: its names, its cache hints, its SC promise and
 * its issue gate. */
struct ConsistencyPolicy
{
    PolicyKind kind;
    /** Report name ("SC", "WO-Def1", ...). */
    const char *name;
    /** Command-line name ("sc", "def1", ...). */
    const char *cli;
    /** The policy's mechanisms need a coherent cache (Definition 2
     * implementations do: reserve bits live in the cache). */
    bool requiresCache;
    /** Cache hint: treat read-only syncs (Test) as writes (Section 5
     * example implementation) or as reads (Section 6 refinement). */
    bool syncReadsAsWrites;
    /** Cache hint: enable the reserve-bit machinery (condition 5). */
    bool useReserveBits;
    /** A write buffer (reads bypassing pending writes) is legal. */
    bool allowWriteBuffer;
    ScPromise scPromise;

    /**
     * The issue gate: why an access of kind @p access may not be
     * generated given @p st, or nullopt when it may issue.
     */
    constexpr std::optional<StallReason>
    block(AccessKind access, const ProcState &st) const
    {
        switch (kind) {
          case PolicyKind::Sc:
            // Scheurich/Dubois: no access is issued until all previous
            // accesses are globally performed.
            if (st.notGloballyPerformed != 0)
                return StallReason::CounterNonzero;
            return std::nullopt;
          case PolicyKind::Def1:
            // Condition 2: a sync waits until every previous access is
            // globally performed. Condition 3: a data access waits
            // until every previous sync is globally performed.
            if (isSync(access) ? st.notGloballyPerformed != 0
                               : st.syncsNotGloballyPerformed != 0)
                return StallReason::CounterNonzero;
            return std::nullopt;
          case PolicyKind::Def2Drf0:
          case PolicyKind::Def2Drf1:
            // Condition 4: no access is generated until every previous
            // sync is *committed* (not globally performed). This is the
            // only processor-side wait; its length is governed by the
            // reserve-bit machinery at remote caches (condition 5).
            if (st.syncsNotCommitted != 0)
                return StallReason::ReserveBit;
            return std::nullopt;
          case PolicyKind::Relaxed:
            return std::nullopt;
        }
        return std::nullopt;
    }

    /** Does the policy promise SC results for a program whose DRF0
     * verdict is @p drf0? */
    constexpr bool
    promisesSc(bool drf0) const
    {
        return scPromise == ScPromise::All ||
               (scPromise == ScPromise::Drf0 && drf0);
    }
};

/** The built-in policies, one row per PolicyKind, in enum order. */
inline constexpr ConsistencyPolicy kPolicies[kNumPolicyKinds] = {
    // Sequential consistency via the Scheurich/Dubois sufficient
    // condition: strict in-order, one-at-a-time issue.
    {.kind = PolicyKind::Sc, .name = "SC", .cli = "sc",
     .requiresCache = false, .syncReadsAsWrites = true,
     .useReserveBits = false, .allowWriteBuffer = false,
     .scPromise = ScPromise::All},
    // The old definition of weak ordering (Dubois, Scheurich and
    // Briggs, Definition 1): (1) sync accesses are strongly ordered
    // (the directory serializes them and treats them as writes);
    // conditions (2) and (3) are block()'s. Data accesses overlap
    // freely between syncs; the processor stalls *itself* around
    // synchronization — the global manifestation the new definition's
    // implementation avoids. It is strictly stronger than Definition 2,
    // so it keeps the DRF0 promise.
    {.kind = PolicyKind::Def1, .name = "WO-Def1", .cli = "def1",
     .requiresCache = false, .syncReadsAsWrites = true,
     .useReserveBits = false, .allowWriteBuffer = false,
     .scPromise = ScPromise::Drf0},
    // The paper's Section 5 implementation of weak ordering (Definition
    // 2) with respect to DRF0. The issuing processor never waits for
    // its pending data accesses at a sync (condition 4 only); instead
    // the reserve bits (condition 5) stall the *next* processor that
    // synchronizes on the same location until this processor's
    // previous reads have committed and writes are globally performed.
    // Weakly ordered hardware promises SC results exactly for DRF0
    // software: the Definition 2 contract.
    {.kind = PolicyKind::Def2Drf0, .name = "WO-Def2-DRF0",
     .cli = "def2drf0", .requiresCache = true, .syncReadsAsWrites = true,
     .useReserveBits = true, .allowWriteBuffer = false,
     .scPromise = ScPromise::Drf0},
    // The Section 6 refinement: read-only syncs (Test) are not
    // serialized as writes; the cache treats them as reads and they set
    // no reserve bit, so spinning stops ping-ponging the sync line
    // between spinners. The trade-off: a read-only sync cannot order
    // the processor's previous accesses with respect to other
    // processors' later syncs.
    {.kind = PolicyKind::Def2Drf1, .name = "WO-Def2-DRF1",
     .cli = "def2drf1", .requiresCache = true, .syncReadsAsWrites = false,
     .useReserveBits = true, .allowWriteBuffer = false,
     .scPromise = ScPromise::Drf0},
    // No ordering beyond intra-processor dependencies. With a write
    // buffer, reads pass buffered writes — the uniprocessor
    // optimizations whose multiprocessor consequences Figure 1
    // illustrates.
    {.kind = PolicyKind::Relaxed, .name = "Relaxed", .cli = "relaxed",
     .requiresCache = false, .syncReadsAsWrites = true,
     .useReserveBits = false, .allowWriteBuffer = true,
     .scPromise = ScPromise::None},
};

/** The table row of @p k. */
constexpr const ConsistencyPolicy &
policyOf(PolicyKind k)
{
    return kPolicies[static_cast<int>(k)];
}

/** Name of a policy kind ("SC", "WO-Def1", ...). */
std::string toString(PolicyKind k);

/** Command-line policy name -> kind: sc, def1, def2drf0, def2drf1 or
 * relaxed; nullopt for anything else. */
std::optional<PolicyKind> parsePolicyKind(const std::string &name);

/** The command-line name parsePolicyKind maps to @p k ("sc", ...). */
const char *cliName(PolicyKind k);

} // namespace wo

#endif // WO_CONSISTENCY_POLICY_HH
