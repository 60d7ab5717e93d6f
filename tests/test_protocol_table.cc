/**
 * @file
 * Exhaustive walk of every (state, event) pair of every protocol's
 * transition table.
 *
 * Two properties are pinned:
 *  - every legal transition lands in a state the protocol declares
 *    (closure), with an action that makes sense for the event class;
 *  - every pair OUTSIDE the table THROWS std::logic_error from on()
 *    (a miswired controller must fail loudly, not silently no-op), and
 *    the diagnostic names the protocol, state and event.
 *
 * On top of the walk, the per-protocol shape is spot-checked against
 * the textbook definitions (MSI has no E/O/F; MESI's E upgrades
 * silently; MOESI's M answers a read recall by moving to O; MESIF
 * installs read fills in F).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "coherence/protocol.hh"

namespace wo {
namespace {

const ProtocolKind kAll[] = {ProtocolKind::Msi, ProtocolKind::Mesi,
                             ProtocolKind::Moesi, ProtocolKind::Mesif};

const LineState kStates[] = {LineState::Invalid,  LineState::Shared,
                             LineState::Exclusive, LineState::Modified,
                             LineState::Owned,    LineState::Forward};

const LineEvent kEvents[] = {
    LineEvent::Load,          LineEvent::Store,
    LineEvent::Evict,         LineEvent::FillShared,
    LineEvent::FillExclusive, LineEvent::FillModified,
    LineEvent::UpgradeOwnership, LineEvent::Invalidate,
    LineEvent::FwdGetS,       LineEvent::FwdGetX,
};

TEST(ProtocolTable, EveryLegalTransitionStaysInsideTheProtocolStateSet)
{
    for (ProtocolKind k : kAll) {
        const CoherenceProtocol &p = CoherenceProtocol::get(k);
        for (LineState s : kStates) {
            for (LineEvent e : kEvents) {
                if (!p.legal(s, e))
                    continue;
                const LineTransition &t = p.on(s, e);
                EXPECT_TRUE(t.next == LineState::Invalid ||
                            p.hasState(t.next))
                    << p.name() << " " << toString(s) << " x "
                    << toString(e) << " -> " << toString(t.next);
                // Transitions only start from states the protocol uses.
                EXPECT_TRUE(s == LineState::Invalid || p.hasState(s))
                    << p.name() << " transition from foreign state "
                    << toString(s);
            }
        }
    }
}

TEST(ProtocolTable, EveryIllegalPairThrowsNamingTheProtocolStateAndEvent)
{
    for (ProtocolKind k : kAll) {
        const CoherenceProtocol &p = CoherenceProtocol::get(k);
        int illegal = 0;
        for (LineState s : kStates) {
            for (LineEvent e : kEvents) {
                if (p.legal(s, e)) {
                    EXPECT_NO_THROW(p.on(s, e));
                    continue;
                }
                ++illegal;
                try {
                    p.on(s, e);
                    FAIL() << p.name() << ": on(" << toString(s) << ", "
                           << toString(e)
                           << ") is outside the table but did not throw";
                } catch (const std::logic_error &ex) {
                    std::string what = ex.what();
                    EXPECT_NE(what.find(p.name()), std::string::npos)
                        << what;
                    EXPECT_NE(what.find(toString(s)), std::string::npos)
                        << what;
                    EXPECT_NE(what.find(toString(e)), std::string::npos)
                        << what;
                }
            }
        }
        // Every protocol leaves most of the 6x10 grid illegal; a table
        // that legalizes everything is a bug in the walk itself.
        EXPECT_GT(illegal, 20) << p.name();
    }
}

TEST(ProtocolTable, ActionsMatchEventClass)
{
    // Request-side events never produce respond-side actions and vice
    // versa, for every protocol.
    for (ProtocolKind k : kAll) {
        const CoherenceProtocol &p = CoherenceProtocol::get(k);
        for (LineState s : kStates) {
            for (LineEvent e : kEvents) {
                if (!p.legal(s, e))
                    continue;
                LineAction a = p.on(s, e).action;
                switch (e) {
                  case LineEvent::Load:
                  case LineEvent::Store:
                    EXPECT_TRUE(a == LineAction::Hit ||
                                a == LineAction::SilentUpgrade ||
                                a == LineAction::IssueGetS ||
                                a == LineAction::IssueGetX ||
                                a == LineAction::IssueUpgrade)
                        << p.name() << " " << toString(s) << " x "
                        << toString(e);
                    break;
                  case LineEvent::Evict:
                    EXPECT_TRUE(a == LineAction::WritebackData ||
                                a == LineAction::RelinquishClean ||
                                a == LineAction::DropSilent)
                        << p.name() << " " << toString(s);
                    break;
                  case LineEvent::FillShared:
                  case LineEvent::FillExclusive:
                  case LineEvent::FillModified:
                  case LineEvent::UpgradeOwnership:
                    EXPECT_EQ(a, LineAction::None)
                        << p.name() << " " << toString(s) << " x "
                        << toString(e);
                    break;
                  case LineEvent::Invalidate:
                    EXPECT_EQ(a, LineAction::AckInvalidate) << p.name();
                    break;
                  case LineEvent::FwdGetS:
                    EXPECT_TRUE(a == LineAction::RespondData ||
                                a == LineAction::RespondDataOwned)
                        << p.name() << " " << toString(s);
                    break;
                  case LineEvent::FwdGetX:
                    EXPECT_EQ(a, LineAction::RespondDataInv)
                        << p.name() << " " << toString(s);
                    break;
                }
            }
        }
    }
}

TEST(ProtocolTable, MsiUsesOnlyInvalidSharedModified)
{
    const CoherenceProtocol &msi = CoherenceProtocol::get(ProtocolKind::Msi);
    EXPECT_TRUE(msi.hasState(LineState::Shared));
    EXPECT_TRUE(msi.hasState(LineState::Modified));
    EXPECT_FALSE(msi.hasState(LineState::Exclusive));
    EXPECT_FALSE(msi.hasState(LineState::Owned));
    EXPECT_FALSE(msi.hasState(LineState::Forward));
    EXPECT_FALSE(msi.grantsExclusiveClean());
    EXPECT_FALSE(msi.usesOwned());
    EXPECT_FALSE(msi.usesForward());
    // Reads fill Shared, writes fill Modified: the seed protocol.
    EXPECT_EQ(msi.on(LineState::Invalid, LineEvent::FillShared).next,
              LineState::Shared);
    EXPECT_EQ(msi.on(LineState::Invalid, LineEvent::FillModified).next,
              LineState::Modified);
    // No clean-exclusive fill exists in MSI.
    EXPECT_FALSE(msi.legal(LineState::Invalid, LineEvent::FillExclusive));
}

TEST(ProtocolTable, MesiGrantsCleanExclusiveAndUpgradesSilently)
{
    const CoherenceProtocol &p = CoherenceProtocol::get(ProtocolKind::Mesi);
    EXPECT_TRUE(p.grantsExclusiveClean());
    EXPECT_FALSE(p.usesOwned());
    EXPECT_FALSE(p.usesForward());
    EXPECT_EQ(p.on(LineState::Invalid, LineEvent::FillExclusive).next,
              LineState::Exclusive);
    const LineTransition &store = p.on(LineState::Exclusive,
                                       LineEvent::Store);
    EXPECT_EQ(store.next, LineState::Modified);
    EXPECT_EQ(store.action, LineAction::SilentUpgrade);
    // Clean E relinquishes without data on eviction.
    EXPECT_EQ(p.on(LineState::Exclusive, LineEvent::Evict).action,
              LineAction::RelinquishClean);
}

TEST(ProtocolTable, MoesiKeepsOwnershipAcrossReadRecalls)
{
    const CoherenceProtocol &p =
        CoherenceProtocol::get(ProtocolKind::Moesi);
    EXPECT_TRUE(p.usesOwned());
    const LineTransition &t = p.on(LineState::Modified, LineEvent::FwdGetS);
    EXPECT_EQ(t.next, LineState::Owned);
    EXPECT_EQ(t.action, LineAction::RespondDataOwned);
    // O supplies data and stays O across further read recalls; a store
    // needs an upgrade (sharers must be invalidated); eviction writes
    // the dirty data back.
    EXPECT_EQ(p.on(LineState::Owned, LineEvent::FwdGetS).next,
              LineState::Owned);
    EXPECT_EQ(p.on(LineState::Owned, LineEvent::Store).action,
              LineAction::IssueUpgrade);
    EXPECT_EQ(p.on(LineState::Owned, LineEvent::Evict).action,
              LineAction::WritebackData);
}

TEST(ProtocolTable, MesifInstallsReadFillsInForward)
{
    const CoherenceProtocol &p =
        CoherenceProtocol::get(ProtocolKind::Mesif);
    EXPECT_TRUE(p.usesForward());
    EXPECT_FALSE(p.usesOwned());
    // The most recent requester becomes the forwarder.
    EXPECT_EQ(p.on(LineState::Invalid, LineEvent::FillShared).next,
              LineState::Forward);
    // Serving a read demotes F to plain S (the requester takes over).
    const LineTransition &t = p.on(LineState::Forward, LineEvent::FwdGetS);
    EXPECT_EQ(t.next, LineState::Shared);
    EXPECT_EQ(t.action, LineAction::RespondData);
    // F is clean: eviction relinquishes, no data.
    EXPECT_EQ(p.on(LineState::Forward, LineEvent::Evict).action,
              LineAction::RelinquishClean);
}

TEST(ProtocolTable, TransitionLabelsAreStableStrings)
{
    EXPECT_STREQ(transitionLabel(LineState::Modified, LineState::Shared),
                 "M->S");
    EXPECT_STREQ(transitionLabel(LineState::Invalid, LineState::Forward),
                 "I->F");
    EXPECT_STREQ(transitionLabel(LineState::Exclusive,
                                 LineState::Modified),
                 "E->M");
    // Same pointer every call: safe to keep in trace events forever.
    EXPECT_EQ(transitionLabel(LineState::Owned, LineState::Invalid),
              transitionLabel(LineState::Owned, LineState::Invalid));
}

} // namespace
} // namespace wo
