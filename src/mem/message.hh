/**
 * @file
 * Messages exchanged over the simulated interconnects.
 *
 * One flat message type serves both layers:
 *  - the uncached layer (processor <-> memory module requests/responses),
 *    used for the cache-less configurations of Figure 1;
 *  - the directory coherence protocol (cache <-> directory), used for the
 *    cache-based configurations and the Section 5 implementation.
 */

#ifndef WO_MEM_MESSAGE_HH
#define WO_MEM_MESSAGE_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace wo {

/** All message types of both protocol layers. */
enum class MsgType {
    // --- uncached layer: processor <-> memory module ---
    MemReadReq,   ///< read request
    MemWriteReq,  ///< write request
    MemRmwReq,    ///< atomic read-modify-write (TestAndSet)
    MemReadResp,  ///< read response (value)
    MemWriteResp, ///< write acknowledgement
    MemRmwResp,   ///< rmw response (old value)

    // --- coherence protocol: cache <-> directory ---
    GetS,       ///< cache requests a shared copy (read miss)
    GetX,       ///< cache requests an exclusive copy (write miss)
    Upgrade,    ///< sharer requests ownership without data
    PutX,       ///< owner writes back and relinquishes a dirty line
    PutE,       ///< holder relinquishes a clean exclusive/forward line
                ///< (no data; keeps owner/forwarder tracking exact)
    Data,       ///< directory supplies data; for writes, invalidations of
                ///< other copies may still be in flight (commit, not GP)
    DataE,      ///< directory supplies data clean-exclusive (read miss,
                ///< no other copies; MESI-family E fill)
    DataEx,     ///< directory supplies data with exclusivity and no
                ///< outstanding invalidations (commit + globally performed)
    UpgradeAck, ///< ownership granted to an upgrading sharer; ackCount
                ///< carries the number of invalidations in flight
    WriteAck,   ///< all invalidations acknowledged: write is globally
                ///< performed
    Inv,        ///< directory tells a sharer to invalidate
    InvAck,     ///< sharer acknowledges an invalidation
    Recall,     ///< directory asks the owner to downgrade to shared and
                ///< return data (servicing a remote read)
    RecallInv,  ///< directory asks the owner to invalidate and return data
                ///< (servicing a remote write / sync)
    RecallData, ///< owner's response to Recall (now shared)
    RecallDataOwned, ///< owner's response to Recall retaining ownership
                     ///< (MOESI: the line stays dirty at the owner)
    RecallInvData, ///< owner's response to RecallInv (now invalid)
    RecallNack, ///< owner no longer holds the line (writeback raced)
    PutAck,     ///< directory acknowledges a writeback
};

/** True for coherence requests a directory serializes per line. */
bool isDirRequest(MsgType t);

/** Short printable name. */
std::string toString(MsgType t);

/** One message in flight on an interconnect. */
struct Msg
{
    MsgType type = MsgType::MemReadReq;
    NodeId src = -1;
    NodeId dst = -1;
    Addr addr = 0;
    Word value = 0;

    /** Requester-side transaction identifier (processor op id or cache
     * MSHR id), echoed in responses. */
    std::uint64_t reqId = 0;

    /** Number of pending invalidations (UpgradeAck). */
    int ackCount = 0;

    /** Request originates from a synchronization operation. Recalls carry
     * the flag of the request that triggered them so the owner can apply
     * the reserve-bit rule. */
    bool forSync = false;
};

} // namespace wo

#endif // WO_MEM_MESSAGE_HH
