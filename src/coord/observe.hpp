// Shared barrier-time observation gathering.  Both lockstep engines used
// to hand-roll this: CoupledRackEngine snapshotted every slot inline at
// its barrier, and RoomEngine re-aggregated those snapshots with a
// second hand-written loop.  The per-slot gather now lives here (and the
// per-rack aggregation in room/scheduler.hpp's aggregate_rack_observation)
// so the engines and tests read the plant through one code path.
#pragma once

#include <cstddef>

#include "coord/coordinator.hpp"
#include "sim/engine.hpp"

namespace fsc {

class Server;

/// Build slot `index`'s SlotObservation at barrier time `time_s` from its
/// Server + Session, then reset the session's observation window (the
/// snapshot consumes the windowed demand/executed means).
SlotObservation collect_slot_observation(std::size_t index, double time_s,
                                         const Server& server,
                                         SimulationEngine::Session& session);

}  // namespace fsc
