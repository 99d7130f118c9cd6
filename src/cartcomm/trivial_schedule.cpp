// The trivial t-round algorithm (Listing 4) as a Schedule.
//
// One phase per non-zero neighbor, in neighbor index order, whose single
// send-receive round exchanges block i with the target at N[i] and the
// source at -N[i]; the zero-vector blocks move in the copy phase. Rounds
// carry the caller's block descriptors as given, so each message is the
// one a blocking sendrecv of that block would send. There is nothing to
// compile, so the schedule is built directly in O(t·d), without the plan
// cache.
//
// The schedule pre-posts its receives (Schedule::preposts_receives): each
// receive writes block i of the caller's receive buffer, distinct from
// every other receive block and from the send buffer by the MPI buffer
// rule these collectives inherit, so no receive can overwrite anything a
// later round still sends or receives.
#include "cartcomm/build_schedule.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

Schedule build_trivial_schedule(const CartNeighborComm& cc,
                                std::vector<SendBlock> sends,
                                std::vector<RecvBlock> recvs) {
  const Neighborhood& nb = cc.neighborhood();
  const int t = nb.count();
  MPL_REQUIRE(sends.size() == static_cast<std::size_t>(t) &&
                  recvs.size() == static_cast<std::size_t>(t),
              "trivial schedule: one send and one receive block per neighbor");
  const auto rounds = static_cast<std::size_t>(nb.trivial_rounds());
  ScheduleBuilder builder;
  builder.set_grid(cc.grid());
  builder.set_prepost_receives();
  builder.reserve(rounds, rounds, static_cast<std::size_t>(nb.ndims()));
  for (int i = 0; i < t; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    SendBlock& s = sends[ui];
    RecvBlock& r = recvs[ui];
    if (nb.nonzeros(i) == 0) {
      builder.add_copy({std::move(s.type), std::move(r.type), s.addr, s.count,
                        r.addr, r.count});
      continue;
    }
    // A partner off a non-periodic mesh is PROC_NULL exactly when N[i]
    // (or -N[i]) leaves it: an intentional boundary hole.
    builder.add_block_round(cc.target_ranks()[ui], std::move(s),
                            cc.source_ranks()[ui], std::move(r),
                            nb.offset(i));
    builder.end_phase();
  }
  return builder.finish();
}

}  // namespace cartcomm
