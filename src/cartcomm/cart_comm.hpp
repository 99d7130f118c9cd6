// The Cartesian Collective Communication communicator (Listing 1) and its
// helper/query functionality (Listing 2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/neighborhood.hpp"
#include "mpl/comm.hpp"
#include "mpl/topology.hpp"

namespace cartcomm {

/// Key/value hints attached at communicator creation (the MPI_Info
/// analogue). Recognized keys:
///   "alltoall_algorithm"  : "trivial" | "combining" | "automatic"
///   "allgather_algorithm" : "trivial" | "combining" | "automatic"
///   "allgather_order"     : "natural" | "increasing_ck" | "decreasing_ck"
using Info = std::map<std::string, std::string>;

/// Algorithm selection for the collective operations. `automatic` picks
/// message combining below the cut-off block size of Section 3.1 and the
/// trivial algorithm above it; an automatic alltoall combines over the
/// communicator's routing neighborhood (CartNeighborComm::routing).
/// `combining` is the paper's Algorithm 1 over the offsets as given.
enum class Algorithm { automatic, trivial, combining };

namespace detail {
enum class OneShot : std::uint8_t;
struct OneShotSlot;
struct OneShotSlots;
struct RoutingViews;
}  // namespace detail

/// Communicator carrying a d-dimensional mesh/torus layout and an
/// isomorphic t-neighborhood; created collectively by
/// cart_neighborhood_create. All Cartesian collective operations run on
/// this object.
class CartNeighborComm {
 public:
  CartNeighborComm() = default;

  [[nodiscard]] bool valid() const noexcept { return cart_.comm().valid(); }
  [[nodiscard]] const mpl::Comm& comm() const noexcept { return cart_.comm(); }
  [[nodiscard]] const mpl::CartGrid& grid() const noexcept { return cart_.grid(); }
  [[nodiscard]] const Neighborhood& neighborhood() const noexcept { return nb_; }
  [[nodiscard]] const NeighborhoodStats& stats() const noexcept { return stats_; }
  [[nodiscard]] int rank() const noexcept { return cart_.rank(); }
  [[nodiscard]] int size() const noexcept { return cart_.size(); }
  [[nodiscard]] std::span<const int> coords() const noexcept {
    return cart_.coords();
  }
  [[nodiscard]] std::span<const int> weights() const noexcept { return weights_; }

  /// Is this process' coordinate in dimension j, moved by delta, on the
  /// mesh? Always, in a periodic dimension.
  [[nodiscard]] bool on_mesh(int j, int delta) const {
    const int v = coords()[static_cast<std::size_t>(j)] + delta;
    return grid().periodic(j) || (v >= 0 && v < grid().dims()[static_cast<std::size_t>(j)]);
  }

  /// Draw the matching tag of a new persistent operation: the next value of
  /// a per-rank sequence above kCartTag that every with_neighborhood view of
  /// this communicator shares. Persistent *_init calls are collective and
  /// ordered, so every rank draws the same tag for the same operation, and
  /// operations in flight together never match each other's messages.
  [[nodiscard]] int next_persistent_tag() const;

  /// The blocking one-shot call `kind`'s slot: the schedule it bound last
  /// (coll.cpp). Rank-private like the tag sequence, shared by this
  /// communicator's copies and fresh in each with_neighborhood view.
  [[nodiscard]] detail::OneShotSlot& oneshot_slot(detail::OneShot kind) const;

  // -- Listing 2 helpers -----------------------------------------------------

  /// Cart_relative_rank: rank of the process at relative offset `rel`
  /// (PROC_NULL when a non-periodic dimension falls off the mesh).
  [[nodiscard]] int relative_rank(std::span<const int> rel) const {
    return cart_.relative_rank(rel);
  }

  /// Cart_relative_shift: (source, destination) ranks for one offset.
  [[nodiscard]] std::pair<int, int> relative_shift(std::span<const int> rel) const {
    return cart_.relative_shift(rel);
  }

  /// Cart_relative_coord: coordinates of `rank` relative to the calling
  /// process; each component is the minimal-magnitude representative
  /// (ties resolved toward positive) in periodic dimensions.
  [[nodiscard]] std::vector<int> relative_coord(int rank) const;

  /// Cart_neighbor_count.
  [[nodiscard]] int neighbor_count() const noexcept { return nb_.count(); }

  /// Cart_neighbor_get: the calling process' actual source/target ranks in
  /// neighbor order (PROC_NULL entries on non-periodic boundaries) — the
  /// format required by dist_graph_create_adjacent.
  [[nodiscard]] std::span<const int> target_ranks() const noexcept {
    return target_ranks_;
  }
  [[nodiscard]] std::span<const int> source_ranks() const noexcept {
    return source_ranks_;
  }

  /// Equivalent distributed-graph communicator over the same neighborhood
  /// (used for baseline comparisons; drops PROC_NULL boundary entries).
  [[nodiscard]] mpl::DistGraphComm to_dist_graph() const;

  /// A view of this communicator with a different (sub-)neighborhood,
  /// sharing the underlying communicator and grid. Purely local (no
  /// collective validation): the caller must derive `sub` identically on
  /// all processes. Used to build combined schedules (Section 3.4) from
  /// several sub-neighborhoods of one stencil.
  [[nodiscard]] CartNeighborComm with_neighborhood(Neighborhood sub) const;

  /// The neighborhood a sparse allreduce reduces over: this communicator
  /// if it contains the zero vector, else a view with it appended (last,
  /// so neighbor indices keep their meaning). Built on first use and shared
  /// by this communicator's copies; a with_neighborhood view builds its own.
  [[nodiscard]] const CartNeighborComm& with_self() const;

  /// The routing neighborhood for blocks of at most `block_bytes`: block i
  /// keeps its index and its partners, but in every periodic dimension an
  /// offset coordinate that reaches this process becomes 0 (its hop is a
  /// local copy), and the coordinates that reach one other process merge
  /// into their minimal-magnitude representative in (-p/2, p/2] (ties
  /// positive, as relative_coord) when the cost model says one message
  /// beats several (DESIGN.md, "Folded offsets"). This communicator where
  /// nothing folds; otherwise a view built on first use and shared by this
  /// communicator's copies, like with_self()'s.
  [[nodiscard]] const CartNeighborComm& routing(std::size_t block_bytes) const;

  /// The communicator whose offsets an alltoall requested as `requested`
  /// combines over: routing(block_bytes) under automatic (after the Info
  /// default), this communicator under an explicit algorithm.
  [[nodiscard]] const CartNeighborComm& alltoall_routing(
      Algorithm requested, std::size_t block_bytes) const {
    if (requested == Algorithm::automatic) requested = a2a_alg_;
    return requested == Algorithm::automatic ? routing(block_bytes) : *this;
  }

  // -- algorithm selection defaults (from the Info object) -------------------

  [[nodiscard]] Algorithm default_alltoall_algorithm() const noexcept {
    return a2a_alg_;
  }
  [[nodiscard]] Algorithm default_allgather_algorithm() const noexcept {
    return ag_alg_;
  }
  [[nodiscard]] DimOrder allgather_order() const noexcept { return ag_order_; }

  /// Resolve `automatic` against the cut-off predictor for a block of
  /// `block_bytes` (alltoall) under this communicator's network model.
  [[nodiscard]] Algorithm resolve_alltoall(Algorithm requested,
                                           std::size_t block_bytes) const;
  [[nodiscard]] Algorithm resolve_allgather(Algorithm requested) const;

  /// Boundary signature used by the compiled-plan cache key: two values
  /// per dimension. Periodic dimensions contribute (-1, -1) (position
  /// never matters on a torus); non-periodic dimensions contribute this
  /// process' distance to the low and high mesh edge, each clamped to the
  /// neighborhood's reach in that dimension (max |offset coordinate|).
  /// Every position-dependent predicate in the schedule builders tests
  /// whether R[j] + delta stays on the mesh for some |delta| <= reach_j,
  /// which is a function of exactly these clamped distances — so two
  /// processes with equal signatures (and equal neighborhood, dims,
  /// periods and block sizes) compute structurally identical schedules.
  /// Computed once, at creation.
  [[nodiscard]] std::span<const int> boundary_signature() const noexcept {
    return boundary_sig_;
  }

 private:
  friend CartNeighborComm cart_neighborhood_create(
      const mpl::Comm&, std::span<const int>, std::span<const int>,
      const Neighborhood&, std::span<const int>, const Info&, bool);
  friend std::optional<CartNeighborComm> detect_cartesian(
      const mpl::CartComm&, std::span<const int>, const Info&);

  [[nodiscard]] std::vector<int> make_boundary_signature() const;
  /// The cost model `automatic` predicts with: the active one when the
  /// virtual clock runs, else an OmniPath-class fabric.
  [[nodiscard]] mpl::NetConfig cost_model() const;

  mpl::CartComm cart_;
  Neighborhood nb_;
  NeighborhoodStats stats_;
  std::vector<int> weights_;
  std::vector<int> target_ranks_;
  std::vector<int> source_ranks_;
  std::vector<int> boundary_sig_;
  // Persistent-operation tag sequence, shared with with_neighborhood views.
  std::shared_ptr<std::uint32_t> op_seq_;
  // The one-shot slots: made at creation, like op_seq_, but one set per view.
  std::shared_ptr<detail::OneShotSlots> oneshot_;
  // with_self()'s view, rank-private like op_seq_ but fresh in each
  // with_neighborhood view.
  std::shared_ptr<std::unique_ptr<const CartNeighborComm>> self_view_ =
      std::make_shared<std::unique_ptr<const CartNeighborComm>>();
  // routing()'s views: made at creation like oneshot_, one set per view.
  std::shared_ptr<detail::RoutingViews> routing_;
  Algorithm a2a_alg_ = Algorithm::automatic;
  Algorithm ag_alg_ = Algorithm::automatic;
  DimOrder ag_order_ = DimOrder::increasing_ck;
};

/// Cart_neighborhood_create (Listing 1): collectively create a Cartesian
/// neighborhood communicator. All processes must pass the same dims,
/// periods and target neighborhood (the Cartesian/isomorphism requirement);
/// this is validated with the cheap O(t) broadcast check of Section 2.2.
/// Pass an empty weights span for unweighted neighborhoods. `reorder` is
/// accepted for interface parity (identity mapping is used).
CartNeighborComm cart_neighborhood_create(
    const mpl::Comm& comm, std::span<const int> dims,
    std::span<const int> periods, const Neighborhood& targets,
    std::span<const int> weights = {}, const Info& info = {},
    bool reorder = false);

/// The Section 2.2 detection path: decide collectively whether the given
/// per-process relative neighborhood is identical on all processes of
/// `comm` (broadcast of size O(t) from rank 0, local comparison, allreduce).
/// This is what an MPI library would run inside MPI_Dist_graph_create_adjacent
/// to preselect the Cartesian algorithms.
bool is_isomorphic_neighborhood(const mpl::Comm& comm, const Neighborhood& nb);

/// The full Section 2.2 library-side detection: given the per-process
/// *target rank* lists that an application would pass to
/// MPI_Dist_graph_create_adjacent on a Cartesian communicator (e.g. the
/// output of Cart_neighbor_get), reconstruct each process' relative
/// neighborhood (minimal-magnitude coordinate representatives), check
/// collectively that all processes supplied structurally identical lists,
/// and — when they did — return the Cartesian neighborhood communicator so
/// the specialized algorithms can be preselected. Returns nullopt when the
/// neighborhoods are not Cartesian (the caller then falls back to general
/// graph-topology algorithms). Collective; O(t) communication.
std::optional<CartNeighborComm> detect_cartesian(
    const mpl::CartComm& cart, std::span<const int> target_ranks,
    const Info& info = {});

}  // namespace cartcomm
