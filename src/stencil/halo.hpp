// Halo (ghost-region) exchange over Cartesian Collective Communication.
//
// Implements the Figure 1 / Listing 3 communication of the paper for any
// dimension, halo depth and element type, with two plans:
//
//  * HaloMode::alltoallw — one Cartesian alltoallw over the full Moore
//    shell (3^d - 1 neighbors): faces carry full-width strips, so the
//    corner cells travel inside several blocks (the overlap the paper
//    points out in Section 3.4).
//  * HaloMode::combined — the Section 3.4 overlap-avoiding combination
//    (2-dimensional fields): one alltoallw schedule for the corner-free
//    face strips merged with one allgatherw schedule per corner region
//    that replicates each h x h corner to its three consumers. Rounds of
//    equal phase and congruent offset are fused, so the number of
//    messages does not grow; the communicated volume shrinks.
#pragma once

#include "cartcomm/cartcomm.hpp"
#include "stencil/field.hpp"

namespace stencil {

enum class HaloMode { alltoallw, combined };

/// Persistent halo-exchange plan bound to one field. Create once, call
/// exchange() every iteration (the Listing 3 usage pattern).
class HaloExchange {
 public:
  HaloExchange() = default;

  /// `data`/`elem`/`interior`/`depth` describe the local field (see
  /// Field<T>); proc_dims/periods the process grid. Collective.
  HaloExchange(const mpl::Comm& comm, std::span<const int> proc_dims,
               std::span<const int> periods, void* data,
               std::span<const int> interior, int depth,
               const mpl::Datatype& elem, HaloMode mode = HaloMode::alltoallw,
               cartcomm::Algorithm alg = cartcomm::Algorithm::automatic);

  /// Convenience constructor from a Field.
  template <typename T>
  HaloExchange(const mpl::Comm& comm, std::span<const int> proc_dims,
               std::span<const int> periods, Field<T>& field,
               HaloMode mode = HaloMode::alltoallw,
               cartcomm::Algorithm alg = cartcomm::Algorithm::automatic)
      : HaloExchange(comm, proc_dims, periods, field.data(), field.interior(),
                     field.halo(), mpl::Datatype::of<T>(), mode, alg) {}

  /// Run one halo exchange (collective, blocking).
  void exchange() const;

  [[nodiscard]] const cartcomm::CartNeighborComm& cart() const noexcept {
    return cc_;
  }
  [[nodiscard]] HaloMode mode() const noexcept { return mode_; }

  /// Per-process communicated volume in bytes (for the ablation study).
  [[nodiscard]] long long send_bytes() const;
  /// Send-receive rounds of the plan.
  [[nodiscard]] int rounds() const;

 private:
  cartcomm::CartNeighborComm cc_;
  HaloMode mode_ = HaloMode::alltoallw;
  cartcomm::PersistentColl op_;     // alltoallw mode
  cartcomm::Schedule combined_;     // combined mode
  mpl::Comm comm_;
};

}  // namespace stencil
